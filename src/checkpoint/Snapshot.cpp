//===- Snapshot.cpp - Serializable region checkpoints ----------------------===//

#include "checkpoint/Snapshot.h"

#include <cstdio>
#include <sstream>

using namespace parcae;
using namespace parcae::ckpt;

namespace {

void emitDouble(std::string &S, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  S += Buf;
}

void emitConfig(std::string &S, const rt::RegionConfig &C) {
  S += std::to_string(static_cast<int>(C.S));
  S += ' ';
  S += std::to_string(C.DoP.size());
  for (unsigned D : C.DoP) {
    S += ' ';
    S += std::to_string(D);
  }
}

/// Pull-parser over the serialized lines.
class Reader {
public:
  explicit Reader(const std::string &Text) : In(Text) {}

  /// Reads one line and checks its leading keyword; the rest stays in
  /// Line for the field parsers below.
  bool expect(const char *Key) {
    if (!std::getline(In, Buf))
      return false;
    Line.clear();
    Line.str(Buf);
    std::string K;
    return (Line >> K) && K == Key;
  }

  bool u64(std::uint64_t &V) { return static_cast<bool>(Line >> V); }
  bool u32(unsigned &V) { return static_cast<bool>(Line >> V); }
  bool dbl(double &V) { return static_cast<bool>(Line >> V); }
  bool word(std::string &V) { return static_cast<bool>(Line >> V); }

  bool config(rt::RegionConfig &C) {
    int S = 0;
    std::size_t N = 0;
    if (!(Line >> S >> N))
      return false;
    if (S < 0 || S > static_cast<int>(rt::Scheme::Fused) || N > 4096)
      return false;
    C.S = static_cast<rt::Scheme>(S);
    C.DoP.assign(N, 0);
    for (std::size_t I = 0; I < N; ++I)
      if (!(Line >> C.DoP[I]) || C.DoP[I] == 0)
        return false;
    return true;
  }

private:
  std::istringstream In;
  std::istringstream Line;
  std::string Buf;
};

} // namespace

std::string RegionSnapshot::serialize() const {
  std::string S;
  S += "parcae-region-snapshot v" + std::to_string(Version) + "\n";
  S += "region " + Region + "\n";
  S += "cursor " + std::to_string(Cursor) + "\n";
  S += "retired " + std::to_string(Retired) + "\n";
  S += "chunk_k " + std::to_string(ChunkK) + "\n";
  S += "config ";
  emitConfig(S, Config);
  S += "\n";

  S += "tseq ";
  emitDouble(S, Ctrl.SeqThroughput);
  S += "\nbest ";
  emitDouble(S, Ctrl.BestThr);
  S += ' ';
  emitConfig(S, Ctrl.Best);
  S += "\ncache " + std::to_string(Ctrl.Cache.size()) + "\n";
  for (const ControllerMemory::CacheEntry &E : Ctrl.Cache) {
    S += "cache_entry " + std::to_string(E.Budget) + ' ';
    emitDouble(S, E.Thr);
    S += ' ';
    S += E.Limited ? '1' : '0';
    S += ' ';
    emitConfig(S, E.C);
    S += "\n";
  }

  S += "source counted " + std::to_string(Source.Total) + ' ' +
       std::to_string(Source.Cursor) + "\n";
  S += "end\n";
  return S;
}

bool RegionSnapshot::deserialize(const std::string &Text, RegionSnapshot &Out) {
  Reader R(Text);
  std::string V;
  if (!R.expect("parcae-region-snapshot") || !R.word(V))
    return false;
  if (V != "v" + std::to_string(CurrentVersion))
    return false;
  Out = RegionSnapshot{};

  if (!R.expect("region") || !R.word(Out.Region))
    return false;
  if (!R.expect("cursor") || !R.u64(Out.Cursor))
    return false;
  if (!R.expect("retired") || !R.u64(Out.Retired))
    return false;
  if (!R.expect("chunk_k") || !R.u64(Out.ChunkK) || Out.ChunkK == 0)
    return false;
  if (!R.expect("config") || !R.config(Out.Config))
    return false;

  if (!R.expect("tseq") || !R.dbl(Out.Ctrl.SeqThroughput))
    return false;
  if (!R.expect("best") || !R.dbl(Out.Ctrl.BestThr) ||
      !R.config(Out.Ctrl.Best))
    return false;
  std::uint64_t NumCache = 0;
  if (!R.expect("cache") || !R.u64(NumCache))
    return false;
  if (NumCache > 65536)
    return false;
  Out.Ctrl.Cache.resize(NumCache);
  for (ControllerMemory::CacheEntry &E : Out.Ctrl.Cache) {
    unsigned Lim = 0;
    if (!R.expect("cache_entry") || !R.u32(E.Budget) || !R.dbl(E.Thr) ||
        !R.u32(Lim) || !R.config(E.C))
      return false;
    E.Limited = Lim != 0;
  }

  std::string Kind;
  if (!R.expect("source") || !R.word(Kind) || Kind != "counted" ||
      !R.u64(Out.Source.Total) || !R.u64(Out.Source.Cursor))
    return false;
  return R.expect("end");
}
