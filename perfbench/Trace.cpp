//===- Trace.cpp - Host-time spans for the benchmark's traced run ---------===//

#include "Trace.h"

#include <cstdio>

using namespace perfbench;

Tracer *perfbench::ActiveTracer = nullptr;

const char *perfbench::layerName(Layer L) {
  switch (L) {
  case Layer::Bench:
    return "bench";
  case Layer::Sim:
    return "sim";
  case Layer::Core:
    return "core";
  case Layer::Apps:
    return "apps";
  case Layer::Morta:
    return "morta";
  case Layer::Nona:
    return "nona";
  case Layer::Interp:
    return "interp";
  case Layer::Checkpoint:
    return "checkpoint";
  case Layer::NumLayers:
    break;
  }
  return "?";
}

void Tracer::begin(const char *Name, Layer L) {
  std::uint64_t Parent = Stack.empty() ? 0 : Stack.back().Id;
  Stack.push_back({NextId++, Parent, hostNs(), 0, Name, L});
}

void Tracer::end() {
  std::uint64_t Now = hostNs();
  Open O = Stack.back();
  Stack.pop_back();
  std::uint64_t Dur = Now - O.Start;
  Self[static_cast<unsigned>(O.L)] += Dur - O.ChildNs;
  if (!Stack.empty())
    Stack.back().ChildNs += Dur;
  auto It = Names.find(std::string_view(O.Name));
  if (It == Names.end())
    It = Names.emplace(O.Name, ByName()).first;
  ByName &B = It->second;
  ++B.Count;
  B.TotalNs += Dur;
  if (Spans.size() < MaxStored)
    Spans.push_back({O.Id, O.Parent, O.Start, Now, O.Name, O.L});
  else
    ++Dropped;
}

std::uint64_t Tracer::count(std::string_view Name) const {
  auto It = Names.find(Name);
  return It == Names.end() ? 0 : It->second.Count;
}

std::uint64_t Tracer::totalNs(std::string_view Name) const {
  auto It = Names.find(Name);
  return It == Names.end() ? 0 : It->second.TotalNs;
}

bool Tracer::writeCsv(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "# run %s: %zu spans stored, %llu dropped past the cap\n",
               RunId.c_str(), Spans.size(),
               static_cast<unsigned long long>(Dropped));
  std::fprintf(F, "run_id,span_id,parent_id,name,layer,start_ns,end_ns\n");
  for (const Stored &S : Spans)
    std::fprintf(F, "%s,%llu,%llu,%s,%s,%llu,%llu\n", RunId.c_str(),
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent), S.Name,
                 layerName(S.L), static_cast<unsigned long long>(S.Start),
                 static_cast<unsigned long long>(S.End));
  return std::fclose(F) == 0;
}
