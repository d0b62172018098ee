//===- NonaSuite.cpp - nona-suite: compiled loops under the controller ----===//
//
// A closed loop over the nine benchmarkSuite() programs, one at a time on
// a 16-core machine with a 16-thread budget. Each loop is compiled by
// Nona, run under a fixed SEQ configuration for the reference time, then
// run under the Morta RegionController. Every run is capped in virtual
// time and driven in runUntil slices, so a loop that stalls is reported
// as a failed operation instead of hanging the benchmark. Final memory
// and reductions are checked against CompiledLoop::interpret.
//
// The seed picks each loop's trip count (within 2% of LoopIters); the
// programs themselves are fixed.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "morta/Controller.h"
#include "nona/Programs.h"
#include "sim/Power.h"
#include "support/Rng.h"

#include <cstdio>

using namespace parcae;
using namespace parcae::ir;
using namespace perfbench;
namespace rt = parcae::rt;

namespace {

constexpr std::uint64_t LoopIters = 60000;
constexpr unsigned Cores = 16;
constexpr sim::SimTime Slice = 50 * sim::MSec;
/// The SEQ reference run must finish within this much virtual time.
constexpr sim::SimTime SeqCap = 120 * sim::Sec;
/// A controlled run that takes longer than this many SEQ times failed.
constexpr sim::SimTime CapFactor = 2;

struct Loop {
  LoopProgram P;
  std::unique_ptr<CompiledLoop> CL;
};

/// A loop's final state under CompiledLoop::interpret.
struct Reference {
  Memory Mem;
  std::map<unsigned, std::int64_t> Reds;
};

struct RunOut {
  sim::SimTime Time = 0; ///< completion time, or the cap
  bool Completed = false;
  std::uint64_t Retired = 0;
};

class NonaSuite : public Workload {
public:
  void prepare(std::uint64_t Seed) override {
    Rng R(Seed);
    Loops.clear();
    std::size_t Count = benchmarkSuite(1).size();
    for (std::size_t I = 0; I < Count; ++I) {
      std::uint64_t N = LoopIters - LoopIters / 50 +
                        R.nextBelow(LoopIters / 25 + 1);
      auto L = std::make_unique<Loop>();
      L->P = benchmarkSuite(N)[I]();
      Span S("compile", Layer::Nona);
      L->CL = std::make_unique<CompiledLoop>(*L->P.F, L->P.AA, L->P.TripCount);
      Loops.push_back(std::move(L));
    }
  }

  /// Same seed, same programs: the reference outlives re-preparation.
  void buildReference() override {
    Refs.clear();
    for (auto &L : Loops) {
      Span S("interpret", Layer::Interp);
      Reference R;
      R.Mem = CompiledLoop::interpret(*L->P.F, L->P.TripCount, &R.Reds);
      Refs.push_back(std::move(R));
    }
  }

  PassResult run() override;

private:
  bool matches(std::size_t I) const {
    const Loop &L = *Loops[I];
    if (!(L.CL->memory() == Refs[I].Mem))
      return false;
    for (unsigned Phi : L.P.ReductionPhis)
      if (L.CL->reductionValue(Phi) != Refs[I].Reds.at(Phi))
        return false;
    return true;
  }

  std::vector<std::unique_ptr<Loop>> Loops;
  std::vector<Reference> Refs;
};

/// runCompiled's SEQ run, capped and sliced.
RunOut runSeq(CompiledLoop &CL, PassResult &P) {
  Span S("seq_run", Layer::Bench);
  sim::Simulator Sim;
  sim::Machine M(Sim, Cores);
  rt::RuntimeCosts Costs;
  CL.resetState();
  auto Src = CL.makeSource();
  rt::RegionRunner Runner(M, Costs, CL.region(), *Src);
  RunOut Out;
  Runner.OnComplete = [&] { Out.Time = Sim.now(); };
  rt::RegionConfig C;
  C.S = rt::Scheme::Seq;
  C.DoP.assign(CL.region().variant(C.S).Tasks.size(), 1);
  Runner.start(std::move(C));
  runCapped(Sim, SeqCap, Slice, [&] { return Runner.completed(); });
  Out.Completed = Runner.completed();
  Out.Retired = Runner.totalRetired();
  if (!Out.Completed)
    Out.Time = SeqCap;
  P.addSim(Sim, M);
  return Out;
}

PassResult NonaSuite::run() {
  PassResult P;
  char Line[256];
  double LogSpeedup = 0, Makespan = 0, Joules = 0, MonitorMs = 0;
  std::uint64_t Iters = 0, Reconfigs = 0, FullPauses = 0, Schemes = 0;
  unsigned Monitored = 0;
  double SearchNs = 0, ControlledNs = 0;
  std::vector<double> LoopMs;
  P.Report.push_back("loop         iters    seq_ms   ctrl_ms  speedup  final");
  for (std::size_t I = 0; I < Loops.size(); ++I) {
    Loop &L = *Loops[I];
    CompiledLoop &CL = *L.CL;
    const std::string &Name = L.P.Name;
    Schemes += CL.hasDoAny() + CL.hasPsDswp();
    ++P.Attempted;

    RunOut Seq = runSeq(CL, P);
    P.check(Seq.Completed, Name + ": SEQ reference run did not complete");
    P.check(matches(I), Name + ": SEQ run differs from interpret");

    // The controlled run, as runControlled does it but capped in virtual
    // time: a stalled controller cannot hang the benchmark.
    sim::SimTime Cap = CapFactor * Seq.Time;
    RunOut Ctl;
    rt::RegionConfig Final;
    {
      Span S("controlled_run", Layer::Bench);
      sim::Simulator Sim;
      sim::Machine M(Sim, Cores);
      sim::EnergyMeter Meter(M, sim::PowerModel{});
      rt::RuntimeCosts Costs;
      CL.resetState();
      auto Src = CL.makeSource();
      rt::RegionRunner Runner(M, Costs, CL.region(), *Src);
      rt::RegionController Ctrl(Runner);
      Runner.OnComplete = [&] { Ctl.Time = Sim.now(); };
      Ctrl.start(Cores);
      runCapped(Sim, Cap, Slice, [&] { return Runner.completed(); });
      Ctl.Completed = Runner.completed();
      Ctl.Retired = Runner.totalRetired();
      if (!Ctl.Completed)
        Ctl.Time = Cap;
      Final = Runner.config();
      Reconfigs += Runner.reconfigurations();
      FullPauses += Runner.fullPauses();
      for (const auto &E : Ctrl.trace())
        if (E.St == rt::CtrlState::Monitor) {
          MonitorMs += ms(E.At);
          SearchNs += static_cast<double>(E.At);
          ++Monitored;
          break;
        }
      Joules += Meter.joules();
      P.addSim(Sim, M);
    }
    ControlledNs += static_cast<double>(Ctl.Time);

    bool Ok = Ctl.Completed;
    if (Ctl.Completed) {
      bool Same = matches(I);
      P.check(Same, Name + ": controlled run differs from interpret");
      Ok = Same;
    }
    if (!Ok)
      ++P.Failed;
    double Speedup =
        static_cast<double>(Seq.Time) / static_cast<double>(Ctl.Time);
    LogSpeedup += std::log(Speedup);
    Makespan += ms(Ctl.Time);
    LoopMs.push_back(ms(Ctl.Time));
    Iters += Ctl.Retired;
    std::snprintf(Line, sizeof(Line), "%-10s %7llu %9.2f %9.2f %7.2fx  %s%s",
                  Name.c_str(), static_cast<unsigned long long>(L.P.TripCount),
                  ms(Seq.Time), ms(Ctl.Time), Speedup, Final.str().c_str(),
                  Ctl.Completed
                      ? ""
                      : (" STALLED at " + std::to_string(Ctl.Retired) +
                         " iterations, charged the cap")
                            .c_str());
    P.Report.push_back(Line);
  }

  std::size_t N = Loops.size();
  P.Outcomes["speedup_vs_seq"] = std::exp(LogSpeedup / static_cast<double>(N));
  P.Outcomes["makespan_ms"] = Makespan;
  P.Outcomes["goodput_rps"] =
      static_cast<double>(Iters) / (Makespan / 1000.0);
  P.Outcomes["energy_mj_per_op"] =
      Iters ? Joules * 1000.0 / static_cast<double>(Iters) : 0.0;
  std::vector<double> Sorted = LoopMs;
  P.Outcomes["p50_ms"] = percentile(Sorted, 50);
  P.Outcomes["p99_ms"] = percentile(Sorted, 99);

  P.Layers["nona.schemes_exposed"] = static_cast<double>(Schemes);
  P.Layers["morta.reconfigurations"] = static_cast<double>(Reconfigs);
  P.Layers["morta.full_pauses"] = static_cast<double>(FullPauses);
  P.Layers["morta.time_to_monitor_ms"] =
      Monitored ? MonitorMs / Monitored : 0.0;
  P.Layers["morta.search_frac"] = SearchNs / ControlledNs;

  std::snprintf(Line, sizeof(Line),
                "speedup_vs_seq %.3fx (geomean of %zu); fail_frac %llu/%llu;"
                " loop time p50 %.2f ms p99 %.2f ms (n=%zu)",
                P.Outcomes["speedup_vs_seq"], N,
                static_cast<unsigned long long>(P.Failed),
                static_cast<unsigned long long>(P.Attempted),
                P.Outcomes["p50_ms"], P.Outcomes["p99_ms"], LoopMs.size());
  P.Report.push_back(Line);
  return P;
}

} // namespace

std::unique_ptr<Workload> perfbench::makeNonaSuite() {
  return std::make_unique<NonaSuite>();
}
