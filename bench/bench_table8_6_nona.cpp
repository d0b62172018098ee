//===- bench_table8_6_nona.cpp - Section 8.3 whole-benchmark results ----------===//
//
// Nona compiler evaluation across the benchmark loop suite (the Section
// 8.3 substitute for the paper's Table 8.6 benchmarks): for each loop,
// the speedup over sequential execution of
//
//   * the best fixed DOANY configuration (the paper's "fixed
//     parallelization" baseline),
//   * the best fixed PS-DSWP configuration,
//   * Parcae (the Chapter 6 run-time controller, which pays its own
//     search and reconfiguration overheads), and
//   * the best-static oracle found by exhaustive search (the Section
//     8.3.5 optimality comparison).
//
//===----------------------------------------------------------------------===//

#include "nona/Programs.h"
#include "nona/Run.h"
#include "support/Table.h"

#include <cstdio>

using namespace parcae;
using namespace parcae::ir;
namespace rt = parcae::rt;
namespace sim = parcae::sim;

namespace {

rt::RegionConfig configWith(CompiledLoop &CL, rt::Scheme S, unsigned Par) {
  rt::RegionConfig C;
  C.S = S;
  for (const rt::Task &T : CL.region().variant(S).Tasks)
    C.DoP.push_back(T.isParallel() ? Par : 1);
  return C;
}

} // namespace

int main() {
  const unsigned Cores = 16;
  const std::uint64_t N = 3000;
  std::printf("== Section 8.3: Nona whole-benchmark speedups over"
              " sequential (budget %u threads, %llu iterations) ==\n\n",
              Cores, static_cast<unsigned long long>(N));

  Table T({"benchmark", "schemes", "best DOANY", "best PS-DSWP", "Parcae",
           "oracle", "oracle config"});

  auto Suite = benchmarkSuite(N);
  // 20x-longer builds for the controller runs (the search cost amortizes
  // over a long-running region, as in the paper's server workloads).
  auto SuiteBig = benchmarkSuite(N * 20);
  for (std::size_t BI = 0; BI < Suite.size(); ++BI) {
    auto &Make = Suite[BI];
    LoopProgram P = Make();
    CompiledLoop CL(*P.F, P.AA, P.TripCount);

    double SeqTime = static_cast<double>(
        runCompiled(CL, configWith(CL, rt::Scheme::Seq, 1), Cores).Time);

    std::string Schemes = "SEQ";
    if (CL.hasDoAny())
      Schemes += "+DOANY";
    if (CL.hasPsDswp())
      Schemes += "+PSDSWP";

    // Speedup of one fixed configuration; a configuration that stalls
    // is no candidate.
    auto FixedSpeedup = [&](const rt::RegionConfig &C) {
      CompiledRunResult R = runCompiled(CL, C, Cores);
      return R.Completed ? SeqTime / static_cast<double>(R.Time) : 0.0;
    };
    double BestDoAny = 0, BestPipe = 0, BestOracle = 1.0;
    rt::RegionConfig OracleC = configWith(CL, rt::Scheme::Seq, 1);
    for (unsigned D : {1u, 2u, 4u, 6u, 8u, 12u, 14u}) {
      if (CL.hasDoAny()) {
        rt::RegionConfig C = configWith(CL, rt::Scheme::DoAny, D);
        if (C.totalThreads() <= Cores) {
          double S = FixedSpeedup(C);
          BestDoAny = std::max(BestDoAny, S);
          if (S > BestOracle) {
            BestOracle = S;
            OracleC = C;
          }
        }
      }
      if (CL.hasPsDswp()) {
        rt::RegionConfig C = configWith(CL, rt::Scheme::PsDswp, D);
        if (C.totalThreads() <= Cores) {
          double S = FixedSpeedup(C);
          BestPipe = std::max(BestPipe, S);
          if (S > BestOracle) {
            BestOracle = S;
            OracleC = C;
          }
        }
      }
    }

    // Parcae: the closed-loop controller, including all of its search
    // and reconfiguration overheads, on the 20x-longer run.
    LoopProgram PBig = SuiteBig[BI]();
    CompiledLoop CLBig(*PBig.F, PBig.AA, PBig.TripCount);
    double SeqBig = static_cast<double>(
        runCompiled(CLBig, configWith(CLBig, rt::Scheme::Seq, 1), Cores)
            .Time);
    // A stalled controlled run (runControlled gives up after a second of
    // virtual time without progress) has no speedup to report.
    ControlledRunResult R = runControlled(CLBig, Cores);
    double Parcae = SeqBig / static_cast<double>(R.Time);

    T.addRow({P.Name, Schemes,
              CL.hasDoAny() ? Table::num(BestDoAny, 2) + "x" : "-",
              CL.hasPsDswp() ? Table::num(BestPipe, 2) + "x" : "-",
              R.Completed ? Table::num(Parcae, 2) + "x" : "stalled",
              Table::num(BestOracle, 2) + "x", OracleC.str()});
  }
  T.print();
  std::printf("\n(the Section 8.3.5 shape: Parcae lands close to the"
              " exhaustive-search oracle while paying its own search"
              " cost; loops with inhibiting dependences fall back to"
              " SEQ or pipeline-only parallelism)\n");
  return 0;
}
