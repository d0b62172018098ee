//===- bench_overheads.cpp - Morta/Decima overheads (Section 8.3.6) -----------===//
//
// Three parts:
//
//  1. Simulated run-time overheads, measured on the virtual platform the
//     way Section 8.3.6 reports them: per-iteration monitoring cost, the
//     end-to-end latency of an in-place DoP change, and the latency of a
//     full pause-drain-resume (scheme switch).
//  2. Chunked-claiming A/B: per-iteration machinery + channel cost with
//     the chunk size pinned to 1 / 8 / 32, showing the 1/K amortization.
//     `--json <path>` emits this as a machine-readable summary
//     (scripts/bench_json.sh collects it into BENCH_overheads.json) and
//     skips part 3.
//  3. Host-side compiler costs (google-benchmark): PDG construction,
//     PS-DSWP partitioning, and whole-loop compilation.
//
//===----------------------------------------------------------------------===//

#include "BenchFlags.h"
#include "decima/Monitor.h"
#include "morta/RegionRunner.h"
#include "nona/Programs.h"
#include "support/Table.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

using namespace parcae;
using namespace parcae::rt;
using namespace parcae::ir;
namespace sim = parcae::sim;

namespace {

FlexibleRegion makeTinyPipeline() {
  FlexibleRegion R("ovh");
  RegionDesc D;
  D.Name = "ovh-pipe";
  D.S = Scheme::PsDswp;
  D.Tasks.emplace_back("a", TaskType::Seq, [](IterationContext &C) {
    C.Cost = 1000;
    C.Out[0].Value = static_cast<std::int64_t>(C.Seq);
  });
  D.Tasks.emplace_back("b", TaskType::Par,
                       [](IterationContext &C) { C.Cost = 8000; });
  D.Links.push_back({0, 1});
  R.addVariant(std::move(D));
  {
    RegionDesc S;
    S.Name = "ovh-seq";
    S.S = Scheme::Seq;
    S.Tasks.emplace_back("all", TaskType::Seq,
                         [](IterationContext &C) { C.Cost = 9000; });
    R.addVariant(std::move(S));
  }
  return R;
}

void printSimulatedOverheads() {
  RuntimeCosts Costs;
  std::printf("== Section 8.3.6: Morta/Decima overheads ==\n\n");
  Table Consts({"constant (model)", "cycles @1GHz"});
  Consts.addRow({"Decima begin/end hook pair (2x rdtsc)",
                 Table::num(static_cast<long long>(Costs.HookCost))});
  Consts.addRow({"Task::getStatus() query",
                 Table::num(static_cast<long long>(Costs.StatusQuery))});
  Consts.addRow({"channel send / recv",
                 Table::num(static_cast<long long>(Costs.CommSend))});
  Consts.addRow({"per-iteration heap spill (unoptimized 7.1)",
                 Table::num(static_cast<long long>(Costs.HeapSpill))});
  Consts.print();

  // In-place DoP change latency: time until a worker on the new slot
  // retires its first iteration.
  {
    sim::Simulator Sim;
    sim::Machine M(Sim, 8);
    CountedWorkSource Src(1'000'000'000ull);
    FlexibleRegion Region = makeTinyPipeline();
    RegionRunner Runner(M, Costs, Region, Src);
    RegionConfig C;
    C.S = Scheme::PsDswp;
    C.DoP = {1, 2};
    Runner.start(C);
    Sim.runUntil(2 * sim::MSec);
    std::uint64_t Before = Runner.totalRetired();
    sim::SimTime T0 = Sim.now();
    RegionConfig N = C;
    N.DoP = {1, 4};
    Runner.reconfigure(N);
    // Run until throughput reflects the new width (retire 40 more).
    while (Runner.totalRetired() < Before + 40 && !Sim.empty())
      Sim.runOne();
    std::printf("\nin-place DoP change (2 -> 4): applied instantly;"
                " 40 iterations retired within %.1f us\n",
                static_cast<double>(Sim.now() - T0) / 1000.0);
  }

  // Full pause-drain-resume latency (scheme switch).
  {
    sim::Simulator Sim;
    sim::Machine M(Sim, 8);
    CountedWorkSource Src(1'000'000'000ull);
    FlexibleRegion Region = makeTinyPipeline();
    RegionRunner Runner(M, Costs, Region, Src);
    RegionConfig C;
    C.S = Scheme::PsDswp;
    C.DoP = {1, 4};
    Runner.start(C);
    Sim.runUntil(2 * sim::MSec);
    sim::SimTime T0 = Sim.now();
    bool Resumed = false;
    sim::SimTime TResume = 0;
    Runner.OnReconfigured = [&] {
      Resumed = true;
      TResume = Sim.now();
    };
    RegionConfig N;
    N.S = Scheme::Seq;
    N.DoP = {1};
    Runner.reconfigure(N);
    while (!Resumed && !Sim.empty())
      Sim.runOne();
    std::printf("full pause-drain-resume (PS-DSWP -> SEQ): %.1f us"
                " (drain + barrier + reconfigure + respawn)\n\n",
                static_cast<double>(TResume - T0) / 1000.0);
  }
}

// --- chunked claiming A/B (adaptive chunking, Section 8.3.6) -----------
// Runs a fine-grained pipeline with the chunk size pinned to K in
// {1, 8, 32} and reports the measured per-iteration Morta/Decima
// machinery + channel cost. K=1 is the classic one-claim-per-iteration
// protocol; the amortized fixed costs should fall roughly as 1/K until
// the CommPerToken marginal floor (and the channel-window clamp on K)
// takes over.

struct ChunkRun {
  std::uint64_t K;
  double OvhPerIter;  ///< hook + status-poll cycles per retired iteration
  double CommPerIter; ///< channel send/recv cycles per retired iteration
  double TotalPerIter() const { return OvhPerIter + CommPerIter; }
  double Throughput; ///< retired iterations per virtual second
};

FlexibleRegion makeFinePipeline() {
  // Iteration work small enough that per-iteration machinery matters:
  // the regime chunking exists for.
  FlexibleRegion R("fine");
  RegionDesc D;
  D.Name = "fine-pipe";
  D.S = Scheme::PsDswp;
  D.Tasks.emplace_back("produce", TaskType::Seq, [](IterationContext &C) {
    C.Cost = 300;
    C.Out[0].Value = static_cast<std::int64_t>(C.Seq);
  });
  D.Tasks.emplace_back("consume", TaskType::Par,
                       [](IterationContext &C) { C.Cost = 600; });
  D.Links.push_back({0, 1});
  R.addVariant(std::move(D));
  return R;
}

ChunkRun runPinnedChunk(std::uint64_t K) {
  RuntimeCosts Costs;
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  CountedWorkSource Src(1'000'000'000ull);
  FlexibleRegion Region = makeFinePipeline();
  RegionRunner Runner(M, Costs, Region, Src);
  Runner.chunkPolicy().pin(K);
  RegionConfig C;
  C.S = Scheme::PsDswp;
  C.DoP = {1, 2};
  Runner.start(C);
  Sim.runUntil(50 * sim::MSec);

  const RegionExec *E = Runner.exec();
  std::uint64_t Retired = Runner.totalRetired();
  ChunkRun R{K, 0, 0, 0};
  if (!E || Retired == 0)
    return R;
  for (unsigned T = 0; T < E->numTasks(); ++T) {
    // Decima's per-iteration view, rescaled by that task's iteration
    // count so the sum is cycles per *retired* iteration of the region.
    double Iters = static_cast<double>(E->stats(T).Iterations);
    R.OvhPerIter += Decima::getOverheadTime(*E, T) * Iters / Retired;
    R.CommPerIter += static_cast<double>(E->stats(T).CommTime) / Retired;
  }
  R.Throughput = static_cast<double>(Retired) / sim::toSeconds(Sim.now());
  return R;
}

std::vector<ChunkRun> printChunkAB() {
  std::printf("== chunked claiming: per-iteration overhead vs chunk size"
              " ==\n\n");
  std::vector<ChunkRun> Runs;
  for (std::uint64_t K : {1ull, 8ull, 32ull})
    Runs.push_back(runPinnedChunk(K));
  Table T({"chunk size K", "hooks+status /iter", "channel /iter",
           "total ovh /iter", "iters/sec"});
  for (const ChunkRun &R : Runs)
    T.addRow({Table::num(static_cast<long long>(R.K)),
              Table::num(R.OvhPerIter, 1), Table::num(R.CommPerIter, 1),
              Table::num(R.TotalPerIter(), 1),
              Table::num(R.Throughput, 0)});
  T.print();
  const ChunkRun &K1 = Runs.front();
  for (std::size_t I = 1; I < Runs.size(); ++I)
    std::printf("K=%llu: %.1fx less per-iteration overhead than K=1\n",
                static_cast<unsigned long long>(Runs[I].K),
                K1.TotalPerIter() / Runs[I].TotalPerIter());
  std::printf("(K pinned for A/B; the adaptive policy tunes it online and"
              " clamps to the channel window)\n\n");
  return Runs;
}

void writeJson(const char *Path, const std::vector<ChunkRun> &Runs) {
  std::FILE *F = std::fopen(Path, "w");
  if (!F) {
    std::fprintf(stderr, "bench_overheads: cannot write %s\n", Path);
    std::exit(1);
  }
  RuntimeCosts Costs;
  std::fprintf(F, "{\n  \"bench\": \"overheads\",\n");
  std::fprintf(F, "  \"hook_cost\": %lld,\n  \"status_query\": %lld,\n",
               static_cast<long long>(Costs.HookCost),
               static_cast<long long>(Costs.StatusQuery));
  std::fprintf(F, "  \"chunk_runs\": [\n");
  for (std::size_t I = 0; I < Runs.size(); ++I)
    std::fprintf(F,
                 "    {\"k\": %llu, \"ovh_per_iter\": %.2f,"
                 " \"comm_per_iter\": %.2f, \"total_per_iter\": %.2f,"
                 " \"iters_per_sec\": %.0f}%s\n",
                 static_cast<unsigned long long>(Runs[I].K),
                 Runs[I].OvhPerIter, Runs[I].CommPerIter,
                 Runs[I].TotalPerIter(), Runs[I].Throughput,
                 I + 1 < Runs.size() ? "," : "");
  std::fprintf(F, "  ],\n");
  double R8 = 0, R32 = 0;
  for (const ChunkRun &R : Runs) {
    if (R.K == 8 && R.TotalPerIter() > 0)
      R8 = Runs.front().TotalPerIter() / R.TotalPerIter();
    if (R.K == 32 && R.TotalPerIter() > 0)
      R32 = Runs.front().TotalPerIter() / R.TotalPerIter();
  }
  std::fprintf(F, "  \"reduction_k8\": %.3f,\n  \"reduction_k32\": %.3f\n}\n",
               R8, R32);
  std::fclose(F);
  std::printf("wrote %s\n", Path);
}

// --- host-side compiler costs -----------------------------------------

void BM_PdgBuild(benchmark::State &State) {
  LoopProgram P = makeBranchy(64);
  for (auto _ : State) {
    PDG G(*P.F, P.AA);
    benchmark::DoNotOptimize(G.edges().size());
  }
}
BENCHMARK(BM_PdgBuild);

void BM_PsdswpPartition(benchmark::State &State) {
  LoopProgram P = makeChase(64);
  PDG G(*P.F, P.AA);
  for (auto _ : State) {
    PartitionPlan Plan = psdswpPartition(G);
    benchmark::DoNotOptimize(Plan.Tasks.size());
  }
}
BENCHMARK(BM_PsdswpPartition);

void BM_CompileLoop(benchmark::State &State) {
  for (auto _ : State) {
    LoopProgram P = makeHistogram(64, 16);
    CompiledLoop CL(*P.F, P.AA, P.TripCount);
    benchmark::DoNotOptimize(CL.hasDoAny());
  }
}
BENCHMARK(BM_CompileLoop);

void BM_WidthScheduleQuery(benchmark::State &State) {
  WidthSchedule S(4);
  for (unsigned I = 1; I <= 8; ++I)
    S.append(I * 1000, 1 + I % 7);
  std::uint64_t Seq = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(S.firstSeqFor(Seq % 5, Seq));
    ++Seq;
  }
}
BENCHMARK(BM_WidthScheduleQuery);

} // namespace

int main(int argc, char **argv) {
  // Strips --json (and the other shared flags) so google-benchmark does
  // not see them.
  bench::BenchFlags Flags = bench::BenchFlags::parse(argc, argv);
  const char *JsonPath = Flags.JsonPath;

  printSimulatedOverheads();
  std::vector<ChunkRun> Runs = printChunkAB();
  if (JsonPath) {
    // JSON mode is the CI path: emit the summary and skip the host-side
    // google-benchmark section (compiler costs are not what it checks).
    writeJson(JsonPath, Runs);
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
