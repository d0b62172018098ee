//===- ChunkedPipelineTest.cpp - Chunked claiming on a pipeline network ---===//
//
// Chunked claiming must not change whether, or what, a pipeline computes.
// These tests run dualpipe, an S-P-S-P network, under PS-DSWP<1,a,1,b>
// with the chunk size pinned, both at fixed widths and under a seeded
// schedule of in-place and full (SEQ) reconfigurations. Every run must
// finish within the stall bound with the memory of the sequential
// interpretation.
//
// A non-head slot owns every width-th iteration, so a cost group of K of
// its iterations spans (K-1)*width+1 sequence numbers. Unless chunkKFor
// keeps that span inside half of each out-link's window, a wide stage
// holds back tokens its consumer needs next: the pipeline deadlocks or,
// short of that, the sequential consumer starves. The trip count (3000)
// is large enough for every pinned K to matter.
//
//===----------------------------------------------------------------------===//

#include "morta/RegionRunner.h"
#include "nona/Programs.h"
#include "nona/Run.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <string>

using namespace parcae;
using namespace parcae::ir;
namespace rt = parcae::rt;
namespace sim = parcae::sim;

namespace {

constexpr std::uint64_t Trip = 3000;
constexpr unsigned Cores = 16;
constexpr std::uint64_t Ks[] = {1, 2, 4, 8, 16, 32};

rt::RegionConfig pipe(unsigned A, unsigned B) {
  rt::RegionConfig C;
  C.S = rt::Scheme::PsDswp;
  C.DoP = {1, A, 1, B};
  return C;
}

/// dualpipe compiled once, with its reference memory.
class DualPipe {
public:
  DualPipe()
      : Ref(makeDualPipe(Trip)),
        RefMem(CompiledLoop::interpret(*Ref.F, Ref.TripCount)),
        P(makeDualPipe(Trip)), CL(*P.F, P.AA, P.TripCount) {}

  struct Outcome {
    bool Completed = false;
    sim::SimTime Time = 0;
    std::uint64_t Retired = 0;
    std::string Stall;
  };

  /// Runs PS-DSWP<1,A,1,B> with chunk size \p K pinned. A nonzero
  /// \p ChaosSeed adds twelve reconfigurations, 1.5 ms apart: a quarter
  /// to SEQ (a full pause-drain-resume), the rest to seeded PS-DSWP
  /// widths (in place from PS-DSWP, a full switch from SEQ).
  Outcome run(unsigned A, unsigned B, std::uint64_t K,
              std::uint64_t ChaosSeed = 0) {
    sim::Simulator Sim;
    sim::Machine M(Sim, Cores);
    rt::RuntimeCosts Costs;
    CL.resetState();
    auto Src = CL.makeSource();
    rt::RegionRunner Runner(M, Costs, CL.region(), *Src);
    Runner.chunkPolicy().pin(K);
    Runner.start(pipe(A, B));
    if (ChaosSeed) {
      Rng R(ChaosSeed);
      for (sim::SimTime I = 1; I <= 12; ++I) {
        rt::RegionConfig C;
        if (R.nextBelow(4) == 0) {
          C.S = rt::Scheme::Seq;
          C.DoP = {1};
        } else {
          C = pipe(1 + static_cast<unsigned>(R.nextBelow(8)),
                   1 + static_cast<unsigned>(R.nextBelow(8)));
        }
        Sim.schedule(I * 1500 * sim::USec, [&Runner, C]() mutable {
          if (!Runner.completed())
            Runner.reconfigure(std::move(C));
        });
      }
    }
    Outcome O;
    O.Completed = runBounded(Sim, Runner);
    O.Time = Sim.now();
    O.Retired = Runner.totalRetired();
    O.Stall = stallReportOf(Runner);
    return O;
  }

  bool memoryMatches() { return CL.memory() == RefMem; }

private:
  LoopProgram Ref;
  Memory RefMem;
  LoopProgram P;
  CompiledLoop CL;
};

} // namespace

TEST(ChunkedPipeline, FixedWidthsCompleteAtEveryK) {
  // Wide middle stages are where a clamp that ignores width fails:
  // <1,5,1,4> stalls for K >= 8 and <1,12,1,3> for K >= 4. Narrow and
  // oversubscribed widths ride along.
  const unsigned Widths[][2] = {{5, 4}, {12, 3}, {4, 4},  {14, 13}, {9, 7},
                                {1, 1}, {6, 14}, {2, 8},  {10, 5},  {3, 12}};
  DualPipe D;
  for (const auto &W : Widths)
    for (std::uint64_t K : Ks) {
      SCOPED_TRACE("PS-DSWP<1," + std::to_string(W[0]) + ",1," +
                   std::to_string(W[1]) + "> K=" + std::to_string(K));
      DualPipe::Outcome O = D.run(W[0], W[1], K);
      ASSERT_TRUE(O.Completed) << O.Stall;
      EXPECT_EQ(O.Retired, Trip);
      EXPECT_TRUE(D.memoryMatches());
    }
}

TEST(ChunkedPipeline, ChaoticReconfigurationCompletesAtEveryK) {
  DualPipe D;
  for (std::uint64_t Seed = 1; Seed <= 4; ++Seed) {
    Rng R(Seed * 7919);
    unsigned A = 1 + static_cast<unsigned>(R.nextBelow(8));
    unsigned B = 1 + static_cast<unsigned>(R.nextBelow(8));
    for (std::uint64_t K : Ks) {
      SCOPED_TRACE("seed " + std::to_string(Seed) + " from PS-DSWP<1," +
                   std::to_string(A) + ",1," + std::to_string(B) +
                   "> K=" + std::to_string(K));
      DualPipe::Outcome O = D.run(A, B, K, Seed);
      ASSERT_TRUE(O.Completed) << O.Stall;
      EXPECT_EQ(O.Retired, Trip);
      EXPECT_TRUE(D.memoryMatches());
    }
  }
}

TEST(ChunkedPipeline, WideStageDoesNotStarveSequentialConsumer) {
  // At <1,4,1,4> an 8-iteration group of a middle slot spans 29 sequence
  // numbers. Unclamped, the sequential stage behind it waits in order for
  // tokens the group holds back (28.4 ms against 19.1 ms at K=1).
  // Grouping costs must never make the pipeline slower.
  DualPipe D;
  DualPipe::Outcome K1 = D.run(4, 4, 1);
  DualPipe::Outcome K8 = D.run(4, 4, 8);
  ASSERT_TRUE(K1.Completed) << K1.Stall;
  ASSERT_TRUE(K8.Completed) << K8.Stall;
  EXPECT_LE(K8.Time, K1.Time);
}
