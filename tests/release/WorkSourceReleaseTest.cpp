//===- WorkSourceReleaseTest.cpp - assert-free flavor of rewind guards ----===//
//
// This TU is compiled with NDEBUG (see tests/release/CMakeLists.txt), so
// assert() is gone. CountedWorkSource::rewind and shrink are header-inline
// and thus compiled here in their release shape: an over-deep rewind, or
// a shrink below the claim cursor, must return a clean false — an
// assert-only guard would vanish in this flavor and let the cursor or
// the count wrap, silently replaying or dropping ~2^64 items.
//
//===----------------------------------------------------------------------===//

#ifndef NDEBUG
#error "release-flavor tests must be compiled with NDEBUG defined"
#endif

#include "../PullOne.h"
#include "core/Region.h"
#include "core/WorkSource.h"
#include "morta/RegionRunner.h"

#include <gtest/gtest.h>

using namespace parcae;
using namespace parcae::rt;

namespace {

/// Delegates to a counted source but refuses every rewind — models a
/// source with no replay capability, forcing recovery onto the drain
/// fallback path.
class NoRewindSource : public WorkSource {
public:
  explicit NoRewindSource(std::uint64_t N) : Inner(N) {}
  Pull tryPullChunk(std::uint64_t Max, std::vector<Token> &Out) override {
    return Inner.tryPullChunk(Max, Out);
  }
  sim::Waitable &readyEvent() override { return Inner.readyEvent(); }
  double load() const override { return Inner.load(); }
  bool rewind(std::uint64_t Count) override { return Count == 0; }

private:
  CountedWorkSource Inner;
};

FlexibleRegion makePipe(std::vector<std::int64_t> *Tail) {
  FlexibleRegion R("release");
  RegionDesc D;
  D.Name = "release-pipe";
  D.S = Scheme::PsDswp;
  D.Tasks.emplace_back("a", TaskType::Seq, [](IterationContext &C) {
    C.Cost = 1000;
    C.Out[0].Value = static_cast<std::int64_t>(C.Seq);
  });
  D.Tasks.emplace_back("b", TaskType::Par, [](IterationContext &C) {
    C.Cost = 9000;
    C.Out[0].Value = C.In[0].Value;
  });
  D.Tasks.emplace_back("c", TaskType::Seq, [Tail](IterationContext &C) {
    C.Cost = 800;
    Tail->push_back(C.In[0].Value);
  });
  D.Links.push_back({0, 1});
  D.Links.push_back({1, 2});
  R.addVariant(std::move(D));
  return R;
}

} // namespace

TEST(WorkSourceRelease, CountedRewindPastStartReturnsFalseWithoutAsserts) {
  CountedWorkSource Src(16);
  Token T;
  for (int I = 0; I < 4; ++I)
    ASSERT_EQ(pullOne(Src, T), WorkSource::Pull::Got);
  EXPECT_EQ(T.Value, 3);
  // Deeper than the 4-item pull history: must refuse, not wrap Next.
  EXPECT_FALSE(Src.rewind(5));
  EXPECT_FALSE(Src.rewind(~0ull));
  EXPECT_EQ(Src.remaining(), 12u) << "refused rewinds must not move the cursor";
  // The source still works, exactly once, after the refusals.
  EXPECT_TRUE(Src.rewind(4));
  std::uint64_t Pulled = 0;
  while (pullOne(Src, T) == WorkSource::Pull::Got)
    ++Pulled;
  EXPECT_EQ(Pulled, 16u);
  EXPECT_EQ(T.Value, 15);
}

TEST(WorkSourceRelease, CountedShrinkBelowClaimCursorReturnsFalse) {
  // A serve steal shrinks the victim's source by its unclaimed tail. A
  // shrink reaching below the claim cursor would take back claimed items
  // (or wrap N below Next); it must refuse and leave the count alone.
  CountedWorkSource Src(16);
  Token T;
  for (int I = 0; I < 10; ++I)
    ASSERT_EQ(pullOne(Src, T), WorkSource::Pull::Got);
  EXPECT_FALSE(Src.shrink(7)) << "only 6 items are unclaimed";
  EXPECT_FALSE(Src.shrink(~0ull));
  EXPECT_EQ(Src.remaining(), 6u) << "a refused shrink must not move N";
  EXPECT_TRUE(Src.shrink(4));
  EXPECT_EQ(Src.remaining(), 2u);
  EXPECT_TRUE(Src.shrink(2)) << "shrinking exactly to the cursor is allowed";
  EXPECT_EQ(pullOne(Src, T), WorkSource::Pull::End);
  EXPECT_EQ(T.Value, 9);
}

TEST(WorkSourceRelease, QueueRewindPastHistoryReturnsFalse) {
  QueueWorkSource Src;
  for (int I = 0; I < 8; ++I) {
    Token Item;
    Item.Value = I;
    ASSERT_TRUE(Src.push(Item));
  }
  Token T;
  for (int I = 0; I < 3; ++I)
    ASSERT_EQ(pullOne(Src, T), WorkSource::Pull::Got);
  EXPECT_FALSE(Src.rewind(4)) << "only 3 items of history exist";
  EXPECT_TRUE(Src.rewind(3));
  ASSERT_EQ(pullOne(Src, T), WorkSource::Pull::Got);
  EXPECT_EQ(T.Value, 0);
}

TEST(WorkSourceRelease, RecoveryDrainsWhenRewindRefuses) {
  // End-to-end in the release flavor: abortive recovery against a source
  // that cannot replay must fall back to the pause-drain path and still
  // finish with complete, ordered, exactly-once output.
  sim::Simulator Sim;
  sim::Machine M(Sim, 8);
  RuntimeCosts Costs;
  Costs.OptimizedBarrier = false; // make the drain fallback observable
  NoRewindSource Src(5000);
  std::vector<std::int64_t> Tail;
  FlexibleRegion Region = makePipe(&Tail);
  RegionRunner Runner(M, Costs, Region, Src);
  RegionConfig C;
  C.S = Scheme::PsDswp;
  C.DoP = {1, 4, 1};
  Runner.start(C);
  Sim.scheduleAt(2 * sim::MSec, [&Runner] {
    RegionConfig N;
    N.S = Scheme::PsDswp;
    N.DoP = {1, 2, 1};
    EXPECT_TRUE(Runner.recover(std::move(N)));
  });
  Sim.run();
  EXPECT_TRUE(Runner.completed());
  EXPECT_EQ(Runner.recoveries(), 0u) << "rewind refused: no abortive path";
  EXPECT_GE(Runner.fullPauses(), 1u) << "recovery fell back to a drain";
  ASSERT_EQ(Tail.size(), 5000u);
  for (std::int64_t I = 0; I < 5000; ++I)
    ASSERT_EQ(Tail[static_cast<std::size_t>(I)], I);
}
