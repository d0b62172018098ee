//===- StatsReleaseTest.cpp - assert-free flavor of the percentile cache --===//
//
// This TU is compiled with NDEBUG (see tests/release/CMakeLists.txt), so
// assert() is gone. SampleSet::add and the sorted-cache invalidation flag
// are header-inline and thus compiled here in their release shape: a
// mutation after a percentile query must still flip SortedValid, or
// release builds answer later queries from the stale sorted snapshot.
//
//===----------------------------------------------------------------------===//

#ifndef NDEBUG
#error "release-flavor tests must be compiled with NDEBUG defined"
#endif

#include "support/Stats.h"

#include <gtest/gtest.h>

using namespace parcae;

TEST(StatsRelease, CacheInvalidationSurvivesWithoutAsserts) {
  SampleSet S;
  for (int I = 1; I <= 10; ++I)
    S.add(I);
  EXPECT_DOUBLE_EQ(S.percentile(50), 5.0); // builds the sorted cache
  S.add(1000);                             // inline add: must invalidate it
  EXPECT_DOUBLE_EQ(S.max(), 1000.0);
  EXPECT_DOUBLE_EQ(S.percentile(50), 6.0); // nearest rank over 11 samples
  S.decimate();                            // keeps 1,3,5,7,9,1000
  EXPECT_DOUBLE_EQ(S.max(), 1000.0);
  EXPECT_DOUBLE_EQ(S.min(), 1.0);
  EXPECT_EQ(S.count(), 6u);
}

TEST(StatsRelease, RepeatedQueriesReuseCacheConsistently) {
  SampleSet S;
  for (int I = 200; I >= 1; --I)
    S.add(I);
  for (int Pass = 0; Pass < 4; ++Pass) {
    EXPECT_DOUBLE_EQ(S.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(S.percentile(50), 100.0);
    EXPECT_DOUBLE_EQ(S.percentile(100), 200.0);
  }
  EXPECT_DOUBLE_EQ(S.mean(), 100.5);
}

TEST(StatsRelease, HistogramPercentilesThroughDecimation) {
  // Histogram::add is also header-adjacent to the cache: each decimation
  // must invalidate the recorded set's sorted order or the post-decimation
  // percentiles report from the pre-decimation world.
  Histogram H(/*MaxSamples=*/64);
  for (int I = 1; I <= 4096; ++I) {
    H.add(I);
    if (I == 63) {
      EXPECT_DOUBLE_EQ(H.p50(), 32.0); // query mid-stream: caches get built
    }
  }
  EXPECT_EQ(H.count(), 4096u);
  EXPECT_GT(H.sampleStride(), 1u);
  EXPECT_NEAR(H.p50(), 2048.0, 0.05 * 4096);
  EXPECT_GE(H.p99(), H.p50());
  EXPECT_DOUBLE_EQ(H.max(), 4096.0);
}
