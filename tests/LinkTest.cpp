//===- LinkTest.cpp - Inter-task channel tests ------------------------------===//

#include "core/Link.h"

#include <gtest/gtest.h>

using namespace parcae::rt;

namespace {
Token tok(std::uint64_t Seq, std::int64_t Value = 0) {
  Token T;
  T.Seq = Seq;
  T.Value = Value;
  return T;
}
} // namespace

TEST(Link, RoutesBySlot) {
  WidthSchedule S(3);
  Link L("l", S, 8, 64);
  for (std::uint64_t I = 0; I < 9; ++I)
    EXPECT_TRUE(L.trySend(tok(I, static_cast<std::int64_t>(I * 10))));
  EXPECT_EQ(L.buffered(), 9u);
  EXPECT_EQ(L.bufferedFor(0), 3u);
  Token Out;
  EXPECT_TRUE(L.tryRecv(1, 1, Out));
  EXPECT_EQ(Out.Value, 10);
  EXPECT_TRUE(L.tryRecv(1, 4, Out));
  EXPECT_EQ(Out.Value, 40);
}

TEST(Link, RecvFailsUntilTokenArrives) {
  WidthSchedule S(2);
  Link L("l", S, 8, 64);
  Token Out;
  EXPECT_FALSE(L.tryRecv(0, 0, Out));
  EXPECT_TRUE(L.trySend(tok(0)));
  EXPECT_TRUE(L.tryRecv(0, 0, Out));
  EXPECT_FALSE(L.tryRecv(0, 2, Out));
}

TEST(Link, AdmissionWindowBlocksFarAhead) {
  WidthSchedule S(1);
  Link L("l", S, 4, 8);
  for (std::uint64_t I = 0; I < 8; ++I)
    EXPECT_TRUE(L.trySend(tok(I)));
  EXPECT_FALSE(L.trySend(tok(8))) << "beyond low-water + window";
  // Consumer progress opens the window.
  Token Out;
  EXPECT_TRUE(L.tryRecv(0, 0, Out));
  L.setLowWater(1);
  EXPECT_TRUE(L.trySend(tok(8)));
}

TEST(Link, OutOfOrderProducersStillDeliverInOrder) {
  // Two producer threads of a parallel stage can push their iterations in
  // any interleaving; the per-slot ordered buffer restores consumption
  // order for the sequential consumer.
  WidthSchedule S(1);
  Link L("l", S, 4, 64);
  EXPECT_TRUE(L.trySend(tok(2, 22)));
  EXPECT_TRUE(L.trySend(tok(0, 0)));
  EXPECT_TRUE(L.trySend(tok(1, 11)));
  Token Out;
  EXPECT_TRUE(L.tryRecv(0, 0, Out));
  EXPECT_EQ(Out.Value, 0);
  EXPECT_TRUE(L.tryRecv(0, 1, Out));
  EXPECT_EQ(Out.Value, 11);
  EXPECT_TRUE(L.tryRecv(0, 2, Out));
  EXPECT_EQ(Out.Value, 22);
}

TEST(Link, RoutingFollowsEpochChange) {
  // Tokens produced before the width change stay with their old slot;
  // tokens after it route mod the new width (Section 7.2.2).
  WidthSchedule S(2);
  Link L("l", S, 8, 64);
  for (std::uint64_t I = 0; I < 4; ++I)
    EXPECT_TRUE(L.trySend(tok(I)));
  S.append(4, 3);
  for (std::uint64_t I = 4; I < 10; ++I)
    EXPECT_TRUE(L.trySend(tok(I)));
  Token Out;
  // Old epoch: slot 1 owns 1 and 3.
  EXPECT_TRUE(L.tryRecv(1, 1, Out));
  EXPECT_TRUE(L.tryRecv(1, 3, Out));
  // New epoch: slot 1 owns 4 and 7 (both are 1 mod 3).
  EXPECT_TRUE(L.tryRecv(1, 4, Out));
  EXPECT_TRUE(L.tryRecv(1, 7, Out));
  // Slot 2 exists only in the new epoch: owns 5 and 8.
  EXPECT_TRUE(L.tryRecv(2, 5, Out));
  EXPECT_TRUE(L.tryRecv(2, 8, Out));
}

TEST(Link, DataAvailSignalledOnSend) {
  WidthSchedule S(2);
  Link L("l", S, 8, 64);
  // No real threads here; just check the waitable exists per slot and
  // buffered counters track.
  EXPECT_EQ(L.bufferedFor(0), 0u);
  EXPECT_TRUE(L.trySend(tok(0)));
  EXPECT_EQ(L.bufferedFor(0), 1u);
  EXPECT_EQ(L.buffered(), 1u);
}

TEST(Link, LowWaterMonotone) {
  WidthSchedule S(1);
  Link L("l", S, 4, 8);
  L.setLowWater(5);
  L.setLowWater(3); // ignored
  EXPECT_EQ(L.lowWater(), 5u);
}
