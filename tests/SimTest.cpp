//===- SimTest.cpp - Unit tests for the discrete-event simulator -----------===//

#include "BoundedQueue.h"
#include "sim/EventFn.h"
#include "sim/Faults.h"
#include "sim/Machine.h"
#include "sim/Power.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

using namespace parcae::sim;

namespace {

/// Computes a fixed number of bursts, then finishes.
class BurstBody : public ThreadBody {
public:
  BurstBody(int Bursts, SimTime Cycles) : Remaining(Bursts), Cycles(Cycles) {}
  Action resume(Machine &, SimThread &) override {
    if (Remaining-- > 0)
      return Action::compute(Cycles);
    return Action::finish();
  }
  int Remaining;
  SimTime Cycles;
};

/// Produces N tokens into a queue, one per compute burst.
class ProducerBody : public ThreadBody {
public:
  ProducerBody(BoundedQueue<int> &Q, int N, SimTime Cost)
      : Q(Q), N(N), Cost(Cost) {}
  Action resume(Machine &, SimThread &) override {
    if (Pending) {
      if (!Q.tryPush(Next))
        return Action::block(Q.notFull());
      Pending = false;
      ++Next;
    }
    if (Next >= N && !Pending)
      return Action::finish();
    Pending = true;
    return Action::compute(Cost);
  }
  BoundedQueue<int> &Q;
  int N;
  SimTime Cost;
  int Next = 0;
  bool Pending = false;
};

/// Consumes tokens until it has seen \p N of them.
class ConsumerBody : public ThreadBody {
public:
  ConsumerBody(BoundedQueue<int> &Q, int N, SimTime Cost,
               std::vector<int> &Out)
      : Q(Q), N(N), Cost(Cost), Out(Out) {}
  Action resume(Machine &, SimThread &) override {
    if (static_cast<int>(Out.size()) >= N)
      return Action::finish();
    int V;
    if (!Q.tryPop(V))
      return Action::block(Q.notEmpty());
    Out.push_back(V);
    return Action::compute(Cost);
  }
  BoundedQueue<int> &Q;
  int N;
  SimTime Cost;
  std::vector<int> &Out;
};

} // namespace

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator Sim;
  std::vector<int> Order;
  Sim.schedule(30, [&] { Order.push_back(3); });
  Sim.schedule(10, [&] { Order.push_back(1); });
  Sim.schedule(20, [&] { Order.push_back(2); });
  Sim.run();
  EXPECT_EQ(Order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(Sim.now(), 30u);
  EXPECT_EQ(Sim.eventsProcessed(), 3u);
}

TEST(Simulator, TiesFireInScheduleOrder) {
  Simulator Sim;
  std::vector<int> Order;
  for (int I = 0; I < 5; ++I)
    Sim.schedule(100, [&, I] { Order.push_back(I); });
  Sim.run();
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ZeroDelayInterleavesWithEqualTimeInScheduleOrder) {
  // Zero-delay events and equal-time events scheduled earlier share one
  // instant; they must fire in global schedule order.
  Simulator Sim;
  std::vector<int> Order;
  Sim.schedule(10, [&] {
    Order.push_back(0);
    // Scheduled AFTER the pre-queued t=10 event below, so these fire
    // after it although their delay is zero.
    Sim.schedule(0, [&] { Order.push_back(2); });
    Sim.schedule(0, [&] {
      Order.push_back(3);
      Sim.schedule(0, [&] { Order.push_back(4); }); // nested zero delay
    });
  });
  Sim.schedule(10, [&] { Order.push_back(1); }); // same instant
  Sim.schedule(20, [&] { Order.push_back(5); });
  Sim.run();
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(Sim.now(), 20u);
}

TEST(Simulator, ManyRecycledEventsKeepOrder) {
  // Chains of self-rescheduling timers churn the slab free list; slot
  // recycling must never perturb (time, seq) order.
  Simulator Sim;
  std::uint64_t Fired = 0;
  SimTime LastAt = 0;
  std::array<int, 16> Left{};
  Left.fill(100);
  std::vector<std::function<void()>> Ticks(16); // sized once: stable refs
  for (int I = 0; I < 16; ++I)
    Ticks[static_cast<std::size_t>(I)] = [&, I] {
      ++Fired;
      EXPECT_GE(Sim.now(), LastAt);
      LastAt = Sim.now();
      if (--Left[static_cast<std::size_t>(I)] > 0)
        Sim.schedule(1 + static_cast<SimTime>(I % 7),
                     Ticks[static_cast<std::size_t>(I)]);
    };
  for (int I = 0; I < 16; ++I)
    Sim.schedule(1, Ticks[static_cast<std::size_t>(I)]);
  Sim.run();
  EXPECT_EQ(Fired, 16u * 100u);
}

TEST(Simulator, LivelockGuardAbortsWithDiagnostic) {
  // A model bug that re-schedules itself with zero delay forever must
  // abort with a diagnostic instead of hanging — in release builds too,
  // which is why this is a real check rather than an assert.
  EXPECT_EQ(Simulator{}.sameTimeLimit(), 20'000'000u);
  EXPECT_DEATH(
      {
        Simulator Sim;
        Sim.setSameTimeLimit(1000);
        std::function<void()> Spin = [&] { Sim.schedule(0, Spin); };
        Sim.schedule(0, Spin);
        Sim.run();
      },
      "livelock");
}

TEST(Simulator, SameTimeCountResetsWhenClockAdvances) {
  // A long run whose events keep moving the clock must never trip the
  // guard, even with a limit far below the event count.
  Simulator Sim;
  Sim.setSameTimeLimit(10);
  std::uint64_t Fired = 0;
  std::function<void()> Tick = [&] {
    if (++Fired < 1000)
      Sim.schedule(1, Tick);
  };
  Sim.schedule(1, Tick);
  Sim.run();
  EXPECT_EQ(Fired, 1000u);
}

TEST(Simulator, EqualTimeEventsFireInScheduleOrder) {
  // One instant: events scheduled before it and a zero-delay event
  // scheduled during it. Global order must be schedule order.
  Simulator Sim;
  std::vector<int> Order;
  Sim.schedule(100, [&] { // seq 0: t=100
    Order.push_back(0);
    Sim.schedule(0, [&] { Order.push_back(3); }); // seq 3: t=100
  });
  Sim.schedule(70, [&] { // seq 1
    Sim.schedule(30, [&] { Order.push_back(2); }); // seq 2: t=100
  });
  Sim.run();
  // At t=100: the events scheduled before the instant (seqs 0 and 2),
  // then the zero-delay event scheduled mid-instant.
  EXPECT_EQ(Order, (std::vector<int>{0, 2, 3}));
}

TEST(Simulator, RandomMixFiresInTimeThenScheduleOrder) {
  // Eight tickers with due-now, short and far delays fire in exactly the
  // order of their schedules sorted stably by time: (time, seq) order.
  Simulator Sim;
  std::vector<std::pair<SimTime, int>> Scheduled, Fired;
  std::uint64_t Budget = 2000;
  std::array<std::function<void()>, 8> Ticks;
  auto Arm = [&](SimTime D, int I) {
    Scheduled.push_back({Sim.now() + D, I});
    Sim.schedule(D, Ticks[static_cast<std::size_t>(I)]);
  };
  std::uint64_t Acc = 0x9E3779B97F4A7C15ull;
  for (int I = 0; I < 8; ++I)
    Ticks[static_cast<std::size_t>(I)] = [&, I] {
      Fired.push_back({Sim.now(), I});
      if (Budget == 0)
        return;
      --Budget;
      Acc = Acc * 6364136223846793005ull + 1442695040888963407ull;
      // Mix of due-now, short-band, and far-horizon delays.
      Arm((Acc % 5 == 0) ? 0 : 1 + (Acc % 2000), I);
    };
  for (int I = 0; I < 8; ++I)
    Arm(1 + static_cast<SimTime>(I) * 7, I);
  Sim.run();
  std::stable_sort(Scheduled.begin(), Scheduled.end(),
                   [](const auto &A, const auto &B) {
                     return A.first < B.first;
                   });
  EXPECT_EQ(Fired, Scheduled);
}

TEST(Simulator, QueueStatsCountEveryEvent) {
  Simulator Sim;
  std::uint64_t Fired = 0;
  std::function<void()> Tick = [&] {
    ++Fired;
    if (Fired < 300)
      Sim.schedule((Fired % 3 == 0) ? 0 : 1 + (Fired * 61) % 1500, Tick);
  };
  Sim.schedule(1, Tick);
  Sim.run();
  Simulator::QueueStats S = Sim.queueStats();
  EXPECT_EQ(S.HeapHits, Sim.eventsProcessed());
  EXPECT_EQ(S.WheelHits, 0u);
}

TEST(Simulator, SeqCounterWrapTieBreak) {
  // Same-instant events scheduled across the 2^32 seq wrap must still
  // fire in schedule order (wrap-safe signed-difference compare).
  Simulator Sim;
  Sim.primeSeqCounterForTest(0xFFFFFFFFu - 3);
  std::vector<int> Order;
  for (int I = 0; I < 8; ++I) // seqs 2^32-4 .. 3, wrapping in the middle
    Sim.schedule(50, [&, I] { Order.push_back(I); });
  Sim.run();
  EXPECT_EQ(Order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Simulator, RunUntilStopsMidBucketSequence) {
  // A deadline between pending event times: runUntil must run events at
  // t <= deadline (inclusive), leave the rest, and pin the clock to the
  // deadline.
  Simulator Sim;
  std::vector<SimTime> FiredAt;
  for (SimTime T : {10u, 20u, 30u, 40u})
    Sim.schedule(T, [&] { FiredAt.push_back(Sim.now()); });
  Sim.runUntil(25);
  EXPECT_EQ(FiredAt, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(Sim.now(), 25u);
  Sim.runUntil(30); // inclusive at the event's exact time
  EXPECT_EQ(FiredAt, (std::vector<SimTime>{10, 20, 30}));
  Sim.run();
  EXPECT_EQ(FiredAt, (std::vector<SimTime>{10, 20, 30, 40}));
}

TEST(Simulator, LivelockDiagnosticListsPending) {
  // The livelock diagnostic must name the queue's occupancy and the next
  // few (time, seq) pairs, so the spinning schedule is identifiable.
  EXPECT_DEATH(
      {
        Simulator Sim;
        Sim.setSameTimeLimit(500);
        std::function<void()> Spin = [&] { Sim.schedule(0, Spin); };
        Sim.schedule(0, Spin);
        Sim.schedule(5000, [] {}); // a bystander, in the dump
        Sim.run();
      },
      // The guard trips before the 500th spinning event (seq 500; the
      // bystander took seq 1) is popped, so both are pending.
      "queue: heap=2 pending.*"
      "next pending: \\(t=0, seq=500\\) \\(t=5000, seq=1\\)");
}

TEST(EventFn, InlineCallableRunsAndResets) {
  int Hits = 0;
  EventFn F([&Hits] { ++Hits; });
  ASSERT_TRUE(static_cast<bool>(F));
  F();
  EXPECT_EQ(Hits, 1);
  F.reset();
  EXPECT_FALSE(static_cast<bool>(F));
}

TEST(EventFn, NonTrivialDestructorRunsOnReset) {
  int Dtors = 0;
  struct Probe {
    int *Dtors;
    explicit Probe(int *D) : Dtors(D) {}
    Probe(Probe &&O) noexcept : Dtors(O.Dtors) { O.Dtors = nullptr; }
    ~Probe() {
      if (Dtors)
        ++*Dtors;
    }
    void operator()() const {}
  };
  {
    EventFn F{Probe(&Dtors)};
    EXPECT_EQ(Dtors, 0);
    F.reset();
    EXPECT_EQ(Dtors, 1);
    F.reset(); // idempotent on empty
    EXPECT_EQ(Dtors, 1);
  }
  EXPECT_EQ(Dtors, 1);
}

TEST(EventFn, AssignReplacesInPlace) {
  int First = 0, Second = 0;
  EventFn F([&First] { ++First; });
  F.assign([&Second] { ++Second; });
  F();
  EXPECT_EQ(First, 0);
  EXPECT_EQ(Second, 1);
}

TEST(EventFn, LargeCaptureFallsBackToHeapCell) {
  // Captures beyond InlineSize still work (one heap cell), with correct
  // destruction — the shared_ptr use count proves the copy dies.
  auto Guard = std::make_shared<int>(7);
  std::array<std::uint64_t, 16> Big{};
  Big[0] = 42;
  std::uint64_t Seen = 0;
  static_assert(sizeof(Big) > EventFn::InlineSize);
  {
    EventFn F([Guard, Big, &Seen] { Seen = Big[0]; });
    EXPECT_EQ(Guard.use_count(), 2);
    F();
    EXPECT_EQ(Seen, 42u);
  }
  EXPECT_EQ(Guard.use_count(), 1);
}

TEST(EventFn, ScratchWordRoundTripsOnEmpty) {
  // The simulator's slab threads its free list through dead slots.
  EventFn F;
  F.scratch() = 0xDEADBEEFu;
  EXPECT_EQ(F.scratch(), 0xDEADBEEFu);
  EXPECT_FALSE(static_cast<bool>(F));
}

TEST(Simulator, NestedScheduling) {
  Simulator Sim;
  int Fired = 0;
  Sim.schedule(5, [&] {
    ++Fired;
    Sim.schedule(5, [&] { ++Fired; });
  });
  Sim.run();
  EXPECT_EQ(Fired, 2);
  EXPECT_EQ(Sim.now(), 10u);
}

TEST(Simulator, RunUntilLeavesLaterEvents) {
  Simulator Sim;
  int Fired = 0;
  Sim.schedule(10, [&] { ++Fired; });
  Sim.schedule(100, [&] { ++Fired; });
  Sim.runUntil(50);
  EXPECT_EQ(Fired, 1);
  EXPECT_EQ(Sim.now(), 50u);
  Sim.run();
  EXPECT_EQ(Fired, 2);
}

TEST(Simulator, StopHaltsRun) {
  Simulator Sim;
  int Fired = 0;
  Sim.schedule(1, [&] {
    ++Fired;
    Sim.stop();
  });
  Sim.schedule(2, [&] { ++Fired; });
  Sim.run();
  EXPECT_EQ(Fired, 1);
}

TEST(Simulator, StopInsideRunUntilLeavesClockAtStop) {
  // A stop() at t=10 inside runUntil(100) must leave the clock at 10, so
  // the work still due at 10 and 20 stays runnable.
  Simulator Sim;
  std::vector<SimTime> FiredAt;
  Sim.schedule(10, [&] {
    Sim.stop();
    Sim.schedule(0, [&] { FiredAt.push_back(Sim.now()); });
    Sim.schedule(10, [&] { FiredAt.push_back(Sim.now()); });
  });
  Sim.runUntil(100);
  ASSERT_EQ(Sim.now(), 10u);
  EXPECT_TRUE(FiredAt.empty());
  Sim.runUntil(100);
  EXPECT_EQ(FiredAt, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(Sim.now(), 100u);
}

TEST(Machine, SingleThreadComputesSerially) {
  Simulator Sim;
  Machine M(Sim, 4);
  M.spawn("t", std::make_unique<BurstBody>(3, 100));
  Sim.run();
  EXPECT_EQ(Sim.now(), 300u);
  EXPECT_EQ(M.threadsAlive(), 0u);
}

TEST(Machine, ThreadsRunInParallelAcrossCores) {
  Simulator Sim;
  Machine M(Sim, 4);
  for (int I = 0; I < 4; ++I)
    M.spawn("t", std::make_unique<BurstBody>(1, 1000));
  Sim.run();
  // Four independent threads on four cores finish in one burst time.
  EXPECT_EQ(Sim.now(), 1000u);
  EXPECT_EQ(M.busyCoreTime(), 4000u);
}

TEST(Machine, OversubscriptionTimeSlices) {
  Simulator Sim;
  MachineConfig Cfg;
  Cfg.Quantum = 100;
  Cfg.CtxSwitchCost = 10;
  Machine M(Sim, 1, Cfg);
  M.spawn("a", std::make_unique<BurstBody>(1, 300));
  M.spawn("b", std::make_unique<BurstBody>(1, 300));
  Sim.run();
  // Work is 600 plus context-switch overhead from interleaving on 1 core.
  EXPECT_GT(Sim.now(), 600u);
  EXPECT_EQ(M.threadsAlive(), 0u);
}

TEST(Machine, SoloThreadPaysNoSwitchCost) {
  Simulator Sim;
  MachineConfig Cfg;
  Cfg.Quantum = 100;
  Cfg.CtxSwitchCost = 50;
  Machine M(Sim, 2, Cfg);
  M.spawn("solo", std::make_unique<BurstBody>(1, 1000));
  Sim.run();
  EXPECT_EQ(Sim.now(), 1000u); // 10 quanta, zero switch cost
}

TEST(Machine, ExitEventFires) {
  Simulator Sim;
  Machine M(Sim, 1);
  SimThread *T = M.spawn("t", std::make_unique<BurstBody>(1, 50));
  bool Saw = false;
  // A second thread waits for the first to finish.
  class WaiterBody : public ThreadBody {
  public:
    WaiterBody(SimThread *T, bool &Saw) : T(T), Saw(Saw) {}
    Action resume(Machine &, SimThread &) override {
      if (T->state() != ThreadState::Finished)
        return Action::block(T->exitEvent());
      Saw = true;
      return Action::finish();
    }
    SimThread *T;
    bool &Saw;
  };
  M.spawn("w", std::make_unique<WaiterBody>(T, Saw));
  Sim.run();
  EXPECT_TRUE(Saw);
}

TEST(Machine, ProducerConsumerFifoOrder) {
  Simulator Sim;
  Machine M(Sim, 2);
  BoundedQueue<int> Q(4);
  std::vector<int> Out;
  M.spawn("prod", std::make_unique<ProducerBody>(Q, 50, 10));
  M.spawn("cons", std::make_unique<ConsumerBody>(Q, 50, 25, Out));
  Sim.run();
  ASSERT_EQ(Out.size(), 50u);
  for (int I = 0; I < 50; ++I)
    EXPECT_EQ(Out[I], I);
  // Consumer is the bottleneck at 25 cycles per token.
  EXPECT_GE(Sim.now(), 50u * 25u);
}

TEST(Machine, BoundedQueueBackpressure) {
  Simulator Sim;
  Machine M(Sim, 2);
  BoundedQueue<int> Q(2);
  std::vector<int> Out;
  // Fast producer, slow consumer: the queue bound must throttle.
  M.spawn("prod", std::make_unique<ProducerBody>(Q, 20, 1));
  M.spawn("cons", std::make_unique<ConsumerBody>(Q, 20, 100, Out));
  Sim.run();
  ASSERT_EQ(Out.size(), 20u);
  // Finish time dominated by consumer.
  EXPECT_GE(Sim.now(), 2000u);
}

TEST(Machine, BusyCoreTimeIntegrates) {
  Simulator Sim;
  Machine M(Sim, 2);
  M.spawn("a", std::make_unique<BurstBody>(1, 100));
  M.spawn("b", std::make_unique<BurstBody>(1, 200));
  Sim.run();
  EXPECT_EQ(M.busyCoreTime(), 300u);
}

/// One 100-cycle burst; counts destructions of its bodies.
class CountedBody : public BurstBody {
public:
  explicit CountedBody(int &Dtors) : BurstBody(1, 100), Dtors(Dtors) {}
  ~CountedBody() override { ++Dtors; }
  int &Dtors;
};

/// Blocks once on \p W; finishes on the first wakeup, counting it.
class WaitOnceBody : public ThreadBody {
public:
  WaitOnceBody(Waitable &W, int &Wakes) : W(W), Wakes(Wakes) {}
  Action resume(Machine &, SimThread &) override {
    if (!Waited) {
      Waited = true;
      return Action::block(W);
    }
    ++Wakes;
    return Action::finish();
  }
  Waitable &W;
  int &Wakes;
  bool Waited = false;
};

TEST(Machine, FinishedThreadsReleaseBodiesAndReuseRecords) {
  Simulator Sim;
  Machine M(Sim, 2);
  int Dtors = 0;
  std::vector<std::uint64_t> Ids;
  // Spawns 10 us apart: each thread (5 us switch + 100 cycles) is done
  // before the next arrives.
  for (int I = 0; I < 100; ++I)
    Sim.schedule(static_cast<SimTime>(I) * 10 * USec, [&] {
      Ids.push_back(M.spawn("t", std::make_unique<CountedBody>(Dtors))->id());
    });
  Sim.run();
  EXPECT_EQ(M.threadsAlive(), 0u);
  // Each spawn finds its predecessor dead since an earlier event: one
  // record serves all hundred threads, and only the last body remains.
  EXPECT_EQ(M.threadRecords(), 1u);
  EXPECT_EQ(Dtors, 99);
  ASSERT_EQ(Ids.size(), 100u);
  for (std::uint64_t I = 0; I < Ids.size(); ++I)
    EXPECT_EQ(Ids[I], I) << "ids are never reused";
}

TEST(Machine, TerminatedBodySurvivesItsEvent) {
  Simulator Sim;
  Machine M(Sim, 2);
  Waitable Never;
  int Wakes = 0, Dtors = 0;
  SimThread *A = M.spawn("a", std::make_unique<WaitOnceBody>(Never, Wakes));
  Sim.schedule(10, [&] {
    M.terminate(A);
    // Same event: the dead record is not reused and its body is intact.
    M.spawn("b", std::make_unique<CountedBody>(Dtors));
    EXPECT_EQ(M.threadRecords(), 2u);
  });
  Sim.schedule(1000, [&] {
    M.spawn("c", std::make_unique<CountedBody>(Dtors));
    EXPECT_EQ(M.threadRecords(), 2u) << "a later spawn reuses a dead record";
    EXPECT_EQ(Dtors, 1) << "b finished in an earlier event";
  });
  Sim.run();
  EXPECT_EQ(M.threadsAlive(), 0u);
  EXPECT_EQ(Wakes, 0);
}

TEST(Machine, StaleWaiterEntryNeverWakesReusedRecord) {
  // a blocks on W and is terminated, leaving a stale entry in W's waiter
  // list. b reuses a's record and blocks on W2: notifying W must not
  // wake it, because the record's block sequence only moves forward.
  Simulator Sim;
  Machine M(Sim, 1);
  Waitable W, W2;
  int WakesA = 0, WakesB = 0;
  SimThread *A = M.spawn("a", std::make_unique<WaitOnceBody>(W, WakesA));
  Sim.schedule(10, [&] { M.terminate(A); });
  Sim.schedule(20, [&] {
    M.spawn("b", std::make_unique<WaitOnceBody>(W2, WakesB));
    EXPECT_EQ(M.threadRecords(), 1u);
  });
  Sim.schedule(30, [&] { W.notifyAll(); });
  Sim.runUntil(40);
  EXPECT_EQ(WakesB, 0) << "a stale entry woke the record's next thread";
  EXPECT_EQ(M.threadsAlive(), 1u);
  W2.notifyAll();
  Sim.run();
  EXPECT_EQ(WakesB, 1);
  EXPECT_EQ(WakesA, 0);
  EXPECT_EQ(M.threadsAlive(), 0u);
}

TEST(Machine, UnnotifiedBlockAnyHalfStaysBounded) {
  // One thread waits 10k times on blockAny(A, B), and only A is ever
  // notified, so every wait leaves a stale entry in B. B drops them when
  // its list is about to grow instead of keeping one per wait.
  class WaitAnyBody : public ThreadBody {
  public:
    WaitAnyBody(Waitable &A, Waitable &B, int &Wakes)
        : A(A), B(B), Wakes(Wakes) {}
    Action resume(Machine &, SimThread &) override {
      if (Waited)
        ++Wakes;
      Waited = true;
      if (Wakes == 10000)
        return Action::finish();
      return Action::blockAny(A, B);
    }
    Waitable &A, &B;
    int &Wakes;
    bool Waited = false;
  };
  Simulator Sim;
  Machine M(Sim, 1);
  Waitable A, B;
  int Wakes = 0;
  std::size_t MaxB = 0;
  M.spawn("w", std::make_unique<WaitAnyBody>(A, B, Wakes));
  for (SimTime I = 1; I <= 10000; ++I)
    Sim.schedule(I * 10 * USec, [&] {
      MaxB = std::max(MaxB, B.size());
      A.notifyAll();
    });
  Sim.run();
  EXPECT_EQ(Wakes, 10000);
  EXPECT_LE(MaxB, 2u) << "stale blockAny entries piled up in B";
  EXPECT_EQ(M.threadsAlive(), 0u);
}

TEST(Machine, ReusedRecordPaysSwitchCost) {
  // Affinity follows the thread, not the record: b reuses a's record on
  // the core a last ran on and still pays the context switch.
  Simulator Sim;
  MachineConfig Cfg;
  Cfg.CtxSwitchCost = 50;
  Machine M(Sim, 1, Cfg);
  M.spawn("a", std::make_unique<BurstBody>(1, 100));
  Sim.schedule(1000, [&] {
    M.spawn("b", std::make_unique<BurstBody>(1, 100));
    EXPECT_EQ(M.threadRecords(), 1u);
  });
  Sim.run();
  EXPECT_EQ(Sim.now(), 1150u);
}

TEST(Machine, TerminatedReadyThreadLeavesReadyQueue) {
  // b waits in the ready queue behind a on one core and is terminated
  // there; c reuses b's record. c must run exactly once.
  Simulator Sim;
  Machine M(Sim, 1);
  int Dtors = 0;
  M.spawn("a", std::make_unique<BurstBody>(1, 1000));
  SimThread *B = M.spawn("b", std::make_unique<BurstBody>(1, 100));
  Sim.schedule(10, [&] {
    EXPECT_EQ(B->state(), ThreadState::Ready);
    M.terminate(B);
  });
  Sim.schedule(20, [&] {
    M.spawn("c", std::make_unique<CountedBody>(Dtors));
    EXPECT_EQ(M.threadRecords(), 2u);
  });
  Sim.run();
  EXPECT_EQ(M.threadsAlive(), 0u);
  EXPECT_EQ(Sim.now(), 1000u + 5 * USec + 100u);
}

TEST(BoundedQueue, BasicOps) {
  BoundedQueue<int> Q(2);
  EXPECT_TRUE(Q.empty());
  EXPECT_TRUE(Q.tryPush(1));
  EXPECT_TRUE(Q.tryPush(2));
  EXPECT_TRUE(Q.full());
  EXPECT_FALSE(Q.tryPush(3));
  int V = 0;
  EXPECT_TRUE(Q.tryPop(V));
  EXPECT_EQ(V, 1);
  EXPECT_EQ(Q.front(), 2);
  EXPECT_TRUE(Q.tryPop(V));
  EXPECT_EQ(V, 2);
  EXPECT_FALSE(Q.tryPop(V));
}

TEST(BoundedQueue, CloseRejectsPushAndDrainsToClosed) {
  BoundedQueue<int> Q(4);
  EXPECT_TRUE(Q.tryPush(1));
  EXPECT_TRUE(Q.tryPush(2));
  Q.close();
  EXPECT_TRUE(Q.closed());
  EXPECT_FALSE(Q.tryPush(3)) << "closed queue must reject pushes";
  int V = 0;
  // Queued items still drain; only then does pop report Closed.
  EXPECT_EQ(Q.pop(V), BoundedQueue<int>::PopResult::Got);
  EXPECT_EQ(V, 1);
  EXPECT_EQ(Q.pop(V), BoundedQueue<int>::PopResult::Got);
  EXPECT_EQ(V, 2);
  EXPECT_EQ(Q.pop(V), BoundedQueue<int>::PopResult::Closed);
  Q.close(); // idempotent
  EXPECT_EQ(Q.pop(V), BoundedQueue<int>::PopResult::Closed);
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  // Regression: a consumer blocked on notEmpty() used to sleep forever
  // when the producer went away. close() must wake it so it can observe
  // shutdown and exit.
  class ShutdownConsumer : public ThreadBody {
  public:
    ShutdownConsumer(BoundedQueue<int> &Q, std::vector<int> &Out,
                     bool &SawClose)
        : Q(Q), Out(Out), SawClose(SawClose) {}
    Action resume(Machine &, SimThread &) override {
      int V;
      switch (Q.pop(V)) {
      case BoundedQueue<int>::PopResult::Got:
        Out.push_back(V);
        return Action::compute(10);
      case BoundedQueue<int>::PopResult::Empty:
        return Action::block(Q.notEmpty());
      case BoundedQueue<int>::PopResult::Closed:
        SawClose = true;
        return Action::finish();
      }
      return Action::finish();
    }
    BoundedQueue<int> &Q;
    std::vector<int> &Out;
    bool &SawClose;
  };
  Simulator Sim;
  Machine M(Sim, 2);
  BoundedQueue<int> Q(4);
  std::vector<int> Out;
  bool SawClose = false;
  M.spawn("cons", std::make_unique<ShutdownConsumer>(Q, Out, SawClose));
  Sim.schedule(100, [&Q] {
    Q.tryPush(1);
    Q.tryPush(2);
  });
  Sim.schedule(500, [&Q] { Q.close(); });
  Sim.run();
  EXPECT_TRUE(SawClose) << "consumer stranded past shutdown";
  EXPECT_EQ(Out, (std::vector<int>{1, 2}));
  EXPECT_EQ(M.threadsAlive(), 0u);
}

TEST(Machine, OfflineStrandsThreadAndRescueRequeues) {
  Simulator Sim;
  Machine M(Sim, 2);
  FaultPlan Plan;
  Plan.addOffline(0, 50);
  M.installFaultPlan(std::move(Plan));
  M.spawn("a", std::make_unique<BurstBody>(1, 1000));
  M.spawn("b", std::make_unique<BurstBody>(1, 1000));
  Sim.runUntil(60);
  // The thread on core 0 is held hostage by the dead core.
  EXPECT_EQ(M.onlineCores(), 1u);
  EXPECT_EQ(M.strandedThreads(), 1u);
  EXPECT_EQ(M.lastOfflineAt(), 50u);
  EXPECT_EQ(M.rescueStranded(), 1u);
  EXPECT_EQ(M.strandedThreads(), 0u);
  Sim.run();
  // Both threads complete, time-sliced on the surviving core.
  EXPECT_EQ(M.threadsAlive(), 0u);
}

TEST(Machine, StragglerDilatesCompute) {
  Simulator Sim;
  Machine M(Sim, 1);
  FaultPlan Plan;
  Plan.addStraggler(0, 0, 1'000'000, 2.0);
  M.installFaultPlan(std::move(Plan));
  M.spawn("t", std::make_unique<BurstBody>(1, 1000));
  Sim.run();
  // 1000 cycles of work at 2x dilation take 2000 cycles of wall time.
  EXPECT_EQ(Sim.now(), 2000u);
}

TEST(FaultPlan, OverlappingDilationWindowsCombineWithMax) {
  // Overlapping windows describe concurrent slowdown causes on one core;
  // the core runs at the *worst* active dilation. The old behaviour
  // multiplied the factors (2x and 3x compounding to 6x), silently
  // over-throttling wherever scattered windows happened to overlap.
  FaultPlan Plan;
  Plan.addStraggler(2, 100, 100, 2.0);
  Plan.addStraggler(2, 150, 100, 3.0);
  EXPECT_DOUBLE_EQ(Plan.dilation(2, 50), 1.0);
  EXPECT_DOUBLE_EQ(Plan.dilation(2, 120), 2.0);
  EXPECT_DOUBLE_EQ(Plan.dilation(2, 180), 3.0); // worst wins, no compounding
  EXPECT_DOUBLE_EQ(Plan.dilation(2, 220), 3.0);
  EXPECT_DOUBLE_EQ(Plan.dilation(2, 260), 1.0);
  EXPECT_DOUBLE_EQ(Plan.dilation(0, 180), 1.0); // other cores nominal
}

TEST(FaultPlan, ScatterIsDeterministicAndBounded) {
  FaultPlan A, B;
  A.scatterTransients(42, "work", 100, 500, 30, 3);
  B.scatterTransients(42, "work", 100, 500, 30, 3);
  EXPECT_EQ(A.numTransients(), B.numTransients());
  EXPECT_GT(A.numTransients(), 0u);
  unsigned Mismatch = 0;
  for (std::uint64_t Seq = 100; Seq < 500; ++Seq) {
    unsigned FA = A.transientFailCount("work", Seq);
    unsigned FB = B.transientFailCount("work", Seq);
    if (FA != FB)
      ++Mismatch;
    EXPECT_LE(FA, 3u);
  }
  EXPECT_EQ(Mismatch, 0u);
  // Outside the scattered range and for other tasks: nothing.
  EXPECT_EQ(A.transientFailCount("work", 99), 0u);
  EXPECT_EQ(A.transientFailCount("work", 500), 0u);
  EXPECT_EQ(A.transientFailCount("other", 200), 0u);
}

TEST(Power, EnergyIntegration) {
  Simulator Sim;
  Machine M(Sim, 2);
  PowerModel PM;
  PM.StaticWatts = 100;
  PM.PerCoreActiveWatts = 10;
  EnergyMeter Meter(M, PM);
  // One core busy for 1 virtual second.
  M.spawn("t", std::make_unique<BurstBody>(1, Sec));
  Sim.run();
  EXPECT_NEAR(Meter.joules(), 110.0, 1e-6);
  EXPECT_NEAR(Meter.currentWatts(), 100.0, 1e-9); // idle again
}

TEST(Power, MeterDetachesOnDestruction) {
  // A meter destroyed before its machine leaves nothing behind: busy work
  // after it reaches no dead meter, and a later meter integrates its own
  // lifetime only.
  Simulator Sim;
  Machine M(Sim, 2);
  PowerModel PM;
  PM.StaticWatts = 100;
  PM.PerCoreActiveWatts = 10;
  {
    EnergyMeter First(M, PM);
    M.spawn("a", std::make_unique<BurstBody>(1, Sec));
    Sim.run();
    EXPECT_NEAR(First.joules(), 110.0, 1e-6);
  }
  // Both cores busy for a second with no meter attached.
  M.spawn("b", std::make_unique<BurstBody>(1, Sec));
  M.spawn("c", std::make_unique<BurstBody>(1, Sec));
  Sim.run();
  SimTime AttachedAt = Sim.now();
  SimTime BusyAtAttach = M.busyCoreTime();
  EnergyMeter Second(M, PM);
  M.spawn("d", std::make_unique<BurstBody>(1, Sec));
  Sim.run();
  double Own = 100 * toSeconds(Sim.now() - AttachedAt) +
               10 * toSeconds(M.busyCoreTime() - BusyAtAttach);
  EXPECT_NEAR(Second.joules(), Own, 1e-6);
  EXPECT_LT(Second.joules(), 111.0); // not the two seconds before it
  EXPECT_NEAR(Second.currentWatts(), 100.0, 1e-9);
}

TEST(Power, GangHelpersDrawPower) {
  // A gang compute's reserved helper cores count as busy: three cores for
  // the gang's second plus one for the lone burst's half second.
  class GangBody : public ThreadBody {
  public:
    Action resume(Machine &, SimThread &) override {
      if (Done)
        return Action::finish();
      Done = true;
      return Action::gangCompute(3, Sec);
    }
    bool Done = false;
  };
  Simulator Sim;
  Machine M(Sim, 4);
  PowerModel PM;
  PM.StaticWatts = 100;
  PM.PerCoreActiveWatts = 10;
  EnergyMeter Meter(M, PM);
  M.spawn("gang", std::make_unique<GangBody>());
  M.spawn("lone", std::make_unique<BurstBody>(1, Sec / 2));
  double WattsBoth = 0, WattsGang = 0;
  Sim.schedule(Sec / 4, [&] { WattsBoth = Meter.currentWatts(); });
  Sim.schedule(3 * Sec / 4, [&] { WattsGang = Meter.currentWatts(); });
  Sim.run();
  EXPECT_EQ(Sim.now(), Sec);
  EXPECT_NEAR(WattsBoth, 140.0, 1e-9);
  EXPECT_NEAR(WattsGang, 130.0, 1e-9);
  EXPECT_NEAR(Meter.joules(), 100 * 1.0 + 10 * 3.5, 1e-6);
  EXPECT_NEAR(Meter.currentWatts(), 100.0, 1e-9);
}

TEST(Power, OverlappingMetersEachIntegrateTheirOwnLifetime) {
  // Two cores busy over [0, 1 s], one over [1 s, 2 s]. Meter A lives over
  // [0, 1.25 s], meter B over [0.75 s, 2 s]; both watch the machine at once.
  Simulator Sim;
  Machine M(Sim, 2);
  PowerModel PM;
  PM.StaticWatts = 100;
  PM.PerCoreActiveWatts = 10;
  M.spawn("long", std::make_unique<BurstBody>(1, 2 * Sec));
  M.spawn("short", std::make_unique<BurstBody>(1, Sec));
  std::optional<EnergyMeter> A(std::in_place, M, PM);
  std::optional<EnergyMeter> B;
  double AJoules = 0, AWatts = 0, BWatts = 0;
  Sim.schedule(3 * Sec / 4, [&] { B.emplace(M, PM); });
  Sim.schedule(9 * Sec / 8, [&] {
    AWatts = A->currentWatts();
    BWatts = B->currentWatts();
  });
  Sim.schedule(5 * Sec / 4, [&] {
    AJoules = A->joules();
    A.reset();
  });
  Sim.run();
  EXPECT_EQ(Sim.now(), 2 * Sec);
  EXPECT_NEAR(AWatts, 110.0, 1e-9);
  EXPECT_NEAR(BWatts, 110.0, 1e-9);
  // A: 1.25 s static, 2 x 1 s + 1 x 0.25 s busy.
  EXPECT_NEAR(AJoules, 100 * 1.25 + 10 * 2.25, 1e-6);
  // B: 1.25 s static, 2 x 0.25 s + 1 x 1 s busy.
  EXPECT_NEAR(B->joules(), 100 * 1.25 + 10 * 1.5, 1e-6);
}

TEST(Power, PduSamplerRate) {
  Simulator Sim;
  Machine M(Sim, 1);
  EnergyMeter Meter(M, PowerModel{});
  int Samples = 0;
  PduSampler Pdu(Sim, Meter, [&](double) { ++Samples; });
  Sim.schedule(60 * Sec, [&] { Pdu.stop(); });
  Sim.runUntil(60 * Sec);
  EXPECT_EQ(Samples, 13); // 13 samples per minute, like the AP7892
}

TEST(Power, NinetyPercentPeakIsSixtyPercentDynamic) {
  // The calibration property from Section 8.2.3.
  PowerModel PM;
  unsigned N = 24;
  double Peak = PM.peakWatts(N);
  double Idle = PM.watts(0);
  double Target = 0.9 * Peak;
  double DynFraction = (Target - Idle) / (Peak - Idle);
  EXPECT_NEAR(DynFraction, 0.6, 0.02);
}
