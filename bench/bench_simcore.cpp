//===- bench_simcore.cpp - Discrete-event core microbenchmark --------------===//
//
// Host-wall-clock A/B of the simulator's hot loop: the current core vs
// the original implementation (heap-allocating std::function events in a
// std::priority_queue), embedded below exactly as it shipped.
//
// The workload is a fan of self-rescheduling timers whose handlers
// capture 32 bytes of state — the size class of real Machine/Link
// events, which overflows std::function's inline buffer but fits
// EventFn's. Every current-core run pre-sizes the simulator with
// reserve() and *asserts zero allocations* across the measured section:
// steady-state allocation-freedom of the queue is a hard check here, not
// a reported number.
//
// Reports events/sec and allocations/event for both cores; with
// `--json <path>` also emits a machine-readable summary
// (scripts/bench_json.sh collects it into BENCH_simcore.json and
// scripts/check_perf.sh gates on it).
//
//===----------------------------------------------------------------------===//

#include "BenchFlags.h"
#include "sim/Simulator.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <queue>
#include <type_traits>
#include <vector>

namespace {

// --- global allocation counter ----------------------------------------
// Counts every operator-new in the process; deltas around a measured
// section give allocations attributable to that section (the sections
// are single-threaded and allocate nothing else).

std::atomic<std::uint64_t> GAllocs{0};

} // namespace

void *operator new(std::size_t Size) {
  GAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }

namespace {

namespace sim = parcae::sim;

// --- the pre-optimization core, verbatim -------------------------------
// The event core as originally written: one std::function per event,
// stored by value in a priority_queue. Kept here (not in the library) so
// the A/B survives future changes to the real core.

class LegacySimulator {
public:
  sim::SimTime now() const { return Now; }

  void schedule(sim::SimTime Delay, std::function<void()> Fn) {
    Queue.push(Event{Now + Delay, NextSeq++, std::move(Fn)});
  }

  bool runOne() {
    if (Queue.empty())
      return false;
    Event E = std::move(const_cast<Event &>(Queue.top()));
    Queue.pop();
    Now = E.At;
    ++EventsProcessed;
    E.Fn();
    return true;
  }

  void run() {
    while (runOne())
      ;
  }

  std::uint64_t eventsProcessed() const { return EventsProcessed; }

private:
  struct Event {
    sim::SimTime At;
    std::uint64_t Seq;
    std::function<void()> Fn;
  };
  struct EventLater {
    bool operator()(const Event &A, const Event &B) const {
      if (A.At != B.At)
        return A.At > B.At;
      return A.Seq > B.Seq;
    }
  };

  sim::SimTime Now = 0;
  std::uint64_t NextSeq = 0;
  std::uint64_t EventsProcessed = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> Queue;
};

// --- workload ----------------------------------------------------------
// The hold model with a wakeup mix: NumTimers independent timers, each
// rescheduling itself with a data-dependent delay until the shared event
// budget runs out, and half the firings detouring through a zero-delay
// completion event first, so about a third of all events are due now.
// That third is a stress mix, not the workloads' traffic: in perfbench's
// seed-1 runs, events scheduled due now are 1.04% of serve-ladder's,
// none of nona-suite's and 0.00007% of pipeline-faults'. Handlers
// capture {driver*, id, salt, acc} = 24-32 bytes: more than
// std::function's inline buffer (16 on this ABI, so the legacy core
// allocates per event), less than EventFn's 48 (the new core does not).
// Timed delays fall in the 1..13-cycle machine-slice band.

template <class SimT> struct TimerDriver {
  SimT &S;
  std::uint64_t Remaining;
  std::uint64_t Sink = 0;

  void arm(std::uint64_t Id, std::uint64_t Salt) {
    if (Remaining == 0)
      return;
    --Remaining;
    std::uint64_t Acc = (Salt + Id) * 0x9E3779B97F4A7C15ull;
    S.schedule(1 + Acc % 13, [this, Id, Salt, Acc] {
      Sink ^= Acc;
      if ((Acc & 1) && Remaining > 0) {
        --Remaining;
        S.schedule(0, [this, Id, Salt] { arm(Id, Salt + 1); });
      } else {
        arm(Id, Salt + 1);
      }
    });
  }
};

struct CoreResult {
  double Seconds = 0;
  std::uint64_t Events = 0;
  std::uint64_t Allocs = 0;
  double eventsPerSec() const { return Seconds > 0 ? Events / Seconds : 0; }
  double allocsPerEvent() const {
    return Events ? static_cast<double>(Allocs) / static_cast<double>(Events)
                  : 0;
  }
};

template <class SimT>
CoreResult measure(std::uint64_t NumTimers, std::uint64_t TotalEvents) {
  SimT S;
  constexpr bool Current = std::is_same_v<SimT, sim::Simulator>;
  if constexpr (Current) {
    // Outstanding events never exceed two per timer (the armed timer
    // plus its zero-delay detour); with the heap and slab pre-sized the
    // measured section must not allocate at all.
    S.reserve(4 * NumTimers + 64);
  }
  TimerDriver<SimT> Driver{S, TotalEvents};
  std::uint64_t Allocs0 = GAllocs.load(std::memory_order_relaxed);
  auto T0 = std::chrono::steady_clock::now();
  for (std::uint64_t I = 0; I < NumTimers; ++I)
    Driver.arm(I, I * 977);
  S.run();
  auto T1 = std::chrono::steady_clock::now();
  CoreResult R;
  R.Seconds = std::chrono::duration<double>(T1 - T0).count();
  R.Events = S.eventsProcessed();
  R.Allocs = GAllocs.load(std::memory_order_relaxed) - Allocs0;
  if constexpr (Current) {
    if (R.Allocs != 0) {
      std::fprintf(stderr,
                   "bench_simcore: FAIL: event core allocated %llu time(s) "
                   "in steady state — reserve() must pre-size the queue\n",
                   static_cast<unsigned long long>(R.Allocs));
      std::exit(1);
    }
  }
  if (Driver.Sink == 0xDEADBEEF) // defeat whole-workload elision
    std::printf("~");
  return R;
}

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--events N] [--timers N] [--json <path>]\n",
               Argv0);
  std::exit(2);
}

} // namespace

int main(int argc, char **argv) {
  // BenchFlags consumes --json (and --seed/--trace); only the
  // bench-specific flags remain for the loop below.
  parcae::bench::BenchFlags Flags = parcae::bench::BenchFlags::parse(
      argc, argv, {"--events", "--timers"});
  const char *JsonPath = Flags.JsonPath;
  std::uint64_t TotalEvents = 2'000'000;
  std::uint64_t NumTimers = 64;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--events") && I + 1 < argc)
      TotalEvents = std::strtoull(argv[++I], nullptr, 10);
    else if (!std::strcmp(argv[I], "--timers") && I + 1 < argc)
      NumTimers = std::strtoull(argv[++I], nullptr, 10);
    else
      usage(argv[0]);
  }
  if (NumTimers == 0 || TotalEvents == 0)
    usage(argv[0]);

  // Warm both cores (page faults, heap growth), then take the best of
  // interleaved repetitions: the cores alternate within each rep, so CPU
  // frequency/steal phases hit both and the ratio stays honest.
  std::uint64_t Warm = TotalEvents / 10;
  measure<LegacySimulator>(NumTimers, Warm);
  measure<sim::Simulator>(NumTimers, Warm);
  CoreResult Legacy, Current;
  constexpr int Reps = 5;
  for (int R = 0; R < Reps; ++R) {
    CoreResult L = measure<LegacySimulator>(NumTimers, TotalEvents);
    if (R == 0 || L.eventsPerSec() > Legacy.eventsPerSec())
      Legacy = L;
    CoreResult C = measure<sim::Simulator>(NumTimers, TotalEvents);
    if (R == 0 || C.eventsPerSec() > Current.eventsPerSec())
      Current = C;
  }
  double Speedup = Legacy.Seconds > 0 && Current.Seconds > 0
                       ? Current.eventsPerSec() / Legacy.eventsPerSec()
                       : 0;

  std::printf("== sim core microbenchmark: %llu events, %llu timers ==\n\n",
              static_cast<unsigned long long>(TotalEvents),
              static_cast<unsigned long long>(NumTimers));
  std::printf("%-34s %14s %14s\n", "core", "events/sec", "allocs/event");
  std::printf("%-34s %14.0f %14.3f\n", "legacy (std::function + pq)",
              Legacy.eventsPerSec(), Legacy.allocsPerEvent());
  std::printf("%-34s %14.0f %14.3f\n", "current (EventFn slab + heap)",
              Current.eventsPerSec(), Current.allocsPerEvent());
  std::printf("\nspeedup vs legacy: %.2fx\n", Speedup);

  if (JsonPath) {
    std::FILE *F = std::fopen(JsonPath, "w");
    if (!F) {
      std::fprintf(stderr, "bench_simcore: cannot write %s\n", JsonPath);
      return 1;
    }
    std::fprintf(F,
                 "{\n"
                 "  \"bench\": \"simcore\",\n"
                 "  \"events\": %llu,\n"
                 "  \"timers\": %llu,\n"
                 "  \"events_per_sec_legacy\": %.0f,\n"
                 "  \"events_per_sec_current\": %.0f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"allocs_per_event_legacy\": %.3f,\n"
                 "  \"allocs_per_event_current\": %.3f\n"
                 "}\n",
                 static_cast<unsigned long long>(TotalEvents),
                 static_cast<unsigned long long>(NumTimers),
                 Legacy.eventsPerSec(), Current.eventsPerSec(), Speedup,
                 Legacy.allocsPerEvent(), Current.allocsPerEvent());
    std::fclose(F);
    std::printf("wrote %s\n", JsonPath);
  }
  return 0;
}
