//===- Telemetry.h - Virtual-time event tracing -----------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer: a low-overhead, virtual-time-stamped structured
/// event log that every runtime layer (the simulated machine, Morta's
/// executor and controller, the platform daemon, Decima) emits into.
///
/// Event model (a subset of the Chrome trace-event format, so recorded
/// traces load directly in Perfetto / chrome://tracing):
///
///  * spans     — begin/end pairs on a (pid, tid) track ("core 3 ran
///                thread X", "controller in CALIBRATE");
///  * instants  — point events ("DoP move", "budget repartition");
///  * counters  — sampled numeric series ("iterations retired",
///                "SystemPower").
///
/// Tracks: one *process* per flexible program (plus the "machine",
/// "platform", and "decima" pseudo-processes) and one *thread* track per
/// virtual core, task, or control component.
///
/// Tracing is off by default: the process-wide sink (recorder()) starts
/// null, and every emission site goes through the PARCAE_TRACE macro,
/// which reduces to a single pointer test when tracing is off. Timestamps
/// are virtual: the recorder is bound to a sim::Simulator clock, and
/// rebinding to a fresh simulator (one per experiment run) rebases time so
/// multi-run traces stay monotone.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_TELEMETRY_TELEMETRY_H
#define PARCAE_TELEMETRY_TELEMETRY_H

#include "sim/Simulator.h"
#include "sim/Time.h"
#include "telemetry/Metrics.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace parcae::telemetry {

/// Emits into \p Rec only when a recorder is installed; the call (and its
/// argument expressions) is not evaluated otherwise.
#define PARCAE_TRACE(Rec, Call)                                                \
  do {                                                                         \
    if (::parcae::telemetry::TraceRecorder *PtRec_ = (Rec))                    \
      PtRec_->Call;                                                            \
  } while (0)

/// One key/value argument attached to an event (number or string).
struct TraceArg {
  std::string Key;
  std::string Str;
  double Num = 0.0;
  bool IsNum = true;

  static TraceArg num(std::string Key, double Value) {
    TraceArg A;
    A.Key = std::move(Key);
    A.Num = Value;
    return A;
  }
  static TraceArg str(std::string Key, std::string Value) {
    TraceArg A;
    A.Key = std::move(Key);
    A.Str = std::move(Value);
    A.IsNum = false;
    return A;
  }
};

/// Chrome trace-event phases this recorder emits.
enum class Phase : char {
  Begin = 'B',
  End = 'E',
  Instant = 'i',
  Counter = 'C',
};

/// One recorded event.
struct TraceEvent {
  sim::SimTime Ts = 0; ///< virtual nanoseconds, rebased across runs
  Phase Ph = Phase::Instant;
  std::uint32_t Pid = 0;
  std::uint32_t Tid = 0;
  const char *Cat = ""; ///< static category string ("core", "ctrl", ...)
  std::string Name;
  std::vector<TraceArg> Args;
};

/// Well-known thread-track ids within a program's process. Task tracks use
/// 1 + TaskIdx; these sit far above any plausible task count.
constexpr std::uint32_t TidExec = 0;       ///< region-execution lifecycle
constexpr std::uint32_t TidController = 250;
constexpr std::uint32_t TidRunner = 251;
constexpr std::uint32_t TidWatchdog = 252;

/// The structured event log. Bounded: beyond the event capacity new events
/// are counted as dropped rather than recorded, so a runaway trace cannot
/// exhaust memory.
class TraceRecorder {
public:
  explicit TraceRecorder(std::size_t Capacity = 1u << 22)
      : Capacity(Capacity) {}

  /// Binds (or rebinds) the virtual clock. Rebinding to a different
  /// simulator — or to a fresh one reusing the old address, detected by
  /// the clock moving backwards — rebases timestamps so that events from
  /// successive runs never interleave.
  void bindClock(const sim::Simulator &Sim) {
    if (Clock == &Sim && Sim.now() >= LastRawNow)
      return;
    Clock = &Sim;
    Offset = MaxTs;
    LastRawNow = 0;
  }

  /// Stops reading \p Sim's clock before that simulator goes away: until
  /// a clock is bound again, now() returns the last timestamp read from
  /// it. A no-op when another clock is bound.
  void releaseClock(const sim::Simulator &Sim) {
    if (Clock != &Sim)
      return;
    now();
    Clock = nullptr;
  }

  /// Current virtual timestamp (0 if no clock was ever bound).
  sim::SimTime now() {
    sim::SimTime Raw = Clock ? Clock->now() : LastRawNow;
    LastRawNow = Raw;
    sim::SimTime Ts = Offset + Raw;
    if (Ts > MaxTs)
      MaxTs = Ts;
    return Ts;
  }

  /// Stable process id for \p Name; the same name always maps to the same
  /// pid, so successive executions of one region share a track group.
  std::uint32_t processFor(const std::string &Name);

  /// Names a thread track (shown as the track label in Perfetto).
  void nameThread(std::uint32_t Pid, std::uint32_t Tid, std::string Name);

  void begin(std::uint32_t Pid, std::uint32_t Tid, const char *Cat,
             std::string Name, std::vector<TraceArg> Args = {}) {
    record(Phase::Begin, Pid, Tid, Cat, std::move(Name), std::move(Args));
  }
  void end(std::uint32_t Pid, std::uint32_t Tid, const char *Cat,
           std::string Name, std::vector<TraceArg> Args = {}) {
    record(Phase::End, Pid, Tid, Cat, std::move(Name), std::move(Args));
  }
  void instant(std::uint32_t Pid, std::uint32_t Tid, const char *Cat,
               std::string Name, std::vector<TraceArg> Args = {}) {
    record(Phase::Instant, Pid, Tid, Cat, std::move(Name), std::move(Args));
  }
  /// Counter sample; rendered as a numeric series named \p Name.
  void counter(std::uint32_t Pid, std::uint32_t Tid, const char *Cat,
               std::string Name, double Value) {
    record(Phase::Counter, Pid, Tid, Cat, std::move(Name),
           {TraceArg::num("value", Value)});
  }

  const std::vector<TraceEvent> &events() const { return Events; }
  std::size_t size() const { return Events.size(); }
  std::uint64_t dropped() const { return Dropped; }
  void clear() {
    Events.clear();
    Dropped = 0;
  }

  /// Named processes, in pid order (pid = index).
  const std::vector<std::string> &processes() const { return Processes; }
  /// Thread-track names as ((pid, tid), name) records.
  const std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>,
                              std::string>> &
  threadNames() const {
    return ThreadNames;
  }

  /// The metrics registry riding along with this recorder: components
  /// update counters/gauges/histograms here while tracing is on.
  MetricsRegistry &metrics() { return Metrics; }
  const MetricsRegistry &metrics() const { return Metrics; }

  /// Copies the number of events \p S has dispatched into the registry
  /// as the sim.events gauge. A gauge, not a counter, so a re-capture
  /// overwrites rather than double-counts. Machine's destructor calls
  /// this — the simulator is still alive there, unlike in TraceFile's
  /// destructor — so every traced run surfaces it in its metrics dump.
  void captureSimEvents(const sim::Simulator &S);

private:
  void record(Phase Ph, std::uint32_t Pid, std::uint32_t Tid, const char *Cat,
              std::string Name, std::vector<TraceArg> Args);

  const sim::Simulator *Clock = nullptr;
  sim::SimTime Offset = 0;
  sim::SimTime MaxTs = 0;
  sim::SimTime LastRawNow = 0;
  std::size_t Capacity;
  std::uint64_t Dropped = 0;
  std::vector<TraceEvent> Events;
  std::vector<std::string> Processes;
  std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>, std::string>>
      ThreadNames;
  MetricsRegistry Metrics;
};

/// The process-wide sink. Null (tracing off) by default; instrumented
/// components read it once at construction time.
TraceRecorder *recorder();
/// Installs \p R as the process-wide sink (null turns tracing off).
void setRecorder(TraceRecorder *R);

} // namespace parcae::telemetry

#endif // PARCAE_TELEMETRY_TELEMETRY_H
