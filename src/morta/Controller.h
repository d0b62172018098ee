//===- Controller.h - Morta's closed-loop run-time controller ---*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-program run-time controller of Chapter 6: a finite-state
/// machine (Figure 6.3) that
///
///   State 1 (INIT)      measures a sequential baseline over Nseq
///                       iterations,
///   State 2 (CALIBRATE) measures a freshly configured parallel scheme,
///   State 3 (OPTIMIZE)  runs the finite-difference gradient-ascent search
///                       of Algorithm 4 over the DoP of every parallel
///                       task, prioritizing the slowest task,
///   State 4 (MONITOR)   passively watches throughput and triggers
///                       re-calibration on workload or resource change.
///
/// All parallel schemes the region exposes are explored; the best
/// configuration (possibly SEQ, if no parallel scheme is profitable) is
/// enforced. Optimized configurations are cached per thread budget and
/// reused on re-entry, as Section 6.4.2 describes.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_MORTA_CONTROLLER_H
#define PARCAE_MORTA_CONTROLLER_H

#include "checkpoint/Snapshot.h"
#include "decima/Monitor.h"
#include "morta/RegionRunner.h"
#include "sim/Simulator.h"
#include "telemetry/Telemetry.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace parcae::rt {

/// Controller states (Figure 6.3).
enum class CtrlState { Init, Calibrate, Optimize, Monitor, Done };

const char *ctrlStateName(CtrlState S);

/// Per-program run-time controller.
class RegionController {
public:
  explicit RegionController(RegionRunner &Runner);

  /// Starts controlling with \p ThreadBudget hardware threads. The runner
  /// must not have been started; the controller launches it in SEQ.
  void start(unsigned ThreadBudget);

  /// Platform-wide daemon adjusts this program's share (Algorithm 5). The
  /// grant is remembered; the effective budget is the grant clamped to
  /// the last known machine capacity.
  void setThreadBudget(unsigned N);

  /// The runner under control (the watchdog drives recovery through it).
  RegionRunner &runner() { return Runner; }

  // --- Watchdog entry points (morta/Watchdog.h) ------------------------

  /// Machine capacity changed to \p Online cores. A shrink (a core
  /// failed) caps the thread budget so the controller re-optimizes for
  /// the survivors; a growth (a repair returned cores) re-expands the
  /// budget toward the granted share, re-selecting the cached
  /// configuration for that budget when one exists. A no-op when the
  /// effective budget is unchanged.
  void onCapacityChange(unsigned Online);

  /// Forces an immediate recovery switch to \p C, bypassing measurement:
  /// the in-flight execution is aborted (or drained, when aborting is
  /// impossible), the work source rewound to the commit frontier, and
  /// execution resumed. The controller re-enters MONITOR around the new
  /// configuration.
  void forceRecover(RegionConfig C);

  // --- Checkpoint / restore / drain (src/checkpoint) -------------------

  /// The controller's learned memory (sequential baseline, best config,
  /// per-budget cache) in transferable form.
  ckpt::ControllerMemory exportMemory() const;
  void importMemory(const ckpt::ControllerMemory &M);

  /// Quiesces the region, assembles a full RegionSnapshot (runner cursor
  /// + work-source state + learned memory), transitions this controller
  /// to Done (ticks stop; the region now lives in the snapshot) and fires
  /// \p Cb. Any in-flight measurement is cancelled. If the region
  /// completes before quiescing, the controller reaches Done through its
  /// normal completion path and \p Cb never fires. Returns false when not
  /// started, already done, or a checkpoint is already pending.
  bool checkpointTo(std::function<void(ckpt::RegionSnapshot)> Cb);

  /// Starts controlling a region restored from \p S: the work source is
  /// rewound to the snapshot state, the chunk policy seeded, the
  /// learned memory imported, and execution resumed at the snapshot
  /// cursor under the cached configuration for the effective budget (the
  /// snapshot config, fitted, when no cache entry matches). The
  /// controller enters MONITOR directly — no INIT/CALIBRATE/OPTIMIZE
  /// re-measurement. Requires a never-started controller and runner.
  void startFromSnapshot(unsigned ThreadBudget, const ckpt::RegionSnapshot &S);

  /// Proactive migration off \p Cores (a failure-domain warning):
  /// checkpoints the region in place, offlines the doomed cores while
  /// the region holds no thread, recomputes the effective budget, and
  /// resumes on the survivors — zero aborted iterations, no
  /// re-measurement. \p Done fires when the region is running again (or
  /// when it completed during the drain). Returns false when the runner
  /// refuses the checkpoint (completed / suspended / pending).
  bool drainRestart(std::vector<unsigned> Cores, std::function<void()> Done);

  CtrlState state() const { return St; }
  unsigned threadBudget() const { return Budget; }
  /// The share last granted by start()/setThreadBudget(), before the
  /// capacity clamp.
  unsigned grantedBudget() const { return Granted; }
  /// Best configuration found so far and its measured throughput.
  const RegionConfig &bestConfig() const { return Best.C; }
  double bestThroughput() const { return Best.Thr; }
  double seqThroughput() const { return Tseq; }
  /// Threads the enforced configuration actually uses.
  unsigned threadsUsed() const;
  /// True when the last optimization wanted to grow some task's DoP but
  /// was capped by the thread budget — i.e. more threads would help.
  bool budgetLimited() const { return BudgetLimited; }

  /// Fires on the OPTIMIZE -> MONITOR transition, reporting the number of
  /// threads the optimal configuration uses (the daemon reclaims slack).
  std::function<void(unsigned Used)> OnOptimized;

  /// One line per state transition / measurement, for the Figure 8.8
  /// timelines.
  struct TraceEntry {
    sim::SimTime At;
    CtrlState St;
    RegionConfig C;
    double Thr; ///< iterations per second measured (0 if none)
  };
  const std::vector<TraceEntry> &trace() const { return Trace; }

private:
  struct Candidate {
    RegionConfig C;
    double Thr = 0.0;
  };

  void tick();
  void scheduleTick();
  /// Installs \p N as the effective budget and re-plans (cache reuse or
  /// re-calibration) — the shared tail of setThreadBudget and
  /// onCapacityChange.
  void applyBudget(unsigned N);
  /// Sets the FSM state, closing/opening the telemetry state span (each
  /// logical phase entry gets its own span, even INIT -> CALIBRATE ->
  /// CALIBRATE across schemes).
  void transitionTo(CtrlState NewSt);
  void beginMeasure(std::uint64_t Iters);
  bool measureReady() const;
  double measuredRate() const;
  std::uint64_t measureWindowIters() const;

  void enterInit();
  void enterCalibrate(RegionConfig C);
  void enterOptimize(double BaseThr);
  void enterMonitor();
  void stepOptimize(double Thr);
  void stepOptimizeNextTask(double BaseThr);
  bool nextScheme();
  RegionConfig defaultConfigFor(Scheme S) const;
  /// Picks the configuration to resume a restored/migrated region under:
  /// the cache entry for the effective budget if one exists (updating
  /// Best/BudgetLimited), else \p Preferred with its widest tasks shrunk
  /// until it fits the budget.
  RegionConfig resumeConfigFor(RegionConfig Preferred);
  std::vector<unsigned> parallelTasksByAscendingThroughput() const;
  unsigned dopUpperBound(unsigned TaskIdx) const;
  void recordTrace(double Thr);
  void finishSchemeSearch(double Thr);

  RegionRunner &Runner;
  sim::Simulator &Sim;

  CtrlState St = CtrlState::Init;
  unsigned Budget = 1;  ///< effective budget: Granted clamped to OnlineCap
  unsigned Granted = 1; ///< share granted by start()/setThreadBudget()
  unsigned OnlineCap;   ///< last known machine capacity (online cores)
  double Tseq = 0.0;
  Candidate Best;          ///< best across schemes (seeded with SEQ)
  Candidate SchemeBest;    ///< best within the scheme being optimized
  std::vector<Scheme> SchemesToTry;
  std::size_t SchemeIdx = 0;

  // Measurement window.
  ThroughputWindow Window;
  std::uint64_t WindowIters = 0;
  bool Measuring = false;
  bool MarkPending = false;
  std::uint64_t WarmupAnchor = NoSeq;

  // Algorithm 4 search state.
  struct OptState {
    unsigned TaskIdx = 0;
    int Dir = +1;            ///< +1 increasing search, -1 decreasing
    bool DescentClosed = false; ///< a descent ran, or a step was accepted
    double PrevThr = 0.0;
    unsigned PrevDoP = 0;
    bool Retried = false; ///< one re-measure before declaring a probe bad
    std::vector<bool> Opt;   ///< per task: optimized this round
  } Opt;

  bool BudgetLimited = false;

  // Config cache per thread budget (Section 6.4.2).
  struct CacheEntry {
    unsigned Budget;
    RegionConfig C;
    double Thr;
    bool Limited;
  };
  std::vector<CacheEntry> Cache;

  // MONITOR bookkeeping.
  double MonitorBaseThr = 0.0;

  std::vector<TraceEntry> Trace;
  bool TickScheduled = false;
  bool Started = false;

  // Telemetry (null when tracing is off).
  telemetry::TraceRecorder *Tel = nullptr;
  std::uint32_t TelPid = 0;
  bool TelSpanOpen = false;
  Histogram *ThrMetric = nullptr;
};

} // namespace parcae::rt

#endif // PARCAE_MORTA_CONTROLLER_H
