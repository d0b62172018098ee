//===- Controller.cpp - Morta's closed-loop run-time controller ------------===//

#include "morta/Controller.h"

#include <algorithm>
#include <cmath>

using namespace parcae::rt;

namespace {
/// Baseline iterations in INIT (the paper sets 10).
constexpr unsigned Nseq = 10;
/// Minimum relative throughput gain for a parallel scheme to be kept
/// over SEQ (the profitability check at the end of Algorithm 4).
constexpr double ProfitabilityGain = 1.05;
/// Relative throughput drift in MONITOR that triggers re-calibration.
constexpr double MonitorThreshold = 0.25;
/// Polling period of the controller.
constexpr parcae::sim::SimTime TickPeriod = 20 * parcae::sim::USec;
/// Throughput sampling window in MONITOR.
constexpr parcae::sim::SimTime MonitorWindow = 2 * parcae::sim::MSec;
/// When two configurations are within this factor in throughput, prefer
/// the one using fewer threads (saves energy, Section 6.4).
constexpr double ThreadSavingSlack = 0.03;
} // namespace

const char *parcae::rt::ctrlStateName(CtrlState S) {
  switch (S) {
  case CtrlState::Init:
    return "INIT";
  case CtrlState::Calibrate:
    return "CALIBRATE";
  case CtrlState::Optimize:
    return "OPTIMIZE";
  case CtrlState::Monitor:
    return "MONITOR";
  case CtrlState::Done:
    return "DONE";
  }
  return "?";
}

RegionController::RegionController(RegionRunner &Runner)
    : Runner(Runner), Sim(Runner.machine().sim()),
      OnlineCap(Runner.machine().onlineCores()) {
  Tel = telemetry::recorder();
  if (Tel) {
    TelPid = Tel->processFor(Runner.region().name());
    Tel->nameThread(TelPid, telemetry::TidController, "controller");
    ThrMetric = &Tel->metrics().histogram("ctrl." + Runner.region().name() +
                                          ".throughput");
  }
}

void RegionController::transitionTo(CtrlState NewSt) {
  if (Tel) {
    if (TelSpanOpen)
      Tel->end(TelPid, telemetry::TidController, "ctrl", ctrlStateName(St));
    Tel->begin(TelPid, telemetry::TidController, "ctrl",
               ctrlStateName(NewSt),
               {telemetry::TraceArg::str("config", Runner.config().str()),
                telemetry::TraceArg::num("budget", Budget)});
    TelSpanOpen = true;
  }
  St = NewSt;
}

void RegionController::start(unsigned ThreadBudget) {
  assert(!Started && "controller already started");
  assert(ThreadBudget >= 1 && "need at least one thread");
  Started = true;
  Granted = ThreadBudget;
  Budget = std::max(1u, std::min(ThreadBudget, OnlineCap));
  enterInit();
  scheduleTick();
}

unsigned RegionController::threadsUsed() const {
  return Runner.config().totalThreads();
}

void RegionController::scheduleTick() {
  if (TickScheduled || St == CtrlState::Done)
    return;
  TickScheduled = true;
  Sim.schedule(TickPeriod, [this] {
    TickScheduled = false;
    tick();
  });
}

void RegionController::recordTrace(double Thr) {
  Trace.push_back({Sim.now(), St, Runner.config(), Thr});
  if (Tel && Thr > 0)
    ThrMetric->add(Thr);
}

void RegionController::beginMeasure(std::uint64_t Iters) {
  WindowIters = Iters;
  Measuring = true;
  MarkPending = true;
}

std::uint64_t RegionController::measureWindowIters() const {
  // Parallel workers retire in waves of ~D iterations; measuring a
  // non-integral number of waves distorts the rate by up to one wave per
  // window. Use several waves and round up to a whole number of them.
  std::uint64_t D = Runner.config().totalThreads();
  std::uint64_t W = std::max<std::uint64_t>(Nseq, 8 * D);
  return (W + D - 1) / D * D;
}

bool RegionController::measureReady() const {
  if (!Measuring || MarkPending)
    return false;
  if (Window.progress(Runner.totalRetired()) < WindowIters)
    return false;
  // In MONITOR, additionally require a minimum wall-clock window so that
  // passive sampling is not dominated by burst noise.
  if (St == CtrlState::Monitor &&
      Sim.now() < Window.startTime() + MonitorWindow)
    return false;
  return true;
}

double RegionController::measuredRate() const {
  return Window.rate(Runner.totalRetired(), Sim.now());
}

void RegionController::tick() {
  if (Runner.completed()) {
    transitionTo(CtrlState::Done);
    return;
  }
  if (!Runner.transitioning()) {
    if (MarkPending) {
      // Let the reconfigured region reach steady state (freshly spawned
      // workers pay thread-spawn and Tinit costs) before measuring.
      if (WarmupAnchor == NoSeq)
        WarmupAnchor = Runner.totalRetired();
      std::uint64_t Warmup = std::max<std::uint64_t>(
          8, 2 * Runner.config().totalThreads());
      if (Runner.totalRetired() < WarmupAnchor + Warmup) {
        scheduleTick();
        return;
      }
      WarmupAnchor = NoSeq;
      // The window size was chosen when the measurement was requested,
      // possibly before an asynchronous scheme switch applied; re-derive
      // it from the configuration actually running now.
      WindowIters = std::max(WindowIters, measureWindowIters());
      Window.mark(Runner.totalRetired(), Sim.now());
      MarkPending = false;
    }
    if (measureReady()) {
      Measuring = false;
      double Thr = measuredRate();
      switch (St) {
      case CtrlState::Init: {
        Tseq = Thr;
        Best = {Runner.config(), Tseq};
        recordTrace(Thr);
        // Explore every parallel scheme the region exposes.
        SchemesToTry.clear();
        for (const RegionDesc &V : Runner.region().variants())
          if (V.S != Scheme::Seq)
            SchemesToTry.push_back(V.S);
        SchemeIdx = 0;
        if (SchemesToTry.empty()) {
          enterMonitor();
          break;
        }
        enterCalibrate(defaultConfigFor(SchemesToTry[0]));
        break;
      }
      case CtrlState::Calibrate:
        recordTrace(Thr);
        PARCAE_TRACE(
            Tel, instant(TelPid, telemetry::TidController, "ctrl",
                         "calibrated",
                         {telemetry::TraceArg::str("config",
                                                   Runner.config().str()),
                          telemetry::TraceArg::num("thr", Thr),
                          telemetry::TraceArg::num("thr_seq", Tseq)}));
        enterOptimize(Thr);
        break;
      case CtrlState::Optimize:
        stepOptimize(Thr);
        break;
      case CtrlState::Monitor: {
        recordTrace(Thr);
        if (MonitorBaseThr <= 0) {
          MonitorBaseThr = Thr;
        } else {
          double Rel = std::abs(Thr - MonitorBaseThr) / MonitorBaseThr;
          if (Rel > MonitorThreshold) {
            PARCAE_TRACE(
                Tel, instant(TelPid, telemetry::TidController, "ctrl",
                             "monitor_drift",
                             {telemetry::TraceArg::num("thr_base",
                                                       MonitorBaseThr),
                              telemetry::TraceArg::num("thr", Thr),
                              telemetry::TraceArg::num("rel", Rel)}));
            // Workload changed (T4->2): re-calibrate the current scheme,
            // resetting the DoP if throughput dropped.
            Scheme S = Runner.config().S;
            SchemesToTry = {S};
            SchemeIdx = 0;
            RegionConfig C = Thr < MonitorBaseThr && S != Scheme::Seq
                                 ? defaultConfigFor(S)
                                 : Runner.config();
            if (S == Scheme::Seq && !Runner.region().variants().empty()) {
              // A sequential region that slowed down may now benefit from
              // parallelism again: re-run the full exploration.
              SchemesToTry.clear();
              for (const RegionDesc &V : Runner.region().variants())
                if (V.S != Scheme::Seq)
                  SchemesToTry.push_back(V.S);
              if (!SchemesToTry.empty())
                C = defaultConfigFor(SchemesToTry[0]);
            }
            if (SchemesToTry.empty()) {
              beginMeasure(measureWindowIters() * 4);
            } else {
              Best = {Runner.region().unitConfig(Scheme::Seq), Tseq};
              enterCalibrate(std::move(C));
            }
            break;
          }
        }
        beginMeasure(measureWindowIters() * 4);
        break;
      }
      case CtrlState::Done:
        return;
      }
    }
  }
  scheduleTick();
}

void RegionController::enterInit() {
  transitionTo(CtrlState::Init);
  RegionConfig SeqC = Runner.region().unitConfig(Scheme::Seq);
  Runner.start(SeqC);
  recordTrace(0);
  beginMeasure(Nseq);
}

void RegionController::enterCalibrate(RegionConfig C) {
  transitionTo(CtrlState::Calibrate);
  if (SchemeIdx == 0)
    BudgetLimited = false;
  Runner.reconfigure(std::move(C));
  recordTrace(0);
  beginMeasure(measureWindowIters());
}

void RegionController::enterOptimize(double BaseThr) {
  transitionTo(CtrlState::Optimize);
  const RegionDesc &V = Runner.region().variant(Runner.config().S);
  Opt = OptState();
  Opt.Opt.assign(V.numTasks(), false);
  for (unsigned T = 0; T < V.numTasks(); ++T)
    if (!V.Tasks[T].isParallel())
      Opt.Opt[T] = true; // sequential tasks are pinned at DoP 1
  recordTrace(BaseThr);
  stepOptimizeNextTask(BaseThr);
}

void RegionController::stepOptimize(double Thr) {
  recordTrace(Thr);
  unsigned Cur = Runner.config().DoP[Opt.TaskIdx];
  // Telemetry: every DoP move of the gradient ascent, with the throughput
  // measured before (at the previous DoP) and after (at the current one).
  double ThrBefore = Opt.PrevThr;
  auto dopMove = [&](const char *Kind, unsigned From, unsigned To) {
    PARCAE_TRACE(
        Tel, instant(TelPid, telemetry::TidController, "ctrl", Kind,
                     {telemetry::TraceArg::num("task", Opt.TaskIdx),
                      telemetry::TraceArg::num("dop_from", From),
                      telemetry::TraceArg::num("dop_to", To),
                      telemetry::TraceArg::num("thr_before", ThrBefore),
                      telemetry::TraceArg::num("thr_after", Thr)}));
  };
  // Relative finite difference; tiny changes count as zero.
  double Delta = Opt.PrevThr > 0 ? (Thr - Opt.PrevThr) / Opt.PrevThr
                                 : (Thr > 0 ? 1.0 : 0.0);
  const double Eps = 0.02;
  bool Better = Opt.Dir > 0 ? Delta > Eps : Delta > -Eps;
  // Decreasing search treats "no worse" as better: fewer threads for the
  // same throughput saves energy (Section 6.4.2's delta = 0 rule).

  // One transient-tolerant retry: a single noisy window must not end an
  // ascent that is genuinely still climbing.
  if (!Better && !Opt.Retried) {
    Opt.Retried = true;
    beginMeasure(measureWindowIters());
    return;
  }
  Opt.Retried = false;

  if (Better) {
    Opt.PrevThr = Thr;
    Opt.PrevDoP = Cur;
    // Once a step is accepted the task never turns round: a failed probe
    // after a climb means it passed its optimum. (A descent judges each
    // step against the previous one within Eps, so small losses add up
    // and could walk a climbed task back below its peak.)
    Opt.DescentClosed = true;
    unsigned Next;
    bool Feasible;
    if (Opt.Dir > 0) {
      Next = Cur + 1;
      Feasible = Next <= dopUpperBound(Opt.TaskIdx);
    } else {
      Next = Cur - 1;
      Feasible = Cur > 1;
    }
    if (Feasible) {
      RegionConfig C = Runner.config();
      C.DoP[Opt.TaskIdx] = Next;
      dopMove("dop_move", Cur, Next);
      Runner.reconfigure(std::move(C));
      beginMeasure(measureWindowIters());
      return;
    }
    // Hit a bound: this task is done at the current DoP. An increasing
    // search stopped by the budget means more threads would help.
    if (Opt.Dir > 0)
      BudgetLimited = true;
  } else if (!Opt.DescentClosed && Opt.PrevDoP > 1) {
    // The task's first upward probe failed; try the decreasing side once.
    Opt.Dir = -1;
    Opt.DescentClosed = true;
    RegionConfig C = Runner.config();
    C.DoP[Opt.TaskIdx] = Opt.PrevDoP - 1;
    dopMove("dop_move", Cur, Opt.PrevDoP - 1);
    Runner.reconfigure(std::move(C));
    beginMeasure(measureWindowIters());
    return;
  } else {
    // Passed the optimum: revert to the best DoP seen.
    RegionConfig C = Runner.config();
    if (C.DoP[Opt.TaskIdx] != Opt.PrevDoP) {
      C.DoP[Opt.TaskIdx] = Opt.PrevDoP;
      dopMove("dop_revert", Cur, Opt.PrevDoP);
      Runner.reconfigure(std::move(C));
    }
  }
  Opt.Opt[Opt.TaskIdx] = true;
  stepOptimizeNextTask(Opt.PrevThr);
}

void RegionController::stepOptimizeNextTask(double BaseThr) {
  // Re-rank and pick the slowest unoptimized parallel task (Algorithm 4
  // updates the order after optimizing each task); with none left, the
  // scheme's search is over.
  std::vector<unsigned> Order = parallelTasksByAscendingThroughput();
  for (unsigned T : Order) {
    if (Opt.Opt[T])
      continue;
    Opt.TaskIdx = T;
    Opt.PrevDoP = Runner.config().DoP[T];
    Opt.PrevThr = BaseThr;
    Opt.Dir = +1;
    Opt.DescentClosed = false;
    unsigned Bar = dopUpperBound(T);
    RegionConfig C = Runner.config();
    // First probe: one step up if the budget allows, else one step down.
    if (Opt.PrevDoP + 1 <= Bar) {
      C.DoP[T] = Opt.PrevDoP + 1;
    } else if (Opt.PrevDoP > 1) {
      BudgetLimited = true;
      Opt.Dir = -1;
      Opt.DescentClosed = true;
      C.DoP[T] = Opt.PrevDoP - 1;
    } else {
      // Neither direction available: this task is done.
      BudgetLimited = true;
      Opt.Opt[T] = true;
      continue;
    }
    Runner.reconfigure(std::move(C));
    beginMeasure(measureWindowIters());
    return;
  }
  finishSchemeSearch(BaseThr);
}

void RegionController::finishSchemeSearch(double Thr) {
  SchemeBest = {Runner.config(), Thr};
  // Profitability: a parallel scheme must beat the sequential baseline by
  // a margin; and among profitable candidates, small throughput slack is
  // traded for fewer threads (energy).
  bool Profitable = Thr > Tseq * ProfitabilityGain;
  if (Profitable) {
    bool BetterThr = Thr > Best.Thr * (1 + ThreadSavingSlack);
    bool SameThrFewerThreads =
        Thr > Best.Thr * (1 - ThreadSavingSlack) &&
        SchemeBest.C.totalThreads() < Best.C.totalThreads();
    if (BetterThr || SameThrFewerThreads)
      Best = SchemeBest;
  }
  if (nextScheme())
    return;
  // All schemes explored: enforce the best configuration and monitor.
  Cache.push_back({Budget, Best.C, Best.Thr, BudgetLimited});
  PARCAE_TRACE(
      Tel, instant(TelPid, telemetry::TidController, "ctrl", "enforce",
                   {telemetry::TraceArg::str("config", Best.C.str()),
                    telemetry::TraceArg::num("thr", Best.Thr),
                    telemetry::TraceArg::num("thr_seq", Tseq),
                    telemetry::TraceArg::num("budget_limited",
                                             BudgetLimited ? 1 : 0)}));
  Runner.reconfigure(Best.C);
  enterMonitor();
  if (OnOptimized)
    OnOptimized(Best.C.totalThreads());
}

bool RegionController::nextScheme() {
  ++SchemeIdx;
  if (SchemeIdx >= SchemesToTry.size())
    return false;
  enterCalibrate(defaultConfigFor(SchemesToTry[SchemeIdx]));
  return true;
}

void RegionController::enterMonitor() {
  transitionTo(CtrlState::Monitor);
  MonitorBaseThr = 0.0;
  recordTrace(0);
  beginMeasure(measureWindowIters() * 4);
}

RegionConfig RegionController::defaultConfigFor(Scheme S) const {
  const RegionDesc &V = Runner.region().variant(S);
  RegionConfig C;
  C.S = S;
  C.DoP.assign(V.numTasks(), 1);
  unsigned NumPar = 0, NumSeq = 0;
  for (const Task &T : V.Tasks)
    (T.isParallel() ? NumPar : NumSeq)++;
  if (NumPar == 0)
    return C;
  // Algorithm 4's starting point: every parallel task begins at half of
  // the midpoint of its available range.
  unsigned Avail = Budget > NumSeq ? Budget - NumSeq : 1;
  unsigned Bar = (NumPar + 1) * Avail / (2 * NumPar);
  unsigned D0 = std::max(1u, Bar / 2);
  // Never exceed the budget in total.
  while (D0 > 1 && NumSeq + NumPar * D0 > Budget)
    --D0;
  for (unsigned T = 0; T < V.numTasks(); ++T)
    if (V.Tasks[T].isParallel())
      C.DoP[T] = D0;
  return C;
}

std::vector<unsigned>
RegionController::parallelTasksByAscendingThroughput() const {
  const RegionDesc &V = Runner.region().variant(Runner.config().S);
  std::vector<unsigned> Par;
  for (unsigned T = 0; T < V.numTasks(); ++T)
    if (V.Tasks[T].isParallel())
      Par.push_back(T);
  const RegionExec *E = Runner.exec();
  if (!E)
    return Par;
  // Rank by per-thread service rate: slower tasks (bigger per-iteration
  // compute divided by team size) first.
  std::vector<double> Rate(V.numTasks(), 0.0);
  for (unsigned T : Par) {
    double Exec = Decima::getExecTime(*E, T);
    double DoP = static_cast<double>(Runner.config().DoP[T]);
    Rate[T] = Exec > 0 ? DoP / Exec : 1e30; // iterations/cycle capacity
  }
  std::stable_sort(Par.begin(), Par.end(),
                   [&](unsigned A, unsigned B) { return Rate[A] < Rate[B]; });
  return Par;
}

unsigned RegionController::dopUpperBound(unsigned TaskIdx) const {
  // Algorithm 4: dPi_bar = N - totalDoP + dPi.
  unsigned Total = Runner.config().totalThreads();
  unsigned Mine = Runner.config().DoP[TaskIdx];
  if (Budget + Mine <= Total)
    return Mine; // overloaded budget: no growth
  return Budget - (Total - Mine);
}

void RegionController::onCapacityChange(unsigned Online) {
  OnlineCap = std::max(1u, Online);
  unsigned N = std::max(1u, std::min(Granted, OnlineCap));
  if (!Started || St == CtrlState::Done)
    return;
  if (N == Budget)
    return; // the effective budget already matches the capacity
  PARCAE_TRACE(Tel,
               instant(TelPid, telemetry::TidController, "ctrl",
                       N < Budget ? "capacity_drop" : "capacity_grow",
                       {telemetry::TraceArg::num("online", Online),
                        telemetry::TraceArg::num("budget", Budget)}));
  applyBudget(N);
}

void RegionController::forceRecover(RegionConfig C) {
  if (!Started || St == CtrlState::Done || Runner.completed())
    return;
  PARCAE_TRACE(Tel,
               instant(TelPid, telemetry::TidController, "ctrl",
                       "force_recover",
                       {telemetry::TraceArg::str("config", C.str())}));
  recordTrace(0);
  Runner.recover(std::move(C));
  // Whatever measurement was in flight is meaningless across an abort;
  // settle into MONITOR around the recovered configuration.
  Measuring = false;
  MarkPending = false;
  WarmupAnchor = NoSeq;
  enterMonitor();
  scheduleTick();
}

parcae::ckpt::ControllerMemory RegionController::exportMemory() const {
  ckpt::ControllerMemory M;
  M.SeqThroughput = Tseq;
  M.Best = Best.C;
  M.BestThr = Best.Thr;
  M.Cache.reserve(Cache.size());
  for (const CacheEntry &E : Cache)
    M.Cache.push_back({E.Budget, E.C, E.Thr, E.Limited});
  return M;
}

void RegionController::importMemory(const ckpt::ControllerMemory &M) {
  Tseq = M.SeqThroughput;
  Best = {M.Best, M.BestThr};
  Cache.clear();
  Cache.reserve(M.Cache.size());
  for (const ckpt::ControllerMemory::CacheEntry &E : M.Cache)
    Cache.push_back({E.Budget, E.C, E.Thr, E.Limited});
}

RegionConfig RegionController::resumeConfigFor(RegionConfig Preferred) {
  for (const CacheEntry &E : Cache) {
    if (E.Budget == Budget) {
      Best = {E.C, E.Thr};
      BudgetLimited = E.Limited;
      return E.C;
    }
  }
  // No cache entry for this budget: keep the scheme, shrink the widest
  // tasks until the width schedule fits.
  while (Preferred.totalThreads() > Budget) {
    auto Widest = std::max_element(Preferred.DoP.begin(), Preferred.DoP.end());
    if (*Widest <= 1)
      break;
    --*Widest;
  }
  if (Preferred.totalThreads() > Budget)
    return Runner.region().unitConfig(Scheme::Seq);
  return Preferred;
}

bool RegionController::checkpointTo(std::function<void(ckpt::RegionSnapshot)> Cb) {
  if (!Started || St == CtrlState::Done || Runner.completed())
    return false;
  // Whatever measurement was in flight is meaningless across a
  // migration; cancel it so no window straddles the suspension.
  Measuring = false;
  MarkPending = false;
  WarmupAnchor = NoSeq;
  return Runner.requestCheckpoint(
      [this, Cb = std::move(Cb)](const RunnerCheckpoint *CP) {
        if (!CP)
          return; // completed during the drain: nothing to hand off
        ckpt::RegionSnapshot S;
        S.Region = Runner.region().name();
        S.Cursor = CP->Cursor;
        S.Retired = CP->Retired;
        S.ChunkK = CP->ChunkK;
        S.Config = CP->Config;
        Runner.source().saveState(S.Source);
        S.Ctrl = exportMemory();
        PARCAE_TRACE(
            Tel, instant(TelPid, telemetry::TidController, "ctrl",
                         "checkpoint",
                         {telemetry::TraceArg::num("cursor", CP->Cursor),
                          telemetry::TraceArg::str("config",
                                                   CP->Config.str())}));
        // The region now lives in the snapshot; this controller is done
        // and its machine may be torn down.
        recordTrace(0);
        transitionTo(CtrlState::Done);
        Cb(std::move(S));
      });
}

void RegionController::startFromSnapshot(unsigned ThreadBudget,
                                         const ckpt::RegionSnapshot &S) {
  assert(!Started && "controller already started");
  assert(ThreadBudget >= 1 && "need at least one thread");
  assert(S.Region == Runner.region().name() && "snapshot for another region");
  Started = true;
  Granted = ThreadBudget;
  Budget = std::max(1u, std::min(ThreadBudget, OnlineCap));
  importMemory(S.Ctrl);
  // A fresh source rewinds to the snapshot cursor; a source the caller
  // already positioned refuses, which is fine — the cursor governs
  // replay either way.
  (void)Runner.source().restoreState(S.Source);
  Runner.chunkPolicy().seed(S.ChunkK);
  RegionConfig C = resumeConfigFor(S.Config);
  PARCAE_TRACE(Tel,
               instant(TelPid, telemetry::TidController, "ctrl", "restore",
                       {telemetry::TraceArg::num("cursor", S.Cursor),
                        telemetry::TraceArg::str("config", C.str()),
                        telemetry::TraceArg::num("budget", Budget)}));
  Runner.start(C, S.Cursor);
  // The snapshot carries the learned memory; skip INIT/CALIBRATE/OPTIMIZE
  // and settle straight into passive monitoring.
  enterMonitor();
  scheduleTick();
}

bool RegionController::drainRestart(std::vector<unsigned> Cores,
                                    std::function<void()> Done) {
  if (!Started || St == CtrlState::Done || Runner.completed())
    return false;
  Measuring = false;
  MarkPending = false;
  WarmupAnchor = NoSeq;
  PARCAE_TRACE(Tel, instant(TelPid, telemetry::TidController, "ctrl",
                            "drain_restart",
                            {telemetry::TraceArg::num("cores", Cores.size())}));
  return Runner.requestCheckpoint(
      [this, Cores = std::move(Cores),
       Done = std::move(Done)](const RunnerCheckpoint *CP) {
        if (!CP) {
          // Completed during the drain: nothing left to migrate.
          if (Done)
            Done();
          return;
        }
        // Quiescent: the region holds no thread, so the doomed cores can
        // be retired with nothing to strand.
        sim::Machine &Mach = Runner.machine();
        for (unsigned Core : Cores)
          Mach.offlineCore(Core);
        OnlineCap = std::max(1u, Mach.onlineCores());
        Budget = std::max(1u, std::min(Granted, OnlineCap));
        RegionConfig C = resumeConfigFor(CP->Config);
        PARCAE_TRACE(
            Tel, instant(TelPid, telemetry::TidController, "ctrl", "migrate",
                         {telemetry::TraceArg::num("cursor", CP->Cursor),
                          telemetry::TraceArg::str("config", C.str()),
                          telemetry::TraceArg::num("budget", Budget)}));
        recordTrace(0);
        Runner.resume(std::move(C), CP->Cursor);
        enterMonitor();
        scheduleTick();
        if (Done)
          Done();
      });
}

void RegionController::setThreadBudget(unsigned N) {
  assert(N >= 1 && "need at least one thread");
  Granted = N;
  // The grant is aspirational: a degraded machine caps what the
  // controller may actually schedule until repairs return capacity.
  applyBudget(std::max(1u, std::min(N, OnlineCap)));
}

void RegionController::applyBudget(unsigned N) {
  if (!Started || N == Budget || St == CtrlState::Done) {
    Budget = std::max(1u, N);
    return;
  }
  unsigned Old = Budget;
  Budget = N;
  PARCAE_TRACE(Tel,
               instant(TelPid, telemetry::TidController, "ctrl", "budget",
                       {telemetry::TraceArg::num("from", Old),
                        telemetry::TraceArg::num("to", N)}));
  if (St == CtrlState::Init)
    return; // the baseline phase proceeds; the new budget applies after it
  recordTrace(0);
  // Cached configuration for this exact budget? Reuse it (Section 6.4.2).
  for (const CacheEntry &E : Cache) {
    if (E.Budget == N) {
      Best = {E.C, E.Thr};
      BudgetLimited = E.Limited;
      Runner.reconfigure(E.C);
      enterMonitor();
      if (OnOptimized)
        OnOptimized(E.C.totalThreads());
      return;
    }
  }
  Scheme S = Runner.config().S;
  if (S == Scheme::Seq) {
    // Running sequentially: a budget change may make parallelism viable,
    // so re-run the full exploration.
    SchemesToTry.clear();
    for (const RegionDesc &V : Runner.region().variants())
      if (V.S != Scheme::Seq)
        SchemesToTry.push_back(V.S);
    if (SchemesToTry.empty())
      return;
    S = SchemesToTry[0];
    SchemeIdx = 0;
    Best = {Runner.region().unitConfig(Scheme::Seq), Tseq};
    enterCalibrate(defaultConfigFor(S));
    return;
  }
  SchemesToTry = {S};
  SchemeIdx = 0;
  Best = {Runner.region().unitConfig(Scheme::Seq), Tseq};
  if (N > Old && Runner.config().totalThreads() <= N) {
    // More resources: keep the current DoP as the starting point.
    enterCalibrate(Runner.config());
  } else {
    // Fewer resources: reset to the default under the new budget.
    enterCalibrate(defaultConfigFor(S));
  }
}
