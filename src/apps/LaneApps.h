//===- LaneApps.h - Two-level loop-nest server applications -----*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two-level loop-nest applications of Chapter 2 and Sections
/// 8.2.1/8.2.2: an outer loop over user requests (videos to transcode,
/// portfolios to price, files to compress, images to edit) parallelized
/// DOALL with K lanes, and an inner loop per request that may run
/// sequentially or on a team of L threads. The parallelism configuration
/// is the paper's <(K, DOALL), (L, PIPE|DOALL|SEQ)>.
///
/// The inner team is modelled as a gang: processing one request occupies
/// L cores for Work/S(L) cycles, where S is the application's measured
/// inner-scalability curve (e.g. x264's 6.3x at L = 8). This preserves
/// exactly the latency/throughput tradeoff Figure 2.4 demonstrates: lower
/// per-request time at large L, but lower system throughput under heavy
/// load because S(L) < L.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_APPS_LANEAPPS_H
#define PARCAE_APPS_LANEAPPS_H

#include "core/Region.h"
#include "core/WorkSource.h"
#include "morta/RegionRunner.h"
#include "workloads/LoadGen.h"

#include <memory>
#include <string>

namespace parcae::rt {

/// Inner-loop speedup curve S(L) = L / (1 + F + f*(L-1) + q*(L-1)^2),
/// with the fixed tax F applied only for L >= 2.
struct InnerScalability {
  double FixedTax = 0.0;   ///< one-time parallelization overhead
  double Linear = 0.02;    ///< per-extra-thread overhead
  double Quad = 0.002;     ///< contention growth
  unsigned Knee = 0;       ///< team size beyond which speedup decays (0: none)
  double KneeDecay = 0.05; ///< relative decay per thread beyond the knee

  double speedup(unsigned L) const;
  /// Largest L with parallel efficiency S(L)/L >= 0.5 (the paper's dPmax).
  unsigned dPmax(unsigned Limit = 64) const;
  /// Smallest L with S(L) > 1 (the paper notes bzip needs 4).
  unsigned dPmin(unsigned Limit = 64) const;
};

/// Static description of one two-level application.
struct LaneAppParams {
  std::string Name;
  /// Mean sequential work per request, cycles.
  sim::SimTime MeanWork = 0;
  /// Relative stddev of per-request work.
  double WorkJitter = 0.1;
  /// What the inner parallelism is called in the tables (PIPE or DOALL).
  const char *InnerKind = "PIPE";
  InnerScalability Scal;
};

/// Ready-made parameter sets matching the paper's applications on the
/// 24-core Xeon X7460 platform.
LaneAppParams x264Params();      ///< video transcoding (PARSEC x264)
LaneAppParams swaptionsParams(); ///< option pricing (PARSEC swaptions)
LaneAppParams bzipParams();      ///< data compression (SPEC bzip2)
LaneAppParams oilifyParams();    ///< image editing (GIMP oilify)

/// The paper's <(K, DOALL), (L, ...)> configuration of a lane app.
struct LaneConfig {
  unsigned K = 1;            ///< outer DoP: concurrent requests
  bool InnerParallel = false;
  unsigned L = 1;            ///< inner DoP (1 when sequential)

  unsigned threads() const { return K * (InnerParallel ? L : 1); }
  std::string str(const char *InnerKind) const;
};

/// Runs a lane application on the simulated machine.
class LaneServerApp {
public:
  LaneServerApp(sim::Machine &M, const RuntimeCosts &Costs,
                LaneAppParams Params, QueueWorkSource &Queue);

  void start(LaneConfig C);
  /// Applies a new configuration; K changes ride the in-place DoP path,
  /// inner changes take effect from the next request.
  void reconfigure(LaneConfig C);

  const LaneConfig &config() const { return Config; }
  RegionRunner &runner() { return *Runner; }

  /// Per-request execution time under inner DoP \p L (Figure 2.4(a)).
  sim::SimTime execTime(unsigned L) const;

  /// Called at each request dispatch with the work-queue occupancy; this
  /// is where WQT-H counts its "consecutive tasks" (Section 6.3.1).
  std::function<void(double QueueOccupancy)> OnDispatch;

private:
  LaneAppParams Params;
  QueueWorkSource &Queue;
  LaneConfig Config;
  /// Shared with the task functor so reconfigurations apply immediately.
  struct Knobs {
    bool InnerParallel = false;
    unsigned L = 1;
  };
  std::shared_ptr<Knobs> K;
  FlexibleRegion Region;
  std::unique_ptr<RegionRunner> Runner;
};

} // namespace parcae::rt

#endif // PARCAE_APPS_LANEAPPS_H
