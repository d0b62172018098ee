//===- ServeLadder.cpp - serve-ladder: an open-loop api rate ladder ------===//
//
// bench_serve's two request classes on a 16-core machine with the
// platform arbiter on, re-run on a fresh machine at each rung of a ladder
// of fixed api arrival rates (an open loop: requests arrive on schedule
// whatever the backlog). Low rungs show what batching costs in latency,
// high rungs what it buys in capacity and how goodput collapses under
// overload. Arrival times are drawn from the seed during set-up and
// replayed on the virtual clock, so the generator is never late.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "morta/Platform.h"
#include "serve/ServeLoop.h"
#include "sim/Power.h"
#include "support/Rng.h"

#include <cstdio>
#include <optional>

using namespace parcae;
using namespace parcae::rt;
using namespace parcae::serve;
using namespace perfbench;

namespace {

/// Api arrival rates, one fresh machine per rung. The 1500/s under-load
/// rate of bench_serve sits low on the ladder; the top is over 5x that.
const double Rates[] = {500,  1000, 1500, 2000, 2500, 3000, 3500, 4000,
                        4500, 5000, 5500, 6000, 6500, 7000, 7500, 8000};
constexpr std::size_t NumRungs = sizeof(Rates) / sizeof(Rates[0]);
/// The rung whose api latency percentiles are the end-to-end p50/p99:
/// 3x the under-load rate, below capacity. Lower rungs pin p99 at one
/// full batch's service time (8.21 ms) whatever the seed.
constexpr double NominalRate = 4500;
/// Where the report also shows p50, to track batching's low-load cost.
constexpr double LowRate = 2000;
constexpr double BatchRate = 300;
constexpr sim::SimTime RungLen = 2 * sim::Sec;
/// A rung that has not drained this long after its arrivals end fails.
constexpr sim::SimTime DrainCap = 1 * sim::Sec;
/// The latency a shed or refused request counts as in percentiles: it
/// misses every limit, and the figure stays finite.
constexpr double MissMs = 1000.0;
constexpr sim::SimTime Slice = 100 * sim::MSec;
constexpr sim::SimTime ApiSlo = 10 * sim::MSec;
/// The fraction of api arrivals that must finish within ApiSlo.
constexpr double OnTimeGoal = 0.99;
/// A sequential server's api capacity: one request at a time on one
/// core, 32 x 60k cycles plus the 0.5 ms context load.
constexpr double SeqApiCapacity = 1.0 / (32 * 60e-6 + 0.5e-3);

/// bench_serve's service region: a single-stage DOANY whose workers each
/// pay the request's context load once.
FlexibleRegion makeServiceRegion(const char *Name, sim::SimTime CostPerIter,
                                 sim::SimTime ContextLoad) {
  Span S("make_region", Layer::Core);
  FlexibleRegion R(Name);
  RegionDesc D;
  D.Name = std::string(Name) + "-par";
  D.S = Scheme::DoAny;
  D.Tasks.emplace_back("work", TaskType::Par,
                       [CostPerIter](IterationContext &Ctx) {
                         Span W("work", Layer::Apps);
                         Ctx.Cost = CostPerIter;
                       });
  D.Tasks.back().InitCost = ContextLoad;
  R.addVariant(std::move(D));
  return R;
}

/// Replays arrival delays drawn during set-up.
class Replay : public ArrivalProcess {
public:
  explicit Replay(const std::vector<sim::SimTime> &Delays) : Delays(Delays) {}
  std::optional<sim::SimTime> nextDelay(sim::SimTime) override {
    if (Next == Delays.size())
      return std::nullopt;
    return Delays[Next++];
  }

private:
  const std::vector<sim::SimTime> &Delays;
  std::size_t Next = 0;
};

/// Poisson arrivals at \p Rate over one rung, as delays from the previous
/// arrival, drawn with the serving layer's own generator. \p Out keeps its
/// capacity across re-preparation, so repeated set-up does not re-fault
/// fresh pages.
void drawArrivals(double Rate, std::uint64_t Seed,
                  std::vector<sim::SimTime> &Out) {
  PoissonArrivals P(Rate, Seed);
  Out.clear();
  sim::SimTime Now = 0;
  for (;;) {
    sim::SimTime D = *P.nextDelay(Now);
    if (Now + D >= RungLen)
      return;
    Now += D;
    Out.push_back(D);
  }
}

struct RungOut {
  ServeLoop::ClassStats Api, Batch;
  BatchStats ApiBatches;
  std::uint64_t OnTime = 0;       ///< api completions within ApiSlo
  std::vector<double> ApiMs;      ///< per api arrival; failed = MissMs
  std::vector<double> BatchMs;    ///< per completed batch request
  double QueueWaitP99Ms = 0, ServiceP99Ms = 0;
  std::size_t SloTransfers = 0;
  double Joules = 0;
  sim::SimTime LastDoneAt = 0;
  bool Drained = false;
};

class ServeLadder : public Workload {
public:
  void prepare(std::uint64_t Seed) override {
    Rng Root(Seed);
    for (std::size_t I = 0; I < NumRungs; ++I) {
      std::uint64_t ApiSeed = Root.next(), BatchSeed = Root.next();
      drawArrivals(Rates[I], ApiSeed, ApiDelays[I]);
      drawArrivals(BatchRate, BatchSeed, BatchDelays[I]);
    }
  }

  PassResult run() override {
    PassResult P;
    RegionsBuilt = 0;
    std::vector<RungOut> Rungs;
    for (std::size_t I = 0; I < NumRungs; ++I)
      Rungs.push_back(runRung(I, P));
    summarize(Rungs, P);
    return P;
  }

private:
  RungOut runRung(std::size_t Idx, PassResult &P);
  void summarize(std::vector<RungOut> &Rungs, PassResult &P);

  std::vector<sim::SimTime> ApiDelays[NumRungs], BatchDelays[NumRungs];
  std::uint64_t RegionsBuilt = 0;
};

RungOut ServeLadder::runRung(std::size_t Idx, PassResult &P) {
  sim::Simulator Sim;
  sim::Machine M(Sim, 16);
  sim::EnergyMeter Meter(M, sim::PowerModel{});
  RuntimeCosts Costs;
  PlatformDaemon Daemon(16);
  ServeLoop Serve(M, Costs, Daemon);

  RequestClassDesc Api;
  Api.Name = "api";
  Api.MakeRegion = [this](const ServeRequest &) {
    ++RegionsBuilt;
    return makeServiceRegion("api", 60000, 500 * sim::USec);
  };
  Api.ItersPerRequest = 32;
  Api.Config = {Scheme::DoAny, {2}};
  Api.QueueCapacity = 512;
  Api.Slo = {95.0, ApiSlo};
  Api.Policy = std::make_unique<DeadlineEarlyDrop>(ApiSlo);
  Api.Batch = {8, 2 * sim::MSec, 0.5};
  unsigned ApiIdx = Serve.addClass(std::move(Api));

  RequestClassDesc Batch;
  Batch.Name = "batch";
  Batch.MakeRegion = [this](const ServeRequest &) {
    ++RegionsBuilt;
    return makeServiceRegion("batch", 150000, 500 * sim::USec);
  };
  Batch.ItersPerRequest = 64;
  Batch.Config = {Scheme::DoAny, {2}};
  Batch.QueueCapacity = 256;
  Batch.Slo = {95.0, 60 * sim::MSec};
  unsigned BatchIdx = Serve.addClass(std::move(Batch));

  RungOut Out;
  Serve.OnRequestDone = [&](const ServeRequest &R) {
    bool Done = !R.Rejected && !R.Shed;
    if (Done)
      Out.LastDoneAt = std::max(Out.LastDoneAt, R.CompletedAt);
    if (R.ClassIdx == BatchIdx) {
      if (Done)
        Out.BatchMs.push_back(ms(R.totalLatency()));
      return;
    }
    if (!Done) {
      Out.ApiMs.push_back(MissMs);
      return;
    }
    Out.ApiMs.push_back(ms(R.totalLatency()));
    if (R.totalLatency() <= ApiSlo)
      ++Out.OnTime;
  };

  Serve.startArrivals(ApiIdx, std::make_unique<Replay>(ApiDelays[Idx]));
  Serve.startArrivals(BatchIdx, std::make_unique<Replay>(BatchDelays[Idx]));
  Daemon.startArbiter(Sim, sim::MSec);

  // Drained means every arrival was finalized. Queue depth and in-service
  // counts alone miss requests held in a forming batch.
  auto Busy = [&] {
    for (unsigned C : {ApiIdx, BatchIdx}) {
      const ServeLoop::ClassStats &S = Serve.stats(C);
      if (S.Arrived != S.Completed + S.Shed + S.Rejected ||
          Serve.queueDepth(C) || Serve.inService(C))
        return true;
    }
    return false;
  };
  runCapped(Sim, RungLen, Slice, [] { return false; });
  runCapped(Sim, RungLen + DrainCap, 5 * sim::MSec, [&] { return !Busy(); });
  Daemon.stopArbiter();

  Out.Drained = !Busy() && Serve.inFlightRequests(ApiIdx) == 0 &&
                Serve.inFlightRequests(BatchIdx) == 0;
  Out.Api = Serve.stats(ApiIdx);
  Out.Batch = Serve.stats(BatchIdx);
  Out.ApiBatches = Serve.batchStats(ApiIdx);
  Out.QueueWaitP99Ms = Out.Api.QueueWaitUs.empty()
                           ? 0
                           : Out.Api.QueueWaitUs.p99() / 1000.0;
  Out.ServiceP99Ms =
      Out.Api.ServiceUs.empty() ? 0 : Out.Api.ServiceUs.p99() / 1000.0;
  Out.SloTransfers = Daemon.sloTransfers().size();
  Out.Joules = Meter.joules();
  P.addSim(Sim, M);

  char Name[32];
  std::snprintf(Name, sizeof(Name), "rung %.0f/s", Rates[Idx]);
  for (const ServeLoop::ClassStats *S : {&Out.Api, &Out.Batch})
    P.check(S->Arrived == S->Completed + S->Shed + S->Rejected,
            std::string(Name) + (S == &Out.Api ? " api" : " batch") +
                ": arrived != completed + shed + rejected");
  P.check(Out.ApiMs.size() == Out.Api.Arrived,
          std::string(Name) + ": an api request finished twice or never");
  P.check(Out.Drained, std::string(Name) + ": did not drain");
  return Out;
}

void ServeLadder::summarize(std::vector<RungOut> &Rungs, PassResult &P) {
  char Line[256];
  P.Report.push_back("rate/s   arrived  on-time  shed  rejected  "
                     "ok-frac   p50ms    p99ms   req/region");
  std::size_t Best = NumRungs, Nominal = 0, Low = 0;
  double Joules = 0, Makespan = 0;
  std::uint64_t Completed = 0, OnTime = 0;
  std::vector<double> BatchMs;
  std::vector<double> Frac(NumRungs);
  std::uint64_t Admitted = 0, Shed = 0, Rejected = 0, Batches = 0,
                BatchedReqs = 0;
  for (std::size_t I = 0; I < NumRungs; ++I) {
    RungOut &R = Rungs[I];
    Frac[I] = R.Api.Arrived ? static_cast<double>(R.OnTime) /
                                  static_cast<double>(R.Api.Arrived)
                            : 1.0;
    if (Frac[I] >= OnTimeGoal)
      Best = I;
    if (Rates[I] == NominalRate)
      Nominal = I;
    if (Rates[I] == LowRate)
      Low = I;
    OnTime += R.OnTime;
    P.Attempted += R.Api.Arrived + R.Batch.Arrived;
    P.Failed += R.Api.Shed + R.Api.Rejected + R.Batch.Shed + R.Batch.Rejected;
    Completed += R.Api.Completed + R.Batch.Completed;
    Joules += R.Joules;
    Makespan += ms(R.LastDoneAt);
    Admitted += R.Api.Admitted + R.Batch.Admitted;
    Shed += R.Api.Shed + R.Batch.Shed;
    Rejected += R.Api.Rejected + R.Batch.Rejected;
    Batches += R.ApiBatches.Batches;
    BatchedReqs += R.ApiBatches.BatchedRequests;
    BatchMs.insert(BatchMs.end(), R.BatchMs.begin(), R.BatchMs.end());
    std::vector<double> Lat = R.ApiMs;
    double P50 = percentile(Lat, 50), P99 = percentile(Lat, 99);
    std::snprintf(Line, sizeof(Line),
                  "%6.0f %9llu %8llu %5llu %9llu   %.4f %7.2f %8.2f   %.2f",
                  Rates[I], static_cast<unsigned long long>(R.Api.Arrived),
                  static_cast<unsigned long long>(R.OnTime),
                  static_cast<unsigned long long>(R.Api.Shed),
                  static_cast<unsigned long long>(R.Api.Rejected), Frac[I],
                  P50, P99, R.ApiBatches.requestsPerRegion());
    P.Report.push_back(Line);
  }

  // The crossing of the on-time goal, interpolated between the highest
  // passing rung and the next one, so the capacity figure is continuous
  // in the seed instead of jumping a whole rung.
  double MaxRate = 0;
  if (Best < NumRungs) {
    MaxRate = Rates[Best];
    if (Best + 1 < NumRungs && Frac[Best] > Frac[Best + 1])
      MaxRate += (Rates[Best + 1] - Rates[Best]) * (Frac[Best] - OnTimeGoal) /
                 (Frac[Best] - Frac[Best + 1]);
  }
  P.check(Best != NumRungs, "no rung met the on-time goal");

  RungOut &Nom = Rungs[Nominal];
  RungOut &Top = Rungs[NumRungs - 1];
  std::vector<double> NomMs = Nom.ApiMs;
  double P50 = percentile(NomMs, 50), P99 = percentile(NomMs, 99);

  P.Outcomes["max_rate_at_slo"] = MaxRate;
  P.Outcomes["speedup_vs_seq"] = MaxRate / SeqApiCapacity;
  P.Outcomes["p50_ms"] = P50;
  P.Outcomes["p99_ms"] = P99;
  // Goodput over the whole ladder: the overload rungs' collapse alone
  // swings by half from seed to seed, too noisy to gate on by itself.
  double RungSec = static_cast<double>(RungLen) / 1e9;
  P.Outcomes["goodput_rps"] =
      static_cast<double>(OnTime) / (RungSec * NumRungs);
  P.Outcomes["makespan_ms"] = Makespan;
  P.Outcomes["energy_mj_per_op"] =
      Completed ? Joules * 1000.0 / static_cast<double>(Completed) : 0.0;

  P.Layers["serve.admitted"] = static_cast<double>(Admitted);
  P.Layers["serve.shed"] = static_cast<double>(Shed);
  P.Layers["serve.rejected"] = static_cast<double>(Rejected);
  P.Layers["serve.queue_wait_p99_ms"] = Nom.QueueWaitP99Ms;
  P.Layers["serve.service_p99_ms"] = Nom.ServiceP99Ms;
  P.Layers["serve.requests_per_region"] =
      Batches ? static_cast<double>(BatchedReqs) / static_cast<double>(Batches)
              : 0.0;
  P.Layers["serve.close_size"] =
      static_cast<double>(Nom.ApiBatches.SizeCloses);
  P.Layers["serve.close_timer"] =
      static_cast<double>(Nom.ApiBatches.TimerCloses);
  P.Layers["serve.close_slo"] = static_cast<double>(Nom.ApiBatches.SloCloses);
  P.Layers["serve.batch_class_p99_ms"] = percentile(BatchMs, 99);
  P.Layers["morta.slo_transfers"] = static_cast<double>(Top.SloTransfers);
  P.Layers["serve.top_rung_goodput_rps"] =
      static_cast<double>(Top.OnTime) / RungSec;
  P.Layers["core.regions_built"] = static_cast<double>(RegionsBuilt);

  std::snprintf(Line, sizeof(Line),
                "max_rate_at_slo %.1f/s (highest passing rung %.0f/s of"
                " %.0f..%.0f)",
                MaxRate, Best < NumRungs ? Rates[Best] : 0.0, Rates[0],
                Rates[NumRungs - 1]);
  P.Report.push_back(Line);
  std::snprintf(Line, sizeof(Line),
                "goodput within %.0f ms: %.1f/s over the ladder, %.1f/s at"
                " the top rung (%.0f/s offered)",
                ms(ApiSlo), P.Outcomes["goodput_rps"],
                P.Layers["serve.top_rung_goodput_rps"], Rates[NumRungs - 1]);
  P.Report.push_back(Line);
  std::vector<double> LowMs = Rungs[Low].ApiMs;
  std::snprintf(Line, sizeof(Line),
                "api latency at %.0f/s: p50 %.3f ms, p99 %.3f ms (n=%zu);"
                " at %.0f/s: p50 %.3f ms (n=%zu)",
                NominalRate, P50, P99, NomMs.size(), LowRate,
                percentile(LowMs, 50), LowMs.size());
  P.Report.push_back(Line);
  std::snprintf(Line, sizeof(Line),
                "batch class p99 %.3f ms (n=%zu); fail_frac %llu/%llu",
                P.Layers["serve.batch_class_p99_ms"], BatchMs.size(),
                static_cast<unsigned long long>(P.Failed),
                static_cast<unsigned long long>(P.Attempted));
  P.Report.push_back(Line);
}

} // namespace

std::unique_ptr<Workload> perfbench::makeServeLadder() {
  return std::make_unique<ServeLadder>();
}
