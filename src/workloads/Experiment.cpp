//===- Experiment.cpp - Reusable experiment harnesses ----------------------===//

#include "workloads/Experiment.h"

using namespace parcae::rt;
namespace sim = parcae::sim;

double parcae::rt::laneMaxThroughput(const LaneAppParams &P, unsigned Cores) {
  return static_cast<double>(Cores) / sim::toSeconds(P.MeanWork);
}

ServerRunResult parcae::rt::runLaneExperiment(const LaneAppParams &P,
                                              LaneMechanism &Mech,
                                              unsigned Cores,
                                              double LoadFactor,
                                              std::uint64_t Requests,
                                              std::uint64_t Seed) {
  sim::Simulator Sim;
  sim::Machine M(Sim, Cores);
  RuntimeCosts Costs;
  QueueWorkSource Queue;
  LaneServerApp App(M, Costs, P, Queue);
  LaneMechanismDriver Driver(App, Mech);

  double Arrivals = LoadFactor * laneMaxThroughput(P, Cores);
  double Jitter = P.WorkJitter;
  sim::SimTime MeanWork = P.MeanWork;
  PoissonLoadGen Gen(Sim, Queue, Arrivals, Requests, Seed,
                     [MeanWork, Jitter](Request &R, Rng &Rand) {
                       R.Work = static_cast<sim::SimTime>(Rand.nextNormal(
                           static_cast<double>(MeanWork),
                           Jitter * static_cast<double>(MeanWork)));
                       R.UnitsRemaining = 1;
                     });

  Driver.start();
  Gen.start();
  Sim.run();

  ServerRunResult Out;
  Out.Resp = ResponseStats::collect(Gen.requests());
  Out.MeanResponseSec = Out.Resp.meanResponseSec();
  Out.Makespan = Sim.now();
  Out.ThroughputPerSec =
      static_cast<double>(Out.Resp.Completed) / sim::toSeconds(Out.Makespan);
  Out.Reconfigurations = Driver.reconfigurations();
  return Out;
}

PipelineRunResult parcae::rt::runPipelineExperiment(
    const std::function<PipelineApp()> &Make, const PipelineRunSpec &Spec) {
  sim::Simulator Sim;
  sim::Machine M(Sim, Spec.Cores, Spec.MC);
  RuntimeCosts Costs;
  sim::EnergyMeter Meter(M, Spec.Power);
  QueueWorkSource Queue;
  PipelineApp App = Make();
  RegionRunner Runner(M, Costs, App.Region, Queue);

  PoissonLoadGen Gen(Sim, Queue, Spec.ArrivalsPerSec, Spec.Requests,
                     Spec.Seed, [](Request &R, Rng &) {
                       R.Work = 0;
                       R.UnitsRemaining = 1;
                     });

  std::unique_ptr<MechanismDriver> Driver;
  std::unique_ptr<sim::PduSampler> Pdu;
  if (Spec.Mech) {
    Driver = std::make_unique<MechanismDriver>(Runner, *Spec.Mech,
                                               Spec.Cores, Spec.MechPeriod);
    if (Spec.PowerTargetWatts > 0) {
      Pdu = std::make_unique<sim::PduSampler>(Sim, Meter);
      Driver->setPowerSource(Pdu.get(), Spec.PowerTargetWatts);
    }
    Driver->start(Spec.Initial);
  } else {
    Runner.start(Spec.Initial);
  }
  // Stop periodic samplers once the region completes or the event loop
  // would spin on them forever.
  Runner.OnComplete = [&Pdu] {
    if (Pdu)
      Pdu->stop();
  };
  Gen.start();

  Sim.run();

  PipelineRunResult Out;
  Out.Server.Resp = ResponseStats::collect(Gen.requests());
  Out.Server.MeanResponseSec = Out.Server.Resp.meanResponseSec();
  Out.Server.Makespan = Sim.now();
  Out.Server.ThroughputPerSec = static_cast<double>(Out.Server.Resp.Completed) /
                                sim::toSeconds(Out.Server.Makespan);
  Out.Server.Reconfigurations = Driver ? Driver->decisions() : 0;
  if (Driver)
    Out.Timeline = Driver->timeline();
  Out.EnergyJoules = Meter.joules();
  Out.MeanPowerWatts = Out.EnergyJoules / sim::toSeconds(Sim.now());
  return Out;
}
