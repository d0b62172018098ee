//===- Power.cpp - Platform power model and PDU sampling -------------------===//

#include "sim/Power.h"

using namespace parcae::sim;

double EnergyMeter::joules() const {
  return Model.StaticWatts * toSeconds(M.sim().now() - StartAt) +
         Model.PerCoreActiveWatts * toSeconds(M.busyCoreTime() - BusyAtStart);
}

PduSampler::PduSampler(Simulator &Sim, const EnergyMeter &Meter,
                       std::function<void(double)> OnSample)
    : Sim(Sim), Meter(Meter), OnSample(std::move(OnSample)) {
  Sim.schedule(Period, [this] { tick(); });
}

void PduSampler::tick() {
  if (Stopped)
    return;
  LastWatts = Meter.currentWatts();
  if (OnSample)
    OnSample(LastWatts);
  Sim.schedule(Period, [this] { tick(); });
}
