//===- Power.cpp - Platform power model and PDU sampling -------------------===//

#include "sim/Power.h"

using namespace parcae::sim;

EnergyMeter::EnergyMeter(Machine &M, PowerModel Model)
    : M(M), Model(Model), BusyCores(M.busyCores()),
      LastChange(M.sim().now()) {
  assert(!M.Meter && "machine already has an energy meter");
  M.Meter = this;
}

EnergyMeter::~EnergyMeter() {
  assert(M.Meter == this && "energy meter detached behind its back");
  M.Meter = nullptr;
}

double EnergyMeter::joules() const {
  SimTime Now = M.sim().now();
  Joules += Model.watts(BusyCores) * toSeconds(Now - LastChange);
  LastChange = Now;
  return Joules;
}

void EnergyMeter::onBusyChange(unsigned NewBusy) {
  joules(); // settle the integral at the old busy count
  BusyCores = NewBusy;
}

PduSampler::PduSampler(Simulator &Sim, const EnergyMeter &Meter,
                       std::function<void(double)> OnSample, SimTime Period)
    : Sim(Sim), Meter(Meter), OnSample(std::move(OnSample)), Period(Period) {
  assert(Period > 0 && "sampling period must be positive");
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
