//===- Power.h - Platform power model and PDU sampling ----------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Power modelling for the TPC (Throughput Power Controller) experiments.
/// The model is static platform power plus per-busy-core dynamic power,
/// calibrated so that, as in Section 8.2.3, 90% of peak total power equals
/// 60% of the dynamic range: Static = 72 x PerCore (600 W + 24 x 8.33 W
/// gives the paper's ~800 W peak on the 24-core platform).
///
/// The PduSampler reproduces the AP7892 power distribution unit the paper
/// measured with: 13 samples per minute, which rate-limits how fast the
/// TPC control loop can react (Section 8.2.3 discusses exactly this).
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_SIM_POWER_H
#define PARCAE_SIM_POWER_H

#include "sim/Machine.h"
#include "sim/Simulator.h"
#include "sim/Time.h"

#include <functional>

namespace parcae::sim {

/// Static-plus-dynamic platform power model.
struct PowerModel {
  double StaticWatts = 600.0;
  double PerCoreActiveWatts = 8.33;

  double watts(unsigned BusyCores) const {
    return StaticWatts + PerCoreActiveWatts * static_cast<double>(BusyCores);
  }
  /// Power with every core of \p Machine busy.
  double peakWatts(unsigned NumCores) const { return watts(NumCores); }
};

/// Integrates machine power over time and reports instantaneous draw.
class EnergyMeter {
public:
  /// Attaches to \p M, which then reports every busy-count change to this
  /// meter. At most one meter per machine; the destructor detaches it, so
  /// another meter may attach later.
  EnergyMeter(Machine &M, PowerModel Model);
  ~EnergyMeter();
  EnergyMeter(const EnergyMeter &) = delete;
  EnergyMeter &operator=(const EnergyMeter &) = delete;

  /// Instantaneous draw right now.
  double currentWatts() const { return Model.watts(BusyCores); }
  /// Total energy consumed since attachment, in joules.
  double joules() const;
  const PowerModel &model() const { return Model; }

private:
  friend class Machine; // reports busy-count changes
  void onBusyChange(unsigned NewBusy);

  Machine &M;
  PowerModel Model;
  unsigned BusyCores = 0;
  mutable double Joules = 0.0;
  mutable SimTime LastChange = 0;
};

/// Periodic power sampler with the AP7892's 13-samples-per-minute rate.
class PduSampler {
public:
  /// Starts sampling \p Meter. \p OnSample (optional) fires per sample.
  PduSampler(Simulator &Sim, const EnergyMeter &Meter,
             std::function<void(double Watts)> OnSample = nullptr,
             SimTime Period = 60 * Sec / 13);

  double lastSample() const { return LastWatts; }
  SimTime period() const { return Period; }
  /// Stops future samples (the object must outlive in-flight events).
  void stop() { Stopped = true; }

private:
  void tick();

  Simulator &Sim;
  const EnergyMeter &Meter;
  std::function<void(double)> OnSample;
  SimTime Period;
  double LastWatts = 0.0;
  bool Stopped = false;
};

} // namespace parcae::sim

#endif // PARCAE_SIM_POWER_H
