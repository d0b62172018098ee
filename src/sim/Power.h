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
/// An EnergyMeter only reads its machine: energy over the meter's lifetime
/// is static power times elapsed time plus per-core power times the
/// machine's busy-core integral (Machine::busyCoreTime) over that time.
/// The simulator core calls nothing here, so any number of meters may
/// watch one machine.
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

/// Energy a machine consumed since the meter was made, and its draw now.
/// The machine must outlive the meter.
class EnergyMeter {
public:
  EnergyMeter(Machine &M, PowerModel Model)
      : M(M), Model(Model), StartAt(M.sim().now()),
        BusyAtStart(M.busyCoreTime()) {}

  /// Instantaneous draw right now.
  double currentWatts() const { return Model.watts(M.busyCores()); }
  /// Total energy consumed since construction, in joules.
  double joules() const;

private:
  Machine &M;
  PowerModel Model;
  SimTime StartAt;
  SimTime BusyAtStart; ///< M.busyCoreTime() at construction
};

/// Periodic power sampler with the AP7892's 13-samples-per-minute rate.
class PduSampler {
public:
  /// Starts sampling \p Meter. \p OnSample (optional) fires per sample.
  PduSampler(Simulator &Sim, const EnergyMeter &Meter,
             std::function<void(double Watts)> OnSample = nullptr);

  double lastSample() const { return LastWatts; }
  /// Stops future samples (the object must outlive in-flight events).
  void stop() { Stopped = true; }

private:
  static constexpr SimTime Period = 60 * Sec / 13;

  void tick();

  Simulator &Sim;
  const EnergyMeter &Meter;
  std::function<void(double)> OnSample;
  double LastWatts = 0.0;
  bool Stopped = false;
};

} // namespace parcae::sim

#endif // PARCAE_SIM_POWER_H
