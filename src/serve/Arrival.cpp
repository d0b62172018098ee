//===- Arrival.cpp - Open-loop arrival processes ---------------------------===//

#include "serve/Arrival.h"

#include <cassert>

using namespace parcae;
using namespace parcae::serve;

ArrivalProcess::~ArrivalProcess() = default;

//===----------------------------------------------------------------------===//
// PoissonArrivals
//===----------------------------------------------------------------------===//

PoissonArrivals::PoissonArrivals(double RatePerSec, std::uint64_t Seed)
    : MeanSec(1.0 / RatePerSec), R(Seed) {
  assert(RatePerSec > 0 && "Poisson arrivals need a positive rate");
}

std::optional<sim::SimTime> PoissonArrivals::nextDelay(sim::SimTime) {
  return sim::fromSeconds(R.nextExponential(MeanSec));
}

//===----------------------------------------------------------------------===//
// TraceArrivals
//===----------------------------------------------------------------------===//

TraceArrivals::TraceArrivals(std::vector<TraceSegment> Segments,
                             std::uint64_t Seed)
    : Segments(std::move(Segments)), R(Seed) {
  assert(!this->Segments.empty() && "trace needs at least one segment");
  for (const TraceSegment &S : this->Segments)
    assert(S.DurationSec > 0 && S.RatePerSec >= 0 && "malformed segment");
}

std::optional<sim::SimTime> TraceArrivals::nextDelay(sim::SimTime Now) {
  if (!Primed) {
    Primed = true;
    Seg = 0;
    SegEndAt = Now + sim::fromSeconds(Segments[0].DurationSec);
  }
  sim::SimTime Cursor = Now;
  for (;;) {
    double Rate = Segments[Seg].RatePerSec;
    if (Rate > 0) {
      sim::SimTime D = sim::fromSeconds(R.nextExponential(1.0 / Rate));
      if (Cursor + D <= SegEndAt)
        return Cursor + D - Now;
      // Redraw at the next segment's rate from the boundary (memoryless).
    }
    Cursor = SegEndAt;
    if (++Seg == Segments.size())
      return std::nullopt;
    SegEndAt = Cursor + sim::fromSeconds(Segments[Seg].DurationSec);
  }
}
