//===- Arrival.cpp - Open-loop arrival processes ---------------------------===//

#include "serve/Arrival.h"

#include <algorithm>
#include <cassert>
#include <fstream>
#include <sstream>

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
// BurstyArrivals
//===----------------------------------------------------------------------===//

BurstyArrivals::BurstyArrivals(double QuietRate, double BurstRate,
                               double MeanQuietSec, double MeanBurstSec,
                               std::uint64_t Seed)
    : QuietRate(QuietRate), BurstRate(BurstRate), MeanQuietSec(MeanQuietSec),
      MeanBurstSec(MeanBurstSec), R(Seed) {
  assert(QuietRate >= 0 && BurstRate > 0 && "burst state needs a rate");
  assert(MeanQuietSec > 0 && MeanBurstSec > 0 && "dwell times are positive");
}

std::optional<sim::SimTime> BurstyArrivals::nextDelay(sim::SimTime Now) {
  if (!Primed) {
    Primed = true;
    StateEndAt = Now + sim::fromSeconds(R.nextExponential(MeanQuietSec));
  }
  sim::SimTime Cursor = Now;
  for (;;) {
    double Rate = Burst ? BurstRate : QuietRate;
    if (Rate > 0) {
      sim::SimTime D = sim::fromSeconds(R.nextExponential(1.0 / Rate));
      if (Cursor + D <= StateEndAt)
        return Cursor + D - Now;
      // The draw lands beyond the state boundary: discard and redraw at
      // the new rate from the boundary (memoryless).
    }
    Cursor = StateEndAt;
    Burst = !Burst;
    StateEndAt =
        Cursor + sim::fromSeconds(
                     R.nextExponential(Burst ? MeanBurstSec : MeanQuietSec));
  }
}

//===----------------------------------------------------------------------===//
// TraceArrivals
//===----------------------------------------------------------------------===//

TraceArrivals::TraceArrivals(std::vector<TraceSegment> Segments,
                             std::uint64_t Seed, bool Loop)
    : Segments(std::move(Segments)), R(Seed), Loop(Loop) {
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
    if (++Seg == Segments.size()) {
      // A looped curve with no positive rate would cycle forever.
      if (!Loop || std::none_of(Segments.begin(), Segments.end(),
                                [](const TraceSegment &S) {
                                  return S.RatePerSec > 0;
                                }))
        return std::nullopt;
      Seg = 0;
    }
    SegEndAt = Cursor + sim::fromSeconds(Segments[Seg].DurationSec);
  }
}

std::optional<std::vector<TraceSegment>>
TraceArrivals::parseCsv(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  std::vector<TraceSegment> Out;
  std::string Line;
  while (std::getline(In, Line)) {
    // Strip comments and surrounding whitespace.
    std::size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line.erase(Hash);
    std::size_t B = Line.find_first_not_of(" \t\r");
    if (B == std::string::npos)
      continue;
    std::size_t E = Line.find_last_not_of(" \t\r");
    Line = Line.substr(B, E - B + 1);

    std::replace(Line.begin(), Line.end(), ',', ' ');
    std::istringstream Row(Line);
    TraceSegment S;
    if (!(Row >> S.DurationSec >> S.RatePerSec) || S.DurationSec <= 0 ||
        S.RatePerSec < 0)
      return std::nullopt;
    std::string Rest;
    if (Row >> Rest)
      return std::nullopt; // trailing garbage
    Out.push_back(S);
  }
  if (Out.empty())
    return std::nullopt;
  return Out;
}
