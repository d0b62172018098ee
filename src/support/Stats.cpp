//===- Stats.cpp - Online and windowed statistics -------------------------===//

#include "support/Stats.h"

#include <algorithm>
#include <cmath>

using namespace parcae;

void OnlineStats::add(double X) {
  if (N == 0) {
    Min = Max = X;
  } else {
    Min = std::min(Min, X);
    Max = std::max(Max, X);
  }
  ++N;
  double Delta = X - Mean;
  Mean += Delta / static_cast<double>(N);
  M2 += Delta * (X - Mean);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double SampleSet::mean() const {
  if (Samples.empty())
    return 0.0;
  double Sum = 0.0;
  for (double S : Samples)
    Sum += S;
  return Sum / static_cast<double>(Samples.size());
}

void SampleSet::decimate() {
  std::size_t Out = 0;
  for (std::size_t I = 0; I < Samples.size(); I += 2)
    Samples[Out++] = Samples[I];
  Samples.resize(Out);
  SortedValid = false;
}

void Histogram::add(double X) {
  Stats.add(X);
  if (++SinceLast < Stride)
    return;
  SinceLast = 0;
  Samples.add(X);
  if (Samples.count() >= MaxSamples) {
    Samples.decimate();
    Stride *= 2;
  }
}

namespace {
/// Zero-based index of the nearest-rank percentile \p P among \p N > 0
/// ordered samples.
std::size_t nearestRankIndex(std::size_t N, double P) {
  double Rank = std::ceil(P / 100.0 * static_cast<double>(N));
  return Rank <= 1 ? 0
                   : std::min(static_cast<std::size_t>(Rank), N) - 1;
}
} // namespace

double parcae::selectPercentile(std::vector<double> &V, double P) {
  assert(P >= 0 && P <= 100 && "percentile must be in [0, 100]");
  if (V.empty())
    return 0.0;
  auto Nth = V.begin() +
             static_cast<std::ptrdiff_t>(nearestRankIndex(V.size(), P));
  std::nth_element(V.begin(), Nth, V.end());
  return *Nth;
}

double SampleSet::percentile(double P) const {
  // Validate before the empty early-out: an out-of-range P is a caller
  // bug regardless of whether any samples have arrived yet.
  assert(P >= 0 && P <= 100 && "percentile must be in [0, 100]");
  if (Samples.empty())
    return 0.0;
  if (!SortedValid) {
    Sorted = Samples;
    std::sort(Sorted.begin(), Sorted.end());
    SortedValid = true;
    ++Sorts;
  }
  return Sorted[nearestRankIndex(Sorted.size(), P)];
}
