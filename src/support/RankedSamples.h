//===- RankedSamples.h - Percentiles over a changing sample set -*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A multiset of samples that answers nearest-rank percentiles in
/// O(log n) while samples come and go: an order-statistics tree
/// (__gnu_pbds) keyed by (value, insertion sequence), so equal values stay
/// distinct entries and each can be erased by the key its insert returned.
/// The serving layer's SLO probe keeps its time-bounded latency window in
/// one. Kept out of Stats.h so that only its users parse the pb_ds
/// headers.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_SUPPORT_RANKEDSAMPLES_H
#define PARCAE_SUPPORT_RANKEDSAMPLES_H

#include "support/Stats.h"

#include <ext/pb_ds/assoc_container.hpp>
#include <ext/pb_ds/tree_policy.hpp>

#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>

namespace parcae {

class RankedSamples {
public:
  /// Names one inserted sample: its value and insertion sequence.
  using Key = std::pair<double, std::uint64_t>;

  /// Adds \p X; returns the key that erases it.
  Key insert(double X) {
    Key K{X, NextSeq++};
    Tree.insert(K);
    return K;
  }

  /// Removes the sample \p K names, which must be present.
  void erase(const Key &K) {
    [[maybe_unused]] bool Erased = Tree.erase(K);
    assert(Erased && "erasing a sample that is not in the set");
  }

  std::size_t size() const { return Tree.size(); }

  /// Nearest-rank percentile \p P in [0, 100]: the value
  /// SampleSet::percentile returns for the same samples; 0 when empty.
  double percentile(double P) const {
    assert(P >= 0 && P <= 100 && "percentile must be in [0, 100]");
    if (Tree.empty())
      return 0.0;
    return Tree.find_by_order(nearestRankIndex(Tree.size(), P))->first;
  }

private:
  __gnu_pbds::tree<Key, __gnu_pbds::null_type, std::less<Key>,
                   __gnu_pbds::rb_tree_tag,
                   __gnu_pbds::tree_order_statistics_node_update>
      Tree;
  std::uint64_t NextSeq = 0;
};

} // namespace parcae

#endif // PARCAE_SUPPORT_RANKEDSAMPLES_H
