//===- Snapshot.h - Serializable region checkpoints -------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The region checkpoint format: everything needed to tear a quiesced
/// flexible region down and resume it elsewhere — a different core set,
/// a different simulated machine — with no re-measurement and no loss or
/// duplication of retired work.
///
/// A snapshot captures five things:
///
///  * the *work cursor*: the sequence number the next execution starts
///    at (== the commit frontier == iterations retired at the quiesced
///    point, the exactly-once anchor);
///  * the *work-source state*: a counted source's cursor, or a bounded
///    queue's unpulled tail (core/WorkSource.h's WorkSourceState);
///  * the *enforced configuration*: scheme plus the per-task width
///    (DoP) schedule the region was running under;
///  * the *chunk size*: the chunk policy's K at the quiesced point, which
///    seeds the fresh runner's policy;
///  * the *learned controller state*: the sequential baseline, the best
///    configuration found and the per-budget config cache (Section
///    6.4.2) — so a restored controller seeds MONITOR directly instead
///    of re-running INIT/CALIBRATE/OPTIMIZE.
///
/// The serialized form is versioned line-oriented text; doubles use
/// %.17g so a serialize/deserialize/serialize round trip is
/// byte-identical. Queue tokens' opaque Ref payloads are not carried
/// (regions whose tokens own out-of-band state are not snapshot-safe).
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_CHECKPOINT_SNAPSHOT_H
#define PARCAE_CHECKPOINT_SNAPSHOT_H

#include "core/Region.h"
#include "core/WorkSource.h"

#include <cstdint>
#include <string>
#include <vector>

namespace parcae::ckpt {

/// The controller's transferable memory: what a restored controller
/// needs to skip re-measurement (morta/Controller.h exports/imports it).
struct ControllerMemory {
  double SeqThroughput = 0.0; ///< INIT baseline (Tseq)
  rt::RegionConfig Best;      ///< best configuration found so far
  double BestThr = 0.0;
  struct CacheEntry {
    unsigned Budget = 0;
    rt::RegionConfig C;
    double Thr = 0.0;
    bool Limited = false;
  };
  std::vector<CacheEntry> Cache; ///< per-budget cache (Section 6.4.2)
};

/// A quiesced region, ready to resume elsewhere.
struct RegionSnapshot {
  static constexpr unsigned CurrentVersion = 1;

  unsigned Version = CurrentVersion;
  std::string Region;        ///< FlexibleRegion name (sanity check only)
  std::uint64_t Cursor = 0;  ///< next sequence number to execute
  std::uint64_t Retired = 0; ///< iterations retired (== Cursor when quiesced)
  std::uint64_t ChunkK = 1;  ///< chunk policy K to seed
  rt::RegionConfig Config;   ///< enforced scheme + width schedule
  rt::WorkSourceState Source;
  ControllerMemory Ctrl;

  /// Versioned, line-oriented text; byte-stable across round trips.
  std::string serialize() const;

  /// Parses \p Text into \p Out. Returns false (leaving \p Out
  /// unspecified) on an unknown version, truncation, or malformed data.
  static bool deserialize(const std::string &Text, RegionSnapshot &Out);
};

} // namespace parcae::ckpt

#endif // PARCAE_CHECKPOINT_SNAPSHOT_H
