//===- Compile.h - The Nona compiler driver ---------------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Nona compiler (Chapter 4, Algorithm 1): builds the PDG of a loop,
/// applies the DOANY and PS-DSWP parallelizers, runs MTCG-style code
/// generation, and applies the flexible-code-generation transformations,
/// producing a FlexibleRegion whose tasks *execute* the loop (they
/// interpret their instruction slices against shared abstract memory and
/// communicate cross-task values over the region's channels) so that
/// semantics preservation under arbitrary reconfiguration schedules is
/// machine-checkable. Each instruction is lowered once to a role (plain,
/// induction, reduction phi, reduction update or carried phi), and a task
/// runs an iteration by walking the loop's blocks over one dense value
/// frame, reset from the preheader's live-ins.
///
/// The PS-DSWP partitioner implements the coalescence rules of Invariant
/// 4.3.1: it repeatedly extracts the heaviest mergeable set of parallel
/// SCCs into one parallel task and recursively partitions the predecessor
/// and successor subgraphs (Section 4.3.2).
///
/// Reductions are privatized and merged (Section 7.4). A scalar one
/// accumulates per worker slot. A commutative array reduction (see
/// ArrayReductionInfo) runs its load and store as ordinary per-iteration
/// compute instead of a critical section, and every exiting worker of the
/// task that owns it pays one merge of the array through Task::FiniCost.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_NONA_COMPILE_H
#define PARCAE_NONA_COMPILE_H

#include "core/Region.h"
#include "core/WorkSource.h"
#include "interp/Memory.h"
#include "ir/IR.h"
#include "pdg/PDG.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace parcae::ir {

/// One task of a partition: a set of SCC indices.
struct TaskPlan {
  std::vector<unsigned> Sccs;
  std::vector<unsigned> InstIds; ///< union of the SCCs' instructions
  bool Parallel = false;
  double Weight = 0;
};

/// A partition of the DAG_SCC into pipeline tasks.
struct PartitionPlan {
  rt::Scheme S = rt::Scheme::PsDswp;
  std::vector<TaskPlan> Tasks; ///< pipeline order
};

/// Runs the PS-DSWP coalescing algorithm.
PartitionPlan psdswpPartition(const PDG &P);

/// Verifies Invariant 4.3.1 on \p Plan:
///  1. every instruction is assigned to exactly one task,
///  2. dependencies flow forward in the pipeline,
///  3. a parallel task has no dependency chain between its members that
///     passes through another task.
/// Returns false and fills \p Why on violation.
bool checkCoalescenceInvariant(const PDG &P, const PartitionPlan &Plan,
                               std::string *Why = nullptr);

/// A loop compiled by Nona: executable variants plus shared state.
class CompiledLoop {
public:
  /// \p TripCount: number of iterations for counted loops (uncounted
  /// loops pass a generous bound; the head ends the stream itself).
  CompiledLoop(const Function &F, AliasOracle AA, std::uint64_t TripCount);
  ~CompiledLoop();
  CompiledLoop(const CompiledLoop &) = delete;
  CompiledLoop &operator=(const CompiledLoop &) = delete;

  rt::FlexibleRegion &region() { return Region; }
  const PDG &pdg() const { return *P; }

  bool hasDoAny() const { return Region.hasVariant(rt::Scheme::DoAny); }
  bool hasPsDswp() const { return Region.hasVariant(rt::Scheme::PsDswp); }

  /// Fresh work source for one run.
  std::unique_ptr<rt::CountedWorkSource> makeSource() const;

  /// Resets memory and carried state for a fresh run.
  void resetState();

  /// Execution-visible memory after (or during) a run.
  Memory &memory();

  /// Final value of a recognized non-induction reduction (merged over
  /// privatized partials).
  std::int64_t reductionValue(unsigned PhiId) const;

  /// Scales the latency of Call instructions (the workload-variation
  /// knob for the Figure 8.8 experiments).
  void setWorkScale(double S);

  /// Compilation summary: schemes, tasks, channels (for reports/tests).
  std::string report() const;

  /// Reference semantics: evaluates the function's IR directly and in
  /// order (host-side, no simulation). It shares none of the compiled
  /// tasks' machinery, so it is an independent oracle for them. Returns
  /// final memory; fills \p ReductionsOut with every header phi's final
  /// value (what its carried operand holds after the last iteration),
  /// keyed by phi id.
  static Memory
  interpret(const Function &F, std::uint64_t TripCount,
            std::map<unsigned, std::int64_t> *ReductionsOut = nullptr);

private:
  struct Impl;
  std::unique_ptr<Impl> I;
  const Function &F;
  std::unique_ptr<PDG> P;
  rt::FlexibleRegion Region;
  std::uint64_t TripCount;
};

} // namespace parcae::ir

#endif // PARCAE_NONA_COMPILE_H
