//===- Programs.h - Nona benchmark loop suite -------------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark suite for the Nona compiler evaluation (the Section 8.3
/// substitute; the original used SPEC/PARSEC loops through LLVM). Seven
/// loop programs covering the parallelization space:
///
///  * vecsum     — sum reduction over an array (DOANY via reduction)
///  * saxpy      — independent element-wise update (DOANY, no locks)
///  * histogram  — commutative updates of shared bins: an array reduction
///                 (DOANY, bins privatized per worker and merged at exit)
///  * montecarlo — commutative PRNG calls + sum reduction (DOANY via
///                 commutativity annotation, the paper's rand() example)
///  * chase      — pointer chase + heavy payload (PS-DSWP only: the
///                 traversal is a sequential SCC)
///  * branchy    — pipeline with data-dependent control flow in the
///                 parallel stage
///  * seqchain   — a serial call chain (no parallelism: SEQ only)
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_NONA_PROGRAMS_H
#define PARCAE_NONA_PROGRAMS_H

#include "nona/Compile.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace parcae::ir {

/// One benchmark: the IR, its alias facts, and its iteration count.
struct LoopProgram {
  std::string Name;
  std::unique_ptr<Function> F;
  AliasOracle AA;
  std::uint64_t TripCount = 0;
  /// Ids of interesting reduction phis (for result checks).
  std::vector<unsigned> ReductionPhis;
};

LoopProgram makeVecsum(std::uint64_t N);
LoopProgram makeSaxpy(std::uint64_t N);
LoopProgram makeHistogram(std::uint64_t N, std::int64_t Bins);
LoopProgram makeMonteCarlo(std::uint64_t N);
LoopProgram makeChase(std::uint64_t N);
LoopProgram makeBranchy(std::uint64_t N);
LoopProgram makeSeqchain(std::uint64_t N);
/// min AND max reductions over generated data (exercises the non-Add
/// reduction kinds end to end).
LoopProgram makeMinMax(std::uint64_t N);
/// A sequential-parallel network S-P-S-P-S (the Figure 7.7 shape): two
/// heavy parallel kernels separated by loop-carried sequential stages.
LoopProgram makeDualPipe(std::uint64_t N);

/// The whole suite with a default size.
std::vector<std::function<LoopProgram()>> benchmarkSuite(std::uint64_t N);

} // namespace parcae::ir

#endif // PARCAE_NONA_PROGRAMS_H
