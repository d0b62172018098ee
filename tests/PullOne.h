//===- PullOne.h - One-item pulls for the work-source tests -----*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The work-source tests step a source one item at a time. A source has a
/// single pull path, the head worker's chunk claim, so a one-item pull is
/// a claim of one.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_TESTS_PULLONE_H
#define PARCAE_TESTS_PULLONE_H

#include "core/WorkSource.h"

#include <vector>

namespace parcae::rt {

/// Claims one item from \p Src into \p Out; the result is the claim's.
inline WorkSource::Pull pullOne(WorkSource &Src, Token &Out) {
  std::vector<Token> Got;
  WorkSource::Pull P = Src.tryPullChunk(1, Got);
  if (P == WorkSource::Pull::Got)
    Out = Got.front();
  return P;
}

} // namespace parcae::rt

#endif // PARCAE_TESTS_PULLONE_H
