//===- PDG.h - Program dependence graph -------------------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program dependence graph of Section 4.1: nodes are the loop's
/// instructions, edges are register data dependencies (SSA def-use plus
/// loop-carried flows through header phis), memory data dependencies
/// (from a simple alias oracle over abstract memory objects), and control
/// dependencies (post-dominance based, plus the loop-carried control
/// dependence of the backedge branch over every instruction of the next
/// iteration).
///
/// Relaxations (Section 4.1): induction variables and min/max/sum
/// reductions are recognized and their carried edges marked removable via
/// privatization; commutativity annotations mark carried edges removable
/// via synchronization. Tarjan's SCC over the non-removable edges yields
/// the DAG_SCC that the DOANY and PS-DSWP transforms consume.
///
/// A commutative read-modify-write of a shared array whose extent is known
/// is also recognized as an array reduction. Its edges stay commutative;
/// the lowering uses the fact to privatize the array instead of running
/// the update as a critical section (Section 7.4).
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_PDG_PDG_H
#define PARCAE_PDG_PDG_H

#include "ir/IR.h"

#include <map>
#include <vector>

namespace parcae::ir {

enum class DepKind { Reg, Mem, Control };

/// How a dependence edge may be relaxed.
enum class Relax {
  None,       ///< hard dependence
  Induction,  ///< IV recurrence: every thread recomputes from the
              ///< iteration index
  Reduction,  ///< min/max/sum: privatize-and-merge (Section 7.4)
  Commutative ///< commutativity annotation: critical section
};

struct PDGEdge {
  unsigned From = 0; ///< instruction id
  unsigned To = 0;
  DepKind Kind = DepKind::Reg;
  bool LoopCarried = false;
  Relax Relaxation = Relax::None;

  bool removable() const { return Relaxation != Relax::None; }
};

/// Alias classes for abstract memory objects.
enum class MemClass {
  Shared,           ///< conservative: all accesses conflict
  ReadOnly,         ///< never written inside the loop
  IterationPrivate  ///< disjoint per iteration (e.g. out[i])
};

/// Trivial alias analysis over abstract memory objects.
class AliasOracle {
public:
  void setClass(int MemObject, MemClass C) { Classes[MemObject] = C; }
  MemClass classOf(int MemObject) const {
    auto It = Classes.find(MemObject);
    return It == Classes.end() ? MemClass::Shared : It->second;
  }

private:
  std::map<int, MemClass> Classes;
};

/// A recognized recurrence through a loop-header phi.
struct RecurrenceInfo {
  unsigned PhiId = 0;
  unsigned UpdateId = 0;
  Opcode Kind = Opcode::Add;
  /// Induction: the non-phi operand is loop-invariant, so every worker
  /// recomputes the value from the iteration index.
  bool IsInduction = false;
  /// For inductions: the loop-invariant step value.
  ValueId StepValue = NoValue;
};

/// A recognized commutative array reduction: inside the loop, object
/// MemObject is touched only by `L = Load O[i]` and `Store O[i] = L op x`
/// (op is Add, Min or Max; both accesses annotated commutative), L feeds
/// only op and op only the store, and i is `v mod c` for a constant
/// c > 0. Each worker can then update a private copy of the array's c
/// entries and merge it into the shared one once.
struct ArrayReductionInfo {
  int MemObject = -1;
  unsigned LoadId = 0;
  unsigned UpdateId = 0;
  unsigned StoreId = 0;
  Opcode Kind = Opcode::Add;
  /// Entries of a private copy: the constant c of the index `v mod c`.
  std::int64_t Extent = 0;
};

/// The PDG plus its SCC condensation.
class PDG {
public:
  PDG(const Function &F, const AliasOracle &AA);

  const std::vector<const Instruction *> &nodes() const { return Nodes; }
  const std::vector<PDGEdge> &edges() const { return Edges; }
  const std::vector<RecurrenceInfo> &recurrences() const {
    return Recurrences;
  }

  const std::vector<ArrayReductionInfo> &arrayReductions() const {
    return ArrayReductions;
  }

  /// Non-removable loop-carried edges (the parallelism inhibitors Nona
  /// reports to the programmer, Section 3.2).
  std::vector<PDGEdge> inhibitors() const;

  // --- SCC condensation over the non-removable edges -----------------

  struct SCC {
    std::vector<unsigned> InstIds;
    /// Has an internal non-removable loop-carried dependence (must run
    /// sequentially).
    bool Sequential = false;
    /// Estimated cycles per iteration.
    double Weight = 0;
  };

  const std::vector<SCC> &sccs() const { return Sccs; }
  /// DAG edges between SCCs (indices into sccs()), deduplicated.
  const std::vector<std::pair<unsigned, unsigned>> &sccEdges() const {
    return SccEdges;
  }
  unsigned sccOf(unsigned InstId) const;

private:
  void buildRegisterDeps(const Function &F);
  void buildMemoryDeps(const Function &F, const AliasOracle &AA);
  void buildControlDeps(const Function &F);
  void recognizeRecurrences(const Function &F);
  void recognizeArrayReductions(const Function &F);
  void condense();

  std::vector<const Instruction *> Nodes;
  std::map<unsigned, unsigned> NodeIndex; ///< inst id -> Nodes index
  std::vector<PDGEdge> Edges;
  std::vector<RecurrenceInfo> Recurrences;
  std::vector<ArrayReductionInfo> ArrayReductions;
  std::vector<SCC> Sccs;
  std::vector<std::pair<unsigned, unsigned>> SccEdges;
  std::map<unsigned, unsigned> SccIndex; ///< inst id -> scc index
};

} // namespace parcae::ir

#endif // PARCAE_PDG_PDG_H
