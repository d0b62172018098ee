//===- IR.h - Nona's intermediate representation ----------------*- C++ -*-===//
//
// Part of the Parcae reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact SSA intermediate representation for the Nona compiler
/// (Chapter 4). It is deliberately small but complete enough to express
/// everything the paper parallelizes: loops with induction variables,
/// min/max/sum reductions, commutativity-annotated calls, loads/stores
/// against abstract memory objects, and control flow inside the loop
/// body.
///
/// The loop shape matches the paper's CFG_T restrictions (Section 4.5.1):
/// a single-entry single-exit region with one header, one tail->header
/// backedge, and all exits reaching a single exit block.
///
//===----------------------------------------------------------------------===//

#ifndef PARCAE_IR_IR_H
#define PARCAE_IR_IR_H

#include "sim/Time.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace parcae::ir {

class BasicBlock;
class Function;

/// A virtual register in SSA form. Negative means "none".
using ValueId = int;
constexpr ValueId NoValue = -1;

enum class Opcode {
  Const, ///< Def = Imm
  Add,   ///< Def = Uses[0] + Uses[1]
  Sub,
  Mul,
  Mod,   ///< Def = Uses[0] % Uses[1] (Uses[1] > 0)
  Min,
  Max,
  CmpLt, ///< Def = Uses[0] < Uses[1]
  Phi,   ///< loop-header phi: Uses = {initial, loop-carried}
  Load,  ///< Def = Mem[MemObject][Uses[0]]  (Uses empty: scalar cell 0)
  Store, ///< Mem[MemObject][Uses[0]] = Uses[1] (1 use: scalar cell 0)
  Call,  ///< Def = opaque(Imm; Uses...) — latency-heavy external work
  Br,    ///< unconditional to Succs[0]
  CondBr, ///< Uses[0] != 0 ? Succs[0] : Succs[1]
  Ret    ///< function end (no successors)
};

const char *opcodeName(Opcode Op);
bool isTerminator(Opcode Op);

/// One SSA instruction.
class Instruction {
public:
  unsigned Id = 0;      ///< dense within the function
  Opcode Op;
  ValueId Def = NoValue;
  std::vector<ValueId> Uses;
  /// Abstract memory object accessed by Load/Store (alias class).
  int MemObject = -1;
  /// Constant for Const; callee id for Call.
  std::int64_t Imm = 0;
  /// Execution latency in cycles (drives the simulated cost model).
  sim::SimTime Latency = 1;
  /// Average dynamic executions per loop iteration (profile weight).
  double ProfileWeight = 1.0;
  /// Commutativity annotation (Section 4.1): instances of this
  /// instruction may be reordered relative to each other; DOANY realizes
  /// this with a critical section.
  bool Commutative = false;
  BasicBlock *Parent = nullptr;
  std::string Name;

  bool isPhi() const { return Op == Opcode::Phi; }
  bool isMemory() const {
    return Op == Opcode::Load || Op == Opcode::Store;
  }
  bool isBranch() const { return isTerminator(Op); }
};

/// A basic block: instructions plus CFG edges.
class BasicBlock {
public:
  unsigned Id = 0;
  std::string Name;
  std::vector<std::unique_ptr<Instruction>> Insts;
  std::vector<BasicBlock *> Succs;
  std::vector<BasicBlock *> Preds;

  Instruction *terminator() {
    assert(!Insts.empty() && Insts.back()->isBranch() &&
           "block lacks a terminator");
    return Insts.back().get();
  }
  const Instruction *terminator() const {
    return const_cast<BasicBlock *>(this)->terminator();
  }
};

/// The loop Nona parallelizes: header..tail with a single backedge.
struct Loop {
  BasicBlock *Preheader = nullptr; ///< runs once (becomes Tinit)
  BasicBlock *Header = nullptr;
  BasicBlock *Tail = nullptr; ///< holds the backedge CondBr
  BasicBlock *Exit = nullptr;
  std::vector<BasicBlock *> Blocks; ///< header..tail, RPO order

  bool contains(const BasicBlock *B) const {
    for (const BasicBlock *L : Blocks)
      if (L == B)
        return true;
    return false;
  }
};

/// A function: a bag of blocks plus its single parallelizable loop.
class Function {
public:
  explicit Function(std::string Name) : Name(std::move(Name)) {}
  Function(const Function &) = delete;
  Function &operator=(const Function &) = delete;

  const std::string &name() const { return Name; }

  BasicBlock *makeBlock(std::string BlockName);

  /// Appends an instruction to \p B; assigns its Id and (if it defines a
  /// value) a fresh ValueId returned via Inst.Def.
  Instruction *emit(BasicBlock *B, Opcode Op, std::vector<ValueId> Uses = {},
                    std::string InstName = "");

  /// Number of SSA values created so far.
  ValueId numValues() const { return NextValue; }
  unsigned numInsts() const { return NextInst; }

  std::vector<std::unique_ptr<BasicBlock>> &blocks() { return Blocks; }
  const std::vector<std::unique_ptr<BasicBlock>> &blocks() const {
    return Blocks;
  }

  /// Looks an instruction up by dense id (linear scan; functions are
  /// small).
  Instruction *instById(unsigned Id) const;

  /// The loop of this function (set by the builder).
  Loop TheLoop;

  /// Adds a CFG edge.
  static void link(BasicBlock *From, BasicBlock *To) {
    From->Succs.push_back(To);
    To->Preds.push_back(From);
  }

  /// Structural checks: SSA single-def, terminator presence, the loop
  /// shape restrictions of Section 4.5.1. Asserts on violation.
  void verify() const;

  /// Human-readable dump (for tests and debugging).
  std::string print() const;

private:
  std::string Name;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
  ValueId NextValue = 0;
  unsigned NextInst = 0;
};

/// Whether \p Op defines a value.
bool definesValue(Opcode Op);

} // namespace parcae::ir

#endif // PARCAE_IR_IR_H
