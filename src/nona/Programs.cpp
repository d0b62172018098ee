//===- Programs.cpp - Nona benchmark loop suite ------------------------------===//

#include "nona/Programs.h"

using namespace parcae::ir;
namespace sim = parcae::sim;

namespace {

/// Builds the canonical counted-loop skeleton of Section 4.5.1:
/// pre -> header(phis + body) [-> extra blocks] -> tail -> {header, exit}.
struct LoopBuilder {
  Function &F;
  BasicBlock *Pre, *Header, *Tail, *Exit;
  Instruction *IVPhi = nullptr;
  Instruction *IVNext = nullptr;
  ValueId Zero = NoValue, One = NoValue, Bound = NoValue;

  LoopBuilder(Function &F, std::int64_t TripCount) : F(F) {
    Pre = F.makeBlock("pre");
    Header = F.makeBlock("header");
    Tail = F.makeBlock("tail");
    Exit = F.makeBlock("exit");

    Instruction *C0 = F.emit(Pre, Opcode::Const, {}, "zero");
    C0->Imm = 0;
    Instruction *C1 = F.emit(Pre, Opcode::Const, {}, "one");
    C1->Imm = 1;
    Instruction *CN = F.emit(Pre, Opcode::Const, {}, "bound");
    CN->Imm = TripCount;
    Zero = C0->Def;
    One = C1->Def;
    Bound = CN->Def;

    IVPhi = F.emit(Header, Opcode::Phi, {}, "iv");
  }

  /// Emits a preheader constant (a loop live-in).
  ValueId constant(std::int64_t V, std::string Name = "c") {
    Instruction *C = F.emit(Pre, Opcode::Const, {}, std::move(Name));
    C->Imm = V;
    return C->Def;
  }

  /// Finishes the skeleton. \p MidBlocks are body blocks between the
  /// header and the tail (already linked among themselves by the caller;
  /// the builder links header -> first and last -> tail).
  void finish(std::vector<BasicBlock *> MidBlocks = {}) {
    F.emit(Pre, Opcode::Br);
    Function::link(Pre, Header);

    if (MidBlocks.empty()) {
      F.emit(Header, Opcode::Br);
      Function::link(Header, Tail);
    }

    IVNext = F.emit(Tail, Opcode::Add, {IVPhi->Def, One}, "iv.next");
    Instruction *Cmp =
        F.emit(Tail, Opcode::CmpLt, {IVNext->Def, Bound}, "exit.cond");
    F.emit(Tail, Opcode::CondBr, {Cmp->Def});
    Function::link(Tail, Header);
    Function::link(Tail, Exit);
    F.emit(Exit, Opcode::Ret);

    IVPhi->Uses = {Zero, IVNext->Def};

    Loop &L = F.TheLoop;
    L.Preheader = Pre;
    L.Header = Header;
    L.Tail = Tail;
    L.Exit = Exit;
    L.Blocks = {Header};
    for (BasicBlock *B : MidBlocks)
      L.Blocks.push_back(B);
    L.Blocks.push_back(Tail);
  }
};

Instruction *call(Function &F, BasicBlock *B, std::int64_t Callee,
                  std::vector<ValueId> Args, sim::SimTime Latency,
                  std::string Name) {
  Instruction *I = F.emit(B, Opcode::Call, std::move(Args), std::move(Name));
  I->Imm = Callee;
  I->Latency = Latency;
  return I;
}

} // namespace

LoopProgram parcae::ir::makeVecsum(std::uint64_t N) {
  LoopProgram P;
  P.Name = "vecsum";
  P.TripCount = N;
  P.F = std::make_unique<Function>("vecsum");
  Function &F = *P.F;
  LoopBuilder B(F, static_cast<std::int64_t>(N));

  Instruction *SumPhi = F.emit(B.Header, Opcode::Phi, {}, "sum");
  Instruction *X = call(F, B.Header, 7, {B.IVPhi->Def}, 2000, "gen");
  Instruction *SumNext =
      F.emit(B.Header, Opcode::Add, {SumPhi->Def, X->Def}, "sum.next");
  SumPhi->Uses = {B.Zero, SumNext->Def};
  B.finish();
  P.ReductionPhis = {SumPhi->Id};
  return P;
}

LoopProgram parcae::ir::makeSaxpy(std::uint64_t N) {
  LoopProgram P;
  P.Name = "saxpy";
  P.TripCount = N;
  P.F = std::make_unique<Function>("saxpy");
  Function &F = *P.F;
  LoopBuilder B(F, static_cast<std::int64_t>(N));
  ValueId A = B.constant(3, "a");

  Instruction *X = call(F, B.Header, 11, {B.IVPhi->Def}, 1200, "x");
  Instruction *Y = F.emit(B.Header, Opcode::Mul, {X->Def, A}, "y");
  Instruction *St =
      F.emit(B.Header, Opcode::Store, {B.IVPhi->Def, Y->Def}, "out");
  St->MemObject = 1;
  St->Latency = 300;
  B.finish();
  P.AA.setClass(1, MemClass::IterationPrivate);
  return P;
}

LoopProgram parcae::ir::makeHistogram(std::uint64_t N, std::int64_t Bins) {
  LoopProgram P;
  P.Name = "histogram";
  P.TripCount = N;
  P.F = std::make_unique<Function>("histogram");
  Function &F = *P.F;
  LoopBuilder B(F, static_cast<std::int64_t>(N));
  ValueId BinsV = B.constant(Bins, "bins");

  Instruction *H = call(F, B.Header, 13, {B.IVPhi->Def}, 900, "hash");
  Instruction *Bin =
      F.emit(B.Header, Opcode::Mod, {H->Def, BinsV}, "bin");
  Instruction *Old = F.emit(B.Header, Opcode::Load, {Bin->Def}, "old");
  Old->MemObject = 2;
  Old->Latency = 250;
  Old->Commutative = true;
  Instruction *Inc =
      F.emit(B.Header, Opcode::Add, {Old->Def, B.One}, "inc");
  Instruction *St =
      F.emit(B.Header, Opcode::Store, {Bin->Def, Inc->Def}, "newbin");
  St->MemObject = 2;
  St->Latency = 250;
  St->Commutative = true;
  B.finish();
  // The bins are shared; commutativity annotations make the updates
  // DOANY-able (Section 4.3.1). The update is an array reduction over
  // Bins entries, so Nona privatizes it instead of locking (Section 7.4).
  P.AA.setClass(2, MemClass::Shared);
  return P;
}

LoopProgram parcae::ir::makeMonteCarlo(std::uint64_t N) {
  LoopProgram P;
  P.Name = "montecarlo";
  P.TripCount = N;
  P.F = std::make_unique<Function>("montecarlo");
  Function &F = *P.F;
  LoopBuilder B(F, static_cast<std::int64_t>(N));

  // rand(): stateful, annotated commutative (the paper's canonical
  // commutativity example).
  Instruction *R = call(F, B.Header, 17, {B.IVPhi->Def}, 400, "rand");
  R->MemObject = 5;
  R->Commutative = true;
  Instruction *Pay = call(F, B.Header, 19, {R->Def}, 15000, "payoff");
  Instruction *SumPhi = F.emit(B.Header, Opcode::Phi, {}, "sum");
  Instruction *SumNext =
      F.emit(B.Header, Opcode::Add, {SumPhi->Def, Pay->Def}, "sum.next");
  SumPhi->Uses = {B.Zero, SumNext->Def};
  B.finish();
  P.AA.setClass(5, MemClass::Shared);
  P.ReductionPhis = {SumPhi->Id};
  return P;
}

LoopProgram parcae::ir::makeChase(std::uint64_t N) {
  LoopProgram P;
  P.Name = "chase";
  P.TripCount = N;
  P.F = std::make_unique<Function>("chase");
  Function &F = *P.F;
  LoopBuilder B(F, static_cast<std::int64_t>(N));
  ValueId Start = B.constant(123, "start");

  // The traversal: a loop-carried value chain through an opaque call —
  // a sequential SCC (the paper's "complex dependency patterns").
  Instruction *Ptr = F.emit(B.Header, Opcode::Phi, {}, "ptr");
  Instruction *Next = call(F, B.Header, 23, {Ptr->Def}, 600, "next");
  Ptr->Uses = {Start, Next->Def};
  // The payload: heavy, independent per node.
  Instruction *W = call(F, B.Header, 29, {Ptr->Def}, 20000, "work");
  Instruction *St =
      F.emit(B.Header, Opcode::Store, {B.IVPhi->Def, W->Def}, "out");
  St->MemObject = 3;
  St->Latency = 200;
  B.finish();
  P.AA.setClass(3, MemClass::IterationPrivate);
  return P;
}

LoopProgram parcae::ir::makeBranchy(std::uint64_t N) {
  LoopProgram P;
  P.Name = "branchy";
  P.TripCount = N;
  P.F = std::make_unique<Function>("branchy");
  Function &F = *P.F;
  LoopBuilder B(F, static_cast<std::int64_t>(N));
  ValueId Half = B.constant(500000, "half");

  BasicBlock *Then = F.makeBlock("then");
  BasicBlock *Else = F.makeBlock("else");
  BasicBlock *Join = F.makeBlock("join");

  Instruction *S = call(F, B.Header, 31, {B.IVPhi->Def}, 500, "s");
  Instruction *C =
      F.emit(B.Header, Opcode::CmpLt, {S->Def, Half}, "is.small");
  F.emit(B.Header, Opcode::CondBr, {C->Def});
  Function::link(B.Header, Then);
  Function::link(B.Header, Else);

  Instruction *T1 = call(F, Then, 37, {S->Def}, 30000, "f.heavy");
  Instruction *St1 =
      F.emit(Then, Opcode::Store, {B.IVPhi->Def, T1->Def}, "out.heavy");
  St1->MemObject = 4;
  St1->Latency = 200;
  F.emit(Then, Opcode::Br);
  Function::link(Then, Join);

  Instruction *T2 = call(F, Else, 41, {S->Def}, 6000, "f.light");
  Instruction *St2 =
      F.emit(Else, Opcode::Store, {B.IVPhi->Def, T2->Def}, "out.light");
  St2->MemObject = 6;
  St2->Latency = 200;
  F.emit(Else, Opcode::Br);
  Function::link(Else, Join);

  F.emit(Join, Opcode::Br);
  Function::link(Join, B.Tail);

  B.finish({Then, Else, Join});
  P.AA.setClass(4, MemClass::IterationPrivate);
  P.AA.setClass(6, MemClass::IterationPrivate);
  return P;
}

LoopProgram parcae::ir::makeSeqchain(std::uint64_t N) {
  LoopProgram P;
  P.Name = "seqchain";
  P.TripCount = N;
  P.F = std::make_unique<Function>("seqchain");
  Function &F = *P.F;
  LoopBuilder B(F, static_cast<std::int64_t>(N));
  ValueId Seed = B.constant(99, "seed");

  Instruction *Acc = F.emit(B.Header, Opcode::Phi, {}, "acc");
  Instruction *Nx = call(F, B.Header, 43, {Acc->Def}, 8000, "f");
  Acc->Uses = {Seed, Nx->Def};
  Instruction *St =
      F.emit(B.Header, Opcode::Store, {B.IVPhi->Def, Nx->Def}, "trace");
  St->MemObject = 8;
  St->Latency = 150;
  B.finish();
  P.AA.setClass(8, MemClass::IterationPrivate);
  return P;
}

LoopProgram parcae::ir::makeMinMax(std::uint64_t N) {
  LoopProgram P;
  P.Name = "minmax";
  P.TripCount = N;
  P.F = std::make_unique<Function>("minmax");
  Function &F = *P.F;
  LoopBuilder B(F, static_cast<std::int64_t>(N));
  ValueId LoInit = B.constant(1000000000, "lo.init");
  ValueId HiInit = B.constant(-1000000000, "hi.init");

  Instruction *X = call(F, B.Header, 47, {B.IVPhi->Def}, 5000, "gen");
  Instruction *LoPhi = F.emit(B.Header, Opcode::Phi, {}, "lo");
  Instruction *LoNext =
      F.emit(B.Header, Opcode::Min, {LoPhi->Def, X->Def}, "lo.next");
  LoPhi->Uses = {LoInit, LoNext->Def};
  Instruction *HiPhi = F.emit(B.Header, Opcode::Phi, {}, "hi");
  Instruction *HiNext =
      F.emit(B.Header, Opcode::Max, {HiPhi->Def, X->Def}, "hi.next");
  HiPhi->Uses = {HiInit, HiNext->Def};
  B.finish();
  P.ReductionPhis = {LoPhi->Id, HiPhi->Id};
  return P;
}

LoopProgram parcae::ir::makeDualPipe(std::uint64_t N) {
  LoopProgram P;
  P.Name = "dualpipe";
  P.TripCount = N;
  P.F = std::make_unique<Function>("dualpipe");
  Function &F = *P.F;
  LoopBuilder B(F, static_cast<std::int64_t>(N));
  ValueId Seed1 = B.constant(5, "seed1");
  ValueId Seed2 = B.constant(9, "seed2");

  // S1: a carried chain (token source).
  Instruction *C1 = F.emit(B.Header, Opcode::Phi, {}, "c1");
  Instruction *N1 = call(F, B.Header, 53, {C1->Def}, 800, "chain1");
  C1->Uses = {Seed1, N1->Def};
  // P1: heavy kernel on the chain value.
  Instruction *W1 = call(F, B.Header, 59, {C1->Def}, 25000, "work1");
  // S2: a second carried chain consuming P1's output.
  Instruction *C2 = F.emit(B.Header, Opcode::Phi, {}, "c2");
  Instruction *N2 =
      call(F, B.Header, 61, {C2->Def, W1->Def}, 900, "chain2");
  C2->Uses = {Seed2, N2->Def};
  // P2: second heavy kernel.
  Instruction *W2 = call(F, B.Header, 67, {N2->Def}, 22000, "work2");
  // S3 equivalent: an ordered store trace would be IterationPrivate and
  // parallel; use a third carried chain as the ordered sink.
  Instruction *St =
      F.emit(B.Header, Opcode::Store, {B.IVPhi->Def, W2->Def}, "out");
  St->MemObject = 9;
  St->Latency = 200;
  B.finish();
  P.AA.setClass(9, MemClass::IterationPrivate);
  return P;
}

std::vector<std::function<LoopProgram()>>
parcae::ir::benchmarkSuite(std::uint64_t N) {
  return {
      [N] { return makeVecsum(N); },
      [N] { return makeSaxpy(N); },
      [N] { return makeHistogram(N, 64); },
      [N] { return makeMonteCarlo(N); },
      [N] { return makeChase(N); },
      [N] { return makeBranchy(N); },
      [N] { return makeSeqchain(N); },
      [N] { return makeMinMax(N); },
      [N] { return makeDualPipe(N); },
  };
}
