//===- compile_loop.cpp - Driving the Nona compiler ---------------------------===//
//
// Builds a loop in Nona's IR, compiles it (PDG, DOANY, PS-DSWP, MTCG,
// flexible code generation), prints the compilation report and the
// parallelism-inhibiting dependencies, then executes the loop under the
// Morta run-time controller and checks the results against the
// sequential reference interpretation.
//
// Run: ./build/examples/example_compile_loop
//
//===----------------------------------------------------------------------===//

#include "nona/Programs.h"
#include "nona/Run.h"

#include <cstdio>

using namespace parcae;
using namespace parcae::ir;
namespace rt = parcae::rt;
namespace sim = parcae::sim;

int main() {
  // A Monte-Carlo pricing loop: rand() is annotated commutative (the
  // paper's canonical example), the sum is a recognized reduction.
  LoopProgram P = makeMonteCarlo(200000);
  std::printf("-- input IR --------------------------------------------\n");
  std::printf("%s\n", P.F->print().c_str());

  CompiledLoop CL(*P.F, P.AA, P.TripCount);
  std::printf("-- compilation -----------------------------------------\n");
  std::printf("%s", CL.report().c_str());
  for (const PDGEdge &E : CL.pdg().inhibitors())
    std::printf("  inhibitor: %%%u -> %%%u (%s)\n", E.From, E.To,
                E.Kind == DepKind::Mem ? "memory"
                : E.Kind == DepKind::Reg ? "register"
                                         : "control");

  std::printf("\n-- execution under the Morta controller ----------------\n");
  ControlledRunResult R = runControlled(CL, /*Budget=*/8);
  std::printf("completed: %s in %.3f s\n", R.Completed ? "yes" : "no",
              sim::toSeconds(R.Time));
  std::printf("chosen configuration: %s (%.1fx over sequential)\n",
              R.Final.str().c_str(), R.BestThroughput / R.SeqThroughput);

  // Semantics check against the reference interpreter.
  LoopProgram Ref = makeMonteCarlo(200000);
  std::map<unsigned, std::int64_t> Reds;
  Memory RefMem = CompiledLoop::interpret(*Ref.F, Ref.TripCount, &Reds);
  bool Ok = CL.memory() == RefMem;
  for (unsigned Phi : P.ReductionPhis)
    Ok = Ok && CL.reductionValue(Phi) == Reds.at(Phi);
  std::printf("semantics vs sequential reference: %s\n",
              Ok ? "IDENTICAL" : "MISMATCH");
  return Ok ? 0 : 1;
}
