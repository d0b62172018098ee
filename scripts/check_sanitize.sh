#!/usr/bin/env bash
# check_sanitize.sh — ASan + UBSan flavor of the checkpoint and
# resilience paths.
#
# Configures a second build tree with -DPARCAE_SANITIZE=ON (address +
# undefined, frame pointers kept) and runs under it:
#   * the checkpoint / resilience / serve / chunking / work-source /
#     machine unit suites from parcae_tests — the code that juggles
#     runner teardown with pending quiesce callbacks, in-flight request
#     pointers across a serve drain, cursor arithmetic, and thread-record
#     reuse after a body is released — including the waiter-list
#     compaction test (Machine.UnnotifiedBlockAnyHalfStaysBounded), which
#     dereferences stale entries' thread records, and the TryPullChunk
#     suite, whose counted-source tests run the refill hook and the hold
#     from inside a pull;
#   * the ChunkedPipeline suite and CompiledPerf.ControlledDualPipe*
#     (run with the rest of CompiledPerf, below) — width-clamped cost
#     groups on the dualpipe network, fixed and under in-place and full
#     reconfigurations, whose send buffers and chunk claims cross worker
#     retirement and respawn;
#   * the Nona suites (PdgTest, CompileTest, SemanticsTest, CompiledPerf
#     and Space/NonaSemanticsProperty) — the PDG's recurrence and
#     array-reduction recognizers over edited IR, the compiled tasks'
#     per-iteration engine (runIteration) on every variant, and the
#     reference interpreter that evaluates the IR over dense value slots;
#   * the Controller, Power and Stats suites — the controller's search
#     bound reads a live execution's TaskStats at the end of a scheme's
#     search; the machine reaches its energy meter through a raw pointer
#     that the meter's destructor must clear; and the SLO probe's
#     order-statistics tree (RankedSamples) is erased by key as its
#     window expires;
#   * the PlatformTenants and PlatformDaemon suites — a queued arrival
#     enters the platform daemon, whose onBudget calls back into the
#     serve loop's pump inside the same arrival event, and the daemon
#     reuses its rebalance working sets across those calls;
#   * bench_checkpoint end to end in all three modes (hot restart,
#     warning drain, live serve migration);
#   * bench_resilience end to end (the legacy mixed-fault scenario) plus
#     its --straggler A/B — the per-core rate sensor, rank-based
#     dispatch and the wall-clock cap on dilated slices;
#   * bench_serve --batch end to end — the batched-dispatch A/B, whose
#     watermark attribution and batch reap/drain paths juggle member
#     request pointers inside runner callbacks, and whose warm runners
#     re-enter the serve loop from inside a worker's pull: a refill
#     sheds and finalizes queued requests, appends members and
#     attributes watermarks there, then releases attributed members
#     (the ServeLoop* unit suites above cover the same path). A dry
#     runner steals there too: it moves member request pointers out of
#     a sibling runner's deque into its own and shrinks the sibling's
#     source, all inside its own worker's pull. An idle
#     runner parks there too, and the ServeLoop is destroyed while
#     runners are parked: their workers stay blocked in the Machine on a
#     source that is destroyed with the loop, and the Machine destroys
#     their bodies later, without ever resuming them;
#   * bench_simcore end to end — the event core's in-place handler
#     invocation, slab recycling and heap pops under ASan/UBSan;
#   * bench_serve --trace end to end, with detect_stack_use_after_return
#     — the trace file's metrics dump is written after every simulator
#     is gone, so the recorder must not read a dead simulator's clock.
#
# Any sanitizer report makes the offending binary exit non-zero, which
# fails the script. halt_on_error keeps the first report fatal rather
# than a warning stream.
#
# The build runs at most min(4, nproc) compiles at once: one ASan test TU
# peaks near 0.9 GB, and an unbounded -j starts every ready one together.
#
# Usage: check_sanitize.sh <source-dir> [build-dir]

set -euo pipefail

SRCDIR=${1:?usage: check_sanitize.sh <source-dir> [build-dir]}
BUILDDIR=${2:-$SRCDIR/build-sanitize}

fail() {
  echo "check_sanitize.sh: FAIL: $1" >&2
  exit 1
}

export ASAN_OPTIONS=halt_on_error=1:detect_leaks=0
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1

JOBS=$(nproc 2>/dev/null || echo 1)
JOBS=$((JOBS > 4 ? 4 : JOBS))

build() {
  cmake -B "$BUILDDIR" -S "$SRCDIR" -DPARCAE_SANITIZE=ON >/dev/null &&
    cmake --build "$BUILDDIR" -j "$JOBS" \
      --target parcae_tests bench_checkpoint bench_resilience \
      bench_serve bench_simcore >/dev/null
}

# An interrupted earlier run (e.g. a ctest timeout killing make mid-ar)
# can leave a corrupt incremental tree whose archives look up to date;
# retry once from a clean tree before declaring failure.
if ! build; then
  echo "check_sanitize.sh: incremental build failed; retrying clean" >&2
  rm -rf "$BUILDDIR"
  build || fail "sanitized build failed"
fi

"$BUILDDIR/tests/parcae_tests" \
  --gtest_filter='Checkpoint*:FaultInjection*:ServeLoop*:ChunkPolicy*:QueueWorkSource*:TryPullChunk*:Machine*:ChunkedPipeline*:PdgTest*:CompileTest*:SemanticsTest*:CompiledPerf*:Space/NonaSemanticsProperty*:Controller*:Power*:Stats*:PlatformTenants*:PlatformDaemon*' \
  --gtest_brief=1 ||
  fail "unit suites reported a failure (or a sanitizer fired)"

"$BUILDDIR/bench/bench_checkpoint" --seed 42 >/dev/null ||
  fail "bench_checkpoint (migrate) failed under sanitizers"
"$BUILDDIR/bench/bench_checkpoint" --seed 42 --drain >/dev/null ||
  fail "bench_checkpoint --drain failed under sanitizers"
"$BUILDDIR/bench/bench_checkpoint" --seed 42 --serve >/dev/null ||
  fail "bench_checkpoint --serve failed under sanitizers"
"$BUILDDIR/bench/bench_resilience" --seed 42 >/dev/null ||
  fail "bench_resilience failed under sanitizers"
"$BUILDDIR/bench/bench_resilience" --seed 42 --straggler >/dev/null ||
  fail "bench_resilience --straggler failed under sanitizers"
"$BUILDDIR/bench/bench_serve" --seed 42 --batch >/dev/null ||
  fail "bench_serve --batch failed under sanitizers"
"$BUILDDIR/bench/bench_simcore" --events 100000 >/dev/null ||
  fail "bench_simcore failed under sanitizers"
ASAN_OPTIONS=$ASAN_OPTIONS:detect_stack_use_after_return=1 \
  "$BUILDDIR/bench/bench_serve" --seed 42 --trace "$BUILDDIR/san.json" \
  >/dev/null || fail "traced bench_serve failed under sanitizers"

echo "check_sanitize.sh: OK ($BUILDDIR)"
