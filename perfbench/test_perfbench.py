#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks, per workload, that
  * two runs with one seed report identical virtual-time outcomes,
  * a traced run reports the same virtual-time outcomes as an untraced one,
  * a held-out seed passes every correctness check and the workload's
    acceptance facts (capacity strictly inside the ladder, exactly the
    dualpipe loop failing, a clean faulted pipeline with its drain,
    detection and checkpoint hop),
and that run.py fails without printing a result when the library sources
are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SEED = 11
HELD_OUT_SEED = 424242


def invoke(binary, workload, seed, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         "0.1", "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    virtual = next(l for l in lines if l.startswith("virtual: "))
    return (out.returncode, json.loads(virtual[len("virtual: "):]),
            json.loads(lines[-1]))


class WorkloadTest(unittest.TestCase):
    binary = None

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def check_repeatable(self, workload):
        rc1, v1, r1 = invoke(self.binary, workload, SEED, 0)
        rc2, v2, _ = invoke(self.binary, workload, SEED, 0)
        rc3, v3, r3 = invoke(self.binary, workload, SEED, 1)
        self.assertEqual((rc1, rc2, rc3), (0, 0, 0))
        self.assertTrue(r1["correct"] and r3["correct"])
        self.assertEqual(v1, v2, "same seed, different virtual outcomes")
        self.assertEqual(v1, v3, "tracing changed the virtual outcomes")

    def held_out(self, workload):
        rc, v, r = invoke(self.binary, workload, HELD_OUT_SEED, 0)
        self.assertEqual(rc, 0)
        self.assertTrue(r["correct"])
        self.assertGreaterEqual(r["attempted"], 1)
        return v, r

    def test_serve_ladder(self):
        self.check_repeatable("serve-ladder")
        v, _ = self.held_out("serve-ladder")
        self.assertGreater(v["max_rate_at_slo"], 500)
        self.assertLess(v["max_rate_at_slo"], 8000)

    def test_nona_suite(self):
        self.check_repeatable("nona-suite")
        _, r = self.held_out("nona-suite")
        self.assertEqual((r["attempted"], r["failed"]), (9, 1))

    def test_pipeline_faults(self):
        self.check_repeatable("pipeline-faults")
        v, r = self.held_out("pipeline-faults")
        self.assertEqual(r["failed"], 0)
        self.assertGreaterEqual(v["morta.drains"], 1)
        self.assertGreaterEqual(v["morta.detections"], 1)
        self.assertGreater(v["checkpoint.bytes"], 0)
        self.assertIn("morta.speculations", v)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.join(run.BUILD, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "nona-suite",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
