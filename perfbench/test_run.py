#!/usr/bin/env python3
"""The benchmark's own test: planted faults must be counted as failed
operations, never abort the run, and never pass.

    python3 perfbench/test_run.py          # from the root of a checkout

The end-to-end cases build and run the real benchmark (about two minutes
once built).
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def bench(*args):
    """Runs run.py; returns (exit code, parsed last stdout line)."""
    done = subprocess.run([sys.executable, str(run.HERE / "run.py"), *args],
                          cwd=run.ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


class CompareOutputs(unittest.TestCase):
    """The sweep's byte-compare, on copies of the committed results."""

    def setUp(self):
        self.dir = run.OUT / "test-copies"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        for fig in run.SWEEP_FIGURES:
            for suffix in (".txt", ".data.json"):
                shutil.copy(run.ROOT / "results" / (fig + suffix), self.dir)

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def test_identical_copies_pass(self):
        attempted, failures = run.compare_outputs(self.dir, run.SWEEP_FIGURES)
        self.assertEqual((attempted, failures), (len(run.SWEEP_FIGURES), []))

    def test_corrupted_sidecar_is_one_failed_operation(self):
        victim = self.dir / (run.SWEEP_FIGURES[2] + ".data.json")
        data = bytearray(victim.read_bytes())
        data[-2] ^= 0x01
        victim.write_bytes(bytes(data))
        attempted, failures = run.compare_outputs(self.dir, run.SWEEP_FIGURES)
        self.assertEqual(attempted, len(run.SWEEP_FIGURES))
        self.assertEqual(len(failures), 1)
        self.assertIn(run.SWEEP_FIGURES[2], failures[0])

    def test_missing_output_is_one_failed_operation(self):
        (self.dir / (run.SWEEP_FIGURES[0] + ".txt")).unlink()
        _, failures = run.compare_outputs(self.dir, run.SWEEP_FIGURES)
        self.assertEqual(len(failures), 1)


class PlantedFaults(unittest.TestCase):
    """Faults planted into real runs are counted and the run completes."""

    def test_fingerprint_mismatch_is_counted(self):
        code, result = bench("--workload", "frontend_1c", "--seed", "3",
                             "--seconds", "1", "--trace", "0",
                             "--plant", "fingerprint")
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], result["failed"])
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))

    def test_corrupted_sweep_sidecar_is_counted(self):
        code, result = bench("--workload", "sweep", "--seed", "1",
                             "--seconds", "1", "--trace", "0",
                             "--plant", "sidecar")
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))


if __name__ == "__main__":
    unittest.main()
