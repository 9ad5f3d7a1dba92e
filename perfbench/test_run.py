#!/usr/bin/env python3
"""End-to-end tests of run.py at the benchmark's own sizes, one second each.

Run from the root of a checkout:

    python3 perfbench/test_run.py

Checks that every workload's output parses, names exactly the metrics
BENCHMARK.json declares, with their units, and that the metrics each
workload exists to measure are not zero; that every workload's allocation
counts repeat exactly across two runs of one seed; and that run.py fails
without a result outside a checkout.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

RUN = [sys.executable, os.path.join("perfbench", "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open("BENCHMARK.json") as f:
    SPEC = json.load(f)

# Per-layer metrics that must be non-zero on the workload that exercises
# their layer (README.md, "Metric map").
EXERCISED = {
    "sim_fpp": ["sim.run_s", "sim.self_s", "sim.steps", "posix.call_s",
                "posix.write_us", "posix.calls", "fs.opens", "md.ops",
                "trace.encode_s", "trace.bytes_per_record", "core.resolve_s",
                "gc.sim.major_words", "gc.encode.major_words"],
    "paper_validate": ["sim.run_s", "fs.lock.acquisitions",
                       "fs.lock.revocations", "trace.records.posix",
                       "trace.records.mpiio", "trace.records.hdf5",
                       "core.overlap_s", "core.conflicts_s", "core.accesses",
                       "core.overlap_pairs", "apps.validate_s",
                       "apps.job_p50_ms", "apps.job_max_ms",
                       "gc.validate.major_words"],
    "analyze_stream": ["trace.decode_s", "trace.decode_records_per_s",
                       "core.stream.feed_s", "core.stream.finish_s",
                       "core.stream.bytes_per_access", "core.stream.accesses",
                       "gc.stream.major_words"],
    "staged_ckpt": ["bb.staged_bytes", "bb.drained_bytes", "bb.drain_ratio",
                    "wal.appended_bytes", "wal.drained_bytes",
                    "wal.recovered_bytes", "fault.crash_report_s",
                    "fault.crashes", "fault.restarts", "apps.digest_s",
                    "gc.staged.major_words"],
}


def run(workload, trace, seed=7):
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


class Output(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(d["name"] for d in declared))
        for d in declared:
            self.assertRegex(d["name"], NAME)
            self.assertEqual(metrics[d["name"]]["unit"], d["unit"])
            self.assertIsInstance(metrics[d["name"]]["value"], (int, float))
        return metrics

    def test_every_workload(self):
        for w in SPEC["workloads"]:
            name = w["name"]
            with self.subTest(workload=name):
                e2e = self.check_metrics(run(name, 0), SPEC["end_to_end"])
                for d in SPEC["end_to_end"]:
                    self.assertGreater(e2e[d["name"]]["value"], 0, d["name"])
                layers = self.check_metrics(run(name, 1), SPEC["per_layer"])
                for m in EXERCISED[name]:
                    self.assertGreater(layers[m]["value"], 0, m)

    def test_allocation_repeats(self):
        for name in EXERCISED:
            with self.subTest(workload=name):
                a, b = (run(name, 0, seed=11)["metrics"] for _ in range(2))
                for m in ("alloc_words_per_record", "major_words_per_record"):
                    self.assertEqual(a[m]["value"], b[m]["value"], m)


class Refusal(unittest.TestCase):
    def test_fails_outside_a_checkout(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy("BENCHMARK.json", d)
            shutil.copytree("perfbench", os.path.join(d, "perfbench"))
            done = subprocess.run(
                RUN + ["--workload", "sim_fpp", "--seed", "1", "--seconds", "1",
                       "--trace", "0"],
                cwd=d, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")

    def test_refuses_scheduler_settings(self):
        env = dict(os.environ, HPCFS_DOMAINS="2")
        done = subprocess.run(
            RUN + ["--workload", "sim_fpp", "--seed", "1", "--seconds", "1",
                   "--trace", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
