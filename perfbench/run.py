#!/usr/bin/env python3
"""Build and run the benchmark described by BENCHMARK.json.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim_fpp --seed 1 --seconds 20 --trace 0

It builds perfbench/main.exe from source (release profile, build tree in
.bench_build, no shared dune cache), runs it once and prints its output.
The last line is the result object: correct, attempted, failed, metrics.
It exits non-zero, printing no result, when the checkout cannot be built
or the run fails any of its own checks of the result's shape.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a checkout: dune-project and lib/ are missing")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/main.exe"]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def check_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "unexpected result keys"
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        return "nothing attempted"
    return None


def main(argv):
    args = parse_args(argv)
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail("run failed with exit code %d" % done.returncode)
    problem = check_result(lines[-1])
    if problem:
        fail(problem)
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
