#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Run from the root of a checkout. It runs the perfbench unit tests (oracle
tampering, open-loop lateness, statistics), then a tiny-size smoke run of
every workload, untraced and traced, checking that the result line has
exactly the keys correct, attempted, failed and metrics, that the run
graded correct, and
that every metric of BENCHMARK.json is reported with its unit. Last, it
checks that the benchmark fails, printing no result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def fail(msg):
    sys.exit(f"selftest: FAIL: {msg}")


def smoke(bench, workload, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "3", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(last)}")
    if last["correct"] is not True or last["failed"] != 0 or last["attempted"] < 1:
        fail(f"{workload} trace={trace}: {last}")
    declared = bench["per_layer" if trace else "end_to_end"]
    got = {k: v["unit"] for k, v in last["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        fail(f"{workload} trace={trace}: metrics {got} != declared {want}")
    for name, m in last["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail(f"{workload}: {name} is not a number")
    print(f"selftest: ok {workload} trace={trace} ({last['attempted']} ops)")


def bare_directory_fails():
    bare = os.path.join(ROOT, ".bench_runs", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("target", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "cold-paper",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("selftest: ok bare directory fails without a result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    unit = subprocess.run(
        ["cargo", "test", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT,
        env=dict(os.environ, CARGO_TARGET_DIR=os.environ.get(
            "CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))),
    )
    if unit.returncode != 0:
        fail("perfbench unit tests")
    for w in bench["workloads"]:
        for trace in (0, 1):
            smoke(bench, w["name"], trace)
    bare_directory_fails()
    print("selftest: all passed")


if __name__ == "__main__":
    main()
