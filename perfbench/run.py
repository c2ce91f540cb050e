#!/usr/bin/env python3
"""Build the product and the benchmark binary, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The `ofence` binary is built from the
repository's own workspace and `perfbench` from `perfbench/Cargo.toml`,
both in release mode into `$CARGO_TARGET_DIR` (default `.bench_build`).
Build output goes to standard error; the benchmark's result is the last
line of standard output. Exits non-zero, printing no result, when the
checkout has no sources to build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args, cwd):
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        cwd=cwd,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if proc.returncode != 0:
        sys.exit("perfbench: build failed: cargo build " + " ".join(args))


def main():
    for needed in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} not found; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    build(["-p", "ofence-cli", "--bin", "ofence"], ROOT)
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], ROOT)
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "perfbench"), "--ofence", os.path.join(release, "ofence")]
    proc = subprocess.run(bench + sys.argv[1:], cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
