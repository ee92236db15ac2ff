#!/usr/bin/env python3
"""Builds and runs the EdgeNN wall-clock benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <tiny-stream|paper-batch|serve-open> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release profile, offline) into
$CARGO_TARGET_DIR, or perfbench/target when that is unset, then runs
it. The last line of standard output is the run's JSON result; the full
run record (host fingerprint, noise, per-node table, spans) is written
to <target>/perfbench-runs/<workload>-seed<n>-trace<t>.json.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    target = os.path.join(ROOT, target)  # a relative target dir is relative to the root
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    opts = dict(zip(argv[::2], argv[1::2]))
    name = "{}-seed{}-trace{}.json".format(
        opts.get("--workload", "x"), opts.get("--seed", "x"), opts.get("--trace", "x"))
    out = os.path.join(target, "perfbench-runs", name)
    binary = os.path.join(target, "release", "edgenn-perfbench")
    return subprocess.run([binary, *argv, "--out", out], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
