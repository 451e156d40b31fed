#!/usr/bin/env python3
"""End-to-end benchmark of the gated clock router (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload route_flat --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest      # the harness's own helper tests

Builds the library and the harness from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, and passes the harness's result through: the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. Build output goes to standard error. The exit code is
the harness's: 0 when every operation succeeded and checked correct.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("route_flat", "eco_stream", "serve_mixed")
RUN_TIMEOUT_S = 175


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build(target):
    """Configure once, then build `target`; False when either step fails."""
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        if not build("perfbench_selftest"):
            return 2
        return subprocess.run([os.path.join(build_dir(), "perfbench_selftest")]).returncode
    if args.workload is None:
        ap.error("--workload is required")
    if not build("perfbench_harness"):
        return 2
    cmd = [os.path.join(build_dir(), "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(build_dir(), "work")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the harness by now.
        print("perfbench: %s exceeded %d s" % (args.workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
