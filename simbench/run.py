#!/usr/bin/env python3
"""Builds the serving-simulator benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 simbench/run.py --workload long_horizon --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR/simbench (default .bench_build/simbench),
relative to the checkout root unless absolute; its log goes to stderr. The
benchmark's own report, ending in one JSON line, goes to stdout. With
--trace 1, per-request sim-time spans are written next to the binary as
spans-<workload>-<seed>.jsonl.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("long_horizon", "decode_unshared", "chaos_pd")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("simbench: %s has no src/; run from a full checkout" % root, file=sys.stderr)
        return 2

    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "simbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    for cmd in (["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build, "-j", jobs, "--target", "simbench"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("simbench: build failed: %s" % " ".join(cmd), file=sys.stderr)
            return 2

    cmd = [os.path.join(build, "simbench"), "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%d" % args.seconds, "--trace=%d" % args.trace]
    if args.trace:
        cmd.append("--spans-out=" + os.path.join(
            build, "spans-%s-%d.jsonl" % (args.workload, args.seed)))
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
