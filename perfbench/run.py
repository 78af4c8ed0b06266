#!/usr/bin/env python3
"""Builds the campaign benchmark from source and runs it.

    python3 perfbench/run.py --workload c11-xarch --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is configured and built under
$CARGO_TARGET_DIR (default .bench_build) in the repository, build output
goes to stderr, and every argument except --repeat is passed to the
perfbench binary (see README.md), whose last stdout line is the result
JSON.

Steadiness self-check: --repeat K runs the workload K times with seeds
seed, seed+1, ..., prints each end-to-end metric's median and quartiles,
and flags (exit 1) any metric whose interquartile spread, as a share of
its median, exceeds its bound in BENCHMARK.json (setup_s is reported but
not gated on spread).
"""

import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "Campaign.h")):
        fail(f"no telechat sources under {os.path.join(ROOT, 'src')}; "
             "run from a full checkout")
    if not shutil.which("cmake"):
        fail("cmake is not on PATH")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return build_dir


def run_once(build_dir, args):
    cmd = [os.path.join(build_dir, "perfbench"), *args,
           "--ref-dir", os.path.join(HERE, "reference"),
           "--out-dir", build_dir]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def repeat(build_dir, args, count):
    if "--seed" not in args or args.index("--seed") + 1 >= len(args):
        fail("--repeat needs --seed")
    at = args.index("--seed") + 1
    if not args[at].isdigit():
        fail(f"--seed expects a whole number, got '{args[at]}'")
    first = int(args[at])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for i in range(count):
        args[at] = str(first + i)
        proc = run_once(build_dir, args)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout, end="")
            fail(f"seed {args[at]}: the run failed its verdict gate")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {args[at]}: " + ", ".join(
            f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()))
    flagged = []
    print(f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        mark = ""
        if bound is not None and spread > bound and name != "setup_s":
            mark = "  OVER BOUND"
            flagged.append(name)
        elif bound is not None and spread > bound / 3:
            mark = "  over a third of the bound"
        print(f"{name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.3f} {bound if bound is not None else '-':>6}"
              f"{mark}")
    return 1 if flagged else 0


def main():
    args = sys.argv[1:]
    count = 0
    if "--repeat" in args:
        at = args.index("--repeat")
        if at + 1 >= len(args) or not args[at + 1].isdigit() \
                or int(args[at + 1]) < 2:
            fail("--repeat expects a whole number >= 2")
        count = int(args[at + 1])
        del args[at:at + 2]
    build_dir = build()
    if count:
        sys.exit(repeat(build_dir, args, count))
    proc = run_once(build_dir, args)
    print(proc.stdout, end="")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
