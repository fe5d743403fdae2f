#!/usr/bin/env python3
"""SPOT benchmark entry point.

One run (what BENCHMARK.json's command executes):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the library and the benchmark binary from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) when needed,
then runs one workload; the binary's last stdout line is the JSON result.

Steadiness mode:

    python3 perfbench/run.py --steady 10 --workload NAME [--seconds S]
                             [--first-seed K]

runs the workload untraced on seeds K..K+N-1, prints each end-to-end
metric's median, quartiles and spread ((q3 - q1) / median) against its
bound from BENCHMARK.json, then one traced run on seed K and the tracing
overhead (traced vs untraced figure of that seed).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr) != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(build_dir, "perfbench")


def run_once(binary, workload, seed, seconds, trace, echo):
    """Runs the binary once; returns (exit code, parsed result or None)."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stdout


def steady(binary, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    shares = set()
    for i in range(args.steady):
        seed = args.first_seed + i
        code, result, _ = run_once(binary, args.workload, seed, seconds, 0,
                                   False)
        if code != 0 or result is None or not result["correct"]:
            sys.exit("perfbench: run with seed %d failed (exit %d)"
                     % (seed, code))
        shares.add((result["failed"], result["attempted"] and
                    result["failed"] / result["attempted"]))
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"])
            for k, v in result["metrics"].items())), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print("\n%-16s %14s %14s %14s %8s %6s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "spread<bound/3"))
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name, 0.0)
        print("%-16s %14.6g %14.6g %14.6g %8.4f %6.3f  %s" % (
            name, med, q1, q3, spread, bound,
            "yes" if spread < bound / 3 else "NO"))
    print("failed shares seen: %s" % sorted(shares))
    code, traced, text = run_once(binary, args.workload, args.first_seed,
                                  seconds, 1, False)
    if code != 0 or traced is None:
        sys.exit("perfbench: traced run failed (exit %d)" % code)
    print("\ntracing overhead on seed %d (traced vs untraced):"
          % args.first_seed)
    for line in text.splitlines():
        if not line.startswith("e2e (traced) "):
            continue
        name, value = line.split()[2], float(line.split()[3])
        base = values[name][0]
        print("  %-16s %14.6g vs %14.6g  %+.2f%%" % (
            name, value, base, 100.0 * (value - base) / base if base else 0))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    binary = build()
    if args.steady:
        steady(binary, args)
        return 0
    seconds = args.seconds if args.seconds else 10
    code, _, _ = run_once(binary, args.workload, args.seed, seconds,
                          args.trace, True)
    return code


if __name__ == "__main__":
    sys.exit(main())
