#!/usr/bin/env python3
"""Builds and runs the ppcmm end-to-end benchmark.

Run from the repository root:

  python3 e2ebench/run.py --workload kcompile --seed 1 --seconds 40 --trace 0
  python3 e2ebench/run.py --suite        # every workload, default and held-out seed
  python3 e2ebench/run.py --selftest     # the benchmark's own checks, at small sizes

The simulator and the benchmark binary are built from source (CMake, Release) into
$CARGO_TARGET_DIR/e2ebench, or .bench_build/e2ebench when that is unset. A benchmark run
prints the binary's output unchanged: a metadata JSON line, then the result JSON as the
last line. Exit status is the binary's; 2 when the build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("kcompile", "multiuser", "mmap_storm")
DEFAULT_SEED = 1
# Never used while the benchmark or a change was tuned: a claim made on DEFAULT_SEED must
# also hold here.
HELDOUT_SEED = 9001


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2ebench")


def build():
    """Configures (once) and builds the benchmark binary; returns its path or exits 2."""
    out = build_dir()
    steps = []
    if not any(os.path.exists(os.path.join(out, f)) for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "ppcmm_e2ebench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            sys.stderr.write("e2ebench: build failed: %s\n" % " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, "ppcmm_e2ebench")


def run_one(binary, workload, seed, seconds, trace):
    """Runs one measurement; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def suite(binary, seconds):
    """Runs every workload at the default and held-out seeds and prints a summary table."""
    ok = True
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            code, lines = run_one(binary, workload, seed, seconds, 0)
            if code != 0 or len(lines) < 2:
                ok = False
                print("%s seed=%d FAILED (exit %d)" % (workload, seed, code))
                continue
            meta, result = json.loads(lines[-2]), json.loads(lines[-1])
            ok = ok and result["correct"]
            print("%s seed=%d error_rate=%s reps=%d" % (
                workload, seed, meta["error_rate"], meta["reps"]["untraced"]))
            for name, m in result["metrics"].items():
                print("  %-24s %.6g %s" % (name, m["value"], m["unit"]))
    return 0 if ok else 1


def selftest(binary):
    """Runs the binary's self-test, then checks its metric names against BENCHMARK.json."""
    if subprocess.run([binary, "--selftest"]).returncode != 0:
        return 1
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = run_one(binary, WORKLOADS[0], DEFAULT_SEED, 0, trace)
        got = list(json.loads(lines[-1])["metrics"]) if code == 0 and lines else []
        want = [m["name"] for m in spec[key]]
        if got != want:
            print("selftest FAILED: --trace %d metrics differ from BENCHMARK.json %s" % (
                trace, key))
            print("  only in binary: %s" % sorted(set(got) - set(want)))
            print("  only in BENCHMARK.json: %s" % sorted(set(want) - set(got)))
            return 1
    print("selftest: metric names match BENCHMARK.json")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.suite or args.selftest):
        parser.error("one of --workload, --suite or --selftest is required")

    binary = build()
    if args.selftest:
        return selftest(binary)
    if args.suite:
        return suite(binary, args.seconds)
    code, lines = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
