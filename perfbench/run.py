#!/usr/bin/env python3
"""Entry point of the fdgm benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Builds the simulator and the benchmark
binary from source into .bench_build/perfbench (Release), then runs one
workload and passes its output through: the last line of standard output
is the JSON result.  Build output goes to standard error.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "fdgm_perf"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"simulator sources not found under {ROOT}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", 1)


def tree_digest():
    """sha256 over the simulator and benchmark sources: identifies the code
    measured even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += [p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else "none"


def run_benchmark(args):
    build(["fdgm_perf"])
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--tree", tree_digest(),
           "--out-dir", str(BUILD / "trace")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                              cwd=ROOT, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"benchmark exited with {done.returncode}", 1)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark printed no JSON result", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed JSON result", 1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


def self_test():
    build(["fdgm_perf", "checker_test"])
    ctest = subprocess.run(["ctest", "--output-on-failure"], cwd=BUILD, check=False)
    env = dict(os.environ, FDGM_PERF_BIN=str(BINARY))
    unit = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                           str(HERE / "tests"), "-p", "test_*.py", "-v"],
                          env=env, check=False)
    sys.exit(0 if ctest.returncode == 0 and unit.returncode == 0 else 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if args.self_test:
        self_test()
    if not args.workload:
        ap.error("--workload is required")
    run_benchmark(args)


if __name__ == "__main__":
    main()
