#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload sssp-dense|sssp-sparse|des \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark binary is configured and
built with CMake under $CARGO_TARGET_DIR (default .bench_build) on every
call; an up-to-date build costs a second.  Build output goes to stderr.
The binary's stdout is passed through: its last line is the result
object {"correct", "attempted", "failed", "metrics"}.  A traced run also
writes its spans to <build>/traces/<workload>-seed<N>.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("sssp-dense", "sssp-sparse", "des")


def fail(msg: str, code: int = 2) -> "None":
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_checked(cmd, what: str) -> None:
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"{what} failed (exit {proc.returncode})", 3)


def build(build_dir: Path) -> Path:
    if not (ROOT / "include" / "kps" / "core" / "storage_registry.hpp").is_file():
        fail("kps headers not found under include/kps: run from a full "
             "checkout of the repository")
    cache = build_dir / "CMakeCache.txt"
    if not cache.is_file():
        run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release", "-DBUILD_TESTING=OFF"],
                    "cmake configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", str(build_dir), "--target", "perfbench",
                 "-j", jobs], "cmake build")
    binary = build_dir / "perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}", 3)
    return binary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    binary = build(target / "perfbench")

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = target / "perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]

    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited {proc.returncode} without a result", 4)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark's last line is not JSON", 4)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark's result has the wrong keys", 4)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
