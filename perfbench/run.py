#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload weak32 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
library and the benchmark into .bench_build/perfbench (CMake, Ninja when
installed); later runs only rebuild what changed. The benchmark's output is
printed once it has finished; the last line is the JSON result. Exits non-zero,
without a result line, when the build fails, the sources are missing, or the
benchmark does not finish cleanly.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; returns the build directory or None."""
    if not (ROOT / "src").is_dir():
        log(f"no library sources at {ROOT / 'src'}: run from a full checkout")
        return None
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    done = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S)
    return BUILD if done.returncode == 0 else None


def run_binary(cmd):
    """Run to completion; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
        return 1, []
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    """The JSON result from the last line, or None when it is malformed."""
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(res, dict) or set(res) != RESULT_KEYS:
        return None
    return res


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def self_test(bindir):
    """Helper unit tests, then a tiny run of every workload in both modes
    whose result line must carry exactly the metrics BENCHMARK.json declares."""
    ok = subprocess.run([str(bindir / "perfbench_selftest")], timeout=RUN_TIMEOUT_S).returncode == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, lines = run_binary([str(bindir / "perfbench"), "--workload", wl, "--seed", "3",
                                      "--seconds", "1", "--trace", str(trace), "--tiny"])
            res = parse_result(lines) if code == 0 else None
            want = declared_metrics(trace)
            good = (res is not None and res["correct"] and res["failed"] == 0
                    and {k: v["unit"] for k, v in res["metrics"].items()} == want)
            if res is not None and not good:
                got = set(res["metrics"])
                log(f"missing {sorted(set(want) - got)}, undeclared {sorted(got - set(want))}")
            print(f"{'ok  ' if good else 'FAIL'} tiny {wl} --trace {trace}")
            ok = ok and good
    print("self-test", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    bindir = build()
    if bindir is None:
        log("build failed")
        return 1
    if args.self_test:
        return self_test(bindir)

    code, lines = run_binary([str(bindir / "perfbench"), "--workload", args.workload,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)])
    res = parse_result(lines) if code == 0 else None
    if res is None:
        for line in lines:
            print(line, file=sys.stderr)
        log(f"benchmark exited with {code} and no valid result line")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
