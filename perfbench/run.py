#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test

Builds perfbench/ (which compiles ../src through the repository's own CMake
file) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then
runs the measuring program. Its last line of standard output is the result
object; it is checked here against BENCHMARK.json (every declared metric,
by name and unit, and nothing else) before it is passed on. Detail JSON and
chrome traces land in <build dir>/results. Exit status: 0 when every output
check passed, 1 when one failed or the build or result was invalid, 2 on a
usage error.
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
WORKLOADS = ("serve_model", "qr_functional", "rpca_video")
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_quiet(cmd, timeout):
    """Runs a build step; its output goes to stderr only when it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: step failed: %s\n" % " ".join(cmd))
    return proc.returncode == 0


def build(bdir, target):
    if not (bdir / "CMakeCache.txt").exists():
        if not run_quiet(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                         BUILD_TIMEOUT_S):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", str(bdir), "--target", target,
                      "-j", jobs], BUILD_TIMEOUT_S)


def source_id():
    """`git describe` in a git checkout, else a digest of the sources."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        if proc.returncode == 0:
            return "git:" + proc.stdout.decode().strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Returns an error message, or None when the line is a valid result."""
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(res)
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        return "failed must be a whole number >= 0"
    want = declared_metrics(trace)
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "unit mismatch %s" % (missing, extra, wrong)
    for name, m in res["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            return "metric %s has no numeric value" % name
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    bdir = build_dir()

    if args.test:
        if not build(bdir, "perfbench_tests"):
            return 1
        return subprocess.run([str(bdir / "perfbench_tests")]).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in 1..3600")
    if not build(bdir, "perfbench"):
        return 1
    results = bdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(bdir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(results),
           "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.decode(errors="replace").rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stderr.write("\n".join(lines) + "\n")
        sys.stderr.write("perfbench: program exited %d\n" % proc.returncode)
        return 1
    err = check_result(lines[-1], args.trace == 1)
    if err is not None:
        sys.stderr.write("\n".join(lines) + "\n")
        sys.stderr.write("perfbench: invalid result: %s\n" % err)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
