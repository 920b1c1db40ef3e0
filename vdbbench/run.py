#!/usr/bin/env python3
"""Builds and runs the end-to-end VerdictDB benchmark.

Run from the root of the repository:

    python3 vdbbench/run.py --workload verdict33 --seed 1 --seconds 10 --trace 0

The first call configures and builds a Release build under .bench_build/;
later calls rebuild only what changed. Build output goes to standard error,
so the last line of standard output is the benchmark's result object.
Add --quick for one pass of the workload with every check.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "vdbbench")


def build():
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "vdbbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_revision():
    """The commit and a dirty flag, or "none" outside a git checkout."""
    # Look no higher than the checkout: a checkout without .git reports
    # "none" even when it sits inside another repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             env=env)
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, check=True,
                               env=env)
    except (OSError, subprocess.CalledProcessError):
        return "none"
    return sha.stdout.strip() + ("-dirty" if dirty.stdout.strip() else "")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["verdict33", "exact33", "ingest"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--quick", action="store_true")
    args = p.parse_args()

    if not build():
        print("vdbbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(BUILD, "vdbbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--git", git_revision()]
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.quick:
        cmd.append("--quick")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
