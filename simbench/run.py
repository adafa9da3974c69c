#!/usr/bin/env python3
"""Builds the simcov benchmark from source and runs one workload.

Usage, from the repository root:

    python3 simbench/run.py --workload dlx_campaign --seed 1 --seconds 10 \
        --trace 0

The first run configures and builds a Release tree under .bench_build/
(several minutes); later runs only check it is up to date. Build output
goes to stderr; stdout is the benchmark's report, whose last line is the
JSON result. Exits non-zero, printing no result, when the sources or the
build are missing or broken.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
WORKLOADS = ("dlx_campaign", "thm3_mutants", "symbolic_tour", "symbolic_reach")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("simbench: no simcov sources in " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "simbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "simbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--perturb", action="store_true",
                        help="corrupt every output before its check")
    args = parser.parse_args()
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("simbench: build failed: %s" % e)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.perturb:
        cmd.append("--perturb")
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
