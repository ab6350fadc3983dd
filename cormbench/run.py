#!/usr/bin/env python3
"""Build corm_bench from this checkout's sources and run one workload.

Usage, from the root of a checkout:

    python3 cormbench/run.py --workload rubis_paper --seed 7 \
        --seconds 20 --trace 0

The build goes to .bench_build/cormbench (configured once, rebuilt
incrementally). Build and self-test output go to standard error; the
benchmark's own report goes to standard output, and its last line is
the JSON result. Spans of a traced run are written to
.bench_build/cormbench/spans-<workload>.json.
"""

import argparse
import os
import re
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("rubis_paper", "fabric_tree_dense", "fabric_churn_faulty")
RUN_LIMIT_S = 170  # the benchmark itself, after the build


def seed_arg(text):
    if not re.fullmatch(r"0[xX][0-9a-fA-F]+|[0-9]+", text) or int(text, 0) >= 2**64:
        raise argparse.ArgumentTypeError(f"bad seed '{text}' (decimal or 0x-hex)")
    return text


def seconds_arg(text):
    if not re.fullmatch(r"[0-9]+", text) or not 1 <= int(text) <= 600:
        raise argparse.ArgumentTypeError(f"bad --seconds '{text}' (1..600)")
    return text


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0], allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=seed_arg)
    p.add_argument("--seconds", required=True, type=seconds_arg)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args()


def step(cmd, timeout):
    """Run a build step with its output on stderr; exit on failure."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: timed out: {' '.join(map(str, cmd))}")
    if done.returncode != 0:
        sys.exit(f"run.py: failed ({done.returncode}): {' '.join(map(str, cmd))}")


def main():
    args = parse_args()
    here = Path(__file__).resolve().parent
    root = here.parent
    if not (root / "src" / "platform" / "scenarios.hpp").is_file():
        sys.exit(f"run.py: no simulator sources under {root / 'src'}; "
                 "run from the root of a full checkout")

    build = root / ".bench_build" / "cormbench"
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build / "CMakeCache.txt").is_file():
        step(["cmake", "-S", str(here), "-B", str(build),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 600)
    step(["cmake", "--build", str(build), "-j", jobs], 900)
    step([str(build / "corm_bench_selftest")], 60)

    cmd = [str(build / "corm_bench"), "--workload", args.workload,
           "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace,
           "--spans", str(build / f"spans-{args.workload}.json")]
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: benchmark exceeded {RUN_LIMIT_S} s "
                 f"(ran {time.monotonic() - started:.0f} s)")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
