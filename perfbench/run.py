#!/usr/bin/env python3
"""Build and run the Performance Prophet sweep benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload analytic_wide --seed 1 --seconds 10 --trace 0

Builds the libraries and the benchmark executable from source into
.bench_build/ (the first run takes about a minute), then runs one
workload.  The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it print
each metric with its unit.  Exits non-zero, without a result, when the
sources are missing or the build or the run fails.  perfbench/README.md
documents the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("analytic_wide", "crossval_wide")
# A run measures --seconds plus set-up; cap it below the three-minute
# budget a run is given once the build exists.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then rebuilds incrementally (about a second)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no Performance Prophet sources under {ROOT}")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-4000:]
                print(tail, file=sys.stderr)
                fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", action="store_true",
                        help="flip one timed prediction (self-test)")
    args = parser.parse_args()

    build()
    work = BUILD / "work"
    tmp = BUILD / "tmp"
    work.mkdir(exist_ok=True)
    tmp.mkdir(exist_ok=True)
    # Keep the toolchain's temporaries inside the checkout; the compile
    # cache goes under --work-dir.
    env = dict(os.environ, TMPDIR=str(tmp))
    command = [str(BUILD / "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", str(work)]
    if args.trace:
        command += ["--trace-out",
                    str(BUILD / f"trace-{args.workload}-{args.seed}.json")]
    if args.perturb:
        command.append("--perturb")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                             cwd=ROOT, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"benchmark exited with {run.returncode}")
    try:
        json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
