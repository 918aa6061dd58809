#!/usr/bin/env python3
"""Self-test of the sweep benchmark's contract and prediction check.

Run from the repository root:

    python3 perfbench/selftest.py

1. An untraced run prints exactly the end-to-end metrics of
   BENCHMARK.json, each with its unit, and reports no failed jobs.
2. The same run with one timed prediction flipped by one bit
   (--perturb) reports failed > 0 and correct: false.
3. A traced run prints exactly the per-layer metrics of BENCHMARK.json.

Exits 0 when every check passes; prints what failed otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace=0, perturb=False, seconds=1):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", "7",
               "--seconds", str(seconds), "--trace", str(trace)]
    if perturb:
        command.append("--perturb")
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def expect(condition, message, failures):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def same_metrics(result, specs):
    names = {spec["name"]: spec["unit"] for spec in specs}
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    return got == names


def main():
    failures = []
    for workload in ("analytic_wide", "crossval_wide"):
        clean = run(workload)
        expect(clean["correct"] and clean["failed"] == 0
               and clean["attempted"] > 0,
               f"{workload}: clean run reports no failures", failures)
        expect(same_metrics(clean, SPEC["end_to_end"]),
               f"{workload}: untraced run prints the end-to-end metrics",
               failures)
        perturbed = run(workload, perturb=True)
        expect(perturbed["failed"] > 0 and not perturbed["correct"],
               f"{workload}: a perturbed prediction counts as failed",
               failures)
    traced = run("analytic_wide", trace=1)
    expect(same_metrics(traced, SPEC["per_layer"]),
           "analytic_wide: traced run prints the per-layer metrics", failures)
    expect(traced["correct"], "analytic_wide: traced run reports no failures",
           failures)
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
