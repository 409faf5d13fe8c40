"""Run the benchmark several times per workload, each run with its own seed,
and report every metric's median and its spread: the distance between the
first and third quartiles as a share of the median, next to the metric's
bound from ``BENCHMARK.json``.  End-to-end sets also show the printed
``wall_s``, the pass time in seconds, which has no bound.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--trace 0|1]
                                [--workload NAME ...] [--out FILE]

Exits 1 when a run fails or a spread exceeds its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["per_layer" if args.trace else "end_to_end"]}
    printed = [] if args.trace else ["wall_s"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {
        "machine": (
            f"{platform.machine()}, {platform.python_implementation()} "
            f"{platform.python_version()}, {os.cpu_count()} CPUs; bytecode {run.BYTECODE}"
        ),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    status = 0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in [*bounds, *printed]}
        for seed in seeds:
            command = [
                *spec["command"], "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            record = json.loads(child.stdout.splitlines()[-1])
            if child.returncode != 0 or not record["correct"]:
                print(f"{workload} seed {seed}: exit {child.returncode}, {record['failed']} failed")
                status = 1
            for name in bounds:
                values[name].append(record["metrics"][name]["value"])
            for name in printed:
                line = next(l for l in child.stdout.splitlines() if l.startswith(f"{name} "))
                values[name].append(float(line.split()[1]))
        summary = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            note = ""
            if bound is not None:
                summary[name]["bound"] = bound
                note = f"  bound {bound}  spread/bound {spread / bound:.2f}"
                if spread > bound:
                    status = 1
            print(f"{workload} {name}: median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}{note}", flush=True)
        report["workloads"][workload] = summary
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
