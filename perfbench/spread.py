"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --runs 10

Runs ``run.py`` untraced for ``run_seconds`` once per seed (1..runs) on
every workload in BENCHMARK.json, one run at a time, and prints a Markdown table: for every metric its median, its
quartiles and the quartile distance as a share of the median, the same
spread the benchmark's bounds in BENCHMARK.json are set against.  A
metric whose spread exceeds a third of its bound is marked unsteady.
The per-command times that run.py prints as ``# <name> <value> s``
lines are included without a bound.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    print(f"Python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"{args.runs} runs of {seconds} s per workload, seeds 1..{args.runs}\n")
    print("| workload | metric | median | q1 | q3 | spread | bound | steady |")
    print("|---|---|---|---|---|---|---|---|")
    digests = []
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict = {}
        failed = 0
        for seed in range(1, args.runs + 1):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                check=True, stdout=subprocess.PIPE, text=True,
            ).stdout
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            failed += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for line in lines[:-1]:
                parts = line.split()
                if len(parts) == 4 and parts[0] == "#" and parts[3] == "s":
                    values.setdefault(f"({parts[1]})", []).append(float(parts[2]))
                if line.startswith("# output digest "):
                    digests.append(f"{workload} seed {seed}: {line.split()[-1]}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            steady = "" if bound is None else ("yes" if spread < bound / 3 else "NO")
            print(f"| {workload} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | "
                  f"{'' if bound is None else bound} | {steady} |", flush=True)
        if failed:
            print(f"| {workload} | failed runs or commands | {failed} | | | | | NO |", flush=True)
    print("\nOutput digests (sha256 over every command's stdout and every store file):\n")
    for line in digests:
        print(f"- {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
