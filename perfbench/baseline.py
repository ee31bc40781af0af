"""Run every workload on several seeds and summarise the end-to-end metrics.

Usage, from the root of a source checkout::

    python3 perfbench/baseline.py --seeds 1-10 [--workloads reference,...]
        [--out perfbench/baseline.json]

Each run is ``run.py --trace 0`` with the run length of BENCHMARK.json.
For every workload and metric it prints the median over seeds, the
quartiles, and the quartile spread (Q3 - Q1) / median next to the metric's
bound, then writes all of it, with the runs' raw values and the host's
CPU count and Python and numpy versions, to ``--out``.
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

import numpy

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"host": {"nproc": os.cpu_count(),
                       "python": platform.python_version(),
                       "numpy": numpy.__version__},
              "run_seconds": spec["run_seconds"], "seeds": args.seeds,
              "workloads": {}}
    ok = True
    for name in names:
        runs = [run_once(name, seed, spec["run_seconds"]) for seed in args.seeds]
        ok &= all(r["correct"] for r in runs)
        summary = {}
        print(f"{name}: {len(runs)} runs, all correct: "
              f"{all(r['correct'] for r in runs)}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            med = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            summary[metric] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": bound,
                               "values": values}
            print(f"  {metric:<24} {med:>12.6g} {unit:<9} "
                  f"spread {spread:7.4f}  bound {bound}")
        report["workloads"][name] = summary
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
