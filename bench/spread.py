#!/usr/bin/env python3
"""Run the benchmark over several seeds and report the spread of its metrics.

Run from the repository root:

    python3 bench/spread.py --workloads gauss1d,gauss2d,swap \
        --seeds 301-310 --out bench/results/spread.jsonl

Each run is `bench/run.py --trace 0` in a fresh process.  One JSON line per
run goes to --out: the run's result line plus the raw (not rescaled) times
from its report.  Then, per workload and metric, the median of the runs and
the distance between their first and third quartiles as a share of the
median (IQR/median), as statistics.quantiles(values, n=4) gives them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW = ("setup_raw_s", "solve_p50_s", "reference_s")


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 301-310")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    values = {}
    with args.out.open("a") as out:
        for workload in args.workloads.split(","):
            for seed in _seeds(args.seeds):
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, "bench/run.py", "--workload", workload,
                     "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=400)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                report = json.loads((ROOT / ".bench_run" / workload /
                                     f"report-seed{seed}-trace0.json").read_text())
                raw = {k: report["metrics"][k]["value"] for k in RAW}
                row = {"workload": workload, "seed": seed, "exit": proc.returncode,
                       "wall_s": time.perf_counter() - t0, **result, "raw": raw}
                out.write(json.dumps(row) + "\n")
                out.flush()
                print(json.dumps(row), flush=True)
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                for name, value in {**metrics, **raw}.items():
                    values.setdefault((workload, name), []).append(value)
    for (workload, name), vals in values.items():
        q = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print(f"{workload:8} {name:14} median {med:.6g}  IQR/median {(q[2] - q[0]) / med:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
