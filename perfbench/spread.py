"""Run-to-run spread of the benchmark's metrics over several seeds.

Usage (from the repository root):

    python3 perfbench/spread.py --seeds 0-9 --seconds 25 [--workloads raw-fair,rlnc-cli]

Runs ``run.py`` untraced once per workload and seed, one run at a time,
and prints for every end-to-end metric the median, the quartiles
(``statistics.quantiles(n=4)``) and the quartile distance as a share of
the median; the last line is the same as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            result = one_run(workload, seed, args.seconds)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary[workload] = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            row = {
                "median": med, "q1": q1, "q3": q3, "unit": first["unit"],
                "spread": (q3 - q1) / med if med else 0.0,
                "min": min(values), "max": max(values),
            }
            summary[workload][name] = row
            print(f"  {name:34s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {row['spread']:.4f} {first['unit']}", flush=True)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
