"""Run every workload over several seeds and record a baseline with provenance.

Usage (from the repository root):

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/BASELINE.json

For each workload of BENCHMARK.json it makes one untraced run per seed and
one traced run (first seed), then writes, per metric, the median, the
quartiles and the spread (interquartile range over median) of the
untraced runs, and the traced per-layer values.  Provenance (host, nproc,
Python, numpy, scipy, git sha, seeds, workers, run length) and every
workload's entry are written together once all runs are done, so the
file never mixes runs of different commits.  ``known_findings`` of
``--out`` is kept.
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
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKERS  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    print(proc.stdout, end="", flush=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", type=Path, default=HERE / "BASELINE.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    seeds = _seeds(args.seeds)

    workloads = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [_run(workload, seed, seconds, 0) for seed in seeds]
        traced = _run(workload, seeds[0], seconds, 1)
        workloads[workload] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "end_to_end": {
                m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs])
                for m in bench["end_to_end"]
            },
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    old = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc = {
        "provenance": {
            "host": platform.node(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "git_sha": _git_sha(),
            "seeds": seeds,
            "workers": WORKERS,
            "run_seconds": seconds,
        },
        "known_findings": old.get("known_findings", []),
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
