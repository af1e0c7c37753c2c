"""trackmc benchmark: one workload per run, metrics as one JSON line at the end.

Usage (from the repository root):

    python3 perfbench/run.py --workload study|ordering|genome-scan \
        --seed N --seconds S --trace 0|1

``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer
ones; README.md says what each metric measures and how a run works.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import Outcome
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKERS = 2
SETUP_PROBES = 4  # after one discarded warm-up; the client's own start is one more
MIN_ITERATIONS = 3
# Traced runs: a cold pass (checked, not timed), then PAIRS interleaved
# untraced passes at one worker and at WORKERS, then the traced pass.
PAIRS = 3
DEADLINE_S = 170.0
PROBE = "import sys, trackmc.cli; sys.stdout.write('ready\\n'); sys.stdout.flush()"


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
        self.env["TMPDIR"] = str(workdir)

    def _wait(self, proc: subprocess.Popen) -> int:
        try:
            return proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("client ran past the deadline") from None

    def _start(self, argv: list[str], cwd: Path) -> tuple[subprocess.Popen, float]:
        """Spawn a client; return it and the seconds until it printed 'ready'."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=subprocess.PIPE)
        timeout = max(0.0, self.deadline - time.monotonic())
        if not select.select([proc.stdout], [], [], timeout)[0]:
            proc.kill()
            proc.wait()
            raise BenchError("client did not start before the deadline")
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        if line.strip() != b"ready":
            self._wait(proc)
            raise BenchError(f"client did not import trackmc.cli (exit {proc.returncode})")
        return proc, ready

    def probe(self) -> float:
        proc, ready = self._start([sys.executable, "-c", PROBE], self.workdir)
        proc.stdout.close()
        if self._wait(proc):
            raise BenchError("import probe failed")
        return ready

    def client(self, calls_by_workers: dict, rundir: Path, schedule: list,
               loop: dict | None) -> dict:
        plan = {
            "src": str(SRC),
            "calls": {w: [{"argv": c.argv, "outputs": list(c.outputs)} for c in calls]
                      for w, calls in calls_by_workers.items()},
            "schedule": schedule,
            "loop": loop,
            "result": str(rundir / "result.json"),
        }
        plan_path = rundir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        proc, ready = self._start(
            [sys.executable, str(HERE / "client.py"), str(plan_path)], rundir)
        proc.stdout.close()
        if self._wait(proc):
            raise BenchError(f"client exited with {proc.returncode}")
        result = json.loads((rundir / "result.json").read_text(encoding="utf-8"))
        result["ready_s"] = ready
        return result


def account(calls, result: dict, rundir: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every pass of one client."""
    outcomes = []
    for call in calls:
        try:
            outcomes.append(call.check(rundir))
        except (OSError, ValueError, IndexError, KeyError) as exc:
            outcomes.append(Outcome(call.units, [f"{call.argv[0]}: unreadable output: {exc}"]))
    attempted = failed = 0
    messages = [m for o in outcomes for m in o.messages]
    for it in result["iterations"]:
        for call, rec, outcome in zip(calls, it["calls"], outcomes):
            attempted += call.units
            if rec["code"] != 0:
                messages.append(f"{call.argv[0]} exited {rec['code']}: {rec['stderr'].strip()}")
                failed += call.units
            elif not rec["same_as_first"]:
                messages.append(f"{call.argv[0]} at --workers {it['workers']}: output differs "
                                "from the first pass")
                failed += call.units
            else:
                failed += min(call.units, rec["warnings"] + outcome.bad)
    return attempted, failed, messages


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    build = WORKLOADS[workload]
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=ROOT / ".perfbench_work"))
    runner = Runner(workdir, time.monotonic() + DEADLINE_S)
    metrics: dict[str, dict] = {}
    notes: list[str] = []
    try:
        calls = {w: build(seed, w, workdir) for w in ((1, WORKERS) if trace else (WORKERS,))}
        if not trace:
            setup = [runner.probe() for _ in range(SETUP_PROBES + 1)][1:]
            res = runner.client(calls, workdir, [], {
                "workers": WORKERS, "seconds": seconds, "min_iterations": MIN_ITERATIONS})
            setup.append(res["ready_s"])
            walls = [it["wall_s"] for it in res["iterations"]]
            metrics["wall_s"] = {"value": statistics.median(walls), "unit": "s"}
            metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
            metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
            notes.append(f"wall_s per pass: {', '.join(f'{w:.4f}' for w in walls)}")
            for i, call in enumerate(calls[WORKERS]):
                median = statistics.median(it["calls"][i]["seconds"] for it in res["iterations"])
                notes.append(f"  call {i} ({call.name}): median {median:.4f} s")
            notes.append(f"setup_s per start: {', '.join(f'{s:.4f}' for s in setup)}")
        else:
            schedule = [[WORKERS, False], *[[w, False] for _ in range(PAIRS) for w in (1, WORKERS)],
                        [1, True]]
            res = runner.client(calls, workdir, schedule, None)
            timed = res["iterations"][1:]
            walls = {w: [it["wall_s"] for it in timed if it["workers"] == w and not it["traced"]]
                     for w in calls}
            traced = next(it["wall_s"] for it in timed if it["traced"])
            single = statistics.median(walls[1])
            for name, (value, unit) in res["trace"]["metrics"].items():
                metrics[name] = {"value": value, "unit": unit}
            metrics["mc.pool_speedup"] = {
                "value": single / statistics.median(walls[WORKERS]), "unit": "ratio"}
            metrics["trace.overhead_frac"] = {"value": traced / single - 1.0, "unit": "ratio"}
            for w, ws in walls.items():
                notes.append(f"untraced wall_s at --workers {w}: {', '.join(f'{x:.4f}' for x in ws)}")
            notes.append(f"traced wall_s at --workers 1: {traced:.4f}")
            if res["trace"]["missing"]:
                notes.append("missing per-layer metrics (traced name gone): "
                             + ", ".join(res["trace"]["missing"]))
        attempted, failed, messages = account(calls[WORKERS], res, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "messages": messages, "notes": notes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "trackmc" / "cli.py").is_file():
        print(f"error: no trackmc sources under {SRC}", file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for message in out["messages"][:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for note in out["notes"]:
        print(note)
    for name, m in out["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {out['failed'] / max(out['attempted'], 1):.6g} fraction "
          f"({out['failed']} of {out['attempted']} tests)")
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
