"""One benchmark client: a fresh interpreter that runs a workload's CLI calls.

Usage: python client.py PLAN.json

The plan names the source tree to import trackmc from, the calls for each
worker count (argv and output files, relative to the working directory),
a fixed schedule of passes, and a closed loop to run after it.  A
scheduled pass is ``[workers, traced]``.  The loop runs passes at
``loop.workers`` until another pass would end after ``loop.seconds`` and
at least ``loop.min_iterations`` are done.  The client writes ``ready``
on stdout once ``trackmc.cli`` is imported, so the parent can time the
cold start.  A pass is timed from the first call to the last output
written.  After each pass, untimed, it compares every call's outputs with
the first pass's, whatever the worker counts.  Results go to the plan's
``result`` file.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _run_call(main, argv: list[str], tracer) -> tuple[int, int, str, float]:
    """(exit code, bins reported failed, captured stderr, seconds) of one CLI call."""
    err = io.StringIO()
    t0 = time.perf_counter()
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stderr(err), span:
        try:
            code = main(argv)
        except Exception:  # a crash is a failed call, not a crashed benchmark
            traceback.print_exc(file=err)
            code = -1
    seconds = time.perf_counter() - t0
    text = err.getvalue()
    warnings = sum(line.startswith("warning:") for line in text.splitlines())
    return int(code), warnings, text, seconds


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    import trackmc.cli

    if src not in Path(trackmc.cli.__file__).resolve().parents:
        print(f"trackmc imported from {trackmc.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    if any(traced for _, traced in plan["schedule"]):
        from tracer import Tracer

    calls_by_workers = {int(w): calls for w, calls in plan["calls"].items()}
    schedule, loop = plan["schedule"], plan["loop"]
    tracer = None
    first: list[list[bytes]] = []
    iterations = []
    loop_walls: list[float] = []
    loop_start = None
    while True:
        if len(iterations) < len(schedule):
            workers, traced = schedule[len(iterations)]
        elif loop is None:
            break
        else:
            now = time.perf_counter()
            loop_start = now if loop_start is None else loop_start
            # Stop before a pass that would likely end after the time is up.
            projected = now - loop_start + min(loop_walls, default=0.0)
            if projected > loop["seconds"] and len(loop_walls) >= loop["min_iterations"]:
                break
            workers, traced = loop["workers"], False
        calls = calls_by_workers[workers]
        for call in calls:
            for name in call["outputs"]:
                Path(name).unlink(missing_ok=True)
        if traced:
            tracer = Tracer().install()
        outcomes = []
        t0 = time.perf_counter()
        for call in calls:
            outcomes.append(_run_call(trackmc.cli.main, call["argv"], tracer if traced else None))
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        if len(iterations) >= len(schedule):
            loop_walls.append(wall)
        outputs = [[Path(name).read_bytes() if Path(name).exists() else b""
                    for name in call["outputs"]] for call in calls]
        if not first:
            first = outputs
        iterations.append({
            "workers": workers,
            "traced": traced,
            "wall_s": wall,
            "calls": [{"code": code, "warnings": warnings, "stderr": text[-2000:],
                       "seconds": seconds, "same_as_first": out == ref}
                      for (code, warnings, text, seconds), out, ref
                      in zip(outcomes, outputs, first)],
        })

    result = {"iterations": iterations}
    if tracer is not None:
        metrics, missing = tracer.metrics()
        result["trace"] = {"metrics": metrics, "missing": missing}
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result["peak_rss_mb"] = rss_kb / 1024.0
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
