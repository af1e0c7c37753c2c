"""Check that trackmc's CLI writes the same bytes as at a git revision.

Usage: python3 tools/cli_bytes.py REV

Extracts ``src/`` at REV with ``git archive`` into a temporary directory,
then runs one fixed list of CLI calls under that tree and under this
checkout's ``src/``, each call in a fresh interpreter, on the synthetic
genome of ``perfbench/genome.py`` for seeds 1 and 2. Every output file,
exit code, stdout and stderr is compared; each difference is printed, and
the exit status is 1 if there is any, or if any call fails (every call on
the list is valid), else 0.

A change that must alter outputs (a new seed contract, a new header line)
shows here as a difference to explain, not to hide.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from genome import MIN_POINTS, MIN_SEGMENTS, make_genome, write_genome  # noqa: E402

SEEDS = (1, 2)
MODELS = ("uniform-points", "preserve-interpoint", "uniform-segments",
          "preserve-intersegment", "block:100")
# Copies of the points file that take the reader's two other paths: CRLF
# line ends behind a '#' line (the comment and blank-line substitution), and
# one field padded with a space (the per-line parser).
VARIANTS = ("points_crlf.tsv", "points_padded.tsv")
INPUTS = ("bins.tsv", "points.tsv", "segments.tsv", *VARIANTS)


def write_variants(rundir: Path) -> None:
    lines = (rundir / "points.tsv").read_text().splitlines()
    crlf, padded = ["# points, CRLF line ends", *lines], list(lines)
    padded[len(padded) // 2] += " "
    for name, rows, end in zip(VARIANTS, (crlf, padded), ("\r\n", "\n")):
        (rundir / name).write_bytes("".join(row + end for row in rows).encode())


def calls(seed: int, genome_length: int) -> list[list[str]]:
    """The CLI calls of one seed; each writes its output to its own file."""
    s = str(seed)
    whole = ["--points", "points.tsv", "--bin-start", "0", "--bin-end", str(genome_length)]
    out: list[list[str]] = []
    for i, model in enumerate(MODELS):
        out.append(["batch", "--bins", "bins.tsv", "--points", "points.tsv",
                    "--segments", "segments.tsv", "--null-model", model,
                    "--min-points", str(MIN_POINTS), "--min-segments", str(MIN_SEGMENTS),
                    "--samples", "100", "--seed", s, "--out", f"batch{i}.tsv"])
        out.append(["qvalue", "--input", f"batch{i}.tsv", "--fdr", "0.1",
                    "--out", f"qvalue{i}.tsv"])
        for direction, estimator in (("greater", "add-one"), ("two-sided", "raw")):
            out.append(["test", *whole, "--segments", "segments.tsv", "--null-model", model,
                        "--samples", "100", "--seed", s, "--direction", direction,
                        "--estimator", estimator, "--out", f"test{i}_{direction}.tsv"])
    # Two workers allowed: the first batch is too small for the pool and runs
    # in-process, the second (1000 preserve-interpoint samples per bin) pools.
    for model, samples in (("uniform-points", "100"), ("preserve-interpoint", "1000")):
        out.append(["batch", "--bins", "bins.tsv", "--points", "points.tsv",
                    "--segments", "segments.tsv", "--null-model", model,
                    "--min-points", str(MIN_POINTS), "--min-segments", str(MIN_SEGMENTS),
                    "--samples", samples, "--seed", s, "--workers", "2",
                    "--out", f"batch_w2_{samples}.tsv"])
    out += [
        ["qvalue", "--input", "batch0.tsv", "--out", "qvalue_plain.tsv"],
        ["qvalue", "--input", "batch1.tsv", "--pi0", "0.5", "--fdr", "0.2",
         "--out", "qvalue_pi0.tsv"],
        ["ripley", *whole, "--scales", "10,100,500", "--out", "ripley.tsv"],
        ["ripley", *whole, "--out", "ripley_default.tsv"],
        ["study", "--replicates", "2", "--bin-length", "20000", "--samples", "100",
         "--fdr", "0.3", "--seed", s, "--out", "study.tsv"],
        ["ordering", "--cluster-segments", "--replicates", "3", "--bin-length", "20000",
         "--samples", "100", "--seed", s, "--out", "ordering.tsv",
         "--deciles-out", "deciles.tsv"],
        # Both generators of ordering's segments, and the study's replicates
        # on a two-worker pool.
        ["ordering", "--replicates", "3", "--bin-length", "20000", "--samples", "100",
         "--seed", s, "--out", "ordering_plain.tsv"],
        ["study", "--replicates", "2", "--bin-length", "20000", "--samples", "100",
         "--fdr", "0.3", "--seed", s, "--workers", "2", "--out", "study_w2.tsv"],
        # The benchmark's scale: 100 kb bins and 16 chunks per test.
        ["study", "--replicates", "1", "--samples", "1000", "--seed", s,
         "--out", "study_full.tsv"],
        ["ordering", "--cluster-segments", "--replicates", "1", "--samples", "1000",
         "--seed", s, "--out", "ordering_full.tsv"],
        ["simulate", "points", "--bin-length", "20000", "--mode", "clustered",
         "--lambda-inter", "0.02", "--seed", s, "--out", "sim_points.tsv"],
        ["simulate", "segments", "--bin-length", "20000", "--clustered",
         "--gap-lambda", "0.02", "--seed", s, "--out", "sim_segments.tsv"],
        # A sparse 200 kb bin at 1,000 samples: about 1,000 points and 480
        # segments, so each test's 15 full 64-row chunks read the coverage
        # mask or prefix count and its last 40-row chunk binary-searches.
        ["simulate", "points", "--bin-length", "200000", "--lambda-inter", "0.005",
         "--seed", s, "--out", "sparse_points.tsv"],
        ["simulate", "segments", "--bin-length", "200000", "--gap-lambda", "0.0025",
         "--seed", s, "--out", "sparse_segments.tsv"],
        *(["test", "--points", "sparse_points.tsv", "--segments", "sparse_segments.tsv",
           "--bin-end", "200000", "--null-model", model, "--samples", "1000", "--seed", s,
           "--out", f"sparse_test{i}.tsv"]
          for i, model in enumerate(("preserve-interpoint", "preserve-intersegment"))),
        # simulate's own outputs read back: 1-column points behind '#' lines.
        ["test", "--points", "sim_points.tsv", "--segments", "sim_segments.tsv",
         "--bin-end", "20000", "--seed", s, "--out", "sim_test.tsv"],
        ["ripley", "--points", "sim_points.tsv", "--bin-end", "20000",
         "--out", "sim_ripley.tsv"],
    ]
    for name in VARIANTS:
        stem = name.removesuffix(".tsv")
        out.append(["ripley", "--points", name, *whole[2:], "--out", f"ripley_{stem}.tsv"])
        out.append(["batch", "--bins", "bins.tsv", "--points", name,
                    "--segments", "segments.tsv", "--null-model", "uniform-points",
                    "--min-points", str(MIN_POINTS), "--min-segments", str(MIN_SEGMENTS),
                    "--samples", "100", "--seed", s, "--out", f"batch_{stem}.tsv"])
    return out


def run_all(src: Path, rundir: Path, argvs: list[list[str]]) -> list[tuple]:
    """(exit code, stdout, stderr) of each call, run in ``rundir``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    results = []
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from trackmc.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            cwd=rundir, env=env, capture_output=True,
        )
        results.append((proc.returncode, proc.stdout, proc.stderr))
    return results


def outputs(rundir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(rundir.iterdir()) if p.name not in INPUTS}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    rev = argv[0]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="cli_bytes_") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        trees = {rev: tmp / "rev" / "src", "working tree": ROOT / "src"}
        n_calls = n_diffs = n_failed = 0
        for seed in SEEDS:
            genome = make_genome(seed)
            argvs = calls(seed, genome.length)
            runs = {}
            for name, src in trees.items():
                rundir = tmp / f"{seed}-{len(runs)}"
                rundir.mkdir()
                write_genome(genome, rundir)
                write_variants(rundir)
                runs[name] = (run_all(src, rundir, argvs), outputs(rundir))
            (old, old_files), (new, new_files) = runs.values()
            n_calls += len(argvs)
            for name, (results, _) in runs.items():
                for argv, (code, _, err) in zip(argvs, results):
                    if code != 0:
                        n_failed += 1
                        print(f"seed {seed}: {' '.join(argv)}: exit {code} under {name}:\n"
                              f"  {err.decode(errors='replace').strip()}")
            for argv, a, b in zip(argvs, old, new):
                for label, x, y in zip(("exit code", "stdout", "stderr"), a, b):
                    if x != y:
                        n_diffs += 1
                        print(f"seed {seed}: {' '.join(argv)}: {label} differs:\n"
                              f"  {rev}: {x!r}\n  working tree: {y!r}")
            for fname in sorted(old_files.keys() | new_files.keys()):
                if old_files.get(fname) != new_files.get(fname):
                    n_diffs += 1
                    print(f"seed {seed}: output {fname} differs")
            print(f"seed {seed}: {len(argvs)} calls, {len(new_files)} output files compared")
    verdict = "identical" if n_diffs == 0 else f"{n_diffs} differences"
    print(f"{n_calls} calls against {rev}: {verdict} ({time.perf_counter() - start:.0f} s)")
    if n_failed:
        # Every call on the list is valid; a failing one compares nothing.
        print(f"{n_failed} runs exited non-zero, so the comparison is incomplete")
    return 1 if n_diffs or n_failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
