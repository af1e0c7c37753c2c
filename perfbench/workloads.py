"""The three workloads: the CLI calls each makes and how each output is checked.

Every call goes through ``trackmc.cli.main``.  The program receives only
``--seed`` values and input files derived from the workload seed.  A
call's ``units`` are the MC tests it runs, or 1 for a call that runs none
(``ripley``, ``qvalue``), so a failure of any call shows in ``failed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from genome import MIN_POINTS, MIN_SEGMENTS, make_genome, write_genome

# study and ordering: the acceptance defaults (100 kb bins, 1000 samples
# per test) with fewer replicates, so one pass takes a few seconds.
STUDY_REPLICATES = 2
STUDY_SAMPLES = 1000
ORDERING_REPLICATES = 4
ORDERING_SAMPLES = 1000
# genome-scan: samples per bin, block size and FDR level of the scan.
SCAN_SAMPLES = 100
SCAN_BLOCK = 100
SCAN_FDR = 0.1
RIPLEY_SCALES = (10, 100, 500)


@dataclass(frozen=True)
class Call:
    argv: list[str]
    units: int
    outputs: tuple[str, ...]  # file names in the run directory
    check: Callable[[Path], checks.Outcome]

    @property
    def name(self) -> str:
        model = self.argv[self.argv.index("--null-model") + 1] if "--null-model" in self.argv \
            else ""
        return f"{self.argv[0]} {model}".strip()


def _read(rundir: Path, name: str) -> checks.Table:
    return checks.read_table(rundir / name)


def study(seed: int, workers: int, rundir: Path) -> list[Call]:
    tests = STUDY_REPLICATES * len(checks.STUDY_COLUMNS) * (len(checks.STUDY_ROWS) - 1)
    argv = ["study", "--replicates", str(STUDY_REPLICATES), "--samples", str(STUDY_SAMPLES),
            "--seed", str(seed), "--workers", str(workers), "--out", "study.tsv"]
    return [Call(argv, tests, ("study.tsv",),
                 lambda d: checks.check_study(_read(d, "study.tsv"), STUDY_REPLICATES, tests))]


def ordering(seed: int, workers: int, rundir: Path) -> list[Call]:
    argv = ["ordering", "--cluster-segments", "--replicates", str(ORDERING_REPLICATES),
            "--samples", str(ORDERING_SAMPLES), "--seed", str(seed), "--workers", str(workers),
            "--out", "ordering.tsv", "--deciles-out", "deciles.tsv"]
    tests = ORDERING_REPLICATES * len(checks.ORDERING_MODELS)
    return [Call(argv, tests, ("ordering.tsv", "deciles.tsv"),
                 lambda d: checks.check_ordering(_read(d, "ordering.tsv"),
                                                 _read(d, "deciles.tsv"),
                                                 ORDERING_REPLICATES, ORDERING_SAMPLES))]


def genome_scan(seed: int, workers: int, rundir: Path) -> list[Call]:
    genome = make_genome(seed)
    paths = write_genome(genome, rundir)
    kept = checks.kept_bins(
        checks.bin_truths(genome.bins, genome.points, genome.segment_rows),
        MIN_POINTS, MIN_SEGMENTS)
    inputs = ["--bins", paths["bins"].name, "--points", paths["points"].name,
              "--segments", paths["segments"].name]
    calls = [Call(
        ["ripley", "--points", paths["points"].name, "--bin-start", "0",
         "--bin-end", str(genome.length), "--scales", ",".join(map(str, RIPLEY_SCALES)),
         "--out", "ripley.tsv"],
        1, ("ripley.tsv",),
        lambda d: checks.check_ripley(_read(d, "ripley.tsv"), genome.points, genome.length,
                                      RIPLEY_SCALES))]
    for tag, model in (("uniform", "uniform-points"), ("block", f"block:{SCAN_BLOCK}")):
        batch_out, q_out = f"batch_{tag}.tsv", f"qvalue_{tag}.tsv"
        calls.append(Call(
            ["batch", *inputs, "--null-model", model, "--min-points", str(MIN_POINTS),
             "--min-segments", str(MIN_SEGMENTS), "--samples", str(SCAN_SAMPLES),
             "--seed", str(seed), "--workers", str(workers), "--out", batch_out],
            len(kept), (batch_out,),
            lambda d, out=batch_out, model=model: checks.check_batch(
                _read(d, out), kept, SCAN_SAMPLES, model)))
        calls.append(Call(
            ["qvalue", "--input", batch_out, "--fdr", str(SCAN_FDR), "--out", q_out],
            1, (q_out,),
            lambda d, src=batch_out, out=q_out: checks.check_qvalue(
                _read(d, out), _read(d, src), SCAN_FDR)))
    return calls


WORKLOADS = {"study": study, "ordering": ordering, "genome-scan": genome_scan}
