"""Monte Carlo testing engine: sample the statistic under a null model and
estimate the empirical p-value.

Seed contract: a test's samples are drawn in chunks of
``null_models.chunk_rows`` rows, a number fixed by the two tracks and the
null model alone. Chunk ``c`` draws from
``default_rng(derive_seed(master seed, bin id, "chunk", c))``, and the last
chunk draws only the rows still needed. So batch results are independent
of execution order and worker count, and the first k samples do not depend
on the number of samples whenever k is a multiple of the chunk size.

The null model is not in the chunk key, so every model scored on one bin
draws from the same chunk streams: common random numbers across models, as
in the study's three MC rows, the ordering experiment's four models, and
``test`` runs of several models on one bin.

Each test is prepared once (``null_models.prepare_counts``): the tracks
are checked and the arrays of one chunk are made, and every chunk draws
into them; the short last chunk uses their leading rows. The coverage mask
or prefix count is built the first time a chunk reads it and kept for the
test's later chunks. Nothing is kept from one test to the next.
"""

from __future__ import annotations

import enum
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from .null_models import NullModelSpec, chunk_rows, prepare_counts, sample_size
# Not called here: the engine counts through prepare_counts. The benchmark's
# tracer (perfbench/tracer.py) looks this one-track front end up as
# trackmc.mc.resample_track.
from .null_models import resample_track  # noqa: F401
from .seeding import derive_seed
from .stats import Direction, count_points_in_segments
from .tracks import PathLike, PointTrack, SegmentTrack, fmt, write_tsv


class ConfigError(ValueError):
    """Invalid Monte Carlo configuration."""


class EstimatorMode(enum.Enum):
    RAW = "raw"
    ADD_ONE = "add-one"


@dataclass(frozen=True)
class MCConfig:
    """Sampling configuration.

    ADD_ONE is the default estimator: it counts the observed statistic into
    the pool, (c + 1) / (n + 1), which is a valid p-value and gives the
    familiar 1e-4 floor at 10,000 samples. RAW is the literal proportion
    c / n.
    """

    n_samples: int
    master_seed: int = 0
    estimator_mode: EstimatorMode = EstimatorMode.ADD_ONE
    direction: Direction = Direction.GREATER

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ConfigError(f"n_samples must be >= 1, got {self.n_samples}")


@dataclass(frozen=True)
class TestResult:
    bin_id: str
    observed: float
    p_value: float
    n_samples: int
    n_exceed: int
    null_model: NullModelSpec


def empirical_pvalue(n_exceed: int, n_samples: int, mode: EstimatorMode) -> float:
    """Empirical p-value from an exceedance count.

    RAW is the plain proportion of null samples at or past the observed
    statistic; ADD_ONE adds the observed statistic to the pool.
    """
    if mode is EstimatorMode.ADD_ONE:
        return (n_exceed + 1) / (n_samples + 1)
    return n_exceed / n_samples


def count_exceedances(samples: np.ndarray, observed: float, direction: Direction) -> int:
    """Ties count as exceedances (the conservative ``>=`` / ``<=``)."""
    samples = np.asarray(samples)
    if direction is Direction.GREATER:
        return int((samples >= observed).sum())
    if direction is Direction.LESS:
        return int((samples <= observed).sum())
    return min(int((samples >= observed).sum()), int((samples <= observed).sum()))


def null_counts(
    points: PointTrack,
    segments: SegmentTrack,
    spec: NullModelSpec,
    cfg: MCConfig,
) -> np.ndarray:
    """The ``cfg.n_samples`` null counts of one test, in stream order.

    The test is prepared once (``prepare_counts``), and every chunk draws
    into the arrays prepared for it.
    """
    rows = chunk_rows(points, segments, spec)
    draw = prepare_counts(points, segments, spec, min(rows, cfg.n_samples))
    samples = np.empty(cfg.n_samples, dtype=np.int64)
    for chunk, lo in enumerate(range(0, cfg.n_samples, rows)):
        hi = min(lo + rows, cfg.n_samples)
        rng = np.random.default_rng(derive_seed(cfg.master_seed, points.bin.id, "chunk", chunk))
        samples[lo:hi] = draw(rng, hi - lo)
    return samples


def run_mc_test(
    points: PointTrack,
    segments: SegmentTrack,
    spec: NullModelSpec,
    cfg: MCConfig,
) -> TestResult:
    """Monte Carlo test of the points-in-segments count under ``spec``.

    The side named by the null model is resampled; the other track is held
    fixed at its observed location. A two-sided p-value is twice the
    smaller tail's, capped at 1.
    """
    observed = count_points_in_segments(points, segments)
    samples = null_counts(points, segments, spec, cfg)
    n_exceed = count_exceedances(samples, observed, cfg.direction)
    p = empirical_pvalue(n_exceed, cfg.n_samples, cfg.estimator_mode)
    if cfg.direction is Direction.TWO_SIDED:
        p = min(1.0, 2.0 * p)
    return TestResult(points.bin.id, float(observed), p, cfg.n_samples, n_exceed, spec)


# On 2 vCPUs a sample costs about 25-40 ns per element it permutes
# (``sample_size``) plus a fixed part of 1.25-1.7 us, measured under
# uniform-points, whose samples permute one element: that part is
# _SAMPLE_OVERHEAD elements. A two-worker pool adds about 30 ms to start,
# feed and stop, so it pays only for a batch that runs longer than about
# 60 ms in-process. On the 54 bins of a genome-scan batch it broke even at
# 1.1 times _POOL_MIN_WORK under block:100 and between 0.9 and 1.8 times
# it under preserve-interpoint.
_SAMPLE_OVERHEAD = 64
_POOL_MIN_WORK = 2**21


def map_jobs(fn: Callable, jobs: Sequence, workers: int) -> list:
    """``[fn(job) for job in jobs]``, on a process pool when ``workers > 1``.

    The caller decides whether a pool pays for itself (``run_mc_batch``
    passes 1 for a small batch). The pool hands out jobs in runs of
    ``len(jobs) // (4 * workers)``, at least 1, so many short jobs do not
    each pay a round trip while the last runs still balance the load.
    Results come back in job order either way.
    """
    if workers > 1:
        chunksize = max(1, len(jobs) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs, chunksize=chunksize))
    return [fn(job) for job in jobs]


def _run_one(args: tuple) -> tuple[TestResult | None, str | None]:
    points, segments, spec, cfg = args
    try:
        return run_mc_test(points, segments, spec, cfg), None
    except Exception as exc:  # collected by the batch driver
        return None, f"{points.bin.id}: {exc}"


def batch_work(
    tests: Sequence[tuple[PointTrack, SegmentTrack]], spec: NullModelSpec, cfg: MCConfig
) -> int:
    """The estimated cost of a batch: the sum over its tests of
    ``cfg.n_samples * (sample_size + _SAMPLE_OVERHEAD)``, known before any
    test runs."""
    return sum(
        cfg.n_samples * (sample_size(points, segments, spec) + _SAMPLE_OVERHEAD)
        for points, segments in tests
    )


def run_mc_batch(
    tests: Sequence[tuple[PointTrack, SegmentTrack]],
    spec: NullModelSpec,
    cfg: MCConfig,
    workers: int = 1,
) -> tuple[list[TestResult], list[str]]:
    """One test per (points, segments) pair; failures are collected, not fatal.

    ``workers`` is an upper bound: a batch whose ``batch_work`` is below
    ``_POOL_MIN_WORK`` runs in this process, because starting a pool would
    cost more than its tests. Per-bin sample streams are keyed by
    (master_seed, bin_id, chunk), so results do not depend on input order,
    on ``workers`` or on where the tests ran.
    """
    if not tests:
        raise ValueError("empty batch")
    if batch_work(tests, spec, cfg) < _POOL_MIN_WORK:
        workers = 1
    outcomes = map_jobs(_run_one, [(pts, segs, spec, cfg) for pts, segs in tests], workers)
    results = [r for r, _ in outcomes if r is not None]
    errors = [e for _, e in outcomes if e is not None]
    return results, errors


def write_results_tsv(
    results: Iterable[TestResult],
    path_or_file: PathLike | TextIO,
    config_echo: dict,
    n_points: dict[str, int],
) -> None:
    """TSV: bin_id, n_points, statistic, p_value, n_samples, null_model."""
    lines = ["bin_id\tn_points\tstatistic\tp_value\tn_samples\tnull_model"]
    for r in results:
        lines.append(
            f"{r.bin_id}\t{n_points[r.bin_id]}\t{fmt(r.observed)}\t{fmt(r.p_value)}"
            f"\t{r.n_samples}\t{r.null_model.to_string()}"
        )
    write_tsv(path_or_file, config_echo, lines)
