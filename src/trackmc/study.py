"""End-to-end experiment drivers.

Both experiments score independently generated track pairs under several
null models, one pair per replicate (``_pair``), and run every Monte Carlo
test through one ``mc.run_mc_batch``, under the pool rule of ``batch``.

``run_false_rejection_study`` crosses data-generation procedures (uniform,
clustered points, clustered segments) with testing assumptions (analytic
binomial, uniform-points MC, preserve-interpoint, uniform-segments); it
returns one p-value array per (assumption, column) cell, and
``rejection_counts`` counts each cell's rejections at the FDR level it is
given (the study's, ``STUDY_FDR``, is 0.20). Every rejection is a false one,
so the counts measure how many false positives an under-preserving null
model produces.

``run_ordering_experiment`` scores identical data under all four
track-level null models to expose the preservation ordering of p-values,
with clustered segments when ``cluster_segments`` is set; it returns one
p-value array per model name, which ``decile_table`` and the ordering
writers take as they are.

Replicates are pure functions of (master seed, experiment, replicate
index); worker count never changes any output. ``run_clustering_survey``
profiles the one point track of ``ripley``, one (bin_id, tau, k_hat, l_hat)
row per scale. Each writer writes the echo it is given and then its table,
whose values ``tracks.table_lines`` formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

# run_mc_test is not called here, but perfbench/tracer.py binds trackmc.study.run_mc_test.
from .mc import Direction, MCConfig, run_mc_batch, run_mc_test  # noqa: F401
from .null_models import (
    NullModelSpec,
    PRESERVE_INTERPOINT,
    PRESERVE_INTERSEGMENT,
    UNIFORM_POINTS,
    UNIFORM_SEGMENTS,
)
from .qvalues import estimate_pi0, qvalues, reject_at_fdr
from .ripley import estimate_l_profile
from .seeding import derive_seed
from .simulate import PointGenConfig, SegmentGenConfig, generate_points, generate_segments
from .stats import binomial_upper_pvalue, count_points_in_segments
from .tracks import (
    Bin,
    PathLike,
    PointTrack,
    SegmentTrack,
    coverage_fraction,
    table_lines,
    to_binary_sequence,
    write_tsv,
)


# The study's rows: a testing assumption's label and its null model, or None
# for the analytic binomial resolution of the uniform-points null.
ASSUMPTIONS: tuple[tuple[str, NullModelSpec | None], ...] = (
    ("uniform-point-location-analytic", None),
    ("uniform-point-location-mc", UNIFORM_POINTS),
    ("preserve-interpoint-distances", PRESERVE_INTERPOINT),
    ("uniform-segment-location-mc", UNIFORM_SEGMENTS),
)

# The study's columns: whether each generation procedure clusters its
# points and its segment starts.
_COLUMN_GENERATION = {
    "uniform": (False, False),
    "clustered-points": (True, False),
    "clustered-segments": (False, True),
}
GENERATION_COLUMNS = tuple(_COLUMN_GENERATION)

ORDERING_MODELS = (
    UNIFORM_POINTS,
    PRESERVE_INTERPOINT,
    UNIFORM_SEGMENTS,
    PRESERVE_INTERSEGMENT,
)


# The study's FDR level: a cell counts the tests whose q-value is at or below it.
STUDY_FDR = 0.20


@dataclass(frozen=True)
class StudyConfig:
    """The settings that both experiments read."""

    n_replicates: int = 100
    bin_length: int = 100_000
    mc_samples: int = 1000
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_replicates < 1:
            raise ValueError(f"n_replicates must be >= 1, got {self.n_replicates}")
        if self.bin_length < 1:
            raise ValueError("bin_length must be positive")
        MCConfig(n_samples=self.mc_samples)  # the sample count's rule, before any pair


def _pair(cfg: StudyConfig, key: tuple, bin_id: str, cluster_points: bool,
          cluster_segments: bool) -> tuple[PointTrack, SegmentTrack]:
    """An independent pair in bin ``bin_id`` (which keys its tests' chunk seeds):
    the points and then the segments, generated from seeds derived from ``key``."""
    bin = Bin(bin_id, 0, cfg.bin_length)
    point_cfg = PointGenConfig(clustered=cluster_points)
    segment_cfg = SegmentGenConfig(clustered=cluster_segments)
    return (generate_points(bin, point_cfg, derive_seed(cfg.master_seed, *key, "points")),
            generate_segments(bin, segment_cfg, derive_seed(cfg.master_seed, *key, "segments")))


def _mc_pvalues(cfg: StudyConfig, pairs: list, models: Sequence[NullModelSpec],
                direction: Direction, workers: int) -> np.ndarray:
    """p per pair (rows) under each of ``models`` (columns), from one
    ``run_mc_batch``; a failed test raises the batch's first error."""
    mc_cfg = MCConfig(n_samples=cfg.mc_samples, master_seed=cfg.master_seed, direction=direction)
    results, errors = run_mc_batch(pairs, models, mc_cfg, workers)
    if errors:
        raise ValueError(errors[0])
    return np.array([r.p_value for r in results]).reshape(len(pairs), len(models))


def run_false_rejection_study(
    cfg: StudyConfig, workers: int = 1
) -> dict[tuple[str, str], np.ndarray]:
    """p-values per (assumption, column) cell, one per replicate.

    Both tracks are always generated independently, so every rejection
    ``rejection_counts`` finds in a cell is a false one.
    """
    n = cfg.n_replicates
    pairs = [_pair(cfg, ("study", column, rep), f"{column}-{rep:04d}", *_COLUMN_GENERATION[column])
             for column in GENERATION_COLUMNS for rep in range(n)]
    models = [m for _, m in ASSUMPTIONS if m is not None]
    mc = iter(_mc_pvalues(cfg, pairs, models, Direction.GREATER, workers).T)
    analytic = np.array([binomial_upper_pvalue(count_points_in_segments(p, s), len(p),
                                               coverage_fraction(s)) for p, s in pairs])
    pvalues = {label: analytic if m is None else next(mc) for label, m in ASSUMPTIONS}
    return {(label, column): pvalues[label][i * n:(i + 1) * n]
            for label, _ in ASSUMPTIONS for i, column in enumerate(GENERATION_COLUMNS)}


def rejection_counts(
    pvalues: Mapping[tuple[str, str], np.ndarray], fdr: float
) -> dict[tuple[str, str], int]:
    """Per cell, the tests rejected when its p-values are corrected jointly
    by q-values at FDR threshold ``fdr``, which must lie in (0, 1)."""
    return {
        cell: int(reject_at_fdr(qvalues(ps, estimate_pi0(ps)), fdr).sum())
        for cell, ps in pvalues.items()
    }


def run_ordering_experiment(cfg: StudyConfig, cluster_segments: bool = False,
                            workers: int = 1) -> dict[str, np.ndarray]:
    """p-values for identical data under all four track-level null models.

    Returns one array of per-replicate p-values per model name, in
    ``ORDERING_MODELS`` order.

    Points are always clustered, and segments are when
    ``cluster_segments`` is set; the headline comparison is the median
    p under preserve-interpoint versus uniform-points.

    The tracks are generated independently of each other, so any departure
    from a null model registers in either tail; the test is two-sided. An
    under-preserving null then understates p across the whole range, which
    the per-decile comparisons expose: uniform-points against
    preserve-interpoint and uniform-segments against preserve-intersegment
    (the nested pair of each side), and on clustered data each uniform
    model against the other side's preserve model.
    """
    pairs = [_pair(cfg, ("ordering", rep), f"ordering-{rep:04d}", True, cluster_segments)
             for rep in range(cfg.n_replicates)]
    pvalues = _mc_pvalues(cfg, pairs, ORDERING_MODELS, Direction.TWO_SIDED, workers)
    return {m.to_string(): pvalues[:, j] for j, m in enumerate(ORDERING_MODELS)}


def decile_table(pvalues: Mapping[str, np.ndarray]) -> list[tuple[float, dict[str, float]]]:
    """Per-model p-value quantiles at the nine deciles 0.1, ..., 0.9."""
    return [
        (q, {label: float(np.quantile(p, q)) for label, p in pvalues.items()})
        for q in (i / 10 for i in range(1, 10))
    ]


def run_clustering_survey(
    track: PointTrack, scales: Sequence[int]
) -> list[tuple[str, int, float, float]]:
    """L of one track per scale: rows (bin_id, tau, k_hat, l_hat). Raises
    ``ValueError`` for too few points or a scale outside the bin."""
    l_values = estimate_l_profile(to_binary_sequence(track), scales)
    return [(track.bin.id, tau, l * 2.0 * tau, l) for tau, l in zip(map(int, scales), l_values)]


def write_study_tsv(
    counts: Mapping[tuple[str, str], int],
    path_or_file: PathLike | TextIO,
    config_echo: dict | None = None,
) -> None:
    """One row per assumption, one column per generation procedure."""
    rows = ((row, *(counts[(row, col)] for col in GENERATION_COLUMNS)) for row, _ in ASSUMPTIONS)
    write_tsv(path_or_file, config_echo, table_lines(("assumption", *GENERATION_COLUMNS), rows))


def write_ordering_tsv(
    pvalues: Mapping[str, np.ndarray],
    path_or_file: PathLike | TextIO,
    config_echo: dict | None = None,
) -> None:
    rows = ((rep, *row) for rep, row in enumerate(zip(*pvalues.values())))
    write_tsv(path_or_file, config_echo, table_lines(("replicate", *pvalues), rows))


def write_deciles_tsv(
    pvalues: Mapping[str, np.ndarray],
    path_or_file: PathLike | TextIO,
    config_echo: dict | None = None,
) -> None:
    rows = ((q, *row.values()) for q, row in decile_table(pvalues))
    write_tsv(path_or_file, config_echo, table_lines(("decile", *pvalues), rows))


def write_survey_tsv(
    rows: Iterable[tuple[str, int, float, float]],
    path_or_file: PathLike | TextIO,
    config_echo: dict | None = None,
) -> None:
    write_tsv(path_or_file, config_echo, table_lines(("bin_id", "tau", "k_hat", "l_hat"), rows))
