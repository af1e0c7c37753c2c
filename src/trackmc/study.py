"""End-to-end experiment drivers.

``run_false_rejection_study`` crosses data-generation procedures (uniform,
clustered points, clustered segments) with testing assumptions (analytic
binomial, uniform-points MC, preserve-interpoint, uniform-segments) on
independently generated track pairs, counts FDR-corrected rejections per
cell, and so measures how many false positives an under-preserving null
model produces.

``run_ordering_experiment`` scores identical data under all four
track-level null models to expose the preservation ordering of p-values;
it returns one p-value array per model name, which ``decile_table`` and the
ordering writers take as they are.

Replicates are pure functions of (master seed, experiment, replicate
index); worker count never changes any output.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from .mc import Direction, MCConfig, map_jobs, run_mc_test
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
from .simulate import (
    PointGenConfig,
    PointMode,
    SegmentGenConfig,
    generate_points,
    generate_segments,
)
from .stats import binomial_upper_pvalue, count_points_in_segments
from .tracks import (
    Bin,
    PathLike,
    PointTrack,
    SegmentTrack,
    coverage_fraction,
    fmt,
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

# The study's columns: each generation procedure's point mode and whether
# its segment starts are clustered.
_COLUMN_GENERATION = {
    "uniform": (PointMode.INDEPENDENT, False),
    "clustered-points": (PointMode.CLUSTERED, False),
    "clustered-segments": (PointMode.INDEPENDENT, True),
}
GENERATION_COLUMNS = tuple(_COLUMN_GENERATION)

ORDERING_MODELS = (
    UNIFORM_POINTS,
    PRESERVE_INTERPOINT,
    UNIFORM_SEGMENTS,
    PRESERVE_INTERSEGMENT,
)


@dataclass(frozen=True)
class StudyConfig:
    n_replicates: int = 100
    bin_length: int = 100_000
    fdr_threshold: float = 0.20
    mc_samples: int = 1000
    master_seed: int = 0
    point_config: PointGenConfig = field(
        default_factory=lambda: PointGenConfig(mode=PointMode.CLUSTERED)
    )
    segment_config: SegmentGenConfig = field(default_factory=SegmentGenConfig)

    def __post_init__(self) -> None:
        if self.n_replicates < 1:
            raise ValueError(f"n_replicates must be >= 1, got {self.n_replicates}")
        if not 0.0 < self.fdr_threshold < 1.0:
            raise ValueError(f"fdr_threshold must lie in (0, 1), got {self.fdr_threshold}")
        if self.bin_length < 1:
            raise ValueError("bin_length must be positive")


@dataclass(frozen=True)
class StudyReport:
    rows: tuple[str, ...]
    columns: tuple[str, ...]
    counts: Mapping[tuple[str, str], int]
    pvalues: Mapping[tuple[str, str], tuple[float, ...]]
    n_replicates: int
    fdr_threshold: float


def filter_bins(
    bins: Sequence[Bin],
    points_by_bin: Mapping[str, PointTrack],
    segments_by_bin: Mapping[str, SegmentTrack],
    min_points: int,
    min_segments: int,
) -> list[Bin]:
    """Bins with enough data on both tracks, input order preserved."""
    return [
        b
        for b in bins
        if len(points_by_bin[b.id]) >= min_points
        and len(segments_by_bin[b.id]) >= min_segments
    ]


def _generate_pair(
    cfg: StudyConfig,
    point_config: PointGenConfig,
    segment_config: SegmentGenConfig,
    bin_id: str,
    key: tuple,
) -> tuple[PointTrack, SegmentTrack]:
    """Independent point and segment tracks in one bin, seeded by ``key``."""
    bin = Bin(bin_id, 0, cfg.bin_length)
    points = generate_points(bin, point_config, derive_seed(cfg.master_seed, *key, "points"))
    segments = generate_segments(
        bin, segment_config, derive_seed(cfg.master_seed, *key, "segments")
    )
    return points, segments


def _study_replicate(args: tuple) -> tuple[str, int, dict[str, float]]:
    cfg, column, rep = args
    mode, clustered = _COLUMN_GENERATION[column]
    points, segments = _generate_pair(
        cfg,
        replace(cfg.point_config, mode=mode),
        replace(cfg.segment_config, clustered=clustered),
        f"{column}-{rep:04d}",
        ("study", column, rep),
    )
    mc_cfg = MCConfig(n_samples=cfg.mc_samples, master_seed=cfg.master_seed)
    out: dict[str, float] = {}
    for label, null_model in ASSUMPTIONS:
        if null_model is None:
            t = count_points_in_segments(points, segments)
            out[label] = binomial_upper_pvalue(t, len(points), coverage_fraction(segments))
        else:
            out[label] = run_mc_test(points, segments, null_model, mc_cfg).p_value
    return column, rep, out


def run_false_rejection_study(cfg: StudyConfig, workers: int = 1) -> StudyReport:
    """Rejection counts per (assumption row, generation column) cell.

    Each cell's p-values are corrected jointly by q-values at
    ``cfg.fdr_threshold``; both tracks are always generated independently,
    so every rejection is a false one.
    """
    jobs = [
        (cfg, column, rep)
        for column in GENERATION_COLUMNS
        for rep in range(cfg.n_replicates)
    ]
    outcomes = map_jobs(_study_replicate, jobs, workers)
    pvals: dict[tuple[str, str], list[float]] = {
        (label, col): [0.0] * cfg.n_replicates
        for label, _ in ASSUMPTIONS
        for col in GENERATION_COLUMNS
    }
    for column, rep, row_p in outcomes:
        for label, p in row_p.items():
            pvals[(label, column)][rep] = p
    counts: dict[tuple[str, str], int] = {}
    for key, ps in pvals.items():
        counts[key] = int(reject_at_fdr(qvalues(ps, estimate_pi0(ps)), cfg.fdr_threshold).sum())
    return StudyReport(
        rows=tuple(label for label, _ in ASSUMPTIONS),
        columns=GENERATION_COLUMNS,
        counts=counts,
        pvalues={k: tuple(v) for k, v in pvals.items()},
        n_replicates=cfg.n_replicates,
        fdr_threshold=cfg.fdr_threshold,
    )


def _ordering_replicate(args: tuple) -> dict[str, float]:
    cfg, rep = args
    points, segments = _generate_pair(
        cfg, cfg.point_config, cfg.segment_config, f"ordering-{rep:04d}", ("ordering", rep)
    )
    mc_cfg = MCConfig(
        n_samples=cfg.mc_samples,
        master_seed=cfg.master_seed,
        direction=Direction.TWO_SIDED,
    )
    return {
        model.to_string(): run_mc_test(points, segments, model, mc_cfg).p_value
        for model in ORDERING_MODELS
    }


def run_ordering_experiment(cfg: StudyConfig, workers: int = 1) -> dict[str, np.ndarray]:
    """p-values for identical data under all four track-level null models.

    Returns one array of per-replicate p-values per model name, in
    ``ORDERING_MODELS`` order.

    Meant to be run with clustered generation; the headline comparison is
    the median p under preserve-interpoint versus uniform-points.

    The tracks are generated independently of each other, so any departure
    from a null model registers in either tail; the test is two-sided. An
    under-preserving null then understates p across the whole range, which
    the per-decile comparisons expose: uniform-points against
    preserve-interpoint and uniform-segments against preserve-intersegment
    (the nested pair of each side), and on clustered data each uniform
    model against the other side's preserve model.
    """
    jobs = [(cfg, rep) for rep in range(cfg.n_replicates)]
    outcomes = map_jobs(_ordering_replicate, jobs, workers)
    labels = [m.to_string() for m in ORDERING_MODELS]
    return {label: np.array([row[label] for row in outcomes]) for label in labels}


def decile_table(pvalues: Mapping[str, np.ndarray]) -> list[tuple[float, dict[str, float]]]:
    """Per-model p-value quantiles at the nine deciles 0.1, ..., 0.9."""
    return [
        (q, {label: float(np.quantile(p, q)) for label, p in pvalues.items()})
        for q in (i / 10 for i in range(1, 10))
    ]


def run_clustering_survey(
    tracks: Sequence[PointTrack], scales: Sequence[int]
) -> tuple[list[tuple[int, str, int, float, float]], list[tuple[int, str, str]]]:
    """L per (track, scale): rows (index, bin_id, tau, k_hat, l_hat).

    Per-track failures (too few points, bad scale) are collected and the
    survey continues.
    """
    rows: list[tuple[int, str, int, float, float]] = []
    failures: list[tuple[int, str, str]] = []
    for idx, track in enumerate(tracks):
        try:
            l_values = estimate_l_profile(to_binary_sequence(track), scales)
        except ValueError as exc:
            failures.append((idx, track.bin.id, str(exc)))
            continue
        for tau, l_val in zip(map(int, scales), l_values):
            rows.append((idx, track.bin.id, tau, l_val * 2.0 * tau, l_val))
    return rows, failures


def write_study_tsv(
    report: StudyReport, path_or_file: PathLike | TextIO, config_echo: dict | None = None
) -> None:
    lines = [
        f"# rejected_out_of={report.n_replicates}",
        f"# fdr_threshold={fmt(report.fdr_threshold)}",
        "assumption\t" + "\t".join(report.columns),
    ]
    for row in report.rows:
        cells = "\t".join(str(report.counts[(row, col)]) for col in report.columns)
        lines.append(f"{row}\t{cells}")
    write_tsv(path_or_file, config_echo, lines)


def write_ordering_tsv(
    pvalues: Mapping[str, np.ndarray],
    path_or_file: PathLike | TextIO,
    config_echo: dict | None = None,
) -> None:
    lines = ["replicate\t" + "\t".join(pvalues)]
    for rep, row in enumerate(zip(*pvalues.values())):
        cells = "\t".join(fmt(float(p)) for p in row)
        lines.append(f"{rep}\t{cells}")
    write_tsv(path_or_file, config_echo, lines)


def write_deciles_tsv(
    pvalues: Mapping[str, np.ndarray],
    path_or_file: PathLike | TextIO,
    config_echo: dict | None = None,
) -> None:
    lines = ["decile\t" + "\t".join(pvalues)]
    for q, row in decile_table(pvalues):
        cells = "\t".join(fmt(v) for v in row.values())
        lines.append(f"{fmt(q)}\t{cells}")
    write_tsv(path_or_file, config_echo, lines)


def write_survey_tsv(
    rows: Iterable[tuple[int, str, int, float, float]],
    path_or_file: PathLike | TextIO,
    config_echo: dict | None = None,
) -> None:
    lines = ["track\tbin_id\ttau\tk_hat\tl_hat"]
    for idx, bin_id, tau, k_hat, l_hat in rows:
        lines.append(f"{idx}\t{bin_id}\t{tau}\t{fmt(k_hat)}\t{fmt(l_hat)}")
    write_tsv(path_or_file, config_echo, lines)
