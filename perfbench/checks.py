"""Output checks of every workload (what each checks: README.md).

Each check returns the number of units (MC tests, or one per non-MC call)
it found wrong and a message per problem; the runner counts those units
as failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.stats import binom, hypergeom

# An exceedance count outside the central 1 - 2 * ALPHA interval of
# Binomial(samples, exact tail) fails the hypergeometric check, and so does
# a batch whose summed exceedances fall outside the same interval of their
# exact summed distribution.  The chance of a false alarm is below 2e-7 per
# bin and 2e-7 per batch.
HYPERGEOM_ALPHA = 1e-7
# Outputs are printed with 12 significant digits.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Table:
    echo: dict[str, str]
    header: list[str]
    rows: list[list[str]]

    def column(self, name: str) -> list[str]:
        i = self.header.index(name)
        return [r[i] for r in self.rows]


def read_table(path: Path) -> Table:
    echo: dict[str, str] = {}
    header: list[str] = []
    rows: list[list[str]] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# ") and "=" in line:
            key, _, value = line[2:].partition("=")
            echo[key] = value
        elif line and not line.startswith("#"):
            if header:
                rows.append(line.split("\t"))
            else:
                header = line.split("\t")
    return Table(echo, header, rows)


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=1e-12)


@dataclass
class Outcome:
    bad: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, message: str, units: int = 1) -> None:
        self.bad += units
        self.messages.append(message)


# -- study ------------------------------------------------------------------

STUDY_ROWS = (
    "uniform-point-location-analytic",
    "uniform-point-location-mc",
    "preserve-interpoint-distances",
    "uniform-segment-location-mc",
)
STUDY_COLUMNS = ("uniform", "clustered-points", "clustered-segments")


def check_study(table: Table, replicates: int, tests: int) -> Outcome:
    """Rejection counts are integers in [0, replicates] on the full grid."""
    out = Outcome()
    if table.header != ["assumption", *STUDY_COLUMNS] or \
            [r[0] for r in table.rows] != list(STUDY_ROWS):
        out.fail("study table has the wrong rows or columns", tests)
        return out
    for row in table.rows:
        for col, cell in zip(STUDY_COLUMNS, row[1:]):
            if not cell.isdigit() or not 0 <= int(cell) <= replicates:
                out.fail(f"study {row[0]}/{col}: count {cell!r} not in [0, {replicates}]",
                         replicates)
    out.bad = min(out.bad, tests)
    return out


# -- ordering ---------------------------------------------------------------

ORDERING_MODELS = ("uniform-points", "preserve-interpoint", "uniform-segments",
                   "preserve-intersegment")


def check_pvalue(p: float, samples: int) -> bool:
    return (1.0 - REL_TOL) / (samples + 1) <= p <= 1.0


def check_ordering(table: Table, deciles: Table, replicates: int, samples: int) -> Outcome:
    """p-values in [1/(n+1), 1]; deciles are the quantiles of the table."""
    out = Outcome()
    tests = replicates * len(ORDERING_MODELS)
    if table.header != ["replicate", *ORDERING_MODELS] or len(table.rows) != replicates:
        out.fail("ordering table has the wrong shape", tests)
        return out
    for model in ORDERING_MODELS:
        for rep, cell in enumerate(table.column(model)):
            if not check_pvalue(float(cell), samples):
                out.fail(f"ordering {model} replicate {rep}: p={cell} out of range")
    probs = [i / 10 for i in range(1, 10)]
    if deciles.header != ["decile", *ORDERING_MODELS] or \
            [float(r[0]) for r in deciles.rows] != probs:
        out.fail("deciles table has the wrong shape", tests)
        return out
    for model in ORDERING_MODELS:
        values = np.array([float(c) for c in table.column(model)])
        for q, cell in zip(probs, deciles.column(model)):
            if not close(float(cell), float(np.quantile(values, q)), 1e-8):
                out.fail(f"decile {q} of {model}: {cell} is not the table's quantile")
    out.bad = min(out.bad, tests)
    return out


# -- genome scan ------------------------------------------------------------

@dataclass(frozen=True)
class BinTruth:
    """The benchmark's own count for one bin, after clipping and merging."""

    id: str
    length: int
    n_points: int
    n_segments: int
    covered: int
    statistic: int


def merge_clipped(rows: np.ndarray, start: int, end: int) -> list[tuple[int, int]]:
    """Clip rows to [start, end) and merge strictly overlapping ones."""
    merged: list[list[int]] = []
    for s, e in sorted((max(s, start), min(e, end)) for s, e in rows.tolist()
                       if s < end and e > start):
        if merged and s < merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return [(s, e) for s, e in merged]


def bin_truths(bins, points: np.ndarray, segment_rows: np.ndarray) -> list[BinTruth]:
    points = np.sort(points)
    out = []
    for bin_id, start, end in bins:
        pts = points[np.searchsorted(points, start):np.searchsorted(points, end)]
        segments = merge_clipped(segment_rows, start, end)
        covered = np.zeros(end - start, dtype=bool)
        for s, e in segments:
            covered[s - start:e - start] = True
        out.append(BinTruth(bin_id, end - start, int(pts.size), len(segments),
                            int(covered.sum()), int(covered[pts - start].sum())))
    return out


def kept_bins(truths: list[BinTruth], min_points: int, min_segments: int) -> list[BinTruth]:
    return [t for t in truths if t.n_points >= min_points and t.n_segments >= min_segments]


def hypergeom_tail(truth: BinTruth) -> float:
    """P(X >= observed), X ~ Hypergeom(bin length, covered bp, points)."""
    return float(hypergeom.sf(truth.statistic - 1, truth.length, truth.covered,
                              truth.n_points))


def exceedances(p: float, samples: int) -> int:
    """The exceedance count behind an add-one p-value (e + 1) / (n + 1)."""
    return round(p * (samples + 1)) - 1


def central(cdf_low: float, sf_high: float) -> bool:
    return min(cdf_low, sf_high) >= HYPERGEOM_ALPHA


def hypergeom_ok(p: float, tail: float, samples: int) -> bool:
    """One bin's exceedance count fits Binomial(samples, tail)."""
    exceed = exceedances(p, samples)
    return central(float(binom.cdf(exceed, samples, tail)),
                   float(binom.sf(exceed - 1, samples, tail)))


def pooled_hypergeom_ok(pvalues: list[float], tails: list[float], samples: int) -> bool:
    """The summed exceedance counts fit their exact distribution.

    A small bias in every bin, such as ties left out of the count, passes
    each bin's test but shows in the sum.  The sum of independent
    Binomial(samples, tail) counts has the convolution of their pmfs as
    its distribution.
    """
    pmf = np.ones(1)
    k = np.arange(samples + 1)
    for tail in tails:
        pmf = np.convolve(pmf, binom.pmf(k, samples, tail))
    total = sum(exceedances(p, samples) for p in pvalues)
    return central(float(pmf[:total + 1].sum()), float(pmf[total:].sum()))


def check_batch(table: Table, kept: list[BinTruth], samples: int, null_model: str) -> Outcome:
    """Bins, counts and p-values of one ``batch`` output.

    Under ``uniform-points`` the p-values are also compared with the exact
    hypergeometric tail, bin by bin and pooled over the batch.
    """
    out = Outcome()
    exact = null_model == "uniform-points"
    ids = [r[0] for r in table.rows] if table.header else []
    if table.header[:6] != ["bin_id", "n_points", "statistic", "p_value", "n_samples",
                            "null_model"]:
        out.fail("batch output has the wrong header", len(kept))
        return out
    if ids != [t.id for t in kept]:
        missing = len(set(t.id for t in kept) - set(ids))
        out.fail(f"batch tested {len(ids)} bins, expected {len(kept)}", max(missing, 1))
    truth = {t.id: t for t in kept}
    pooled: tuple[list[float], list[float]] = ([], [])
    for row in table.rows:
        bin_id, n_points, statistic, p_value, n_samples, model = row[:6]
        t = truth.get(bin_id)
        p = float(p_value)
        problem = None
        if t is None:
            problem = "not a bin that passes the filter"
        elif int(n_points) != t.n_points:
            problem = f"n_points {n_points} != {t.n_points}"
        elif float(statistic) != t.statistic:
            problem = f"statistic {statistic} != {t.statistic}"
        elif int(n_samples) != samples or model != null_model:
            problem = f"n_samples/null_model {n_samples}/{model}"
        elif not check_pvalue(p, samples):
            problem = f"p={p_value} outside [1/(n+1), 1]"
        elif exact:
            tail = hypergeom_tail(t)
            if hypergeom_ok(p, tail, samples):
                pooled[0].append(p)
                pooled[1].append(tail)
            else:
                problem = f"p={p_value} far from the hypergeometric tail"
        if problem:
            out.fail(f"batch {null_model} {bin_id}: {problem}")
    if exact and not pooled_hypergeom_ok(*pooled, samples):
        out.fail(f"batch {null_model}: summed exceedances over {len(pooled[0])} bins "
                 "far from the summed hypergeometric tails", len(kept))
    out.bad = min(out.bad, max(len(kept), 1))
    return out


def reference_qvalues(p: np.ndarray, pi0: float) -> np.ndarray:
    m = p.size
    order = np.argsort(p, kind="stable")
    q_sorted = np.minimum.accumulate((m * pi0 * p[order] / np.arange(1, m + 1))[::-1])[::-1]
    q = np.empty(m)
    q[order] = np.minimum(q_sorted, 1.0)
    return q


def check_qvalue(table: Table, source: Table, fdr: float) -> Outcome:
    """pi0, q-values and rejections recomputed from the input p-values."""
    out = Outcome()
    if table.header != source.header + ["q_value", "rejected"] or \
            [r[:len(source.header)] for r in table.rows] != source.rows:
        out.fail("qvalue output does not carry its input rows")
        return out
    p = np.array([float(x) for x in source.column("p_value")])
    pi0 = min(1.0, 2.0 * float(p.mean()))
    if not close(float(table.echo.get("pi0", "nan")), pi0):
        out.fail(f"pi0 {table.echo.get('pi0')} != {pi0}")
    for row, q_ref in zip(table.rows, reference_qvalues(p, pi0)):
        q, rejected = float(row[-2]), row[-1]
        if not close(q, float(q_ref)) or rejected != ("1" if q <= fdr else "0"):
            out.fail(f"qvalue {row[0]}: q={row[-2]} rejected={rejected}, expected {q_ref:.12g}")
    out.bad = min(out.bad, 1)
    return out


def check_ripley(table: Table, points: np.ndarray, length: int, scales) -> Outcome:
    """K by a pair count: every edge weight is 1 on the whole-genome bin."""
    out = Outcome()
    pos = np.sort(points)
    m = pos.size
    if table.echo.get("n_points") != str(m) or [int(x) for x in table.column("tau")] != \
            list(scales):
        out.fail("ripley output has the wrong points or scales")
        return out
    lam = m / length
    for tau, k_hat, l_hat in zip(scales, table.column("k_hat"), table.column("l_hat")):
        pairs = int((np.searchsorted(pos, pos + tau, side="right") - np.arange(1, m + 1)).sum())
        k_ref = 2.0 * pairs / (length * lam * lam)
        if not close(float(k_hat), k_ref) or not close(float(l_hat), k_ref / (2.0 * tau)):
            out.fail(f"ripley tau={tau}: k_hat={k_hat} l_hat={l_hat}, expected K={k_ref:.12g}")
    out.bad = min(out.bad, 1)
    return out
