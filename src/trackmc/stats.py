"""Test statistics and the analytic binomial reference null.

The workhorse statistic is the number of points falling inside segments;
its normalized form is a weighted sum (1/n) * sum(y_i * x_i) over the
bin's indicator sequence, which the moment helpers reason about under a
stationarity assumption with a decaying correlation function.
"""

from __future__ import annotations

import enum

import numpy as np
from scipy.stats import binom

from .tracks import BinarySequence, PointTrack, SegmentTrack

# One weight per base pair of the bin.
WeightVector = np.ndarray


class Direction(enum.Enum):
    GREATER = "greater"
    LESS = "less"
    TWO_SIDED = "two-sided"


def count_points_in_segments(points: PointTrack, segments: SegmentTrack) -> int:
    """Number of point positions covered by any segment.

    Both tracks must live in the same bin.
    """
    if points.bin != segments.bin:
        raise ValueError(
            f"bin mismatch: points in {points.bin.id!r}, segments in {segments.bin.id!r}"
        )
    return int(_count_in_intervals(points.positions, segments.segments))


def _count_in_intervals(positions: np.ndarray, intervals: np.ndarray) -> np.ndarray:
    """Positions inside any of the disjoint sorted intervals, counted along
    the last axis, so a 2-D array of positions gives one count per row."""
    # Locate each position's candidate interval by binary search on the
    # starts, then test against that interval's end; the sentinel end
    # rejects positions before the first start.
    ends = np.concatenate(([np.iinfo(np.int64).min], intervals[:, 1]))
    idx = np.searchsorted(intervals[:, 0], positions, side="right")
    return (positions < ends[idx]).sum(axis=-1)


def segment_indicator_weights(segments: SegmentTrack) -> np.ndarray:
    """Per-base-pair 0/1 weight vector marking covered coordinates."""
    y = np.zeros(segments.bin.length, dtype=np.float64)
    for start, end in segments.segments:
        y[start - segments.bin.start : end - segments.bin.start] = 1.0
    return y


def weighted_sum_statistic(seq: BinarySequence, weights: WeightVector) -> float:
    """(1/n) * sum(y_i * x_i) for an indicator sequence x and weights y."""
    y = np.asarray(weights, dtype=np.float64)
    n = len(seq)
    if y.size != n:
        raise ValueError(f"length mismatch: {n} indicators vs {y.size} weights")
    return float(np.dot(y, seq.values)) / n


def _check_binomial_args(t: int, n: int, p: float) -> None:
    if not 0 <= t <= n:
        raise ValueError(f"need 0 <= t <= n, got t={t}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"need 0 <= p <= 1, got p={p}")


def binomial_upper_pvalue(t: int, n: int, p: float) -> float:
    """P(T >= t) under Binomial(n, p), stable down to tiny tails."""
    _check_binomial_args(t, n, p)
    return float(min(1.0, binom.sf(t - 1, n, p)))


def binomial_lower_pvalue(t: int, n: int, p: float) -> float:
    """P(T <= t) under Binomial(n, p)."""
    _check_binomial_args(t, n, p)
    return float(min(1.0, binom.cdf(t, n, p)))


def binomial_lower_strict(t: int, n: int, p: float) -> float:
    """P(T < t) under Binomial(n, p); complements :func:`binomial_upper_pvalue`."""
    _check_binomial_args(t, n, p)
    return float(binom.cdf(t - 1, n, p))


def binomial_pvalue(t: int, n: int, p: float, direction: Direction = Direction.GREATER) -> float:
    """Tail probability for the requested direction.

    Two-sided doubles the smaller of the inclusive tails, capped at 1.
    """
    if direction is Direction.GREATER:
        return binomial_upper_pvalue(t, n, p)
    if direction is Direction.LESS:
        return binomial_lower_pvalue(t, n, p)
    return min(1.0, 2.0 * min(binomial_upper_pvalue(t, n, p), binomial_lower_pvalue(t, n, p)))


def statistic_moments_under_stationarity(
    lam: float,
    sigma2: float,
    rho: np.ndarray,
    weights: WeightVector,
) -> tuple[float, float]:
    """Mean and variance of (1/n) * sum(y_i * X_i) for stationary X.

    Assumes E(X_i) = lam, Var(X_i) = sigma2 and Cov(X_i, X_j) =
    sigma2 * rho(|i - j|) with ``rho`` tabulated by distance (``rho[0]``
    must be 1) and zero beyond its tabulated support. ``rho`` must be
    non-negative and non-increasing, the regime in which preserving more
    short-range correlation can only inflate the variance.

    Runs in O(n * d_max) using the finite support of ``rho``.
    """
    y = np.asarray(weights, dtype=np.float64).reshape(-1)
    r = np.asarray(rho, dtype=np.float64).reshape(-1)
    if r.size < 1 or abs(r[0] - 1.0) > 1e-12:
        raise ValueError("rho[0] (distance zero) must equal 1")
    if np.any(r < 0.0):
        raise ValueError("rho must be non-negative")
    if np.any(np.diff(r) > 0.0):
        raise ValueError("rho must be non-increasing with distance")
    n = y.size
    if n == 0:
        raise ValueError("weights must be non-empty")
    mean = lam * float(y.sum()) / n
    acc = float(np.dot(y, y))
    for d in range(1, min(r.size, n)):
        if r[d] == 0.0:
            continue
        acc += 2.0 * r[d] * float(np.dot(y[:-d], y[d:]))
    variance = sigma2 * acc / (n * n)
    return mean, variance
