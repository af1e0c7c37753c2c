"""Test statistics and the analytic binomial reference null.

The workhorse statistic is the number of points falling inside segments.
Its binomial reference null is the upper tail P(T >= t), the one the
study's analytic rows report.

The binomial tails are computed in-house, without scipy, from Loader's
saddle-point binomial pmf (Loader 2000, "Fast and accurate computation of
binomial probabilities"; also R's ``dbinom``), which stays accurate for n
in the millions where differences of ``lgamma`` values do not. The smaller
tail, beyond t as seen from the mode, is summed from t outwards by the
ratio of successive terms; the other tail is its complement.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .tracks import PointTrack, SegmentTrack


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


_INT64_MIN = int(np.iinfo(np.int64).min)


def _count_in_intervals(positions: np.ndarray, intervals: np.ndarray) -> np.ndarray:
    """Positions inside any of the disjoint sorted intervals, counted along
    the last axis, so a 2-D array of positions gives one count per row."""
    # Locate each position's candidate interval by binary search on the
    # starts, then test against that interval's end; the sentinel end
    # rejects positions before the first start.
    ends = np.concatenate(([_INT64_MIN], intervals[:, 1]))
    idx = np.searchsorted(intervals[:, 0], positions, side="right")
    return (positions < ends[idx]).sum(axis=-1)


def _check_binomial_args(t: int, n: int, p: float) -> None:
    if not 0 <= t <= n:
        raise ValueError(f"need 0 <= t <= n, got t={t}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"need 0 <= p <= 1, got p={p}")


_LOG_2PI = math.log(2.0 * math.pi)


def _stirlerr(k: int) -> float:
    """log(k!) - log(sqrt(2 pi k) (k / e)^k), the error of Stirling's formula."""
    if k <= 15:
        # Direct; its absolute error (~1e-14) enters the log pmf additively.
        return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - 0.5 * _LOG_2PI
    kk = float(k) * k
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * kk)) / kk) / kk) / kk) / k


def _bd0(x: float, mean: float) -> float:
    """x log(x / mean) + mean - x, by its series when x is near ``mean``."""
    d = x - mean
    if abs(d) >= 0.1 * (x + mean):
        return x * math.log(x / mean) + mean - x
    v = d / (x + mean)
    s = d * v
    term = 2.0 * x * v
    v *= v
    j = 3
    while True:
        term *= v
        s_next = s + term / j
        if s_next == s:
            return s
        s = s_next
        j += 2


def _binomial_pmf(k: int, n: int, p: float, q: float) -> float:
    """P(T = k) for 0 < k < n and 0 < p < 1, q = 1 - p (Loader's dbinom)."""
    lc = _stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * p) - _bd0(n - k, n * q)
    # log(k (n - k) / n) from exact integers keeps the pmf symmetric under
    # (k, p) <-> (n - k, q), which the lower tail relies on.
    lf = _LOG_2PI + math.log(k * (n - k) / n)
    return math.exp(lc - 0.5 * lf)


def _tail_sum(k: int, n: int, p: float, q: float) -> float:
    """P(T >= k) for k past the mode, summed upwards by the ratio of
    successive terms until a term is below 2**-53 of the sum, or at j = n."""
    term = total = _binomial_pmf(k, n, p, q)
    while term > total * 2.0**-53 and k < n:
        term *= (n - k) / (k + 1) * p / q
        k += 1
        total += term
    return total


def _binomial_tails(t: int, n: int, p: float) -> tuple[float, float]:
    """(P(T >= t), P(T < t)) under Binomial(n, p), arguments already checked.

    The tail beyond t as seen from the mode is summed term by term, so a
    tiny tail keeps its relative accuracy on either side; the other tail is
    its complement, so the two sum to 1 to rounding.
    """
    t, n, p = int(t), int(n), float(p)
    if t == 0 or t == n or p == 0.0 or p == 1.0:
        upper = 1.0 if t == 0 else p**n
        return upper, 1.0 - upper
    q = 1.0 - p
    if t > (n + 1) * p:
        upper = _tail_sum(t, n, p, q)
        return upper, 1.0 - upper
    # P(T < t) = P(n - T > n - t), the upper tail of Binomial(n, q).
    # P(T = 0) = q^n, from p itself: the rounding of q grows n-fold in q**n.
    lower = math.exp(n * math.log1p(-p)) if t == 1 else _tail_sum(n - t + 1, n, q, p)
    return 1.0 - lower, lower


def binomial_upper_pvalue(t: int, n: int, p: float) -> float:
    """P(T >= t) under Binomial(n, p), stable down to tiny tails."""
    _check_binomial_args(t, n, p)
    return _binomial_tails(t, n, p)[0]
