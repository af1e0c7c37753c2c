"""Test statistics and the analytic binomial reference null.

The workhorse statistic is the number of points falling inside segments;
its normalized form is a weighted sum (1/n) * sum(y_i * x_i) over the
bin's indicator sequence, which the moment helpers reason about under a
stationarity assumption with a decaying correlation function.

The binomial tails are computed in-house, without scipy: P(T >= t) is the
regularized incomplete beta I_p(t, n - t + 1), evaluated by the continued
fraction of TOMS 708's ``bfrac`` (DiDonato & Morris 1992, "Algorithm 708:
significant digit computation of the incomplete beta function ratios").
The prefactor p^t (1 - p)^(n - t + 1) / B(t, n - t + 1) equals
t * dbinom(t, n, p) * (1 - p), taken from Loader's saddle-point binomial
pmf (Loader 2000, "Fast and accurate computation of binomial
probabilities"; also R's ``dbinom``), which stays accurate for n in the
millions where differences of ``lgamma`` values do not.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .tracks import PointTrack, SegmentTrack

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
    lf = _LOG_2PI + math.log(k) + math.log1p(-k / n)
    return math.exp(lc - 0.5 * lf)


def _beta_frac(a: float, b: float, x: float, y: float, lam: float) -> float:
    """Continued fraction r with I_x(a, b) = x^a y^b / B(a, b) * r, y = 1 - x.

    TOMS 708's ``bfrac`` (DiDonato & Morris 1992), given
    lam = (a + b) y - b formed by the caller without cancellation. Only
    relative errors of x and y enter the terms, so x may be a rounded
    1 - p. Converges quickly for lam > -1, which the branch choice in
    ``_binomial_tails`` ensures, in O(sqrt(max(a, b))) iterations at worst.
    """
    c = 1.0 + lam
    c0 = b / a
    c1 = 1.0 + 1.0 / a
    yp1 = y + 1.0
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, 100 + 10 * math.isqrt(int(a + b))):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (1.0 + t) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = 1.0 + t
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= 1e-15 * r:
            return r
        # Rescale so the recurrences stay in range.
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    raise ArithmeticError(f"incomplete beta fraction did not converge: a={a}, b={b}, x={x}")


def _binomial_tails(t: int, n: int, p: float) -> tuple[float, float]:
    """(P(T >= t), P(T < t)) under Binomial(n, p), arguments already checked.

    One continued fraction gives the smaller tail directly, so a tiny tail
    keeps its relative accuracy on either side; the other tail is its
    complement, so the two sum to 1 to rounding. The fraction's cancelling
    term is formed from p in both branches, so the rounding of q = 1 - p
    enters only as a relative error.
    """
    t, n, p = int(t), int(n), float(p)
    if t == 0 or t == n or p == 0.0 or p == 1.0:
        upper = 1.0 if t == 0 else p**n
        return upper, 1.0 - upper
    q = 1.0 - p
    a, b = t, n - t + 1
    # x^a y^b / B(a, b) in both orientations: dbinom(t, n, p) * q * a.
    front = _binomial_pmf(t, n, p, q) * q * a
    if p < (a + 1.0) / (a + b + 2.0):
        upper = front * _beta_frac(a, b, p, q, a - (a + b) * p)
        return upper, 1.0 - upper
    # I_q(b, a) = P(T < t).
    lower = front * _beta_frac(b, a, q, p, (a + b) * p - a)
    return 1.0 - lower, lower


def binomial_upper_pvalue(t: int, n: int, p: float) -> float:
    """P(T >= t) under Binomial(n, p), stable down to tiny tails."""
    _check_binomial_args(t, n, p)
    return _binomial_tails(t, n, p)[0]


def binomial_lower_pvalue(t: int, n: int, p: float) -> float:
    """P(T <= t) under Binomial(n, p), stable down to tiny tails."""
    _check_binomial_args(t, n, p)
    return 1.0 if t == n else _binomial_tails(t + 1, n, p)[1]


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
