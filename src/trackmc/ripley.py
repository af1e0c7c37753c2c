"""Ripley's K and scaled L estimators for 1-D binary sequences.

L(t) = K(t) / (2t) reads as: 1 for independent points, above 1 for
attraction (clustering), below 1 for repulsion. A track that clusters at
the scale of the tested relation is a candidate for a distance-preserving
null model.

Positions are 1-indexed internally to match the usual estimator algebra;
the module boundary accepts ordinary 0-indexed sequences.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tracks import BinarySequence

DEFAULT_SCALES = (10, 25, 50, 100, 250, 500)


def pair_weight(i: int, j: int, n: int) -> float:
    """Edge-correction weight for a pair of 1-indexed coordinates.

    Equals 1 for any pair inside [1, n]; strictly between 0 and 1 when one
    coordinate lies outside.
    """
    if i == j:
        raise ValueError("pair weight is undefined for i == j")
    lo, hi = (i, j) if i < j else (j, i)
    return (min(hi, n) - max(lo, 1)) / (hi - lo)


def estimate_k(seq: BinarySequence, tau: int) -> float:
    """K estimator at distance ``tau``.

    Sums inverse pair weights over ordered point pairs within ``tau``
    (out-of-range indicators are zero), normalized by n * lambda_hat^2.
    Counts the pairs by binary search over the point positions, so cost
    scales with the points, not with n * tau.
    """
    n = len(seq)
    if not 1 <= tau < n:
        raise ValueError(f"tau must lie in [1, {n - 1}], got {tau}")
    positions = np.flatnonzero(seq.values).astype(np.int64) + 1
    m = positions.size
    if m < 2:
        raise ValueError("K undefined: need at least 2 points")
    lam = m / n
    # Every position lies in [1, n], so every pair_weight is exactly 1 and
    # the sum of inverse weights is the number of pairs i < j within tau.
    ends = np.searchsorted(positions, positions + tau, side="right")
    total = int((ends - np.arange(1, m + 1)).sum())
    return 2.0 * total / (n * lam * lam)


def estimate_l(seq: BinarySequence, tau: int) -> float:
    """Scaled estimator L(tau) = K(tau) / (2 * tau)."""
    return estimate_k(seq, tau) / (2.0 * tau)


def estimate_l_profile(seq: BinarySequence, scales: Sequence[int]) -> tuple[float, ...]:
    """L at each scale of the grid, in grid order (duplicates evaluated as given)."""
    return tuple(estimate_l(seq, int(tau)) for tau in scales)
