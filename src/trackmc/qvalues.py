"""q-values and FDR-threshold rejection.

For ordered p-values p_(1) <= ... <= p_(m), the q-value of the test at
rank i is min over j >= i of m * pi0 * p_(j) / j, capped at 1; pi0 is the
estimated proportion of truly null hypotheses.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _as_pvalues(pvalues: Sequence[float]) -> np.ndarray:
    """The p-values as a float64 array; NaN fails the range check too."""
    p = np.asarray(pvalues, dtype=np.float64)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("p-values must lie in [0, 1]")
    return p


def check_pi0(pi0: float) -> None:
    """Raise ``ValueError`` unless ``pi0`` lies in (0, 1]."""
    if not 0.0 < pi0 <= 1.0:
        raise ValueError(f"pi0 must lie in (0, 1], got {pi0}")


def check_fdr(threshold: float) -> None:
    """Raise ``ValueError`` unless the FDR level ``threshold`` lies in (0, 1)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"FDR threshold must lie in (0, 1), got {threshold}")


def estimate_pi0(pvalues: Sequence[float]) -> float:
    """Pounds-Cheng style estimate: min(1, 2 * mean(p)).

    Cheap, and conservative whenever the p-value distribution is a mixture
    of uniform nulls and small alternatives. It is 1 when every p-value is
    0: those say nothing of the null share, and give 0 q-values under any
    pi0.
    """
    p = _as_pvalues(pvalues)
    if p.size == 0:
        raise ValueError("cannot estimate pi0 from an empty p-value list")
    return min(1.0, 2.0 * float(np.mean(p))) or 1.0


def qvalues(pvalues: Sequence[float], pi0: float) -> np.ndarray:
    """q-value per test, as a float64 array in input order.

    ``pi0`` is the proportion of true nulls, for example from
    :func:`estimate_pi0`. Ties in p-values are ranked stably by input index,
    which cannot change the q-values.
    """
    p = _as_pvalues(pvalues)
    if p.size == 0:
        raise ValueError("empty p-value list")
    check_pi0(pi0)

    m = p.size
    order = np.argsort(p, kind="stable")
    terms = m * pi0 * p[order] / np.arange(1, m + 1)
    q_sorted = np.minimum.accumulate(terms[::-1])[::-1]
    q = np.empty(m, dtype=np.float64)
    q[order] = np.minimum(q_sorted, 1.0)
    return q


def reject_at_fdr(q_values: np.ndarray, threshold: float) -> np.ndarray:
    """Boolean mask of the tests whose q-value is at or below the FDR threshold."""
    check_fdr(threshold)
    return np.asarray(q_values) <= threshold
