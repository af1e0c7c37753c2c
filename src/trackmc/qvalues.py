"""q-values and FDR-threshold rejection.

For ordered p-values p_(1) <= ... <= p_(m), the q-value of the test at
rank i is min over j >= i of m * pi0 * p_(j) / j, capped at 1; pi0 is the
estimated proportion of truly null hypotheses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class QValueEntry:
    id: str
    p_value: float
    q_value: float
    rejected: bool = False


@dataclass(frozen=True)
class QValueReport:
    entries: tuple[QValueEntry, ...]
    pi0: float
    fdr_threshold: float | None = None

    @property
    def n_rejected(self) -> int:
        return sum(e.rejected for e in self.entries)


def estimate_pi0(pvalues: Sequence[float]) -> float:
    """Pounds-Cheng style estimate: min(1, 2 * mean(p)).

    Cheap, and conservative whenever the p-value distribution is a mixture
    of uniform nulls and small alternatives.
    """
    p = np.asarray(pvalues, dtype=np.float64)
    if p.size == 0:
        raise ValueError("cannot estimate pi0 from an empty p-value list")
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("p-values must lie in [0, 1]")
    return min(1.0, 2.0 * float(np.mean(p)))


def qvalues(pvalues: Sequence[float], pi0: float | None = None) -> QValueReport:
    """q-value per test, reported in input order; entry ids are the indices.

    ``pi0=None`` uses :func:`estimate_pi0`; pass a value to substitute any
    other estimator. Ties in p-values are ranked stably by input index,
    which cannot change the q-values.
    """
    p = np.asarray(pvalues, dtype=np.float64)
    if p.size == 0:
        raise ValueError("empty p-value list")
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("p-values must lie in [0, 1]")
    if pi0 is None:
        pi0 = estimate_pi0(p)
    if not 0.0 < pi0 <= 1.0:
        raise ValueError(f"pi0 must lie in (0, 1], got {pi0}")

    m = p.size
    order = np.argsort(p, kind="stable")
    terms = m * pi0 * p[order] / np.arange(1, m + 1)
    q_sorted = np.minimum.accumulate(terms[::-1])[::-1]
    q = np.empty(m, dtype=np.float64)
    q[order] = np.minimum(q_sorted, 1.0)

    entries = tuple(QValueEntry(str(i), float(p[i]), float(q[i])) for i in range(m))
    return QValueReport(entries=entries, pi0=float(pi0))


def reject_at_fdr(report: QValueReport, threshold: float) -> QValueReport:
    """Flag every entry with q-value at or below the FDR threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"FDR threshold must lie in (0, 1), got {threshold}")
    entries = tuple(
        replace(e, rejected=bool(e.q_value <= threshold)) for e in report.entries
    )
    return QValueReport(entries=entries, pi0=report.pi0, fdr_threshold=threshold)
