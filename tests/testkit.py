"""Shared test helpers: input files and chi-square checks of sampled laws.

Imported by name (``from testkit import ...``) rather than from
``conftest``: pytest loads every directory's conftest.py as the same
module name, so ``from conftest import`` can reach the wrong one.
"""

import numpy as np
from scipy.stats import chi2_contingency, chisquare

from trackmc.null_models import SPELLINGS, NullModelSpec

# One spec per entry of null_models.MODELS, in table order, block:<k> as
# block:4. Tests parametrized over it run every model, and a model with no
# oracle fails them.
ALL_MODELS = tuple(NullModelSpec.from_string(s.replace("<k>", "4")) for s in SPELLINGS)


def write_lines(path, rows):
    path.write_text("".join(f"{r}\n" for r in rows))
    return str(path)


def assert_uniform_chisquare(counts, alpha=0.01):
    """Goodness-of-fit of observed state counts against the uniform law."""
    counts = np.asarray(counts, dtype=float)
    assert counts.min() >= 0
    stat, p = chisquare(counts)
    assert p > alpha, f"chi-square GOF rejected uniformity: p={p:.2e}"


def assert_chisquare_fit(counts, expected, alpha=0.01):
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(expected, dtype=float)
    expected = expected * counts.sum() / expected.sum()
    stat, p = chisquare(counts, expected)
    assert p > alpha, f"chi-square GOF rejected fit: p={p:.2e}"


def pool_columns(table, weight, least=20.0):
    """Merge adjacent columns, left to right, until each group's summed
    ``weight`` reaches ``least``; a lighter remainder joins the last group.
    Keeps chi-square cells away from tiny expected counts."""
    table = np.asarray(table, dtype=float)
    cuts, acc = [], 0.0
    for j, w in enumerate(weight):
        acc += w
        if acc >= least:
            cuts.append(j + 1)
            acc = 0.0
    cuts = cuts or [table.shape[-1]]
    cuts[-1] = table.shape[-1]
    bounds = [0] + cuts
    return np.stack([table[..., a:b].sum(axis=-1) for a, b in zip(bounds, bounds[1:])], axis=-1)


def assert_same_distribution(a, b, alpha=0.001):
    """Two-sample chi-square test that two integer samples share one law."""
    values = np.union1d(a, b)
    table = np.array([[np.count_nonzero(x == v) for v in values] for x in (a, b)])
    table = pool_columns(table, table.sum(axis=0))
    if table.shape[1] < 2:
        return
    p = chi2_contingency(table)[1]
    assert p > alpha, f"two-sample chi-square rejected equal laws: p={p:.2e}"
