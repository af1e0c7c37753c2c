"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import importlib
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import hypergeom

import checks
import genome
import workloads
from tracer import BINDINGS, Binding, Tracer


def _lookup(binding: Binding):
    owner = importlib.import_module(binding.module)
    path, _, attr = binding.attr.rpartition(".")
    if path:
        return getattr(owner, path).__dict__[attr]
    return getattr(owner, attr)


# -- tracer -----------------------------------------------------------------

def test_tracer_restores_every_wrapped_function():
    originals = [_lookup(b) for b in BINDINGS]
    with Tracer():
        wrapped = [_lookup(b) for b in BINDINGS]
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(_lookup(b) is o for b, o in zip(BINDINGS, originals))


def test_tracer_restores_after_an_exception():
    originals = [_lookup(b) for b in BINDINGS]
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError
    assert all(_lookup(b) is o for b, o in zip(BINDINGS, originals))


def test_missing_name_is_reported_not_raised():
    bindings = BINDINGS + (Binding("trackmc.mc", "no_such_name", "seeding.derive_seed"),)
    with Tracer(bindings) as tracer:
        pass
    metrics, missing = tracer.metrics()
    assert "seeding.derive_seed.calls" in missing
    assert "seeding.calls_per_sample" in missing
    assert "seeding.derive_seed.calls" not in metrics
    assert "mc.samples" in metrics


def test_self_time_excludes_children():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = Tracer(bindings=(), clock=lambda: next(ticks))
    with tracer.span("mc.test"):
        with tracer.span("null_models.resample.block"):
            pass
    assert tracer.stat("mc.test").total == 10.0
    assert tracer.stat("mc.test").self_time == 8.0
    assert tracer.stat("null_models.resample.block").self_time == 2.0
    assert tracer.stat("null_models.resample.block").inside["mc.test"] == [1, 2.0]


# -- genome generator -------------------------------------------------------

def test_generator_is_deterministic():
    a, b, c = genome.make_genome(5), genome.make_genome(5), genome.make_genome(6)
    assert a.bins == b.bins and a.length == b.length
    assert np.array_equal(a.point_rows, b.point_rows)
    assert np.array_equal(a.segment_rows, b.segment_rows)
    assert not np.array_equal(a.point_rows[:100], c.point_rows[:100])


def test_generator_has_the_recorded_properties():
    g = genome.make_genome(7)
    starts = np.array([s for _, s, _ in g.bins])
    ends = np.array([e for _, _, e in g.bins])
    points = g.points
    assert np.unique(points).size == points.size
    idx = np.searchsorted(starts, points, side="right") - 1
    outside = (idx < 0) | (points >= ends[np.clip(idx, 0, None)])
    assert outside.any()
    rows = g.segment_rows
    assert (rows[1:, 0] < np.maximum.accumulate(rows[:, 1])[:-1]).any()  # overlaps
    assert ((rows[:, 0][:, None] < starts) & (rows[:, 1][:, None] > starts)).any()
    truths = checks.bin_truths(g.bins, points, rows)
    assert any(t.n_points < genome.MIN_POINTS for t in truths)
    assert len({t.length for t in truths}) > 1


# -- output checks ----------------------------------------------------------

@pytest.fixture(scope="module")
def scan(tmp_path_factory):
    """One real genome-scan pass at few samples, run in-process."""
    from trackmc.cli import main

    rundir = tmp_path_factory.mktemp("scan")
    calls = workloads.genome_scan(3, 1, rundir)
    cwd = Path.cwd()
    try:
        os.chdir(rundir)
        for call in calls:
            argv = list(call.argv)
            if "--samples" in argv:
                argv[argv.index("--samples") + 1] = str(workloads.SCAN_SAMPLES // 2)
            assert main(argv) == 0
    finally:
        os.chdir(cwd)
    return rundir, calls


def _batch_table(rundir: Path) -> checks.Table:
    return checks.read_table(rundir / "batch_uniform.tsv")


def _kept(seed: int) -> list[checks.BinTruth]:
    g = genome.make_genome(seed)
    return checks.kept_bins(checks.bin_truths(g.bins, g.points, g.segment_rows),
                            genome.MIN_POINTS, genome.MIN_SEGMENTS)


def _check_uniform(rundir: Path, table: checks.Table) -> checks.Outcome:
    return checks.check_batch(table, _kept(3), workloads.SCAN_SAMPLES // 2, "uniform-points")


def test_real_outputs_pass(scan):
    rundir, calls = scan
    for call in calls:
        if call.argv[0] == "batch":
            continue  # run at fewer samples than the call's check expects
        assert call.check(rundir).bad == 0
    assert _check_uniform(rundir, _batch_table(rundir)).bad == 0


def _corrupt(table: checks.Table, row: int, column: str, value: str) -> checks.Table:
    rows = [list(r) for r in table.rows]
    rows[row][table.header.index(column)] = value
    return checks.Table(table.echo, table.header, rows)


def test_check_rejects_pvalue_above_one(scan):
    rundir, _ = scan
    assert _check_uniform(rundir, _corrupt(_batch_table(rundir), 0, "p_value", "1.02")).bad == 1


def test_check_rejects_off_by_one_count(scan):
    rundir, _ = scan
    table = _batch_table(rundir)
    wrong = str(int(float(table.rows[2][2])) + 1)
    assert _check_uniform(rundir, _corrupt(table, 2, "statistic", wrong)).bad == 1


def test_check_rejects_pvalue_far_from_hypergeometric_tail(scan):
    rundir, _ = scan
    table = _batch_table(rundir)
    p = [float(x) for x in table.column("p_value")]
    row = int(np.argmax(p))  # a null bin; the floor 1/(n+1) is far below its tail
    floor = 1 / (workloads.SCAN_SAMPLES // 2 + 1)
    assert _check_uniform(rundir, _corrupt(table, row, "p_value", repr(floor))).bad == 1


def test_pooled_check_rejects_ties_left_out_of_the_count():
    """Counting ties with > instead of >= moves each bin by a few exceedances.

    Every bin alone still passes; the sum over the batch does not.
    """
    kept = _kept(3)
    samples = workloads.SCAN_SAMPLES

    def batch(ties: int) -> checks.Table:
        rows = []
        for t in kept:
            tail = hypergeom.sf(t.statistic - 1 + ties, t.length, t.covered, t.n_points)
            p = (round(samples * tail) + 1) / (samples + 1)
            rows.append([t.id, str(t.n_points), str(t.statistic), repr(p), str(samples),
                         "uniform-points"])
        return checks.Table({}, ["bin_id", "n_points", "statistic", "p_value", "n_samples",
                                 "null_model"], rows)

    assert checks.check_batch(batch(0), kept, samples, "uniform-points").bad == 0
    shifted = checks.check_batch(batch(1), kept, samples, "uniform-points")
    assert shifted.bad == len(kept)
    assert len(shifted.messages) == 1 and "summed exceedances" in shifted.messages[0]


def test_check_rejects_dropped_bin(scan):
    rundir, _ = scan
    table = _batch_table(rundir)
    table = checks.Table(table.echo, table.header, table.rows[1:])
    assert _check_uniform(rundir, table).bad >= 1


def test_check_rejects_wrong_qvalue(scan):
    rundir, _ = scan
    source = checks.read_table(rundir / "batch_uniform.tsv")
    table = checks.read_table(rundir / "qvalue_uniform.tsv")
    assert checks.check_qvalue(table, source, workloads.SCAN_FDR).bad == 0
    q = float(table.rows[0][-2])
    bad = _corrupt(table, 0, "q_value", repr(q * 1.01 + 1e-6))
    assert checks.check_qvalue(bad, source, workloads.SCAN_FDR).bad == 1


def test_check_rejects_wrong_ripley(scan):
    rundir, _ = scan
    g = genome.make_genome(3)
    table = checks.read_table(rundir / "ripley.tsv")
    scales = workloads.RIPLEY_SCALES
    assert checks.check_ripley(table, g.points, g.length, scales).bad == 0
    bad = _corrupt(table, 1, "k_hat", repr(float(table.rows[1][3]) * 1.001))
    assert checks.check_ripley(bad, g.points, g.length, scales).bad == 1


def test_study_and_ordering_checks_reject_corruption():
    header = ["assumption", *checks.STUDY_COLUMNS]
    rows = [[r, "0", "1", "2"] for r in checks.STUDY_ROWS]
    good = checks.Table({}, header, rows)
    assert checks.check_study(good, 2, 18).bad == 0
    assert checks.check_study(_corrupt(good, 1, "uniform", "3"), 2, 18).bad > 0

    pvals = np.array([[0.1, 0.2, 0.3, 0.4], [0.5, 0.6, 0.7, 0.8], [0.02, 0.9, 1.0, 0.05]])
    table = checks.Table({}, ["replicate", *checks.ORDERING_MODELS],
                         [[str(i), *(repr(float(x)) for x in row)] for i, row in enumerate(pvals)])
    probs = [i / 10 for i in range(1, 10)]
    deciles = checks.Table({}, ["decile", *checks.ORDERING_MODELS], [
        [repr(q), *(repr(float(np.quantile(pvals[:, j], q))) for j in range(4))]
        for q in probs])
    assert checks.check_ordering(table, deciles, 3, 1000).bad == 0
    assert checks.check_ordering(_corrupt(table, 0, "uniform-points", "1.5"),
                                 deciles, 3, 1000).bad > 0
    assert checks.check_ordering(table, _corrupt(deciles, 4, "uniform-segments", "0.9"),
                                 3, 1000).bad > 0
