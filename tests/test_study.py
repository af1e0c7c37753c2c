import io

import numpy as np
import pytest

from trackmc import (
    Bin,
    PointGenConfig,
    PointMode,
    PointTrack,
    SegmentGenConfig,
    SegmentTrack,
    StudyConfig,
    decile_table,
    derive_seed,
    filter_bins,
    generate_points,
    run_clustering_survey,
    run_false_rejection_study,
    run_ordering_experiment,
)
from trackmc.study import (
    GENERATION_COLUMNS,
    write_ordering_tsv,
    write_study_tsv,
    write_survey_tsv,
)
from dataclasses import replace


def per_bin_fixture(counts):
    """bins plus per-bin tracks holding the requested point counts."""
    bins, points, segments = [], {}, {}
    for i, n in enumerate(counts):
        b = Bin(f"bin{i:03d}", 0, 1000)
        bins.append(b)
        points[b.id] = PointTrack(b, np.arange(n) * 3)
        segments[b.id] = SegmentTrack(b, [(0, 100)])
    return bins, points, segments


class TestFilterBins:
    def test_threshold_excludes_sparse_bin(self):
        bins, points, segments = per_bin_fixture([4, 5, 7])
        kept = filter_bins(bins, points, segments, min_points=5, min_segments=1)
        assert [b.id for b in kept] == ["bin001", "bin002"]

    def test_zero_thresholds_identity(self):
        bins, points, segments = per_bin_fixture([0, 2])
        kept = filter_bins(bins, points, segments, min_points=0, min_segments=0)
        assert kept == bins

    def test_73_of_100_fixture(self):
        # 73 bins meet the (>=5 points, >=1 segment) bar by construction.
        counts = [5 + (i % 7) if i < 73 else 4 for i in range(100)]
        bins, points, segments = per_bin_fixture(counts)
        kept = filter_bins(bins, points, segments, min_points=5, min_segments=1)
        assert len(kept) == 73
        assert kept == bins[:73]

    def test_segment_threshold(self):
        bins, points, segments = per_bin_fixture([10, 10])
        empty_bin = bins[0]
        segments[empty_bin.id] = SegmentTrack(empty_bin, [])
        kept = filter_bins(bins, points, segments, min_points=1, min_segments=1)
        assert [b.id for b in kept] == ["bin001"]


SMALL_STUDY = StudyConfig(
    n_replicates=8, bin_length=20_000, mc_samples=150, master_seed=404
)


class TestFalseRejectionStudy:
    def test_report_shape_and_bounds(self):
        report = run_false_rejection_study(SMALL_STUDY)
        assert report.columns == GENERATION_COLUMNS
        assert len(report.rows) == 4
        assert set(report.counts) == {(r, c) for r in report.rows for c in report.columns}
        for count in report.counts.values():
            assert 0 <= count <= SMALL_STUDY.n_replicates
        for ps in report.pvalues.values():
            assert len(ps) == SMALL_STUDY.n_replicates
            assert all(0.0 <= p <= 1.0 for p in ps)

    def test_worker_count_does_not_change_report(self):
        serial = run_false_rejection_study(SMALL_STUDY, workers=1)
        parallel = run_false_rejection_study(SMALL_STUDY, workers=2)
        assert serial.counts == parallel.counts
        assert serial.pvalues == parallel.pvalues

    def test_analytic_and_mc_rows_agree_loosely(self):
        report = run_false_rejection_study(SMALL_STUDY)
        for col in report.columns:
            analytic = np.array(report.pvalues[("uniform-point-location-analytic", col)])
            mc = np.array(report.pvalues[("uniform-point-location-mc", col)])
            assert np.max(np.abs(analytic - mc)) < 0.15

    def test_study_tsv(self, tmp_path):
        report = run_false_rejection_study(SMALL_STUDY)
        out = tmp_path / "study.tsv"
        write_study_tsv(report, out, {"seed": 404})
        lines = out.read_text().splitlines()
        assert lines[0] == "# seed=404"
        header = lines[3].split("\t")
        assert header == ["assumption", *GENERATION_COLUMNS]
        assert len(lines) == 4 + len(report.rows)


SMALL_ORDERING = replace(
    SMALL_STUDY,
    segment_config=SegmentGenConfig(clustered=True),
    n_replicates=10,
)


class TestOrderingExperiment:
    def test_shape_and_determinism_across_workers(self):
        serial = run_ordering_experiment(SMALL_ORDERING, workers=1)
        parallel = run_ordering_experiment(SMALL_ORDERING, workers=2)
        assert list(serial) == [
            "uniform-points",
            "preserve-interpoint",
            "uniform-segments",
            "preserve-intersegment",
        ]
        for label in serial:
            assert np.array_equal(serial[label], parallel[label])
            assert serial[label].shape == (10,)

    def test_independent_data_medians_close(self):
        # Both point-side nulls are correct for independent points, so their
        # medians agree to within sampling noise.
        cfg = StudyConfig(
            n_replicates=60,
            bin_length=20_000,
            mc_samples=300,
            master_seed=11,
            point_config=PointGenConfig(mode=PointMode.INDEPENDENT),
        )
        result = run_ordering_experiment(cfg, workers=2)
        med_u = float(np.median(result["uniform-points"]))
        med_p = float(np.median(result["preserve-interpoint"]))
        assert abs(med_u - med_p) <= 0.1

    def test_decile_table_shape(self):
        result = run_ordering_experiment(SMALL_ORDERING)
        table = decile_table(result)
        assert [q for q, _ in table] == pytest.approx([i / 10 for i in range(1, 10)])
        for _, row in table:
            assert set(row) == set(result)

    def test_ordering_tsv(self, tmp_path):
        result = run_ordering_experiment(SMALL_ORDERING)
        out = tmp_path / "ord.tsv"
        write_ordering_tsv(result, out, {"replicates": 10})
        lines = out.read_text().splitlines()
        assert lines[1].startswith("replicate\tuniform-points")
        assert len(lines) == 2 + 10


class TestClusteringSurvey:
    @staticmethod
    def _tracks(mode, n, length=10_000):
        cfg = PointGenConfig(mode=mode)
        return [
            generate_points(Bin(f"{mode.value}-{i}", 0, length), cfg, derive_seed("svy", mode.value, i))
            for i in range(n)
        ]

    def test_clustered_tracks_cluster(self):
        rows, failures = run_clustering_survey(self._tracks(PointMode.CLUSTERED, 50), [50])
        assert not failures
        l_values = [l for *_, l in rows]
        assert np.mean([l > 1.0 for l in l_values]) > 0.9

    def test_independent_tracks_near_one(self):
        rows, failures = run_clustering_survey(self._tracks(PointMode.INDEPENDENT, 50), [50])
        assert not failures
        assert 0.9 <= np.median([l for *_, l in rows]) <= 1.1

    def test_empty_scales_empty_table(self):
        rows, failures = run_clustering_survey(self._tracks(PointMode.INDEPENDENT, 3), [])
        assert rows == [] and failures == []

    def test_failures_collected_survey_continues(self):
        good = self._tracks(PointMode.INDEPENDENT, 2)
        sparse = PointTrack(Bin("sparse", 0, 100), [7])
        rows, failures = run_clustering_survey([sparse] + good, [10])
        assert len(failures) == 1 and failures[0][1] == "sparse"
        assert len(rows) == 2

    def test_survey_tsv(self):
        rows, _ = run_clustering_survey(self._tracks(PointMode.INDEPENDENT, 2), [10, 25])
        buf = io.StringIO()
        write_survey_tsv(rows, buf, {"scales": "10,25"})
        lines = buf.getvalue().splitlines()
        assert lines[1] == "track\tbin_id\ttau\tk_hat\tl_hat"
        assert len(lines) == 2 + 4


class TestStudyConfigValidation:
    def test_bad_replicates(self):
        with pytest.raises(ValueError):
            StudyConfig(n_replicates=0)

    def test_bad_fdr(self):
        with pytest.raises(ValueError):
            StudyConfig(fdr_threshold=1.0)
