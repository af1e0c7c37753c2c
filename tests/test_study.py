import io

import numpy as np
import pytest

from trackmc import (
    ASSUMPTIONS,
    Bin,
    Direction,
    GENERATION_COLUMNS,
    ORDERING_MODELS,
    PRESERVE_INTERPOINT,
    PointGenConfig,
    PointTrack,
    StudyConfig,
    UNIFORM_POINTS,
    decile_table,
    derive_seed,
    generate_points,
    rejection_counts,
    run_clustering_survey,
    run_false_rejection_study,
    run_ordering_experiment,
)
import trackmc.mc
from trackmc.mc import MCConfig, run_mc_batch
from trackmc.study import (
    STUDY_FDR,
    _COLUMN_GENERATION,
    _pair,
    write_ordering_tsv,
    write_study_tsv,
    write_survey_tsv,
)
from dataclasses import fields, replace


SMALL_STUDY = StudyConfig(
    n_replicates=8, bin_length=20_000, mc_samples=150, master_seed=404
)


def _batch_work(pairs, models, cfg):
    return trackmc.mc.batch_work(pairs, models, MCConfig(n_samples=cfg.mc_samples))


class TestFalseRejectionStudy:
    def test_report_shape_and_bounds(self):
        pvalues = run_false_rejection_study(SMALL_STUDY)
        assert list(pvalues) == [(r, c) for r, _ in ASSUMPTIONS for c in GENERATION_COLUMNS]
        for ps in pvalues.values():
            assert ps.dtype == np.float64 and ps.shape == (SMALL_STUDY.n_replicates,)
            assert np.all((ps >= 0.0) & (ps <= 1.0))
        counts = rejection_counts(pvalues, STUDY_FDR)
        assert set(counts) == set(pvalues)
        for count in counts.values():
            assert 0 <= count <= SMALL_STUDY.n_replicates

    def test_worker_count_does_not_change_report(self):
        # The study's batch reaches the pool's threshold, so workers=2 pools.
        pairs = [_pair(SMALL_STUDY, ("study", column, rep), f"{column}-{rep:04d}",
                       *_COLUMN_GENERATION[column])
                 for column in GENERATION_COLUMNS for rep in range(SMALL_STUDY.n_replicates)]
        models = [m for _, m in ASSUMPTIONS if m is not None]
        assert _batch_work(pairs, models, SMALL_STUDY) >= trackmc.mc._POOL_MIN_WORK
        serial = run_false_rejection_study(SMALL_STUDY, workers=1)
        parallel = run_false_rejection_study(SMALL_STUDY, workers=2)
        assert serial.keys() == parallel.keys()
        for cell in serial:
            assert np.array_equal(serial[cell], parallel[cell])

    def test_analytic_and_mc_rows_agree_loosely(self):
        pvalues = run_false_rejection_study(SMALL_STUDY)
        for col in GENERATION_COLUMNS:
            analytic = pvalues[("uniform-point-location-analytic", col)]
            mc = pvalues[("uniform-point-location-mc", col)]
            assert np.max(np.abs(analytic - mc)) < 0.15

    def test_rejection_counts(self):
        # pi0 = 2 * mean = 0.8515; the q-values are 0.0034, 0.0034, 0.766
        # and 0.766, so two fall at or below 0.2.
        pvalues = {("a", "b"): np.array([0.8, 0.001, 0.9, 0.002]), ("a", "c"): np.ones(3)}
        assert rejection_counts(pvalues, 0.2) == {("a", "b"): 2, ("a", "c"): 0}

    def test_study_tsv(self, tmp_path):
        counts = rejection_counts(run_false_rejection_study(SMALL_STUDY), STUDY_FDR)
        out = tmp_path / "study.tsv"
        write_study_tsv(counts, out, {"seed": 404})
        lines = out.read_text().splitlines()
        assert lines[0] == "# seed=404"
        header = lines[1].split("\t")
        assert header == ["assumption", *GENERATION_COLUMNS]
        assert len(lines) == 2 + len(ASSUMPTIONS)


SMALL_ORDERING = replace(SMALL_STUDY, n_replicates=10)


class TestOrderingExperiment:
    def test_shape_and_determinism_across_workers(self):
        # The ordering batch reaches the pool's threshold, so workers=2 pools.
        pairs = [_pair(SMALL_ORDERING, ("ordering", rep), f"ordering-{rep:04d}", True, True)
                 for rep in range(SMALL_ORDERING.n_replicates)]
        assert _batch_work(pairs, ORDERING_MODELS, SMALL_ORDERING) >= trackmc.mc._POOL_MIN_WORK
        serial = run_ordering_experiment(SMALL_ORDERING, cluster_segments=True, workers=1)
        parallel = run_ordering_experiment(SMALL_ORDERING, cluster_segments=True, workers=2)
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
        # medians agree to within sampling noise. The ordering experiment
        # clusters its points, so its replicates are scored here with
        # independent points under its own seed keys.
        cfg = StudyConfig(n_replicates=60, bin_length=20_000, mc_samples=300, master_seed=11)
        pairs = [_pair(cfg, ("ordering", rep), f"ordering-{rep:04d}", False, False)
                 for rep in range(cfg.n_replicates)]
        mc_cfg = MCConfig(n_samples=cfg.mc_samples, master_seed=cfg.master_seed,
                          direction=Direction.TWO_SIDED)
        results, errors = run_mc_batch(pairs, [UNIFORM_POINTS, PRESERVE_INTERPOINT], mc_cfg, 2)
        assert errors == []
        med_u = float(np.median([r.p_value for r in results[0::2]]))
        med_p = float(np.median([r.p_value for r in results[1::2]]))
        assert abs(med_u - med_p) <= 0.1

    def test_decile_table_shape(self):
        result = run_ordering_experiment(SMALL_ORDERING, cluster_segments=True)
        table = decile_table(result)
        assert [q for q, _ in table] == pytest.approx([i / 10 for i in range(1, 10)])
        for _, row in table:
            assert set(row) == set(result)

    def test_ordering_tsv(self, tmp_path):
        result = run_ordering_experiment(SMALL_ORDERING, cluster_segments=True)
        out = tmp_path / "ord.tsv"
        write_ordering_tsv(result, out, {"replicates": 10})
        lines = out.read_text().splitlines()
        assert lines[1].startswith("replicate\tuniform-points")
        assert len(lines) == 2 + 10


class TestClusteringSurvey:
    @staticmethod
    def _tracks(clustered, n, length=10_000):
        mode = "clustered" if clustered else "independent"
        cfg = PointGenConfig(clustered=clustered)
        return [
            generate_points(Bin(f"{mode}-{i}", 0, length), cfg, derive_seed("svy", mode, i))
            for i in range(n)
        ]

    @staticmethod
    def _survey(tracks, scales):
        return [row for track in tracks for row in run_clustering_survey(track, scales)]

    def test_clustered_tracks_cluster(self):
        rows = self._survey(self._tracks(True, 50), [50])
        l_values = [l for *_, l in rows]
        assert np.mean([l > 1.0 for l in l_values]) > 0.9

    def test_independent_tracks_near_one(self):
        rows = self._survey(self._tracks(False, 50), [50])
        assert 0.9 <= np.median([l for *_, l in rows]) <= 1.1

    def test_empty_scales_empty_table(self):
        assert self._survey(self._tracks(False, 3), []) == []

    def test_one_point_track_raises(self):
        sparse = PointTrack(Bin("sparse", 0, 100), [7])
        with pytest.raises(ValueError, match="at least 2 points"):
            run_clustering_survey(sparse, [10])

    def test_rows_of_one_track(self):
        (track,) = self._tracks(False, 1)
        rows = run_clustering_survey(track, [10, 25])
        assert [(bin_id, tau) for bin_id, tau, *_ in rows] == [(track.bin.id, 10), (track.bin.id, 25)]
        assert all(k == pytest.approx(l * 2.0 * tau) for _, tau, k, l in rows)

    def test_survey_tsv(self):
        rows = self._survey(self._tracks(False, 2), [10, 25])
        buf = io.StringIO()
        write_survey_tsv(rows, buf, {"scales": "10,25"})
        lines = buf.getvalue().splitlines()
        assert lines[1] == "bin_id\ttau\tk_hat\tl_hat"
        assert len(lines) == 2 + 4


class TestStudyConfigValidation:
    def test_bad_replicates(self):
        with pytest.raises(ValueError):
            StudyConfig(n_replicates=0)

    def test_bad_samples(self):
        # MCConfig's rule and text, checked after the replicates and bin length.
        with pytest.raises(ValueError, match=r"^n_samples must be >= 1, got 0$"):
            StudyConfig(mc_samples=0)
        with pytest.raises(ValueError, match="^bin_length must be positive$"):
            StudyConfig(bin_length=0, mc_samples=0)

    def test_bad_fdr(self):
        pvalues = {("a", "b"): np.array([0.8, 0.001, 0.9, 0.002])}
        with pytest.raises(ValueError, match=r"FDR threshold must lie in \(0, 1\), got 1.0"):
            rejection_counts(pvalues, 1.0)

    @pytest.mark.parametrize("field", [{"fdr_threshold": 0.1}, {"cluster_segments": True}],
                             ids=lambda field: next(iter(field)))
    def test_no_inert_fields(self, field):
        # Each field is one that both experiments read; the FDR level is an
        # argument of rejection_counts, and the segment switch one of
        # run_ordering_experiment.
        assert [f.name for f in fields(StudyConfig)] == [
            "n_replicates", "bin_length", "mc_samples", "master_seed"]
        with pytest.raises(TypeError):
            StudyConfig(**field)
