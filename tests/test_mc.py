import numpy as np
import pytest

from trackmc import (
    Bin,
    ConfigError,
    Direction,
    EstimatorMode,
    MCConfig,
    PointTrack,
    PRESERVE_INTERPOINT,
    PRESERVE_INTERSEGMENT,
    SegmentTrack,
    UNIFORM_POINTS,
    UNIFORM_SEGMENTS,
    binomial_upper_pvalue,
    coverage_fraction,
    derive_seed,
    empirical_pvalue,
    run_mc_batch,
    run_mc_test,
)
import trackmc.mc
from trackmc import null_models
from trackmc.mc import count_exceedances, null_counts, write_results_tsv
from trackmc.null_models import (
    NullModelSpec, Preservation, RandomizedSide, chunk_rows, sample_counts, sample_size,
)
from reference import resample_track

ALL_MODELS = (
    UNIFORM_POINTS,
    PRESERVE_INTERPOINT,
    UNIFORM_SEGMENTS,
    PRESERVE_INTERSEGMENT,
    NullModelSpec.from_string("block:4"),
)


def small_case():
    b = Bin("case", 0, 200)
    points = PointTrack(b, [3, 40, 41, 90, 150, 180])
    segments = SegmentTrack(b, [(0, 50), (120, 160)])
    return points, segments


class TestMCConfig:
    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigError):
            MCConfig(n_samples=0)

    def test_defaults(self):
        cfg = MCConfig(n_samples=10)
        assert cfg.estimator_mode is EstimatorMode.ADD_ONE
        assert cfg.direction is Direction.GREATER


class TestEmpiricalPvalue:
    def test_raw(self):
        assert empirical_pvalue(3, 10, EstimatorMode.RAW) == 0.3

    def test_add_one(self):
        assert empirical_pvalue(0, 10_000, EstimatorMode.ADD_ONE) == 1 / 10_001

    def test_count_exceedances_ties_inclusive(self):
        samples = np.array([1, 2, 2, 3])
        assert count_exceedances(samples, 2, Direction.GREATER) == 3
        assert count_exceedances(samples, 2, Direction.LESS) == 3
        assert count_exceedances(samples, 2, Direction.TWO_SIDED) == 3

    def test_exceedances_monotone_in_observed(self):
        rng = np.random.default_rng(3)
        samples = rng.integers(0, 50, size=500)
        counts = [
            count_exceedances(samples, obs, Direction.GREATER) for obs in range(51)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestRunMcTest:
    def test_observed_zero_gives_p_one_raw(self):
        b = Bin("b", 0, 100)
        points = PointTrack(b, [60, 70, 80])  # none inside segments
        segments = SegmentTrack(b, [(0, 50)])
        cfg = MCConfig(n_samples=200, master_seed=1, estimator_mode=EstimatorMode.RAW)
        result = run_mc_test(points, segments, UNIFORM_POINTS, cfg)
        assert result.observed == 0.0
        assert result.p_value == 1.0

    def test_full_cover_all_ties(self):
        b = Bin("b", 0, 40)
        points = PointTrack(b, [1, 5, 9])
        segments = SegmentTrack(b, [(0, 40)])
        for mode in EstimatorMode:
            cfg = MCConfig(n_samples=50, master_seed=2, estimator_mode=mode)
            result = run_mc_test(points, segments, UNIFORM_POINTS, cfg)
            assert result.n_exceed == 50
            assert result.p_value == 1.0

    def test_zero_exceedances_add_one_floor(self):
        b = Bin("b", 0, 1000)
        points = PointTrack(b, range(8))  # all inside the 1% covered prefix
        segments = SegmentTrack(b, [(0, 10)])
        cfg = MCConfig(n_samples=99, master_seed=3)
        result = run_mc_test(points, segments, UNIFORM_POINTS, cfg)
        assert result.n_exceed == 0
        assert result.p_value == 1 / 100

    def test_bin_mismatch(self):
        points = PointTrack(Bin("a", 0, 10), [1])
        segments = SegmentTrack(Bin("b", 0, 10), [(0, 5)])
        with pytest.raises(ValueError, match="bin mismatch"):
            run_mc_test(points, segments, UNIFORM_POINTS, MCConfig(n_samples=5))

    def test_deterministic_in_master_seed(self):
        points, segments = small_case()
        cfg = MCConfig(n_samples=300, master_seed=11)
        a = run_mc_test(points, segments, UNIFORM_POINTS, cfg)
        b = run_mc_test(points, segments, UNIFORM_POINTS, cfg)
        assert a == b
        c = run_mc_test(points, segments, UNIFORM_POINTS, MCConfig(n_samples=300, master_seed=12))
        assert c.n_exceed != a.n_exceed or c.p_value == a.p_value

    def test_two_sided_doubles_smaller_side(self):
        points, segments = small_case()
        base = dict(n_samples=400, master_seed=21)
        p_g = run_mc_test(points, segments, UNIFORM_POINTS, MCConfig(direction=Direction.GREATER, **base))
        p_l = run_mc_test(points, segments, UNIFORM_POINTS, MCConfig(direction=Direction.LESS, **base))
        p_2 = run_mc_test(points, segments, UNIFORM_POINTS, MCConfig(direction=Direction.TWO_SIDED, **base))
        assert p_2.p_value == pytest.approx(min(1.0, 2 * min(p_g.p_value, p_l.p_value)))
        assert p_2.n_exceed == min(p_g.n_exceed, p_l.n_exceed)

    def test_segment_randomization_keeps_points_fixed(self):
        points, segments = small_case()
        cfg = MCConfig(n_samples=200, master_seed=31)
        result = run_mc_test(points, segments, UNIFORM_SEGMENTS, cfg)
        assert result.observed == 4.0
        assert 0.0 < result.p_value <= 1.0

    def test_block_null_model(self):
        points, segments = small_case()
        spec = NullModelSpec(RandomizedSide.POINTS, Preservation.UNIFORM_LOCATION, block_size=10)
        result = run_mc_test(points, segments, spec, MCConfig(n_samples=100, master_seed=41))
        assert result.null_model.block_size == 10
        assert 0.0 < result.p_value <= 1.0

    def test_agrees_with_analytic_binomial(self):
        # Quick version of the acceptance agreement check.
        rng = np.random.default_rng(51)
        b = Bin("b", 0, 5000)
        points = PointTrack(b, np.sort(rng.choice(5000, 120, replace=False)))
        segments = SegmentTrack(b, [(0, 1000), (2000, 3500)])
        cfg = MCConfig(n_samples=4000, master_seed=52, estimator_mode=EstimatorMode.RAW)
        result = run_mc_test(points, segments, UNIFORM_POINTS, cfg)
        analytic = binomial_upper_pvalue(int(result.observed), 120, coverage_fraction(segments))
        assert result.p_value == pytest.approx(analytic, abs=0.03)


class TestEstimatorValidity:
    # Each model's observed track is a reference draw from a template, and
    # the model's state space is the same from any of its states, so the
    # observed and sampled counts are exchangeable.
    VALIDITY_BIN = Bin("v", 0, 20)
    TEMPLATES = {
        "points": (PointTrack(VALIDITY_BIN, [0, 1, 2]), SegmentTrack(VALIDITY_BIN, [(0, 8)])),
        "segments": (
            PointTrack(VALIDITY_BIN, [1, 6, 12]),
            SegmentTrack(VALIDITY_BIN, [(0, 4), (9, 11)]),
        ),
    }

    @pytest.mark.parametrize("spec", ALL_MODELS, ids=lambda s: s.to_string())
    def test_add_one_pvalue_is_valid_under_true_null(self, spec):
        # Observed data drawn from the same null: P(p <= a) <= a for every
        # achievable a, up to Monte Carlo noise (3 SEs).
        side = "segments" if spec.randomized_side is RandomizedSide.SEGMENTS else "points"
        points, segments = self.TEMPLATES[side]
        n_rep, n_samples = 10_000, 99
        pvals = np.empty(n_rep)
        for rep in range(n_rep):
            if side == "points":
                points = resample_track(self.TEMPLATES[side][0], spec, derive_seed("obs", rep))
            else:
                segments = resample_track(self.TEMPLATES[side][1], spec, derive_seed("obs", rep))
            cfg = MCConfig(n_samples=n_samples, master_seed=derive_seed("val", rep))
            pvals[rep] = run_mc_test(points, segments, spec, cfg).p_value
        for k in range(1, n_samples + 2):
            alpha = k / (n_samples + 1)
            phat = float((pvals <= alpha).mean())
            slack = 3 * np.sqrt(alpha * (1 - alpha) / n_rep)
            assert phat <= alpha + slack, f"alpha={alpha}: phat={phat}"


class TestSampleStream:
    @pytest.mark.parametrize("spec", ALL_MODELS, ids=lambda s: s.to_string())
    def test_prefix_is_stable(self, spec):
        points, segments = small_case()
        r = chunk_rows(points, segments, spec)
        short = null_counts(points, segments, spec, MCConfig(n_samples=r, master_seed=7))
        longer = null_counts(points, segments, spec, MCConfig(n_samples=3 * r + 5, master_seed=7))
        longest = null_counts(points, segments, spec, MCConfig(n_samples=3 * r + 9, master_seed=7))
        assert np.array_equal(short, longer[:r])
        assert np.array_equal(longer[: 3 * r], longest[: 3 * r])

    @staticmethod
    def _big_case():
        # 40,001 points and 30,000 segments in a 200 kb bin: every model's
        # chunk is narrower than 64 rows.
        b = Bin("big", 0, 200_000)
        points = PointTrack(b, np.arange(0, 200_001, 5)[:-1])
        starts = np.arange(30_000) * 6
        segments = SegmentTrack(b, np.column_stack((starts, starts + 3)))
        return points, segments

    def test_models_of_one_bin_share_chunk_seeds(self, monkeypatch):
        # The model is not in the chunk key, so every model scored on one bin
        # draws from the same chunk streams.
        points, segments = small_case()
        seen = []
        real = trackmc.mc.derive_seed
        monkeypatch.setattr(trackmc.mc, "derive_seed", lambda *key: seen.append(key) or real(*key))
        keys = {}
        for spec in ALL_MODELS:
            seen.clear()
            run_mc_test(points, segments, spec, MCConfig(n_samples=150, master_seed=5))
            keys[spec.to_string()] = list(seen)
        assert keys["uniform-points"] == [(5, "case", "chunk", c) for c in range(3)]
        assert all(k == keys["uniform-points"] for k in keys.values())

    @pytest.mark.parametrize("name,size", [
        ("uniform-points", 1),
        ("preserve-interpoint", 39_999),
        ("uniform-segments", 59_999),
        ("preserve-intersegment", 59_999),
        ("block:10", 20_000),
        ("block:1", 200_000),
    ])
    def test_rows_per_chunk_are_bounded(self, monkeypatch, name, size):
        spec = NullModelSpec.from_string(name)
        points, segments = self._big_case()
        rows = []
        real = trackmc.mc.prepare_counts

        def recording(points, segments, spec, prepared_rows):
            draw = real(points, segments, spec, prepared_rows)

            def recorded(rng, m):
                rows.append(m)
                return draw(rng, m)
            return recorded

        monkeypatch.setattr(trackmc.mc, "prepare_counts", recording)
        assert sample_size(points, segments, spec) == size
        n_samples = 150
        counts = null_counts(points, segments, spec, MCConfig(n_samples=n_samples, master_seed=3))
        assert counts.shape == (n_samples,)
        bound = min(64, max(1, 2**20 // size))
        assert sum(rows) == n_samples and max(rows) <= bound
        assert rows[:-1] == [bound] * (len(rows) - 1)


class TestPreparedTest:
    """A test is prepared once and its chunks draw into the prepared arrays;
    nothing may carry over from one chunk or test to the next."""

    # Two full 64-row chunks and a 10-row one.
    N_SAMPLES = 138

    @staticmethod
    def _case(bin_id="prep", seed=0, length=20_000):
        # 100 points and 50 segments: the full chunks read the table, which
        # the short chunk's fewer lookups do not pay for.
        rng = np.random.default_rng(seed)
        b = Bin(bin_id, 1_000, 1_000 + length)
        points = PointTrack(b, 1_000 + np.sort(rng.choice(length, 100, replace=False)))
        cuts = np.sort(rng.choice(length, 100, replace=False)).reshape(50, 2)
        return points, SegmentTrack(b, 1_000 + cuts)

    @staticmethod
    def _chunk_by_chunk(points, segments, spec, cfg):
        """The test's counts from one-shot draws, one per chunk stream."""
        r = chunk_rows(points, segments, spec)
        return np.concatenate([
            sample_counts(points, segments, spec,
                          np.random.default_rng(
                              derive_seed(cfg.master_seed, points.bin.id, "chunk", c)),
                          min(r, cfg.n_samples - lo))
            for c, lo in enumerate(range(0, cfg.n_samples, r))
        ])

    @pytest.mark.parametrize("spec", ALL_MODELS, ids=lambda s: s.to_string())
    def test_chunks_equal_one_shot_draws(self, spec):
        points, segments = self._case()
        cfg = MCConfig(n_samples=self.N_SAMPLES, master_seed=11)
        assert chunk_rows(points, segments, spec) == 64
        # Lookups per sample: the sampled positions, or both ends of every
        # sampled segment. The full chunks take the table, the last the search.
        segment_model = spec.block_size is None and \
            spec.randomized_side is RandomizedSide.SEGMENTS
        lookups = 2 * len(segments) if segment_model else len(points)
        factor, length = null_models._TABLE_FACTOR, points.bin.length
        assert factor * 10 * lookups < length <= factor * 64 * lookups
        got = null_counts(points, segments, spec, cfg)
        assert np.array_equal(got, self._chunk_by_chunk(points, segments, spec, cfg))

    def test_back_to_back_tests_keep_their_own_counts(self):
        cfg = MCConfig(n_samples=self.N_SAMPLES, master_seed=11)
        first, second = ("first", 1), ("second", 2, 16_000)
        block = NullModelSpec.from_string("block:4")
        # Different bins one after the other, and a segment model right
        # after a point model on the same bin (prefix count after mask).
        runs = [(first, PRESERVE_INTERPOINT), (second, PRESERVE_INTERPOINT),
                (second, PRESERVE_INTERSEGMENT), (first, UNIFORM_SEGMENTS),
                (first, block), (second, block)]
        solo = [self._chunk_by_chunk(*self._case(*case), spec, cfg) for case, spec in runs]
        # Fresh tracks for every test, so a freed track's id may come back.
        for (case, spec), want in zip(runs, solo):
            got = null_counts(*self._case(*case), spec, cfg)
            assert np.array_equal(got, want), (case, spec.to_string())


class TestRunMcBatch:
    def test_single_bin_batch_equals_run_mc_test(self):
        points, segments = small_case()
        cfg = MCConfig(n_samples=150, master_seed=61)
        results, errors = run_mc_batch([(points, segments)], UNIFORM_POINTS, cfg)
        assert errors == []
        assert results[0] == run_mc_test(points, segments, UNIFORM_POINTS, cfg)

    @staticmethod
    def _bins(n):
        rng = np.random.default_rng(0)
        tests = []
        for i in range(n):
            b = Bin(f"bin{i:02d}", 0, 400)
            pts = PointTrack(b, np.sort(rng.choice(400, 12, replace=False)))
            segs = SegmentTrack(b, [(0, 100), (200, 260)])
            tests.append((pts, segs))
        return tests

    def test_input_order_does_not_change_pvalues(self):
        tests = self._bins(5)
        cfg = MCConfig(n_samples=120, master_seed=71)
        fwd, _ = run_mc_batch(tests, UNIFORM_POINTS, cfg)
        rev, _ = run_mc_batch(tests[::-1], UNIFORM_POINTS, cfg)
        by_id_fwd = {r.bin_id: r for r in fwd}
        by_id_rev = {r.bin_id: r for r in rev}
        assert by_id_fwd == by_id_rev

    def test_worker_count_does_not_change_results(self):
        tests = self._bins(6)
        cfg = MCConfig(n_samples=120, master_seed=81)
        serial, _ = run_mc_batch(tests, UNIFORM_POINTS, cfg, workers=1)
        parallel, _ = run_mc_batch(tests, UNIFORM_POINTS, cfg, workers=2)
        assert serial == parallel

    # 6 bins x 5,400 samples x (1 + 64): just above the pool's threshold.
    POOLED = MCConfig(n_samples=5_400, master_seed=83)

    def test_pooled_batch_matches_serial(self):
        tests = self._bins(6)
        assert trackmc.mc.batch_work(tests, UNIFORM_POINTS, self.POOLED) >= trackmc.mc._POOL_MIN_WORK
        serial, _ = run_mc_batch(tests, UNIFORM_POINTS, self.POOLED, workers=1)
        parallel, _ = run_mc_batch(tests, UNIFORM_POINTS, self.POOLED, workers=2)
        assert serial == parallel

    def test_pool_only_for_batches_that_pay_for_it(self, monkeypatch):
        class NoPool(Exception):
            pass

        def refuse(*args, **kwargs):
            raise NoPool

        monkeypatch.setattr(trackmc.mc, "ProcessPoolExecutor", refuse)
        tests = self._bins(6)
        small = MCConfig(n_samples=120, master_seed=81)
        assert trackmc.mc.batch_work(tests, UNIFORM_POINTS, small) < trackmc.mc._POOL_MIN_WORK
        results, errors = run_mc_batch(tests, UNIFORM_POINTS, small, workers=2)
        assert len(results) == 6 and errors == []
        with pytest.raises(NoPool):
            run_mc_batch(tests, UNIFORM_POINTS, self.POOLED, workers=2)

    def test_errors_collected_batch_continues(self):
        b = Bin("empty", 0, 100)
        bad = (PointTrack(b, []), SegmentTrack(b, [(0, 10)]))
        good = self._bins(2)
        cfg = MCConfig(n_samples=50, master_seed=91)
        results, errors = run_mc_batch(good + [bad], PRESERVE_INTERPOINT, cfg)
        assert len(results) == 2
        assert len(errors) == 1 and "empty" in errors[0]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            run_mc_batch([], UNIFORM_POINTS, MCConfig(n_samples=5))


class TestWriters:
    def test_tsv_snapshot(self, tmp_path):
        points, segments = small_case()
        cfg = MCConfig(n_samples=100, master_seed=5)
        result = run_mc_test(points, segments, UNIFORM_POINTS, cfg)
        out = tmp_path / "res.tsv"
        write_results_tsv([result], out, {"samples": 100}, n_points={"case": 6})
        lines = out.read_text().splitlines()
        assert lines[0] == "# samples=100"
        assert lines[1] == "bin_id\tn_points\tstatistic\tp_value\tn_samples\tnull_model"
        fields = lines[2].split("\t")
        assert fields[0] == "case" and fields[1] == "6" and fields[5] == "uniform-points"
