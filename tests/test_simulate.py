import numpy as np
import pytest

from trackmc import (
    Bin,
    PointGenConfig,
    SegmentGenConfig,
    coverage_fraction,
    derive_seed,
    generate_points,
    generate_segments,
)
from trackmc.simulate import LAMBDA_INTRA, NEW_CLUSTER_PROB
from testkit import assert_chisquare_fit


class TestPointGenConfig:
    @pytest.mark.parametrize("field,value", [
        ("lambda_inter", 0.0), ("lambda_inter", 1.0),
        ("lambda_intra", -0.2), ("new_cluster_prob", 1.5),
    ])
    def test_domain(self, field, value):
        with pytest.raises(ValueError):
            PointGenConfig(**{field: value})


class TestGeneratePoints:
    def test_expected_count_at_default_rate(self):
        # ~100 points expected in 10,000 bp at rate 0.01.
        counts = [
            len(generate_points(Bin("b", 0, 10_000), PointGenConfig(), derive_seed("c", i)))
            for i in range(60)
        ]
        assert 90 <= np.mean(counts) <= 110

    def test_deterministic(self):
        b = Bin("b", 0, 5000)
        cfg = PointGenConfig(clustered=True)
        assert generate_points(b, cfg, 12) == generate_points(b, cfg, 12)
        assert generate_points(b, cfg, 12) != generate_points(b, cfg, 13)

    def test_track_invariants_hold(self):
        for i in range(40):
            length = 10 + 137 * i
            for clustered in (False, True):
                track = generate_points(
                    Bin("b", 3, 3 + length), PointGenConfig(clustered=clustered), derive_seed("v", i)
                )
                # constructor validates; spot-check bounds anyway
                if len(track):
                    assert track.positions[0] >= 3
                    assert track.positions[-1] < 3 + length

    def test_short_bin_may_be_empty(self):
        track = generate_points(Bin("b", 0, 2), PointGenConfig(lambda_inter=0.01), 5)
        assert len(track) <= 2

    def test_gap_distribution_matches_geometric(self):
        # Pooled inter-point gaps against P(g=k) = p(1-p)^(k-1), 1e5 gaps.
        rate = 0.01
        gaps = []
        rep = 0
        while len(gaps) < 100_000:
            track = generate_points(
                Bin("b", 0, 400_000), PointGenConfig(lambda_inter=rate), derive_seed("g", rep)
            )
            gaps.extend(np.diff(track.positions).tolist())
            rep += 1
        gaps = np.array(gaps[:100_000])
        edges = list(range(1, 500, 25))  # pooled tail bucket at the end
        counts, expected = [], []
        for lo, hi in zip(edges, edges[1:] + [None]):
            if hi is None:
                counts.append(int((gaps >= lo).sum()))
                expected.append((1 - rate) ** (lo - 1))
            else:
                counts.append(int(((gaps >= lo) & (gaps < hi)).sum()))
                expected.append((1 - rate) ** (lo - 1) - (1 - rate) ** (hi - 1))
        assert_chisquare_fit(counts, expected)

    def test_degenerate_cluster_prob_reduces_to_independent(self):
        # new_cluster_prob=1 draws every gap at lambda_inter.
        rate = 0.02
        cfg = PointGenConfig(clustered=True, new_cluster_prob=1.0, lambda_inter=rate)
        gaps = []
        for rep in range(40):
            track = generate_points(Bin("b", 0, 50_000), cfg, derive_seed("d", rep))
            gaps.extend(np.diff(track.positions).tolist())
        gaps = np.array(gaps)
        # geometric mean gap 1/rate = 50
        assert np.mean(gaps) == pytest.approx(50, rel=0.05)
        edges = [1, 15, 30, 50, 80, 120]
        counts, expected = [], []
        for lo, hi in zip(edges, edges[1:] + [None]):
            if hi is None:
                counts.append(int((gaps >= lo).sum()))
                expected.append((1 - rate) ** (lo - 1))
            else:
                counts.append(int(((gaps >= lo) & (gaps < hi)).sum()))
                expected.append((1 - rate) ** (lo - 1) - (1 - rate) ** (hi - 1))
        assert_chisquare_fit(counts, expected)

    def test_clustered_mode_tightens_gaps(self):
        cfg = PointGenConfig(clustered=True)
        track = generate_points(Bin("b", 0, 100_000), cfg, 1)
        gaps = np.diff(track.positions)
        # mixture mean: 0.3/0.01 + 0.7/0.1 = 37
        assert np.mean(gaps) == pytest.approx(37, rel=0.15)


class TestSegmentGenConfig:
    def test_length_domain(self):
        with pytest.raises(ValueError):
            SegmentGenConfig(length_min=0)
        with pytest.raises(ValueError):
            SegmentGenConfig(length_min=20, length_max=10)


class TestClusterSettings:
    """lambda_intra and new_cluster_prob draw nothing without clustering, so
    there only their defaults are accepted; the range checks come first."""

    @pytest.mark.parametrize("config", [PointGenConfig, SegmentGenConfig])
    @pytest.mark.parametrize("field,value", [("lambda_intra", 0.2), ("new_cluster_prob", 0.6)])
    def test_inert_value_rejected(self, config, field, value):
        with pytest.raises(ValueError, match=r"lambda_intra=\S+ and new_cluster_prob=\S+ "
                                             "change no draw unless clustered"):
            config(**{field: value})
        assert getattr(config(clustered=True, **{field: value}), field) == value

    @pytest.mark.parametrize("config", [PointGenConfig, SegmentGenConfig])
    def test_explicit_defaults_accepted(self, config):
        assert config(lambda_intra=LAMBDA_INTRA, new_cluster_prob=NEW_CLUSTER_PROB) == config()

    @pytest.mark.parametrize("config,fields,message", [
        (PointGenConfig, {"lambda_intra": -0.2}, "lambda_intra must lie in"),
        (PointGenConfig, {"new_cluster_prob": 1.5}, "new_cluster_prob must lie in"),
        (SegmentGenConfig, {"lambda_intra": 1.0}, "lambda_intra must lie in"),
        (SegmentGenConfig, {"new_cluster_prob": -0.1}, "new_cluster_prob must lie in"),
        (SegmentGenConfig, {"length_min": 0, "new_cluster_prob": 0.6}, "length_min"),
    ], ids=["points-lambda_intra", "points-new_cluster_prob", "segments-lambda_intra",
            "segments-new_cluster_prob", "segments-length_min"])
    def test_range_checks_first(self, config, fields, message):
        with pytest.raises(ValueError, match=message):
            config(**fields)


class TestGenerateSegments:
    def test_bin_must_exceed_max_length(self):
        with pytest.raises(ValueError, match="length_max"):
            generate_segments(Bin("b", 0, 100), SegmentGenConfig(), 0)

    def test_deterministic(self):
        b = Bin("b", 0, 20_000)
        cfg = SegmentGenConfig(clustered=True)
        assert generate_segments(b, cfg, 3) == generate_segments(b, cfg, 3)

    def test_constant_length_config(self):
        cfg = SegmentGenConfig(length_min=20, length_max=20, gap_lambda=0.005)
        track = generate_segments(Bin("b", 0, 50_000), cfg, 9)
        lengths = track.lengths
        # all drawn lengths are 20; only boundary or overlap truncation shortens
        assert lengths.max() == 20
        assert (lengths == 20).mean() > 0.8

    def test_track_invariants_hold(self):
        for i in range(30):
            for clustered in (False, True):
                track = generate_segments(
                    Bin("b", 5, 30_005),
                    SegmentGenConfig(clustered=clustered),
                    derive_seed("sv", i, clustered),
                )
                seg = track.segments
                assert np.all(seg[:, 1] > seg[:, 0])
                assert np.all(seg[1:, 0] >= seg[:-1, 1])
                assert seg[0, 0] >= 5 and seg[-1, 1] <= 30_005

    def test_mean_length_without_truncation_pressure(self):
        # Sparse starts: overlap truncation is rare, so the uniform [10,100]
        # draw shows through, mean ~55.
        cfg = SegmentGenConfig(gap_lambda=0.002)
        lengths = []
        for rep in range(30):
            track = generate_segments(Bin("b", 0, 200_000), cfg, derive_seed("ml", rep))
            lengths.extend(track.lengths.tolist())
        assert np.mean(lengths) == pytest.approx(55, abs=2.0)

    def test_mean_length_at_defaults_reflects_truncation(self):
        # Start-gap mean 100 vs drawn length mean 55: overlaps truncate,
        # frozen band measured by simulation.
        lengths = []
        for rep in range(60):
            track = generate_segments(Bin("b", 0, 20_000), SegmentGenConfig(), derive_seed("mt", rep))
            lengths.extend(track.lengths.tolist())
        assert 44 <= np.mean(lengths) <= 54

    def test_coverage_at_defaults(self):
        # Renewal estimate 0.55/1.55 ~ 0.35; simulation lands near 0.42.
        covs = [
            coverage_fraction(
                generate_segments(Bin("b", 0, 50_000), SegmentGenConfig(), derive_seed("cv", rep))
            )
            for rep in range(40)
        ]
        assert 0.35 <= np.mean(covs) <= 0.50

    def test_clustered_starts_change_structure(self):
        plain = generate_segments(Bin("b", 0, 100_000), SegmentGenConfig(), 4)
        clustered = generate_segments(
            Bin("b", 0, 100_000), SegmentGenConfig(clustered=True), 4
        )
        gaps_p = plain.segments[1:, 0] - plain.segments[:-1, 1]
        gaps_c = clustered.segments[1:, 0] - clustered.segments[:-1, 1]
        # two-rate starts produce many touching segments (zero gaps)
        assert (gaps_c == 0).mean() > (gaps_p == 0).mean()
