import numpy as np
import pytest

from trackmc import (
    Bin,
    BinarySequence,
    PointGenConfig,
    PointMode,
    derive_seed,
    estimate_k,
    estimate_l,
    estimate_l_profile,
    generate_points,
    to_binary_sequence,
)
from reference import pair_weight


class TestPairWeight:
    def test_interior_pairs_are_one(self):
        for i, j in [(5, 8), (2, 3), (1, 20), (17, 20)]:
            assert pair_weight(i, j, 20) == 1.0
            assert pair_weight(j, i, 20) == 1.0

    def test_out_of_range_pairs_shrink(self):
        w = pair_weight(19, 22, 20)
        assert 0.0 < w < 1.0
        assert w == pytest.approx((20 - 19) / (22 - 19))

    def test_undefined_for_equal_coordinates(self):
        with pytest.raises(ValueError):
            pair_weight(4, 4, 20)

    def test_always_in_unit_interval_for_valid_points(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n = int(rng.integers(2, 50))
            i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
            assert 0.0 < pair_weight(int(i), int(j), n) <= 1.0


class TestEstimateK:
    def test_adjacent_pair_worked_example(self):
        # Two points at the first two coordinates of a length-20 sequence:
        # K(1) = (1/20) * (20/2)^2 * 2 = 10, so L(1) = 5.
        seq = BinarySequence([1, 1] + [0] * 18)
        assert estimate_k(seq, 1) == pytest.approx(10.0, rel=1e-12)
        assert estimate_l(seq, 1) == pytest.approx(5.0, rel=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="K undefined"):
            estimate_k(BinarySequence([0, 1, 0, 0]), 1)

    @pytest.mark.parametrize("tau", [0, -3, 10, 11])
    def test_tau_domain(self, tau):
        with pytest.raises(ValueError, match="tau"):
            estimate_k(BinarySequence([1, 0, 0, 1] + [0] * 6), tau)

    def test_spread_lattice_has_no_pairs(self):
        # Equal spacing above tau: L = 0.
        seq = BinarySequence([1 if i % 10 == 0 else 0 for i in range(50)])
        assert estimate_k(seq, 5) == 0.0
        assert estimate_l(seq, 5) == 0.0

    def test_matches_direct_double_sum(self):
        # Literal evaluation of the estimator over all (i, j) pairs.
        rng = np.random.default_rng(14)
        for _ in range(25):
            n = int(rng.integers(10, 80))
            x = (rng.random(n) < 0.3).astype(int)
            if x.sum() < 2:
                x[:2] = 1
            tau = int(rng.integers(1, n))
            seq = BinarySequence(x)
            direct = 0.0
            lam = x.mean()
            for i in range(1, n + 1):
                for j in range(i - tau, i + tau + 1):
                    if j == i or j < 1 or j > n:
                        continue
                    if x[i - 1] and x[j - 1]:
                        direct += 1.0 / pair_weight(i, j, n)
            direct /= n * lam * lam
            assert estimate_k(seq, tau) == pytest.approx(direct, rel=1e-12)


def estimate_k_loop(seq, tau):
    # The per-point loop over inverse pair weights that estimate_k replaced.
    n = len(seq)
    positions = np.flatnonzero(seq.values).astype(np.int64) + 1
    m = positions.size
    lam = m / n
    total = 0.0
    for idx in range(m - 1):
        i = int(positions[idx])
        hi = int(np.searchsorted(positions, i + tau, side="right"))
        js = positions[idx + 1 : hi]
        if js.size == 0:
            continue
        w = (np.minimum(js, n) - max(i, 1)) / (js - i)
        assert np.all(w > 0)
        total += float((1.0 / w).sum())
    return 2.0 * total / (n * lam * lam)


def test_estimate_k_equals_pair_weight_loop():
    rng = np.random.default_rng(8)
    for rep in range(60):
        n = int(np.exp(rng.uniform(np.log(10), np.log(1_000_000))))
        if rep % 2:
            track = generate_points(
                Bin("b", 0, n),
                PointGenConfig(mode=PointMode.CLUSTERED, new_cluster_prob=0.3),
                derive_seed("k-loop", rep),
            )
            seq = to_binary_sequence(track)
        else:
            seq = BinarySequence(rng.random(n) < min(rng.uniform(0.0005, 0.3), 20_000 / n))
        if seq.values.sum() < 2:
            continue
        tau = int(rng.integers(1, min(n, 2000)))
        assert estimate_k(seq, tau) == estimate_k_loop(seq, tau), (rep, n, tau)


class TestEstimateLProfile:
    def test_duplicate_scales_kept(self):
        seq = BinarySequence([1, 1, 0, 1] + [0] * 8)
        l_values = estimate_l_profile(seq, [2, 2, 3])
        assert len(l_values) == 3
        assert l_values[0] == l_values[1]

    def test_single_scale_matches_estimate_k(self):
        seq = BinarySequence([1, 0, 1, 0, 0, 1, 0, 0])
        l_values = estimate_l_profile(seq, [3])
        assert l_values[0] == pytest.approx(estimate_k(seq, 3) / 6.0)

    def test_empty_scales(self):
        seq = BinarySequence([1, 1, 0])
        assert estimate_l_profile(seq, []) == ()


def simulate_markov_chain(rng, n, lam, r):
    # Two-state stationary chain with P(X=1) = lam and corr(X_0, X_d) = r^d.
    p11 = lam + (1 - lam) * r
    p01 = lam * (1 - r)
    x = np.empty(n, dtype=np.uint8)
    x[0] = rng.random() < lam
    u = rng.random(n)
    for i in range(1, n):
        x[i] = u[i] < (p11 if x[i - 1] else p01)
    return x


class TestTheoreticalIdentity:
    def test_independent_points_give_l_about_one(self):
        # Quick version of the acceptance identity check.
        vals = []
        for rep in range(20):
            track = generate_points(
                Bin(f"r{rep}", 0, 10_000), PointGenConfig(), derive_seed("l1", rep)
            )
            vals.append(estimate_l(to_binary_sequence(track), 50))
        assert 0.85 <= np.mean(vals) <= 1.15

    def test_k_matches_closed_form_for_known_correlation(self):
        # Stationary binary Markov chain: rho(d) = r^d exactly, so
        # K(t) = 2t + 2 * sigma^2 * lam^-2 * sum_{j<=t} rho(j).
        n, lam, r, tau = 20_000, 0.05, 0.6, 25
        sigma2 = lam * (1 - lam)
        expected = 2 * tau + 2 * sigma2 * lam**-2 * sum(r**j for j in range(1, tau + 1))
        rng = np.random.default_rng(2024)
        estimates = []
        for _ in range(200):
            x = simulate_markov_chain(rng, n, lam, r)
            estimates.append(estimate_k(BinarySequence(x), tau))
        mean = np.mean(estimates)
        se = np.std(estimates, ddof=1) / np.sqrt(len(estimates))
        assert abs(mean - expected) <= 3 * se, (
            f"mean K {mean:.2f} vs closed form {expected:.2f} (se {se:.3f})"
        )

    def test_l_ordered_by_cluster_strength(self):
        # Smaller new-cluster probability means bigger clusters, hence more
        # short-range correlation and larger L at every scale.
        configs = [
            PointGenConfig(mode=PointMode.CLUSTERED, new_cluster_prob=0.3),
            PointGenConfig(mode=PointMode.CLUSTERED, new_cluster_prob=0.7),
            PointGenConfig(mode=PointMode.INDEPENDENT),
        ]
        for tau in (10, 25, 50):
            means = []
            for ci, cfg in enumerate(configs):
                vals = [
                    estimate_l(
                        to_binary_sequence(
                            generate_points(
                                Bin("b", 0, 20_000), cfg, derive_seed("ord", ci, rep)
                            )
                        ),
                        tau,
                    )
                    for rep in range(30)
                ]
                means.append(np.mean(vals))
            assert means[0] > means[1] > means[2], (tau, means)


def test_out_of_range_indicators_do_not_contribute():
    # Points hugging both boundaries: only the in-range pair is summed.
    seq = BinarySequence([1] + [0] * 10 + [1])
    assert estimate_k(seq, 3) == 0.0
    seq2 = BinarySequence([1, 0, 1] + [0] * 9)
    assert estimate_k(seq2, 3) > 0.0
