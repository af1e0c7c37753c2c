import math

import numpy as np
import pytest

from trackmc import (
    Bin,
    PointTrack,
    SegmentTrack,
    binomial_upper_pvalue,
    count_points_in_segments,
    to_binary_sequence,
)
from trackmc.stats import _binomial_tails
from reference import (
    segment_indicator_weights,
    statistic_moments_under_stationarity,
    weighted_sum_statistic,
)


def binomial_lower(t, n, p):
    """P(T <= t), from the lower tail ``_binomial_tails`` pairs with P(T > t)."""
    return 1.0 if t == n else _binomial_tails(t + 1, n, p)[1]


def binomial_lower_strict(t, n, p):
    """P(T < t), the complement of ``binomial_upper_pvalue``."""
    return binomial_lower(t - 1, n, p) if t else 0.0


def brute_force_count(points, segments):
    return sum(
        1
        for p in points.positions
        for s, e in segments.segments
        if s <= p < e
    )


class TestCountPointsInSegments:
    def test_direct(self, bin10):
        points = PointTrack(bin10, [1, 5, 9])
        segments = SegmentTrack(bin10, [(0, 2), (8, 10)])
        assert count_points_in_segments(points, segments) == 2

    def test_no_segments(self, bin10):
        points = PointTrack(bin10, [1, 5])
        assert count_points_in_segments(points, SegmentTrack(bin10, [])) == 0

    def test_full_cover(self, bin10):
        points = PointTrack(bin10, [0, 4, 9])
        assert count_points_in_segments(points, SegmentTrack(bin10, [(0, 10)])) == 3

    def test_bin_mismatch(self):
        points = PointTrack(Bin("a", 0, 10), [1])
        segments = SegmentTrack(Bin("b", 0, 10), [(0, 5)])
        with pytest.raises(ValueError, match="bin mismatch"):
            count_points_in_segments(points, segments)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            length = int(rng.integers(4, 120))
            b = Bin("b", 0, length)
            n = int(rng.integers(0, min(length, 50)))
            points = PointTrack(b, np.sort(rng.choice(length, n, replace=False)))
            n_seg = int(rng.integers(0, min(10, (length + 1) // 2)))
            bounds = np.sort(
                rng.choice(length + 1, size=2 * n_seg, replace=False)
            ).reshape(-1, 2)
            segments = SegmentTrack(b, bounds[bounds[:, 1] > bounds[:, 0]])
            assert count_points_in_segments(points, segments) == brute_force_count(
                points, segments
            )


class TestWeightedSumStatistic:
    def test_all_zero_indicators(self, bin10):
        seq = to_binary_sequence(PointTrack(bin10, []))
        assert weighted_sum_statistic(seq, np.ones(10)) == 0.0

    def test_unit_weights_give_density(self, bin10):
        seq = to_binary_sequence(PointTrack(bin10, [0, 3, 7]))
        assert weighted_sum_statistic(seq, np.ones(10)) == pytest.approx(0.3)

    def test_segment_weights_match_count(self, bin10):
        points = PointTrack(bin10, [1, 5, 9])
        segments = SegmentTrack(bin10, [(0, 2), (8, 10)])
        stat = weighted_sum_statistic(
            to_binary_sequence(points), segment_indicator_weights(segments)
        )
        assert stat == pytest.approx(count_points_in_segments(points, segments) / 10)

    def test_length_mismatch(self, bin10):
        seq = to_binary_sequence(PointTrack(bin10, [1]))
        with pytest.raises(ValueError, match="length mismatch"):
            weighted_sum_statistic(seq, np.ones(9))


def log_space_pmf_sum(start, stop, n, p):
    # Sum of the Binomial(n, p) pmf over start <= k < stop, from lgamma
    # terms in log space, so terms below the double range still count.
    from scipy.special import gammaln, logsumexp

    k = np.arange(start, stop, dtype=np.float64)
    logs = (
        gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )
    return float(np.exp(logsumexp(logs)))


def binomial_tail_oracle(t, n, p):
    # Independent direct summation over the upper tail.
    return sum(math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(t, n + 1))


class TestBinomialPvalues:
    def test_all_successes(self):
        assert binomial_upper_pvalue(5, 5, 0.5) == pytest.approx(0.03125)

    def test_t_zero_is_whole_mass(self):
        assert binomial_upper_pvalue(0, 10, 0.3) == 1.0

    def test_against_direct_summation(self):
        # Frozen from the oracle below: P(T >= 6), T ~ Binomial(10, 0.3).
        expected = 0.0473489874
        assert binomial_tail_oracle(6, 10, 0.3) == pytest.approx(expected, abs=1e-10)
        assert binomial_upper_pvalue(6, 10, 0.3) == pytest.approx(expected, abs=1e-10)

    def test_oracle_sweep(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            t = int(rng.integers(0, n + 1))
            p = float(rng.uniform(0.05, 0.95))
            assert binomial_upper_pvalue(t, n, p) == pytest.approx(
                binomial_tail_oracle(t, n, p), rel=1e-10, abs=1e-12
            )

    def test_tail_complementarity(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 2000))
            t = int(rng.integers(0, n + 1))
            p = float(rng.uniform(0.0, 1.0))
            total = binomial_upper_pvalue(t, n, p) + binomial_lower_strict(t, n, p)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_monotone_across_the_mode(self):
        # Which tail is summed switches at t = (n + 1) p; on both sides of
        # the switch the upper tail falls, the lower rises, and they sum to 1.
        for n in (10, 999, 10**6):
            for p in (0.01, 0.3, 0.5, 0.97):
                mode = math.floor((n + 1) * p)
                ts = range(max(0, mode - 50), min(n, mode + 50) + 1)
                tails = [_binomial_tails(t, n, p) for t in ts]
                for t, (upper, lower), (next_upper, next_lower) in zip(ts, tails, tails[1:]):
                    assert next_upper <= upper and next_lower >= lower, (t, n, p)
                for t, (upper, lower) in zip(ts, tails):
                    assert upper + lower == pytest.approx(1.0, abs=1e-12), (t, n, p)

    def test_stable_extreme_tails_at_large_n(self):
        # Term-wise pmf values underflow here; a log-space oracle still
        # agrees, so the implementation is not summing raw terms.
        for t, n, p in [(9000, 10_000, 0.8), (5300, 10_000, 0.5), (120, 10_000, 0.005)]:
            assert binomial_upper_pvalue(t, n, p) == pytest.approx(
                log_space_pmf_sum(t, n + 1, n, p), rel=1e-8, abs=0.0
            )
        # Lower tails far below 1: a lower tail formed as 1 - upper loses
        # them (0.0 for the first two, a 3e-11 relative error for the third).
        for t, n, p in [(4500, 10_000, 0.5), (7600, 10_000, 0.8), (20, 10_000, 0.005)]:
            assert binomial_lower(t, n, p) == pytest.approx(
                log_space_pmf_sum(0, t + 1, n, p), rel=1e-8, abs=0.0
            )

    def test_matches_scipy_sweep(self):
        # n log-uniform up to 10^7; t either anywhere or within 3 sd of
        # the mean, where the tail sum runs over the most terms.
        from scipy.stats import binom

        rng = np.random.default_rng(29)
        cases = [(38, 609, 0.7426913776344557), (936, 970, 0.4525770728597671)]
        for _ in range(1500):
            n = int(np.exp(rng.uniform(0.0, math.log(1e7))))
            p = float(rng.uniform(0.0, 1.0))
            if rng.uniform() < 0.5:
                t = int(rng.integers(0, n + 1))
            else:
                sd = math.sqrt(n * p * (1.0 - p))
                t = int(np.clip(round(n * p + rng.uniform(-3.0, 3.0) * sd), 0, n))
            cases.append((t, n, p))
        for t, n, p in cases:
            # Each tail with scipy's value and the range of k it sums over.
            for got, want, ks in [
                (binomial_upper_pvalue(t, n, p), binom.sf(t - 1, n, p), (t, n + 1)),
                (binomial_lower_strict(t, n, p), binom.cdf(t - 1, n, p), (0, t)),
                (binomial_lower(t, n, p), binom.cdf(t, n, p), (0, t + 1)),
            ]:
                if want >= 1e-280:
                    assert got == pytest.approx(want, rel=1e-10, abs=0.0), (t, n, p)
                    continue
                # scipy flushes some tails below ~1e-260 to 0.0 (the first two
                # cases: P(T < 38) = 2.6e-283, P(T >= 936) = 4.7e-269), so sum
                # these in log space over the 20,000 terms nearest t, which
                # hold the mass.
                start, stop = ks
                if start == 0:
                    start = max(0, stop - 20_000)
                else:
                    stop = min(stop, start + 20_000)
                oracle = log_space_pmf_sum(start, stop, n, p)
                assert got == pytest.approx(oracle, rel=1e-6, abs=1e-290), (t, n, p)

    def test_small_p_large_n_against_mpmath(self):
        # Where n p is small and n large, q**n multiplies the rounding of
        # q = 1 - p n-fold, so P(T = 0) must come from p itself (at
        # (1, 2265440, 6.55e-7) q**n put it 1e-10 off; at (9, 10^7, 10^-6)
        # scipy is 1.4e-10 off).
        # The oracle sums the k < t terms at 40 digits with q = 1 - p exact.
        import mpmath

        rng = np.random.default_rng(41)
        cases = [(9, 10**7, 1e-6)]
        for _ in range(60):
            n = int(np.exp(rng.uniform(math.log(10), math.log(1e8))))
            p = min(0.9, float(np.exp(rng.uniform(math.log(0.5), math.log(500)))) / n)
            sd = math.sqrt(n * p * (1.0 - p))
            cases.append((int(np.clip(round(n * p + rng.uniform(-3.0, 3.0) * sd), 1, n - 1)), n, p))
        with mpmath.workdps(40):
            for t, n, p in cases:
                mp, mq = mpmath.mpf(p), 1 - mpmath.mpf(p)
                lower = mpmath.fsum(mpmath.binomial(n, k) * mp**k * mq ** (n - k) for k in range(t))
                for got, want in [(binomial_upper_pvalue(t, n, p), 1 - lower),
                                  (binomial_lower_strict(t, n, p), lower)]:
                    assert abs(got - want) <= 1e-13 * want, (t, n, p)

    def test_edges_match_scipy_exactly(self):
        from scipy.stats import binom

        cases = [(0, 0, p) for p in (0.0, 0.3, 1.0)]
        cases += [(t, n, p) for n in (1, 7) for t in range(n + 1) for p in (0.0, 1.0)]
        cases += [(t, n, p) for n in (1, 7, 10**6) for t in (0, n) for p in (0.3, 0.999)]
        for t, n, p in cases:
            if t == 0 or p in (0.0, 1.0):
                assert binomial_upper_pvalue(t, n, p) == binom.sf(t - 1, n, p), (t, n, p)
                assert binomial_lower_strict(t, n, p) == binom.cdf(t - 1, n, p), (t, n, p)
            if t == n or p in (0.0, 1.0):
                assert binomial_lower(t, n, p) == binom.cdf(t, n, p), (t, n, p)
            if t == n:
                # P(T = n) is p**n; scipy rounds it differently in the last
                # ulp or two for some (n, p), so only closeness is asserted.
                assert binomial_upper_pvalue(t, n, p) == p**n
                assert binomial_upper_pvalue(t, n, p) == pytest.approx(
                    binom.sf(t - 1, n, p), rel=1e-15, abs=1e-300
                )

    @pytest.mark.parametrize("t,n,p", [(-1, 5, 0.5), (6, 5, 0.5), (2, 5, -0.1), (2, 5, 1.5)])
    def test_domain_errors(self, t, n, p):
        with pytest.raises(ValueError):
            binomial_upper_pvalue(t, n, p)


def moments_oracle(lam, sigma2, rho, y):
    # Full O(n^2) double sum.
    n = len(y)
    mean = lam * sum(y) / n
    var = 0.0
    for i in range(n):
        for j in range(n):
            d = abs(i - j)
            r = rho[d] if d < len(rho) else 0.0
            var += y[i] * y[j] * sigma2 * r
    return mean, var / n**2


class TestStatisticMoments:
    def test_iid_case(self):
        mean, var = statistic_moments_under_stationarity(0.2, 0.16, [1.0], np.ones(8))
        assert mean == pytest.approx(0.2)
        assert var == pytest.approx(0.16 / 8)

    def test_worked_example(self):
        # Frozen from moments_oracle: lam=0.5, sigma2=0.25, rho(1)=0.5, y=1^4.
        mean, var = statistic_moments_under_stationarity(
            0.5, 0.25, [1.0, 0.5], np.ones(4)
        )
        assert mean == pytest.approx(0.5)
        assert var == pytest.approx(0.109375, abs=1e-12)
        assert moments_oracle(0.5, 0.25, [1.0, 0.5], [1.0] * 4) == pytest.approx(
            (0.5, 0.109375)
        )

    def test_matches_brute_force(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            y = rng.uniform(0, 3, size=n)
            lam = float(rng.uniform(0.01, 0.9))
            sigma2 = float(rng.uniform(0.01, 0.5))
            d_max = int(rng.integers(0, 6))
            rho = np.concatenate(([1.0], np.sort(rng.uniform(0, 1, size=d_max))[::-1]))
            mean, var = statistic_moments_under_stationarity(lam, sigma2, rho, y)
            omean, ovar = moments_oracle(lam, sigma2, rho.tolist(), y.tolist())
            assert mean == pytest.approx(omean, rel=1e-10)
            assert var == pytest.approx(ovar, rel=1e-10, abs=1e-14)

    def test_variance_monotone_in_rho(self):
        # Pointwise-dominating correlation cannot decrease the variance.
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            y = rng.uniform(0, 2, size=n)
            d_max = int(rng.integers(1, 8))
            hi = np.concatenate(([1.0], np.cumprod(rng.uniform(0.3, 1.0, size=d_max))))
            lo = hi * np.concatenate(([1.0], np.cumprod(rng.uniform(0.5, 1.0, size=d_max))))
            _, v_hi = statistic_moments_under_stationarity(0.3, 0.21, hi, y)
            _, v_lo = statistic_moments_under_stationarity(0.3, 0.21, lo, y)
            assert v_hi >= v_lo - 1e-15

    def test_rejects_bad_rho(self):
        y = np.ones(4)
        with pytest.raises(ValueError, match="rho"):
            statistic_moments_under_stationarity(0.5, 0.25, [0.9, 0.5], y)
        with pytest.raises(ValueError, match="non-increasing"):
            statistic_moments_under_stationarity(0.5, 0.25, [1.0, 0.2, 0.4], y)
        with pytest.raises(ValueError, match="non-negative"):
            statistic_moments_under_stationarity(0.5, 0.25, [1.0, -0.1], y)
