import numpy as np
import pytest

from trackmc import estimate_pi0, qvalues, reject_at_fdr


def brute_force_qvalues(pvalues, pi0):
    # Literal min-over-j evaluation, O(m^2).
    m = len(pvalues)
    order = sorted(range(m), key=lambda i: pvalues[i])
    q = [0.0] * m
    for rank, idx in enumerate(order, start=1):
        q[idx] = min(
            min(m * pi0 * pvalues[order[j - 1]] / j for j in range(rank, m + 1)), 1.0
        )
    return q


class TestEstimatePi0:
    def test_capped_at_one(self):
        assert estimate_pi0([1.0, 1.0, 1.0]) == 1.0

    def test_twice_the_mean(self):
        assert estimate_pi0([0.1, 0.2, 0.3]) == pytest.approx(0.4)

    def test_uniform_pvalues_give_about_one(self):
        rng = np.random.default_rng(12)
        p = rng.uniform(0, 1, size=20_000)
        assert estimate_pi0(p) == pytest.approx(1.0, abs=0.02)

    def test_all_zero_pvalues_give_one(self):
        # 2 * mean would be 0, which qvalues rejects as a pi0.
        assert estimate_pi0([0.0, 0.0, 0.0]) == 1.0
        assert qvalues([0.0, 0.0, 0.0], estimate_pi0([0.0, 0.0, 0.0])).tolist() == [0.0] * 3
        # 5e-324 / 3 rounds to 0, so the mean is 0 though one p-value is not.
        assert estimate_pi0([5e-324, 0.0, 0.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_pi0([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            estimate_pi0([0.5, 1.2])


@pytest.mark.parametrize("estimate", [estimate_pi0, lambda p: qvalues(p, 0.5)],
                         ids=["estimate_pi0", "qvalues"])
def test_nan_pvalue_rejected(estimate):
    with pytest.raises(ValueError, match=r"p-values must lie in \[0, 1\]"):
        estimate([0.2, float("nan"), 0.7])


class TestQValues:
    def test_single_test(self):
        q = qvalues([0.05], 1.0)
        assert q[0] == 0.05

    def test_worked_example_bit_exact(self):
        got = qvalues([0.01, 0.02, 0.9], 1.0).tolist()
        assert got == brute_force_qvalues([0.01, 0.02, 0.9], 1.0)
        assert got == pytest.approx([0.03, 0.03, 0.9], abs=1e-15)

    def test_all_equal_pvalues(self):
        for q in qvalues([0.2, 0.2, 0.2, 0.2], 0.8):
            assert q == pytest.approx(0.8 * 0.2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            m = int(rng.integers(1, 60))
            p = rng.uniform(0, 1, size=m).tolist()
            pi0 = float(rng.uniform(0.2, 1.0))
            got = qvalues(p, pi0).tolist()
            assert got == brute_force_qvalues(p, pi0)

    def test_sorted_qvalues_non_decreasing(self):
        rng = np.random.default_rng(78)
        p = rng.uniform(0, 1, size=150)
        q = qvalues(p, 1.0)
        order = np.argsort(p)
        q_sorted = q[order]
        assert np.all(np.diff(q_sorted) >= 0)

    def test_q_at_least_pi0_times_p(self):
        rng = np.random.default_rng(79)
        p = rng.uniform(0, 1, size=100)
        pi0 = 0.7
        for p_value, q in zip(p, qvalues(p, pi0)):
            assert q >= pi0 * p_value - 1e-15
            assert q <= 1.0

    def test_pi0_scaling_before_cap(self):
        # Doubling pi0 doubles every q-value while no cap binds, and the
        # rejection set at tau under pi0 matches the one at 2*tau under pi0/2.
        rng = np.random.default_rng(80)
        p = rng.uniform(0, 0.4, size=60)
        lo = qvalues(p, 0.25)
        hi = qvalues(p, 0.5)
        for a, b in zip(lo, hi):
            if b < 1.0:
                assert b == a * 2.0
        tau = 0.1
        assert np.array_equal(reject_at_fdr(hi, 2 * tau), reject_at_fdr(lo, tau))

    def test_tie_order_invariant(self):
        p = [0.3, 0.1, 0.3, 0.05, 0.1]
        base = qvalues(p, 1.0)
        perm = [3, 1, 4, 0, 2]
        shuffled = qvalues([p[i] for i in perm], 1.0)
        for slot, q in zip(perm, shuffled):
            assert q == base[slot]

    def test_adding_unit_pvalue_only_raises_qvalues(self):
        # Appending a test scales every min-over-j term by (m+1)/m, so
        # q-values rise monotonically and the rejection set can only shrink.
        rng = np.random.default_rng(81)
        for _ in range(30):
            m = int(rng.integers(2, 40))
            p = rng.uniform(0, 1, size=m).tolist()
            before = qvalues(p, 1.0)
            after = qvalues(p + [1.0], 1.0)
            for a, b in zip(before, after[:m]):
                assert b >= a - 1e-15
            rejected_before = reject_at_fdr(before, 0.2)
            rejected_after = reject_at_fdr(after, 0.2)[:m]
            assert not np.any(rejected_after & ~rejected_before)

    def test_bad_pi0(self):
        with pytest.raises(ValueError):
            qvalues([0.5], 0.0)
        with pytest.raises(ValueError):
            qvalues([0.5], 1.5)


class TestRejectAtFdr:
    def test_worked_example(self):
        rejected = reject_at_fdr(qvalues([0.01, 0.02, 0.9], 1.0), 0.1)
        assert rejected.tolist() == [True, True, False]
        assert rejected.sum() == 2

    def test_threshold_below_min_q(self):
        assert not reject_at_fdr(qvalues([0.5, 0.8], 1.0), 0.01).any()

    @pytest.mark.parametrize("threshold", [0.0, 1.0, -0.5, 2.0])
    def test_threshold_domain(self, threshold):
        with pytest.raises(ValueError):
            reject_at_fdr(qvalues([0.5], 1.0), threshold)
