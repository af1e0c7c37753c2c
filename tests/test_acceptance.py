"""Acceptance suite: one test per acceptance criterion, one printed
pass/fail line each. Heavy experiment runs are shared via session fixtures.

Statistical criteria run at a pinned master seed; the bands include the
Monte Carlo noise expected at that scale.
"""

import itertools
import time

import numpy as np
import pytest

from trackmc import (
    ASSUMPTIONS,
    Bin,
    EstimatorMode,
    MCConfig,
    PRESERVE_INTERPOINT,
    PointGenConfig,
    PointTrack,
    SegmentGenConfig,
    SegmentTrack,
    StudyConfig,
    UNIFORM_POINTS,
    binomial_upper_pvalue,
    count_points_in_segments,
    coverage_fraction,
    decile_table,
    derive_seed,
    estimate_l_profile,
    generate_points,
    generate_segments,
    qvalues,
    rejection_counts,
    run_false_rejection_study,
    run_mc_test,
    run_ordering_experiment,
    to_binary_sequence,
)
from trackmc.cli import main as cli_main
from trackmc.study import STUDY_FDR, _pair
from reference import enumerate_states, state_space_size, statistic_moments_under_stationarity

SEED = 0
WORKERS = 2


def report(criterion, description, failures):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else " | " + "; ".join(failures)
    print(f"\n[acceptance] criterion {criterion} {status}: {description}{detail}")
    assert not failures, f"criterion {criterion}: " + "; ".join(failures)


@pytest.fixture(scope="session")
def full_study():
    cfg = StudyConfig(master_seed=SEED)
    t0 = time.perf_counter()
    pvalues = run_false_rejection_study(cfg, workers=WORKERS)
    return cfg, pvalues, time.perf_counter() - t0


@pytest.fixture(scope="session")
def full_ordering():
    cfg = StudyConfig(master_seed=SEED)
    t0 = time.perf_counter()
    res = run_ordering_experiment(cfg, cluster_segments=True, workers=WORKERS)
    return cfg, res, time.perf_counter() - t0


def test_criterion_1_false_rejection_study(full_study):
    cfg, pvalues, elapsed = full_study
    n = cfg.n_replicates
    counts = rejection_counts(pvalues, STUDY_FDR)
    failures = []

    def cell(row, col):
        return counts[(row, col)]

    for row, _ in ASSUMPTIONS:
        if cell(row, "uniform") > 3:
            failures.append(f"uniform column, {row}: {cell(row, 'uniform')}/{n} > 3")
    for row in ("uniform-point-location-analytic", "uniform-point-location-mc"):
        got = cell(row, "clustered-points")
        if not 5 <= got <= 40:
            failures.append(f"clustered-points, {row}: {got}/{n} outside [5, 40]")
        got = cell(row, "clustered-segments")
        if got > 3:
            failures.append(f"clustered-segments, {row}: {got}/{n} > 3")
    got = cell("preserve-interpoint-distances", "clustered-points")
    if got > 3:
        failures.append(f"clustered-points, preserve-interpoint: {got}/{n} > 3")
    if elapsed > 600:
        failures.append(f"runtime {elapsed:.0f}s > 600s")

    # the operational reading of "too simple null models cause false
    # positives": preserving distances never rejects more than uniform
    # does on the clustered column, beyond MC noise
    if cell("preserve-interpoint-distances", "clustered-points") > (
        cell("uniform-point-location-mc", "clustered-points") + 2
    ):
        failures.append("preserve row exceeds uniform row on clustered-points column")

    cells = {(r, c): f"{k}/{n}" for (r, c), k in counts.items()}
    report(
        1,
        f"false-rejection study at defaults ({elapsed:.0f}s): {cells}",
        failures,
    )


def test_criterion_2_null_complexity_ordering(full_ordering):
    cfg, res, elapsed = full_ordering
    failures = []
    med_uniform = float(np.median(res["uniform-points"]))
    med_preserve = float(np.median(res["preserve-interpoint"]))
    if med_preserve < med_uniform:
        failures.append(
            f"median preserve-interpoint {med_preserve:.3f} < uniform-points {med_uniform:.3f}"
        )
    # (lower, upper) pairs, weakly at every decile.
    # NOTE: the null complexity principle orders models by preservation,
    # and the method makes that ordering precise only where one state space
    # nests inside another: within one randomized side, preserving the
    # inter-element distances samples a subset of the uniform-location
    # states (criterion 7). Those two nesting pairs come first. The fixture
    # clusters both tracks and generates them independently, so both
    # preserve models are (near-)valid nulls here and both uniform models
    # under-preserve; hence each uniform model also sits at or below the
    # other side's preserve model (last two pairs). No state space links
    # preserve-interpoint to uniform-segments, and nothing orders the two
    # valid nulls against each other: at seed 0, preserve-interpoint /
    # preserve-intersegment are 0.165/0.156 at decile 0.1, 0.411/0.428 at
    # decile 0.4 and 0.739/0.705 at decile 0.7, with uniform-segments below
    # both at every decile. So no chain across the two sides is promised,
    # and none is asserted between the two preserve or the two uniform models.
    ordered_pairs = (
        ("uniform-points", "preserve-interpoint"),
        ("uniform-segments", "preserve-intersegment"),
        ("uniform-segments", "preserve-interpoint"),
        ("uniform-points", "preserve-intersegment"),
    )
    for q, row in decile_table(res):
        for lower, upper in ordered_pairs:
            if row[lower] > row[upper] + 1e-12:
                failures.append(
                    f"decile {q:.1f}: {lower} {row[lower]:.3f} > "
                    f"{upper} {row[upper]:.3f}"
                )
    if elapsed > 300:
        failures.append(f"runtime {elapsed:.0f}s > 300s")
    report(
        2,
        f"null-complexity ordering, 100 clustered replicates ({elapsed:.0f}s): "
        f"medians uniform-points={med_uniform:.3f}, preserve-interpoint={med_preserve:.3f}, "
        f"uniform-segments={float(np.median(res['uniform-segments'])):.3f}, "
        f"preserve-intersegment={float(np.median(res['preserve-intersegment'])):.3f}",
        failures,
    )


def test_criterion_3_ripley_identity():
    failures = []
    independent = PointGenConfig()
    clustered = PointGenConfig(clustered=True)
    means = {}
    for tau in (25, 50):
        vals = [
            estimate_l_profile(
                to_binary_sequence(
                    generate_points(Bin(f"i{r}", 0, 10_000), independent, derive_seed(SEED, "rip-i", r))
                ),
                [tau],
            )[0]
            for r in range(50)
        ]
        means[tau] = float(np.mean(vals))
        if not 0.9 <= means[tau] <= 1.1:
            failures.append(f"independent mean L({tau}) = {means[tau]:.3f} outside [0.9, 1.1]")
    cl_vals = [
        estimate_l_profile(
            to_binary_sequence(
                generate_points(Bin(f"c{r}", 0, 10_000), clustered, derive_seed(SEED, "rip-c", r))
            ),
            [50],
        )[0]
        for r in range(50)
    ]
    cl_mean = float(np.mean(cl_vals))
    if cl_mean <= 1.5:
        failures.append(f"clustered mean L(50) = {cl_mean:.3f} <= 1.5")
    report(
        3,
        f"Ripley identity: independent L(25)={means[25]:.3f}, L(50)={means[50]:.3f}, "
        f"clustered L(50)={cl_mean:.3f}",
        failures,
    )


def test_criterion_4_analytic_mc_agreement():
    failures = []
    worst = 0.0
    for i in range(20):
        length = int(np.random.default_rng(derive_seed(424242, "len", i)).integers(5000, 20001))
        b = Bin(f"agree-{i:02d}", 0, length)
        points = generate_points(b, PointGenConfig(), derive_seed(424242, "pts", i))
        segments = generate_segments(b, SegmentGenConfig(), derive_seed(424242, "segs", i))
        cfg = MCConfig(n_samples=10_000, master_seed=424242, estimator_mode=EstimatorMode.RAW)
        result = run_mc_test(points, segments, UNIFORM_POINTS, cfg)
        analytic = binomial_upper_pvalue(
            int(result.observed), len(points), coverage_fraction(segments)
        )
        diff = abs(result.p_value - analytic)
        worst = max(worst, diff)
        if diff > 0.02:
            failures.append(f"bin {i}: |{result.p_value:.4f} - {analytic:.4f}| = {diff:.4f} > 0.02")
    report(4, f"analytic vs MC agreement over 20 bins, worst diff {worst:.4f}", failures)


def brute_force_qvalues_vectorized(p, pi0):
    # Literal min-over-j evaluation: every term computed, suffix mins taken
    # directly (no reverse-scan shortcut).
    p = np.asarray(p, dtype=np.float64)
    m = p.size
    order = np.argsort(p, kind="stable")
    terms = m * pi0 * p[order] / np.arange(1, m + 1)
    q_sorted = np.array([terms[i:].min() for i in range(m)])
    q = np.empty(m)
    q[order] = np.minimum(q_sorted, 1.0)
    return q


def test_criterion_5_qvalue_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(derive_seed(SEED, "qv"))
    checked = 0
    for _ in range(1000):
        m = int(rng.integers(1, 201))
        p = rng.uniform(0, 1, size=m)
        pi0 = float(rng.uniform(0.1, 1.0))
        got = qvalues(p, pi0)
        want = brute_force_qvalues_vectorized(p, pi0)
        if not np.array_equal(got, want):
            failures.append(f"mismatch at m={m}")
            break
        checked += 1
    worked = qvalues([0.01, 0.02, 0.9], 1.0).tolist()
    if worked != list(brute_force_qvalues_vectorized([0.01, 0.02, 0.9], 1.0)):
        failures.append("worked example differs from brute force")
    if worked != [0.03, 0.03, 0.9]:
        failures.append(f"worked example {worked} != [0.03, 0.03, 0.9]")
    report(5, f"q-values match O(m^2) brute force exactly on {checked} random vectors", failures)


def test_criterion_6_minimum_achievable_pvalue():
    failures = []
    b = Bin("floor", 0, 10_000)
    points = PointTrack(b, range(8))
    segments = SegmentTrack(b, [(0, 100)])
    cfg = MCConfig(n_samples=10_000, master_seed=SEED)
    result = run_mc_test(points, segments, UNIFORM_POINTS, cfg)
    if result.n_exceed != 0:
        failures.append(f"expected zero exceedances, got {result.n_exceed}")
    rel_err = abs(result.p_value - 1e-4) / 1e-4
    if rel_err > 0.01:
        failures.append(f"p = {result.p_value:.3e}, {rel_err:.2%} from 1e-4")
    report(6, f"minimum achievable p at 10,000 samples = {result.p_value:.6g}", failures)


def test_criterion_7_hierarchy_containment():
    failures = []
    n_tracks = 0
    for length in range(1, 13):
        b = Bin("h", 0, length)
        for n in range(0, 5):
            if n > length:
                continue
            # Uniform-points' states depend on the bin and n alone.
            uniform = enumerate_states(PointTrack(b, range(n)), UNIFORM_POINTS)
            for combo in itertools.combinations(range(length), n):
                track = PointTrack(b, combo)
                preserve = enumerate_states(track, PRESERVE_INTERPOINT)
                n_tracks += 1
                if not preserve <= uniform:
                    failures.append(f"support not contained for track {combo}, L={length}")
                if len(preserve) != state_space_size(track, PRESERVE_INTERPOINT):
                    failures.append(f"preserve size mismatch for {combo}, L={length}")
                if len(uniform) != state_space_size(track, UNIFORM_POINTS):
                    failures.append(f"uniform size mismatch for {combo}, L={length}")
                if state_space_size(track, PRESERVE_INTERPOINT) > state_space_size(
                    track, UNIFORM_POINTS
                ):
                    failures.append(f"size ordering violated for {combo}, L={length}")
                if failures:
                    break
            if failures:
                break
    report(
        7,
        f"hierarchy containment verified by exhaustive enumeration on {n_tracks} tracks "
        "(n <= 4, bin length <= 12)",
        failures,
    )


def test_criterion_8_variance_ordering():
    failures = []
    rng = np.random.default_rng(derive_seed(SEED, "var"))
    for i in range(100):
        n = int(rng.integers(2, 41))
        y = rng.uniform(0, 3, size=n)
        lam = float(rng.uniform(0.01, 0.9))
        sigma2 = float(rng.uniform(0.01, 0.5))
        d_max = int(rng.integers(1, 10))
        rho_hi = np.concatenate(([1.0], np.cumprod(rng.uniform(0.3, 1.0, size=d_max))))
        rho_lo = rho_hi * np.concatenate(
            ([1.0], np.cumprod(rng.uniform(0.4, 1.0, size=d_max)))
        )
        _, v_hi = statistic_moments_under_stationarity(lam, sigma2, rho_hi, y)
        _, v_lo = statistic_moments_under_stationarity(lam, sigma2, rho_lo, y)
        if v_hi < v_lo - 1e-15:
            failures.append(f"instance {i}: dominating rho gave smaller variance")
        # brute-force double sum
        for rho, got in ((rho_hi, v_hi), (rho_lo, v_lo)):
            dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
            rmat = np.where(dist < rho.size, rho[np.minimum(dist, rho.size - 1)], 0.0)
            want = sigma2 * float(y @ rmat @ y) / n**2
            if abs(got - want) > 1e-10 * max(1.0, abs(want)):
                failures.append(f"instance {i}: variance differs from double sum")
        if failures:
            break
    report(8, "variance monotone in pointwise-dominating correlation, 100 instances", failures)


def test_criterion_9_worker_determinism(tmp_path, full_study):
    failures = []

    # end-to-end byte identity across worker counts, reduced scale
    study_outs = []
    for w, name in ((1, "study-w1.tsv"), (2, "study-w2.tsv")):
        out = tmp_path / name
        code = cli_main(
            ["study", "--replicates", "6", "--bin-length", "10000", "--samples", "80",
             "--seed", str(SEED), "--workers", str(w), "--out", str(out)]
        )
        if code != 0:
            failures.append(f"study CLI failed with workers={w}")
        study_outs.append(out.read_bytes())
    if study_outs[0] != study_outs[1]:
        failures.append("study output differs between workers=1 and workers=2")

    ordering_outs = []
    for w, name in ((1, "ord-w1.tsv"), (2, "ord-w2.tsv")):
        out = tmp_path / name
        code = cli_main(
            ["ordering", "--replicates", "6", "--bin-length", "10000", "--samples", "80",
             "--seed", str(SEED), "--cluster-segments", "--workers", str(w),
             "--out", str(out)]
        )
        if code != 0:
            failures.append(f"ordering CLI failed with workers={w}")
        ordering_outs.append(out.read_bytes())
    if ordering_outs[0] != ordering_outs[1]:
        failures.append("ordering output differs between workers=1 and workers=2")

    # the full-scale study ran with workers=2; recompute sampled replicates
    # serially and compare exactly
    cfg, pvalues, _ = full_study
    mc_cfg = MCConfig(n_samples=cfg.mc_samples, master_seed=cfg.master_seed)
    for column, r, flags in (("uniform", 3, (False, False)),
                             ("clustered-points", 57, (True, False)),
                             ("clustered-segments", 99, (False, True))):
        points, segments = _pair(cfg, ("study", column, r), f"{column}-{r:04d}", *flags)
        for label, model in ASSUMPTIONS:
            if model is None:
                p = binomial_upper_pvalue(count_points_in_segments(points, segments),
                                          len(points), coverage_fraction(segments))
            else:
                p = run_mc_test(points, segments, model, mc_cfg).p_value
            if pvalues[(label, column)][r] != p:
                failures.append(f"serial recomputation differs at ({label}, {column}, {r})")

    report(9, "identical outputs across worker counts (CLI byte-compare + serial spot check)", failures)
