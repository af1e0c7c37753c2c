import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trackmc import (
    Bin,
    BinarySequence,
    NullModelSpec,
    PointTrack,
    PRESERVE_INTERPOINT,
    PRESERVE_INTERSEGMENT,
    Preservation,
    RandomizedSide,
    SegmentTrack,
    UNIFORM_POINTS,
    UNIFORM_SEGMENTS,
    count_points_in_segments,
    derive_seed,
    resample_track,
    rng_for,
    sample_counts,
    state_space_size,
    to_binary_sequence,
)
from trackmc import null_models
from testkit import (
    assert_chisquare_fit,
    assert_same_distribution,
    assert_uniform_chisquare,
    pool_columns,
)
import reference
from reference import (
    block_permutation,
    resample_points_preserve_distances,
    resample_points_uniform,
    resample_segments_preserve_distances,
    resample_segments_uniform,
)

BLOCK2 = NullModelSpec(RandomizedSide.POINTS, Preservation.UNIFORM_LOCATION, block_size=2)


# --- enumeration oracles -------------------------------------------------

def enumerate_uniform_points(track):
    length, start = track.bin.length, track.bin.start
    return {
        tuple(start + p for p in combo)
        for combo in itertools.combinations(range(length), len(track))
    }


def enumerate_preserve_points(track):
    length, start = track.bin.length, track.bin.start
    n = len(track)
    if n == 0:
        return {()}
    if n == 1:
        return {(start + p,) for p in range(length)}
    gaps = np.diff(track.positions)
    states = set()
    for perm in set(itertools.permutations(gaps.tolist())):
        span = sum(perm)
        for off in range(length - span):
            pos = [start + off]
            for g in perm:
                pos.append(pos[-1] + g)
            states.add(tuple(pos))
    return states


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for cut in itertools.combinations(range(total + parts - 1), parts - 1):
        out = [cut[0]]
        out.extend(cut[i] - cut[i - 1] - 1 for i in range(1, parts - 1))
        out.append(total + parts - 2 - cut[-1])
        yield tuple(out)


def enumerate_uniform_segments(track):
    start = track.bin.start
    k = len(track)
    if k == 0:
        return {()}
    lengths = track.lengths.tolist()
    slack = track.bin.length - sum(lengths)
    states = set()
    for lorder in set(itertools.permutations(lengths)):
        for gaps in compositions(slack, k + 1):
            pos = start
            segs = []
            for g, ln in zip(gaps[:-1], lorder):
                pos += g
                segs.append((pos, pos + ln))
                pos += ln
            states.add(tuple(segs))
    return states


def enumerate_preserve_segments(track):
    start = track.bin.start
    k = len(track)
    lengths = track.lengths.tolist()
    gaps = (track.segments[1:, 0] - track.segments[:-1, 1]).tolist()
    span = sum(lengths) + sum(gaps)
    states = set()
    for lorder in set(itertools.permutations(lengths)):
        for gorder in set(itertools.permutations(gaps)):
            for off in range(track.bin.length - span + 1):
                pos = start + off
                segs = []
                for idx, ln in enumerate(lorder):
                    segs.append((pos, pos + ln))
                    pos += ln
                    if idx < k - 1:
                        pos += gorder[idx]
                states.add(tuple(segs))
    return states


def draw_states(fn, track, n_draws, tag):
    counts = Counter()
    for i in range(n_draws):
        out = fn(track, derive_seed(tag, i))
        if isinstance(out, PointTrack):
            counts[tuple(out.positions.tolist())] += 1
        else:
            counts[tuple(map(tuple, out.segments.tolist()))] += 1
    return counts


def engine(spec):
    """The engine's ``resample_track`` under ``spec``, called like an oracle."""
    return lambda track, seed: resample_track(track, spec, seed)


def engine_blocks(seq, block_size, seed):
    """``block_permutation`` of ``seq`` through the engine's ``resample_track``."""
    track = PointTrack(Bin("s", 0, len(seq)), np.flatnonzero(seq.values))
    spec = NullModelSpec.from_string(f"block:{block_size}")
    return to_binary_sequence(resample_track(track, spec, seed))


# Each resampler test runs the reference resampler and the engine's
# resample_track under the same model.
POINTS_UNIFORM = (resample_points_uniform, engine(UNIFORM_POINTS))
POINTS_PRESERVE = (resample_points_preserve_distances, engine(PRESERVE_INTERPOINT))
SEGMENTS_UNIFORM = (resample_segments_uniform, engine(UNIFORM_SEGMENTS))
SEGMENTS_PRESERVE = (resample_segments_preserve_distances, engine(PRESERVE_INTERSEGMENT))
BLOCKS = (block_permutation, engine_blocks)


# --- point resamplers ----------------------------------------------------

class TestResamplePointsUniform:
    def test_empty_track(self, bin10):
        for fn in POINTS_UNIFORM:
            assert len(fn(PointTrack(bin10, []), 1)) == 0

    def test_full_bin_is_deterministic(self):
        b = Bin("b", 0, 5)
        track = PointTrack(b, range(5))
        for fn in POINTS_UNIFORM:
            assert fn(track, 99) == track

    def test_count_preserved_and_valid(self):
        for fn in POINTS_UNIFORM:
            rng = np.random.default_rng(2)
            for i in range(30):
                length = int(rng.integers(1, 300))
                n = int(rng.integers(0, length + 1))
                track = PointTrack(
                    Bin("b", 7, 7 + length), 7 + np.sort(rng.choice(length, n, replace=False))
                )
                out = fn(track, i)
                assert len(out) == n and out.bin == track.bin

    def test_uniform_over_all_subsets_dense_path(self):
        # n=3 in [0,10): every 3-subset equally likely, 1/C(10,3).
        track = PointTrack(Bin("b", 0, 10), [0, 1, 2])
        for fn in POINTS_UNIFORM:
            counts = draw_states(fn, track, 100_000, "unif-dense")
            assert set(counts) == enumerate_uniform_points(track)
            assert_uniform_chisquare([counts[s] for s in sorted(counts)])

    def test_uniform_over_all_subsets_sparse_path(self):
        # n=3 in [0,40): exercises the draw-and-deduplicate path.
        track = PointTrack(Bin("b", 0, 40), [0, 1, 2])
        support = enumerate_uniform_points(track)
        for fn in POINTS_UNIFORM:
            counts = draw_states(fn, track, 200_000, "unif-sparse")
            assert set(counts) <= support
            assert_uniform_chisquare([counts.get(s, 0) for s in sorted(support)])


class TestResamplePointsPreserveDistances:
    def test_single_point_uniform_in_bin(self, bin10):
        track = PointTrack(bin10, [4])
        for fn in POINTS_PRESERVE:
            counts = draw_states(fn, track, 100_000, "pd1")
            assert set(counts) == {(p,) for p in range(10)}
            assert_uniform_chisquare([counts[s] for s in sorted(counts)])

    def test_empty_track_rejected(self, bin10):
        for fn in POINTS_PRESERVE:
            with pytest.raises(ValueError):
                fn(PointTrack(bin10, []), 0)

    def test_gap_multiset_preserved(self):
        for fn in POINTS_PRESERVE:
            rng = np.random.default_rng(3)
            for i in range(30):
                length = int(rng.integers(2, 300))
                n = int(rng.integers(1, min(length, 25) + 1))
                track = PointTrack(
                    Bin("b", 0, length), np.sort(rng.choice(length, n, replace=False))
                )
                out = fn(track, i)
                assert sorted(np.diff(out.positions)) == sorted(np.diff(track.positions))

    def test_fourteen_equally_likely_states(self):
        # Distances {1,2} in a length-10 bin: 2 orders x 7 offsets.
        track = PointTrack(Bin("b", 0, 10), [0, 1, 3])
        support = enumerate_preserve_points(track)
        assert len(support) == 14
        for fn in POINTS_PRESERVE:
            counts = draw_states(fn, track, 100_000, "pd3")
            assert set(counts) == support
            assert_uniform_chisquare([counts[s] for s in sorted(counts)])


# --- segment resamplers --------------------------------------------------

class TestResampleSegmentsUniform:
    def test_empty_track(self, bin10):
        for fn in SEGMENTS_UNIFORM:
            assert len(fn(SegmentTrack(bin10, []), 1)) == 0

    def test_zero_slack_single_segment_identity(self, bin10):
        track = SegmentTrack(bin10, [(0, 10)])
        for fn in SEGMENTS_UNIFORM:
            assert fn(track, 5) == track

    def test_length_multiset_preserved(self):
        for fn in SEGMENTS_UNIFORM:
            rng = np.random.default_rng(4)
            for i in range(30):
                length = int(rng.integers(6, 300))
                k = int(rng.integers(0, min(8, length // 4) + 1))
                bounds = np.sort(rng.choice(length + 1, size=2 * k, replace=False)).reshape(-1, 2)
                bounds = bounds[bounds[:, 1] > bounds[:, 0]]
                track = SegmentTrack(Bin("b", 0, length), bounds)
                out = fn(track, i)
                assert sorted(out.lengths) == sorted(track.lengths)
                assert out.total_length == track.total_length

    def test_uniform_over_arrangements(self):
        # Lengths {1,2} in a length-6 bin: 2 orders x C(5,2)=10 gap splits.
        track = SegmentTrack(Bin("b", 0, 6), [(0, 1), (2, 4)])
        support = enumerate_uniform_segments(track)
        assert len(support) == 20
        for fn in SEGMENTS_UNIFORM:
            counts = draw_states(fn, track, 100_000, "su")
            assert set(counts) == support
            assert_uniform_chisquare([counts[s] for s in sorted(counts)])


class TestResampleSegmentsPreserveDistances:
    def test_single_segment_uniform_feasible_start(self):
        b = Bin("b", 0, 8)
        track = SegmentTrack(b, [(2, 5)])
        for fn in SEGMENTS_PRESERVE:
            counts = draw_states(fn, track, 60_000, "sp1")
            assert set(counts) == {((s, s + 3),) for s in range(6)}
            assert_uniform_chisquare([counts[s] for s in sorted(counts)])

    def test_empty_track_rejected(self, bin10):
        for fn in SEGMENTS_PRESERVE:
            with pytest.raises(ValueError):
                fn(SegmentTrack(bin10, []), 0)

    def test_gap_and_length_multisets_preserved(self):
        for fn in SEGMENTS_PRESERVE:
            rng = np.random.default_rng(6)
            for i in range(30):
                length = int(rng.integers(8, 300))
                k = int(rng.integers(1, min(8, length // 4) + 1))
                bounds = np.sort(rng.choice(length + 1, size=2 * k, replace=False)).reshape(-1, 2)
                bounds = bounds[bounds[:, 1] > bounds[:, 0]]
                if not len(bounds):
                    continue
                track = SegmentTrack(Bin("b", 0, length), bounds)
                out = fn(track, i)
                assert sorted(out.lengths) == sorted(track.lengths)
                out_gaps = sorted(out.segments[1:, 0] - out.segments[:-1, 1])
                in_gaps = sorted(track.segments[1:, 0] - track.segments[:-1, 1])
                assert out_gaps == in_gaps

    def test_eight_equally_likely_states(self):
        # Lengths {2,3}, gap {4}, bin 12: 2 orders x 4 offsets.
        track = SegmentTrack(Bin("b", 0, 12), [(0, 2), (6, 9)])
        support = enumerate_preserve_segments(track)
        assert len(support) == 8
        for fn in SEGMENTS_PRESERVE:
            counts = draw_states(fn, track, 80_000, "sp2")
            assert set(counts) == support
            assert_uniform_chisquare([counts[s] for s in sorted(counts)])


# --- block permutation ---------------------------------------------------

class TestBlockPermutation:
    def test_block_equal_to_length_is_identity(self):
        seq = BinarySequence([1, 0, 1, 1])
        for fn in BLOCKS:
            assert fn(seq, 4, 3) == seq

    def test_block_one_is_full_shuffle(self):
        seq = BinarySequence([1, 0, 0])
        for fn in BLOCKS:
            counts = Counter()
            for i in range(30_000):
                out = fn(seq, 1, derive_seed("b1", i))
                counts[tuple(out.values.tolist())] += 1
            assert set(counts) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
            assert_uniform_chisquare([counts[s] for s in sorted(counts)])

    def test_two_block_states_equally_likely(self):
        seq = BinarySequence([1, 1, 0, 0])
        for fn in BLOCKS:
            counts = Counter()
            for i in range(20_000):
                out = fn(seq, 2, derive_seed("b2", i))
                counts[tuple(out.values.tolist())] += 1
            assert set(counts) == {(1, 1, 0, 0), (0, 0, 1, 1)}
            assert_uniform_chisquare([counts[s] for s in sorted(counts)])

    def test_partial_trailing_block_stays_in_place(self):
        seq = BinarySequence([1, 0, 0, 0, 1])
        for fn in BLOCKS:
            for i in range(20):
                out = fn(seq, 2, i)
                assert out.values[-1] == 1
                assert int(out.values.sum()) == 2

    def test_ones_count_preserved(self):
        for fn in BLOCKS:
            rng = np.random.default_rng(9)
            for i in range(30):
                n = int(rng.integers(1, 60))
                seq = BinarySequence(rng.integers(0, 2, size=n))
                bs = int(rng.integers(1, n + 1))
                out = fn(seq, bs, i)
                assert int(out.values.sum()) == int(seq.values.sum())

    @pytest.mark.parametrize("block_size", [0, -1, 5])
    def test_bad_block_size(self, block_size):
        for fn in BLOCKS:
            with pytest.raises(ValueError):
                fn(BinarySequence([1, 0, 1, 0]), block_size, 0)


# --- determinism and dispatch -------------------------------------------

class TestDeterminism:
    def test_identical_seed_identical_output(self):
        b = Bin("b", 0, 50)
        points = PointTrack(b, [3, 9, 20, 21])
        segments = SegmentTrack(b, [(0, 5), (10, 18), (30, 31)])
        seq = BinarySequence(np.arange(12) % 2)
        assert resample_points_uniform(points, 77) == resample_points_uniform(points, 77)
        assert resample_points_preserve_distances(points, 77) == (
            resample_points_preserve_distances(points, 77)
        )
        assert resample_segments_uniform(segments, 77) == resample_segments_uniform(segments, 77)
        assert resample_segments_preserve_distances(segments, 77) == (
            resample_segments_preserve_distances(segments, 77)
        )
        assert block_permutation(seq, 3, 77) == block_permutation(seq, 3, 77)

    def test_different_seed_usually_differs(self):
        b = Bin("b", 0, 1000)
        points = PointTrack(b, np.arange(0, 500, 7))
        assert resample_points_uniform(points, 1) != resample_points_uniform(points, 2)


class TestResampleTrackDispatch:
    def test_points_specs(self):
        b = Bin("b", 0, 30)
        points = PointTrack(b, [1, 4, 9])
        for spec in (UNIFORM_POINTS, PRESERVE_INTERPOINT):
            rep = resample_track(points, spec, 11)
            assert isinstance(rep, PointTrack) and len(rep) == 3

    def test_segment_specs(self):
        b = Bin("b", 0, 30)
        segments = SegmentTrack(b, [(0, 4), (10, 11)])
        for spec in (UNIFORM_SEGMENTS, PRESERVE_INTERSEGMENT):
            rep = resample_track(segments, spec, 11)
            assert isinstance(rep, SegmentTrack) and len(rep) == 2

    def test_block_spec_yields_point_track(self):
        b = Bin("b", 2, 14)
        points = PointTrack(b, [2, 3, 8, 9])
        rep = resample_track(points, BLOCK2, 5)
        assert isinstance(rep, PointTrack)
        assert len(rep) == 4

    def test_wrong_track_type_rejected(self):
        b = Bin("b", 0, 30)
        points = PointTrack(b, [1])
        segments = SegmentTrack(b, [(0, 4)])
        with pytest.raises(TypeError):
            resample_track(points, UNIFORM_SEGMENTS, 0)
        with pytest.raises(TypeError):
            resample_track(segments, UNIFORM_POINTS, 0)
        with pytest.raises(TypeError):
            resample_track(segments, BLOCK2, 0)


# --- count kernels against the reference resamplers -----------------------

KERNEL_BIN = Bin("k", 5, 65)
KERNEL_POINTS = PointTrack(KERNEL_BIN, [6, 9, 10, 22, 31, 40, 47, 55, 63])
KERNEL_SEGMENTS = SegmentTrack(KERNEL_BIN, [(7, 12), (20, 30), (41, 44), (50, 58)])
ALL_MODELS = (
    UNIFORM_POINTS,
    PRESERVE_INTERPOINT,
    UNIFORM_SEGMENTS,
    PRESERVE_INTERSEGMENT,
    NullModelSpec.from_string("block:4"),
)


def randomizes_points(spec):
    return spec.block_size is not None or spec.randomized_side is RandomizedSide.POINTS


def reference_counts(points, segments, spec, n_draws, tag):
    """Counts of ``n_draws`` reference replicates against the fixed track."""
    out = np.empty(n_draws, dtype=np.int64)
    for i in range(n_draws):
        seed = derive_seed(tag, i)
        if randomizes_points(spec):
            out[i] = count_points_in_segments(
                reference.resample_track(points, spec, seed), segments)
        else:
            out[i] = count_points_in_segments(
                points, reference.resample_track(segments, spec, seed))
    return out


def exact_count_law(points, segments, spec):
    """{count: number of equally likely reference states giving it}."""
    if spec.block_size is not None:
        # Every block order is equally likely (not only the distinct states).
        values = np.zeros(points.bin.length, dtype=np.uint8)
        values[points.positions - points.bin.start] = 1
        n_blocks = points.bin.length // spec.block_size
        head = values[: n_blocks * spec.block_size].reshape(n_blocks, spec.block_size)
        law = Counter()
        for order in itertools.permutations(range(n_blocks)):
            moved = np.concatenate((head[list(order)].reshape(-1), values[head.size :]))
            track = PointTrack(points.bin, np.flatnonzero(moved) + points.bin.start)
            law[count_points_in_segments(track, segments)] += 1
        return law
    enumerate_states = {
        UNIFORM_POINTS: enumerate_uniform_points,
        PRESERVE_INTERPOINT: enumerate_preserve_points,
        UNIFORM_SEGMENTS: enumerate_uniform_segments,
        PRESERVE_INTERSEGMENT: enumerate_preserve_segments,
    }[spec]
    if randomizes_points(spec):
        tracks = (PointTrack(points.bin, s) for s in enumerate_states(points))
        return Counter(count_points_in_segments(t, segments) for t in tracks)
    tracks = (SegmentTrack(segments.bin, s) for s in enumerate_states(segments))
    return Counter(count_points_in_segments(points, t) for t in tracks)


def hypergeometric_law(length, covered, n):
    """{x: C(covered, x) * C(length - covered, n - x)}, proportional to the pmf."""
    return {x: math.comb(covered, x) * math.comb(length - covered, n - x) for x in range(n + 1)}


def assert_counts_follow(got, law):
    """Chi-square fit of integer draws to the law {value: weight}."""
    assert set(got.tolist()) <= set(law)
    support = sorted(law)
    counts = np.array([np.count_nonzero(got == v) for v in support])
    expected = np.array([law[v] for v in support], dtype=float)
    expected *= got.size / expected.sum()
    assert_chisquare_fit(pool_columns(counts, expected), pool_columns(expected, expected))


class TestSampleCounts:
    @pytest.mark.parametrize("spec", ALL_MODELS, ids=lambda s: s.to_string())
    def test_matches_reference_resampler(self, spec):
        n_draws = 40_000
        rng = np.random.default_rng(derive_seed("kernel", spec.to_string()))
        got = sample_counts(KERNEL_POINTS, KERNEL_SEGMENTS, spec, rng, n_draws)
        assert got.shape == (n_draws,) and got.dtype == np.int64
        want = reference_counts(KERNEL_POINTS, KERNEL_SEGMENTS, spec, n_draws, spec.to_string())
        assert_same_distribution(got, want)

    @pytest.mark.parametrize("spec", ALL_MODELS, ids=lambda s: s.to_string())
    def test_matches_exact_law_on_enumerable_bin(self, spec):
        # Distinct reference states are equally likely, so enumerating them
        # gives the exact law of the count.
        b = Bin("tiny", 3, 21)
        points = PointTrack(b, [4, 5, 9, 15])
        segments = SegmentTrack(b, [(5, 7), (10, 13), (17, 18)])
        rng = np.random.default_rng(derive_seed("kernel-exact", spec.to_string()))
        got = sample_counts(points, segments, spec, rng, 200_000)
        assert_counts_follow(got, exact_count_law(points, segments, spec))

    def test_uniform_points_is_exactly_hypergeometric(self):
        rng = np.random.default_rng(derive_seed("kernel", "hypergeometric"))
        got = sample_counts(KERNEL_POINTS, KERNEL_SEGMENTS, UNIFORM_POINTS, rng, 40_000)
        assert_counts_follow(got, hypergeometric_law(
            KERNEL_BIN.length, KERNEL_SEGMENTS.total_length, len(KERNEL_POINTS)))

    def test_bin_too_large_for_numpy_hypergeometric(self):
        # 1.2e9 covered bp exceeds numpy's hypergeometric limit of 1e9, so
        # every sample draws its points.
        b = Bin("big", 0, 2_000_000_000)
        points = PointTrack(b, [10, 500_000_000, 1_500_000_000, 1_999_999_999])
        segments = SegmentTrack(b, [(0, 1_200_000_000)])
        rng = np.random.default_rng(derive_seed("kernel", "big"))
        got = sample_counts(points, segments, UNIFORM_POINTS, rng, 4_000)
        law = hypergeometric_law(b.length, segments.total_length, len(points))
        assert_counts_follow(got, law)

    @pytest.mark.parametrize("spec,points,segments", [
        (PRESERVE_INTERPOINT, PointTrack(KERNEL_BIN, []), KERNEL_SEGMENTS),
        (PRESERVE_INTERSEGMENT, KERNEL_POINTS, SegmentTrack(KERNEL_BIN, [])),
        (NullModelSpec.from_string("block:61"), KERNEL_POINTS, KERNEL_SEGMENTS),
    ], ids=["empty-points", "empty-segments", "block-too-large"])
    def test_infeasible_inputs_raise_reference_error(self, spec, points, segments):
        target = points if randomizes_points(spec) else segments
        with pytest.raises(ValueError) as want:
            reference.resample_track(target, spec, 0)
        with pytest.raises(ValueError) as got:
            sample_counts(points, segments, spec, np.random.default_rng(0), 3)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("spec", ALL_MODELS, ids=lambda s: s.to_string())
    def test_nothing_to_count_gives_zeros(self, spec):
        points, segments = KERNEL_POINTS, SegmentTrack(KERNEL_BIN, [])
        if spec == PRESERVE_INTERSEGMENT:  # needs a segment; empty the points instead
            points, segments = PointTrack(KERNEL_BIN, []), KERNEL_SEGMENTS
        got = sample_counts(points, segments, spec, np.random.default_rng(1), 5)
        assert got.tolist() == [0] * 5


# --- table lookup and binary search give the same counts ----------------

# _TABLE_FACTOR values that force every count onto one side.
SIDES = {"search": 0, "table": 10**9}


def on_side(side, fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(null_models, "_TABLE_FACTOR", SIDES[side])
        return fn(*args)


@st.composite
def small_tracks(draw):
    """Points and segments in a bin that does not start at 0.

    Either track may be empty; points may sit on both bin edges, and
    segments may touch both edges and each other.
    """
    start = draw(st.integers(1, 10**6))
    length = draw(st.integers(1, 40))
    edge = st.sampled_from([0, length - 1])
    rel = draw(st.sets(st.one_of(edge, st.integers(0, length - 1)), max_size=length))
    segments, end = [], 0
    for gap, size in draw(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 12)),
                                   max_size=6)):
        if end + gap >= length:
            break
        segments.append((end + gap, min(end + gap + size, length)))
        end = segments[-1][1]
    b = Bin("h", start, start + length)
    return (PointTrack(b, sorted(start + x for x in rel)),
            SegmentTrack(b, [(start + s, start + e) for s, e in segments]))


def rows_of(draw, width, values):
    """A 2-D int64 array of 1-4 rows of ``width`` drawn values."""
    m = draw(st.integers(1, 4))
    flat = draw(st.lists(values, min_size=m * width, max_size=m * width))
    return np.array(flat, dtype=np.int64).reshape(m, width)


@pytest.mark.parametrize("side", SIDES)
@settings(max_examples=200, deadline=None)
@given(tracks=small_tracks(), data=st.data())
def test_count_covered_matches_brute_force(side, tracks, data):
    _, segments = tracks
    length = segments.bin.length
    rel = rows_of(data.draw, data.draw(st.integers(0, 6)), st.integers(0, length - 1))
    covered = [(s - segments.bin.start, e - segments.bin.start) for s, e in segments.segments]
    want = [sum(any(s <= x < e for s, e in covered) for x in row) for row in rel.tolist()]
    count = null_models._covered_counter(segments, len(rel))
    assert on_side(side, count, rel).tolist() == want


@pytest.mark.parametrize("side", SIDES)
@settings(max_examples=200, deadline=None)
@given(tracks=small_tracks(), data=st.data())
def test_count_between_matches_brute_force(side, tracks, data):
    points, _ = tracks
    length = points.bin.length
    pairs = rows_of(data.draw, 2 * data.draw(st.integers(0, 4)), st.integers(0, length))
    pairs = np.sort(pairs.reshape(len(pairs), -1, 2), axis=-1)
    starts, ends = pairs[..., 0], pairs[..., 1]
    rel = (points.positions - points.bin.start).tolist()
    want = [sum(s <= x < e for s, e in zip(srow, erow) for x in rel)
            for srow, erow in zip(starts.tolist(), ends.tolist())]
    count = null_models._between_counter(points, len(ends))
    assert on_side(side, count, starts, ends).tolist() == want


@settings(max_examples=200, deadline=None)
@given(tracks=small_tracks(), data=st.data())
def test_sample_counts_same_on_both_sides(tracks, data):
    points, segments = tracks
    block = data.draw(st.integers(1, points.bin.length))
    seed, m = data.draw(st.integers(0, 2**32)), data.draw(st.integers(1, 5))
    for spec in (*ALL_MODELS[:4], NullModelSpec.from_string(f"block:{block}")):
        got = {}
        for side in SIDES:
            rng = np.random.default_rng(seed)
            try:
                got[side] = on_side(side, sample_counts, points, segments, spec, rng, m).tolist()
            except ValueError as exc:
                got[side] = str(exc)
        assert got["table"] == got["search"], spec.to_string()


@settings(max_examples=200, deadline=None)
@given(tracks=small_tracks(), data=st.data())
def test_resample_track_is_row_zero_of_sample_counts(tracks, data):
    # Every model but uniform-points, whose counts are drawn from their
    # hypergeometric law instead of from sampled tracks.
    points, segments = tracks
    block = data.draw(st.integers(1, points.bin.length))
    seed = data.draw(st.integers(0, 2**32))
    for spec in (*ALL_MODELS[1:4], NullModelSpec.from_string(f"block:{block}")):
        try:
            want = sample_counts(points, segments, spec, rng_for(seed), 1)[0]
        except ValueError as exc:
            target = points if randomizes_points(spec) else segments
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                resample_track(target, spec, seed)
            continue
        if randomizes_points(spec):
            got = count_points_in_segments(resample_track(points, spec, seed), segments)
        else:
            got = count_points_in_segments(points, resample_track(segments, spec, seed))
        assert got == want, spec.to_string()


# --- sampler invariants: every row of a chunk ----------------------------

def draw_chunk(sample, data):
    """A chunk of 1-64 rows from a sampler prepared for 64, drawn over the
    rows of a full chunk, as a test's short last chunk is."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    sample(rng, 64)
    return sample(rng, data.draw(st.integers(1, 64)))


@settings(max_examples=100, deadline=None)
@given(tracks=small_tracks(), data=st.data())
def test_point_samplers_keep_their_invariants(tracks, data):
    points, _ = tracks
    length, rel = points.bin.length, (points.positions - points.bin.start).tolist()
    specs = [UNIFORM_POINTS, NullModelSpec.from_string(f"block:{data.draw(st.integers(1, length))}")]
    if rel:
        specs.append(PRESERVE_INTERPOINT)
    for spec in specs:
        rows = draw_chunk(null_models._point_sampler(points, spec, 64), data)
        assert rows.dtype == np.int64 and rows.shape[1] == len(rel), spec.to_string()
        assert np.all((rows >= 0) & (rows < length)), spec.to_string()
        for row in rows.tolist():
            if spec.block_size is None:
                assert all(a < b for a, b in zip(row, row[1:])), spec.to_string()
            if spec is PRESERVE_INTERPOINT:
                assert sorted(np.diff(row)) == sorted(np.diff(rel))
            if spec.block_size is not None:
                size = spec.block_size
                tail = (length // size) * size
                moves = {}
                for old, new in zip(rel, row):
                    if old >= tail:
                        # The trailing partial block stays in place.
                        assert new == old
                        continue
                    # A point keeps its offset, and its block moves whole
                    # to one block of its own.
                    assert new % size == old % size and new < tail
                    assert moves.setdefault(old // size, new // size) == new // size
                assert len(set(moves.values())) == len(moves)


@settings(max_examples=100, deadline=None)
@given(tracks=small_tracks(), data=st.data())
def test_segment_samplers_keep_their_invariants(tracks, data):
    _, segments = tracks
    length, k = segments.bin.length, len(segments)
    rel = segments.segments - segments.bin.start
    gaps = sorted(rel[1:, 0] - rel[:-1, 1])
    for spec in (UNIFORM_SEGMENTS, PRESERVE_INTERSEGMENT)[: 2 if k else 1]:
        starts, ends = draw_chunk(null_models._segment_sampler(segments, spec, 64), data)
        assert starts.shape == ends.shape and starts.shape[1] == k, spec.to_string()
        for srow, erow in zip(starts.tolist(), ends.tolist()):
            # Sorted, disjoint and inside the bin.
            if k:
                assert 0 <= srow[0] and erow[-1] <= length, spec.to_string()
            assert all(e <= s for e, s in zip(erow, srow[1:])), spec.to_string()
            assert sorted(e - s for s, e in zip(srow, erow)) == sorted(segments.lengths)
            if spec is PRESERVE_INTERSEGMENT:
                assert sorted(s - e for e, s in zip(erow, srow[1:])) == gaps


# --- state space sizes and hierarchy containment -------------------------

class TestStateSpaceSize:
    def test_uniform_points_binomial_coefficient(self):
        track = PointTrack(Bin("b", 0, 10), [0, 1, 2])
        assert state_space_size(track, UNIFORM_POINTS) == 120

    def test_preserve_counts_orders_times_offsets(self):
        track = PointTrack(Bin("b", 0, 10), [0, 1, 3])
        assert state_space_size(track, PRESERVE_INTERPOINT) == 14

    def test_preserve_subset_of_uniform(self):
        track = PointTrack(Bin("b", 0, 10), [0, 1, 3])
        assert state_space_size(track, PRESERVE_INTERPOINT) < state_space_size(
            track, UNIFORM_POINTS
        )

    def test_point_edge_cases(self):
        empty = PointTrack(Bin("b", 0, 9), [])
        single = PointTrack(Bin("b", 0, 9), [4])
        assert state_space_size(empty, PRESERVE_INTERPOINT) == 1
        assert state_space_size(empty, UNIFORM_POINTS) == 1
        assert state_space_size(single, PRESERVE_INTERPOINT) == 9
        assert state_space_size(single, UNIFORM_POINTS) == 9

    def test_segment_sizes_match_enumeration(self):
        track = SegmentTrack(Bin("b", 0, 12), [(0, 2), (6, 9)])
        assert state_space_size(track, UNIFORM_SEGMENTS) == len(
            enumerate_uniform_segments(track)
        )
        assert state_space_size(track, PRESERVE_INTERSEGMENT) == len(
            enumerate_preserve_segments(track)
        )

    def test_single_segment_offsets(self):
        track = SegmentTrack(Bin("b", 0, 8), [(2, 5)])
        assert state_space_size(track, PRESERVE_INTERSEGMENT) == 6

    def test_duplicate_lengths_collapse_orders(self):
        track = SegmentTrack(Bin("b", 0, 10), [(0, 2), (4, 6)])
        assert state_space_size(track, PRESERVE_INTERSEGMENT) == len(
            enumerate_preserve_segments(track)
        )

    def test_block_state_count(self):
        assert state_space_size(PointTrack(Bin("b", 0, 4), [0, 1]), BLOCK2) == 2
        assert state_space_size(PointTrack(Bin("b", 0, 4), [0, 2]), BLOCK2) == 1

    def test_block_longer_than_bin_rejected_like_the_samplers(self):
        track = PointTrack(Bin("b", 0, 10), [2, 5])
        block = NullModelSpec.from_string("block:20")
        message = r"block size must be in \[1, 10\], got 20"
        with pytest.raises(ValueError, match=message):
            resample_track(track, block, 0)
        with pytest.raises(ValueError, match=message):
            sample_counts(track, SegmentTrack(track.bin, [(0, 4)]), block,
                          np.random.default_rng(0), 1)
        with pytest.raises(ValueError, match=message):
            state_space_size(track, block)


class TestHierarchyContainment:
    def test_small_sweep(self):
        # Exhaustive check on tracks with n <= 3 in bins of length <= 8;
        # the acceptance suite runs the larger sweep.
        for length in range(2, 9):
            b = Bin("b", 0, length)
            for n in range(1, 4):
                if n > length:
                    continue
                for combo in itertools.combinations(range(length), n):
                    track = PointTrack(b, combo)
                    preserve = enumerate_preserve_points(track)
                    uniform = enumerate_uniform_points(track)
                    assert preserve <= uniform
                    assert len(preserve) == state_space_size(track, PRESERVE_INTERPOINT)
                    assert len(uniform) == state_space_size(track, UNIFORM_POINTS)


# --- spec strings ---------------------------------------------------------

class TestNullModelSpecStrings:
    @pytest.mark.parametrize(
        "name",
        ["uniform-points", "preserve-interpoint", "uniform-segments",
         "preserve-intersegment", "block:4"],
    )
    def test_round_trip(self, name):
        assert NullModelSpec.from_string(name).to_string() == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown null model"):
            NullModelSpec.from_string("shuffle-everything")

    def test_bad_block(self):
        with pytest.raises(ValueError):
            NullModelSpec.from_string("block:x")
        with pytest.raises(ValueError):
            NullModelSpec.from_string("block:0")

    def test_block_requires_points_side(self):
        with pytest.raises(ValueError):
            NullModelSpec(RandomizedSide.SEGMENTS, Preservation.UNIFORM_LOCATION, block_size=2)
