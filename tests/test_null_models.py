import itertools
import math
import pickle
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trackmc import (
    MODELS,
    Bin,
    BinarySequence,
    NullModelSpec,
    PointTrack,
    PRESERVE_INTERPOINT,
    PRESERVE_INTERSEGMENT,
    SegmentTrack,
    UNIFORM_POINTS,
    UNIFORM_SEGMENTS,
    count_points_in_segments,
    derive_seed,
    resample_track,
    rng_for,
    to_binary_sequence,
)
from trackmc import null_models
from trackmc.null_models import prepare_counts
from testkit import (
    ALL_MODELS,
    assert_chisquare_fit,
    assert_same_distribution,
    assert_uniform_chisquare,
    pool_columns,
)
import reference
from reference import (
    block_permutation,
    enumerate_states,
    resample_points_preserve_distances,
    resample_points_uniform,
    resample_segments_preserve_distances,
    resample_segments_uniform,
    state_space_size,
)

BLOCK2 = NullModelSpec("block", 2)


def engine(spec):
    """The engine's ``resample_track`` under ``spec``, called like an oracle."""
    return lambda track, seed: resample_track(track, spec, seed)


def engine_blocks(seq, block_size, seed):
    """``block_permutation`` of ``seq`` through the engine's ``resample_track``."""
    track = PointTrack(Bin("s", 0, len(seq)), np.flatnonzero(seq.values))
    spec = NullModelSpec.from_string(f"block:{block_size}")
    return to_binary_sequence(resample_track(track, spec, seed))


# The reference resampler and the engine's resample_track under one model.
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



class TestSortedSubsets:
    """``_sorted_subsets`` on whole chunks: every row of every chunk counts."""

    @staticmethod
    def drawn_rows(size, k, chunks, seed):
        out = np.empty((64, k), dtype=null_models._slot_dtype(size))
        rng = np.random.default_rng(seed)
        for _ in range(chunks):
            yield from null_models._sorted_subsets(rng, size, out).tolist()

    @pytest.mark.parametrize("size,k", [
        (13, 3),  # sparse: about one row in five draws a repeat and redraws it
        (7, 3),   # dense: the row-wise permutation
    ])
    def test_uniform_over_all_subsets(self, size, k):
        counts = Counter(map(tuple, self.drawn_rows(size, k, 2000, seed=size)))
        support = list(itertools.combinations(range(size), k))
        assert set(counts) == set(support)
        assert_uniform_chisquare([counts[s] for s in support])

    @pytest.mark.parametrize("size,k", [
        (13, 3), (7, 3), (40, 1), (5, 5), (100_000, 0), (2**31 - 1, 40), (2**32 + 7, 40),
    ])
    def test_rows_sorted_distinct_in_range(self, size, k):
        assert null_models._slot_dtype(size) == (np.int32 if size < 2**31 else np.int64)
        rows = np.array(list(self.drawn_rows(size, k, 3, seed=k)), dtype=np.int64)
        assert rows.shape == (192, k)
        assert np.all(np.diff(rows, axis=1) > 0)
        assert np.all((rows >= 0) & (rows < size))
        if size > 2**32:
            # Slots past int32 are drawn, so none wrapped round.
            assert rows.max() >= 2**31

    @pytest.mark.parametrize("size,k", [(13, 3), (20_000, 875), (40_000, 1665)])
    def test_sparse_rows_match_whole_chunk_redraws(self, size, k):
        # Re-sorting only the rows that held a repeat gives the arrays that
        # re-sorting the whole chunk every round gives.
        def whole_chunk(rng, out):
            out[:] = rng.integers(0, size, size=out.shape, dtype=out.dtype)
            out.sort(axis=1)
            later, earlier = out[:, 1:], out[:, :-1]
            repeats = later == earlier
            while repeats.any():
                later[repeats] = rng.integers(
                    0, size, size=np.count_nonzero(repeats), dtype=out.dtype)
                out.sort(axis=1)
                np.equal(later, earlier, out=repeats)
            return out

        for seed in range(20):
            got = null_models._sorted_subsets(
                np.random.default_rng(seed), size, np.empty((64, k), np.int32))
            want = whole_chunk(np.random.default_rng(seed), np.empty((64, k), np.int32))
            assert np.array_equal(got, want)


class RecordingRng:
    """A generator that records the size of every ``random_raw`` call."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.raw_sizes = []
        self.bit_generator = self

    def random_raw(self, size):
        self.raw_sizes.append(size)
        return self.rng.bit_generator.random_raw(size)

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)


class TestPermuteRows:
    """``_permute_rows``: every order of a row equally likely, on each word."""

    @staticmethod
    def orders(values, chunks, seed, rows=64):
        out = np.empty((rows, len(values)), dtype=np.int64)
        rng = RecordingRng(seed)
        counts = Counter()
        for _ in range(chunks):
            counts.update(map(tuple, null_models._permute_rows(rng, values, out).tolist()))
        return counts, rng.raw_sizes[0]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("base,word", [
        (2**27, np.int32),  # 3 key bits
        (2**28, np.int32),  # 2 key bits: ties and three-key runs in most rows
        (2**59, np.int64),  # 3 key bits
        (2**60, np.int64),  # 2 key bits
    ], ids=["int32-3", "int32-2", "int64-3", "int64-2"])
    def test_uniform_over_all_orders(self, n, base, word):
        values = base + np.arange(n)
        counts, first_raw = self.orders(values, 60 * math.factorial(n), seed=n)
        rows = 64 * 60 * math.factorial(n)
        assert first_raw == (64 * n + 1) // 2 if word is np.int32 else 64 * n
        support = list(itertools.permutations(values.tolist()))
        assert set(counts) == set(support) and sum(counts.values()) == rows
        assert_uniform_chisquare([counts[s] for s in support])

    def test_uniform_over_orders_of_repeated_values(self):
        values = 2**28 + np.array([5, 3, 3, 1, 5])
        counts, _ = self.orders(values, 400, seed=3)
        support = sorted(set(itertools.permutations(values.tolist())))
        assert len(support) == 30 and set(counts) == set(support)
        assert_uniform_chisquare([counts[s] for s in support])

    def test_index_payload(self):
        # A value of 63 bits leaves no key bits in an int64 word beside it,
        # so the word holds the value's index and the value is read back.
        values = 2**62 + np.array([9, 0, 2**61, 4])
        counts, first_raw = self.orders(values, 600, seed=5)
        assert first_raw == 64 * 4
        support = list(itertools.permutations(values.tolist()))
        assert set(counts) == set(support)
        assert_uniform_chisquare([counts[s] for s in support])
        wide = 2**62 + np.arange(1000) * 7
        out = null_models._permute_rows(np.random.default_rng(1), wide, np.empty((8, 1000), np.int64))
        assert np.array_equal(np.sort(out, axis=1), np.broadcast_to(wide, (8, 1000)))
        assert not np.array_equal(out[0], wide)

    @pytest.mark.parametrize("values", [[], [7], [2**40]])
    def test_fewer_than_two_values_draw_nothing(self, values):
        values = np.array(values, dtype=np.int64)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        out = null_models._permute_rows(rng, values, np.empty((5, values.size), np.int64))
        assert np.array_equal(out, np.broadcast_to(values, (5, values.size)))
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("value", [0, 1, 1000, 2**31, 2**62])
    def test_all_equal_values(self, value):
        # A zero maximum still takes one payload bit.
        values = np.full(300, value, dtype=np.int64)
        out = null_models._permute_rows(np.random.default_rng(2), values, np.empty((4, 300), np.int64))
        assert np.all(out == value)

    def test_rows_are_permutations_into_a_strided_view(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 5000, size=2000)
        out = np.full((64, 2001), -1, dtype=np.int64)
        null_models._permute_rows(rng, values, out[:, 1:])
        assert np.all(out[:, 0] == -1)
        assert np.array_equal(np.sort(out[:, 1:], axis=1), np.broadcast_to(np.sort(values), (64, 2000)))
        assert len({tuple(row) for row in out.tolist()}) == 64

    def test_segment_models_share_a_chunks_length_order(self):
        b = Bin("b", 0, 5000)
        segments = SegmentTrack(b, [(10, 12), (40, 47), (300, 301), (900, 930), (2000, 2011)])
        lengths = {}
        for spec in (UNIFORM_SEGMENTS, PRESERVE_INTERSEGMENT):
            sample = spec.model.sampler(segments, None, 64)
            starts, ends = sample(np.random.default_rng(8), 64)
            lengths[spec.name] = ends - starts
        assert np.array_equal(lengths["uniform-segments"], lengths["preserve-intersegment"])
        assert len({tuple(row) for row in lengths["uniform-segments"].tolist()}) > 10


class TestResamplePointsPreserveDistances:
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



class TestResampleSegmentsPreserveDistances:
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



# --- block permutation ---------------------------------------------------

class TestBlockPermutation:
    def test_block_equal_to_length_is_identity(self):
        seq = BinarySequence([1, 0, 1, 1])
        for fn in BLOCKS:
            assert fn(seq, 4, 3) == seq

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


# --- every state equally likely: the reference and the engine ----------

# (spec, track, draws, tag, states): every case draws ``draws`` states from
# each side and checks them against the ``states`` enumerated ones.
STATE_CASES = [
    # Every 3-subset of [0, 10): the dense path of the subset draws.
    (UNIFORM_POINTS, PointTrack(Bin("b", 0, 10), [0, 1, 2]), 100_000, "unif-dense", 120),
    # Every 3-subset of [0, 40): the sparse path and its redraws.
    (UNIFORM_POINTS, PointTrack(Bin("b", 0, 40), [0, 1, 2]), 200_000, "unif-sparse", 9880),
    # One point: every position in the bin.
    (PRESERVE_INTERPOINT, PointTrack(Bin("b", 0, 10), [4]), 100_000, "pd1", 10),
    # Distances {1, 2} in a length-10 bin: 2 orders x 7 offsets.
    (PRESERVE_INTERPOINT, PointTrack(Bin("b", 0, 10), [0, 1, 3]), 100_000, "pd3", 14),
    # Lengths {1, 2} in a length-6 bin: 2 orders x C(5, 2) gap splits.
    (UNIFORM_SEGMENTS, SegmentTrack(Bin("b", 0, 6), [(0, 1), (2, 4)]), 100_000, "su", 20),
    # One segment of 3 in a length-8 bin: 6 feasible starts.
    (PRESERVE_INTERSEGMENT, SegmentTrack(Bin("b", 0, 8), [(2, 5)]), 60_000, "sp1", 6),
    # Lengths {2, 3}, gap {4}, bin 12: 2 orders x 4 offsets.
    (PRESERVE_INTERSEGMENT, SegmentTrack(Bin("b", 0, 12), [(0, 2), (6, 9)]), 80_000, "sp2", 8),
    # Blocks of 1 are a full shuffle: 1, 0, 0 in any order.
    (NullModelSpec("block", 1), PointTrack(Bin("s", 0, 3), [0]), 30_000, "b1", 3),
    # Two blocks of 2 on 1, 1, 0, 0: either order.
    (BLOCK2, PointTrack(Bin("s", 0, 4), [0, 1]), 20_000, "b2", 2),
]


def state_of(track):
    if isinstance(track, PointTrack):
        return tuple(track.positions.tolist())
    return tuple(map(tuple, track.segments.tolist()))


def reference_states(track, spec, draws, tag):
    """The states of ``draws`` reference replicates, drawn one after another
    from one generator, ``rng_for(tag, "reference")``."""
    rng = rng_for(tag, "reference")
    return Counter(state_of(reference.resample_track(track, spec, rng)) for _ in range(draws))


def engine_states(track, spec, draws, tag):
    """The states of ``draws`` rows of one 64-row sampler, as a test's
    chunks draw them: chunk c on ``rng_for(tag, "chunk", c)``, and the last
    chunk short."""
    sample = spec.model.sampler(track, spec.block_size, 64)
    counts = Counter()
    for chunk, lo in enumerate(range(0, draws, 64)):
        drawn = sample(rng_for(tag, "chunk", chunk), min(64, draws - lo))
        if isinstance(track, PointTrack):
            # block:b leaves a row's positions out of order.
            counts.update(map(tuple, (np.sort(drawn, axis=1) + track.bin.start).tolist()))
        else:
            rows = (np.stack(drawn, axis=-1) + track.bin.start).tolist()
            counts.update(tuple(map(tuple, row)) for row in rows)
    return counts


@pytest.mark.parametrize(
    "spec,track,draws,tag,states", STATE_CASES,
    ids=[f"{case[0].to_string()}-{case[3]}" for case in STATE_CASES])
def test_every_state_equally_likely(spec, track, draws, tag, states):
    support = enumerate_states(track, spec)
    assert len(support) == states == state_space_size(track, spec)
    for draw_states in (reference_states, engine_states):
        counts = draw_states(track, spec, draws, tag)
        assert set(counts) == support, draw_states.__name__
        assert_uniform_chisquare([counts[s] for s in sorted(support)])


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


def randomizes_points(spec):
    return spec.model.side is PointTrack


def with_block(block):
    """``ALL_MODELS``, with ``block`` as the block size of ``block:<k>``."""
    return [NullModelSpec(s.name, None if s.block_size is None else block) for s in ALL_MODELS]


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
    """{count: number of reference states giving it}. The states are
    equally likely, so this is the count's law up to a factor."""
    if randomizes_points(spec):
        tracks = (PointTrack(points.bin, s) for s in enumerate_states(points, spec))
        return Counter(count_points_in_segments(t, segments) for t in tracks)
    tracks = (SegmentTrack(segments.bin, s) for s in enumerate_states(segments, spec))
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
        got = prepare_counts(KERNEL_POINTS, KERNEL_SEGMENTS, spec, n_draws)(rng, n_draws)
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
        got = prepare_counts(points, segments, spec, 200_000)(rng, 200_000)
        assert_counts_follow(got, exact_count_law(points, segments, spec))

    def test_uniform_points_is_exactly_hypergeometric(self):
        rng = np.random.default_rng(derive_seed("kernel", "hypergeometric"))
        got = prepare_counts(KERNEL_POINTS, KERNEL_SEGMENTS, UNIFORM_POINTS, 40_000)(rng, 40_000)
        assert_counts_follow(got, hypergeometric_law(
            KERNEL_BIN.length, KERNEL_SEGMENTS.total_length, len(KERNEL_POINTS)))

    def test_bin_too_large_for_numpy_hypergeometric(self):
        # 1.2e9 covered bp exceeds numpy's hypergeometric limit of 1e9, so
        # every sample draws its points.
        b = Bin("big", 0, 2_000_000_000)
        points = PointTrack(b, [10, 500_000_000, 1_500_000_000, 1_999_999_999])
        segments = SegmentTrack(b, [(0, 1_200_000_000)])
        rng = np.random.default_rng(derive_seed("kernel", "big"))
        got = prepare_counts(points, segments, UNIFORM_POINTS, 4_000)(rng, 4_000)
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
            prepare_counts(points, segments, spec, 3)(np.random.default_rng(0), 3)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("spec", ALL_MODELS, ids=lambda s: s.to_string())
    def test_nothing_to_count_gives_zeros(self, spec):
        points, segments = KERNEL_POINTS, SegmentTrack(KERNEL_BIN, [])
        if spec == PRESERVE_INTERSEGMENT:  # needs a segment; empty the points instead
            points, segments = PointTrack(KERNEL_BIN, []), KERNEL_SEGMENTS
        got = prepare_counts(points, segments, spec, 5)(np.random.default_rng(1), 5)
        assert got.tolist() == [0] * 5


# --- table lookup and binary search give the same counts ----------------

# _TABLE_FACTOR values that force every count onto one side.
SIDES = {"search": 0, "table": 10**9}


def on_side(side, fn, *args):
    """``fn(*args)`` with ``_TABLE_FACTOR`` set for ``side``. A test chooses
    its side when it is prepared, so ``fn`` must build the counter."""
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
    count = on_side(side, null_models._covered_counter, segments, *rel.shape)
    assert count(rel).tolist() == want


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
    count = on_side(side, null_models._between_counter, points, *ends.shape)
    assert count(starts, ends).tolist() == want


@settings(max_examples=200, deadline=None)
@given(tracks=small_tracks(), data=st.data())
def test_sample_counts_same_on_both_sides(tracks, data):
    points, segments = tracks
    block = data.draw(st.integers(1, points.bin.length))
    seed, m = data.draw(st.integers(0, 2**32)), data.draw(st.integers(1, 5))
    for spec in with_block(block):
        got = {}
        for side in SIDES:
            rng = np.random.default_rng(seed)
            try:
                got[side] = on_side(
                    side, lambda: prepare_counts(points, segments, spec, m)(rng, m)).tolist()
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
    for spec in with_block(block):
        if spec == UNIFORM_POINTS:
            continue
        try:
            want = prepare_counts(points, segments, spec, 1)(rng_for(seed), 1)[0]
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
        rows = draw_chunk(spec.model.sampler(points, spec.block_size, 64), data)
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
        starts, ends = draw_chunk(spec.model.sampler(segments, spec.block_size, 64), data)
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
        for spec in (UNIFORM_SEGMENTS, PRESERVE_INTERSEGMENT):
            assert state_space_size(track, spec) == len(enumerate_states(track, spec))

    def test_single_segment_offsets(self):
        track = SegmentTrack(Bin("b", 0, 8), [(2, 5)])
        assert state_space_size(track, PRESERVE_INTERSEGMENT) == 6

    def test_duplicate_lengths_collapse_orders(self):
        track = SegmentTrack(Bin("b", 0, 10), [(0, 2), (4, 6)])
        assert state_space_size(track, PRESERVE_INTERSEGMENT) == len(
            enumerate_states(track, PRESERVE_INTERSEGMENT)
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
            prepare_counts(track, SegmentTrack(track.bin, [(0, 4)]), block, 1)(
                np.random.default_rng(0), 1)
        with pytest.raises(ValueError, match=message):
            state_space_size(track, block)


class TestHierarchyContainment:
    def test_small_sweep(self):
        # The segment side of criterion 7: every track of at most three
        # segments, touching ones included, in bins of length <= 10.
        for length in range(1, 11):
            b = Bin("b", 0, length)
            uniform_support = {}
            for k in range(4):
                for bounds in itertools.combinations_with_replacement(range(length + 1), 2 * k):
                    pairs = list(zip(bounds[::2], bounds[1::2]))
                    if any(start == end for start, end in pairs):
                        continue
                    track = SegmentTrack(b, pairs)
                    # Uniform-segments' states depend on the lengths alone.
                    lengths = tuple(sorted(track.lengths.tolist()))
                    if lengths not in uniform_support:
                        uniform_support[lengths] = enumerate_states(track, UNIFORM_SEGMENTS)
                    uniform = uniform_support[lengths]
                    preserve = enumerate_states(track, PRESERVE_INTERSEGMENT)
                    assert preserve <= uniform, pairs
                    assert len(preserve) == state_space_size(track, PRESERVE_INTERSEGMENT)
                    assert len(uniform) == state_space_size(track, UNIFORM_SEGMENTS)


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

    def test_every_model_round_trips(self):
        assert {spec.name for spec in ALL_MODELS} == set(MODELS)
        for spec in ALL_MODELS:
            assert NullModelSpec.from_string(spec.to_string()) == spec
            assert NullModelSpec(spec.name, spec.block_size) == spec
            assert spec.model is MODELS[spec.name]
            assert pickle.loads(pickle.dumps(spec)) == spec

    @pytest.mark.parametrize("name,block_size", [
        ("uniform-segments", 2), ("block", None), ("block", 0), ("shuffle-everything", None),
    ])
    def test_invalid_spec_rejected(self, name, block_size):
        with pytest.raises(ValueError):
            NullModelSpec(name, block_size)

    def test_equal_string_equal_spec_equal_hash(self):
        specs = [
            *ALL_MODELS, *with_block(5), *with_block(40),
            NullModelSpec("block", 4), NullModelSpec("uniform-points"),
            *(NullModelSpec.from_string(name) for name in
              ("block:4", " block:5 ", "block:05", "block:40", "uniform-points")),
        ]
        for a, b in itertools.product(specs, repeat=2):
            same_string = a.to_string() == b.to_string()
            assert same_string == (a == b) == (hash(a) == hash(b)), (a, b)
