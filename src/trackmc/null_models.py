"""Resampling null models ordered by how much observed structure they keep.

Each model randomizes one track of a bin. The four track-level models form
two nested pairs, one per randomized side: for points and for segments
alike, holding the empirical inter-element distances fixed restricts the
resampling state space to a subset of that side's uniform-location state
space, which tends to push p-values up. Models that randomize different
sides have no containment between them. ``state_space_size`` makes the
containment quantitative on small instances.

Each model has one sampler, which draws many randomized tracks at once as
bin-relative arrays: ``_point_sampler`` for the point models and
``block:b``, ``_segment_sampler`` for the segment models. The Monte Carlo
engine prepares each test once with ``prepare_counts``: the tracks are
checked, what every sample shares is found, and one chunk's arrays are
allocated. Every chunk of the test then draws into those arrays and counts
each sampled track against the fixed one. ``sample_counts`` is the
one-chunk form of the same, and ``resample_track`` returns one sampled
track.

The samples are counted by table lookup: a point sample's positions are
read in a coverage mask of the segments, and a segment sample's starts and
ends in a prefix count of the points. A chunk reads the table only when
the bin is at most four times as long as the chunk's lookups; otherwise it
binary-searches, which gives the same counts without a table the size of
the bin. A test builds its table at most once, the first time one of its
chunks takes the table, and its later chunks read the same table.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .seeding import rng_for
from .stats import _count_in_intervals
from .tracks import PointTrack, SegmentTrack


class RandomizedSide(enum.Enum):
    POINTS = "points"
    SEGMENTS = "segments"


class Preservation(enum.Enum):
    UNIFORM_LOCATION = "uniform"
    PRESERVE_INTER_DISTANCES = "preserve"


@dataclass(frozen=True)
class NullModelSpec:
    """Which track is randomized and what the resampling preserves.

    ``block_size`` selects block permutation of the point indicator
    sequence instead of the track-level models; it is only meaningful
    with ``randomized_side=POINTS``.
    """

    randomized_side: RandomizedSide
    preservation: Preservation
    block_size: int | None = None

    def __post_init__(self) -> None:
        if self.block_size is not None:
            if self.block_size < 1:
                raise ValueError(f"block size must be >= 1, got {self.block_size}")
            if self.randomized_side is not RandomizedSide.POINTS:
                raise ValueError("block permutation applies to the point track only")

    _NAMES = {
        (RandomizedSide.POINTS, Preservation.UNIFORM_LOCATION): "uniform-points",
        (RandomizedSide.POINTS, Preservation.PRESERVE_INTER_DISTANCES): "preserve-interpoint",
        (RandomizedSide.SEGMENTS, Preservation.UNIFORM_LOCATION): "uniform-segments",
        (RandomizedSide.SEGMENTS, Preservation.PRESERVE_INTER_DISTANCES): "preserve-intersegment",
    }

    def to_string(self) -> str:
        if self.block_size is not None:
            return f"block:{self.block_size}"
        return self._NAMES[(self.randomized_side, self.preservation)]

    @classmethod
    def from_string(cls, name: str) -> "NullModelSpec":
        """Parse the CLI form: uniform-points, preserve-interpoint,
        uniform-segments, preserve-intersegment, or block:<k>."""
        name = name.strip()
        if name.startswith("block:"):
            try:
                k = int(name.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad block size in null model {name!r}") from None
            return cls(RandomizedSide.POINTS, Preservation.UNIFORM_LOCATION, block_size=k)
        for key, val in cls._NAMES.items():
            if val == name:
                return cls(*key)
        raise ValueError(
            f"unknown null model {name!r}; expected one of "
            f"{sorted(cls._NAMES.values())} or block:<k>"
        )


UNIFORM_POINTS = NullModelSpec(RandomizedSide.POINTS, Preservation.UNIFORM_LOCATION)
PRESERVE_INTERPOINT = NullModelSpec(RandomizedSide.POINTS, Preservation.PRESERVE_INTER_DISTANCES)
UNIFORM_SEGMENTS = NullModelSpec(RandomizedSide.SEGMENTS, Preservation.UNIFORM_LOCATION)
PRESERVE_INTERSEGMENT = NullModelSpec(
    RandomizedSide.SEGMENTS, Preservation.PRESERVE_INTER_DISTANCES
)


def _uniform_subset(rng: np.random.Generator, size: int, count: int) -> np.ndarray:
    """Sorted uniform random count-subset of range(size), exactly uniform.

    Dense requests fall back to a full permutation; sparse ones draw with
    replacement and deduplicate, which by symmetry still yields a uniform
    subset once a uniform count-subset of the distinct values is kept.
    """
    if count < 0 or count > size:
        raise ValueError(f"cannot draw {count} distinct values from {size}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if size <= 64 or 4 * count >= size:
        return np.sort(rng.permutation(size)[:count]).astype(np.int64)
    have = np.empty(0, dtype=np.int64)
    while have.size < count:
        need = count - have.size
        draw = rng.integers(0, size, size=need + need // 4 + 16, dtype=np.int64)
        have = np.union1d(have, draw)
    if have.size > count:
        have = np.sort(have[rng.permutation(have.size)[:count]])
    return have


# --- feasibility checks shared by the samplers and state_space_size -------

def _check_uniform_points(track: PointTrack) -> None:
    if len(track) > track.bin.length:
        raise ValueError(
            f"bin of length {track.bin.length} cannot host {len(track)} distinct points"
        )


def _interpoint_gaps(track: PointTrack) -> tuple[np.ndarray, int]:
    """The n-1 inter-point gaps and the number of feasible first positions."""
    if len(track) < 1:
        raise ValueError("distance-preserving resample needs at least one point")
    gaps = np.diff(track.positions)
    span = int(gaps.sum())
    if span >= track.bin.length:
        raise ValueError("point span exceeds bin length")
    return gaps, track.bin.length - span


def _segment_slack(track: SegmentTrack) -> int:
    """Uncovered base pairs of the bin."""
    slack = track.bin.length - track.total_length
    if slack < 0:
        raise ValueError("total segment length exceeds bin length")
    return slack


def _intersegment_gaps(track: SegmentTrack) -> tuple[np.ndarray, int]:
    """The k-1 inter-segment gaps and the number of feasible first starts."""
    if len(track) < 1:
        raise ValueError("distance-preserving resample needs at least one segment")
    gaps = track.segments[1:, 0] - track.segments[:-1, 1]
    span = track.total_length + int(gaps.sum())
    return gaps, track.bin.length - span + 1


def _check_block_size(block_size: int, length: int) -> None:
    if block_size < 1 or block_size > length:
        raise ValueError(f"block size must be in [1, {length}], got {block_size}")


# --- samplers and counts: many samples per call ----------------------------

# numpy's hypergeometric sampler takes fewer than 10**9 good and bad items.
_HYPERGEOMETRIC_LIMIT = 10**9
# A chunk's temporaries hold at most this many int64 elements (8 MB).
_CHUNK_ELEMENTS = 2**20
_MAX_CHUNK_ROWS = 64


def sample_size(points: PointTrack, segments: SegmentTrack, spec: NullModelSpec) -> int:
    """How many elements one sample permutes, at least 1.

    n-1 gaps under preserve-interpoint, k lengths plus k-1 gaps under the
    segment models, L // b blocks under ``block:b`` and 1 under
    uniform-points. It depends on the tracks and the model alone.
    """
    if spec.block_size is not None:
        size = points.bin.length // spec.block_size
    elif spec.randomized_side is RandomizedSide.SEGMENTS:
        size = 2 * len(segments) - 1
    elif spec.preservation is Preservation.PRESERVE_INTER_DISTANCES:
        size = len(points) - 1
    else:
        size = 1
    return max(1, size)


def chunk_rows(points: PointTrack, segments: SegmentTrack, spec: NullModelSpec) -> int:
    """Samples per seeded chunk: ``min(64, max(1, 2**20 // sample_size))``.

    It depends on the tracks alone, so chunk boundaries never move with the
    number of samples or workers.
    """
    size = sample_size(points, segments, spec)
    return min(_MAX_CHUNK_ROWS, max(1, _CHUNK_ELEMENTS // size))


def prepare_counts(
    points: PointTrack, segments: SegmentTrack, spec: NullModelSpec, rows: int
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Prepare one test whose null samples are drawn at most ``rows`` at a time.

    The tracks are checked under ``spec`` here, so infeasible inputs raise
    the sampler's ``ValueError`` before any sample. What every sample
    shares (gaps, lengths, bin-relative positions and edges) is found once,
    and the arrays of one ``rows``-sample chunk are allocated once.

    The returned ``draw(rng, m)``, for ``m <= rows``, gives ``m`` null
    samples of the points-in-segments count as int64[m]. The side ``spec``
    randomizes is redrawn for every sample by that side's sampler, and the
    other track stays fixed. Uniform-points counts are drawn from their
    exact hypergeometric law instead, where numpy can.
    """
    if spec.block_size is None and spec.randomized_side is RandomizedSide.SEGMENTS:
        sample_segments = _segment_sampler(segments, spec, rows)
        count_between = _between_counter(points, rows)
        return lambda rng, m: count_between(*sample_segments(rng, m))
    if spec.block_size is None and spec.preservation is Preservation.UNIFORM_LOCATION:
        # n points uniform without replacement: the covered ones are
        # Hypergeometric(covered bp, uncovered bp, n).
        _check_uniform_points(points)
        covered, length, n = segments.total_length, points.bin.length, len(points)
        if max(covered, length - covered) < _HYPERGEOMETRIC_LIMIT:
            return lambda rng, m: rng.hypergeometric(covered, length - covered, n, size=m)
    sample_points = _point_sampler(points, spec, rows)
    count_covered = _covered_counter(segments, rows)
    return lambda rng, m: count_covered(sample_points(rng, m))


def sample_counts(
    points: PointTrack,
    segments: SegmentTrack,
    spec: NullModelSpec,
    rng: np.random.Generator,
    m: int,
) -> np.ndarray:
    """``m`` null samples of the points-in-segments count, as int64[m]: one
    draw of ``prepare_counts(points, segments, spec, m)``."""
    return prepare_counts(points, segments, spec, m)(rng, m)


def resample_track(
    track: Union[PointTrack, SegmentTrack],
    spec: NullModelSpec,
    rng_seed: int,
) -> Union[PointTrack, SegmentTrack]:
    """One randomized track under ``spec``: row 0 of the model's sampler on
    ``rng_for(rng_seed)``.

    Except under uniform-points, its count against a fixed track equals
    ``sample_counts(..., rng_for(rng_seed), 1)[0]``.
    """
    rng = rng_for(rng_seed)
    if spec.block_size is not None or spec.randomized_side is RandomizedSide.POINTS:
        if not isinstance(track, PointTrack):
            raise TypeError("null model randomizes points but a segment track was given")
        rel = _point_sampler(track, spec, 1)(rng, 1)[0]
        return PointTrack(track.bin, np.sort(rel) + track.bin.start)
    if not isinstance(track, SegmentTrack):
        raise TypeError("null model randomizes segments but a point track was given")
    starts, ends = _segment_sampler(track, spec, 1)(rng, 1)
    return SegmentTrack(track.bin, np.column_stack((starts[0], ends[0])) + track.bin.start)


def _point_sampler(
    points: PointTrack, spec: NullModelSpec, rows: int
) -> Callable[[np.random.Generator, int], np.ndarray]:
    """``sample(rng, m)``: ``m <= rows`` randomized point tracks, the first
    ``m`` rows of one bin-relative int64[rows, n] array.

    Rows are sorted except under ``block:b``. Each call overwrites the rows
    the one before it returned.
    """
    length, rel = points.bin.length, points.positions - points.bin.start
    out = np.empty((rows, rel.size), dtype=np.int64)
    if spec.block_size is not None:
        # A point in block i moves to block slot[i], keeping its offset
        # within the block. Moving block order[j] to j, as the plain
        # definition does, makes slot the inverse of order; the inverse of a
        # uniform permutation is uniform, so a drawn permutation serves as
        # slot directly. Points in the trailing partial block stay in place.
        size = spec.block_size
        _check_block_size(size, length)
        n_blocks = length // size
        head = int(np.searchsorted(rel, n_blocks * size))
        block, within = np.divmod(rel[:head], size)
        blocks = np.arange(n_blocks)
        slot = np.empty((rows, n_blocks), dtype=np.int64)
        out[:, head:] = rel[head:]

        def sample(rng: np.random.Generator, m: int) -> np.ndarray:
            rng.permuted(np.broadcast_to(blocks, (m, n_blocks)), axis=1, out=slot[:m])
            moved = out[:m, :head]
            np.take(slot[:m], block, axis=1, out=moved, mode="clip")
            moved *= size
            moved += within
            return out[:m]
        return sample
    if spec.preservation is Preservation.UNIFORM_LOCATION:
        _check_uniform_points(points)

        def sample(rng: np.random.Generator, m: int) -> np.ndarray:
            for row in out[:m]:
                row[:] = _uniform_subset(rng, length, rel.size)
            return out[:m]
        return sample
    gaps, n_offsets = _interpoint_gaps(points)

    def sample(rng: np.random.Generator, m: int) -> np.ndarray:
        offsets = rng.integers(0, n_offsets, size=m)
        drawn = out[:m]
        drawn[:, 0] = 0
        rng.permuted(np.broadcast_to(gaps, (m, gaps.size)), axis=1, out=drawn[:, 1:])
        np.cumsum(drawn[:, 1:], axis=1, out=drawn[:, 1:])
        drawn += offsets[:, None]
        return drawn
    return sample


def _segment_sampler(
    segments: SegmentTrack, spec: NullModelSpec, rows: int
) -> Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]:
    """``sample(rng, m)``: ``m <= rows`` randomized segment tracks as
    bin-relative (starts, ends), the first ``m`` rows of two int64[rows, k]
    arrays, segments in order along each row.

    Each call overwrites the rows the one before it returned.
    """
    k, lengths = len(segments), segments.lengths
    starts = np.empty((rows, k), dtype=np.int64)
    ends = np.empty((rows, k), dtype=np.int64)
    if spec.preservation is Preservation.UNIFORM_LOCATION:
        if k == 0:
            return lambda rng, m: (starts[:m], ends[:m])
        slack = _segment_slack(segments)
        bars = np.empty((rows, k), dtype=np.int64)
        bar_shift = np.arange(k)

        def sample(rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
            # starts holds the permuted lengths until the ends are known.
            rng.permuted(np.broadcast_to(lengths, (m, k)), axis=1, out=starts[:m])
            # Stars and bars: k sorted bars among slack + k slots give a
            # uniform composition of the slack into k+1 gaps; the gaps before
            # segment j sum to bars[j] - j.
            for row in bars[:m]:
                row[:] = rng.choice(slack + k, k, replace=False, shuffle=False)
            bars[:m].sort(axis=1)
            bars[:m] -= bar_shift
            np.cumsum(starts[:m], axis=1, out=ends[:m])
            ends[:m] += bars[:m]
            np.subtract(ends[:m], starts[:m], out=starts[:m])
            return starts[:m], ends[:m]
        return sample
    gaps, n_offsets = _intersegment_gaps(segments)

    def sample(rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
        offsets = rng.integers(0, n_offsets, size=m)
        rng.permuted(np.broadcast_to(lengths, (m, k)), axis=1, out=starts[:m])
        # Segment j ends after the first j+1 lengths and the first j gaps.
        ends[:m, 0] = 0
        rng.permuted(np.broadcast_to(gaps, (m, k - 1)), axis=1, out=ends[:m, 1:])
        ends[:m] += starts[:m]
        np.cumsum(ends[:m], axis=1, out=ends[:m])
        ends[:m] += offsets[:, None]
        np.subtract(ends[:m], starts[:m], out=starts[:m])
        return starts[:m], ends[:m]
    return sample


# A lookup table costs about 3 ns per bp of bin to build, a binary search
# about 18 ns per lookup and a table gather about 2 ns. So a chunk reads a
# table only when the bin spans at most this many bp per lookup of that
# chunk. A test builds its table the first time a chunk takes it and keeps
# it for its later chunks, so the table never costs more than the searches
# of that one chunk, and never outgrows the chunk's own int64 arrays.
_TABLE_FACTOR = 4


def _covered_counter(segments: SegmentTrack, rows: int) -> Callable[[np.ndarray], np.ndarray]:
    """``count(rel)``: per row of ``m <= rows`` rows of bin-relative
    positions, those that some segment covers."""
    length = segments.bin.length
    edges = segments.segments - segments.bin.start
    table = None  # the coverage mask and a uint8[rows, n] array of lookups

    def count(rel: np.ndarray) -> np.ndarray:
        nonlocal table
        if length > _TABLE_FACTOR * rel.size:
            return _count_in_intervals(rel, edges)
        if table is None:
            # Coverage mask of the bin: +1 at each start, -1 at each end,
            # summed. Starts are distinct and so are ends, so plain
            # assignment suffices.
            step = np.zeros(length + 1, dtype=np.int8)
            step[edges[:, 0]] = 1
            step[edges[:, 1]] -= 1
            mask = np.cumsum(step[:length], dtype=np.int8).view(np.uint8)
            table = mask, np.empty((rows, rel.shape[1]), dtype=np.uint8)
        mask, hits = table
        # mode="clip" writes straight into hits; every position is in the bin.
        hits = np.take(mask, rel, out=hits[:len(rel)], mode="clip")
        return hits.sum(axis=-1, dtype=np.int64)
    return count


def _between_counter(
    points: PointTrack, rows: int
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``count(starts, ends)``: per row of ``m <= rows`` rows of bin-relative
    segments, the points inside the half-open [starts, ends)."""
    length = points.bin.length
    rel = points.positions - points.bin.start
    table = None  # the prefix count and an int32[rows, k] array of lookups

    def count(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        nonlocal table
        if length > _TABLE_FACTOR * 2 * ends.size:
            inside = np.searchsorted(rel, ends) - np.searchsorted(rel, starts)
            return inside.sum(axis=-1)
        if table is None:
            # Prefix count: before[x] is the number of points below x, for
            # x in [0, L].
            before = np.zeros(length + 1, dtype=np.int32)
            before[rel + 1] = 1
            np.cumsum(before, out=before)
            table = before, np.empty((rows, ends.shape[1]), dtype=np.int32)
        before, found = table
        found = found[:len(ends)]
        # mode="clip" writes straight into found; every boundary is in [0, L].
        inside = np.take(before, ends, out=found, mode="clip").sum(axis=-1, dtype=np.int64)
        inside -= np.take(before, starts, out=found, mode="clip").sum(axis=-1, dtype=np.int64)
        return inside
    return count


def _orders(counts: list[int]) -> int:
    """Distinct orders of a multiset whose distinct values occur ``counts`` times."""
    out = math.factorial(sum(counts))
    for c in counts:
        out //= math.factorial(c)
    return out


def _multiset_permutations(values: np.ndarray) -> int:
    """Distinct orders of the elements of ``values``."""
    return _orders(np.unique(values, return_counts=True)[1].tolist())


def state_space_size(obj: Union[PointTrack, SegmentTrack], spec: NullModelSpec) -> int:
    """Exact number of distinct states reachable under ``spec``.

    Computed with arbitrary-precision integers, so it is exact at any size
    (the result may simply be astronomically large).
    """
    if spec.block_size is not None:
        if not isinstance(obj, PointTrack):
            raise TypeError("block permutation applies to point tracks")
        size = spec.block_size
        _check_block_size(size, obj.bin.length)
        n_blocks = obj.bin.length // size
        rel = obj.positions - obj.bin.start
        # A state is an order of the blocks' point patterns (the offsets of
        # their points); every empty block has the same, empty pattern.
        patterns: dict[int, list[int]] = {}
        for block, within in zip(*np.divmod(rel[rel < n_blocks * size], size)):
            patterns.setdefault(int(block), []).append(int(within))
        counts = Counter(tuple(p) for p in patterns.values())
        return _orders([*counts.values(), n_blocks - len(patterns)])

    if spec.randomized_side is RandomizedSide.POINTS:
        if not isinstance(obj, PointTrack):
            raise TypeError("expected a point track")
        if spec.preservation is Preservation.UNIFORM_LOCATION:
            return math.comb(obj.bin.length, len(obj))
        if len(obj) == 0:
            return 1
        gaps, n_offsets = _interpoint_gaps(obj)
        return _multiset_permutations(gaps) * n_offsets

    if not isinstance(obj, SegmentTrack):
        raise TypeError("expected a segment track")
    k = len(obj)
    if k == 0:
        return 1
    orders = _multiset_permutations(obj.lengths)
    if spec.preservation is Preservation.UNIFORM_LOCATION:
        return orders * math.comb(_segment_slack(obj) + k, k)
    gaps, n_offsets = _intersegment_gaps(obj)
    return orders * _multiset_permutations(gaps) * n_offsets
