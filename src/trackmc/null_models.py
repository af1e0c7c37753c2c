"""Resampling null models ordered by how much observed structure they keep.

Each model randomizes one track of a bin. The four track-level models form
two nested pairs, one per randomized side: for points and for segments
alike, holding the empirical inter-element distances fixed restricts the
resampling state space to a subset of that side's uniform-location state
space, which tends to push p-values up. Models that randomize different
sides have no containment between them. ``state_space_size`` makes the
containment quantitative on small instances.

Each model has one sampler, which draws many randomized tracks at once as
bin-relative arrays: ``_sample_points`` for the point models and
``block:b``, ``_sample_segments`` for the segment models. The Monte Carlo
engine draws through ``sample_counts``, which counts each sampled track
against the fixed one. ``resample_track`` returns one sampled track.

The samples are counted by table lookup: a point sample's positions are
read in a coverage mask of the segments, and a segment sample's starts and
ends in a prefix count of the points. A chunk builds its table only when
the bin is at most four times as long as the chunk's lookups; otherwise it
binary-searches, which gives the same counts without a table the size of
the bin.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass
from typing import Union

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


def sample_counts(
    points: PointTrack,
    segments: SegmentTrack,
    spec: NullModelSpec,
    rng: np.random.Generator,
    m: int,
) -> np.ndarray:
    """``m`` null samples of the points-in-segments count, as int64[m].

    The side ``spec`` randomizes is redrawn for every sample by that side's
    sampler, and the other track stays fixed. Uniform-points counts are
    drawn from their exact hypergeometric law instead, where numpy can.
    Infeasible inputs raise the sampler's ``ValueError``.
    """
    if spec.block_size is None and spec.randomized_side is RandomizedSide.SEGMENTS:
        return _count_between(points, *_sample_segments(segments, spec, rng, m))
    if spec.block_size is None and spec.preservation is Preservation.UNIFORM_LOCATION:
        # n points uniform without replacement: the covered ones are
        # Hypergeometric(covered bp, uncovered bp, n).
        _check_uniform_points(points)
        covered, length = segments.total_length, points.bin.length
        if max(covered, length - covered) < _HYPERGEOMETRIC_LIMIT:
            return rng.hypergeometric(covered, length - covered, len(points), size=m)
    return _count_covered(_sample_points(points, spec, rng, m), segments)


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
        rel = _sample_points(track, spec, rng, 1)[0]
        return PointTrack(track.bin, np.sort(rel) + track.bin.start)
    if not isinstance(track, SegmentTrack):
        raise TypeError("null model randomizes segments but a point track was given")
    starts, ends = _sample_segments(track, spec, rng, 1)
    return SegmentTrack(track.bin, np.column_stack((starts[0], ends[0])) + track.bin.start)


def _sample_points(
    points: PointTrack, spec: NullModelSpec, rng: np.random.Generator, m: int
) -> np.ndarray:
    """``m`` randomized point tracks as bin-relative int64[m, n] rows.

    Rows are sorted except under ``block:b``.
    """
    length, rel = points.bin.length, points.positions - points.bin.start
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
        slot = rng.permuted(np.broadcast_to(np.arange(n_blocks), (m, n_blocks)), axis=1)
        moved = slot[:, block] * size + within
        if head < rel.size:
            moved = np.concatenate((moved, np.broadcast_to(rel[head:], (m, rel.size - head))),
                                   axis=1)
        return moved
    if spec.preservation is Preservation.UNIFORM_LOCATION:
        _check_uniform_points(points)
        rows = [_uniform_subset(rng, length, len(points)) for _ in range(m)]
        return np.array(rows, dtype=np.int64).reshape(m, len(points))
    gaps, n_offsets = _interpoint_gaps(points)
    offsets = rng.integers(0, n_offsets, size=m)
    out = np.empty((m, len(points)), dtype=np.int64)
    out[:, 0] = 0
    np.cumsum(rng.permuted(np.broadcast_to(gaps, (m, gaps.size)), axis=1), axis=1,
              out=out[:, 1:])
    out += offsets[:, None]
    return out


def _sample_segments(
    segments: SegmentTrack, spec: NullModelSpec, rng: np.random.Generator, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """``m`` randomized segment tracks as bin-relative (starts, ends), each
    int64[m, k], segments in order along each row."""
    k = len(segments)
    if spec.preservation is Preservation.UNIFORM_LOCATION:
        if k == 0:
            return np.empty((m, 0), dtype=np.int64), np.empty((m, 0), dtype=np.int64)
        slack = _segment_slack(segments)
        lengths = rng.permuted(np.broadcast_to(segments.lengths, (m, k)), axis=1)
        # Stars and bars: k sorted bars among slack + k slots give a uniform
        # composition of the slack into k+1 gaps; the gaps before segment j
        # sum to bars[j] - j.
        bars = np.empty((m, k), dtype=np.int64)
        for row in bars:
            row[:] = rng.choice(slack + k, k, replace=False, shuffle=False)
        bars.sort(axis=1)
        ends = np.cumsum(lengths, axis=1)
        ends += bars - np.arange(k)
        return ends - lengths, ends
    gaps, n_offsets = _intersegment_gaps(segments)
    offsets = rng.integers(0, n_offsets, size=m)
    lengths = rng.permuted(np.broadcast_to(segments.lengths, (m, k)), axis=1)
    # Segment j ends after the first j+1 lengths and the first j gaps.
    ends = lengths.copy()
    ends[:, 1:] += rng.permuted(np.broadcast_to(gaps, (m, k - 1)), axis=1)
    np.cumsum(ends, axis=1, out=ends)
    ends += offsets[:, None]
    return ends - lengths, ends


# A lookup table costs about 3 ns per bp of bin to build, a binary search
# about 18 ns per lookup and a table gather about 2 ns. So a chunk builds
# its table only when the bin spans at most this many bp per lookup; then
# the table never costs more than the searches it replaces, and never
# outgrows the chunk's own int64 temporaries.
_TABLE_FACTOR = 4


def _count_covered(rel: np.ndarray, segments: SegmentTrack) -> np.ndarray:
    """Per row, the bin-relative positions that some segment covers."""
    length = segments.bin.length
    edges = segments.segments - segments.bin.start
    if length > _TABLE_FACTOR * rel.size:
        return _count_in_intervals(rel, edges)
    # Coverage mask of the bin: +1 at each start, -1 at each end, summed.
    # Starts are distinct and so are ends, so plain assignment suffices.
    step = np.zeros(length + 1, dtype=np.int8)
    step[edges[:, 0]] = 1
    step[edges[:, 1]] -= 1
    mask = np.cumsum(step[:length], dtype=np.int8).view(np.uint8)
    return mask[rel].sum(axis=-1, dtype=np.int64)


def _count_between(points: PointTrack, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Per row, the points inside the half-open bin-relative [starts, ends)."""
    length = points.bin.length
    rel = points.positions - points.bin.start
    if length > _TABLE_FACTOR * 2 * ends.size:
        inside = np.searchsorted(rel, ends) - np.searchsorted(rel, starts)
        return inside.sum(axis=-1)
    # Prefix count: before[x] is the number of points below x, for x in [0, L].
    before = np.zeros(length + 1, dtype=np.int32)
    before[rel + 1] = 1
    np.cumsum(before, out=before)
    return (before[ends] - before[starts]).sum(axis=-1, dtype=np.int64)


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
