"""Resampling null models ordered by how much observed structure they keep.

Each resampler maps (track, seed) to a fresh randomized track in the same
bin. The four track-level models form two nested pairs, one per randomized
side: for points and for segments alike, holding the empirical
inter-element distances fixed restricts the resampling state space to a
subset of that side's uniform-location state space, which tends to push
p-values up. Models that randomize different sides have no containment
between them. ``state_space_size`` makes the containment quantitative on
small instances.

The per-sample resamplers are pure in (input, seed) and serve as the
reference implementations. The Monte Carlo engine draws through
``sample_counts`` instead: one count kernel per model, vectorized over the
rows of a chunk, whose counts follow exactly the distribution of the
matching resampler's track counted against the fixed track.

The kernels sample bin-relative coordinates and count them by table
lookup: a point kernel reads each position in a coverage mask of the
segments, and a segment kernel reads its starts and ends in a prefix count
of the points. A chunk builds its table only when the bin is at most four
times as long as the chunk's lookups; otherwise it binary-searches, which
gives the same counts without a table the size of the bin.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .seeding import rng_for
from .stats import _count_in_intervals
from .tracks import BinarySequence, PointTrack, SegmentTrack


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
    sequence instead of the track-level resamplers; it is only meaningful
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


def _uniform_composition(rng: np.random.Generator, total: int, parts: int) -> np.ndarray:
    """Uniform composition of ``total`` into ``parts`` non-negative integers."""
    if parts < 1:
        raise ValueError("need at least one part")
    if parts == 1:
        return np.array([total], dtype=np.int64)
    if total == 0:
        return np.zeros(parts, dtype=np.int64)
    bars = _uniform_subset(rng, total + parts - 1, parts - 1)
    out = np.empty(parts, dtype=np.int64)
    out[0] = bars[0]
    out[1:-1] = np.diff(bars) - 1
    out[-1] = (total + parts - 2) - bars[-1]
    return out


# --- feasibility checks shared by the resamplers and the count kernels ----

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


# --- reference resamplers: one randomized track per seed --------------------

def resample_points_uniform(track: PointTrack, rng_seed: int) -> PointTrack:
    """n points drawn uniformly without replacement from the bin."""
    _check_uniform_points(track)
    rng = rng_for(rng_seed)
    positions = _uniform_subset(rng, track.bin.length, len(track)) + track.bin.start
    return PointTrack(track.bin, positions)


def resample_points_preserve_distances(track: PointTrack, rng_seed: int) -> PointTrack:
    """Permute the consecutive inter-point distances, uniform feasible offset.

    The multiset of n-1 gaps is preserved exactly; only their order and the
    block's start position are randomized.
    """
    gaps, n_offsets = _interpoint_gaps(track)
    rng = rng_for(rng_seed)
    offset = int(rng.integers(0, n_offsets))
    steps = np.concatenate(([0], np.cumsum(rng.permutation(gaps))))
    return PointTrack(track.bin, track.bin.start + offset + steps)


def resample_segments_uniform(track: SegmentTrack, rng_seed: int) -> SegmentTrack:
    """Relocate segments uniformly, preserving the length multiset.

    Lengths are permuted and the slack is split into k+1 gaps by a uniform
    random composition (stars and bars), giving every disjoint arrangement
    equal probability without rejection sampling.
    """
    k = len(track)
    if k == 0:
        return SegmentTrack(track.bin, np.empty((0, 2), dtype=np.int64))
    slack = _segment_slack(track)
    rng = rng_for(rng_seed)
    new_lengths = rng.permutation(track.lengths)
    gaps = _uniform_composition(rng, slack, k + 1)
    starts = track.bin.start + np.cumsum(gaps[:-1]) + np.concatenate(
        ([0], np.cumsum(new_lengths[:-1]))
    )
    return SegmentTrack(track.bin, np.column_stack((starts, starts + new_lengths)))


def resample_segments_preserve_distances(track: SegmentTrack, rng_seed: int) -> SegmentTrack:
    """Permute inter-segment gaps and lengths independently; uniform offset.

    Both empirical multisets (gaps and lengths) are preserved exactly.
    """
    gaps, n_offsets = _intersegment_gaps(track)
    rng = rng_for(rng_seed)
    offset = int(rng.integers(0, n_offsets))
    new_gaps = rng.permutation(gaps)
    new_lengths = rng.permutation(track.lengths)
    starts = track.bin.start + offset + np.concatenate(
        ([0], np.cumsum(new_lengths[:-1] + new_gaps))
    )
    return SegmentTrack(track.bin, np.column_stack((starts, starts + new_lengths)))


def block_permutation(seq: BinarySequence, block_size: int, rng_seed: int) -> BinarySequence:
    """Permute consecutive blocks of the sequence, preserving within-block order.

    Short-range correlation up to lag block_size-1 survives the shuffle.
    If block_size does not divide the length, the trailing partial block
    stays in place.
    """
    n = len(seq)
    _check_block_size(block_size, n)
    m = n // block_size
    rng = rng_for(rng_seed)
    order = rng.permutation(m)
    head = seq.values[: m * block_size].reshape(m, block_size)[order].reshape(-1)
    return BinarySequence(np.concatenate((head, seq.values[m * block_size :])))


def resample_track(
    track: Union[PointTrack, SegmentTrack],
    spec: NullModelSpec,
    rng_seed: int,
) -> Union[PointTrack, SegmentTrack]:
    """Draw one replicate under ``spec``; dispatches to the right resampler."""
    if spec.block_size is not None:
        from .tracks import to_binary_sequence

        if not isinstance(track, PointTrack):
            raise TypeError("block permutation requires a point track")
        seq = block_permutation(to_binary_sequence(track), spec.block_size, rng_seed)
        positions = np.flatnonzero(seq.values).astype(np.int64) + track.bin.start
        return PointTrack(track.bin, positions)
    if spec.randomized_side is RandomizedSide.POINTS:
        if not isinstance(track, PointTrack):
            raise TypeError("null model randomizes points but a segment track was given")
        fn = (
            resample_points_uniform
            if spec.preservation is Preservation.UNIFORM_LOCATION
            else resample_points_preserve_distances
        )
        return fn(track, rng_seed)
    if not isinstance(track, SegmentTrack):
        raise TypeError("null model randomizes segments but a point track was given")
    fn = (
        resample_segments_uniform
        if spec.preservation is Preservation.UNIFORM_LOCATION
        else resample_segments_preserve_distances
    )
    return fn(track, rng_seed)


# --- count kernels: many samples per call, no tracks built ------------------

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

    The side ``spec`` randomizes is redrawn for every sample and the other
    track stays fixed. Each count has exactly the distribution of
    ``_count_in_intervals`` on the matching reference resampler's track;
    infeasible inputs raise the resampler's ``ValueError``.
    """
    if spec.block_size is not None:
        return _block_counts(points, segments, spec.block_size, rng, m)
    if spec.randomized_side is RandomizedSide.POINTS:
        if spec.preservation is Preservation.UNIFORM_LOCATION:
            return _uniform_point_counts(points, segments, rng, m)
        return _preserve_point_counts(points, segments, rng, m)
    if spec.preservation is Preservation.UNIFORM_LOCATION:
        return _uniform_segment_counts(points, segments, rng, m)
    return _preserve_segment_counts(points, segments, rng, m)


def _uniform_point_counts(
    points: PointTrack, segments: SegmentTrack, rng: np.random.Generator, m: int
) -> np.ndarray:
    # n points uniform without replacement: the covered ones are
    # Hypergeometric(covered bp, uncovered bp, n).
    _check_uniform_points(points)
    n, length = len(points), points.bin.length
    covered = segments.total_length
    if max(covered, length - covered) < _HYPERGEOMETRIC_LIMIT:
        return rng.hypergeometric(covered, length - covered, n, size=m)
    draws = (points.bin.start + _uniform_subset(rng, length, n) for _ in range(m))
    return np.array([_count_in_intervals(d, segments.segments) for d in draws], dtype=np.int64)


def _preserve_point_counts(
    points: PointTrack, segments: SegmentTrack, rng: np.random.Generator, m: int
) -> np.ndarray:
    gaps, n_offsets = _interpoint_gaps(points)
    offsets = rng.integers(0, n_offsets, size=m)
    rel = np.empty((m, len(points)), dtype=np.int64)
    rel[:, 0] = 0
    np.cumsum(rng.permuted(np.broadcast_to(gaps, (m, gaps.size)), axis=1), axis=1,
              out=rel[:, 1:])
    rel += offsets[:, None]
    return _count_covered(rel, segments)


def _uniform_segment_counts(
    points: PointTrack, segments: SegmentTrack, rng: np.random.Generator, m: int
) -> np.ndarray:
    k = len(segments)
    if k == 0:
        return np.zeros(m, dtype=np.int64)
    slack = _segment_slack(segments)
    lengths = rng.permuted(np.broadcast_to(segments.lengths, (m, k)), axis=1)
    # Stars and bars: k sorted bars among slack + k slots give a uniform
    # composition of the slack into k+1 gaps; the gaps before segment j sum
    # to bars[j] - j.
    bars = np.empty((m, k), dtype=np.int64)
    for row in bars:
        row[:] = rng.choice(slack + k, k, replace=False, shuffle=False)
    bars.sort(axis=1)
    ends = np.cumsum(lengths, axis=1)
    ends += bars - np.arange(k)
    return _count_between(points, ends - lengths, ends)


def _preserve_segment_counts(
    points: PointTrack, segments: SegmentTrack, rng: np.random.Generator, m: int
) -> np.ndarray:
    gaps, n_offsets = _intersegment_gaps(segments)
    k = len(segments)
    offsets = rng.integers(0, n_offsets, size=m)
    lengths = rng.permuted(np.broadcast_to(segments.lengths, (m, k)), axis=1)
    # Segment j ends after the first j+1 lengths and the first j gaps.
    ends = lengths.copy()
    ends[:, 1:] += rng.permuted(np.broadcast_to(gaps, (m, k - 1)), axis=1)
    np.cumsum(ends, axis=1, out=ends)
    ends += offsets[:, None]
    return _count_between(points, ends - lengths, ends)


def _block_counts(
    points: PointTrack, segments: SegmentTrack, block_size: int, rng: np.random.Generator, m: int
) -> np.ndarray:
    # A point in block i moves to block slot[i], keeping its offset within
    # the block. The reference moves block order[j] to j, so slot is the
    # inverse of order; the inverse of a uniform permutation is uniform, so
    # a drawn permutation serves as slot directly. Points in the trailing
    # partial block stay in place.
    _check_block_size(block_size, points.bin.length)
    n_blocks = points.bin.length // block_size
    rel = points.positions - points.bin.start
    in_head = rel < n_blocks * block_size
    block, within = np.divmod(rel[in_head], block_size)
    slot = rng.permuted(np.broadcast_to(np.arange(n_blocks), (m, n_blocks)), axis=1)
    moved = slot[:, block] * block_size + within
    fixed = _count_in_intervals(points.positions[~in_head], segments.segments)
    return _count_covered(moved, segments) + fixed


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


def _multiset_permutations(values: np.ndarray) -> int:
    """Distinct orders of the rows of ``values`` (a 1-D array's elements)."""
    _, counts = np.unique(values, axis=0, return_counts=True)
    out = math.factorial(len(values))
    for c in counts.tolist():
        out //= math.factorial(c)
    return out


def state_space_size(
    obj: Union[PointTrack, SegmentTrack, BinarySequence],
    spec: NullModelSpec,
) -> int:
    """Exact number of distinct states reachable under ``spec``.

    Computed with arbitrary-precision integers, so it is exact at any size
    (the result may simply be astronomically large).
    """
    if spec.block_size is not None:
        if not isinstance(obj, BinarySequence):
            from .tracks import to_binary_sequence

            if not isinstance(obj, PointTrack):
                raise TypeError("block permutation applies to binary sequences or point tracks")
            obj = to_binary_sequence(obj)
        _check_block_size(spec.block_size, len(obj))
        m = len(obj) // spec.block_size
        return _multiset_permutations(obj.values[: m * spec.block_size].reshape(m, -1))

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
