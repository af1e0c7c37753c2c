"""Resampling null models ordered by how much observed structure they keep.

Each model randomizes one track of a bin. The four track-level models form
two nested pairs, one per randomized side: for points and for segments
alike, holding the empirical inter-element distances fixed restricts the
resampling state space to a subset of that side's uniform-location state
space, which tends to push p-values up. Models that randomize different
sides have no containment between them. The tests count the states
exactly on small instances (``tests/reference.py``).

Every model is one ``NullModel`` entry of ``MODELS``, keyed by its name:
the track class it randomizes, the elements one sample permutes, one
sampler that draws many randomized tracks at once as bin-relative arrays
and, where one is known, an exact law of the count. A ``NullModelSpec``
is a name and, for ``block``, a block size. The Monte Carlo engine
prepares each test once with ``prepare_counts``: the tracks are checked,
what every sample shares is found, and one chunk's arrays are allocated.
Every chunk of the test then draws into those arrays and counts each
sampled track against the fixed one. ``resample_track`` returns one
sampled track. Uniform-segments and uniform-points draw a sorted uniform
subset of slots for every row of a chunk at once (``_sorted_subsets``),
and every row-wise permutation of a chunk is one sort of packed random
keys (``_permute_rows``).

The samples are counted by table lookup: a point sample's positions are
read in a coverage mask of the segments, and a segment sample's starts and
ends in a prefix count of the points. A test reads the table only when the
bin is at most four times as long as the lookups of one full chunk;
otherwise it binary-searches, which gives the same counts without a table
the size of the bin. ``prepare_counts`` makes that choice and builds the
table, and every chunk of the test, the short last one too, reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .seeding import rng_for
from .stats import _count_in_intervals
from .tracks import PointTrack, SegmentTrack

Track = Union[PointTrack, SegmentTrack]
Draw = Callable[[np.random.Generator, int], np.ndarray]

BLOCK = "block"


@dataclass(frozen=True)
class NullModel:
    """One null model. Its functions take the track the model randomizes and
    ``b``, the block size of ``block:b`` (None under every other model).

    - ``side``: the class of that track.
    - ``size(track, b)``: how many elements one sample permutes.
    - ``sampler(track, b, rows)``: checks the track, raising ``ValueError``
      where the model cannot resample it, and returns ``sample(rng, m)``:
      ``m <= rows`` randomized tracks as the first ``m`` rows of one
      bin-relative int64[rows, n] array of positions, or of two int64[rows,
      k] arrays of segment starts and ends. Segments are in order along each
      row, and so are points except under ``block:b``. Each call overwrites
      the rows the one before it returned.
    - ``law(points, segments)``: a ``draw(rng, m)`` of ``m`` counts from
      the count's exact law, or None where it cannot draw. A model without
      one keeps the default, which is always None.
    """

    side: type
    size: Callable[[Track, int | None], int]
    sampler: Callable[[Track, int | None, int], Callable]
    law: Callable[[PointTrack, SegmentTrack], Draw | None] = lambda points, segments: None


@dataclass(frozen=True)
class NullModelSpec:
    """A null model: its ``MODELS`` name and, for ``block``, the block size."""

    name: str
    block_size: int | None = None

    def __post_init__(self) -> None:
        if self.name not in MODELS or (self.name == BLOCK and self.block_size is None):
            raise ValueError(
                f"unknown null model {self.name!r}; expected one of "
                f"{sorted(MODELS.keys() - {BLOCK})} or {BLOCK}:<k>"
            )
        if self.block_size is not None:
            if self.name != BLOCK:
                raise ValueError(f"null model {self.name!r} takes no block size")
            if self.block_size < 1:
                raise ValueError(f"block size must be >= 1, got {self.block_size}")

    @property
    def model(self) -> NullModel:
        return MODELS[self.name]

    def to_string(self) -> str:
        return self.name if self.block_size is None else f"{self.name}:{self.block_size}"

    @classmethod
    def from_string(cls, name: str) -> "NullModelSpec":
        """Parse the CLI form: one of ``SPELLINGS``, with ``<k>`` a block size
        written in ASCII digits alone."""
        name = name.strip()
        if name.startswith(f"{BLOCK}:"):
            k = name.split(":", 1)[1]
            if not (k.isascii() and k.isdigit()):
                raise ValueError(f"bad block size in null model {name!r}")
            return cls(BLOCK, int(k))
        return cls(name)


def _slot_dtype(size: int) -> type:
    """int32 where every slot of range(size) fits in it, else int64. Rows of
    int32 sort about twice as fast."""
    return np.int32 if size < 2**31 else np.int64


def _permute_rows(rng: np.random.Generator, values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill every row of ``out`` (m rows of n) with an exactly uniform random
    order of the n non-negative integers ``values``, all rows at once, and
    return ``out``.

    Each value is packed under a random key into one word, the rows are
    sorted and the keys masked off. A word is int32 where the value leaves
    at least ``max(1, 2*bitlen(n) - 4)`` key bits in it, else int64 with the
    value, or where that leaves too few key bits its index, as the payload.
    The keys are the top bits of ``random_raw`` draws, two to a draw in
    int32 words and one in int64. Rows with three equal keys in a run are
    drawn again, in row order, until none is left; then each pair of equal
    keys, which the sort left in payload order, is swapped by a fair coin.
    Both rules depend on the keys alone, and the keys are exchangeable, so
    every order of the row is equally likely.
    """
    m, n = out.shape
    if n < 2:
        out[:] = values
        return out
    value_bits = max(1, int(values.max()).bit_length())
    # At least one key bit: with none, three values would always run.
    min_key_bits = max(1, 2 * n.bit_length() - 4)
    word, by_index = np.uint32, False
    if 31 - value_bits < min_key_bits:
        word, by_index = np.uint64, 63 - value_bits < min_key_bits
    payload_bits = (n - 1).bit_length() if by_index else value_bits
    payload = (np.arange(n) if by_index else values).astype(word)
    key_shift, payload_shift = word(payload_bits + 1), word(payload_bits)

    def draw(rows: int) -> tuple[np.ndarray, np.ndarray]:
        # The sorted words of ``rows`` rows, and where their keys tie.
        if word is np.uint32:
            raw = rng.bit_generator.random_raw((rows * n + 1) // 2).view(np.uint32)
            words = raw[:rows * n].reshape(rows, n)
        else:
            words = rng.bit_generator.random_raw(rows * n).reshape(rows, n)
        # The key fills every bit above the payload but the sign bit.
        words >>= key_shift
        words <<= payload_shift
        words |= payload
        words.sort(axis=1)
        keys = words >> payload_shift
        return words, keys[:, 1:] == keys[:, :-1]

    def three_in_a_run(tie: np.ndarray) -> np.ndarray:
        # The rows holding ties at two neighbouring places. A tie is a flat
        # index into the tie mask, whose rows are n - 1 long.
        later = tie[1:][np.diff(tie) == 1]
        return np.unique(later[later % (n - 1) != 0] // (n - 1))

    words, ties = draw(m)
    tie = np.flatnonzero(ties)
    # Most chunks of a wide row tie nowhere, and need nothing more.
    again = three_in_a_run(tie) if tie.size else tie
    if again.size:
        # Redrawn rows tie elsewhere, so the ties are found again after.
        while again.size:
            words[again], redrawn = draw(again.size)
            ties[again] = redrawn
            again = again[three_in_a_run(np.flatnonzero(redrawn))]
        tie = np.flatnonzero(ties)
    if tie.size:
        # The ties are disjoint pairs now.
        tie = tie[rng.integers(0, 2, size=tie.size, dtype=np.int8) == 1]
        tie += tie // (n - 1)
        flat = words.reshape(-1)
        flat[tie], flat[tie + 1] = flat[tie + 1], flat[tie]
    if by_index:
        out[:] = values[words.view(np.int64) & ((1 << payload_bits) - 1)]
    else:
        np.bitwise_and(words, word((1 << payload_bits) - 1), out=out)
    return out


def _sorted_subsets(rng: np.random.Generator, size: int, out: np.ndarray) -> np.ndarray:
    """Fill every row of ``out`` (m rows of k) with a sorted, exactly uniform
    random k-subset of range(size), all rows at once, and return ``out``.

    Dense rows (``4*k >= size``) take the first k slots of a row-wise
    permutation. Sparse rows draw their k slots with replacement, sort, and
    redraw exactly the entries equal to their left neighbour, until no row
    has one; each round re-sorts only the rows it redrew in. That rule
    depends only on which slots are equal, and every redraw is uniform, so
    the law of the final set is unchanged by any relabelling of the slots:
    it is the uniform law on k-subsets.
    """
    m, k = out.shape
    if 4 * k >= size:
        slots = np.arange(size, dtype=out.dtype)
        out[:] = _permute_rows(rng, slots, np.empty((m, size), dtype=out.dtype))[:, :k]
        out.sort(axis=1)
        return out
    out[:] = rng.integers(0, size, size=(m, k), dtype=out.dtype)
    out.sort(axis=1)
    rows, held = np.arange(m), out
    while True:
        repeats = held[:, 1:] == held[:, :-1]
        again = repeats.any(axis=1)
        if not again.any():
            return out
        rows, repeats = rows[again], repeats[again]
        held = out[rows]
        held[:, 1:][repeats] = rng.integers(
            0, size, size=np.count_nonzero(repeats), dtype=out.dtype)
        held.sort(axis=1)
        out[rows] = held


# --- feasibility checks of the samplers ------------------------------------

def _interpoint_gaps(track: PointTrack) -> tuple[np.ndarray, int]:
    """The n-1 inter-point gaps and the number of feasible first positions."""
    if len(track) < 1:
        raise ValueError("distance-preserving resample needs at least one point")
    gaps = np.diff(track.positions)
    return gaps, track.bin.length - int(gaps.sum())


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


# --- the models: samplers and exact laws -----------------------------------

def _uniform_points_sampler(points: PointTrack, b: None, rows: int) -> Callable:
    length, n = points.bin.length, len(points)
    out = np.empty((rows, n), dtype=np.int64)
    slots = np.empty((rows, n), dtype=_slot_dtype(length))

    def sample(rng: np.random.Generator, m: int) -> np.ndarray:
        out[:m] = _sorted_subsets(rng, length, slots[:m])
        return out[:m]
    return sample


def _interpoint_sampler(points: PointTrack, b: None, rows: int) -> Callable:
    gaps, n_offsets = _interpoint_gaps(points)
    out = np.empty((rows, len(points)), dtype=np.int64)

    def sample(rng: np.random.Generator, m: int) -> np.ndarray:
        drawn = out[:m]
        drawn[:, 0] = rng.integers(0, n_offsets, size=m)
        _permute_rows(rng, gaps, drawn[:, 1:])
        np.cumsum(drawn, axis=1, out=drawn)
        return drawn
    return sample


def _block_sampler(points: PointTrack, size: int, rows: int) -> Callable:
    # A point in block i moves to block slot[i], keeping its offset within
    # the block. Moving block order[j] to j, as the plain definition does,
    # makes slot the inverse of order; the inverse of a uniform permutation
    # is uniform, so a drawn permutation serves as slot directly. Points in
    # the trailing partial block stay in place.
    length, rel = points.bin.length, points.positions - points.bin.start
    _check_block_size(size, length)
    out = np.empty((rows, rel.size), dtype=np.int64)
    n_blocks = length // size
    head = int(np.searchsorted(rel, n_blocks * size))
    block, within = np.divmod(rel[:head], size)
    blocks = np.arange(n_blocks)
    slot = np.empty((rows, n_blocks), dtype=np.int64)
    out[:, head:] = rel[head:]

    def sample(rng: np.random.Generator, m: int) -> np.ndarray:
        _permute_rows(rng, blocks, slot[:m])
        moved = out[:m, :head]
        np.take(slot[:m], block, axis=1, out=moved, mode="clip")
        moved *= size
        moved += within
        return out[:m]
    return sample


def _uniform_segments_sampler(segments: SegmentTrack, b: None, rows: int) -> Callable:
    k, lengths = len(segments), segments.lengths
    slots = segments.bin.length - segments.total_length + k
    starts = np.empty((rows, k), dtype=np.int64)
    ends = np.empty((rows, k), dtype=np.int64)
    bars = np.empty((rows, k), dtype=_slot_dtype(slots))
    bar_shift = np.arange(k)

    def sample(rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
        # starts holds the permuted lengths until the ends are known.
        _permute_rows(rng, lengths, starts[:m])
        # Stars and bars: k bars among slack + k slots, a uniform k-subset
        # drawn for the whole chunk at once, give a uniform composition of
        # the slack into k+1 gaps; the gaps before segment j sum to
        # bars[j] - j.
        _sorted_subsets(rng, slots, bars[:m])
        np.cumsum(starts[:m], axis=1, out=ends[:m])
        ends[:m] += bars[:m]
        ends[:m] -= bar_shift
        np.subtract(ends[:m], starts[:m], out=starts[:m])
        return starts[:m], ends[:m]
    return sample


def _intersegment_sampler(segments: SegmentTrack, b: None, rows: int) -> Callable:
    gaps, n_offsets = _intersegment_gaps(segments)
    k, lengths = len(segments), segments.lengths
    starts = np.empty((rows, k), dtype=np.int64)
    ends = np.empty((rows, k), dtype=np.int64)

    def sample(rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
        # The lengths come first, so a chunk orders them as uniform-segments
        # does on the same stream.
        _permute_rows(rng, lengths, starts[:m])
        # Segment j ends after the offset, the first j+1 lengths and the
        # first j gaps.
        ends[:m, 0] = rng.integers(0, n_offsets, size=m)
        _permute_rows(rng, gaps, ends[:m, 1:])
        ends[:m] += starts[:m]
        np.cumsum(ends[:m], axis=1, out=ends[:m])
        np.subtract(ends[:m], starts[:m], out=starts[:m])
        return starts[:m], ends[:m]
    return sample


# numpy's hypergeometric sampler takes fewer than 10**9 good and bad items.
_HYPERGEOMETRIC_LIMIT = 10**9


def _hypergeometric_law(points: PointTrack, segments: SegmentTrack) -> Draw | None:
    # n points uniform without replacement: the covered ones are
    # Hypergeometric(covered bp, uncovered bp, n).
    covered, length, n = segments.total_length, points.bin.length, len(points)
    if max(covered, length - covered) < _HYPERGEOMETRIC_LIMIT:
        return lambda rng, m: rng.hypergeometric(covered, length - covered, n, size=m)
    return None


MODELS: dict[str, NullModel] = {
    "uniform-points": NullModel(
        PointTrack, size=lambda points, b: 1, sampler=_uniform_points_sampler,
        law=_hypergeometric_law),
    "preserve-interpoint": NullModel(
        PointTrack, size=lambda points, b: len(points) - 1, sampler=_interpoint_sampler),
    "uniform-segments": NullModel(
        SegmentTrack, size=lambda segments, b: 2 * len(segments) - 1,
        sampler=_uniform_segments_sampler),
    "preserve-intersegment": NullModel(
        SegmentTrack, size=lambda segments, b: 2 * len(segments) - 1,
        sampler=_intersegment_sampler),
    BLOCK: NullModel(
        PointTrack, size=lambda points, b: points.bin.length // b,
        sampler=_block_sampler),
}
# How --null-model spells each model, in table order; block takes its size.
SPELLINGS = tuple(f"{name}:<k>" if name == BLOCK else name for name in MODELS)

UNIFORM_POINTS = NullModelSpec("uniform-points")
PRESERVE_INTERPOINT = NullModelSpec("preserve-interpoint")
UNIFORM_SEGMENTS = NullModelSpec("uniform-segments")
PRESERVE_INTERSEGMENT = NullModelSpec("preserve-intersegment")


# --- the entry points: every model through its entry ---------------------

# A chunk's temporaries hold at most this many int64 elements (8 MB).
_CHUNK_ELEMENTS = 2**20
_MAX_CHUNK_ROWS = 64


def sample_size(points: PointTrack, segments: SegmentTrack, spec: NullModelSpec) -> int:
    """How many elements one sample permutes (the entry's ``size``), at least
    1. It depends on the tracks and the model alone."""
    model = spec.model
    track = points if model.side is PointTrack else segments
    return max(1, model.size(track, spec.block_size))


def chunk_rows(points: PointTrack, segments: SegmentTrack, spec: NullModelSpec) -> int:
    """Samples per seeded chunk: ``min(64, max(1, 2**20 // sample_size))``.

    It depends on the tracks alone, so chunk boundaries never move with the
    number of samples or workers.
    """
    size = sample_size(points, segments, spec)
    return min(_MAX_CHUNK_ROWS, max(1, _CHUNK_ELEMENTS // size))


def prepare_counts(
    points: PointTrack, segments: SegmentTrack, spec: NullModelSpec, rows: int
) -> Draw:
    """Prepare one test whose null samples are drawn at most ``rows`` at a time.

    The tracks are checked under ``spec`` here, so infeasible inputs raise
    the sampler's ``ValueError`` before any sample. What every sample
    shares (gaps, lengths, bin-relative positions and edges) is found once,
    the arrays of one ``rows``-sample chunk are allocated once, and the
    count's lookup table, where the test reads one, is built once.

    The returned ``draw(rng, m)``, for ``m <= rows``, gives ``m`` null
    samples of the points-in-segments count as int64[m]. The side ``spec``
    randomizes is redrawn for every sample by the model's sampler, and the
    other track stays fixed. A model with an exact ``law`` draws its counts
    from that law instead, where the law can.
    """
    model = spec.model
    draw = model.law(points, segments)
    if draw is not None:
        return draw
    if model.side is SegmentTrack:
        sample_segments = model.sampler(segments, spec.block_size, rows)
        count_between = _between_counter(points, rows, len(segments))
        return lambda rng, m: count_between(*sample_segments(rng, m))
    sample_points = model.sampler(points, spec.block_size, rows)
    count_covered = _covered_counter(segments, rows, len(points))
    return lambda rng, m: count_covered(sample_points(rng, m))


def resample_track(track: Track, spec: NullModelSpec, rng_seed: int) -> Track:
    """One randomized track under ``spec``: row 0 of the model's sampler on
    ``rng_for(rng_seed)``.

    Under a model without an exact law, its count against a fixed track
    equals ``prepare_counts(..., 1)(rng_for(rng_seed), 1)[0]``.
    """
    rng = rng_for(rng_seed)
    side = spec.model.side
    if not isinstance(track, side):
        raise TypeError(
            f"null model {spec.to_string()} randomizes a {side.__name__}, "
            f"not a {type(track).__name__}"
        )
    sample = spec.model.sampler(track, spec.block_size, 1)(rng, 1)
    if side is PointTrack:
        return PointTrack(track.bin, np.sort(sample[0]) + track.bin.start)
    starts, ends = sample
    return SegmentTrack(track.bin, np.column_stack((starts[0], ends[0])) + track.bin.start)


# A lookup table costs about 3 ns per bp of bin to build, a binary search
# about 18 ns per lookup and a table gather about 2 ns. So a test reads a
# table only when the bin spans at most this many bp per lookup of one full
# chunk. The table is built once per test, so it never costs more than the
# searches of that one chunk, and never outgrows the chunk's own int64
# arrays.
_TABLE_FACTOR = 4


def _covered_counter(
    segments: SegmentTrack, rows: int, n: int
) -> Callable[[np.ndarray], np.ndarray]:
    """``count(rel)``: per row of ``m <= rows`` rows of ``n`` bin-relative
    positions, those that some segment covers."""
    length = segments.bin.length
    edges = segments.segments - segments.bin.start
    if length > _TABLE_FACTOR * rows * n:
        return lambda rel: _count_in_intervals(rel, edges)
    # Coverage mask of the bin: +1 at each start, -1 at each end, summed.
    # Starts are distinct and so are ends, so plain assignment suffices.
    step = np.zeros(length + 1, dtype=np.int8)
    step[edges[:, 0]] = 1
    step[edges[:, 1]] -= 1
    mask = np.cumsum(step[:length], dtype=np.int8).view(np.uint8)
    hits = np.empty((rows, n), dtype=np.uint8)

    def count(rel: np.ndarray) -> np.ndarray:
        # mode="clip" writes straight into hits; every position is in the bin.
        found = np.take(mask, rel, out=hits[:len(rel)], mode="clip")
        return found.sum(axis=-1, dtype=np.int64)
    return count


def _between_counter(
    points: PointTrack, rows: int, k: int
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``count(starts, ends)``: per row of ``m <= rows`` rows of ``k``
    bin-relative segments, the points inside the half-open [starts, ends)."""
    length = points.bin.length
    rel = points.positions - points.bin.start
    if length > _TABLE_FACTOR * rows * 2 * k:
        return lambda starts, ends: (
            np.searchsorted(rel, ends) - np.searchsorted(rel, starts)).sum(axis=-1)
    # Prefix count: before[x] is the number of points below x, for x in [0, L].
    before = np.zeros(length + 1, dtype=np.int32)
    before[rel + 1] = 1
    np.cumsum(before, out=before)
    lookups = np.empty((rows, k), dtype=np.int32)

    def count(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        found = lookups[:len(ends)]
        # mode="clip" writes straight into found; every boundary is in [0, L].
        inside = np.take(before, ends, out=found, mode="clip").sum(axis=-1, dtype=np.int64)
        inside -= np.take(before, starts, out=found, mode="clip").sum(axis=-1, dtype=np.int64)
        return inside
    return count
