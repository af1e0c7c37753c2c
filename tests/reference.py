"""Reference implementations the tests check the package against.

The resamplers build one randomized track per seed, or per draw from a
generator passed in its place (``_rng``), the plainest reading of each null
model; ``resample_track`` picks one by the model's name.
``enumerate_states`` lists every state a model reaches from a small track,
by the model's name: every n-subset of the bin (uniform-points), every
order of the gaps at every feasible offset (preserve-interpoint), every
order of the blocks (``block:b``), every order of the lengths with every
split of the slack (uniform-segments), and every order of the lengths and
of the gaps at every feasible offset (preserve-intersegment). Both the
resamplers and the engine's samplers are checked for uniformity over those
states, and the engine's counts against the resamplers and the exact laws
the states give. ``state_space_size`` counts each model's states by
formula, which makes the nesting of the models quantitative (criterion 7
and its segment-side sweep). ``weighted_sum_statistic``,
``segment_indicator_weights`` and ``pair_weight`` spell out the statistic
and the Ripley edge correction term by term, and
``statistic_moments_under_stationarity`` gives the statistic's variance
under a stationary correlation (criterion 8).
``read_points_per_line`` and ``read_segments_per_line`` read a track file
one line at a time and raise at its first bad line; ``tracks.read_points``
and ``read_segments`` must return the same arrays and raise the same
errors. ``merge_per_interval`` merges overlapping intervals in a plain loop,
the oracle of ``tracks.merge_overlapping``. ``CLEAN_ROWS`` are the patterns
of the plain lines that those readers convert without parsing them one at
a time.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from typing import Union

import numpy as np

from trackmc import BinarySequence, PointTrack, SegmentTrack, rng_for, to_binary_sequence
from trackmc.null_models import (
    NullModelSpec,
    _check_block_size,
    _interpoint_gaps,
    _intersegment_gaps,
)
from trackmc.tracks import (
    PathLike,
    TrackFormatError,
    TrackValidationError,
    _data_rows,
    _parse_int,
    _text,
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


# --- reference resamplers: one randomized track per seed --------------------

Seed = Union[int, np.random.Generator]


def _rng(rng_seed: Seed) -> np.random.Generator:
    """The generator a resampler draws from: ``rng_seed`` itself if it is one,
    else ``rng_for(rng_seed)``."""
    return rng_seed if isinstance(rng_seed, np.random.Generator) else rng_for(rng_seed)


def resample_points_uniform(track: PointTrack, rng_seed: Seed) -> PointTrack:
    """n points drawn uniformly without replacement from the bin."""
    rng = _rng(rng_seed)
    positions = _uniform_subset(rng, track.bin.length, len(track)) + track.bin.start
    return PointTrack(track.bin, positions)


def resample_points_preserve_distances(track: PointTrack, rng_seed: Seed) -> PointTrack:
    """Permute the consecutive inter-point distances, uniform feasible offset.

    The multiset of n-1 gaps is preserved exactly; only their order and the
    block's start position are randomized.
    """
    gaps, n_offsets = _interpoint_gaps(track)
    rng = _rng(rng_seed)
    offset = int(rng.integers(0, n_offsets))
    steps = np.concatenate(([0], np.cumsum(rng.permutation(gaps))))
    return PointTrack(track.bin, track.bin.start + offset + steps)


def resample_segments_uniform(track: SegmentTrack, rng_seed: Seed) -> SegmentTrack:
    """Relocate segments uniformly, preserving the length multiset.

    Lengths are permuted and the slack is split into k+1 gaps by a uniform
    random composition (stars and bars), giving every disjoint arrangement
    equal probability without rejection sampling.
    """
    k = len(track)
    if k == 0:
        return SegmentTrack(track.bin, np.empty((0, 2), dtype=np.int64))
    slack = track.bin.length - track.total_length
    rng = _rng(rng_seed)
    new_lengths = rng.permutation(track.lengths)
    gaps = _uniform_composition(rng, slack, k + 1)
    starts = track.bin.start + np.cumsum(gaps[:-1]) + np.concatenate(
        ([0], np.cumsum(new_lengths[:-1]))
    )
    return SegmentTrack(track.bin, np.column_stack((starts, starts + new_lengths)))


def resample_segments_preserve_distances(track: SegmentTrack, rng_seed: Seed) -> SegmentTrack:
    """Permute inter-segment gaps and lengths independently; uniform offset.

    Both empirical multisets (gaps and lengths) are preserved exactly.
    """
    gaps, n_offsets = _intersegment_gaps(track)
    rng = _rng(rng_seed)
    offset = int(rng.integers(0, n_offsets))
    new_gaps = rng.permutation(gaps)
    new_lengths = rng.permutation(track.lengths)
    starts = track.bin.start + offset + np.concatenate(
        ([0], np.cumsum(new_lengths[:-1] + new_gaps))
    )
    return SegmentTrack(track.bin, np.column_stack((starts, starts + new_lengths)))


def block_permutation(seq: BinarySequence, block_size: int, rng_seed: Seed) -> BinarySequence:
    """Permute consecutive blocks of the sequence, preserving within-block order.

    Short-range correlation up to lag block_size-1 survives the shuffle.
    If block_size does not divide the length, the trailing partial block
    stays in place.
    """
    n = len(seq)
    _check_block_size(block_size, n)
    m = n // block_size
    rng = _rng(rng_seed)
    order = rng.permutation(m)
    head = seq.values[: m * block_size].reshape(m, block_size)[order].reshape(-1)
    return BinarySequence(np.concatenate((head, seq.values[m * block_size :])))


def resample_track(
    track: Union[PointTrack, SegmentTrack],
    spec: NullModelSpec,
    rng_seed: Seed,
) -> Union[PointTrack, SegmentTrack]:
    """Draw one replicate under ``spec`` by the resampler its name selects.
    A model without a reference resampler raises ``KeyError``."""
    if spec.name == "block":
        seq = block_permutation(to_binary_sequence(track), spec.block_size, rng_seed)
        positions = np.flatnonzero(seq.values).astype(np.int64) + track.bin.start
        return PointTrack(track.bin, positions)
    resample = {
        "uniform-points": resample_points_uniform,
        "preserve-interpoint": resample_points_preserve_distances,
        "uniform-segments": resample_segments_uniform,
        "preserve-intersegment": resample_segments_preserve_distances,
    }[spec.name]
    return resample(track, rng_seed)


# --- exact state-space sizes ------------------------------------------------

def _orders(counts: list[int]) -> int:
    """Distinct orders of a multiset whose distinct values occur ``counts`` times."""
    out = math.factorial(sum(counts))
    for c in counts:
        out //= math.factorial(c)
    return out


def _multiset_permutations(values: np.ndarray) -> int:
    """Distinct orders of the elements of ``values``."""
    return _orders(np.unique(values, return_counts=True)[1].tolist())


def _uniform_points_states(points: PointTrack, b: None) -> int:
    return math.comb(points.bin.length, len(points))


def _interpoint_states(points: PointTrack, b: None) -> int:
    if len(points) == 0:
        return 1
    gaps, n_offsets = _interpoint_gaps(points)
    return _multiset_permutations(gaps) * n_offsets


def _block_states(points: PointTrack, size: int) -> int:
    # A state is an order of the blocks' point patterns (the offsets of
    # their points); every empty block has the same, empty pattern.
    _check_block_size(size, points.bin.length)
    n_blocks = points.bin.length // size
    rel = points.positions - points.bin.start
    patterns: dict[int, list[int]] = {}
    for block, within in zip(*np.divmod(rel[rel < n_blocks * size], size)):
        patterns.setdefault(int(block), []).append(int(within))
    counts = Counter(tuple(p) for p in patterns.values())
    return _orders([*counts.values(), n_blocks - len(patterns)])


def _uniform_segments_states(segments: SegmentTrack, b: None) -> int:
    k = len(segments)
    if k == 0:
        return 1
    slots = segments.bin.length - segments.total_length + k
    return _multiset_permutations(segments.lengths) * math.comb(slots, k)


def _intersegment_states(segments: SegmentTrack, b: None) -> int:
    if len(segments) == 0:
        return 1
    gaps, n_offsets = _intersegment_gaps(segments)
    return _multiset_permutations(segments.lengths) * _multiset_permutations(gaps) * n_offsets


def state_space_size(track: Union[PointTrack, SegmentTrack], spec: NullModelSpec) -> int:
    """Exact number of distinct states the model ``spec`` names reaches
    from ``track``, as an arbitrary-precision integer. It raises where the
    sampler raises, except that an empty track has its one, empty state.
    A model without a count raises ``KeyError``."""
    states = {
        "uniform-points": _uniform_points_states,
        "preserve-interpoint": _interpoint_states,
        "uniform-segments": _uniform_segments_states,
        "preserve-intersegment": _intersegment_states,
        "block": _block_states,
    }[spec.name]
    return states(track, spec.block_size)


# --- exact state enumeration ------------------------------------------------

def _compositions(total: int, parts: int):
    """Every composition of ``total`` into ``parts`` non-negative integers."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        edges = (-1, *bars, total + parts - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def _laid_out(start: int, gaps: tuple, lengths: tuple) -> tuple:
    """Segments of ``lengths`` in order from ``start``, each after its gap."""
    segments, pos = [], start
    for gap, length in zip(gaps, lengths):
        pos += gap
        segments.append((pos, pos + length))
        pos += length
    return tuple(segments)


def _uniform_points_support(points: PointTrack, b: None) -> set:
    start = points.bin.start
    return {
        tuple(start + p for p in combo)
        for combo in itertools.combinations(range(points.bin.length), len(points))
    }


def _interpoint_support(points: PointTrack, b: None) -> set:
    if len(points) == 0:
        return {()}
    gaps, n_offsets = _interpoint_gaps(points)
    return {
        tuple(itertools.accumulate((points.bin.start + offset, *order)))
        for order in set(itertools.permutations(gaps.tolist()))
        for offset in range(n_offsets)
    }


def _block_support(points: PointTrack, size: int) -> set:
    # Every order of the blocks, moved as ``block_permutation`` moves them.
    # Each distinct state is reached by the same number of orders.
    _check_block_size(size, points.bin.length)
    values = to_binary_sequence(points).values
    n_blocks = len(values) // size
    head = values[: n_blocks * size].reshape(n_blocks, size)
    states = set()
    for order in itertools.permutations(range(n_blocks)):
        moved = np.concatenate((head[list(order)].reshape(-1), values[head.size :]))
        states.add(tuple((np.flatnonzero(moved) + points.bin.start).tolist()))
    return states


def _uniform_segments_support(segments: SegmentTrack, b: None) -> set:
    slack = segments.bin.length - segments.total_length
    return {
        _laid_out(segments.bin.start, gaps, order)
        for order in set(itertools.permutations(segments.lengths.tolist()))
        for gaps in _compositions(slack, len(segments) + 1)
    }


def _intersegment_support(segments: SegmentTrack, b: None) -> set:
    if len(segments) == 0:
        return {()}
    gaps, n_offsets = _intersegment_gaps(segments)
    return {
        _laid_out(segments.bin.start, (offset, *gap_order), order)
        for order in set(itertools.permutations(segments.lengths.tolist()))
        for gap_order in set(itertools.permutations(gaps.tolist()))
        for offset in range(n_offsets)
    }


def enumerate_states(track: Union[PointTrack, SegmentTrack], spec: NullModelSpec) -> set:
    """Every state the model ``spec`` names reaches from ``track``, as a
    tuple of positions or of (start, end) pairs; ``state_space_size``
    counts them, and raises where this raises. Under every model the
    distinct states are equally likely."""
    support = {
        "uniform-points": _uniform_points_support,
        "preserve-interpoint": _interpoint_support,
        "uniform-segments": _uniform_segments_support,
        "preserve-intersegment": _intersegment_support,
        "block": _block_support,
    }[spec.name]
    return support(track, spec.block_size)


# --- the statistic and the Ripley edge correction, term by term -------------

def segment_indicator_weights(segments: SegmentTrack) -> np.ndarray:
    """Per-base-pair 0/1 weight vector marking covered coordinates."""
    y = np.zeros(segments.bin.length, dtype=np.float64)
    for start, end in segments.segments:
        y[start - segments.bin.start : end - segments.bin.start] = 1.0
    return y


def weighted_sum_statistic(seq: BinarySequence, weights: np.ndarray) -> float:
    """(1/n) * sum(y_i * x_i) for an indicator sequence x and weights y."""
    y = np.asarray(weights, dtype=np.float64)
    n = len(seq)
    if y.size != n:
        raise ValueError(f"length mismatch: {n} indicators vs {y.size} weights")
    return float(np.dot(y, seq.values)) / n


def statistic_moments_under_stationarity(
    lam: float, sigma2: float, rho: np.ndarray, weights: np.ndarray
) -> tuple[float, float]:
    """Mean and variance of (1/n) * sum(y_i * X_i) for stationary X.

    Assumes E(X_i) = lam, Var(X_i) = sigma2 and Cov(X_i, X_j) =
    sigma2 * rho(|i - j|) with ``rho`` tabulated by distance (``rho[0]``
    must be 1) and zero beyond its tabulated support. ``rho`` must be
    non-negative and non-increasing, the regime in which preserving more
    short-range correlation can only inflate the variance.

    Runs in O(n * d_max) using the finite support of ``rho``.
    """
    y = np.asarray(weights, dtype=np.float64).reshape(-1)
    r = np.asarray(rho, dtype=np.float64).reshape(-1)
    if r.size < 1 or abs(r[0] - 1.0) > 1e-12:
        raise ValueError("rho[0] (distance zero) must equal 1")
    if np.any(r < 0.0):
        raise ValueError("rho must be non-negative")
    if np.any(np.diff(r) > 0.0):
        raise ValueError("rho must be non-increasing with distance")
    n = y.size
    if n == 0:
        raise ValueError("weights must be non-empty")
    mean = lam * float(y.sum()) / n
    acc = float(np.dot(y, y))
    for d in range(1, min(r.size, n)):
        if r[d] == 0.0:
            continue
        acc += 2.0 * r[d] * float(np.dot(y[:-d], y[d:]))
    variance = sigma2 * acc / (n * n)
    return mean, variance


def pair_weight(i: int, j: int, n: int) -> float:
    """Edge-correction weight for a pair of 1-indexed coordinates.

    Equals 1 for any pair inside [1, n]; strictly between 0 and 1 when one
    coordinate lies outside.
    """
    if i == j:
        raise ValueError("pair weight is undefined for i == j")
    lo, hi = (i, j) if i < j else (j, i)
    return (min(hi, n) - max(lo, 1)) / (hi - lo)


def read_points_per_line(path: PathLike) -> np.ndarray:
    """``read_points`` one line at a time; it names the first bad line."""
    first_line: dict[int, int] = {}
    ncols: int | None = None
    for lineno, fields in _data_rows(_text(path)):
        if ncols is None:
            ncols = len(fields)
            if ncols not in (1, 2):
                raise TrackFormatError(
                    f"{path}: line {lineno}: expected 1 or 2 columns, got {ncols}"
                )
        elif len(fields) != ncols:
            raise TrackFormatError(
                f"{path}: line {lineno}: expected {ncols} columns, got {len(fields)}"
            )
        if ncols == 1:
            pos = _parse_int(fields[0], path, lineno)
        else:
            start = _parse_int(fields[0], path, lineno)
            end = _parse_int(fields[1], path, lineno)
            if end <= start:
                raise TrackValidationError(
                    f"{path}: line {lineno}: interval end must exceed start"
                )
            pos = (start + end) // 2
        if pos in first_line:
            raise TrackValidationError(
                f"{path}: line {lineno}: duplicate point coordinate {pos} "
                f"(first at line {first_line[pos]})"
            )
        first_line[pos] = lineno
    return np.sort(np.fromiter(first_line, dtype=np.int64, count=len(first_line)))


def read_segments_per_line(path: PathLike) -> np.ndarray:
    """``read_segments`` one line at a time; it names the first bad line."""
    raw: list[tuple[int, int]] = []
    for lineno, fields in _data_rows(_text(path)):
        if len(fields) != 2:
            raise TrackFormatError(
                f"{path}: line {lineno}: expected 2 columns, got {len(fields)}"
            )
        start = _parse_int(fields[0], path, lineno)
        end = _parse_int(fields[1], path, lineno)
        if end <= start:
            raise TrackValidationError(
                f"{path}: line {lineno}: segment end must exceed start"
            )
        raw.append((start, end))
    return np.array(merge_per_interval(raw), dtype=np.int64).reshape(-1, 2)


def merge_per_interval(intervals) -> list[list[int]]:
    """``tracks.merge_overlapping`` one interval at a time, in (start, end) order."""
    merged: list[list[int]] = []
    for start, end in sorted(intervals):
        if merged and start < merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


# A plain track line, as regular expressions: ``ncols`` fields of at most a
# leading '-' and 1-18 ASCII digits, joined by tabs. ``tracks._plain_lines``
# must call plain exactly the lines these match in full.
CLEAN_FIELD = r"-?[0-9]{1,18}"
CLEAN_ROWS = {
    ncols: re.compile(row)
    for ncols, row in ((1, CLEAN_FIELD), (2, rf"{CLEAN_FIELD}\t{CLEAN_FIELD}"))
}
