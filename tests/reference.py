"""Reference implementations the tests check the package against.

The resamplers build one randomized track per seed, the plainest reading
of each null model. The engine's samplers (``null_models.sample_counts``
and its one-track front end ``resample_track``) are pinned to them by
state-uniformity and law tests. ``weighted_sum_statistic``,
``segment_indicator_weights`` and ``pair_weight`` spell out the statistic
and the Ripley edge correction term by term.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from trackmc import BinarySequence, PointTrack, SegmentTrack, rng_for, to_binary_sequence
from trackmc.null_models import (
    NullModelSpec,
    Preservation,
    RandomizedSide,
    _check_block_size,
    _check_uniform_points,
    _interpoint_gaps,
    _intersegment_gaps,
    _segment_slack,
    _uniform_subset,
)


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


def pair_weight(i: int, j: int, n: int) -> float:
    """Edge-correction weight for a pair of 1-indexed coordinates.

    Equals 1 for any pair inside [1, n]; strictly between 0 and 1 when one
    coordinate lies outside.
    """
    if i == j:
        raise ValueError("pair weight is undefined for i == j")
    lo, hi = (i, j) if i < j else (j, i)
    return (min(hi, n) - max(lo, 1)) / (hi - lo)
