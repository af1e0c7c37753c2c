"""Synthetic track generators with controllable clustering.

Positions follow a discrete renewal process: consecutive gaps are drawn
as Geometric(rate) on {1, 2, ...} (mean 1/rate), the lattice analog of a
rate-per-base-pair point process. ``clustered=True`` mixes two gap rates: each
new point starts a new cluster with some probability (wide gap at the
inter-cluster rate), otherwise continues the current cluster (tight gap at
the intra-cluster rate). Without clustering, a cluster setting off its
default is an error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import rng_for
from .tracks import Bin, PointTrack, SegmentTrack


# The cluster settings' defaults, their only values without clustering.
LAMBDA_INTRA = 0.1
NEW_CLUSTER_PROB = 0.3


def _check_rate(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


def _check_cluster(clustered: bool, lambda_intra: float, new_cluster_prob: float) -> None:
    """The cluster settings' ranges; then, unless ``clustered``, their defaults."""
    _check_rate("lambda_intra", lambda_intra)
    if not 0.0 <= new_cluster_prob <= 1.0:
        raise ValueError(f"new_cluster_prob must lie in [0, 1], got {new_cluster_prob}")
    if not clustered and (lambda_intra, new_cluster_prob) != (LAMBDA_INTRA, NEW_CLUSTER_PROB):
        raise ValueError(
            f"lambda_intra={lambda_intra} and new_cluster_prob={new_cluster_prob} change no "
            f"draw unless clustered: leave them at {LAMBDA_INTRA} and {NEW_CLUSTER_PROB}"
        )


@dataclass(frozen=True)
class PointGenConfig:
    clustered: bool = False
    lambda_inter: float = 0.01
    lambda_intra: float = LAMBDA_INTRA
    new_cluster_prob: float = NEW_CLUSTER_PROB

    def __post_init__(self) -> None:
        _check_rate("lambda_inter", self.lambda_inter)
        _check_cluster(self.clustered, self.lambda_intra, self.new_cluster_prob)


@dataclass(frozen=True)
class SegmentGenConfig:
    """Segment starts follow the point mechanics; lengths are uniform integers.

    ``clustered=True`` applies the two-rate cluster mechanism to the start
    positions, with ``gap_lambda`` serving as the inter-cluster rate.
    """

    gap_lambda: float = 0.01
    length_min: int = 10
    length_max: int = 100
    clustered: bool = False
    lambda_intra: float = LAMBDA_INTRA
    new_cluster_prob: float = NEW_CLUSTER_PROB

    def __post_init__(self) -> None:
        _check_rate("gap_lambda", self.gap_lambda)
        if not 0 < self.length_min <= self.length_max:
            raise ValueError(
                f"need 0 < length_min <= length_max, got [{self.length_min}, {self.length_max}]"
            )
        _check_cluster(self.clustered, self.lambda_intra, self.new_cluster_prob)


def _renewal_positions(
    rng: np.random.Generator,
    bin: Bin,
    clustered: bool,
    rate_inter: float,
    rate_intra: float,
    new_cluster_prob: float,
) -> np.ndarray:
    """Positions from cumulative gaps, stopping past the bin end."""
    mean_gap = (
        new_cluster_prob / rate_inter + (1.0 - new_cluster_prob) / rate_intra
        if clustered
        else 1.0 / rate_inter
    )
    positions: list[np.ndarray] = []
    current = bin.start - 1
    while current < bin.end:
        expect = max(1.0, (bin.end - current) / mean_gap)
        chunk = int(expect + 4.0 * np.sqrt(expect)) + 16
        if clustered:
            fresh = rng.random(chunk) < new_cluster_prob
            wide = rng.geometric(rate_inter, chunk)
            tight = rng.geometric(rate_intra, chunk)
            gaps = np.where(fresh, wide, tight)
        else:
            gaps = rng.geometric(rate_inter, chunk)
        pos = current + np.cumsum(gaps)
        positions.append(pos)
        current = int(pos[-1])
    all_pos = np.concatenate(positions)
    return all_pos[all_pos < bin.end].astype(np.int64)


def generate_points(bin: Bin, cfg: PointGenConfig, seed: int) -> PointTrack:
    """Renewal point track; may be empty for short bins."""
    rng = rng_for(seed)
    positions = _renewal_positions(
        rng, bin, cfg.clustered, cfg.lambda_inter, cfg.lambda_intra, cfg.new_cluster_prob
    )
    return PointTrack(bin, positions)


def generate_segments(bin: Bin, cfg: SegmentGenConfig, seed: int) -> SegmentTrack:
    """Segments at renewal start positions with uniform random lengths.

    A segment overlapping its predecessor is truncated at the predecessor's
    end; one running past the bin is truncated at the bin end; segments
    left empty by truncation are dropped.
    """
    if bin.length <= cfg.length_max:
        raise ValueError(
            f"bin length {bin.length} must exceed length_max {cfg.length_max}"
        )
    rng = rng_for(seed)
    starts = _renewal_positions(
        rng, bin, cfg.clustered, cfg.gap_lambda, cfg.lambda_intra, cfg.new_cluster_prob
    )
    if starts.size == 0:
        return SegmentTrack(bin, np.empty((0, 2), dtype=np.int64))
    lengths = rng.integers(cfg.length_min, cfg.length_max + 1, size=starts.size)
    ends = np.minimum(starts + lengths, bin.end)
    prev_end = np.concatenate(([bin.start], np.maximum.accumulate(ends)[:-1]))
    trunc_starts = np.maximum(starts, prev_end)
    keep = trunc_starts < ends
    return SegmentTrack(bin, np.column_stack((trunc_starts[keep], ends[keep])))
