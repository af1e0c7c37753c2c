"""Synthetic genome for the genome-scan workload, made with numpy alone.

The inputs depend only on the workload seed, never on trackmc, so a change
to the program cannot change what the benchmark feeds it.  README.md
lists the properties the inputs have and why each is there.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_BINS = 64
BIN_LENGTH = (10_000, 20_000)
BIN_GAP = (500, 4_000)
MIN_POINTS = 100
MIN_SEGMENTS = 20
SPARSE_FRACTION = 0.15
ENRICHED_FRACTION = 0.25

# Clustered renewal process for points: mean gap 0.3 * 150 + 0.7 * 15 = 55.5 bp.
_POINT_NEW_CLUSTER = 0.3
_POINT_GAP_WIDE = 150
_POINT_GAP_TIGHT = 15
_SPARSE_KEEP = 0.1
_POINT_HALF_WIDTH = 25
_SEGMENT_GAP = 150
_SEGMENT_LENGTH = (20, 200)


@dataclass(frozen=True)
class Genome:
    """Bins and raw rows exactly as written to the input files."""

    bins: list[tuple[str, int, int]]
    point_rows: np.ndarray  # (n, 2) int64 intervals; midpoints are the points
    segment_rows: np.ndarray  # (k, 2) int64 intervals, may overlap
    length: int

    @property
    def points(self) -> np.ndarray:
        return (self.point_rows[:, 0] + self.point_rows[:, 1]) // 2


def _renewal(rng: np.random.Generator, start: int, end: int, mean_gap: float,
             gap_fn) -> np.ndarray:
    """Strictly increasing positions in [start, end) from i.i.d. gaps >= 1."""
    out = []
    current = start
    while current < end:
        chunk = int((end - current) / mean_gap * 1.1) + 64
        pos = current + np.cumsum(gap_fn(chunk))
        out.append(pos)
        current = int(pos[-1])
    pos = np.concatenate(out)
    return pos[pos < end]


def make_genome(seed: int) -> Genome:
    rng = np.random.default_rng([seed, 0x6E5CA1])
    lengths = rng.integers(BIN_LENGTH[0], BIN_LENGTH[1] + 1, N_BINS)
    gaps = rng.integers(BIN_GAP[0], BIN_GAP[1] + 1, N_BINS + 1)
    starts = gaps[0] + np.concatenate(([0], np.cumsum(lengths[:-1] + gaps[1:-1])))
    ends = starts + lengths
    genome_length = int(ends[-1] + gaps[-1])
    bins = [(f"bin{i:03d}", int(s), int(e)) for i, (s, e) in enumerate(zip(starts, ends))]

    def point_gaps(k: int) -> np.ndarray:
        wide = rng.random(k) < _POINT_NEW_CLUSTER
        return np.where(wide, rng.geometric(1 / _POINT_GAP_WIDE, k),
                        rng.geometric(1 / _POINT_GAP_TIGHT, k))

    mean_point_gap = (_POINT_NEW_CLUSTER * _POINT_GAP_WIDE
                      + (1 - _POINT_NEW_CLUSTER) * _POINT_GAP_TIGHT)
    points = _renewal(rng, _POINT_HALF_WIDTH, genome_length, mean_point_gap, point_gaps)

    seg_starts = _renewal(rng, 0, genome_length - _SEGMENT_LENGTH[1], _SEGMENT_GAP,
                          lambda k: rng.geometric(1 / _SEGMENT_GAP, k))
    seg_lengths = rng.integers(_SEGMENT_LENGTH[0], _SEGMENT_LENGTH[1] + 1, seg_starts.size)
    # One row straddling every bin start guarantees clipping at bin edges.
    edge_left = rng.integers(1, _SEGMENT_LENGTH[0], N_BINS)
    edge_right = rng.integers(1, _SEGMENT_LENGTH[0], N_BINS)
    segment_rows = np.concatenate((
        np.column_stack((seg_starts, seg_starts + seg_lengths)),
        np.column_stack((starts - edge_left, starts + edge_right)),
    ))
    segment_rows = segment_rows[np.lexsort((segment_rows[:, 1], segment_rows[:, 0]))]

    order = rng.permutation(N_BINS)
    n_sparse = int(round(SPARSE_FRACTION * N_BINS))
    n_enriched = int(round(ENRICHED_FRACTION * N_BINS))
    sparse, enriched = order[:n_sparse], order[n_sparse:n_sparse + n_enriched]

    bin_of = np.searchsorted(starts, points, side="right") - 1
    in_bin = (bin_of >= 0) & (points < ends[np.clip(bin_of, 0, None)])
    in_sparse = in_bin & np.isin(bin_of, sparse)
    keep = ~in_sparse | (rng.random(points.size) < _SPARSE_KEEP)
    points = points[keep]

    # Enrichment: one extra point at the middle of a third of the segment
    # rows lying wholly inside an enriched bin.
    seg_bin = np.searchsorted(starts, segment_rows[:, 0], side="right") - 1
    inside = (seg_bin >= 0) & (segment_rows[:, 1] <= ends[np.clip(seg_bin, 0, None)])
    pick = inside & np.isin(seg_bin, enriched) & (rng.random(seg_bin.size) < 1 / 3)
    extra = (segment_rows[pick, 0] + segment_rows[pick, 1]) // 2
    points = np.union1d(points, extra)

    half = rng.integers(0, _POINT_HALF_WIDTH, points.size)
    point_rows = np.column_stack((points - half, points + half + 1))
    return Genome(bins, point_rows.astype(np.int64), segment_rows.astype(np.int64),
                  genome_length)


def write_genome(genome: Genome, directory: Path) -> dict[str, Path]:
    """Write bins, points and segments TSVs; return their paths by role."""
    paths = {
        "bins": directory / "bins.tsv",
        "points": directory / "points.tsv",
        "segments": directory / "segments.tsv",
    }
    paths["bins"].write_text(
        "# id\tstart\tend\n" + "".join(f"{b}\t{s}\t{e}\n" for b, s, e in genome.bins),
        encoding="utf-8",
    )
    for role, rows in (("points", genome.point_rows), ("segments", genome.segment_rows)):
        paths[role].write_text(
            "".join(f"{s}\t{e}\n" for s, e in rows.tolist()), encoding="utf-8"
        )
    return paths
