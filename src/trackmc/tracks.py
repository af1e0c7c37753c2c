"""Core track data types: bins, point tracks, segment tracks, binary sequences.

Coordinates are 0-based, half-open (BED convention), so a bin or segment
of length L satisfies ``end - start == L``. All types are immutable after
construction and safe to share across workers.

``read_points`` and ``read_segments`` read a file in one vectorized pass
when every data row is plainly clean (ASCII integers of at most 18 digits,
single tabs); any other file goes to the per-line parser, which names the
bad line. Both paths accept the same files, give the same arrays and raise
the same errors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, TextIO, Union

import numpy as np


class TrackFormatError(ValueError):
    """Malformed input file (bad column count, non-integer field, ...)."""


class TrackValidationError(ValueError):
    """Structurally valid input that violates a track invariant."""


@dataclass(frozen=True)
class Bin:
    """A contiguous analysis region; one hypothesis test per bin."""

    id: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if any(c in self.id for c in "\t\r\n"):
            raise TrackValidationError(f"bin {self.id!r}: id must not contain a tab or line break")
        if self.start < 0:
            raise TrackValidationError(f"bin {self.id!r}: start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise TrackValidationError(
                f"bin {self.id!r}: end must exceed start, got [{self.start}, {self.end})"
            )

    @property
    def length(self) -> int:
        return self.end - self.start


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class PointTrack:
    """Strictly increasing integer positions inside a bin."""

    bin: Bin
    positions: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.int64).reshape(-1)
        if pos.size:
            if np.any(np.diff(pos) <= 0):
                raise TrackValidationError(
                    f"bin {self.bin.id!r}: positions must be strictly increasing "
                    "(sorted, no duplicates)"
                )
            if pos[0] < self.bin.start or pos[-1] >= self.bin.end:
                raise TrackValidationError(
                    f"bin {self.bin.id!r}: position outside [{self.bin.start}, {self.bin.end})"
                )
        object.__setattr__(self, "positions", _readonly(pos))

    def __len__(self) -> int:
        return int(self.positions.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointTrack):
            return NotImplemented
        return self.bin == other.bin and np.array_equal(self.positions, other.positions)


@dataclass(frozen=True, eq=False)
class SegmentTrack:
    """Sorted, non-overlapping half-open integer intervals inside a bin."""

    bin: Bin
    segments: np.ndarray

    def __post_init__(self) -> None:
        seg = np.asarray(self.segments, dtype=np.int64).reshape(-1, 2)
        if seg.size:
            if np.any(seg[:, 1] <= seg[:, 0]):
                raise TrackValidationError(f"bin {self.bin.id!r}: empty or inverted segment")
            if np.any(np.diff(seg[:, 0]) < 0):
                raise TrackValidationError(f"bin {self.bin.id!r}: segments not sorted by start")
            if np.any(seg[1:, 0] < seg[:-1, 1]):
                raise TrackValidationError(f"bin {self.bin.id!r}: overlapping segments")
            if seg[0, 0] < self.bin.start or seg[-1, 1] > self.bin.end:
                raise TrackValidationError(
                    f"bin {self.bin.id!r}: segment outside [{self.bin.start}, {self.bin.end})"
                )
        object.__setattr__(self, "segments", _readonly(seg))

    def __len__(self) -> int:
        return int(self.segments.shape[0])

    @property
    def lengths(self) -> np.ndarray:
        return self.segments[:, 1] - self.segments[:, 0]

    @property
    def total_length(self) -> int:
        return int(self.lengths.sum()) if len(self) else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SegmentTrack):
            return NotImplemented
        return self.bin == other.bin and np.array_equal(self.segments, other.segments)


@dataclass(frozen=True, eq=False)
class BinarySequence:
    """0/1 indicator sequence, one value per coordinate."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values)
        if vals.size < 1:
            raise TrackValidationError("binary sequence must have length >= 1")
        if not np.isin(vals, (0, 1)).all():
            raise TrackValidationError("binary sequence values must be 0 or 1")
        object.__setattr__(self, "values", _readonly(vals.astype(np.uint8)))

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinarySequence):
            return NotImplemented
        return np.array_equal(self.values, other.values)


PathLike = Union[str, Path]


def _data_rows(path: PathLike) -> Iterable[tuple[int, list[str]]]:
    """Yield (1-based line number, fields) for non-comment, non-blank lines."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            yield lineno, [f.strip() for f in line.split("\t")]


_INT64 = np.iinfo(np.int64)


def _parse_int(field: str, path: PathLike, lineno: int) -> int:
    try:
        value = int(field)
    except ValueError:
        raise TrackFormatError(
            f"{path}: line {lineno}: expected integer, got {field!r}"
        ) from None
    if not _INT64.min <= value <= _INT64.max:
        raise TrackFormatError(
            f"{path}: line {lineno}: coordinate out of range (outside int64): {field!r}"
        )
    return value


# A blank line, or one whose first non-blank character is '#', with its
# line end. ``[^\S\n]`` and ``str.strip`` agree on what is blank.
_SKIPPED_LINE = re.compile(r"^[^\S\n]*(?:#[^\n]*)?(?:\n|\Z)", re.MULTILINE)
# At most 18 digits, so that the sum of two fields cannot overflow int64.
_CLEAN_FIELD = r"-?[0-9]{1,18}"
_CLEAN_ROWS = {
    ncols: re.compile(rf"(?:{row}\n)*(?:{row})?")
    for ncols, row in ((1, _CLEAN_FIELD), (2, rf"{_CLEAN_FIELD}\t{_CLEAN_FIELD}"))
}


def _clean_rows(path: PathLike, widths: tuple[int, ...]) -> np.ndarray | None:
    """All data rows as an int64 (rows, columns) array, in one pass.

    Returns None unless every data row is plainly clean and has the width
    of the first one, which must be in ``widths``; the per-line parser then
    decides what such a file holds.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = _SKIPPED_LINE.sub("", fh.read())
    except UnicodeDecodeError:
        return None
    ncols = text.partition("\n")[0].count("\t") + 1
    if ncols not in widths or not _CLEAN_ROWS[ncols].fullmatch(text):
        return None
    return np.array(text.split(), dtype=np.int64).reshape(-1, ncols)


def read_points(path: PathLike) -> np.ndarray:
    """Sorted point coordinates from a tab-separated file.

    Accepts either one coordinate per line or a (start, end) interval per
    line, fixed by the first data row; interval rows are reduced to their
    midpoints, ``floor((start + end) / 2)``. Lines starting with '#' are
    skipped. A repeated coordinate is rejected with its line.
    """
    rows = _clean_rows(path, (1, 2))
    if rows is not None and (rows.shape[1] == 1 or np.all(rows[:, 1] > rows[:, 0])):
        pos = np.sort(rows[:, 0] if rows.shape[1] == 1 else (rows[:, 0] + rows[:, 1]) // 2)
        if not np.any(pos[1:] == pos[:-1]):
            return pos
    return _read_points_per_line(path)


def _read_points_per_line(path: PathLike) -> np.ndarray:
    """``read_points`` one line at a time; it names the first bad line."""
    first_line: dict[int, int] = {}
    ncols: int | None = None
    for lineno, fields in _data_rows(path):
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


def read_segments(path: PathLike) -> np.ndarray:
    """Sorted disjoint segments from a 2-column tab-separated file.

    Overlapping input intervals are merged into maximal disjoint intervals;
    intervals that merely touch are kept separate.
    """
    rows = _clean_rows(path, (2,))
    if rows is not None and np.all(rows[:, 1] > rows[:, 0]):
        return merge_overlapping(rows)
    return _read_segments_per_line(path)


def _read_segments_per_line(path: PathLike) -> np.ndarray:
    """``read_segments`` one line at a time; it names the first bad line."""
    raw: list[tuple[int, int]] = []
    for lineno, fields in _data_rows(path):
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
    return merge_overlapping(raw)


def load_point_track(path: PathLike, bin: Bin) -> PointTrack:
    """Read a point track (see ``read_points``); every point must lie in ``bin``."""
    return PointTrack(bin, read_points(path))


def load_segment_track(path: PathLike, bin: Bin) -> SegmentTrack:
    """Read a segment track (see ``read_segments``); every segment must lie in ``bin``."""
    return SegmentTrack(bin, read_segments(path))


def merge_overlapping(intervals: np.ndarray | Sequence[tuple[int, int]]) -> np.ndarray:
    """Merge strictly overlapping intervals; touching intervals stay apart."""
    seg = np.asarray(intervals, dtype=np.int64).reshape(-1, 2)
    if not seg.size:
        return seg
    starts, ends = seg[np.lexsort((seg[:, 1], seg[:, 0]))].T
    # A group starts where a start is at or past every earlier end.
    first = np.flatnonzero(np.r_[True, starts[1:] >= np.maximum.accumulate(ends)[:-1]])
    return np.column_stack((starts[first], np.maximum.reduceat(ends, first)))


def load_bins(path: PathLike) -> list[Bin]:
    """Read bins from a 3-column (id, start, end) tab-separated file.

    A bin id may appear only once.
    """
    bins: list[Bin] = []
    first_line: dict[str, int] = {}
    for lineno, fields in _data_rows(path):
        if len(fields) != 3:
            raise TrackFormatError(
                f"{path}: line {lineno}: expected 3 columns (id, start, end), got {len(fields)}"
            )
        if fields[0] in first_line:
            raise TrackValidationError(
                f"{path}: line {lineno}: duplicate bin id {fields[0]!r} "
                f"(first at line {first_line[fields[0]]})"
            )
        first_line[fields[0]] = lineno
        bins.append(
            Bin(fields[0], _parse_int(fields[1], path, lineno), _parse_int(fields[2], path, lineno))
        )
    return bins


def partition(
    bins: Iterable[Bin], positions: np.ndarray, segments: np.ndarray
) -> tuple[dict[str, PointTrack], dict[str, SegmentTrack]]:
    """Per-bin tracks, keyed by bin id, from whole-file tracks.

    ``positions`` must be sorted and ``segments`` sorted and disjoint, as
    ``read_points`` and ``read_segments`` return them. Points outside a bin
    are left out of it; segments crossing a bin edge are clipped to it.
    """
    points_by_bin: dict[str, PointTrack] = {}
    segments_by_bin: dict[str, SegmentTrack] = {}
    for b in bins:
        lo, hi = np.searchsorted(positions, (b.start, b.end))
        points_by_bin[b.id] = PointTrack(b, positions[lo:hi])
        # Disjoint sorted segments have sorted ends, so both searches are valid.
        first = np.searchsorted(segments[:, 1], b.start, side="right")
        last = np.searchsorted(segments[:, 0], b.end)
        segments_by_bin[b.id] = SegmentTrack(b, np.clip(segments[first:last], b.start, b.end))
    return points_by_bin, segments_by_bin


def fmt(x: float) -> str:
    """The float format of every output: 12 significant digits."""
    return format(x, ".12g")


def write_tsv(
    path_or_file: PathLike | TextIO, config_echo: dict | None, lines: Iterable[str]
) -> None:
    """Write one ``# key=value`` line per ``config_echo`` item, then ``lines``."""
    echo = (f"# {key}={value}\n" for key, value in (config_echo or {}).items())
    text = "".join(echo) + "".join(f"{line}\n" for line in lines)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.write(text)


def save_point_track(
    track: PointTrack, path_or_file: PathLike | TextIO, config_echo: dict | None = None
) -> None:
    """Write one coordinate per line (the loadable 1-column format)."""
    write_tsv(path_or_file, config_echo, (str(p) for p in track.positions))


def save_segment_track(
    track: SegmentTrack, path_or_file: PathLike | TextIO, config_echo: dict | None = None
) -> None:
    """Write one (start, end) pair per line."""
    write_tsv(path_or_file, config_echo, (f"{s}\t{e}" for s, e in track.segments))


def to_binary_sequence(track: PointTrack) -> BinarySequence:
    """Indicator sequence over the bin: 1 exactly at point positions."""
    values = np.zeros(track.bin.length, dtype=np.uint8)
    values[track.positions - track.bin.start] = 1
    return BinarySequence(values)


def coverage_fraction(track: SegmentTrack) -> float:
    """Fraction of the bin covered by segments."""
    return track.total_length / track.bin.length
