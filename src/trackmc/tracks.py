"""Core track data types: bins, point tracks, segment tracks, binary sequences.

Coordinates are 0-based, half-open (BED convention), so a bin or segment
of length L satisfies ``end - start == L``. All types are immutable after
construction and safe to share across workers.

``read_points`` and ``read_segments`` read a file in one vectorized pass
when every data row is plainly clean (ASCII integers of at most 18 digits,
single tabs): comment and blank lines are dropped by one substitution, run
only when the text can hold such a line, and the numbers are converted in
one C-level parse. Any other file goes to the per-line parser, which names
the bad line. Both paths accept the same files, give the same arrays and
raise the same errors.

Every table trackmc writes is formatted here: ``table_lines`` and the echo of
``write_tsv`` write a float (numpy's too) with ``fmt``, any other value with ``str``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO, Union

import numpy as np


class TrackFormatError(ValueError):
    """Malformed input file (bad column count, non-integer field, ...)."""


class TrackValidationError(ValueError):
    """Structurally valid input that violates a track invariant."""


_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class Bin:
    """A contiguous analysis region; one hypothesis test per bin."""

    id: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if any(c in self.id for c in "\t\r\n"):
            raise TrackValidationError(f"bin {self.id!r}: id must not contain a tab or line break")
        if self.id.lstrip().startswith("#"):
            # Every reader of a TSV row takes such a line for a comment.
            raise TrackValidationError(f"bin {self.id!r}: id must not start with '#'")
        if self.id != self.id.strip():
            # Every reader of a TSV row strips its fields, so the id would change.
            raise TrackValidationError(f"bin {self.id!r}: id must not start or end with whitespace")
        if self.start < 0:
            raise TrackValidationError(f"bin {self.id!r}: start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise TrackValidationError(
                f"bin {self.id!r}: end must exceed start, got [{self.start}, {self.end})"
            )
        if self.end > _INT64.max:
            # CLI flags skip the readers' int64 check; the tracks' arrays are int64.
            raise TrackValidationError(
                f"bin {self.id!r}: coordinates must fit in int64, got [{self.start}, {self.end})"
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
        if not ((vals == 0) | (vals == 1)).all():
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
# A plainly clean text is rows of ``ncols`` fields, joined by tabs and each
# ended by a line feed (the last row may lack it), every field 1-18 ASCII
# digits after at most a leading '-'. At most 18 digits, so that the sum of
# two fields cannot overflow int64. ``_is_clean`` checks that with numpy on
# line-aligned blocks of at most _CHECK_BLOCK characters, so its memory does
# not grow with the file. A block must hold the longest clean row (40
# characters), so a block without a line feed cannot be clean.
_CHECK_BLOCK = 1 << 20


def _is_clean(text: str, ncols: int) -> bool:
    """Whether ``text`` is plainly clean rows of ``ncols`` fields."""
    if not text.isascii():
        return False
    start = 0
    while start < len(text):
        stop = start + _CHECK_BLOCK
        stop = len(text) if stop >= len(text) else text.rfind("\n", start, stop) + 1
        if stop <= start or not _is_clean_block(text[start:stop].encode("ascii"), ncols):
            return False
        start = stop
    return True


def _is_clean_block(block: bytes, ncols: int) -> bool:
    """``_is_clean`` of whole rows, as ASCII bytes."""
    if not block.endswith(b"\n"):
        block += b"\n"
    b = np.frombuffer(block, dtype=np.uint8)
    # Each field ends at the next byte below '-': every such byte must be
    # a tab or a line feed, and each row's ends ncols - 1 tabs and a line feed.
    ends = np.flatnonzero(b < ord("-"))
    if ends.size % ncols:
        return False
    row_ends = b[ends].reshape(-1, ncols)
    if not ((row_ends[:, :-1] == ord("\t")).all() and (row_ends[:, -1] == ord("\n")).all()):
        return False
    minus = b == ord("-")
    n_minus = np.count_nonzero(minus)
    if ends.size + n_minus + np.count_nonzero((b >= ord("0")) & (b <= ord("9"))) != b.size:
        return False
    starts = np.concatenate(([0], ends[:-1] + 1))
    signed = minus[starts]
    # A '-' anywhere but first in its field is not clean.
    if n_minus != np.count_nonzero(signed):
        return False
    digits = ends - starts - signed
    return bool(digits.min() >= 1 and digits.max() <= 18)


def _clean_rows(path: PathLike, widths: tuple[int, ...]) -> np.ndarray | None:
    """All data rows as an int64 (rows, columns) array, in one pass.

    Returns None unless every data row is plainly clean and has the width
    of the first one, which must be in ``widths``; the per-line parser then
    decides what such a file holds.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    # Without these, the only skipped lines left are whitespace-only ones,
    # which fail the clean pattern and so reach the per-line parser.
    if "#" in text or "\n\n" in text or text.startswith("\n"):
        text = _SKIPPED_LINE.sub("", text)
    ncols = text.partition("\n")[0].count("\t") + 1
    if ncols not in widths or not _is_clean(text, ncols):
        return None
    # The check admits only ASCII decimal fields between tabs and line
    # ends; ``fromstring`` reads any whitespace as a separator.
    return np.fromstring(text, dtype=np.int64, sep=" ").reshape(-1, ncols)


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
        # Of a sorted disjoint run, only the first start and the last end
        # can fall outside the bin.
        clipped = segments[first:last].copy()
        if clipped.size:
            clipped[0, 0] = max(clipped[0, 0], b.start)
            clipped[-1, 1] = min(clipped[-1, 1], b.end)
        segments_by_bin[b.id] = SegmentTrack(b, clipped)
    return points_by_bin, segments_by_bin


def fmt(x: float) -> str:
    """The float format of every output: 12 significant digits."""
    return format(x, ".12g")


def _cell(value: object) -> str:
    """A value as output text: a float (numpy's too) by ``fmt``, else ``str``."""
    return fmt(value) if isinstance(value, (float, np.floating)) else str(value)


def table_lines(header: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    """The tab-joined header, then one tab-joined line of cells per row."""
    yield "\t".join(header)
    for row in rows:
        yield "\t".join(map(_cell, row))


def write_tsv(
    path_or_file: PathLike | TextIO, config_echo: dict | None, lines: Iterable[str]
) -> None:
    """Write one ``# key=value`` line per ``config_echo`` item, then ``lines``."""
    echo = (f"# {key}={_cell(value)}\n" for key, value in (config_echo or {}).items())
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
