"""Core track data types: bins, point tracks, segment tracks, binary sequences.

Coordinates are 0-based, half-open (BED convention), so a bin or segment
of length L satisfies ``end - start == L``. All types are immutable after
construction and safe to share across workers.

Every input file is read as text by ``_text``, which names the file and line
of a byte that is not UTF-8 and reads '\r\n' and '\r' as '\n'. One rule,
``_fields``, skips blank and '#' lines and splits the others: line by line in
``_data_rows`` (bins, p-value tables), and in ``read_points`` and
``read_segments`` for the lines a vectorized check does not find plain
(ASCII integers of at most 18 digits between single tabs); plain lines are
converted in one C-level parse per block. The value checks are vectorized
too; only when one fails are the rows walked in line order, to name the
first bad line. ``partition`` cuts whole-file tracks into each bin's (point
track, segment track) pair, in bin order.

Every table trackmc writes is formatted here: ``table_lines`` and the echo of
``write_tsv`` write a float (numpy's too) with ``fmt``, any other value with ``str``.
"""

from __future__ import annotations

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
            if (pos[1:] <= pos[:-1]).any():
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
            if (seg[:, 1] <= seg[:, 0]).any():
                raise TrackValidationError(f"bin {self.bin.id!r}: empty or inverted segment")
            if (seg[1:, 0] < seg[:-1, 0]).any():
                raise TrackValidationError(f"bin {self.bin.id!r}: segments not sorted by start")
            if (seg[1:, 0] < seg[:-1, 1]).any():
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


def _text(path: PathLike) -> str:
    """The text of a UTF-8 input file, each '\\r\\n' and '\\r' read as '\\n', as
    ``open`` reads it; a byte that is not UTF-8 is an error naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise TrackFormatError(
            f"{path}: line {lineno}: not UTF-8: byte 0x{data[exc.start]:02x} "
            f"at offset {exc.start}: {exc.reason}"
        ) from None
    # A two-character replace scans slowly even where it finds nothing.
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _fields(line: str) -> list[str] | None:
    """A line's stripped tab-separated fields; None for a blank or comment line."""
    if not line.strip() or line.lstrip().startswith("#"):
        return None
    return [f.strip() for f in line.split("\t")]


def _data_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number from 1, fields) of each line of ``text`` that ``_fields`` keeps."""
    start, lineno = 0, 1
    while start < len(text):
        stop = text.find("\n", start) + 1 or len(text)
        fields = _fields(text[start:stop])
        if fields is not None:
            yield lineno, fields
        start, lineno = stop, lineno + 1


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


# Characters per block of ``_rows``'s check, so that its memory does not
# grow with the file.
_CHECK_BLOCK = 1 << 20


def _plain_lines(block: bytes, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """The offset of each line feed of ``block`` (whole lines, the last one
    ended by a line feed too), and whether each line is plain: ``ncols``
    fields joined by single tabs, each at most a leading '-' and then 1-18
    ASCII digits. At most 18: ``np.fromstring`` clamps an out-of-range field
    without an error, so a longer one must take ``_parse_int``'s range check."""
    b = np.frombuffer(block, dtype=np.uint8)
    # Every byte but a digit, and the number of digits just before it.
    at = np.flatnonzero(b - np.uint8(ord("0")) > 9)
    kinds, digits = b[at], np.diff(at, prepend=-1) - 1
    line_at = np.flatnonzero(kinds == ord("\n"))
    minus = np.flatnonzero(kinds == ord("-"))
    # A tab or line feed ends a field of 1-18 digits, a '-' right after one
    # starts a field (at offset 0, ``sep[-1]`` is the block's last line
    # feed), and no other byte occurs.
    sep = (kinds == ord("\t")) | (kinds == ord("\n"))
    good = sep & (digits >= 1) & (digits <= 18)
    good[minus] = (digits[minus] == 0) & sep[minus - 1]
    # The fields of a plain line: its bytes but digits, less its '-' signs.
    fields = np.diff(line_at, prepend=-1)
    fields -= np.bincount(np.searchsorted(line_at, minus), minlength=line_at.size)
    ends = at[line_at]
    plain = fields == ncols
    plain[np.searchsorted(ends, at[~good])] = False
    return ends, plain


def _rows(path: PathLike, widths: tuple[int, ...]) -> tuple[
        np.ndarray, np.ndarray, TrackFormatError | None]:
    """The data rows of a track file as an int64 (rows, columns) array in
    line order, read in one pass; the line number of each row; and the
    first format error, after which nothing is read, so that a caller can
    name an invalid value of an earlier row first.

    The first line that ``_fields`` keeps fixes the width, which must be in
    ``widths``. The text is checked in line-aligned blocks of about
    ``_CHECK_BLOCK`` characters (or one longer row). Plain lines
    (``_plain_lines``) are converted in one C-level parse per block, and
    empty and '#' lines skipped; only the others are split by ``_fields``
    and parsed by ``_parse_int``.
    """
    text = _text(path)
    first = next(_data_rows(text), None)
    ncols = len(first[1]) if first else widths[-1]
    if ncols not in widths:
        raise TrackFormatError(f"{path}: line {first[0]}: expected "
                               f"{' or '.join(map(str, widths))} columns, got {ncols}")
    values, lines = [np.empty((0, ncols), dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    start, lineno, error = 0, 1, None
    while start < len(text) and error is None:
        stop = min(start + _CHECK_BLOCK, len(text))
        if stop < len(text):
            stop = (text.rfind("\n", start, stop) + 1) or (text.find("\n", stop) + 1) or len(text)
        block = text[start:stop].encode()
        if not block.endswith(b"\n"):
            block += b"\n"
        ends, plain = _plain_lines(block, ncols)
        parsed, parsed_at = [], []
        if not plain.all():
            b, starts = np.frombuffer(block, dtype=np.uint8), np.r_[0, ends + 1]
            heads = b[starts[:-1]]
            # Empty lines and lines that start with '#' are skipped unparsed.
            others = ~plain & (heads != ord("#")) & (heads != ord("\n"))
            for i in np.flatnonzero(others).tolist():
                fields = _fields(block[starts[i]:starts[i + 1]].decode())
                if fields is None:
                    continue
                try:
                    if len(fields) != ncols:
                        raise TrackFormatError(f"{path}: line {lineno + i}: "
                                               f"expected {ncols} columns, got {len(fields)}")
                    parsed.append([_parse_int(f, path, lineno + i) for f in fields])
                except TrackFormatError as exc:
                    error = exc
                    plain[i:] = False
                    break
                parsed_at.append(i)
            # Only the plain lines' bytes: the parse reads any whitespace as a
            # separator, but a text of blanks as [0].
            block = b[np.repeat(plain, np.diff(starts))].tobytes()
        rows = np.fromstring(block, dtype=np.int64, sep=" ").reshape(-1, ncols)
        if parsed:
            rows = np.insert(rows, np.cumsum(plain)[parsed_at], parsed, axis=0)
            plain[parsed_at] = True  # now: the lines that hold a row
        values.append(rows)
        lines.append(lineno + np.flatnonzero(plain))
        start, lineno = stop, lineno + ends.size
    return np.concatenate(values), np.concatenate(lines), error


def read_points(path: PathLike) -> np.ndarray:
    """Sorted point coordinates from a tab-separated file.

    Accepts either one coordinate per line or a (start, end) interval per
    line, fixed by the first data row; interval rows are reduced to their
    midpoints, ``floor((start + end) / 2)``. Lines starting with '#' are
    skipped. A repeated coordinate is rejected with its line.
    """
    rows, lines, error = _rows(path, (1, 2))
    s, e = rows[:, 0], rows[:, -1]
    inverted = rows.shape[1] == 2 and np.any(e <= s)
    # floor((s + e) / 2) without the sum, which may overflow; s on 1 column.
    pos = np.sort((s >> 1) + (e >> 1) + (s & e & 1))
    if error is None and not inverted and not np.any(pos[1:] == pos[:-1]):
        return pos
    # Name the first bad line.
    first_line: dict[int, int] = {}
    for lineno, row in zip(lines.tolist(), rows.tolist()):
        if len(row) == 2 and row[1] <= row[0]:
            raise TrackValidationError(f"{path}: line {lineno}: interval end must exceed start")
        point = (row[0] + row[-1]) // 2
        if point in first_line:
            raise TrackValidationError(
                f"{path}: line {lineno}: duplicate point coordinate {point} "
                f"(first at line {first_line[point]})"
            )
        first_line[point] = lineno
    raise error


def read_segments(path: PathLike) -> np.ndarray:
    """Sorted disjoint segments from a 2-column tab-separated file.

    Overlapping input intervals are merged into maximal disjoint intervals;
    intervals that merely touch are kept separate.
    """
    rows, lines, error = _rows(path, (2,))
    if error is None and np.all(rows[:, 1] > rows[:, 0]):
        return merge_overlapping(rows)
    # Name the first bad line.
    for lineno, (start, end) in zip(lines.tolist(), rows.tolist()):
        if end <= start:
            raise TrackValidationError(f"{path}: line {lineno}: segment end must exceed start")
    raise error


def load_point_track(path: PathLike, bin: Bin) -> PointTrack:
    """Read a point track (see ``read_points``); every point must lie in ``bin``."""
    return PointTrack(bin, read_points(path))


def load_segment_track(path: PathLike, bin: Bin) -> SegmentTrack:
    """Read a segment track (see ``read_segments``); every segment must lie in ``bin``."""
    return SegmentTrack(bin, read_segments(path))


def merge_overlapping(intervals: np.ndarray | Sequence[tuple[int, int]]) -> np.ndarray:
    """Merge strictly overlapping intervals (end > start); touching ones stay apart."""
    seg = np.asarray(intervals, dtype=np.int64).reshape(-1, 2)
    if not seg.size:
        return seg
    starts, ends = seg.T
    if np.any(starts[1:] < starts[:-1]):
        # The order of equal starts changes no group: every end exceeds its start.
        starts, ends = seg[np.argsort(starts)].T
    # A group starts where a start is at or past every earlier end.
    first = np.flatnonzero(np.r_[True, starts[1:] >= np.maximum.accumulate(ends)[:-1]])
    return np.column_stack((starts[first], np.maximum.reduceat(ends, first)))


def load_bins(path: PathLike) -> list[Bin]:
    """Read bins from a 3-column (id, start, end) tab-separated file.

    A bin id may appear only once.
    """
    bins: list[Bin] = []
    first_line: dict[str, int] = {}
    for lineno, fields in _data_rows(_text(path)):
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


def read_pvalues(path: PathLike, column: str) -> tuple[list[str], list[list[str]], list[float]]:
    """The header and rows of a p-value table, and its ``column`` as p-values in
    [0, 1]. The first data row is the header; later rows have as many columns."""
    rows = _data_rows(_text(path))
    header = next(rows, (0, []))[1]
    if column not in header:
        raise TrackFormatError(f"column {column!r} not found in {path}")
    col, table, ps = header.index(column), [], []
    for lineno, fields in rows:
        if len(fields) != len(header):
            raise TrackFormatError(
                f"{path}: line {lineno}: expected {len(header)} columns, got {len(fields)}"
            )
        try:
            p = float(fields[col])
        except ValueError:
            raise TrackFormatError(
                f"{path}: line {lineno}: expected a p-value, got {fields[col]!r}"
            ) from None
        if not 0.0 <= p <= 1.0:  # NaN fails this too
            raise TrackFormatError(
                f"{path}: line {lineno}: expected a p-value in [0, 1], got {fields[col]!r}")
        ps.append(p)
        table.append(fields)
    return header, table, ps


def partition(
    bins: Iterable[Bin], positions: np.ndarray, segments: np.ndarray
) -> list[tuple[PointTrack, SegmentTrack]]:
    """Each bin's (point track, segment track), in bin order, from whole-file tracks.

    ``positions`` must be sorted and ``segments`` sorted and disjoint, as
    ``read_points`` and ``read_segments`` return them. Points outside a bin
    are left out of it; segments crossing a bin edge are clipped to it.
    """
    bins = list(bins)
    starts, ends = np.array([(b.start, b.end) for b in bins], dtype=np.int64).reshape(-1, 2).T
    lo, hi = np.searchsorted(positions, starts), np.searchsorted(positions, ends)
    # Disjoint sorted segments have sorted ends, so both searches are valid.
    first = np.searchsorted(segments[:, 1], starts, side="right")
    last = np.searchsorted(segments[:, 0], ends)
    # Of a sorted disjoint run, only the first start and the last end can
    # fall outside the bin, so clipping every coordinate clips just those.
    return [(PointTrack(b, positions[i:j]), SegmentTrack(b, segments[f:k].clip(b.start, b.end)))
            for b, i, j, f, k in zip(bins, lo.tolist(), hi.tolist(), first.tolist(), last.tolist())]


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
