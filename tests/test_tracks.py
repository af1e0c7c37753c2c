import io
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from trackmc import tracks
from trackmc import (
    Bin,
    BinarySequence,
    PointTrack,
    SegmentTrack,
    TrackFormatError,
    TrackValidationError,
    coverage_fraction,
    load_bins,
    load_point_track,
    load_segment_track,
    merge_overlapping,
    partition,
    read_points,
    read_segments,
    save_point_track,
    save_segment_track,
    to_binary_sequence,
)
from reference import CLEAN_ROWS, merge_per_interval, read_points_per_line, read_segments_per_line
from testkit import write_lines


class TestBin:
    def test_length(self):
        assert Bin("b", 10, 25).length == 15

    @pytest.mark.parametrize("start,end", [(-1, 5), (5, 5), (5, 4)])
    def test_invalid(self, start, end):
        with pytest.raises(TrackValidationError):
            Bin("b", start, end)

    @pytest.mark.parametrize("bin_id", ["a\tb", "a\nb", "a\rb", "ab\n"])
    def test_id_with_tab_or_line_break_rejected(self, bin_id):
        # Such an id would split a row or a line of every TSV it is written to.
        with pytest.raises(TrackValidationError, match="id must not contain a tab or line break"):
            Bin(bin_id, 0, 10)

    @pytest.mark.parametrize("bin_id", ["#a", " #a", "\u3000# x", "#"])
    def test_id_starting_with_hash_rejected(self, bin_id):
        # Every reader of a TSV row would skip it as a comment line.
        with pytest.raises(TrackValidationError, match="id must not start with '#'"):
            Bin(bin_id, 0, 10)

    @pytest.mark.parametrize("start,end", [(0, 2**63), (2**63, 2**63 + 5)])
    def test_coordinates_outside_int64_rejected(self, start, end):
        # Every array of the bin's tracks is int64.
        with pytest.raises(TrackValidationError, match="bin 'b': coordinates must fit in int64"):
            Bin("b", start, end)

    def test_int64_max_end_accepted(self):
        assert Bin("b", 0, 2**63 - 1).length == 2**63 - 1

    def test_id_with_inner_hash_accepted(self):
        assert Bin("a#1", 0, 10).id == "a#1"

    @pytest.mark.parametrize("bin_id", ["chr1 ", " chr1", "\u00a0chr1", "chr1\x0b", " "])
    def test_id_with_outer_whitespace_rejected(self, bin_id):
        # Every reader of a TSV row strips its fields, so the id would change.
        with pytest.raises(TrackValidationError, match="must not start or end with whitespace"):
            Bin(bin_id, 0, 10)

    def test_id_with_inner_space_accepted(self):
        assert Bin("chr1 part", 0, 10).id == "chr1 part"


class TestPointTrack:
    def test_rejects_unsorted(self, bin10):
        with pytest.raises(TrackValidationError):
            PointTrack(bin10, [5, 2])

    def test_rejects_duplicates(self, bin10):
        with pytest.raises(TrackValidationError):
            PointTrack(bin10, [2, 2])

    def test_rejects_out_of_bin(self, bin10):
        with pytest.raises(TrackValidationError):
            PointTrack(bin10, [0, 10])

    def test_immutable(self, bin10):
        track = PointTrack(bin10, [1, 2])
        with pytest.raises(ValueError):
            track.positions[0] = 5


class TestSegmentTrack:
    def test_rejects_overlap(self, bin10):
        with pytest.raises(TrackValidationError):
            SegmentTrack(bin10, [(0, 5), (4, 8)])

    def test_touching_allowed(self, bin10):
        track = SegmentTrack(bin10, [(0, 5), (5, 8)])
        assert len(track) == 2

    def test_rejects_empty_segment(self, bin10):
        with pytest.raises(TrackValidationError):
            SegmentTrack(bin10, [(5, 5)])

    def test_rejects_out_of_bin(self, bin10):
        with pytest.raises(TrackValidationError):
            SegmentTrack(bin10, [(8, 11)])


class TestLoadPointTrack:
    def test_interval_rows_become_midpoints(self, tmp_path):
        path = write_lines(tmp_path / "p.tsv", ["100\t200"])
        track = load_point_track(path, Bin("b", 0, 1000))
        assert track.positions.tolist() == [150]

    def test_rows_are_sorted(self, tmp_path, bin10):
        path = write_lines(tmp_path / "p.tsv", ["5", "2", "9"])
        track = load_point_track(path, bin10)
        assert track.positions.tolist() == [2, 5, 9]

    def test_out_of_bin_raises(self, tmp_path, bin10):
        path = write_lines(tmp_path / "p.tsv", ["12"])
        with pytest.raises(TrackValidationError):
            load_point_track(path, bin10)

    def test_duplicate_raises(self, tmp_path, bin10):
        path = write_lines(tmp_path / "p.tsv", ["3", "3"])
        with pytest.raises(TrackValidationError):
            load_point_track(path, bin10)

    def test_duplicate_midpoint_reports_both_lines(self, tmp_path):
        path = write_lines(tmp_path / "p.tsv", ["0\t10", "20\t30", "4\t7"])
        with pytest.raises(TrackValidationError,
                           match=r"p\.tsv: line 3: duplicate point coordinate 5 \(first at line 1\)"):
            read_points(path)

    def test_malformed_line_reports_line_number(self, tmp_path, bin10):
        path = write_lines(tmp_path / "p.tsv", ["1", "oops", "3"])
        with pytest.raises(TrackFormatError, match="line 2"):
            load_point_track(path, bin10)

    def test_header_and_blank_lines_skipped(self, tmp_path, bin10):
        path = write_lines(tmp_path / "p.tsv", ["# a header", "", "4"])
        track = load_point_track(path, bin10)
        assert track.positions.tolist() == [4]

    def test_mixed_column_counts_rejected(self, tmp_path, bin10):
        path = write_lines(tmp_path / "p.tsv", ["1\t3", "4"])
        with pytest.raises(TrackFormatError, match="line 2"):
            load_point_track(path, bin10)

    def test_empty_file_gives_empty_track(self, tmp_path, bin10):
        path = write_lines(tmp_path / "p.tsv", [])
        assert len(load_point_track(path, bin10)) == 0


class TestLoadSegmentTrack:
    def test_overlapping_rows_merged(self, tmp_path, bin10):
        path = write_lines(tmp_path / "s.tsv", ["0\t5", "3\t8"])
        track = load_segment_track(path, bin10)
        assert track.segments.tolist() == [[0, 8]]

    def test_disjoint_rows_kept(self, tmp_path, bin10):
        path = write_lines(tmp_path / "s.tsv", ["1\t2", "4\t6"])
        track = load_segment_track(path, bin10)
        assert track.segments.tolist() == [[1, 2], [4, 6]]

    def test_empty_interval_raises(self, tmp_path, bin10):
        path = write_lines(tmp_path / "s.tsv", ["5\t5"])
        with pytest.raises(TrackValidationError):
            load_segment_track(path, bin10)

    def test_out_of_bin_raises(self, tmp_path, bin10):
        path = write_lines(tmp_path / "s.tsv", ["5\t11"])
        with pytest.raises(TrackValidationError):
            load_segment_track(path, bin10)

    def test_touching_rows_not_merged(self, tmp_path, bin10):
        path = write_lines(tmp_path / "s.tsv", ["0\t5", "5\t8"])
        track = load_segment_track(path, bin10)
        assert len(track) == 2


def test_merge_overlapping_chain():
    merged = merge_overlapping([(0, 4), (3, 6), (5, 9), (10, 12)])
    assert merged.tolist() == [[0, 9], [10, 12]]


@settings(max_examples=500, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(-20, 60), st.integers(1, 30))
                     .map(lambda t: (t[0], t[0] + t[1])), max_size=15),
       presort=st.booleans())
@example(rows=[(0, 5), (5, 8), (2, 3), (0, 9), (8, 9)], presort=False)  # touch and nest
@example(rows=[(3, 9), (3, 4), (3, 12), (12, 13)], presort=True)  # equal starts
def test_merge_overlapping_matches_plain_loop(rows, presort):
    """Both sides of the sort (rows whose starts are already in order, as a
    read file usually has them, and rows in any order) merge as a plain loop."""
    if presort:
        rows = sorted(rows, key=lambda row: row[0])
    merged = merge_overlapping(rows)
    assert merged.dtype == np.int64 and merged.shape == (len(merged), 2)
    assert merged.tolist() == merge_per_interval(rows)


class TestToBinarySequence:
    def test_direct_indicator(self):
        seq = to_binary_sequence(PointTrack(Bin("b", 0, 4), [0, 2]))
        assert seq.values.tolist() == [1, 0, 1, 0]

    def test_empty_track(self):
        seq = to_binary_sequence(PointTrack(Bin("b", 0, 3), []))
        assert seq.values.tolist() == [0, 0, 0]

    def test_offset_by_bin_start(self):
        seq = to_binary_sequence(PointTrack(Bin("b", 1, 3), [1]))
        assert seq.values.tolist() == [1, 0]

    def test_ones_count_matches_positions(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            length = int(rng.integers(1, 200))
            n = int(rng.integers(0, length + 1))
            pos = np.sort(rng.choice(length, size=n, replace=False))
            seq = to_binary_sequence(PointTrack(Bin("b", 0, length), pos))
            assert int(seq.values.sum()) == n


class TestCoverageFraction:
    def test_half(self, bin10):
        assert coverage_fraction(SegmentTrack(bin10, [(0, 5)])) == 0.5

    def test_empty(self, bin10):
        assert coverage_fraction(SegmentTrack(bin10, [])) == 0.0

    def test_full(self, bin10):
        assert coverage_fraction(SegmentTrack(bin10, [(0, 10)])) == 1.0

    def test_invariant_under_split(self, bin10):
        whole = SegmentTrack(bin10, [(2, 8)])
        split = SegmentTrack(bin10, [(2, 5), (5, 8)])
        assert coverage_fraction(whole) == coverage_fraction(split)


class TestRoundTrip:
    def test_point_track(self, tmp_path):
        rng = np.random.default_rng(7)
        for i in range(10):
            length = int(rng.integers(5, 500))
            n = int(rng.integers(0, min(length, 40)))
            pos = np.sort(rng.choice(length, size=n, replace=False))
            track = PointTrack(Bin("b", 0, length), pos)
            path = tmp_path / f"pts{i}.tsv"
            save_point_track(track, path)
            assert load_point_track(path, track.bin) == track

    def test_segment_track(self, tmp_path):
        rng = np.random.default_rng(8)
        for i in range(10):
            bounds = np.sort(rng.choice(400, size=2 * int(rng.integers(0, 8)), replace=False))
            segs = bounds.reshape(-1, 2)
            segs = segs[segs[:, 1] > segs[:, 0]]
            track = SegmentTrack(Bin("b", 0, 400), segs)
            path = tmp_path / f"segs{i}.tsv"
            save_segment_track(track, path)
            assert load_segment_track(path, track.bin) == track

    def test_save_to_stream(self, bin10):
        buf = io.StringIO()
        save_point_track(PointTrack(bin10, [1, 5]), buf)
        assert buf.getvalue() == "1\n5\n"

    def test_save_with_config_echo(self, bin10, tmp_path):
        path = tmp_path / "s.tsv"
        save_segment_track(SegmentTrack(bin10, [(1, 4)]), path, {"kind": "segments", "seed": 3})
        assert path.read_text() == "# kind=segments\n# seed=3\n1\t4\n"
        assert load_segment_track(path, bin10).segments.tolist() == [[1, 4]]


class TestTableFormat:
    def test_floats_by_fmt_else_str(self):
        row = (0.1 + 0.2, np.float64(1 / 3), np.float32(0.5), 7, np.int64(-3), "a b", 2.0)
        lines = list(tracks.table_lines(("x", "y"), [row, ()]))
        assert lines == [
            "x\ty",
            "0.3\t0.333333333333\t0.5\t7\t-3\ta b\t2",
            "",
        ]
        assert lines[1].split("\t")[:3] == [tracks.fmt(0.1 + 0.2), tracks.fmt(1 / 3), "0.5"]

    def test_echo_floats_by_fmt(self):
        buf = io.StringIO()
        tracks.write_tsv(buf, {"fdr": 0.1 + 0.2, "pi0": np.float64(2 / 3), "seed": 3}, ["x"])
        assert buf.getvalue() == "# fdr=0.3\n# pi0=0.666666666667\n# seed=3\nx\n"


def test_load_bins(tmp_path):
    path = write_lines(tmp_path / "bins.tsv", ["# id\tstart\tend", "a\t0\t100", "b\t100\t250"])
    bins = load_bins(path)
    assert [(b.id, b.start, b.end) for b in bins] == [("a", 0, 100), ("b", 100, 250)]


def test_load_bins_rejects_duplicate_id(tmp_path):
    path = write_lines(tmp_path / "bins.tsv", ["a\t0\t100", "b\t100\t200", "a\t200\t300"])
    with pytest.raises(TrackValidationError,
                       match=r"bins\.tsv: line 3: duplicate bin id 'a' \(first at line 1\)"):
        load_bins(path)


def _reference_partition(b, positions, rows):
    """Per-bin filter, clip and merge, one bin at a time."""
    points = sorted(p for p in positions if b.start <= p < b.end)
    clipped = [(max(s, b.start), min(e, b.end)) for s, e in rows if s < b.end and e > b.start]
    return points, merge_per_interval(clipped)


_coord = st.integers(0, 80)
_interval = st.tuples(_coord, st.integers(1, 25)).map(lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=300, deadline=None)
@given(
    positions=st.sets(st.integers(0, 110)),
    rows=st.lists(_interval, max_size=12),
    bin_spans=st.lists(_interval, min_size=1, max_size=5),
)
def test_partition_matches_per_bin_reference(positions, rows, bin_spans):
    bins = [Bin(f"b{i}", s, e) for i, (s, e) in enumerate(bin_spans)]
    pairs = partition(
        bins, np.sort(np.array(list(positions), dtype=np.int64)), merge_overlapping(rows)
    )
    assert [(points.bin, segments.bin) for points, segments in pairs] == [(b, b) for b in bins]
    for b, (points, segments) in zip(bins, pairs):
        assert (points.positions.tolist(), segments.segments.tolist()) == \
            _reference_partition(b, positions, rows)


def test_partition_of_no_bins():
    positions, segments = np.array([3, 7], dtype=np.int64), np.array([[1, 4]], dtype=np.int64)
    assert partition([], positions, segments) == []
    assert partition(iter([]), positions, segments) == []


def test_partition_of_read_tracks(tmp_path):
    points = write_lines(tmp_path / "p.tsv", ["5", "150", "99", "250"])
    segments = write_lines(tmp_path / "s.tsv", ["90\t110", "95\t120", "180\t200", "200\t210"])
    bins = [Bin("c", 190, 300), Bin("a", 0, 100), Bin("b", 100, 200)]
    pairs = partition(bins, read_points(points), read_segments(segments))
    assert [(p.bin.id, p.positions.tolist(), s.segments.tolist()) for p, s in pairs] == [
        ("c", [250], [[190, 200], [200, 210]]),
        ("a", [5, 99], [[90, 100]]),
        ("b", [150], [[100, 120], [180, 200]]),
    ]


_INT64_MAX = 2**63 - 1
_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                            "\u0665\u0666\u0667\u0668\u0669")
_small = st.integers(-5, 100)  # small, so that coordinates and midpoints repeat
_digits18 = st.integers(10**17, 10**18 - 1).flatmap(lambda v: st.sampled_from([v, -v]))
_clean_value = st.one_of(_small, _small, _small, _digits18)
_value = st.one_of(
    _clean_value,
    st.integers(10**18, _INT64_MAX),  # 19 digits, inside int64
    st.sampled_from([_INT64_MAX - 1, _INT64_MAX, -_INT64_MAX - 1, _INT64_MAX + 1,
                     -_INT64_MAX - 2, 10**20]),
)
# A later field of a row is mostly a little past the first: a valid interval
# that may overlap, touch or nest in its neighbours, or else an empty or
# inverted one.
_step = st.integers(-2, 40)


def _styled(value: int, style: str) -> str:
    text = str(value)
    sign, digits = ("-", text[1:]) if value < 0 else ("", text)
    return {
        "plus": text if sign else "+" + text,
        "underscore": sign + digits[0] + "_" + digits[1:] if len(digits) > 1 else text,
        "non-ascii": text.translate(_ARABIC_INDIC),
        "padded": f" {text}  ",
        "zeros": sign + "00" + digits,
        "junk": "oops" if value % 2 else "1.5",
        "empty": "",
    }[style]


_STYLES = ["plus", "underscore", "non-ascii", "padded", "zeros", "junk", "empty"]


@st.composite
def _row(draw, width, kind):
    """One data row. A clean row has plain fields of at most 18 digits and a
    wide row may hold larger values. A messy file is clean but for some odd
    rows: one with another width or separator, or with one field that only
    ``int`` reads, or that nothing reads."""
    odd = kind == "messy" and draw(st.integers(0, 3)) == 0
    feature = draw(st.sampled_from(["width"] * 2 + ["separator"] * 3 + _STYLES)) if odd else None
    if feature == "width":
        width = draw(st.sampled_from([1, 2, 3]))
    first = draw(_value if kind == "wide" else _clean_value)
    later = _step.map(lambda d: first + d)
    if kind == "wide":
        later = st.one_of(later, _value)
    values = [first] + [draw(later) for _ in range(width - 1)]
    fields = [str(v) for v in values]
    if feature in _STYLES:
        i = draw(st.integers(0, width - 1))
        fields[i] = _styled(values[i], feature)
    return (draw(st.sampled_from([" ", "\t\t", " \t"])) if feature == "separator"
            else "\t").join(fields)


@st.composite
def _track_file(draw, widths):
    """Text of a points or segments file, with comments, blanks and any line ends."""
    row = _row(draw(st.sampled_from(widths)), draw(st.sampled_from(["clean", "wide", "messy"])))
    comment = st.builds(lambda lead, body: lead + "#" + body,
                        st.sampled_from(["", " ", "\t", "  "]),
                        st.sampled_from(["", " id\tstart\tend", "# kind=points"]))
    blank = st.sampled_from(["", " ", "\t", " \t ", "\x0c", "\xa0", "\u3000"])
    lines = draw(st.lists(st.one_of(row, row, row, comment, blank), max_size=12))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(read, path):
    """The array a reader returns, or the type and message of what it raises."""
    try:
        out = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tolist()


def _fast_path_edges(test):
    """Files at the edges of the reader's shortcuts: lines before the first
    data row are never checked, empty and '#' lines are dropped unparsed,
    whitespace-only lines are parsed one at a time, and the numbers are
    converted by ``np.fromstring``."""
    for text in [
        "1\t2\n \n3\t4\n",  # a whitespace-only line and no '#'
        "1\t2\n\t\n",  # the same as the last line
        "\n1\t2\n3\t4\n",  # a leading blank line
        "\n\n1\t2",
        "1\t2\n\n3\t4\n",  # an empty line inside
        "1\t2\r\n3\t4",  # CRLF, no final line end
        "\r\n1\t2\r\n",
        "007\t010\n",  # zero-padded fields are read in base 10
        "-007\t0010\n08\t09\n",
        "1\n \n2\n",
        "#\n",
        "\n",
        "",
    ]:
        test = example(text=text)(test)
    return test


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_track_file(widths=[1, 2]))
@example(text="0\t5\n7 9\n")  # a space where a tab belongs
@_fast_path_edges
def test_read_points_matches_per_line_parser(tmp_path, text):
    path = tmp_path / "p.tsv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(read_points, path) == _outcome(read_points_per_line, path)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_track_file(widths=[2]))
@example(text="0\t5\n7 9\n")  # a space where a tab belongs
@_fast_path_edges
def test_read_segments_matches_per_line_parser(tmp_path, text):
    path = tmp_path / "s.tsv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(read_segments, path) == _outcome(read_segments_per_line, path)


@pytest.fixture
def one_pass_only(monkeypatch):
    """Fail any read that parses a field one at a time."""
    def parse_int(field, path, lineno):
        raise AssertionError(f"{path}: line {lineno}: {field!r} parsed one at a time")

    monkeypatch.setattr(tracks, "_parse_int", parse_int)


@pytest.fixture
def parse_calls(monkeypatch):
    """The (line, field) of every field parsed one at a time."""
    calls = []

    def parse_int(field, path, lineno, parse=tracks._parse_int):
        calls.append((lineno, field))
        return parse(field, path, lineno)

    monkeypatch.setattr(tracks, "_parse_int", parse_int)
    return calls


@pytest.mark.usefixtures("one_pass_only")
def test_own_formats_read_in_one_pass(tmp_path):
    """Interval files and saved point tracks parse no field one at a time."""
    intervals = write_lines(tmp_path / "s.tsv", ["100\t200", "150\t300", "300\t310"])
    assert read_segments(intervals).tolist() == [[100, 300], [300, 310]]
    assert read_points(intervals).tolist() == [150, 225, 305]
    saved = tmp_path / "p.tsv"
    save_point_track(PointTrack(Bin("b", 0, 100), [3, 50, 99]), saved,
                     {"command": "simulate", "seed": 1})
    assert read_points(saved).tolist() == [3, 50, 99]


# Texts for the clean check: digit runs of 1-20 digits, so 18 and 19 occur,
# between the bytes a clean text may hold and some it must not.
_check_token = st.one_of(
    st.integers(1, 20).flatmap(lambda k: st.text("0123456789", min_size=k, max_size=k)),
    st.sampled_from(["-", "\t", "\n", " ", "#", "a", "\u0663"]),
)


@settings(max_examples=1000, deadline=None)
@given(text=st.one_of(st.lists(_check_token, max_size=14).map("".join),
                      st.text("0123456789-\t\n #a\u0663", max_size=30)))
@example(text="1" * 18)
@example(text="1" * 19)
@example(text="-" + "9" * 18 + "\t" + "1" * 18 + "\n")
@example(text="7\t" + "1" * 19 + "\n")
@example(text="-")
@example(text="--1")
@example(text="1-2")
@example(text="")
@example(text="1\t2\n3\t4")  # no final line feed
@example(text="1\t2\t")  # a trailing tab
@example(text="1\n2\t")
def test_clean_check_matches_regex_oracle(text):
    block = (text + "\n").encode()
    lines = block.split(b"\n")[:-1]
    line_feeds = [i for i, byte in enumerate(block) if byte == ord("\n")]
    for ncols in (1, 2):
        ends, plain = tracks._plain_lines(block, ncols)
        assert ends.tolist() == line_feeds
        assert plain.tolist() == [bool(CLEAN_ROWS[ncols].fullmatch(line.decode()))
                                  for line in lines], ncols


# Rows of 12 characters with their line feeds: a 64-character block holds
# five, so the blocks end after rows 4, 9 and 14.
_BLOCK_ROWS = [f"{10_000 + 10 * i}\t{10_005 + 10 * i}" for i in range(17)]


@pytest.mark.parametrize("bad,long", [
    *(pytest.param(bad, (), id=str(bad)) for bad in [(), (4,), (5,), (9,), (10,), (4, 10)]),
    *(pytest.param(bad, long, id=f"{bad}-long{long}") for bad, long in [((4,), (5,)), ((), (16,))]),
])
def test_clean_check_sees_rows_at_block_edges(tmp_path, monkeypatch, parse_calls, bad, long):
    """A row that ``int`` reads but the clean check must refuse ('+' for the
    first digit) is seen on either side of a block edge, and so is a row
    padded to more than a block, which makes a block of its own."""
    monkeypatch.setattr(tracks, "_CHECK_BLOCK", 64)
    rows = list(_BLOCK_ROWS)
    for i in bad:
        rows[i] = "+" + rows[i][1:]
    for i in long:
        rows[i] = rows[i].replace("\t", " " * 60 + "\t")
    path = write_lines(tmp_path / "p.tsv", rows)
    for read, oracle in ((read_points, read_points_per_line),
                         (read_segments, read_segments_per_line)):
        parse_calls.clear()
        assert _outcome(read, path) == _outcome(oracle, path)
        assert parse_calls == [(i + 1, field.strip())
                               for i in sorted(bad + long) for field in rows[i].split("\t")]


@pytest.mark.parametrize("read,oracle,width", [
    (read_points, read_points_per_line, 1),
    (read_points, read_points_per_line, 2),
    (read_segments, read_segments_per_line, 2),
], ids=["points-1", "points-2", "segments"])
def test_one_refused_row_costs_only_its_own_parse(tmp_path, parse_calls, read, oracle, width):
    """A clean file but for one space-padded field parses only that row's
    fields one at a time."""
    rows = [f"{10 * i}\t{10 * i + 5}" if width == 2 else str(10 * i) for i in range(3000)]
    rows[1500] += " "
    path = write_lines(tmp_path / "f.tsv", rows)
    assert _outcome(read, path) == _outcome(oracle, path)
    assert parse_calls == [(1501, field.strip()) for field in rows[1500].split("\t")]


# More than one 64-character block of lines that every reader skips: '#'
# and empty lines, and whitespace-only and indented comment lines.
_SKIPPED_LINES = ["# kind=points", "", "   ", "\t", "  # indented", "\u3000", "#", " \t# x"] * 3


@pytest.mark.parametrize("rows,outcome", [
    ([*_SKIPPED_LINES, "10\t20", "30\t40"], [[10, 20], [30, 40]]),
    (_SKIPPED_LINES, np.empty((0, 2), dtype=np.int64)),
    ([*_SKIPPED_LINES, "10\t20\t30", "40"], "line 25: expected 1 or 2 columns, got 3"),
], ids=["first-row", "no-row", "wrong-width"])
def test_first_row_follows_skipped_lines(tmp_path, monkeypatch, rows, outcome):
    """The first line that ``_fields`` keeps fixes the width, however many
    blocks of skipped lines come before it."""
    monkeypatch.setattr(tracks, "_CHECK_BLOCK", 64)
    path = write_lines(tmp_path / "f.tsv", rows)
    assert len("".join(f"{row}\n" for row in _SKIPPED_LINES)) > 64
    for read, oracle in ((read_points, read_points_per_line),
                         (read_segments, read_segments_per_line)):
        assert _outcome(read, path) == _outcome(oracle, path)
    if isinstance(outcome, str):
        with pytest.raises(TrackFormatError) as info:
            read_points(path)
        assert str(info.value) == f"{path}: {outcome}"
    else:
        got, lines, error = tracks._rows(path, (1, 2))
        assert error is None and got.dtype == np.int64
        assert got.tolist() == np.asarray(outcome).tolist() and got.shape[1] == 2
        assert lines.tolist() == [25, 26][:len(got)]


def read_pvalue_table(path):
    return tracks.read_pvalues(path, "p_value")


@pytest.mark.parametrize("read", [read_points, read_segments, load_bins, read_pvalue_table])
@pytest.mark.parametrize("text,error", [
    (b"1\t5\n2\t\xff\n", "line 2: not UTF-8: byte 0xff at offset 6: invalid start byte"),
    # A bad first row does not come first: the file is decoded whole.
    (b"x\t1\n" + b"1\t5\n" * 3000 + b"\xff\n",
     "line 3002: not UTF-8: byte 0xff at offset 12004: invalid start byte"),
    # Lines end as the readers end them.
    (b"# a\r\n1\t5\r2\t6\n\xe2\x82",
     "line 4: not UTF-8: byte 0xe2 at offset 13: unexpected end of data"),
], ids=["short", "late", "crlf"])
def test_non_utf8_file_raises_decode_error(tmp_path, read, text, error):
    """A byte that is not UTF-8 is a format error naming the file, the line
    and the byte's offset in the file."""
    path = tmp_path / "f.tsv"
    path.write_bytes(text)
    with pytest.raises(TrackFormatError) as info:
        read(path)
    assert str(info.value) == f"{path}: {error}"


@pytest.mark.usefixtures("one_pass_only")
def test_clean_files_read_without_warnings(tmp_path):
    """Clean files parse no field one at a time and ``np.fromstring`` reads
    them to the end. On a partial read, older numpy only warns and returns the
    numbers read so far."""
    files = {
        "p.tsv": ["# kind=points", "5", "-3", "007", "999999999999999999"],
        "s.tsv": ["100\t200", "", "150\t300", "-20\t-10"],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = read_points(write_lines(tmp_path / "p.tsv", files["p.tsv"]))
        segments = read_segments(write_lines(tmp_path / "s.tsv", files["s.tsv"]))
    assert points.tolist() == [-3, 5, 7, 999999999999999999]
    assert segments.tolist() == [[-20, -10], [100, 300]]


def test_binary_sequence_validation():
    with pytest.raises(TrackValidationError):
        BinarySequence([])
    with pytest.raises(TrackValidationError):
        BinarySequence([0, 2])
    # The same verdicts as np.isin(values, (0, 1)).all().
    for values in ([0.5], [-1], [np.nan]):
        with pytest.raises(TrackValidationError, match="must be 0 or 1"):
            BinarySequence(values)
    for values in ([True, False], [0, 1.0]):
        assert BinarySequence(values).values.tolist() == [int(v) for v in values]
