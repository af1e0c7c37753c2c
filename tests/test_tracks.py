import io

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
    clipped = sorted(
        (max(s, b.start), min(e, b.end)) for s, e in rows if s < b.end and e > b.start
    )
    merged = []
    for s, e in clipped:
        if merged and s < merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return points, merged


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
    points_by_bin, segments_by_bin = partition(
        bins, np.sort(np.array(list(positions), dtype=np.int64)), merge_overlapping(rows)
    )
    for b in bins:
        points, segments = _reference_partition(b, positions, rows)
        assert points_by_bin[b.id].positions.tolist() == points
        assert segments_by_bin[b.id].segments.tolist() == segments


def test_partition_of_read_tracks(tmp_path):
    points = write_lines(tmp_path / "p.tsv", ["5", "150", "99", "250"])
    segments = write_lines(tmp_path / "s.tsv", ["90\t110", "95\t120", "180\t200", "200\t210"])
    bins = [Bin("a", 0, 100), Bin("b", 100, 200), Bin("c", 190, 300)]
    points_by_bin, segments_by_bin = partition(bins, read_points(points), read_segments(segments))
    assert {k: v.positions.tolist() for k, v in points_by_bin.items()} == {
        "a": [5, 99], "b": [150], "c": [250]}
    assert {k: v.segments.tolist() for k, v in segments_by_bin.items()} == {
        "a": [[90, 100]], "b": [[100, 120], [180, 200]], "c": [[190, 200], [200, 210]]}


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


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_track_file(widths=[1, 2]))
@example(text="0\t5\n7 9\n")  # a space where a tab belongs
def test_read_points_matches_per_line_parser(tmp_path, text):
    path = tmp_path / "p.tsv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(read_points, path) == _outcome(tracks._read_points_per_line, path)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_track_file(widths=[2]))
@example(text="0\t5\n7 9\n")  # a space where a tab belongs
def test_read_segments_matches_per_line_parser(tmp_path, text):
    path = tmp_path / "s.tsv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(read_segments, path) == _outcome(tracks._read_segments_per_line, path)


def test_own_formats_read_in_one_pass(tmp_path, monkeypatch):
    """Interval files and saved point tracks never reach the per-line parser."""
    def per_line(path):
        raise AssertionError(f"{path} fell back to the per-line parser")

    monkeypatch.setattr(tracks, "_data_rows", per_line)
    intervals = write_lines(tmp_path / "s.tsv", ["100\t200", "150\t300", "300\t310"])
    assert read_segments(intervals).tolist() == [[100, 300], [300, 310]]
    assert read_points(intervals).tolist() == [150, 225, 305]
    saved = tmp_path / "p.tsv"
    save_point_track(PointTrack(Bin("b", 0, 100), [3, 50, 99]), saved,
                     {"command": "simulate", "seed": 1})
    assert read_points(saved).tolist() == [3, 50, 99]


def test_binary_sequence_validation():
    with pytest.raises(TrackValidationError):
        BinarySequence([])
    with pytest.raises(TrackValidationError):
        BinarySequence([0, 2])
