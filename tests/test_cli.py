import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trackmc
from trackmc import MCConfig, PointGenConfig, SegmentGenConfig, StudyConfig
from trackmc.cli import _COMMANDS, build_parser, main
from trackmc.study import STUDY_FDR
from testkit import write_lines


def run_cli(*args):
    return main(list(args))


@pytest.fixture
def track_files(tmp_path):
    points = write_lines(tmp_path / "points.tsv", ["10", "25", "26", "90", "140", "141"])
    segments = write_lines(tmp_path / "segments.tsv", ["0\t40", "120\t160"])
    return points, segments


_MODELS = "['preserve-interpoint', 'preserve-intersegment', 'uniform-points', 'uniform-segments']"
_BAD_MODELS = [
    ("nonsense", f"unknown null model 'nonsense'; expected one of {_MODELS} or block:<k>"),
    ("block", f"unknown null model 'block'; expected one of {_MODELS} or block:<k>"),
    ("block:0", "block size must be >= 1, got 0"),
    *((model, f"bad block size in null model {model!r}")
      for model in ("block:x", "block:5_0", "block: 5", "block:+5", "block:\u0665")),
]


class TestTestCommand:
    def test_basic_run(self, track_files, tmp_path, capsys):
        points, segments = track_files
        out = tmp_path / "out.tsv"
        code = run_cli(
            "test", "--points", points, "--segments", segments,
            "--bin-end", "200", "--samples", "300", "--seed", "5",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0].split("\t")
        row = lines[-1].split("\t")
        assert header[0] == "bin_id" and row[0] == "bin"
        assert row[1] == "6" and row[2] == "5"  # six points, five inside
        assert 0.0 < float(row[3]) <= 1.0
        assert "# null_model=uniform-points" in lines

    def test_stdout_default(self, track_files, capsys):
        points, segments = track_files
        assert run_cli("test", "--points", points, "--segments", segments,
                       "--bin-end", "200", "--samples", "50") == 0
        assert "bin_id" in capsys.readouterr().out

    def test_all_null_models(self, track_files, tmp_path):
        points, segments = track_files
        for model in ("uniform-points", "preserve-interpoint", "uniform-segments",
                      "preserve-intersegment", "block:20"):
            out = tmp_path / f"{model.replace(':', '_')}.tsv"
            code = run_cli("test", "--points", points, "--segments", segments,
                           "--bin-end", "200", "--samples", "60",
                           "--null-model", model, "--out", str(out))
            assert code == 0
            assert model in out.read_text()

    def test_unknown_model_fails(self, track_files, capsys):
        points, segments = track_files
        code = run_cli("test", "--points", points, "--segments", segments,
                       "--bin-end", "200", "--null-model", "nonsense")
        assert code == 1
        assert "unknown null model" in capsys.readouterr().err

    @pytest.mark.parametrize("model,message", _BAD_MODELS)
    def test_bad_null_model_error_line(self, track_files, capsys, model, message):
        points, segments = track_files
        code = run_cli("test", "--points", points, "--segments", segments,
                       "--bin-end", "200", "--null-model", model)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_out_of_bin_point_fails(self, tmp_path, capsys):
        points = write_lines(tmp_path / "p.tsv", ["500"])
        segments = write_lines(tmp_path / "s.tsv", ["0\t40"])
        code = run_cli("test", "--points", points, "--segments", segments, "--bin-end", "200")
        assert code == 1
        assert capsys.readouterr().err == "error: bin 'bin': position outside [0, 200)\n"

    def test_deterministic_output_bytes(self, track_files, tmp_path):
        points, segments = track_files
        outs = []
        for name in ("a.tsv", "b.tsv"):
            out = tmp_path / name
            run_cli("test", "--points", points, "--segments", segments,
                    "--bin-end", "200", "--samples", "200", "--seed", "9",
                    "--out", str(out))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestBatchCommand:
    def test_batch_with_filtering(self, tmp_path):
        bins = write_lines(tmp_path / "bins.tsv", ["a\t0\t100", "b\t100\t200", "c\t200\t300"])
        # bin a: 5 points, bin b: 1 point, bin c: 6 points
        pts = ["5", "10", "15", "20", "25", "150", "205", "210", "215", "220", "225", "230"]
        points = write_lines(tmp_path / "p.tsv", pts)
        segments = write_lines(tmp_path / "s.tsv", ["0\t50", "120\t180", "250\t290"])
        out = tmp_path / "batch.tsv"
        code = run_cli("batch", "--bins", bins, "--points", points, "--segments", segments,
                       "--samples", "80", "--seed", "3", "--min-points", "5",
                       "--min-segments", "1", "--out", str(out))
        assert code == 0
        rows = [l.split("\t") for l in out.read_text().splitlines() if not l.startswith("#")]
        assert [r[0] for r in rows[1:]] == ["a", "c"]

    def test_batch_workers_byte_identical(self, tmp_path):
        bins = write_lines(tmp_path / "bins.tsv", [f"b{i}\t{i*100}\t{(i+1)*100}" for i in range(4)])
        rng = np.random.default_rng(1)
        points = write_lines(tmp_path / "p.tsv", sorted(rng.choice(400, 40, replace=False).astype(str), key=int))
        segments = write_lines(tmp_path / "s.tsv", ["10\t60", "150\t190", "220\t260", "310\t390"])
        outs = []
        for w, name in ((1, "w1.tsv"), (2, "w2.tsv")):
            out = tmp_path / name
            assert run_cli("batch", "--bins", bins, "--points", points, "--segments", segments,
                           "--samples", "100", "--seed", "7", "--workers", str(w),
                           "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_no_bins_left_fails(self, tmp_path, capsys):
        bins = write_lines(tmp_path / "bins.tsv", ["a\t0\t100"])
        points = write_lines(tmp_path / "p.tsv", ["5"])
        segments = write_lines(tmp_path / "s.tsv", ["0\t50"])
        code = run_cli("batch", "--bins", bins, "--points", points, "--segments", segments,
                       "--min-points", "10")
        assert code == 1
        assert capsys.readouterr().err == "error: no bins left after filtering\n"

    def test_duplicate_bin_id_fails(self, tmp_path, capsys):
        bins = write_lines(tmp_path / "bins.tsv", ["a\t0\t100", "a\t100\t200"])
        points = write_lines(tmp_path / "p.tsv", ["5", "150"])
        segments = write_lines(tmp_path / "s.tsv", ["0\t50", "120\t180"])
        code = run_cli("batch", "--bins", bins, "--points", points, "--segments", segments)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 2: duplicate bin id 'a'" in err


class TestBatchFilter:
    """`batch` tests the bins with at least --min-points points and
    --min-segments segments, in input order, and counts them in the header."""

    @staticmethod
    def kept_ids(tmp_path, counts, min_points, min_segments, no_segment=()):
        """The bins_tested count and result ids of a batch over one 1 kb bin
        per count, holding that many points and one segment unless listed in
        ``no_segment``."""
        bins = [f"bin{i:03d}\t{1000 * i}\t{1000 * (i + 1)}" for i in range(len(counts))]
        points = [str(1000 * i + 3 * k) for i, n in enumerate(counts) for k in range(n)]
        segments = [f"{1000 * i}\t{1000 * i + 100}"
                    for i in range(len(counts)) if i not in no_segment]
        out = tmp_path / "out.tsv"
        assert run_cli("batch", "--bins", write_lines(tmp_path / "bins.tsv", bins),
                       "--points", write_lines(tmp_path / "p.tsv", points),
                       "--segments", write_lines(tmp_path / "s.tsv", segments),
                       "--samples", "10", "--min-points", str(min_points),
                       "--min-segments", str(min_segments), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        tested = next(int(l.split("=")[1]) for l in lines if l.startswith("# bins_tested="))
        return tested, [l.split("\t")[0] for l in lines if not l.startswith("#")][1:]

    def test_threshold_excludes_sparse_bin(self, tmp_path):
        assert self.kept_ids(tmp_path, [4, 5, 7], 5, 1) == (2, ["bin001", "bin002"])

    def test_zero_thresholds_identity(self, tmp_path):
        assert self.kept_ids(tmp_path, [0, 2], 0, 0) == (2, ["bin000", "bin001"])

    def test_73_of_100_fixture(self, tmp_path):
        # 73 bins meet the (>=5 points, >=1 segment) bar by construction.
        counts = [5 + (i % 7) if i < 73 else 4 for i in range(100)]
        assert self.kept_ids(tmp_path, counts, 5, 1) == (73, [f"bin{i:03d}" for i in range(73)])

    def test_segment_threshold(self, tmp_path):
        assert self.kept_ids(tmp_path, [10, 10], 1, 1, no_segment=(0,)) == (1, ["bin001"])


class TestSharedPointRules:
    """`batch` and `test` read points files through one parser."""

    @pytest.mark.parametrize("rows,message", [
        (["10\t20", "30", "50\t60"], "line 2: expected 2 columns, got 1"),
        (["10", "40", "10"], "line 3: duplicate point coordinate 10 (first at line 1)"),
    ])
    def test_same_rejection(self, tmp_path, capsys, rows, message):
        points = write_lines(tmp_path / "p.tsv", rows)
        segments = write_lines(tmp_path / "s.tsv", ["0\t50"])
        bins = write_lines(tmp_path / "bins.tsv", ["a\t0\t100"])
        errors = []
        for argv in (["test", "--bin-end", "100"], ["batch", "--bins", bins]):
            code = run_cli(*argv, "--points", points, "--segments", segments, "--samples", "10")
            assert code == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == f"error: {points}: {message}\n"

    def test_non_utf8_file_is_an_error_line(self, tmp_path, capsys):
        points = tmp_path / "p.tsv"
        points.write_bytes(b"10\n\xff\n")
        segments = write_lines(tmp_path / "s.tsv", ["0\t50"])
        code = run_cli("test", "--points", str(points), "--segments", segments,
                       "--bin-end", "100", "--samples", "10")
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {points}: line 2: not UTF-8: byte 0xff at offset 3: invalid start byte\n")


@pytest.mark.parametrize("command,bad", [("batch", "segments"), ("batch", "bins"),
                                         ("qvalue", "input")])
def test_non_utf8_input_names_its_file(tmp_path, capsys, command, bad):
    """Of several input files, the error names the one that is not UTF-8."""
    files = {
        "bins": write_lines(tmp_path / "bins.tsv", ["a\t0\t100"]),
        "points": write_lines(tmp_path / "p.tsv", ["10", "60"]),
        "segments": write_lines(tmp_path / "s.tsv", ["0\t50"]),
        "input": write_lines(tmp_path / "t.tsv", ["bin_id\tp_value", "a\t0.5"]),
    }
    text = Path(files[bad]).read_bytes()
    Path(files[bad]).write_bytes(text + b"# \xc3(\n")
    flags = ("input",) if command == "qvalue" else ("bins", "points", "segments")
    argv = [arg for flag in flags for arg in (f"--{flag}", files[flag])]
    assert run_cli(command, *argv) == 1
    line = text.count(b"\n") + 1
    assert capsys.readouterr().err == (
        f"error: {files[bad]}: line {line}: not UTF-8: "
        f"byte 0xc3 at offset {len(text) + 2}: invalid continuation byte\n")


class TestOutOfRangeCoordinate:
    """A coordinate beyond int64 is a format error with its line, not a traceback."""

    HUGE = "99999999999999999999"

    @pytest.mark.parametrize("bad", ["points", "segments", "bins"])
    def test_rejected_with_line(self, tmp_path, capsys, bad):
        rows = {
            "points": ["5", self.HUGE],
            "segments": ["0\t50", f"60\t{self.HUGE}"],
            "bins": ["a\t0\t100", f"b\t100\t{self.HUGE}"],
        }
        defaults = {"points": ["5", "150"], "segments": ["0\t50"], "bins": ["a\t0\t100"]}
        files = {
            kind: write_lines(tmp_path / f"{kind}.tsv", (rows if kind == bad else defaults)[kind])
            for kind in ("points", "segments", "bins")
        }
        if bad == "points":
            argv = ["test", "--bin-end", "200"]
        else:
            argv = ["batch", "--bins", files["bins"]]
        code = run_cli(*argv, "--points", files["points"], "--segments", files["segments"],
                       "--samples", "10")
        assert code == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {files[bad]}: line 2: coordinate out of range (outside int64): "
            f"{self.HUGE!r}\n"
        )

class TestQvalueCommand:
    def test_appends_qvalues_and_flags(self, tmp_path):
        table = write_lines(tmp_path / "p.tsv", [
            "bin_id\tp_value", "a\t0.01", "b\t0.02", "c\t0.9",
        ])
        out = tmp_path / "q.tsv"
        code = run_cli("qvalue", "--input", table, "--pi0", "1.0", "--fdr", "0.1",
                       "--out", str(out))
        assert code == 0
        rows = [l.split("\t") for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == ["bin_id", "p_value", "q_value", "rejected"]
        assert [r[2] for r in rows[1:]] == ["0.03", "0.03", "0.9"]
        assert [r[3] for r in rows[1:]] == ["1", "1", "0"]

    def test_missing_column_fails(self, tmp_path, capsys):
        table = write_lines(tmp_path / "p.tsv", ["x\ty", "1\t2"])
        assert run_cli("qvalue", "--input", table) == 1
        assert "not found" in capsys.readouterr().err

    def test_short_row_fails(self, tmp_path, capsys):
        table = write_lines(tmp_path / "p.tsv", ["bin_id\tp_value", "a\t0.1", "b"])
        assert run_cli("qvalue", "--input", table) == 1
        assert capsys.readouterr().err == f"error: {table}: line 3: expected 2 columns, got 1\n"

    @pytest.mark.parametrize("pi0", [[], ["--pi0", "0.5"]], ids=["estimated", "given"])
    def test_nan_pvalue_fails(self, tmp_path, capsys, pi0):
        table = write_lines(tmp_path / "p.tsv", ["bin_id\tp_value", "a\t0.1", "b\tnan"])
        out = tmp_path / "q.tsv"
        assert run_cli("qvalue", "--input", table, *pi0, "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {table}: line 3: expected a p-value in [0, 1], got 'nan'\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1.5", "-0.01", "inf"])
    def test_out_of_range_pvalue_names_its_line(self, tmp_path, capsys, value):
        table = write_lines(tmp_path / "p.tsv", ["bin_id\tp_value", "a\t0.1", f"b\t{value}",
                                                 "c\t0.2"])
        out = tmp_path / "q.tsv"
        assert run_cli("qvalue", "--input", table, "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: {table}: line 3: expected a p-value in [0, 1], got '{value}'\n")
        assert not out.exists()

    def test_all_zero_pvalues(self, tmp_path):
        # What `test --estimator raw` writes when no sample reaches the statistic.
        table = write_lines(tmp_path / "p.tsv", ["bin_id\tp_value", "a\t0", "b\t0"])
        out = tmp_path / "q.tsv"
        assert run_cli("qvalue", "--input", table, "--fdr", "0.1", "--out", str(out)) == 0
        rows = [l.split("\t") for l in out.read_text().splitlines() if not l.startswith("#")]
        assert [(r[2], r[3]) for r in rows[1:]] == [("0", "1"), ("0", "1")]
        assert run_cli("qvalue", "--input", table, "--pi0", "0") == 1

    def test_non_numeric_pvalue_fails(self, tmp_path, capsys):
        table = write_lines(tmp_path / "p.tsv", ["# seed=1", "bin_id\tp_value", "a\tlow"])
        assert run_cli("qvalue", "--input", table) == 1
        assert capsys.readouterr().err == (
            f"error: {table}: line 3: expected a p-value, got 'low'\n")


class TestRipleyCommand:
    def test_profile_output(self, tmp_path):
        points = write_lines(tmp_path / "p.tsv", ["10", "11", "12", "40", "41", "80"])
        out = tmp_path / "rip.tsv"
        code = run_cli("ripley", "--points", points, "--bin-end", "100",
                       "--scales", "5,10", "--out", str(out))
        assert code == 0
        rows = [l.split("\t") for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == ["bin_id", "tau", "k_hat", "l_hat"]
        assert [r[1] for r in rows[1:]] == ["5", "10"]
        for r in rows[1:]:
            assert float(r[2]) == pytest.approx(float(r[3]) * 2 * int(r[1]))

    def test_too_few_points_fails(self, tmp_path, capsys):
        points = write_lines(tmp_path / "p.tsv", ["10"])
        assert run_cli("ripley", "--points", points, "--bin-end", "100") == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("scales,echo", [
        (None, "10,25,50,100,250,500"),
        ("10,100,500", "10,100,500"),
        (" 5, 10,", "5,10"),
        ("5,\n10", "5,10"),
    ])
    def test_parsed_scales_are_echoed(self, tmp_path, scales, echo):
        points = write_lines(tmp_path / "p.tsv", ["10", "11", "12", "40", "41", "80", "600"])
        out = tmp_path / "rip.tsv"
        extra = () if scales is None else ("--scales", scales)
        assert run_cli("ripley", "--points", points, "--bin-end", "1000", *extra,
                       "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert f"# scales={echo}" in lines
        rows = [l for l in lines if not l.startswith("#")]
        assert rows[0] == "bin_id\ttau\tk_hat\tl_hat"
        assert [r.split("\t")[1] for r in rows[1:]] == echo.split(",")

    @pytest.mark.parametrize("scales,message", [
        ("", "need at least one integer, got ''"),
        (", ,", "need at least one integer, got ', ,'"),
        ("5,x", "invalid int list: '5,x'"),
    ])
    def test_bad_scales_rejected(self, tmp_path, capsys, scales, message):
        points = write_lines(tmp_path / "p.tsv", ["10", "11", "12"])
        out = tmp_path / "rip.tsv"
        with pytest.raises(SystemExit) as exc:
            run_cli("ripley", "--points", points, "--bin-end", "100", "--scales", scales,
                    "--out", str(out))
        assert exc.value.code == 2
        assert f"argument --scales: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCommand:
    def test_points_round_trip(self, tmp_path):
        out = tmp_path / "sim.tsv"
        code = run_cli("simulate", "points", "--bin-length", "5000", "--mode", "clustered",
                       "--seed", "3", "--out", str(out))
        assert code == 0
        assert out.read_text().startswith(
            "# command=simulate\n# kind=points\n# bin_length=5000\n# mode=clustered\n# seed=3\n")
        code = run_cli("test", "--points", str(out), "--segments",
                       write_lines(tmp_path / "s.tsv", ["0\t1000"]),
                       "--bin-end", "5000", "--samples", "50")
        assert code == 0

    def test_segments_loadable(self, tmp_path):
        out = tmp_path / "segs.tsv"
        code = run_cli("simulate", "segments", "--bin-length", "5000", "--clustered",
                       "--seed", "4", "--out", str(out))
        assert code == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert all(len(l.split("\t")) == 2 for l in body)

    def test_same_seed_same_bytes(self, tmp_path):
        outs = []
        for name in ("s1.tsv", "s2.tsv"):
            out = tmp_path / name
            run_cli("simulate", "points", "--bin-length", "3000", "--seed", "8",
                    "--out", str(out))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("message", ["Unable to allocate 74.5 GiB", ""])
    def test_out_of_memory_is_an_error_line(self, tmp_path, capsys, monkeypatch, message):
        # A real allocation this large would take the machine's memory.
        def exhaust(*args):
            raise MemoryError(message) if message else MemoryError

        monkeypatch.setattr(trackmc.cli, "generate_points", exhaust)
        out = tmp_path / "sim.tsv"
        assert run_cli("simulate", "points", "--bin-length", "5000", "--out", str(out)) == 1
        err = capsys.readouterr().err
        expected = f"error: out of memory: {message}" if message else "error: out of memory"
        assert err == expected + "\n"
        assert not out.exists()


class TestStudyAndOrderingCommands:
    def test_study_workers_byte_identical(self, tmp_path):
        outs = []
        for w, name in ((1, "st1.tsv"), (2, "st2.tsv")):
            out = tmp_path / name
            code = run_cli("study", "--replicates", "4", "--bin-length", "8000",
                           "--samples", "60", "--seed", "6", "--workers", str(w),
                           "--out", str(out))
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        text = outs[0].decode()
        assert "assumption\tuniform\tclustered-points\tclustered-segments" in text

    def test_ordering_with_deciles(self, tmp_path):
        out = tmp_path / "ord.tsv"
        dec = tmp_path / "dec.tsv"
        code = run_cli("ordering", "--replicates", "4", "--bin-length", "8000",
                       "--samples", "60", "--seed", "6", "--cluster-segments",
                       "--out", str(out), "--deciles-out", str(dec))
        assert code == 0
        assert "preserve-intersegment" in out.read_text()
        dec_rows = [l for l in dec.read_text().splitlines() if not l.startswith("#")]
        assert len(dec_rows) == 1 + 9

    @pytest.mark.parametrize("flag, value", [((), "0"), (("--cluster-segments",), "1")])
    def test_ordering_header_names_the_segment_generator(self, tmp_path, flag, value):
        out, dec = tmp_path / "ord.tsv", tmp_path / "dec.tsv"
        assert run_cli("ordering", *SMALL_STUDY_ARGS, "--seed", "3", *flag,
                       "--out", str(out), "--deciles-out", str(dec)) == 0
        for path in (out, dec):
            header = [l for l in path.read_text().splitlines() if l.startswith("#")]
            assert header == ["# command=ordering", "# replicates=1", "# bin_length=5000",
                              "# samples=20", f"# cluster_segments={value}", "# seed=3"]


SMALL_STUDY_ARGS = ("--replicates", "1", "--bin-length", "5000", "--samples", "20")


_HUGE = TestOutOfRangeCoordinate.HUGE
# Each command with valid settings; the files it names are never read.
_VALID = {
    "test": ("test", "--points", "p.tsv", "--segments", "s.tsv", "--bin-end", "1000"),
    "batch": ("batch", "--bins", "b.tsv", "--points", "p.tsv", "--segments", "s.tsv"),
    "qvalue": ("qvalue", "--input", "q.tsv"),
    "ripley": ("ripley", "--points", "p.tsv", "--bin-end", "1000"),
    "simulate": ("simulate", "points", "--bin-length", "1000"),
    "study": ("study", *SMALL_STUDY_ARGS),
    "ordering": ("ordering", *SMALL_STUDY_ARGS),
}
# (command, the flags that make it bad, exit code, last stderr line).
_BAD_SETTINGS = [
    *((command, ("--null-model", model), 1, f"error: {message}")
      for command in ("test", "batch") for model, message in _BAD_MODELS),
    *((command, ("--samples", "0"), 1, "error: n_samples must be >= 1, got 0")
      for command in ("test", "batch", "study", "ordering")),
    ("study", ("--fdr", "1.5"), 1, "error: FDR threshold must lie in (0, 1), got 1.5"),
    ("study", ("--fdr", "0"), 1, "error: FDR threshold must lie in (0, 1), got 0.0"),
    ("qvalue", ("--fdr", "1.5"), 1, "error: FDR threshold must lie in (0, 1), got 1.5"),
    ("qvalue", ("--pi0", "0"), 1, "error: pi0 must lie in (0, 1], got 0.0"),
    ("qvalue", ("--pi0", "1.5"), 1, "error: pi0 must lie in (0, 1], got 1.5"),
    # Written as is, the id would split its row, read back as a comment, or
    # (stripped on reading back) rename the row in qvalue and move the bin to
    # another seed stream in batch.
    *((command, ("--bin-id", bin_id), 1, f"error: bin {bin_id!r}: id must not {rule}")
      for command, bin_id, rule in [
          ("test", "a\tb", "contain a tab or line break"),
          ("ripley", "a\nb", "contain a tab or line break"),
          ("test", "#a", "start with '#'"),
          ("ripley", " #a", "start with '#'"),
          ("test", "chr1 ", "start or end with whitespace"),
          ("ripley", " chr1", "start or end with whitespace")]),
    # Flags do not pass the readers' int64 check, so the bin itself rejects them.
    ("test", ("--bin-end", _HUGE), 1,
     f"error: bin 'bin': coordinates must fit in int64, got [0, {_HUGE})"),
    ("simulate", ("--bin-length", _HUGE), 1,
     f"error: bin 'sim': coordinates must fit in int64, got [0, {_HUGE})"),
    *(("batch", (flag, "-3"), 2,
       f"trackmc batch: error: argument {flag}: must be at least 0, got -3")
      for flag in ("--min-points", "--min-segments")),
]


@pytest.mark.parametrize("command, flags, code, line", [
    pytest.param(*row, id=" ".join(row[:1] + row[1])) for row in _BAD_SETTINGS])
def test_bad_setting_fails_before_any_work(tmp_path, capsys, monkeypatch, command, flags, code,
                                           line):
    # Every input read goes through tracks._text, and every generated track
    # through one of the two generators.
    def no_work(*args):
        raise AssertionError("work began before every setting was checked")

    monkeypatch.setattr(trackmc.tracks, "_text", no_work)
    for module in (trackmc.cli, trackmc.study):
        monkeypatch.setattr(module, "generate_points", no_work)
        monkeypatch.setattr(module, "generate_segments", no_work)
    monkeypatch.chdir(tmp_path)
    try:
        exit_code = run_cli(*_VALID[command], *flags, "--out", "out.tsv")
    except SystemExit as exc:  # argparse's errors
        exit_code = exc.code
    assert exit_code == code
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == line and (len(err) == 1 or code == 2)  # argparse's usage lines come first
    assert not any(tmp_path.iterdir())


class TestFailedTestText:
    """What each command prints when a null model cannot resample its tracks."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command, message", [
        ("study", "clustered-segments-0001: distance-preserving resample needs at least one "
                  "point"),
        ("ordering", "ordering-0002: distance-preserving resample needs at least one segment"),
    ])
    def test_experiment_error_names_the_replicate(self, tmp_path, capsys, command, message,
                                                  workers):
        # 101 bp bins leave some replicates without points or segments.
        out = tmp_path / "out.tsv"
        assert run_cli(command, "--bin-length", "101", "--replicates", "3", "--samples", "5",
                       "--workers", workers, "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("model, points, segments, side", [
        ("preserve-interpoint", ["# no points"], ["0\t40"], "point"),
        ("preserve-intersegment", ["10", "25"], ["# no segments"], "segment"),
    ])
    def test_single_test_error_is_unprefixed(self, tmp_path, capsys, model, points, segments,
                                             side):
        out = tmp_path / "out.tsv"
        assert run_cli("test", "--points", write_lines(tmp_path / "p.tsv", points),
                       "--segments", write_lines(tmp_path / "s.tsv", segments),
                       "--bin-end", "200", "--null-model", model, "--samples", "10",
                       "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: distance-preserving resample needs at least one {side}\n")
        assert not out.exists()

    def test_batch_warns_and_writes_the_other_bins(self, tmp_path, capsys):
        bins = write_lines(tmp_path / "bins.tsv", ["a\t0\t100", "b\t100\t200", "c\t200\t300"])
        points = write_lines(tmp_path / "p.tsv", ["5", "10", "215", "250"])  # none in b
        segments = write_lines(tmp_path / "s.tsv", ["0\t50", "120\t180", "210\t260"])
        out = tmp_path / "out.tsv"
        assert run_cli("batch", "--bins", bins, "--points", points, "--segments", segments,
                       "--null-model", "preserve-interpoint", "--samples", "10",
                       "--min-points", "0", "--out", str(out)) == 0
        assert capsys.readouterr().err == (
            "warning: b: distance-preserving resample needs at least one point\n")
        lines = out.read_text().splitlines()
        assert "# bins_tested=3" in lines
        assert [l.split("\t")[0] for l in lines if not l.startswith("#")] == ["bin_id", "a", "c"]


def test_bug_in_a_test_stops_batch(tmp_path, capsys, monkeypatch):
    # A TypeError is a bug, not a bin its null model cannot resample: it
    # propagates out of main, with no warning line and no output.
    real = trackmc.mc.run_mc_test

    def buggy(points, segments, spec, cfg):
        if points.bin.id == "b":
            raise TypeError("a bug, not a failed bin")
        return real(points, segments, spec, cfg)

    monkeypatch.setattr(trackmc.mc, "run_mc_test", buggy)
    bins = write_lines(tmp_path / "bins.tsv", ["a\t0\t100", "b\t100\t200", "c\t200\t300"])
    points = write_lines(tmp_path / "p.tsv", ["5", "10", "150", "215", "250"])
    segments = write_lines(tmp_path / "s.tsv", ["0\t50", "120\t180", "210\t260"])
    out = tmp_path / "out.tsv"
    with pytest.raises(TypeError, match="a bug, not a failed bin"):
        run_cli("batch", "--bins", bins, "--points", points, "--segments", segments,
                "--samples", "10", "--out", str(out))
    assert "warning:" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["batch", "study", "ordering"])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_rejected(tmp_path, capsys, command, workers):
    if command == "batch":
        base = ("batch", "--bins", write_lines(tmp_path / "bins.tsv", ["a\t0\t100"]),
                "--points", write_lines(tmp_path / "p.tsv", ["5", "50"]),
                "--segments", write_lines(tmp_path / "s.tsv", ["0\t50"]), "--samples", "20")
    else:
        base = (command, *SMALL_STUDY_ARGS)
    out = tmp_path / "out.tsv"
    with pytest.raises(SystemExit) as exc:
        run_cli(*base, "--workers", workers, "--out", str(out))
    assert exc.value.code == 2
    assert f"argument --workers: must be at least 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()


def _case_id(argv):
    return argv[1] if argv[0] == "simulate" else argv[0]


class TestEveryFlagIsRead:
    """A flag the command would not read is an error, and every flag it
    accepts changes the data it writes."""

    @pytest.mark.parametrize("base, flag", [
        (("study", *SMALL_STUDY_ARGS), ("--cluster-segments",)),
        (("ordering", *SMALL_STUDY_ARGS), ("--fdr", "0.05")),
        (("simulate", "points", "--bin-length", "5000"), ("--gap-lambda", "0.02")),
        (("simulate", "points", "--bin-length", "5000"), ("--length-min", "20")),
        (("simulate", "points", "--bin-length", "5000"), ("--length-max", "150")),
        (("simulate", "points", "--bin-length", "5000"), ("--clustered",)),
        (("simulate", "segments", "--bin-length", "5000"), ("--mode", "clustered")),
        (("simulate", "segments", "--bin-length", "5000"), ("--lambda-inter", "0.02")),
        (("simulate", "points", "--bin-length", "5000"), ("--bin-id", "other")),
        (("simulate", "segments", "--bin-length", "5000"), ("--bin-id", "other")),
    ], ids=_case_id)
    def test_unread_flag_rejected(self, tmp_path, capsys, base, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli(*base, *flag, "--out", str(tmp_path / "out.tsv"))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["points", "segments"])
    @pytest.mark.parametrize("flag", [("--lambda-intra", "0.2"), ("--new-cluster-prob", "0.6")],
                             ids=lambda flag: flag[0])
    def test_cluster_flag_without_clustering_rejected(self, tmp_path, capsys, kind, flag):
        out = tmp_path / "out.tsv"
        assert run_cli("simulate", kind, "--bin-length", "5000", *flag, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "lambda_intra" in err and "new_cluster_prob" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["points", "segments"])
    def test_default_cluster_flags_without_clustering_accepted(self, tmp_path, kind):
        rows = []
        for name, extra in (("default.tsv", ()),
                            ("explicit.tsv", ("--lambda-intra", "0.1", "--new-cluster-prob", "0.3"))):
            out = tmp_path / name
            assert run_cli("simulate", kind, "--bin-length", "5000", *extra, "--out", str(out)) == 0
            rows.append(out.read_bytes())
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("base, flag", [
        (("simulate", "points"), ("--mode", "clustered")),
        (("simulate", "points"), ("--lambda-inter", "0.02")),
        (("simulate", "points", "--mode", "clustered"), ("--lambda-intra", "0.2")),
        (("simulate", "points", "--mode", "clustered"), ("--new-cluster-prob", "0.6")),
        (("simulate", "segments"), ("--gap-lambda", "0.02")),
        (("simulate", "segments"), ("--length-min", "20")),
        (("simulate", "segments"), ("--length-max", "150")),
        (("simulate", "segments"), ("--clustered",)),
        (("simulate", "segments", "--clustered"), ("--lambda-intra", "0.2")),
        (("simulate", "segments", "--clustered"), ("--new-cluster-prob", "0.6")),
        (("ordering", "--replicates", "3", "--bin-length", "8000", "--samples", "40"),
         ("--cluster-segments",)),
    ], ids=_case_id)
    def test_accepted_flag_changes_rows(self, tmp_path, base, flag):
        if base[0] == "simulate":
            base = (*base, "--bin-length", "5000", "--seed", "2")
        rows = []
        for name, extra in (("default.tsv", ()), ("flag.tsv", flag)):
            out = tmp_path / name
            assert run_cli(*base, *extra, "--out", str(out)) == 0
            rows.append([l for l in out.read_text().splitlines() if not l.startswith("#")])
        assert len(rows[0]) > 1
        assert rows[0] != rows[1]


_PARSER_PATHS = [(name,) for name in _COMMANDS] + [("simulate", "points"), ("simulate", "segments")]


def _subparser(parser, path):
    """The parser of the subcommand path, e.g. ("simulate", "points")."""
    for name in path:
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = action.choices[name]
    return parser


class TestPerCommandParser:
    """main builds only the invoked subcommand's arguments; help and
    error text stay those of the full parser."""

    @pytest.mark.parametrize("path", _PARSER_PATHS, ids=" ".join)
    def test_same_help(self, path):
        full, own = build_parser(), build_parser(path[0])
        assert own.format_help() == full.format_help()
        assert _subparser(own, path).format_help() == _subparser(full, path).format_help()

    @pytest.mark.parametrize("path", _PARSER_PATHS, ids=" ".join)
    def test_same_error(self, path, capsys):
        argv = [*path, "--no-such-flag"]
        outcomes = []
        for parse in (main, build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            outcomes.append((exc.value.code, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 2 and outcomes[0][1].startswith("usage: trackmc")


_MC, _STUDY = MCConfig(n_samples=1), StudyConfig()
# Arguments each path needs besides the flag under test.
_REQUIRED = {
    ("test",): ("--points", "p.tsv", "--segments", "s.tsv", "--bin-end", "100"),
    ("batch",): ("--bins", "b.tsv", "--points", "p.tsv", "--segments", "s.tsv"),
    ("simulate", "points"): ("--bin-length", "100"),
    ("simulate", "segments"): ("--bin-length", "100"),
}


@pytest.mark.parametrize("path, dest, default", [
    *(((command,), dest, default) for command in ("test", "batch")
      for dest, default in (("seed", _MC.master_seed), ("direction", _MC.direction.value),
                            ("estimator", _MC.estimator_mode.value))),
    (("simulate", "points"), "lambda_inter", PointGenConfig().lambda_inter),
    (("simulate", "segments"), "gap_lambda", SegmentGenConfig().gap_lambda),
    (("simulate", "segments"), "length_min", SegmentGenConfig().length_min),
    (("simulate", "segments"), "length_max", SegmentGenConfig().length_max),
    *(((command,), dest, default) for command in ("study", "ordering")
      for dest, default in (("replicates", _STUDY.n_replicates),
                            ("bin_length", _STUDY.bin_length),
                            ("samples", _STUDY.mc_samples), ("seed", _STUDY.master_seed))),
    (("study",), "fdr", STUDY_FDR),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else None)
def test_shared_flag_defaults_to_its_library_setting(path, dest, default):
    # A flag that sets a library setting parses, when left out, to the
    # default of that setting's config.
    args = build_parser(path[0]).parse_args([*path, *_REQUIRED.get(path, ())])
    value = getattr(args, dest)
    assert (value, type(value)) == (default, type(default))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_cli_import_loads_no_process_pool():
    # map_jobs imports the pool only when it starts one, so a call that
    # runs in-process never pays for loading multiprocessing.
    package = Path(trackmc.__file__).resolve().parent
    code = (
        "import sys, trackmc.cli\n"
        "loaded = sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: importing the package and running a
    # study (whose analytic row needs the binomial tail) must not load it.
    package = Path(trackmc.__file__).resolve().parent
    code = (
        "import sys, trackmc, trackmc.cli\n"
        "code = trackmc.cli.main(['study', '--replicates', '1', '--bin-length', '5000',"
        " '--samples', '20', '--workers', '1', '--out', sys.argv[1]])\n"
        "assert code == 0, code\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "study.tsv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "study.tsv").read_text().count("\n") > 1
    for source in package.glob("*.py"):
        assert not re.search(r"^\s*(import|from)\s+scipy\b", source.read_text(), re.M), source
