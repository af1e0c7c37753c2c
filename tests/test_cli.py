import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trackmc
from trackmc.cli import main
from testkit import write_lines


def run_cli(*args):
    return main(list(args))


@pytest.fixture
def track_files(tmp_path):
    points = write_lines(tmp_path / "points.tsv", ["10", "25", "26", "90", "140", "141"])
    segments = write_lines(tmp_path / "segments.tsv", ["0\t40", "120\t160"])
    return points, segments


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

    def test_out_of_bin_point_fails(self, tmp_path, capsys):
        points = write_lines(tmp_path / "p.tsv", ["500"])
        segments = write_lines(tmp_path / "s.tsv", ["0\t40"])
        code = run_cli("test", "--points", points, "--segments", segments, "--bin-end", "200")
        assert code == 1
        assert "error:" in capsys.readouterr().err

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

    def test_duplicate_bin_id_fails(self, tmp_path, capsys):
        bins = write_lines(tmp_path / "bins.tsv", ["a\t0\t100", "a\t100\t200"])
        points = write_lines(tmp_path / "p.tsv", ["5", "150"])
        segments = write_lines(tmp_path / "s.tsv", ["0\t50", "120\t180"])
        code = run_cli("batch", "--bins", bins, "--points", points, "--segments", segments)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 2: duplicate bin id 'a'" in err


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
        assert capsys.readouterr().err == "error: p-values must lie in [0, 1]\n"
        assert not out.exists()

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
        assert rows[0] == ["track", "bin_id", "tau", "k_hat", "l_hat"]
        assert [r[2] for r in rows[1:]] == ["5", "10"]
        for r in rows[1:]:
            assert float(r[3]) == pytest.approx(float(r[4]) * 2 * int(r[2]))

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
        assert rows[0] == "track\tbin_id\ttau\tk_hat\tl_hat"
        assert [r.split("\t")[2] for r in rows[1:]] == echo.split(",")

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


@pytest.mark.parametrize("command,bin_id", [("test", "a\tb"), ("ripley", "a\nb")])
def test_bin_id_with_tab_or_line_break_rejected(tmp_path, capsys, command, bin_id):
    # Written as is, the id would add a field to the row or split it.
    points = write_lines(tmp_path / "p.tsv", ["10", "11", "40"])
    inputs = ("--segments", write_lines(tmp_path / "s.tsv", ["0\t20"])) if command == "test" else ()
    out = tmp_path / "out.tsv"
    code = run_cli(command, "--points", points, *inputs, "--bin-id", bin_id, "--bin-end", "1000",
                   "--out", str(out))
    assert code == 1
    assert "id must not contain a tab or line break" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,bin_id", [("test", "#a"), ("ripley", " #a")])
def test_bin_id_starting_with_hash_rejected(tmp_path, capsys, command, bin_id):
    # Written as is, the row would read back as a comment and be dropped.
    points = write_lines(tmp_path / "p.tsv", ["10", "11", "40"])
    inputs = ("--segments", write_lines(tmp_path / "s.tsv", ["0\t20"])) if command == "test" else ()
    out = tmp_path / "out.tsv"
    code = run_cli(command, "--points", points, *inputs, "--bin-id", bin_id, "--bin-end", "1000",
                   "--out", str(out))
    assert code == 1
    assert "id must not start with '#'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,bin_id", [("test", "chr1 "), ("ripley", " chr1")])
def test_bin_id_with_outer_whitespace_rejected(tmp_path, capsys, command, bin_id):
    # Read back, the id would be stripped: qvalue would rename the row, and
    # batch would score the bin on another seed stream.
    points = write_lines(tmp_path / "p.tsv", ["10", "11", "40"])
    inputs = ("--segments", write_lines(tmp_path / "s.tsv", ["0\t20"])) if command == "test" else ()
    out = tmp_path / "out.tsv"
    code = run_cli(command, "--points", points, *inputs, "--bin-id", bin_id, "--bin-end", "1000",
                   "--out", str(out))
    assert code == 1
    assert "id must not start or end with whitespace" in capsys.readouterr().err
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


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
