"""Check that trackmc's CLI writes the same bytes as at a git revision.

Usage: python3 tools/cli_bytes.py REV

Extracts ``src/`` at REV with ``git archive`` into a temporary directory,
then runs one fixed list of CLI calls under that tree and under this
checkout's ``src/``, each call in a fresh interpreter, on the synthetic
genome of ``perfbench/genome.py`` for seeds 1 and 2; the calls include
``--help`` of trackmc and of every subcommand, clustered ``simulate``
calls that set ``--lambda-intra`` and ``--new-cluster-prob``, and ``test``
calls on a 2 Mb bin too long for the count kernels' lookup tables, so that
both kernels count by binary search, one call with ``--direction less``.
After the valid calls come a few invalid ones (``invalid_calls``), one per
kind of bad setting, each of which is meant to exit non-zero. Every output
file, exit code, stdout and stderr is compared; each difference is printed
with the first line that differs, under both trees, and the exit status is
1 if there is any, or if any valid call fails, else 0.

A change that must alter outputs (a new seed contract, a new header line)
shows here as a difference to explain, not to hide.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from genome import MIN_POINTS, MIN_SEGMENTS, make_genome, write_genome  # noqa: E402

SEEDS = (1, 2)
MODELS = ("uniform-points", "preserve-interpoint", "uniform-segments",
          "preserve-intersegment", "block:100")
# Copies that exercise the readers, each made from its source file as soon
# as that exists (the p-value table is an output): CRLF line ends behind a
# '#' line, or one field padded with a space in the middle row, a row the
# track readers' vectorized check refuses and parses on its own.
VARIANTS = {
    "points_crlf.tsv": ("points.tsv", "\r\n"),
    "bins_crlf.tsv": ("bins.tsv", "\r\n"),
    "batch0_crlf.tsv": ("batch0.tsv", "\r\n"),
    "points_padded.tsv": ("points.tsv", "\n"),
    "segments_padded.tsv": ("segments.tsv", "\n"),
}
COMMANDS = (("test",), ("batch",), ("qvalue",), ("ripley",), ("simulate",),
            ("simulate", "points"), ("simulate", "segments"), ("study",), ("ordering",))
INPUTS = ("bins.tsv", "points.tsv", "segments.tsv", *VARIANTS)


def write_variants(rundir: Path) -> None:
    """Write each copy of ``VARIANTS`` whose source is in ``rundir`` and it is not."""
    for name, (source, end) in VARIANTS.items():
        if (rundir / name).exists() or not (rundir / source).exists():
            continue
        rows = (rundir / source).read_text().splitlines()
        if end == "\r\n":
            rows.insert(0, f"# {source.removesuffix('.tsv')}, CRLF line ends")
        else:
            rows[len(rows) // 2] += " "
        (rundir / name).write_bytes("".join(row + end for row in rows).encode())


def calls(seed: int, genome_length: int) -> list[list[str]]:
    """The CLI calls of one seed; each writes its output to its own file."""
    s = str(seed)
    whole = ["--points", "points.tsv", "--bin-start", "0", "--bin-end", str(genome_length)]
    out: list[list[str]] = []
    for i, model in enumerate(MODELS):
        out.append(["batch", "--bins", "bins.tsv", "--points", "points.tsv",
                    "--segments", "segments.tsv", "--null-model", model,
                    "--min-points", str(MIN_POINTS), "--min-segments", str(MIN_SEGMENTS),
                    "--samples", "100", "--seed", s, "--out", f"batch{i}.tsv"])
        out.append(["qvalue", "--input", f"batch{i}.tsv", "--fdr", "0.1",
                    "--out", f"qvalue{i}.tsv"])
        for direction, estimator in (("greater", "add-one"), ("two-sided", "raw")):
            out.append(["test", *whole, "--segments", "segments.tsv", "--null-model", model,
                        "--samples", "100", "--seed", s, "--direction", direction,
                        "--estimator", estimator, "--out", f"test{i}_{direction}.tsv"])
    # Two workers allowed: the first batch is too small for the pool and runs
    # in-process, the second (1000 preserve-interpoint samples per bin) pools.
    for model, samples in (("uniform-points", "100"), ("preserve-interpoint", "1000")):
        out.append(["batch", "--bins", "bins.tsv", "--points", "points.tsv",
                    "--segments", "segments.tsv", "--null-model", model,
                    "--min-points", str(MIN_POINTS), "--min-segments", str(MIN_SEGMENTS),
                    "--samples", samples, "--seed", s, "--workers", "2",
                    "--out", f"batch_w2_{samples}.tsv"])
    out += [
        ["qvalue", "--input", "batch0.tsv", "--out", "qvalue_plain.tsv"],
        ["qvalue", "--input", "batch1.tsv", "--pi0", "0.5", "--fdr", "0.2",
         "--out", "qvalue_pi0.tsv"],
        ["ripley", *whole, "--scales", "10,100,500", "--out", "ripley.tsv"],
        ["ripley", *whole, "--out", "ripley_default.tsv"],
        ["study", "--replicates", "2", "--bin-length", "20000", "--samples", "100",
         "--fdr", "0.3", "--seed", s, "--out", "study.tsv"],
        ["ordering", "--cluster-segments", "--replicates", "3", "--bin-length", "20000",
         "--samples", "100", "--seed", s, "--out", "ordering.tsv",
         "--deciles-out", "deciles.tsv"],
        # Both generators of ordering's segments, and a study allowed two
        # workers whose batch is too small for the pool, so it runs in-process.
        ["ordering", "--replicates", "3", "--bin-length", "20000", "--samples", "100",
         "--seed", s, "--out", "ordering_plain.tsv"],
        ["study", "--replicates", "2", "--bin-length", "20000", "--samples", "100",
         "--fdr", "0.3", "--seed", s, "--workers", "2", "--out", "study_w2.tsv"],
        # The benchmark's scale: 100 kb bins and 16 chunks per test. Each is
        # run in-process and with two workers, on the pool: their batches
        # are about 12 (study) and 9 (ordering) million sampled elements,
        # over the 2 million at which the pool starts.
        ["study", "--replicates", "1", "--samples", "1000", "--seed", s,
         "--out", "study_full.tsv"],
        ["study", "--replicates", "1", "--samples", "1000", "--seed", s,
         "--workers", "2", "--out", "study_full_w2.tsv"],
        ["ordering", "--cluster-segments", "--replicates", "1", "--samples", "1000",
         "--seed", s, "--out", "ordering_full.tsv"],
        ["ordering", "--cluster-segments", "--replicates", "1", "--samples", "1000",
         "--seed", s, "--workers", "2", "--out", "ordering_full_w2.tsv"],
        ["simulate", "points", "--bin-length", "20000", "--mode", "clustered",
         "--lambda-inter", "0.02", "--seed", s, "--out", "sim_points.tsv"],
        ["simulate", "segments", "--bin-length", "20000", "--clustered",
         "--gap-lambda", "0.02", "--seed", s, "--out", "sim_segments.tsv"],
        # The two cluster settings, which only clustered generation accepts.
        *(["simulate", kind, "--bin-length", "20000", *clustered, "--lambda-intra", "0.2",
           "--new-cluster-prob", "0.6", "--seed", s, "--out", f"sim_{kind}_cluster.tsv"]
          for kind, clustered in (("points", ("--mode", "clustered")),
                                  ("segments", ("--clustered",)))),
        # A sparse 200 kb bin at 1,000 samples: about 1,000 points and 480
        # segments. Each test builds its coverage mask or prefix count once,
        # and its 15 full 64-row chunks and its last 40-row chunk read it.
        ["simulate", "points", "--bin-length", "200000", "--lambda-inter", "0.005",
         "--seed", s, "--out", "sparse_points.tsv"],
        ["simulate", "segments", "--bin-length", "200000", "--gap-lambda", "0.0025",
         "--seed", s, "--out", "sparse_segments.tsv"],
        *(["test", "--points", "sparse_points.tsv", "--segments", "sparse_segments.tsv",
           "--bin-end", "200000", "--null-model", model, "--samples", "1000", "--seed", s,
           "--out", f"sparse_test{i}.tsv"]
          for i, model in enumerate(("preserve-interpoint", "preserve-intersegment"))),
        # A 2 Mb bin with about as many points and segments is too long for
        # a table, so both counters binary-search, one test with --direction less.
        ["simulate", "points", "--bin-length", "2000000", "--lambda-inter", "0.0005",
         "--seed", s, "--out", "long_points.tsv"],
        ["simulate", "segments", "--bin-length", "2000000", "--gap-lambda", "0.00025",
         "--seed", s, "--out", "long_segments.tsv"],
        *(["test", "--points", "long_points.tsv", "--segments", "long_segments.tsv",
           "--bin-end", "2000000", "--null-model", model, "--samples", "200", "--seed", s,
           "--direction", direction, "--out", f"long_test{i}.tsv"]
          for i, (model, direction) in enumerate((("preserve-interpoint", "greater"),
                                                  ("preserve-intersegment", "less")))),
        # simulate's own outputs read back: 1-column points behind '#' lines.
        ["test", "--points", "sim_points.tsv", "--segments", "sim_segments.tsv",
         "--bin-end", "20000", "--seed", s, "--out", "sim_test.tsv"],
        ["ripley", "--points", "sim_points.tsv", "--bin-end", "20000",
         "--out", "sim_ripley.tsv"],
    ]
    # Help text: each call exits 0 and writes it to stdout.
    out.append(["--help"])
    out += [[*command, "--help"] for command in COMMANDS]
    for name in ("points_crlf.tsv", "points_padded.tsv", "segments_padded.tsv"):
        stem = name.removesuffix(".tsv")
        is_points = name.startswith("points")
        points, segments = (name, "segments.tsv") if is_points else ("points.tsv", name)
        if is_points:
            out.append(["ripley", "--points", name, *whole[2:], "--out", f"ripley_{stem}.tsv"])
        out.append(["batch", "--bins", "bins.tsv", "--points", points,
                    "--segments", segments, "--null-model", "uniform-points",
                    "--min-points", str(MIN_POINTS), "--min-segments", str(MIN_SEGMENTS),
                    "--samples", "100", "--seed", s, "--out", f"batch_{stem}.tsv"])
    out += [
        ["batch", "--bins", "bins_crlf.tsv", "--points", "points.tsv",
         "--segments", "segments.tsv", "--null-model", "uniform-points",
         "--min-points", str(MIN_POINTS), "--min-segments", str(MIN_SEGMENTS),
         "--samples", "100", "--seed", s, "--out", "batch_bins_crlf.tsv"],
        ["qvalue", "--input", "batch0_crlf.tsv", "--fdr", "0.1", "--out", "qvalue_crlf.tsv"],
    ]
    return out


def invalid_calls(seed: int, genome_length: int) -> list[list[str]]:
    """One call per kind of bad setting, on the same files as ``calls``."""
    s = str(seed)
    batch = ["batch", "--bins", "bins.tsv", "--points", "points.tsv",
             "--segments", "segments.tsv", "--samples", "100", "--seed", s]
    test = ["test", "--points", "points.tsv", "--segments", "segments.tsv",
            "--bin-end", str(genome_length), "--samples", "100", "--seed", s]
    study = ["--replicates", "2", "--bin-length", "20000", "--samples", "100", "--seed", s]
    return [
        [*test, "--null-model", "blok:100", "--out", "bad_test_model.tsv"],
        [*batch, "--null-model", "block:0", "--out", "bad_batch_model.tsv"],
        [*test, "--samples", "0", "--out", "bad_test_samples.tsv"],
        [*batch, "--samples", "0", "--out", "bad_batch_samples.tsv"],
        ["study", *study, "--samples", "0", "--out", "bad_study_samples.tsv"],
        ["ordering", *study, "--samples", "0", "--out", "bad_ordering_samples.tsv"],
        ["study", *study, "--fdr", "1.5", "--out", "bad_study_fdr.tsv"],
        ["qvalue", "--input", "batch0.tsv", "--fdr", "1.5", "--out", "bad_qvalue_fdr.tsv"],
        ["qvalue", "--input", "batch0.tsv", "--pi0", "0", "--out", "bad_qvalue_pi0.tsv"],
        [*test, "--bin-id", "#a", "--out", "bad_test_bin_id.tsv"],
        ["simulate", "points", "--bin-length", str(2**63), "--out", "bad_sim_length.tsv"],
        [*batch, "--min-points", "-3", "--out", "bad_min_points.tsv"],
        [*batch, "--min-segments", "-3", "--out", "bad_min_segments.tsv"],
    ]


def extract_src(rev: str, dest: Path) -> Path:
    """Extract ``src/`` at git revision ``rev`` under ``dest``; return it."""
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def run_all(src: Path, rundir: Path, argvs: list[list[str]]) -> list[tuple]:
    """(exit code, stdout, stderr) of each call, run in ``rundir``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    results = []
    for argv in argvs:
        write_variants(rundir)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from trackmc.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            cwd=rundir, env=env, capture_output=True,
        )
        results.append((proc.returncode, proc.stdout, proc.stderr))
    return results


def outputs(rundir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(rundir.iterdir()) if p.name not in INPUTS}


def first_difference(old: bytes | None, new: bytes | None) -> tuple[int, bytes, bytes]:
    """The number, from 1, of the first line where two differing outputs
    differ, and that line of each, line end included. A missing output, or
    a line past an output's end, reads as b""."""
    a, b = (x.splitlines(keepends=True) if x else [] for x in (old, new))
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return i + 1, (a[i] if i < len(a) else b""), (b[i] if i < len(b) else b"")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    rev = argv[0]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="cli_bytes_") as tmp:
        tmp = Path(tmp)
        trees = {rev: extract_src(rev, tmp / "rev"), "working tree": ROOT / "src"}
        n_calls = n_diffs = n_failed = 0
        for seed in SEEDS:
            genome = make_genome(seed)
            argvs = calls(seed, genome.length)
            n_valid = len(argvs)
            argvs += invalid_calls(seed, genome.length)
            runs = {}
            for name, src in trees.items():
                rundir = tmp / f"{seed}-{len(runs)}"
                rundir.mkdir()
                write_genome(genome, rundir)
                runs[name] = (run_all(src, rundir, argvs), outputs(rundir))
            (old, old_files), (new, new_files) = runs.values()
            n_calls += len(argvs)
            for name, (results, _) in runs.items():
                for argv, (code, _, err) in zip(argvs[:n_valid], results):
                    if code != 0:
                        n_failed += 1
                        print(f"seed {seed}: {' '.join(argv)}: exit {code} under {name}:\n"
                              f"  {err.decode(errors='replace').strip()}")
            differing = []
            for argv, a, b in zip(argvs, old, new):
                if a[0] != b[0]:
                    n_diffs += 1
                    print(f"seed {seed}: {' '.join(argv)}: exit code differs:\n"
                          f"  {rev}: {a[0]}\n  working tree: {b[0]}")
                differing += [(f"{' '.join(argv)}: {label}", x, y)
                              for label, x, y in zip(("stdout", "stderr"), a[1:], b[1:]) if x != y]
            differing += [(f"output {fname}", old_files.get(fname), new_files.get(fname))
                          for fname in sorted(old_files.keys() | new_files.keys())
                          if old_files.get(fname) != new_files.get(fname)]
            for what, x, y in differing:
                n_diffs += 1
                line, x, y = first_difference(x, y)
                print(f"seed {seed}: {what} differs at line {line}:\n"
                      f"  {rev}: {x!r}\n  working tree: {y!r}")
            print(f"seed {seed}: {len(argvs)} calls ({len(argvs) - n_valid} invalid), "
                  f"{len(new_files)} output files compared")
    verdict = "identical" if n_diffs == 0 else f"{n_diffs} differences"
    print(f"{n_calls} calls against {rev}: {verdict} ({time.perf_counter() - start:.0f} s)")
    if n_failed:
        # A valid call that fails compares nothing.
        print(f"{n_failed} runs exited non-zero, so the comparison is incomplete")
    return 1 if n_diffs or n_failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
