"""Check that every null model draws the same numbers as at a git revision.

Usage: python3 tools/counts_digest.py REV

Extracts ``src/`` at REV (``cli_bytes.extract_src``), then runs one fixed
list of seeded cases under that tree and under this checkout's ``src/``:
each tree in a fresh interpreter, the two at once. A case is a bin of
30 bp to 200 kb with random points and segments (either may be empty), a
``--null-model`` spelling and a sample count of 1, 37, 130 or 1000. The
spellings are every model, block:1, block:7, block:100, a block longer than
the bin, and bad ones. Each case records what the spelling parses to, or
the parser's error; then ``sample_size``, ``chunk_rows`` and the null counts
of ``mc.null_counts``, or its error; and on bins up to 200 bp also
``resample_track`` on either track (for a ``TypeError`` only its type,
since a wrong track type has no CLI path). The exact state counts are a
test oracle (``tests/reference.py``), not recorded here.

Prints how many cases sampled and how many raised under each tree. On a
difference it names the first case that differs and prints, for each
spelling, how many of its cases differ, so one run shows which models a
change moved and that the others did not move; it then exits 1. It also
exits 1 if a tree fails to run, else 0. A change that must alter sampled
numbers shows here as a difference to explain, not to hide.

``tests/test_mc.py`` runs the first 400 cases through ``run_case`` in
Tier-1 and compares a sha256 of their lines with a committed one, so a
change to how a case is made changes that digest too.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from cli_bytes import ROOT, extract_src

N_CASES = 3200
SEED = 20161
SAMPLES = (1, 37, 130, 1000)
POINT_COUNTS = (0, 1, 2, 5, 30, 300, 1500)
SEGMENT_COUNTS = (0, 1, 3, 20, 200)
SPELLINGS = ("uniform-points", "preserve-interpoint", "uniform-segments",
             "preserve-intersegment", "block:1", "block:7", "block:100",
             " preserve-interpoint ", "block:0", "block:x", "block", "nonsense")


def outcome(fn) -> object:
    """``fn()``, or the error it raised as comparable data."""
    try:
        return fn()
    except ValueError as exc:
        return ("ValueError", str(exc))
    except TypeError:
        return ("TypeError",)


def run_case(i: int) -> str:
    """One tab-separated line: the case number, its spelling and its
    tracks, whether it sampled or raised, and a digest of everything it
    recorded."""
    # Imported here: only the case runners have a trackmc tree on their path.
    import numpy as np
    from trackmc import Bin, MCConfig, PointTrack, SegmentTrack
    from trackmc.mc import null_counts
    from trackmc.null_models import NullModelSpec, chunk_rows, resample_track, sample_size

    def coordinates(track) -> bytes:
        return (track.positions if isinstance(track, PointTrack) else track.segments).tobytes()

    rng = np.random.default_rng([SEED, i])
    length = int(np.exp(rng.uniform(np.log(30), np.log(200_000))))
    start = int(rng.integers(0, 10**6))
    b = Bin(f"c{i}", start, start + length)
    n = min(length, int(rng.choice(POINT_COUNTS)))
    points = PointTrack(b, start + np.sort(rng.choice(length, n, replace=False)))
    k = min((length + 1) // 2, int(rng.choice(SEGMENT_COUNTS)))
    cuts = start + np.sort(rng.choice(length + 1, 2 * k, replace=False))
    segments = SegmentTrack(b, cuts.reshape(k, 2))
    spelling = str(rng.choice([*SPELLINGS, f"block:{length + 1}"]))
    m = int(rng.choice(SAMPLES))
    case = f"case {i}\t{spelling!r}\tL={length} n={n} k={k} samples={m}"

    status, record = "raised", []
    try:
        spec = NullModelSpec.from_string(spelling)
    except ValueError as exc:
        record.append(str(exc))
    else:
        record += [spec.to_string(), sample_size(points, segments, spec),
                   chunk_rows(points, segments, spec)]
        cfg = MCConfig(n_samples=m, master_seed=i)
        counts = outcome(lambda: null_counts(points, segments, spec, cfg).tobytes())
        if isinstance(counts, bytes):
            status = "sampled"
        record.append(counts)
        if length <= 200:
            for track in (points, segments):
                record.append(outcome(lambda: coordinates(resample_track(track, spec, i))))
    digest = hashlib.sha256(repr(record).encode()).hexdigest()[:16]
    return f"{case}\t{status}\t{digest}"


def spelling_of(line: str) -> str:
    """The spelling field of a case line; the block longer than the bin,
    whose spelling names the bin length, as one group."""
    spelling = line.split("\t")[1]
    return spelling if spelling in map(repr, SPELLINGS) else "'block:<L+1>'"


def print_cases(src: str) -> int:
    import trackmc

    if Path(src).resolve() not in Path(trackmc.__file__).resolve().parents:
        print(f"trackmc imported from {trackmc.__file__}, not from {src}", file=sys.stderr)
        return 1
    for i in range(N_CASES):
        print(run_case(i))
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--cases":
        return print_cases(argv[1])
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    rev = argv[0]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="counts_digest_") as tmp:
        tmp = Path(tmp)
        trees = {rev: extract_src(rev, tmp / "rev"), "working tree": ROOT / "src"}
        # Each tree writes to its own files, so neither waits on a pipe.
        runs = []
        for j, (name, src) in enumerate(trees.items()):
            out, err = tmp / f"{j}.out", tmp / f"{j}.err"
            with open(out, "w") as out_file, open(err, "w") as err_file:
                proc = subprocess.Popen(
                    [sys.executable, __file__, "--cases", str(src)],
                    env=dict(os.environ, PYTHONPATH=str(src)), stdout=out_file, stderr=err_file,
                )
            runs.append((name, proc, out, err))
        failed = False
        for name, proc, _, err in runs:
            if proc.wait() != 0:
                failed = True
                print(f"the cases failed under {name}:\n{err.read_text().strip()}")
        if failed:
            return 1
        lines = {name: out.read_text().splitlines() for name, _, out, _ in runs}
    for name, tree_lines in lines.items():
        statuses = [line.split("\t")[3] for line in tree_lines]
        print(f"{name}: {len(statuses)} cases, {statuses.count('sampled')} sampled, "
              f"{statuses.count('raised')} raised")
    old, new = lines.values()
    if len(old) != len(new):
        print(f"{len(old)} cases under {rev}, {len(new)} under the working tree")
        return 1
    differ = [(a, b) for a, b in zip(old, new) if a != b]
    if differ:
        print(f"first difference:\n  {rev}: {differ[0][0]}\n  working tree: {differ[0][1]}")
        cases = Counter(map(spelling_of, old))
        differing = Counter(spelling_of(a) for a, _ in differ)
        for spelling, total in sorted(cases.items()):
            print(f"  {spelling}: {differing[spelling]} of {total} cases differ")
        print(f"{len(differ)} of {len(new)} cases against {rev} differ")
        return 1
    print(f"{len(new)} cases against {rev}: identical "
          f"({time.perf_counter() - start:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
