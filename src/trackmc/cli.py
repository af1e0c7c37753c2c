"""Command-line interface.

Subcommands: test, batch, qvalue, ripley, simulate, study, ordering.
All outputs are TSV with '#'-prefixed header lines echoing the run
configuration (execution knobs like --workers are deliberately not echoed,
so outputs are byte-identical across worker counts).

Each subcommand accepts only the flags it reads, so no flag is a silent
no-op: ``simulate points`` and ``simulate segments`` take their own
generator flags, --fdr belongs to study, --cluster-segments and
--deciles-out to ordering.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .mc import ConfigError, Direction, EstimatorMode, MCConfig, run_mc_batch, run_mc_test, write_results_tsv
from .null_models import NullModelSpec
from .qvalues import estimate_pi0, qvalues, reject_at_fdr
from .ripley import DEFAULT_SCALES
from .simulate import PointGenConfig, PointMode, SegmentGenConfig, generate_points, generate_segments
from .study import (
    StudyConfig,
    filter_bins,
    rejection_counts,
    run_clustering_survey,
    run_false_rejection_study,
    run_ordering_experiment,
    write_deciles_tsv,
    write_ordering_tsv,
    write_study_tsv,
    write_survey_tsv,
)
from .tracks import (
    Bin,
    TrackFormatError,
    TrackValidationError,
    _data_rows,
    fmt,
    load_bins,
    load_point_track,
    load_segment_track,
    partition,
    read_points,
    read_segments,
    save_point_track,
    save_segment_track,
    write_tsv,
)

_DIRECTIONS = {d.value: d for d in Direction}
_ESTIMATORS = {m.value: m for m in EstimatorMode}


def _out(path: str):
    """Where a writer should write: stdout for '-', else the path."""
    return sys.stdout if path == "-" else path


def _workers(text: str) -> int:
    """The --workers value: a process count of at least 1."""
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {workers}")
    return workers


def _scales(text: str) -> list[int]:
    """The --scales value: comma-separated integers, at least one."""
    try:
        scales = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int list: {text!r}") from None
    if not scales:
        raise argparse.ArgumentTypeError(f"need at least one integer, got {text!r}")
    return scales


def _add_bin_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bin-id", default="bin", help="bin identifier (default: bin)")
    p.add_argument("--bin-start", type=int, default=0, help="bin start, inclusive")
    p.add_argument("--bin-end", type=int, required=True, help="bin end, exclusive")


def _add_mc_args(p: argparse.ArgumentParser, default_samples: int) -> None:
    p.add_argument("--null-model", default="uniform-points",
                   help="uniform-points | preserve-interpoint | uniform-segments | "
                        "preserve-intersegment | block:<k>")
    p.add_argument("--samples", type=int, default=default_samples,
                   help=f"Monte Carlo samples (default: {default_samples})")
    p.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")
    p.add_argument("--direction", choices=sorted(_DIRECTIONS), default="greater")
    p.add_argument("--estimator", choices=sorted(_ESTIMATORS), default="add-one")


def _mc_config(args: argparse.Namespace) -> MCConfig:
    return MCConfig(
        n_samples=args.samples,
        master_seed=args.seed,
        estimator_mode=_ESTIMATORS[args.estimator],
        direction=_DIRECTIONS[args.direction],
    )


def _mc_echo(command: str, spec: NullModelSpec, cfg: MCConfig) -> dict:
    """The header lines that test and batch share."""
    return {
        "command": command,
        "null_model": spec.to_string(),
        "samples": cfg.n_samples,
        "seed": cfg.master_seed,
        "direction": cfg.direction.value,
        "estimator": cfg.estimator_mode.value,
    }


def _cmd_test(args: argparse.Namespace) -> int:
    bin = Bin(args.bin_id, args.bin_start, args.bin_end)
    points = load_point_track(args.points, bin)
    segments = load_segment_track(args.segments, bin)
    spec = NullModelSpec.from_string(args.null_model)
    cfg = _mc_config(args)
    result = run_mc_test(points, segments, spec, cfg)
    echo = _mc_echo("test", spec, cfg)
    write_results_tsv([result], _out(args.out), echo, n_points={result.bin_id: len(points)})
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    bins = load_bins(args.bins)
    points_by_bin, segments_by_bin = partition(
        bins, read_points(args.points), read_segments(args.segments)
    )
    kept = filter_bins(bins, points_by_bin, segments_by_bin, args.min_points, args.min_segments)
    spec = NullModelSpec.from_string(args.null_model)
    cfg = _mc_config(args)
    tests = [(points_by_bin[b.id], segments_by_bin[b.id]) for b in kept]
    if not tests:
        raise ConfigError("no bins left after filtering")
    results, errors = run_mc_batch(tests, spec, cfg, workers=args.workers)
    echo = {
        **_mc_echo("batch", spec, cfg),
        "bins_tested": len(kept),
        "min_points": args.min_points,
        "min_segments": args.min_segments,
    }
    write_results_tsv(
        results, _out(args.out), echo, n_points={b.id: len(points_by_bin[b.id]) for b in kept}
    )
    for err in errors:
        print(f"warning: {err}", file=sys.stderr)
    return 0


def _cmd_qvalue(args: argparse.Namespace) -> int:
    rows = list(_data_rows(args.input))
    header = rows.pop(0)[1] if rows else []
    if args.column not in header:
        raise ConfigError(f"column {args.column!r} not found in {args.input}")
    col = header.index(args.column)
    ps = []
    for lineno, fields in rows:
        if len(fields) != len(header):
            raise TrackFormatError(
                f"{args.input}: line {lineno}: expected {len(header)} columns, got {len(fields)}"
            )
        try:
            ps.append(float(fields[col]))
        except ValueError:
            raise TrackFormatError(
                f"{args.input}: line {lineno}: expected a p-value, got {fields[col]!r}"
            ) from None
    pi0 = args.pi0 if args.pi0 is not None else estimate_pi0(ps)
    q = qvalues(ps, pi0)
    echo = {"command": "qvalue", "pi0": fmt(pi0)}
    extra = ["q_value"]
    if args.fdr is not None:
        rejected = reject_at_fdr(q, args.fdr)
        echo["fdr"] = fmt(args.fdr)
        extra.append("rejected")
    lines = ["\t".join(header + extra)]
    for i, (_, fields) in enumerate(rows):
        cells = fields + [fmt(float(q[i]))]
        if args.fdr is not None:
            cells.append("1" if rejected[i] else "0")
        lines.append("\t".join(cells))
    write_tsv(_out(args.out), echo, lines)
    return 0


def _cmd_ripley(args: argparse.Namespace) -> int:
    bin = Bin(args.bin_id, args.bin_start, args.bin_end)
    track = load_point_track(args.points, bin)
    rows, failures = run_clustering_survey([track], args.scales)
    if failures:
        raise ConfigError(failures[0][2])
    echo = {"command": "ripley", "scales": ",".join(map(str, args.scales)),
            "n_points": len(track)}
    write_survey_tsv(rows, _out(args.out), echo)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    bin = Bin("sim", 0, args.bin_length)
    echo = {"command": "simulate", "kind": args.kind, "bin_length": args.bin_length}
    if args.kind == "points":
        cfg = PointGenConfig(
            mode=PointMode.CLUSTERED if args.mode == "clustered" else PointMode.INDEPENDENT,
            lambda_inter=args.lambda_inter,
            lambda_intra=args.lambda_intra,
            new_cluster_prob=args.new_cluster_prob,
        )
        echo["mode"] = args.mode
        track = generate_points(bin, cfg, args.seed)
        save = save_point_track
    else:
        cfg = SegmentGenConfig(
            gap_lambda=args.gap_lambda,
            length_min=args.length_min,
            length_max=args.length_max,
            clustered=args.clustered,
            lambda_intra=args.lambda_intra,
            new_cluster_prob=args.new_cluster_prob,
        )
        echo["clustered"] = int(args.clustered)
        track = generate_segments(bin, cfg, args.seed)
        save = save_segment_track
    echo["seed"] = args.seed
    save(track, _out(args.out), echo)
    return 0


def _study_config(args: argparse.Namespace, **fields) -> StudyConfig:
    """The StudyConfig of study and ordering: their shared flags plus ``fields``."""
    return StudyConfig(
        n_replicates=args.replicates,
        bin_length=args.bin_length,
        mc_samples=args.samples,
        master_seed=args.seed,
        **fields,
    )


def _study_echo(command: str, cfg: StudyConfig, **extra) -> dict:
    """The header lines of study and ordering; ``extra`` goes before the seed."""
    return {
        "command": command,
        "replicates": cfg.n_replicates,
        "bin_length": cfg.bin_length,
        "samples": cfg.mc_samples,
        **extra,
        "seed": cfg.master_seed,
    }


def _cmd_study(args: argparse.Namespace) -> int:
    cfg = _study_config(args, fdr_threshold=args.fdr)
    pvalues = run_false_rejection_study(cfg, workers=args.workers)
    echo = _study_echo("study", cfg, fdr=fmt(cfg.fdr_threshold))
    write_study_tsv(rejection_counts(pvalues, cfg.fdr_threshold), cfg, _out(args.out), echo)
    return 0


def _cmd_ordering(args: argparse.Namespace) -> int:
    cfg = _study_config(args, cluster_segments=args.cluster_segments)
    result = run_ordering_experiment(cfg, workers=args.workers)
    echo = _study_echo("ordering", cfg, cluster_segments=int(cfg.cluster_segments))
    write_ordering_tsv(result, _out(args.out), echo)
    if args.deciles_out:
        write_deciles_tsv(result, _out(args.deciles_out), echo)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackmc",
        description="Monte Carlo null-model testing for point and segment tracks",
    )
    parser.add_argument("--version", action="version", version=f"trackmc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="single-bin Monte Carlo test")
    p.add_argument("--points", required=True)
    p.add_argument("--segments", required=True)
    _add_bin_args(p)
    _add_mc_args(p, default_samples=10_000)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_test)

    p = sub.add_parser("batch", help="one test per bin from a bins file")
    p.add_argument("--bins", required=True, help="3-column TSV: id, start, end")
    p.add_argument("--points", required=True)
    p.add_argument("--segments", required=True)
    _add_mc_args(p, default_samples=1000)
    p.add_argument("--min-points", type=int, default=0)
    p.add_argument("--min-segments", type=int, default=0)
    p.add_argument("--workers", type=_workers, default=1)
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_batch)

    p = sub.add_parser("qvalue", help="append q-values to a p-value TSV")
    p.add_argument("--input", required=True)
    p.add_argument("--column", default="p_value")
    p.add_argument("--fdr", type=float, default=None, help="also flag rejections")
    p.add_argument("--pi0", type=float, default=None, help="override the pi0 estimate")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_qvalue)

    p = sub.add_parser("ripley", help="scaled Ripley L profile of a point track")
    p.add_argument("--points", required=True)
    _add_bin_args(p)
    p.add_argument("--scales", type=_scales, default=list(DEFAULT_SCALES))
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_ripley)

    p = sub.add_parser("simulate", help="generate a synthetic track")
    p.set_defaults(fn=_cmd_simulate)
    kinds = p.add_subparsers(dest="kind", required=True)
    points = kinds.add_parser("points", help="renewal point track")
    points.add_argument("--mode", choices=("independent", "clustered"), default="independent")
    points.add_argument("--lambda-inter", type=float, default=0.01)
    segments = kinds.add_parser("segments", help="segments at renewal start positions")
    segments.add_argument("--gap-lambda", type=float, default=0.01)
    segments.add_argument("--length-min", type=int, default=10)
    segments.add_argument("--length-max", type=int, default=100)
    segments.add_argument("--clustered", action="store_true", help="cluster segment starts")
    for p in (points, segments):
        p.add_argument("--bin-length", type=int, required=True)
        p.add_argument("--lambda-intra", type=float, default=0.1)
        p.add_argument("--new-cluster-prob", type=float, default=0.3)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="-")

    experiments = {}
    for name, fn, help_text in (
        ("study", _cmd_study, "false-rejection study across null models"),
        ("ordering", _cmd_ordering, "p-value ordering across the four null models"),
    ):
        p = experiments[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--replicates", type=int, default=100)
        p.add_argument("--bin-length", type=int, default=100_000)
        p.add_argument("--samples", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=_workers, default=1)
        p.add_argument("--out", default="-")
        p.set_defaults(fn=fn)
    experiments["study"].add_argument("--fdr", type=float, default=0.20)
    experiments["ordering"].add_argument("--cluster-segments", action="store_true",
                                         help="use the clustered segment generator")
    experiments["ordering"].add_argument("--deciles-out", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (TrackFormatError, TrackValidationError, ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
