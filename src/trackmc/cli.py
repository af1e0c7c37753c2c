"""Command-line interface.

Subcommands: test, batch, qvalue, ripley, simulate, study, ordering.
All outputs are TSV with '#'-prefixed header lines echoing the run
configuration (execution knobs like --workers are deliberately not echoed,
so outputs are byte-identical across worker counts).

Each subcommand accepts only the flags it reads, so no flag is a silent
no-op: ``simulate points`` and ``simulate segments`` take their own
generator flags, --fdr belongs to study, --cluster-segments and
--deciles-out to ordering. --lambda-intra and --new-cluster-prob act only on
clustered generation; without it, a value but their default is an error.

Every runner checks each setting by the one rule that owns it before it
reads an input or generates a pair, so a bad setting is reported first.

``_COMMANDS`` gives each subcommand its help line, argument adder and
runner. The parser is built per call with every subcommand registered under
its help, so usage, help and error text are the full parser's, but only the
invoked one gets its arguments. A flag for a library setting takes its
default from that setting's config, or from ``study.STUDY_FDR``.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .mc import ConfigError, Direction, EstimatorMode, MCConfig, run_mc_batch, run_mc_test, write_results_tsv
from .null_models import SPELLINGS, NullModelSpec
from .qvalues import check_fdr, check_pi0, estimate_pi0, qvalues, reject_at_fdr
from .ripley import DEFAULT_SCALES
from .simulate import (
    LAMBDA_INTRA, NEW_CLUSTER_PROB, PointGenConfig, SegmentGenConfig, generate_points,
    generate_segments,
)
from .study import (
    STUDY_FDR,
    StudyConfig,
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
    load_bins,
    load_point_track,
    load_segment_track,
    partition,
    read_points,
    read_pvalues,
    read_segments,
    save_point_track,
    save_segment_track,
    table_lines,
    write_tsv,
)


def _out(path: str):
    """Where a writer should write: stdout for '-', else the path."""
    return sys.stdout if path == "-" else path


def _at_least(minimum: int):
    """An argparse type: an int of at least ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


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
    p.add_argument("--null-model", default="uniform-points", help=" | ".join(SPELLINGS))
    p.add_argument("--samples", type=int, default=default_samples,
                   help=f"Monte Carlo samples (default: {default_samples})")
    p.add_argument("--seed", type=int, default=MCConfig.master_seed,
                   help=f"master seed (default: {MCConfig.master_seed})")
    p.add_argument("--direction", choices=sorted(d.value for d in Direction),
                   default=MCConfig.direction.value)
    p.add_argument("--estimator", choices=sorted(m.value for m in EstimatorMode),
                   default=MCConfig.estimator_mode.value)


def _mc_settings(args: argparse.Namespace) -> tuple[NullModelSpec, MCConfig, dict]:
    """The null model and MC config of test and batch, checked in that order,
    and the header lines that echo them."""
    spec = NullModelSpec.from_string(args.null_model)
    cfg = MCConfig(n_samples=args.samples, master_seed=args.seed,
                   estimator_mode=EstimatorMode(args.estimator),
                   direction=Direction(args.direction))
    return spec, cfg, {
        "command": args.command,
        "null_model": spec.to_string(),
        "samples": cfg.n_samples,
        "seed": cfg.master_seed,
        "direction": cfg.direction.value,
        "estimator": cfg.estimator_mode.value,
    }


def _cmd_test(args: argparse.Namespace) -> int:
    bin = Bin(args.bin_id, args.bin_start, args.bin_end)
    spec, cfg, echo = _mc_settings(args)
    points = load_point_track(args.points, bin)
    segments = load_segment_track(args.segments, bin)
    result = run_mc_test(points, segments, spec, cfg)
    write_results_tsv([result], _out(args.out), echo)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    spec, cfg, echo = _mc_settings(args)
    tracks = partition(load_bins(args.bins), read_points(args.points), read_segments(args.segments))
    tests = [(points, segments) for points, segments in tracks
             if len(points) >= args.min_points and len(segments) >= args.min_segments]
    if not tests:
        raise ConfigError("no bins left after filtering")
    results, errors = run_mc_batch(tests, [spec], cfg, workers=args.workers)
    echo = {
        **echo,
        "bins_tested": len(tests),
        "min_points": args.min_points,
        "min_segments": args.min_segments,
    }
    write_results_tsv(results, _out(args.out), echo)
    for err in errors:
        print(f"warning: {err}", file=sys.stderr)
    return 0


def _cmd_qvalue(args: argparse.Namespace) -> int:
    for value, check in ((args.pi0, check_pi0), (args.fdr, check_fdr)):
        if value is not None:
            check(value)
    header, table, ps = read_pvalues(args.input, args.column)
    pi0 = args.pi0 if args.pi0 is not None else estimate_pi0(ps)
    q = qvalues(ps, pi0)
    echo = {"command": "qvalue", "pi0": pi0}
    header.append("q_value")
    table = [cells + [q_i] for cells, q_i in zip(table, q)]
    if args.fdr is not None:
        echo["fdr"] = args.fdr
        header.append("rejected")
        for cells, rejected in zip(table, reject_at_fdr(q, args.fdr)):
            cells.append(int(rejected))
    write_tsv(_out(args.out), echo, table_lines(header, table))
    return 0


def _cmd_ripley(args: argparse.Namespace) -> int:
    bin = Bin(args.bin_id, args.bin_start, args.bin_end)
    track = load_point_track(args.points, bin)
    rows = run_clustering_survey(track, args.scales)
    echo = {"command": "ripley", "scales": ",".join(map(str, args.scales)),
            "n_points": len(track)}
    write_survey_tsv(rows, _out(args.out), echo)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    bin = Bin("sim", 0, args.bin_length)
    echo = {"command": "simulate", "kind": args.kind, "bin_length": args.bin_length}
    cluster = {"lambda_intra": args.lambda_intra, "new_cluster_prob": args.new_cluster_prob}
    if args.kind == "points":
        cfg = PointGenConfig(clustered=args.mode == "clustered", lambda_inter=args.lambda_inter,
                             **cluster)
        echo["mode"] = args.mode
        track = generate_points(bin, cfg, args.seed)
        save = save_point_track
    else:
        cfg = SegmentGenConfig(gap_lambda=args.gap_lambda, length_min=args.length_min,
                               length_max=args.length_max, clustered=args.clustered, **cluster)
        echo["clustered"] = int(args.clustered)
        track = generate_segments(bin, cfg, args.seed)
        save = save_segment_track
    echo["seed"] = args.seed
    save(track, _out(args.out), echo)
    return 0


def _study_settings(args: argparse.Namespace, **extra) -> tuple[StudyConfig, dict]:
    """The StudyConfig of study and ordering, from the flags they share, and
    the header lines that echo it; ``extra`` goes before the seed."""
    cfg = StudyConfig(n_replicates=args.replicates, bin_length=args.bin_length,
                      mc_samples=args.samples, master_seed=args.seed)
    return cfg, {
        "command": args.command,
        "replicates": cfg.n_replicates,
        "bin_length": cfg.bin_length,
        "samples": cfg.mc_samples,
        **extra,
        "seed": cfg.master_seed,
    }


def _cmd_study(args: argparse.Namespace) -> int:
    cfg, echo = _study_settings(args, fdr=args.fdr)
    check_fdr(args.fdr)
    pvalues = run_false_rejection_study(cfg, workers=args.workers)
    write_study_tsv(rejection_counts(pvalues, args.fdr), _out(args.out), echo)
    return 0


def _cmd_ordering(args: argparse.Namespace) -> int:
    cfg, echo = _study_settings(args, cluster_segments=int(args.cluster_segments))
    result = run_ordering_experiment(cfg, args.cluster_segments, workers=args.workers)
    write_ordering_tsv(result, _out(args.out), echo)
    if args.deciles_out:
        write_deciles_tsv(result, _out(args.deciles_out), echo)
    return 0


def _add_test_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--points", required=True)
    p.add_argument("--segments", required=True)
    _add_bin_args(p)
    _add_mc_args(p, default_samples=10_000)
    p.add_argument("--out", default="-")


def _add_batch_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bins", required=True, help="3-column TSV: id, start, end")
    p.add_argument("--points", required=True)
    p.add_argument("--segments", required=True)
    _add_mc_args(p, default_samples=1000)
    p.add_argument("--min-points", type=_at_least(0), default=0)
    p.add_argument("--min-segments", type=_at_least(0), default=0)
    p.add_argument("--workers", type=_at_least(1), default=1)
    p.add_argument("--out", default="-")


def _add_qvalue_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--column", default="p_value")
    p.add_argument("--fdr", type=float, default=None, help="also flag rejections")
    p.add_argument("--pi0", type=float, default=None, help="override the pi0 estimate")
    p.add_argument("--out", default="-")


def _add_ripley_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--points", required=True)
    _add_bin_args(p)
    p.add_argument("--scales", type=_scales, default=list(DEFAULT_SCALES))
    p.add_argument("--out", default="-")


def _add_simulate_args(p: argparse.ArgumentParser) -> None:
    kinds = p.add_subparsers(dest="kind", required=True)
    points = kinds.add_parser("points", help="renewal point track")
    points.add_argument("--mode", choices=("independent", "clustered"), default="independent")
    points.add_argument("--lambda-inter", type=float, default=PointGenConfig.lambda_inter)
    segments = kinds.add_parser("segments", help="segments at renewal start positions")
    segments.add_argument("--gap-lambda", type=float, default=SegmentGenConfig.gap_lambda)
    segments.add_argument("--length-min", type=int, default=SegmentGenConfig.length_min)
    segments.add_argument("--length-max", type=int, default=SegmentGenConfig.length_max)
    segments.add_argument("--clustered", action="store_true", help="cluster segment starts")
    for kind in (points, segments):
        kind.add_argument("--bin-length", type=int, required=True)
        kind.add_argument("--lambda-intra", type=float, default=LAMBDA_INTRA)
        kind.add_argument("--new-cluster-prob", type=float, default=NEW_CLUSTER_PROB)
        kind.add_argument("--seed", type=int, default=0)
        kind.add_argument("--out", default="-")


def _add_experiment_args(p: argparse.ArgumentParser) -> None:
    """The flags that study and ordering share."""
    p.add_argument("--replicates", type=int, default=StudyConfig.n_replicates)
    p.add_argument("--bin-length", type=int, default=StudyConfig.bin_length)
    p.add_argument("--samples", type=int, default=StudyConfig.mc_samples)
    p.add_argument("--seed", type=int, default=StudyConfig.master_seed)
    p.add_argument("--workers", type=_at_least(1), default=1)
    p.add_argument("--out", default="-")


def _add_study_args(p: argparse.ArgumentParser) -> None:
    _add_experiment_args(p)
    p.add_argument("--fdr", type=float, default=STUDY_FDR)


def _add_ordering_args(p: argparse.ArgumentParser) -> None:
    _add_experiment_args(p)
    p.add_argument("--cluster-segments", action="store_true",
                   help="use the clustered segment generator")
    p.add_argument("--deciles-out", default=None)


# Each subcommand's help line, argument adder and runner.
_COMMANDS = {
    "test": ("single-bin Monte Carlo test", _add_test_args, _cmd_test),
    "batch": ("one test per bin from a bins file", _add_batch_args, _cmd_batch),
    "qvalue": ("append q-values to a p-value TSV", _add_qvalue_args, _cmd_qvalue),
    "ripley": ("scaled Ripley L profile of a point track", _add_ripley_args, _cmd_ripley),
    "simulate": ("generate a synthetic track", _add_simulate_args, _cmd_simulate),
    "study": ("false-rejection study across null models", _add_study_args, _cmd_study),
    "ordering": ("p-value ordering across the four null models", _add_ordering_args, _cmd_ordering),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The trackmc parser, with every subcommand registered under its help.

    Only ``command``'s arguments are added, or every subcommand's when it
    is None: a call parses one subcommand, and the others' parsers are most
    of the cost of building this one.
    """
    parser = argparse.ArgumentParser(
        prog="trackmc",
        description="Monte Carlo null-model testing for point and segment tracks",
    )
    parser.add_argument("--version", action="version", version=f"trackmc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command is None or name == command:
            add_args(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A first word that names a subcommand is the one argparse will run;
    # anything else (--help, --version, nothing, a typo) gets the full parser.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except (ValueError, OSError, MemoryError) as exc:
        text = str(exc)
        if isinstance(exc, MemoryError):  # numpy's names the allocation it could not make
            text = f"out of memory: {text}" if text else "out of memory"
        print(f"error: {text}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
