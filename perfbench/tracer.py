"""Span tracer that wraps trackmc's public names from outside the program.

``Tracer.install`` replaces each name in ``BINDINGS`` -- the module
attribute a caller looks up at call time, or a track class's
``__post_init__`` -- with a wrapper that records a span, and
``Tracer.uninstall`` puts every original back.  Spans nest through one
stack, so a span's self time is its duration minus its children's.  Spans
of the same name are aggregated (count, total, self); ``KEPT`` spans are
also kept one by one.  Everything stays in memory until ``metrics`` turns
it into per-layer numbers at the end of the run.

Run it in one process (``--workers 1``): spans in pool workers are lost.
A binding that no longer exists is skipped, and every metric built from
it is reported as missing instead of as a wrong number.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

NULL_MODELS = ("uniform-points", "preserve-interpoint", "uniform-segments",
               "preserve-intersegment", "block")


def _spec_label(args, kwargs) -> str:
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return "block" if spec.block_size is not None else spec.to_string()


def _n_samples(args, kwargs, result) -> float:
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    return cfg.n_samples


def _n_pvalues(args, kwargs, result) -> float:
    return len(args[0] if args else kwargs["pvalues"])


def _n_ripley_points(args, kwargs, result) -> float:
    seq = args[0] if args else kwargs["seq"]
    return int(np.count_nonzero(seq.values))


@dataclass(frozen=True)
class Binding:
    module: str
    attr: str  # "name" or "Class.method"
    span: str
    label: Callable | None = None  # (args, kwargs) -> suffix of the span name
    amount: Callable | None = None  # (args, kwargs, result) -> number summed per span


BINDINGS = (
    Binding("trackmc.mc", "derive_seed", "seeding.derive_seed"),
    Binding("trackmc.seeding", "derive_seed", "seeding.derive_seed"),
    Binding("trackmc.study", "derive_seed", "seeding.derive_seed"),
    Binding("trackmc.null_models", "rng_for", "seeding.rng_for"),
    Binding("trackmc.simulate", "rng_for", "seeding.rng_for"),
    Binding("trackmc.mc", "resample_track", "null_models.resample", label=_spec_label),
    Binding("trackmc.mc", "run_mc_test", "mc.test", amount=_n_samples),
    Binding("trackmc.study", "run_mc_test", "mc.test", amount=_n_samples),
    Binding("trackmc.cli", "run_mc_batch", "mc.batch"),
    Binding("trackmc.cli", "load_bins", "tracks.load"),
    Binding("trackmc.cli", "load_point_track", "tracks.load"),
    Binding("trackmc.cli", "load_segment_track", "tracks.load"),
    Binding("trackmc.tracks", "PointTrack.__post_init__", "tracks.validate"),
    Binding("trackmc.tracks", "SegmentTrack.__post_init__", "tracks.validate"),
    Binding("trackmc.tracks", "BinarySequence.__post_init__", "tracks.validate"),
    Binding("trackmc.cli", "write_results_tsv", "cli.write"),
    Binding("trackmc.cli", "write_study_tsv", "cli.write"),
    Binding("trackmc.cli", "write_ordering_tsv", "cli.write"),
    Binding("trackmc.cli", "write_deciles_tsv", "cli.write"),
    Binding("trackmc.cli", "write_survey_tsv", "cli.write"),
    Binding("trackmc.study", "generate_points", "simulate.generate"),
    Binding("trackmc.study", "generate_segments", "simulate.generate"),
    Binding("trackmc.cli", "run_false_rejection_study", "study.experiment"),
    Binding("trackmc.cli", "run_ordering_experiment", "study.experiment"),
    Binding("trackmc.cli", "qvalues", "qvalues.qvalues", amount=_n_pvalues),
    Binding("trackmc.cli", "estimate_pi0", "qvalues.pi0"),
    Binding("trackmc.cli", "reject_at_fdr", "qvalues.reject"),
    Binding("trackmc.study", "qvalues", "qvalues.qvalues", amount=_n_pvalues),
    Binding("trackmc.study", "estimate_pi0", "qvalues.pi0"),
    Binding("trackmc.study", "reject_at_fdr", "qvalues.reject"),
    Binding("trackmc.study", "estimate_l_profile", "ripley.profile", amount=_n_ripley_points),
)

# Spans kept one by one, besides the aggregate.
KEPT = ("mc.test",)
# Spans whose descendants are also aggregated per context.
CONTEXTS = ("mc.test", "cli.batch")


class _Layer:
    __slots__ = ("open", "busy")

    def __init__(self) -> None:
        self.open = 0
        self.busy = 0.0  # summed over the layer's outermost spans


class _Stat:
    """Aggregate of every span with one name."""

    __slots__ = ("name", "layer", "open", "count", "total", "self_time", "amount", "kept",
                 "inside")

    def __init__(self, name: str, layer: _Layer) -> None:
        self.name = name
        self.layer = layer
        self.open = 0
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.amount = 0.0
        self.kept: list[float] | None = [] if name in KEPT else None
        self.inside: dict[str, list] = {}  # context name -> [count, total]


class Tracer:
    def __init__(self, bindings=BINDINGS, clock=time.perf_counter) -> None:
        self.bindings = bindings
        self.clock = clock
        self.stats: dict[str, _Stat] = {}
        self.layers: dict[str, _Layer] = {}
        self.missing_spans: set[str] = set()
        self._stack: list[list] = []  # [stat, start, child time]
        self._contexts = [self.stat(name) for name in CONTEXTS]
        self._saved: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> _Stat:
        st = self.stats.get(name)
        if st is None:
            layer = self.layers.setdefault(name.split(".", 1)[0], _Layer())
            st = self.stats[name] = _Stat(name, layer)
        return st

    # -- spans -------------------------------------------------------------
    def enter(self, st: _Stat) -> None:
        st.open += 1
        st.layer.open += 1
        self._stack.append([st, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        st, start, child = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        st.open -= 1
        st.count += 1
        st.total += duration
        st.self_time += duration - child
        layer = st.layer
        layer.open -= 1
        if not layer.open:
            layer.busy += duration
        if st.kept is not None:
            st.kept.append(duration)
        for ctx in self._contexts:
            if ctx.open and ctx is not st:
                acc = st.inside.setdefault(ctx.name, [0, 0.0])
                acc[0] += 1
                acc[1] += duration

    @contextmanager
    def span(self, name: str):
        self.enter(self.stat(name))
        try:
            yield
        finally:
            self.exit()

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, fn, binding: Binding):
        tracer = self
        fixed = self.stat(binding.span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if binding.label is None:
                st = fixed
            else:
                st = tracer.stat(f"{binding.span}.{binding.label(args, kwargs)}")
            tracer.enter(st)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if binding.amount is not None:
                st.amount += binding.amount(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        for b in self.bindings:
            owner_path, _, attr = b.attr.rpartition(".")
            try:
                owner = importlib.import_module(b.module)
                if owner_path:
                    owner = getattr(owner, owner_path)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing_spans.add(b.span)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, b))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- metrics -----------------------------------------------------------
    def metrics(self) -> tuple[dict[str, tuple[float, str]], list[str]]:
        """Per-layer metrics as {name: (value, unit)}, plus the missing names.

        A value of 0 means the layer did no work on this workload.
        """
        out: dict[str, tuple[float, str]] = {}
        missing: list[str] = []

        def put(name: str, needs: tuple[str, ...], unit: str, value: Callable[[], float]):
            if any(n in self.missing_spans for n in needs):
                missing.append(name)
            else:
                out[name] = (float(value()), unit)

        def per(num: float, den: float, scale: float = 1.0) -> float:
            return num / den * scale if den else 0.0

        st, layer = self.stat, self.layers.setdefault
        samples = st("mc.test").amount
        batch_children = sum(st(n).inside.get("cli.batch", (0, 0.0))[1]
                             for n in ("mc.batch", "cli.write"))
        put("cli.ingest_s", ("mc.batch", "cli.write"), "s",
            lambda: st("cli.batch").total - batch_children)
        put("cli.write_s", ("cli.write",), "s", lambda: st("cli.write").total)
        put("tracks.load_s", ("tracks.load",), "s", lambda: st("tracks.load").total)
        put("tracks.tracks_built", ("tracks.validate",), "count",
            lambda: st("tracks.validate").count)
        put("tracks.validate_s", ("tracks.validate",), "s", lambda: st("tracks.validate").total)
        put("seeding.derive_seed.calls", ("seeding.derive_seed",), "count",
            lambda: st("seeding.derive_seed").count)
        put("seeding.calls_per_sample", ("seeding.derive_seed", "mc.test"), "count",
            lambda: per(st("seeding.derive_seed").inside.get("mc.test", (0, 0.0))[0], samples))
        put("seeding.busy_s", ("seeding.derive_seed", "seeding.rng_for"), "s",
            lambda: layer("seeding", _Layer()).busy)
        for model in NULL_MODELS:
            key = f"null_models.resample.{model}"
            put(f"null_models.{model}.us_per_sample", ("null_models.resample",), "us",
                lambda key=key: per(st(key).self_time, st(key).count, 1e6))
        put("null_models.resample_s", ("null_models.resample",), "s",
            lambda: layer("null_models", _Layer()).busy)
        put("mc.tests", ("mc.test",), "count", lambda: st("mc.test").count)
        put("mc.samples", ("mc.test",), "count", lambda: samples)
        put("mc.us_per_sample", ("mc.test",), "us",
            lambda: per(st("mc.test").total, samples, 1e6))
        put("mc.self_us_per_sample", ("mc.test",), "us",
            lambda: per(st("mc.test").self_time, samples, 1e6))
        for q in (50, 90):
            put(f"mc.test_ms.p{q}", ("mc.test",), "ms",
                lambda q=q: _percentile(st("mc.test").kept, q) * 1e3)
        put("simulate.busy_s", ("simulate.generate",), "s", lambda: st("simulate.generate").total)
        put("study.self_s", ("study.experiment",), "s", lambda: st("study.experiment").self_time)
        put("qvalues.busy_s", ("qvalues.qvalues", "qvalues.pi0", "qvalues.reject"), "s",
            lambda: layer("qvalues", _Layer()).busy)
        put("qvalues.m", ("qvalues.qvalues",), "count", lambda: st("qvalues.qvalues").amount)
        put("ripley.busy_s", ("ripley.profile",), "s", lambda: st("ripley.profile").total)
        put("ripley.points", ("ripley.profile",), "count", lambda: st("ripley.profile").amount)
        return out, missing


def _percentile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); the single value for one sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
