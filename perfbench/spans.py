"""Span recorder for the traced benchmark run, and the per-layer metrics.

`install` replaces every public function of the jllab modules, at every
module attribute through which the program or the benchmark reaches it
(``jllab.cli.optimize_map`` as well as ``jllab.embeddings.optimize_map``
and ``jllab.optimize_map``), with a wrapper that records one span per
call: name, start, end, parent span and thread.  ``Seed.generator`` is
wrapped on the class.  Spans stay in memory; the run writes them out when
it ends.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Children are the spans opened by the same thread
while the span was open, so work that a worker thread does on behalf of a
span (the norm sampler's pool) is not subtracted from it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import os
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field

LAYERS = ("seeds", "pointset", "embeddings", "certify", "concentration", "net", "cli")

_GEN = {"pointset.hard_instance", "pointset.gaussian_vectors", "pointset.standard_basis", "pointset.simplex"}
_ESTIMATORS = {
    "concentration.norm_tail_estimate",
    "concentration.chaos_tail_estimate",
    "concentration.chaos_threshold",
    "concentration.joint_event_rate",
    "concentration.symmetric_form_tail_estimate",
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    phase: str
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; `phase` tags every span opened after it is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = ""
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, measure=None):
        """Wrap fn so each call records a span; measure(span, args, kwargs, result) adds attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = Span(
                id=next(self._ids),
                parent=stack[-1].id if stack else None,
                name=name,
                thread=threading.get_ident(),
                phase=self.phase,
                start=time.perf_counter(),
            )
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if measure is not None:
                measure(span, args, kwargs, result)
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# attributes taken from arguments and return values


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(span, args, kwargs, result):
    span.attrs["bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))


def _distortion_attrs(span, args, kwargs, result):
    span.attrs["mode"] = result.mode
    N = len(_arg(args, kwargs, 1, "X"))
    span.attrs["pairs"] = N * (N - 1) // 2


def _optimize_attrs(span, args, kwargs, result):
    if isinstance(result, tuple):
        span.attrs["iterations"] = result[1].iterations


def _norm_sample_attrs(span, args, kwargs, result):
    span.attrs["normals"] = _arg(args, kwargs, 0, "n") * _arg(args, kwargs, 1, "trials")


def _map_samples_attrs(span, args, kwargs, result):
    span.attrs["normals"] = _arg(args, kwargs, 0, "A").n * _arg(args, kwargs, 1, "trials")


_MEASURE = {
    "pointset.write_pointset": _file_bytes,
    "pointset.read_pointset": _file_bytes,
    "certify.distortion": _distortion_attrs,
    "embeddings.optimize_map": _optimize_attrs,
    "concentration.norm_deviation_sample": _norm_sample_attrs,
    "concentration.map_samples": _map_samples_attrs,
}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer wherever the modules bind them."""
    modules = [importlib.import_module(f"jllab.{layer}") for layer in LAYERS]
    wrapped = {}
    for layer, mod in zip(LAYERS, modules):
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                wrapped[obj] = tracer.wrap(name, obj, _MEASURE.get(name))
    for mod in [importlib.import_module("jllab"), *modules]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    seed_cls = modules[0].Seed
    seed_cls.generator = tracer.wrap("seeds.generator", seed_cls.generator)


# ---------------------------------------------------------------------------
# self time and per-layer metrics


def covered(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """Length of the part of [start, end] that the union of the intervals covers."""
    total = 0.0
    reach = start
    for lo, hi in sorted(children):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(s.start, s.end, children.get(s.id, [])) for s in spans}


# additive quantities behind the rates, kept apart from the reported metrics
_PAIRS = "certify.pairs"


def layer_sums(spans: list[Span], names) -> dict[str, float]:
    """Additive per-layer quantities (times and counts) of one set-up or one pass.

    ``names`` are the reported metrics; a quantity this code fills under
    any other name raises KeyError.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    m = dict.fromkeys([*names, _PAIRS], 0.0)

    def within(span: Span, names: set[str]) -> bool:
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name in names:
                return True
            parent = by_id.get(parent.parent)
        return False

    for s in spans:
        name = s.name
        if name == "seeds.generator":
            m["seeds.generators"] += 1
            m["seeds.generator_s"] += s.duration
        elif name in _GEN and not within(s, _GEN):
            m["pointset.gen_s"] += s.duration
        elif name == "pointset.write_pointset":
            m["pointset.write_s"] += s.duration
            m["pointset.bytes_written"] += s.attrs["bytes"]
        elif name == "pointset.read_pointset":
            m["pointset.read_s"] += s.duration
            m["pointset.bytes_read"] += s.attrs["bytes"]
        elif name == "embeddings.pca_map":
            m["embeddings.pca_map_s"] += s.duration
            m["embeddings.pca_map_calls"] += 1
        elif name == "embeddings.optimize_map":
            m["embeddings.optimize_map_s"] += own[s.id]
            m["embeddings.optimize_iters"] += s.attrs.get("iterations", 0)
        elif name in ("embeddings.read_map", "embeddings.write_map"):
            m["embeddings.map_io_s"] += s.duration
        elif name == "certify.distortion":
            if s.attrs["mode"] == "pairwise":
                m["certify.distortion_pairwise_s"] += s.duration
                m[_PAIRS] += s.attrs["pairs"]
            else:
                m["certify.distortion_norm_s"] += s.duration
                m["certify.distortion_norm_calls"] += 1
        elif name == "certify.spectral_certificate":
            m["certify.spectral_certificate_s"] += s.duration
            m["certify.spectral_certificate_calls"] += 1
        elif name == "certify.audit_embedding":
            m["certify.audit_s"] += own[s.id]
        elif name == "concentration.norm_deviation_sample":
            m["concentration.norm_sample_s"] += s.duration
            m["concentration.norm_normals"] += s.attrs["normals"]
        elif name == "concentration.map_samples":
            m["concentration.map_samples_s"] += s.duration
            m["concentration.map_normals"] += s.attrs["normals"]
        elif name in _ESTIMATORS:
            m["concentration.estimate_self_s"] += own[s.id]
        elif name == "concentration.calibrate_constants":
            m["concentration.calibrate_s"] += own[s.id]
        elif name == "net.quantize":
            m["net.quantize_s"] += s.duration
        if name.startswith("cli."):
            m["cli.self_s"] += own[s.id]
            if name.startswith("cli.cmd_"):
                m[f"cli.{name[len('cli.cmd_'):]}_s"] += s.duration
    return m


def run_metrics(spans: list[Span], names) -> dict[str, float]:
    """The per-layer metrics ``names`` of a run: one set-up plus one pass.

    Phases are tagged ``setup:<i>`` and ``pass:<i>``.  Each additive
    quantity is the median over the run's set-ups plus the median over its
    passes; the rates are formed from those sums.
    """
    groups: dict[str, list[Span]] = {}
    for s in spans:
        groups.setdefault(s.phase, []).append(s)
    m = dict.fromkeys([*names, _PAIRS], 0.0)
    for kind in ("setup", "pass"):
        sums = [layer_sums(g, names) for phase, g in groups.items() if phase.split(":")[0] == kind]
        if sums:
            for name in m:
                m[name] += statistics.median(g[name] for g in sums)

    def rate(count: float, seconds: float, scale: float = 1.0) -> float:
        return count / seconds / scale if seconds > 0 else 0.0

    m["pointset.read_mb_per_s"] = rate(m["pointset.bytes_read"], m["pointset.read_s"], 1e6)
    m["embeddings.optimize_ms_per_iter"] = rate(
        1e3 * m["embeddings.optimize_map_s"], m["embeddings.optimize_iters"]
    )
    m["certify.pairs_per_s"] = rate(m.pop(_PAIRS), m["certify.distortion_pairwise_s"])
    m["concentration.norm_mnormals_per_s"] = rate(
        m["concentration.norm_normals"], m["concentration.norm_sample_s"], 1e6
    )
    m["concentration.map_mnormals_per_s"] = rate(
        m["concentration.map_normals"], m["concentration.map_samples_s"], 1e6
    )
    return m
