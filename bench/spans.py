"""Span recorder for the traced run.

Wraps public functions of `rigalign` at the layer boundaries listed in
`BOUNDARIES`, from outside the package: the wrapper replaces every reference
to the original function in the package's module namespaces (or the method
on its class), so calls made through `from .x import y` names are caught
too. Spans (name, start, end, parent) are held in memory and summarised when
the run ends. A boundary whose function no longer exists is reported as
missing rather than silently reading zero.

Each thread keeps its own stack of open spans, so parents and self times stay
right when layers run in threads; inclusive totals then add up overlapping
spans, which the caller warns about (see `threads`). Calls made in other
processes record no spans at all, which shows as boundaries with no calls.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into SpanRecorder.spans, -1 for a root
    thread: int  # threading.get_ident() of the thread that opened it


@dataclass
class SpanRecorder:
    spans: list = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    peaks: dict = field(default_factory=dict)
    phase: str = "rotation"  # the emission phase being scored, for naming decodes
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                    threading.get_ident())
        with self._lock:
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
        return stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().remove(index)

    def threads(self) -> int:
        """How many threads recorded spans."""
        return len({s.thread for s in self.spans})

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, 0.0), value)

    def wrap(self, boundary: "Boundary", fn):
        recorder = self
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            name = boundary.span_name(recorder, args, kwargs)
            index = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if boundary.observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                with recorder._lock:
                    boundary.observe(recorder, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced


# ---------------------------------------------------------------------------
# Boundaries.


def _frame_terms_name(recorder, args, kwargs):
    recorder.phase = kwargs.get("phase", args[1] if len(args) > 1 else "rotation")
    return f"emission.{recorder.phase}_terms"


def _observe_frame_terms(recorder, arguments, result):
    cd, dino = result
    recorder.counters["emission.states_scored"] += len(cd)
    if dino is not None:
        recorder.counters["emission.empty_overlap"] += int(np.isnan(dino).sum())


def _observe_viterbi(recorder, arguments, result):
    transition = arguments.get("transition")
    if isinstance(transition, np.ndarray):
        recorder.peak("viterbi.transition_mb", transition.nbytes / 1e6)


def _observe_icp(recorder, arguments, result):
    if len(result.rms_history) >= arguments["max_iters"]:
        recorder.counters["metrics.icp_at_max_iters"] += 1


@dataclass(frozen=True)
class Boundary:
    name: object  # span name, or callable(recorder, args, kwargs) -> name
    module: str
    attr: str  # function name, or Class.method
    only_in: tuple = ()  # patch only these namespaces (default: every reference)
    observe: object = None  # callable(recorder, bound arguments, result)

    def span_name(self, recorder, args, kwargs) -> str:
        return self.name(recorder, args, kwargs) if callable(self.name) else self.name

    @property
    def label(self) -> str:
        return f"{self.module}.{self.attr}"


BOUNDARIES = (
    Boundary("pipeline.load", "rigalign.pipeline", "load_run_inputs"),
    Boundary("meshio.write", "rigalign.meshio", "save_emission_table"),
    Boundary("grids.build", "rigalign.grids", "build_rotation_grid"),
    Boundary("grids.build", "rigalign.grids", "build_translation_grid"),
    Boundary("grids.pairwise_angles", "rigalign.grids", "RotationGrid.pairwise_angles"),
    Boundary("emission.scale", "rigalign.emission", "estimate_scale"),
    Boundary(_frame_terms_name, "rigalign.emission", "EmissionEvaluator.frame_terms",
             observe=_observe_frame_terms),
    Boundary("emission.chamfer", "rigalign.emission", "EmissionEvaluator.chamfer_term"),
    Boundary("emission.render", "rigalign.emission", "SyntheticFeatureSource.candidate_features"),
    Boundary("emission.silhouette", "rigalign.emission", "rasterize_silhouette"),
    Boundary("emission.similarity", "rigalign.emission", "dino_similarity"),
    Boundary("emission.combine", "rigalign.emission", "EmissionEvaluator.combine_terms"),
    Boundary(lambda rec, a, k: f"viterbi.{rec.phase}", "rigalign.viterbi", "viterbi_decode",
             observe=_observe_viterbi),
    Boundary("align.sequence", "rigalign.align", "align_sequence"),
    Boundary("geometry.sample", "rigalign.geometry", "sample_mesh_surface"),
    Boundary("evaluate.track", "rigalign.evaluate", "evaluate_track"),
    Boundary("evaluate.frame", "rigalign.evaluate", "frame_report"),
    Boundary("metrics.icp", "rigalign.metrics", "icp_with_scaling", observe=_observe_icp),
    Boundary("metrics.nn_query", "rigalign.metrics", "NearestNeighborIndex.query"),
    Boundary("metrics.fit", "rigalign.metrics", "fit_similarity"),
    # Emission Chamfer goes through chamfer_term above; only evaluation's
    # calls count as the metrics layer.
    Boundary("metrics.chamfer", "rigalign.metrics", "chamfer_distance",
             only_in=("rigalign.evaluate",)),
    Boundary("metrics.fscore", "rigalign.metrics", "f_score", only_in=("rigalign.evaluate",)),
)


def install(recorder: SpanRecorder, boundaries=BOUNDARIES) -> list[str]:
    """Wrap every boundary; returns the labels of those that no longer exist."""
    missing = []
    for b in boundaries:
        try:
            owner = importlib.import_module(b.module)
            *path, name = b.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            missing.append(b.label)
            continue
        traced = recorder.wrap(b, original)
        if path:  # a method: patch the class
            setattr(owner, name, traced)
            continue
        namespaces = b.only_in or [m for m in list(sys.modules) if m.split(".")[0] == "rigalign"]
        for mod_name in namespaces:
            module = importlib.import_module(mod_name)
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
    return missing


# ---------------------------------------------------------------------------
# Summaries.


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children[i]):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((s.end - s.start) - covered)
    return out


def outermost(spans: list[Span]) -> list[int]:
    """Indices of spans with no ancestor of the same name, so that inclusive
    totals never count nested time twice."""
    keep = []
    for i, s in enumerate(spans):
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            keep.append(i)
    return keep


def summarise(spans: list[Span]) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, and durations."""
    selfs = self_times(spans)
    table: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
    for i in outermost(spans):
        row = table[spans[i].name]
        row["total_s"] += spans[i].end - spans[i].start
    for i, s in enumerate(spans):
        row = table[s.name]
        row["calls"] += 1
        row["self_s"] += selfs[i]
        row["durations"].append(s.end - s.start)
    return dict(table)
