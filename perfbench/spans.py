"""Spans around calls into tarry2d's layers, recorded from outside the package.

Inside a `Tracer.patched()` block, each attribute in TARGETS that a caller
looks up (theta calls `quad.batch_osc_m1`, lowerbound calls its imported
`beta_to_alpha`, ...) is replaced by a wrapper that records a span: name,
start, end, parent span, thread id and job id, plus the work counts the
call's arguments or result carry.  Leaving the block puts the originals
back; no file of the package changes.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


def _rows(args, kwargs, result):
    return {"rows": int(np.atleast_2d(args[1]).shape[0])}


def _box_rows(args, kwargs, result):
    return {"rows": int(len(result))}


def _n_evals(args, kwargs, result):
    return {"n_evals": int(result.n_evals)}


def _samples(args, kwargs, result):
    return {"samples": int(result.n_samples)}


def _draws(args, kwargs, result):
    return {"draws": int(result.n_samples), "accepted": int(result.n_accepted)}


def _pairs(args, kwargs, result):
    return {"pairs": int(result.n_pairs)}


# (module, attribute the callers look up, span name, work counter or None).
# The span name is the layer that owns the function; rng.philox_stream and
# poly.beta_to_alpha are looked up under the importing module's name.
TARGETS = [
    ("tarry2d.theta", "theta_truncated", "theta.theta_truncated", _samples),
    ("tarry2d.theta", "growth_diagnostic", "theta.growth_diagnostic", None),
    ("tarry2d.theta", "parseval_check", "theta.parseval_check", None),
    ("tarry2d.theta", "philox_stream", "rng.philox_stream", None),
    ("tarry2d.quad", "osc_integral", "quad.osc_integral", _n_evals),
    ("tarry2d.quad", "batch_osc_m1", "quad.batch_osc_m1", _rows),
    ("tarry2d.variety", "theta_via_thin_shell", "variety.theta_via_thin_shell", None),
    ("tarry2d.variety", "thin_shell_measure", "variety.thin_shell_measure", _draws),
    ("tarry2d.variety", "gram_G0", "variety.gram_G0", None),
    ("tarry2d.variety", "philox_stream", "rng.philox_stream", None),
    ("tarry2d.lowerbound", "disjointness_check", "lowerbound.disjointness_check", _pairs),
    ("tarry2d.lowerbound", "box_to_alpha", "lowerbound.box_to_alpha", _box_rows),
    ("tarry2d.lowerbound", "e_set_margin", "lowerbound.e_set_margin", None),
    ("tarry2d.lowerbound", "beta_to_alpha", "poly.beta_to_alpha", None),
    ("tarry2d.poly", "PolySpec.from_vector", "poly.PolySpec.from_vector", None),
]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    job: int
    error: str | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, count, /, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        error = None
        result = None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            counts = count(args, kwargs, result) if count and error is None else {}
            self.spans.append(Span(sid, name, t0, t1, parent,
                                   threading.get_ident(), self.job, error, counts))

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            return self.call(name, fn, count, *args, **kwargs)
        return traced

    @contextmanager
    def patched(self):
        """Route every TARGETS lookup through a span for the block's duration."""
        saved = []
        try:
            for module, path, name, count in TARGETS:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, count))
                else:
                    new = self._wrap(name, raw, count)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def layer_totals(spans: list[Span]) -> dict:
    """Per span name: calls, busy seconds, self seconds, summed counts and errors.

    Self time is the span minus its direct children.  It is exact for spans
    recorded on one thread, which is how the benchmark takes it.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    out: dict[str, dict] = {}
    for s in spans:
        t = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                    "errors": {}, "counts": {}})
        dur = s.end - s.start
        t["calls"] += 1
        t["busy_s"] += dur
        t["self_s"] += dur - child_time.get(s.id, 0.0)
        if s.error:
            t["errors"][s.error] = t["errors"].get(s.error, 0) + 1
        for k, v in s.counts.items():
            t["counts"][k] = t["counts"].get(k, 0) + v
    return out


def write_spans(path, spans: list[Span]) -> None:
    """One JSON object per span, times in seconds from the first span."""
    t0 = min((s.start for s in spans), default=0.0)
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({
                "id": s.id, "name": s.name, "start": s.start - t0, "end": s.end - t0,
                "parent": s.parent, "thread": s.thread, "job": s.job,
                "error": s.error, **s.counts,
            }) + "\n")
