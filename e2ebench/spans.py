"""Outside-in tracing of lane3d: wrap public functions, record spans.

The tracer rebinds each function in ``LAYERS`` at every binding in
``sys.modules["lane3d.*"]``.  Modules import each other by name and
Python looks global names up at call time, so intra-library calls go
through the wrappers too.  Nothing under ``src/`` is changed.

A span records its name, start, end, parent and thread.  The parent is
the innermost span open on the same thread; a span with none there takes
the innermost span open on the recorder's main thread, because the CLI
runs protocol work on a thread pool while the main thread waits.

Accounting (``account``):

* ``s`` is a layer's inclusive seconds summed over calls and threads,
  so with a thread pool it is busy time and can exceed wall time;
* ``busy_self_s`` is ``s`` minus the same-thread child spans, per thread;
* ``self_s`` is the layer's share of the main thread's wall time.  The
  main thread's own self time is exact.  While it waits on the pool, a
  worker span's busy self time counts ``1 / workers`` towards its layer
  and is taken from the waiting main-thread span.  Worker time outside
  any wrapped span (the BEV raster, for example) stays with the waiting
  span.  So the ``self_s`` of every layer plus the root's sum to the
  root's wall time exactly.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, function): the layers' public functions the trace wraps.
LAYERS = (
    ("scenario_io", "read_frames"),
    ("scenario_io", "generate_frames"),
    ("scenario_io", "write_frames"),
    ("scenario_io", "write_report"),
    ("geometry", "interpolate_lane"),
    ("geometry", "resample_at_y"),
    ("geometry", "fit_curves"),
    ("geometry", "sample_curve"),
    ("kernels", "resample_polyline"),
    ("kernels", "pair_mean_matrices"),
    ("kernels", "point_to_polyline_stats"),
    ("kernels", "directed_point_stats"),
    ("chamfer", "once_report"),
    ("chamfer", "mbd_report"),
    ("chamfer", "bcd_report"),
    ("chamfer", "threshold_sweep"),
    ("pointwise", "openlane_report"),
    ("pointwise", "pointwise_sweep"),
    ("matching", "hungarian"),
    ("losses", "loss_total"),
    ("losses", "curve_match_cost"),
    ("losses", "loss_unc"),
    ("gaussians", "paired_segment_gaussians"),
    ("gaussians", "symmetric_kld"),
)


def _pair_counts(pred_points, gt_points, *_, **__) -> dict:
    # Computed from argument shapes: each pair scores both directions.
    n_pred = sum(len(p) for p in pred_points)
    n_gt = sum(len(g) for g in gt_points)
    return {"pairs": len(pred_points) * len(gt_points),
            "dist_evals": 2 * n_pred * n_gt}


def _cell_counts(cost, *_, **__) -> dict:
    return {"cells": int(np.prod(np.shape(cost)))}


COUNTERS = {
    "kernels.pair_mean_matrices": _pair_counts,
    "matching.hungarian": _cell_counts,
}


class Span:
    __slots__ = ("id", "name", "thread", "parent", "start", "end", "counts")

    def __init__(self, id, name, thread, parent, start, end=None,
                 counts=None):
        self.id = id
        self.name = name
        self.thread = thread
        self.parent = parent
        self.start = start
        self.end = end
        self.counts = counts


class Recorder:
    """Collects spans in memory; the creating thread is the main thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self.main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, counts: dict | None = None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            main = self._main_stack
            parent = main[-1].id if main else None
        span = Span(next(self._ids), name, threading.get_ident(), parent,
                    time.perf_counter(), counts=counts)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)


def _wrap(recorder: Recorder, fn, name: str):
    count = COUNTERS.get(name)

    def counts(args, kwargs):
        try:
            return count(*args, **kwargs)
        except (TypeError, ValueError):  # signature changed: counts absent
            return None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name, counts(args, kwargs) if count else None)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span)

    return traced


def _wrap_reader(recorder: Recorder, fn, name: str):
    """Time a frame reader as its generator is consumed, one span per frame."""

    def megabytes(path) -> float:
        try:
            return os.path.getsize(path) / 1e6
        except (OSError, TypeError):  # the reader reports its own error
            return 0.0

    @functools.wraps(fn)
    def traced(path, *args, **kwargs):
        span = recorder.open(name, {"mb": megabytes(path)})
        try:
            frames = fn(path, *args, **kwargs)
        finally:
            recorder.close(span)

        def consume():
            while True:
                step = recorder.open(name, {"calls": 0, "frames": 1})
                try:
                    record = next(frames)
                except StopIteration:
                    step.counts = {"calls": 0}
                    return
                finally:
                    recorder.close(step)
                yield record

        return consume()

    return traced


class Tracer:
    """Install wrappers for ``LAYERS`` into the loaded lane3d modules."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "lane3d"
                                         or key.startswith("lane3d."))]
        for module_name, func_name in LAYERS:
            name = f"{module_name}.{func_name}"
            module = sys.modules.get(f"lane3d.{module_name}")
            original = getattr(module, func_name, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrap = _wrap_reader if name == "scenario_io.read_frames" else _wrap
            traced = wrap(self.recorder, original, name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                        self._undo.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()
        return False


def account(spans: list[Span], main: int, workers: int) -> dict:
    """Per-layer ``calls``, ``s``, ``busy_self_s``, ``self_s`` and counters.

    ``main`` is the main thread's ident and ``workers`` the pool size used
    to share the main thread's waiting time (see the module docstring).
    """
    by_id = {s.id: s for s in spans}
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            own[parent.id] -= s.end - s.start
    layers: dict = defaultdict(lambda: defaultdict(float))
    for s in spans:
        row = layers[s.name]
        counts = s.counts or {}
        row["calls"] += counts.get("calls", 1)
        for key, value in counts.items():
            if key != "calls":
                row[key] += value
        row["s"] += s.end - s.start
        row["busy_self_s"] += own[s.id]
        if s.thread == main:
            row["self_s"] += own[s.id]
            continue
        anchor = s
        while anchor is not None and anchor.thread != main:
            anchor = by_id.get(anchor.parent)
        if anchor is not None:
            share = own[s.id] / workers
            row["self_s"] += share
            layers[anchor.name]["self_s"] -= share
    return {name: dict(row) for name, row in layers.items()}
