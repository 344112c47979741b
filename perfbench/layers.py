"""Per-layer self times and work counts, measured from outside the program.

Each layer is a set of module attributes.  A traced run replaces every one of
them with a wrapper that times the call and counts work, at the place where
the name is looked up (``monodromy`` and ``geometry`` bind the fiber solver at
import, ``frames`` and ``classify`` bind ``svdvals``).  A layer's time is self
time: time spent in nested wrapped calls is subtracted.  An attribute that the
program no longer has is reported as an absent layer; its metrics read 0.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

# metric name -> unit, better
PER_LAYER = {
    "blaschke.fiber_s": ("s", "lower"),
    "blaschke.fiber_solves": ("count", "lower"),
    "classify.match_s": ("s", "lower"),
    "classify.match_oracle_points": ("count", "lower"),
    "monodromy.track_s": ("s", "lower"),
    "monodromy.track_calls": ("count", "lower"),
    "monodromy.loops_ok_ratio": ("ratio", "higher"),
    "monodromy.outer_s": ("s", "lower"),
    "monodromy.outer_calls": ("count", "lower"),
    "monodromy.candidates_ok_ratio": ("ratio", "higher"),
    "funcspec.reduce_s": ("s", "lower"),
    "funcspec.reduce_calls": ("count", "lower"),
    "frames.build_s": ("s", "lower"),
    "frames.build_calls": ("count", "lower"),
    "frames.build_cells": ("count", "lower"),
    "frames.ladder_rungs": ("count", "lower"),
    "series.conv_s": ("s", "lower"),
    "series.conv_calls": ("count", "lower"),
    "svd.time_s": ("s", "lower"),
    "svd.calls": ("count", "lower"),
    "svd.cells": ("count", "lower"),
    "geometry.curve_s": ("s", "lower"),
    "geometry.curve_points": ("count", "lower"),
    "geometry.winding_s": ("s", "lower"),
    "geometry.winding_calls": ("count", "lower"),
    "geometry.label_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.write_bytes": ("bytes", "lower"),
}


def _size(args, kwargs, out, exc):
    return 0 if exc else int(np.size(out))


def _cells(args, kwargs, out, exc):
    return 0 if exc else int(out.taylor.size)


def _svd_cells(args, kwargs, out, exc):
    return int(np.size(args[0]))


def _file_bytes(args, kwargs, out, exc):
    return 0 if exc else os.path.getsize(out)


def _points(args, kwargs, out, exc):
    return int(np.size(args[1] if len(args) > 1 else kwargs["w"]))


def _loops(args, kwargs, out, exc):
    return 0 if exc else len(out.generators) + len(out.skipped)


def _loops_ok(args, kwargs, out, exc):
    return 0 if exc else len(out.generators)


def _returned(args, kwargs, out, exc):
    return 0 if exc else 1


# (layer, module, attribute, timed, {counter: fn(args, kwargs, result, exc)})
# A counter fn of None counts calls.  Attributes of classes are written
# "Class.method".  Untimed entries only count.
TARGETS = [
    ("blaschke.fiber", "bundlelab.blaschke", "_poly_roots", True, {"blaschke.fiber_solves": None}),
    ("blaschke.fiber", "bundlelab.blaschke", "_newton_polish", True, {}),
    ("blaschke.fiber", "bundlelab.monodromy", "_poly_roots", True, {"blaschke.fiber_solves": None}),
    ("blaschke.fiber", "bundlelab.monodromy", "_newton_polish", True, {}),
    ("blaschke.fiber", "bundlelab.geometry", "_poly_roots", True, {"blaschke.fiber_solves": None}),
    ("blaschke.fiber", "bundlelab.geometry", "_newton_polish", True, {}),
    ("classify.match", "bundlelab.classify", "moebius_match", True, {}),
    ("classify.match", "bundlelab.monodromy", "RecoveredOuter.oracle_value", False,
     {"classify.match_oracle_points": _points}),
    ("classify.match", "bundlelab.monodromy", "RecoveredOuter.oracle_derivative", False,
     {"classify.match_oracle_points": _points}),
    ("classify.match", "bundlelab.monodromy", "RecoveredOuter.oracle_second_derivative",
     False, {"classify.match_oracle_points": _points}),
    ("monodromy.track", "bundlelab.monodromy", "track_fiber", True, {"monodromy.track_calls": None}),
    ("monodromy.track", "bundlelab.monodromy", "monodromy_generators", False,
     {"monodromy.loops": _loops, "monodromy.loops_ok": _loops_ok}),
    ("monodromy.outer", "bundlelab.monodromy", "outer_factor", True,
     {"monodromy.outer_calls": None, "monodromy.candidates_ok": _returned}),
    ("funcspec.reduce", "bundlelab.funcspec", "to_rational", True, {"funcspec.reduce_calls": None}),
    ("funcspec.reduce", "bundlelab.series", "to_rational", True, {"funcspec.reduce_calls": None}),
    ("frames.build", "bundlelab.frames", "build_frame", True,
     {"frames.build_calls": None, "frames.build_cells": _cells}),
    ("frames.build", "bundlelab.frames", "FrameMatrix.rebuild", False, {"frames.ladder_rungs": None}),
    ("series.conv", "bundlelab.series", "_conv", True, {"series.conv_calls": None}),
    ("svd", "bundlelab.frames", "svdvals", True, {"svd.calls": None, "svd.cells": _svd_cells}),
    ("svd", "bundlelab.classify", "svdvals", True, {"svd.calls": None, "svd.cells": _svd_cells}),
    ("geometry.curve", "bundlelab.geometry", "boundary_curve", True, {"geometry.curve_points": _size}),
    ("geometry.curve", "bundlelab.geometry", "_refine_to_spacing", True,
     {"geometry.curve_points": _size}),
    ("geometry.winding", "bundlelab.geometry", "winding_index", True, {"geometry.winding_calls": None}),
    ("geometry.label", "bundlelab.geometry", "index_map", True, {}),
    ("cli.write", "bundlelab.cli", "_write_json", True, {"cli.write_bytes": _file_bytes}),
    ("cli.write", "bundlelab.cli", "emit_svg", True, {"cli.write_bytes": _file_bytes}),
]

# layer -> the metric that carries its self time
TIME_METRIC = {
    "blaschke.fiber": "blaschke.fiber_s",
    "classify.match": "classify.match_s",
    "monodromy.track": "monodromy.track_s",
    "monodromy.outer": "monodromy.outer_s",
    "funcspec.reduce": "funcspec.reduce_s",
    "frames.build": "frames.build_s",
    "series.conv": "series.conv_s",
    "svd": "svd.time_s",
    "geometry.curve": "geometry.curve_s",
    "geometry.winding": "geometry.winding_s",
    "geometry.label": "geometry.label_s",
    "cli.write": "cli.write_s",
}

SPAN_LIMIT = 50_000  # spans kept for the trace file; totals keep counting


class Tracer:
    """Installs the wrappers, accumulates self time and counts, keeps spans."""

    def __init__(self):
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans = []  # (id, parent id, layer, start, end)
        self.absent = []
        self._stack = []  # [span id, child time] of the open wrapped calls
        self._next_id = 0
        self._restore = []
        self._t0 = time.perf_counter()

    def install(self):
        for layer, modname, attr, timed, counters in TARGETS:
            owner, name = self._resolve(modname, attr)
            if owner is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            original = getattr(owner, name)
            wrapper = self._wrap(layer, original, timed, counters)
            setattr(owner, name, wrapper)
            self._restore.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    @staticmethod
    def _resolve(modname, attr):
        try:
            owner = importlib.import_module(modname)
        except ImportError:
            return None, None
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None, None
        if not callable(getattr(owner, name, None)):
            return None, None
        return owner, name

    def _wrap(self, layer, fn, timed, counters):
        tracer = self

        def count(args, kwargs, out, exc):
            for key, measure in counters.items():
                tracer.counts[key] += 1 if measure is None else measure(args, kwargs, out, exc)

        if not timed:
            def counting(*args, **kwargs):
                try:
                    out = fn(*args, **kwargs)
                except Exception as exc:
                    count(args, kwargs, None, exc)
                    raise
                count(args, kwargs, out, None)
                return out

            return counting

        def timing(*args, **kwargs):
            span = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span, 0.0]
            tracer._stack.append(frame)
            out = exc = None
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - start
                tracer.self_time[layer] += dur - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                if len(tracer.spans) < SPAN_LIMIT:
                    tracer.spans.append(
                        (span, parent, layer, start - tracer._t0, end - tracer._t0))
                count(args, kwargs, out, exc)

        return timing

    def metrics(self, ops):
        """Every per-layer metric, as time or work per attempted operation."""
        c = self.counts
        out = {}
        for name in PER_LAYER:
            out[name] = c.get(name, 0.0) / ops
        for layer, name in TIME_METRIC.items():
            out[name] = self.self_time.get(layer, 0.0) / ops
        for name, ok, total in (
            ("monodromy.loops_ok_ratio", "monodromy.loops_ok", "monodromy.loops"),
            ("monodromy.candidates_ok_ratio", "monodromy.candidates_ok", "monodromy.outer_calls"),
        ):
            out[name] = c[ok] / c[total] if c.get(total) else 0.0
        return out

    def report_absent(self):
        for name in self.absent:
            print(f"perfbench: layer target {name} is absent; its metrics read 0",
                  file=sys.stderr)
