"""Traced mode: spans around the public functions of each maxrs module.

`install` replaces each measured function, in its own module and in every
maxrs module that imported it by name, with a wrapper that records one span
(name, start, end, parent span, operation id) in a `Recorder` and updates
the layer's counters.  Spans stay in memory until `Recorder.save` writes
them out.  `layer_metrics` turns them into the per-layer metrics.

A run stops after a fixed time, so a faster program completes more
operations.  Totals over the run would then grow with speed; the metrics
are therefore per timed operation (calls, self time and counters of the
work inside operations), except for each layer's set-up time, which is
per run, and the peaks, which are maxima.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Functions measured per layer (module).  "DynamicMaxRS.x" names a method.
LAYERS: dict[str, tuple[str, ...]] = {
    "dynamic": (
        "DynamicMaxRS.bulk_build",
        "DynamicMaxRS.insert",
        "DynamicMaxRS.delete",
        "DynamicMaxRS.query",
        "universe_with_support",
    ),
    "sample_solver": ("max_weighted_sample", "max_colored_sample"),
    "colored_sample": ("colored_solve",),
    "colored_exact": (
        "exact_colored_maxrs_arrays",
        "decomposition_max_depth",
        "build_decomposition",
        "traverse_depths",
    ),
    "colored_approx": ("approx_colored_maxrs", "plan_color_sample"),
    "disk_union": ("dedupe_exact", "perturb_centers", "union_arcs", "arc_intersections"),
    "depths": (
        "dedupe_centers",
        "color_groups",
        "weighted_depths",
        "weighted_depths_u",
        "colored_depths",
        "colored_depths_u",
        "mass_within_box",
    ),
    "geometry": ("sphere_samples_keyed", "cell_stream_keys", "box_dist2", "cells_intersecting_ball"),
    "convolution": ("minplus_via_batched", "solve_batched_1d", "minplus_via_bsei", "solve_bsei"),
    "balls": ("centers_array", "weights_array", "colors_array"),
}

# Counters summed over the work inside timed operations, reported per
# operation, with their units.
COUNTERS: dict[str, str] = {
    "dynamic.rebuilds": "count/op",
    "dynamic.rebuild_s": "s/op",
    "dynamic.cells_activated": "count/op",
    "dynamic.cells_deactivated": "count/op",
    "sample_solver.cells_evaluated": "count/op",
    "colored_exact.trapezoids": "count/op",
    "colored_approx.kept_colors": "count/op",
    "colored_approx.colors_seen": "count/op",
    "colored_approx.exact_on_full": "count/op",
    "disk_union.arcs": "count/op",
    "disk_union.crossings": "count/op",
    "depths.pairs": "count/op",
    "geometry.samples_drawn": "count/op",
    "geometry.box_pairs": "count/op",
    "convolution.candidates": "count/op",
    "balls.rows_converted": "count/op",
}

# Maxima over the whole run, set-up included.
PEAKS: dict[str, str] = {
    "dynamic.active_cells_max": "count",
    "dynamic.sample_budget": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    out = {}
    for layer, funcs in LAYERS.items():
        for f in funcs:
            short = f.rsplit(".", 1)[-1]
            out[f"{layer}.{short}.calls"] = "count/op"
            out[f"{layer}.{short}.self_s"] = "s/op"
        out[f"{layer}.setup_s"] = "s"
    out.update(COUNTERS)
    out.update(PEAKS)
    out["loop.ops"] = "count"
    return out


class Recorder:
    """In-memory span store (parallel typed arrays) plus named counters.

    `op_id` is the timed operation under way: SETUP before the first one,
    BETWEEN_OPS while the benchmark checks a result."""

    SETUP = -1
    BETWEEN_OPS = -2

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.op_id = self.SETUP
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self.open_layers: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(float("nan"))
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> float:
        t = perf_counter()
        self.end[i] = t
        self._stack.pop()
        return t - self.start[i]

    def add(self, name: str, value) -> None:
        """Add to a per-operation counter; work outside operations is not counted."""
        if self.op_id >= 0:
            self.counts[name] += value

    def peak(self, name: str, value) -> None:
        self.peaks[name] = max(self.peaks[name], value)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every span and the name table to an .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to their parent's interval and merged, so children
    that overlap each other are not counted twice."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(len(start))
    kids = np.flatnonzero(parent >= 0)
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    cur, reach, lim = -1, 0.0, 0.0
    for i, p in zip(kids.tolist(), parent[kids].tolist()):
        if p != cur:
            cur, reach, lim = p, start[p], end[p]
        s = max(start[i], reach)
        e = min(end[i], lim)
        if e > s:
            covered[p] += e - s
            reach = e
    return (end - start) - covered


def layer_metrics(rec: Recorder, ops: int) -> dict[str, float]:
    """The per-layer metrics of a run that completed `ops` timed operations:
    per operation, calls and self time of each measured function over the
    spans inside operations, and the counters; per run, each layer's self
    time during set-up, the peaks, and `loop.ops`."""
    arr = rec.arrays()
    selfs = self_times(arr["start"], arr["end"], arr["parent"])
    n = len(rec.names)
    in_op = arr["op"] >= 0
    in_setup = arr["op"] == Recorder.SETUP
    calls = np.bincount(arr["name"][in_op], minlength=n)
    self_s = np.bincount(arr["name"][in_op], weights=selfs[in_op], minlength=n)
    setup_s = np.bincount(arr["name"][in_setup], weights=selfs[in_setup], minlength=n)
    per_op = 1.0 / max(ops, 1)
    by_span = {name: (calls[i] * per_op, self_s[i] * per_op) for i, name in enumerate(rec.names)}
    by_layer = Counter()
    for i, name in enumerate(rec.names):
        by_layer[name.split(".", 1)[0]] += float(setup_s[i])
    out = {}
    for name in metric_units():
        span, _, kind = name.rpartition(".")
        if name in COUNTERS:
            out[name] = rec.counts[name] * per_op
        elif name in PEAKS:
            out[name] = rec.peaks[name]
        elif name == "loop.ops":
            out[name] = ops
        elif kind == "calls":
            out[name] = float(by_span.get(span, (0, 0.0))[0])
        elif kind == "self_s":
            out[name] = float(by_span.get(span, (0, 0.0))[1])
        else:  # <layer>.setup_s
            out[name] = by_layer[span]
    return out


# -- counters ------------------------------------------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(x) -> int:
    return len(np.atleast_2d(np.asarray(x)))


def _dynamic_state(args, kwargs):
    s = args[0]
    return s.salt, s.n_active_cells


def _dynamic_update(rec, args, kwargs, out, before, dur):
    s = args[0] if before is not None else out
    salt0, cells0 = before if before is not None else (s.salt, 0)
    delta = s.n_active_cells - cells0
    rec.add("dynamic.cells_activated", max(delta, 0))
    rec.add("dynamic.cells_deactivated", max(-delta, 0))
    rec.peak("dynamic.active_cells_max", s.n_active_cells)
    rec.peak("dynamic.sample_budget", s.sample_budget)
    if s.salt != salt0:
        rec.add("dynamic.rebuilds", 1)
        rec.add("dynamic.rebuild_s", dur)


def _count(name, fn):
    def hook(rec, args, kwargs, out, before, dur):
        rec.add(name, fn(args, kwargs, out))

    return hook


def _cells_sampled(rec, args, kwargs, out, before, dur):
    rec.add("geometry.samples_drawn", out.shape[0] * out.shape[1])
    if rec.open_layers["sample_solver"]:
        rec.add("sample_solver.cells_evaluated", out.shape[0])


def _plan(rec, args, kwargs, out, before, dur):
    colors = _arg(args, kwargs, 0, "colors")
    rec.add("colored_approx.kept_colors", len(out.kept_colors))
    rec.add("colored_approx.colors_seen", len(np.unique(np.asarray(colors))))
    rec.add("colored_approx.exact_on_full", int(out.exact_on_full))


def _pairs(query_arg, query_name, centers_arg, centers_name):
    return _count(
        "depths.pairs",
        lambda a, k, o: _rows(_arg(a, k, query_arg, query_name)) * len(_arg(a, k, centers_arg, centers_name)),
    )


def _bsei_windows(a, k, o):
    n = len(o)
    return n * (n + 1) // 2


_BALL_ROWS = _count("balls.rows_converted", lambda a, k, o: len(_arg(a, k, 0, "balls")))

# (before, after) hooks per function; `before` sees the arguments only.
HOOKS = {
    "dynamic.bulk_build": (None, _dynamic_update),
    "dynamic.insert": (_dynamic_state, _dynamic_update),
    "dynamic.delete": (_dynamic_state, _dynamic_update),
    "colored_exact.build_decomposition": (
        None,
        _count("colored_exact.trapezoids", lambda a, k, o: len(o.cells)),
    ),
    "colored_approx.plan_color_sample": (None, _plan),
    "disk_union.union_arcs": (None, _count("disk_union.arcs", lambda a, k, o: len(o))),
    "disk_union.arc_intersections": (None, _count("disk_union.crossings", lambda a, k, o: len(o))),
    "depths.weighted_depths_u": (None, _pairs(0, "points", 1, "uniq")),
    "depths.colored_depths_u": (None, _pairs(0, "points", 1, "ucenters")),
    "depths.mass_within_box": (None, _pairs(0, "lo", 2, "centers")),
    "geometry.sphere_samples_keyed": (None, _cells_sampled),
    "geometry.box_dist2": (None, _count("geometry.box_pairs", lambda a, k, o: np.size(o))),
    "convolution.solve_batched_1d": (
        None,
        _count(
            "convolution.candidates",
            lambda a, k, o: len(a[0].lengths) * 2 * len(a[0].xs),
        ),
    ),
    "convolution.solve_bsei": (None, _count("convolution.candidates", _bsei_windows)),
    "balls.centers_array": (None, _BALL_ROWS),
    "balls.weights_array": (None, _BALL_ROWS),
    "balls.colors_array": (None, _BALL_ROWS),
}


# -- installation --------------------------------------------------------------


def _wrap(rec: Recorder, layer: str, span: str, fn):
    before, after = HOOKS.get(span, (None, None))

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        state = before(args, kwargs) if before else None
        rec.open_layers[layer] += 1
        i = rec.open(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = rec.close(i)
            rec.open_layers[layer] -= 1
        if after:
            after(rec, args, kwargs, out, state, dur)
        return out

    return traced


def install(rec: Recorder):
    """Wrap every function in LAYERS; returns a callable that undoes it."""
    mods = {layer: importlib.import_module(f"maxrs.{layer}") for layer in LAYERS}
    loaded = [m for name, m in sys.modules.items() if name == "maxrs" or name.startswith("maxrs.")]
    undo = []
    for layer, funcs in LAYERS.items():
        for f in funcs:
            owner_name, _, attr = f.rpartition(".")
            span = f"{layer}.{attr}"
            if owner_name:
                cls = getattr(mods[layer], owner_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(rec, layer, span, raw.__func__))
                else:
                    new = _wrap(rec, layer, span, raw)
                setattr(cls, attr, new)
                undo.append((cls, attr, raw))
                continue
            orig = getattr(mods[layer], attr)
            new = _wrap(rec, layer, span, orig)
            for m in loaded:
                for name, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, name, new)
                        undo.append((m, name, orig))

    def uninstall():
        for target, name, val in reversed(undo):
            setattr(target, name, val)

    return uninstall
