"""Spans around the calls into each multitime module, and the self-time
arithmetic that turns them into per-layer numbers.

A span is recorded by a wrapper that the benchmark installs over a public
name, in the namespace where callers look the name up.  The modules bind
``evaluate`` and the ``numdiff`` functions with ``from .x import y``, so
the wrappers go into the importing modules (``multitime.classical.evaluate``
and so on), never into ``multitime.expr`` itself: the recursion inside
``evaluate`` stays unwrapped and ``expr.evaluate.calls`` counts top-level
evaluations.  Methods are wrapped on their class.

Each span records its id, layer, start, end, parent span and thread.
Spans are kept in memory, one compact buffer per thread, and written out
when the traced pass ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array

import numpy as np

#: the layers, in the order of their codes in a span array
LAYERS = (
    "expr.evaluate",
    "expr.parse",
    "numdiff",
    "classical.rhs",
    "classical.integrate",
    "classical.defect",
    "paths.query",
    "hj.velocity",
    "hj.foliation",
    "linops.propagator",
    "quantum.defect",
    "quantum.evolve",
    "cli.run_config",
)
CODE = {name: i for i, name in enumerate(LAYERS)}

#: columns of a span array
ID, LAYER, START, END, PARENT, THREAD = range(6)


def _targets():
    """(layer, owner, attribute) for every public name that is wrapped."""
    from multitime import classical, cli, expr, hj, linops, numdiff, paths, quantum

    return [
        *[("expr.evaluate", m, "evaluate") for m in (classical, hj, numdiff, quantum)],
        *[("expr.parse", m, "parse_expression")
          for m in (classical, hj, quantum, expr)],
        *[("numdiff", m, name) for m in (classical, hj)
          for name in ("partial_derivative", "gradient", "mixed_partial",
                       "diff_callable")],
        *[("classical.rhs", owner, name) for owner, name in (
            (classical.PhaseVectorField, "eval_v"),
            (classical.PhaseVectorField, "eval_w"),
            (classical.HamiltonianPair, "flow"))],
        *[("classical.integrate", classical, name) for name in (
            "evolve_equal_time", "evolve_full_grid", "grid_path_independence",
            "validity_residual", "cjs_demo")],
        ("classical.defect", classical, "classical_consistency_defect"),
        *[("paths.query", paths.WorldLine, name)
          for name in ("x_at", "p_at", "dxdt_at", "dpdt_at")],
        *[("hj.velocity", hj.HJFunction, name) for name in ("grad_x", "velocity")],
        *[("hj.foliation", hj, name)
          for name in ("hj_trajectories_foliation", "foliation_compare")],
        *[("linops.propagator", linops, name)
          for name in ("hermitian_propagator", "matrix_exponential")],
        ("quantum.defect", quantum, "quantum_consistency_defect"),
        *[("quantum.evolve", quantum, name) for name in (
            "evolve_staircase", "diagonal_evolution", "rectangle_holonomy")],
        ("cli.run_config", cli, "run_config"),
    ]


class _Buffer:
    """Open-span stack and closed spans of one thread."""

    def __init__(self, index: int):
        self.index = index
        self.stack: list[int] = []
        self.spans = array("d")  # id, layer, start, end, parent per span


class Tracer:
    """Collects spans from every thread that calls a wrapped name."""

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._main = self._buffer()

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buffer = buf
            return buf

    def wrap(self, layer: str, fn):
        code = float(CODE[layer])
        clock = time.perf_counter
        ids = self._ids
        main_stack = self._main.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            # a worker thread's outermost span was caused by whatever the
            # main thread has open (the CLI's pool runs inside run_config)
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if buf is not self._main and main_stack else -1
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buf.spans.extend((sid, code, start, end, parent))

        return traced

    def install(self):
        """Wrap every target that exists; return a function that undoes it."""
        undo = []
        for layer, owner, name in _targets():
            fn = owner.__dict__.get(name)
            if fn is None:
                continue
            setattr(owner, name, self.wrap(layer, fn))
            undo.append((owner, name, fn))

        def uninstall():
            for owner, name, fn in reversed(undo):
                setattr(owner, name, fn)

        return uninstall

    def spans(self) -> np.ndarray:
        """All closed spans as an (N, 6) array sorted by id."""
        parts = []
        for buf in self._buffers:
            a = np.frombuffer(buf.spans, dtype=float).reshape(-1, 5)
            parts.append(np.column_stack([a, np.full(len(a), float(buf.index))]))
        out = np.concatenate(parts) if parts else np.zeros((0, 6))
        return out[np.argsort(out[:, ID], kind="stable")]


def self_times(spans: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Children on the parent's own thread run one after another, so they
    cover the sum of their durations.  Children on other threads may
    overlap each other; for their parents the covered time is the length
    of the union of the children's intervals.
    """
    dur = spans[:, END] - spans[:, START]
    has_parent = spans[:, PARENT] >= 0
    pidx = np.searchsorted(spans[:, ID], spans[has_parent, PARENT])
    covered = np.bincount(pidx, weights=dur[has_parent], minlength=len(spans))
    children = spans[has_parent]
    foreign = children[:, THREAD] != spans[pidx, THREAD]
    for p in np.unique(pidx[foreign]):
        kids = children[pidx == p]
        kids = kids[np.argsort(kids[:, START])]
        union, reach = 0.0, -np.inf
        for start, end in kids[:, [START, END]]:
            if end > reach:
                union += end - max(start, reach)
                reach = end
        covered[p] = union
    return dur - covered


def layer_totals(spans: np.ndarray) -> dict:
    """Per-layer entry counts and summed self times of one span array.

    A call counts when it enters the layer: its parent span belongs to
    another layer or there is none (``velocity`` calling ``grad_x`` is one
    ``hj.velocity`` call).  ``evals_in_numdiff`` counts evaluations whose
    parent span is a ``numdiff`` span.
    """
    layer = spans[:, LAYER].astype(int)
    has_parent = spans[:, PARENT] >= 0
    parent_layer = np.full(len(spans), -1)
    parent_layer[has_parent] = layer[
        np.searchsorted(spans[:, ID], spans[has_parent, PARENT])]
    entries = parent_layer != layer
    own = self_times(spans)
    calls = np.bincount(layer[entries], minlength=len(LAYERS))
    selfs = np.bincount(layer, weights=own, minlength=len(LAYERS))
    evals_in_numdiff = int(np.sum((layer == CODE["expr.evaluate"])
                                  & (parent_layer == CODE["numdiff"])))
    return {
        "calls": {name: int(calls[i]) for i, name in enumerate(LAYERS)},
        "self_s": {name: float(selfs[i]) for i, name in enumerate(LAYERS)},
        "evals_in_numdiff": evals_in_numdiff,
        "spans": len(spans),
    }


def run_config_durations(spans: np.ndarray) -> list[float]:
    """Durations of the ``run_config`` spans, in call order."""
    rows = spans[spans[:, LAYER] == CODE["cli.run_config"]]
    return (rows[:, END] - rows[:, START]).tolist()
