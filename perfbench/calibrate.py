"""Reference work that measures how fast the machine runs right now.

The benchmark shares a few cores of a host with other tenants, and how
much work one CPU second does drifts with their load by tens of percent
over minutes, for CPU time as much as for wall time.  To take that drift
out of its timings the benchmark runs a fixed piece of reference work
after every piece of work it times, and scales each timed piece by the
machine speed measured just before and just after it.

The reference work is of the same kind as the work it scales:

* the *chunk*, for config runs inside the benchmark's process: a
  recursive ``match`` over small frozen dataclasses with float
  arithmetic and ``math`` calls, dict lookups, and numpy operations on
  arrays of a few elements, which is what multitime's hot paths are
  made of;
* the *import probe*, for fresh interpreters (set-up spawns and CLI
  processes), whose time is mostly start-up and imports: a fresh
  interpreter that imports numpy and ``scipy.interpolate``, the bulk of
  ``import multitime.cli``.

Neither runs any multitime code, and neither changes, so a change to
multitime moves only the timings they divide.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _Num:
    value: float


@dataclass(frozen=True)
class _Op:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class _Fn:
    func: str
    arg: object


_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp}


def _eval(node, env) -> float:
    match node:
        case _Num(value):
            return value
        case _Var(name):
            return float(env[name])
        case _Op(op, left, right):
            a = _eval(left, env)
            b = _eval(right, env)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            return a * b
        case _Fn(func, arg):
            return _FUNCS[func](_eval(arg, env))
    raise TypeError(node)


# H = 0.5*(p1^2 + p2^2) + 0.5*x1*x1 + 0.3*sin(x1 - x2)*cos(t)
_TREE = _Op("+", _Op("*", _Num(0.5), _Op("+", _Op("*", _Var("p1"), _Var("p1")),
                                           _Op("*", _Var("p2"), _Var("p2")))),
            _Op("+", _Op("*", _Num(0.5), _Op("*", _Var("x1"), _Var("x1"))),
                _Op("*", _Num(0.3), _Op("*", _Fn("sin", _Op("-", _Var("x1"), _Var("x2"))),
                                        _Fn("cos", _Var("t"))))))


def _unit() -> float:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    env = {"x1": 0.1, "x2": -0.2, "p1": 0.3, "p2": 0.05, "t": 0.0}
    h = 1e-5
    total = 0.0
    for step in range(60):
        env["t"] = step * 0.01
        for var in ("x1", "x2", "p1", "p2"):
            v = env[var]
            env[var] = v + h
            up = _eval(_TREE, env)
            env[var] = v - h
            down = _eval(_TREE, env)
            env[var] = v
            total += (up - down) / (2 * h)
    y = np.array([0.1, -0.2, 0.3, 0.05])
    for _ in range(40):
        k = np.sin(y) * 0.01
        y = y + 0.5 * k - np.cos(y) * 1e-3
    return total + float(y.sum())


#: units in one chunk
CHUNK_UNITS = 20
#: wall and CPU seconds one chunk and one import probe take at the
#: reference speed; timings are reported as the seconds they would have
#: taken at that speed (a 2-vCPU x86-64 Linux guest on a quiet host with
#: Python 3.11, numpy 2.4 and scipy 1.17 takes about this long; the
#: import probe's CPU time includes OpenBLAS's threads starting up)
REFERENCE_CHUNK_S = (0.15, 0.15)
REFERENCE_IMPORT_S = (0.6, 0.75)
#: the import probe's command line
IMPORT_PROBE = [sys.executable, "-c", "import numpy, scipy.interpolate"]


def chunk() -> tuple[float, float]:
    """Run one chunk; return its wall and CPU seconds."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for _ in range(CHUNK_UNITS):
        _unit()
    return time.perf_counter() - wall0, time.process_time() - cpu0


class Speed:
    """The machine's speed, measured by a probe (wall and CPU seconds of
    the reference work) after every timed piece of work.  A piece's time
    is scaled by the mean of the probes just before and just after it,
    so it reads what it would at the reference speed."""

    def __init__(self, probe, reference_s: tuple[float, float]):
        self.probe, self.reference_s = probe, reference_s
        probe()  # warm-up
        self.samples = [probe()]

    def scale(self, wall: float, cpu: float) -> tuple[float, float]:
        """Probe and return ``wall`` and ``cpu`` seconds of the piece of
        work that ended just before it, at reference speed."""
        self.samples.append(self.probe())
        (wall0, cpu0), (wall1, cpu1) = self.samples[-2:]
        ref_wall, ref_cpu = self.reference_s
        return (wall * 2 * ref_wall / (wall0 + wall1),
                cpu * 2 * ref_cpu / (cpu0 + cpu1))
