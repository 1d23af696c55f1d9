"""Phase points, n-paths, the sample-grid evaluator ``_defect_values`` and
the one Euclidean norm ``_norms``, shared by the classical and HJ
formalisms.  Every norm and light-cone test takes the exact power-of-two
scale of ``_scaled``, so that only a norm beyond the float range overflows.

An n-path is one world line per particle, each a graph over its own time.
Samples carry the state derivatives, so queries between sample times use
cubic Hermite interpolation (third-order accurate without re-integration).
``hermite_at`` is the one evaluator: it builds the cubic of only the
intervals a query falls in, with the formulas of scipy's
``CubicHermiteSpline`` element by element, and sums it as scipy's
``PPoly`` does, so values match scipy's bit for bit.  It has two routes
that agree bit for bit: an array of times goes through numpy, and one
time (a Python float or int) through the same operations in the same
order in Python floats, free of numpy's fixed cost per call; a time the
float route does not clear takes the array route.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .expr import check_steps, phase_names

__all__ = ["PhasePoint", "WorldLine", "NPath", "PathRangeError", "hermite_at"]


class PathRangeError(ValueError):
    """Query time outside the sampled range of a world line."""


class PhasePoint:
    """Positions and momenta of all particles plus the time tuple: times
    (n,), x and p (n, d)."""

    def __init__(self, times: np.ndarray, x: np.ndarray, p: np.ndarray):
        self.times = np.atleast_1d(np.asarray(times, float))
        self.x = np.atleast_2d(np.asarray(x, float))
        self.p = np.atleast_2d(np.asarray(p, float))
        if not (len(self.times) == self.x.shape[0] == self.p.shape[0]):
            raise ValueError("inconsistent particle count in PhasePoint")
        if self.p.shape != self.x.shape:
            raise ValueError(f"p: expected the shape of x, {self.x.shape}, got {self.p.shape}")

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def state(self) -> np.ndarray:
        """The flat state (x, p) the RK4 loops advance; ``reshape(2, n, d)``
        gives x and p back."""
        return np.concatenate([self.x.ravel(), self.p.ravel()])


class WorldLine:
    """Sampled world line of one particle: t strictly increasing, with
    x, p of shape (len(t), d) and their time derivatives alongside."""

    def __init__(self, t: np.ndarray, x: np.ndarray, p: np.ndarray, dxdt: np.ndarray,
                 dpdt: np.ndarray):
        self.t = np.asarray(t, float)
        self.x, self.p, self.dxdt, self.dpdt = samples = [
            np.asarray(a, float) for a in (x, p, dxdt, dpdt)]
        if len(self.t) < 2 or {a.shape for a in samples} != {(len(self.t), self.x.shape[-1])}:
            raise ValueError("a world line needs two or more samples, and x, p, "
                             "dxdt and dpdt of one shape (len(t), d)")
        if not all(np.isfinite(a).all() for a in [self.t, *samples]):
            raise ValueError("world line samples must be finite")
        if np.any(self.t[1:] <= self.t[:-1]):  # no difference, which may overflow
            raise ValueError("sample times must be strictly increasing")

    @property
    def t_min(self) -> float:
        return float(self.t[0])

    @property
    def t_max(self) -> float:
        return float(self.t[-1])

    def x_at(self, time) -> np.ndarray:
        return hermite_at(self.t, self.x, self.dxdt, time)

    def p_at(self, time) -> np.ndarray:
        return hermite_at(self.t, self.p, self.dpdt, time)

    def dxdt_at(self, time) -> np.ndarray:
        return hermite_at(self.t, self.x, self.dxdt, time, derivative=True)

    def dpdt_at(self, time) -> np.ndarray:
        return hermite_at(self.t, self.p, self.dpdt, time, derivative=True)


def hermite_at(t: np.ndarray, y: np.ndarray, dydt: np.ndarray, time,
               derivative: bool = False) -> np.ndarray:
    """The cubic Hermite interpolant of the samples ``y`` and ``dydt``, of
    shape (len(t), d), at the strictly increasing times ``t`` (two or
    more), or with ``derivative`` its time derivative: at one time, shape
    (d,), or at an array of times, shape (len(time), d).  A time beyond
    [t[0], t[-1]] by more than 1e-12, or NaN, raises PathRangeError.

    Each query's interval [t[i], t[i+1]] gets the coefficients of s^3,
    s^2, s, 1 (s = time - t[i]) of the cubic that matches y and dydt at
    both ends, summed as scipy's ``PPoly`` sums them.  Where that overflows
    (rates near the largest float, which the RK4 loops step), or where a
    coefficient of s^3 or s^2 is subnormal or the time is within 2^-340
    (about 4e-103) of its knot, so that a power of s may be, the entry is
    taken again in scaled form (``_hermite_scaled``): finite and accurate
    wherever the interpolant is well inside the float range.

    One time given as a Python float or int is first tried by
    ``_hermite_float``, which gives the same bits at a fraction of the
    cost; where it would raise or take an entry again, the array route
    below does, as for any other time."""
    if isinstance(time, (int, float)):
        value = _hermite_float(t, y, dydt, float(time), derivative)
        if value is not None:
            return value
    times = np.asarray(time, float)
    lo, hi = float(t[0]), float(t[-1])
    # not "inside", so that a NaN time, which fails both tests, is outside
    outside = ~((times >= lo - 1e-12) & (times <= hi + 1e-12))
    if np.any(outside):
        first = time if times.ndim == 0 else times[outside][0]
        raise PathRangeError(f"time {first} outside sampled range [{lo}, {hi}]")
    # the interval: the inner knots at or before each time (at most len(t) - 2)
    i = np.searchsorted(t[1:-1], times, side="right")
    # terms that overflow read inf or NaN, without a warning, for the caller
    # to refuse: the RK4 loops step rates up to the largest float
    with np.errstate(over="ignore", invalid="ignore"):
        dt = (t[i + 1] - t[i])[..., None]
        slope = (y[i + 1] - y[i]) / dt
        curve = (dydt[i] + dydt[i + 1] - 2 * slope) / dt
        pieces = [curve / dt, (slope - dydt[i]) / dt - curve, dydt[i], y[i]]
        cubic, square = pieces[:2]  # the coefficients of s^3 and s^2
        if derivative:
            pieces = [3.0 * pieces[0], 2.0 * pieces[1], pieces[2]]
        s = (times - t[i])[..., None]
        value, power = 0.0 + pieces[-1], 1.0
        for c in pieces[-2::-1]:
            power = power * s
            value = value + c * power
        # taken again: a value not finite, or summed from a subnormal
        # coefficient (binary exponent below -1021) or from a power of s that
        # may be one (|s| < 2^-340), which keeps fewer bits
        redo = (~np.isfinite(value) | (np.frexp(s)[1] <= -340)
                | (np.frexp(cubic)[1] < -1021) | (np.frexp(square)[1] < -1021))
        if redo.any():
            scaled = _hermite_scaled(dt, y[i], y[i + 1], dydt[i], dydt[i + 1], s, derivative)
            value = np.where(redo, scaled, value)
    return value


def _hermite_float(t: np.ndarray, y: np.ndarray, dydt: np.ndarray, time: float,
                   derivative: bool) -> np.ndarray | None:
    """``hermite_at`` at the one time ``time``, its interval's knot rows read
    as Python floats and its cubic summed component by component with the
    array route's operations in their order, so with its bits; None, for
    the array route to take, where that route raises (a time out of range
    or NaN) or takes an entry again."""
    if not float(t[0]) - 1e-12 <= time <= float(t[-1]) + 1e-12:
        return None
    i = int(t[1:-1].searchsorted(time, side="right"))
    t0, t1 = t[i:i + 2].tolist()
    dt, s = t1 - t0, time - t0
    if dt == 0.0 or math.frexp(s)[1] <= -340:  # a zero dt would raise in floats
        return None
    (y0s, y1s), (d0s, d1s) = y[i:i + 2].tolist(), dydt[i:i + 2].tolist()
    values = []
    for y0, y1, d0, d1 in zip(y0s, y1s, d0s, d1s):
        slope = (y1 - y0) / dt
        curve = (d0 + d1 - 2 * slope) / dt
        cubic, square = curve / dt, (slope - d0) / dt - curve
        if math.frexp(cubic)[1] < -1021 or math.frexp(square)[1] < -1021:
            return None
        if derivative:
            value = 0.0 + d0 + 2.0 * square * s + 3.0 * cubic * (s * s)
        else:
            value = 0.0 + y0 + d0 * s + square * (s * s) + cubic * (s * s * s)
        if not math.isfinite(value):
            return None
        values.append(value)
    return np.array(values)


def _hermite_scaled(dt, y0, y1, d0, d1, s, derivative: bool) -> np.ndarray:
    """``hermite_at``'s cubic on the interval of length ``dt`` from y0 to
    y1 with the end rates d0, d1, at s from its start (or its derivative),
    with no intermediate overflow: in u = s / dt it is y0 + s * P(u) with
    P(u) = d0 + B u + C u^2, B = 2(m - d0) + (m - d1) and
    C = (d0 - m) + (d1 - m), m the slope (y1 - y0) / dt, so that each
    coefficient of s is divided by dt before the terms are added.  The
    rates are scaled by a power of two 2^k near the largest of them and the
    slope, and the sum with y0 by one near the larger term, so that only a
    result outside the float range overflows.  Where m, d0 and d1 are equal
    the derivative is d0 exactly."""
    dt_m, dt_e = np.frexp(dt)
    # y1 - y0 as rise_m * 2^rise_e, halved first where it overflows
    rise = y1 - y0
    over = np.isinf(rise)
    rise_m, rise_e = np.frexp(np.where(over, y1 * 0.5 - y0 * 0.5, rise))
    rise_e = rise_e + over
    # 2^k at or above each nonzero rate and the slope (a zero gives 2^0)
    k = np.maximum(np.maximum(np.frexp(d0)[1], np.frexp(d1)[1]),
                   np.where(rise == 0.0, 0, rise_e + 1 - dt_e))
    m = np.ldexp(rise_m / dt_m, rise_e - dt_e - k)
    r0, r1 = np.ldexp(d0, -k), np.ldexp(d1, -k)
    b, c = 2.0 * (m - r0) + (m - r1), (r0 - m) + (r1 - m)
    u = s / dt
    if derivative:
        return np.ldexp(r0 + u * (2.0 * b + 3.0 * u * c), k)
    s_m, s_e = np.frexp(s)
    step = (r0 + u * (b + u * c)) * s_m  # s * P(u) / 2^(k + s_e)
    j = np.maximum(np.frexp(y0)[1], np.frexp(step)[1] + k + s_e + 1)
    value = np.ldexp(np.ldexp(y0, -j) + np.ldexp(step, k + s_e - j), j)
    return np.where(step == 0.0, y0, value)


def _squares(vectors: np.ndarray) -> np.ndarray:
    """``v @ v`` of every vector v along the last axis, bit for bit as
    ``v @ v`` computes each on its own (stacked matmul takes the same dot);
    one that overflows reads inf, without a warning."""
    with np.errstate(over="ignore"):
        return np.matmul(vectors[..., None, :], vectors[..., :, None])[..., 0, 0]


def _scaled(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each vector along the last axis times 2^-k, and k, the binary exponent
    of its largest |component| (an infinite one stays so): a power of two
    scales every square, sum and root exactly, and the scaled squares
    neither overflow nor, where they decide, fall below the normal range."""
    top = np.minimum(np.max(np.abs(vectors), axis=-1, initial=0.0), np.finfo(float).max)
    k = np.frexp(top)[1]
    return np.ldexp(vectors, -k[..., None]), k


def _norms(vectors: np.ndarray) -> np.ndarray:
    """|v| of every vector v along the last axis, ``sqrt(v @ v)`` of v
    ``_scaled`` by 2^-k and scaled back: bit for bit that wherever its squares
    are normal and finite, and inf, without a warning, only beyond the floats."""
    unit, k = _scaled(vectors)
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(_squares(unit)), k)


class NPath:
    """One world line per particle, ``lines[j - 1]`` for particle j."""

    def __init__(self, lines: list[WorldLine]):
        self.lines = lines

    @property
    def n(self) -> int:
        return len(self.lines)

    @property
    def d(self) -> int:
        return self.lines[0].x.shape[1]

    def line(self, j: int) -> WorldLine:
        """World line of particle ``j`` (1-based)."""
        if not 1 <= j <= self.n:
            raise ValueError(f"particle {j} outside 1..{self.n}")
        return self.lines[j - 1]

    def common_time_range(self) -> tuple[float, float]:
        lo = max(line.t_min for line in self.lines)
        hi = min(line.t_max for line in self.lines)
        return lo, hi

    def max_speed(self) -> float:
        """Largest sampled |dx/dt|, each by ``_norms``; >= 1 means a
        non-timelike sample."""
        return max(float(np.max(_norms(line.dxdt))) for line in self.lines)

    def csv_table(self) -> tuple[list[str], list[list]]:
        """The n-path CSV layout: columns, then one row per sample of each
        world line with floats written by ``repr`` (exact round trip)."""
        names = ("x", "p", "dxdt", "dpdt")
        columns = ["particle", "t"] + [f"{name}_{i + 1}" for name in names
                                       for i in range(self.d)]
        rows = [[j, repr(t)] + [repr(v) for v in values]
                for j, line in enumerate(self.lines, start=1)
                for t, values in zip(line.t.tolist(), np.hstack(
                    [getattr(line, name) for name in names]).tolist())]
        return columns, rows


def _defect_values(compiled: Callable[[], Callable], outputs: int, samples: np.ndarray,
                   n: int, d: int, h: float | None) -> np.ndarray:
    """|f(times, (x, p))| at each row of ``samples`` (times, x rows, p rows),
    an (m, ``outputs``) array, f the memoised function ``compiled()``.
    ValueError for a bad step or samples not shaped (m, n + 2·n·d).  A grid
    raises the error that its rows one by one raise first: one vectorised
    test finds the first row at which h rounds away, the rows before it are
    evaluated (a DomainError comes first), then ``check_steps`` raises there."""
    check_steps(h, (), ())
    samples, width = np.asarray(samples, float), n + 2 * n * d
    if samples.ndim != 2 or samples.shape[1] != width:
        raise ValueError(f"samples: expected shape (m, {width}), got {samples.shape}")
    rounds = [] if h is None else np.flatnonzero((samples + h == samples)
                                                 | (samples - h == samples))
    stop = int(rounds[0]) // width if len(rounds) else len(samples)
    f = compiled() if stop else None
    values = [f(ts, y) for ts, y in zip(samples[:stop, :n].tolist(), samples[:stop, n:].tolist())]
    if stop < len(samples):
        check_steps(h, sum(phase_names(n, d), ()), samples[stop].tolist())
    return np.abs(np.reshape(values, (stop, outputs)))
