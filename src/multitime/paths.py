"""Phase points, n-paths and the sample-grid evaluator ``_defect_values``,
shared by the classical and HJ formalisms.

An n-path is one world line per particle, each a graph over its own time.
Samples carry the state derivatives, so queries between sample times use
cubic Hermite interpolation (third-order accurate without re-integration).
``hermite_at`` is the one evaluator: it builds the cubic of only the
intervals a query falls in, with the formulas of scipy's
``CubicHermiteSpline`` element by element, and sums it as scipy's
``PPoly`` does, so values match scipy's bit for bit.
"""

from __future__ import annotations

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
        if np.any(np.diff(self.t) <= 0):
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
    both ends, summed as scipy's ``PPoly`` sums them."""
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
        if derivative:
            pieces = [3.0 * pieces[0], 2.0 * pieces[1], pieces[2]]
        s = (times - t[i])[..., None]
        value, power = 0.0 + pieces[-1], 1.0
        for c in pieces[-2::-1]:
            power = power * s
            value = value + c * power
    return value


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
        """Largest sampled |dx/dt|; >= 1 means a non-timelike sample.  A
        speed whose square overflows reads inf, without a warning."""
        with np.errstate(over="ignore"):
            return max(float(np.max(np.linalg.norm(line.dxdt, axis=1)))
                       for line in self.lines)

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
