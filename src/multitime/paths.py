"""n-paths: one world line per particle, each a graph over its own time.

Samples carry the state derivatives, so queries between sample times use
cubic Hermite interpolation (third-order accurate without re-integration).
``hermite_at`` is the one evaluator: it builds the cubic of only the
intervals a query falls in, with the formulas of scipy's
``CubicHermiteSpline`` element by element, and sums it as scipy's
``PPoly`` does, so values match scipy's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WorldLine", "NPath", "PathRangeError", "hermite_at"]


class PathRangeError(ValueError):
    """Query time outside the sampled range of a world line."""


@dataclass
class WorldLine:
    """Sampled world line of one particle: t strictly increasing, with
    x, p of shape (len(t), d) and their time derivatives alongside."""

    t: np.ndarray
    x: np.ndarray
    p: np.ndarray
    dxdt: np.ndarray
    dpdt: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, float)
        self.x, self.p, self.dxdt, self.dpdt = samples = [
            np.asarray(a, float) for a in (self.x, self.p, self.dxdt, self.dpdt)]
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


@dataclass
class NPath:
    lines: list[WorldLine]

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
