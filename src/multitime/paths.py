"""n-paths: one world line per particle, each a graph over its own time.

Samples carry the state derivatives, so queries between sample times use
cubic Hermite interpolation (third-order accurate without re-integration).
The pieces and their evaluation follow scipy's ``CubicHermiteSpline`` and
``PPoly`` operation for operation, so values match scipy's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WorldLine", "NPath", "PathRangeError"]


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
        self._x = _hermite_pieces(self.t, self.x, self.dxdt)
        self._p = _hermite_pieces(self.t, self.p, self.dpdt)
        self._dxdt = [3.0 * self._x[0], 2.0 * self._x[1], self._x[2]]
        self._dpdt = [3.0 * self._p[0], 2.0 * self._p[1], self._p[2]]

    @property
    def t_min(self) -> float:
        return float(self.t[0])

    @property
    def t_max(self) -> float:
        return float(self.t[-1])

    def _at(self, pieces: list[np.ndarray], time) -> np.ndarray:
        """``pieces`` (highest power first) at one time, shape (d,), or at an
        array of times, shape (len(time), d), summed as scipy's ``PPoly``."""
        times = np.asarray(time, float)
        outside = (times < self.t_min - 1e-12) | (times > self.t_max + 1e-12)
        if np.any(outside):
            first = time if times.ndim == 0 else times[outside][0]
            raise PathRangeError(f"time {first} outside sampled range "
                                 f"[{self.t_min}, {self.t_max}]")
        i = np.clip(np.searchsorted(self.t, times, side="right") - 1, 0, len(self.t) - 2)
        s = (times - self.t[i])[..., None]
        value, power = 0.0 + pieces[-1][i], 1.0
        for c in pieces[-2::-1]:
            power = power * s
            value = value + c[i] * power
        return value

    def x_at(self, time) -> np.ndarray:
        return self._at(self._x, time)

    def p_at(self, time) -> np.ndarray:
        return self._at(self._p, time)

    def dxdt_at(self, time) -> np.ndarray:
        return self._at(self._dxdt, time)

    def dpdt_at(self, time) -> np.ndarray:
        return self._at(self._dpdt, time)


def _hermite_pieces(t: np.ndarray, y: np.ndarray, dydt: np.ndarray) -> list[np.ndarray]:
    """Coefficients of s^3, s^2, s, 1 (s = time - t[i]) of the cubic on each
    interval [t[i], t[i+1]] that matches y and dydt at both ends."""
    dt = np.diff(t)[:, None]
    slope = np.diff(y, axis=0) / dt
    curve = (dydt[:-1] + dydt[1:] - 2 * slope) / dt
    return [curve / dt, (slope - dydt[:-1]) / dt - curve, dydt[:-1], y[:-1]]


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
