"""n-paths: one world line per particle, each a graph over its own time.

Samples carry the state derivatives, so queries between sample times use
cubic Hermite interpolation (third-order accurate without re-integration).
``scipy.interpolate`` is imported when the first world line is built, not
with this module, so runs that build none start with numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reports import write_csv

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
        from scipy.interpolate import CubicHermiteSpline

        self.t = np.asarray(self.t, float)
        for name in ("x", "p", "dxdt", "dpdt"):
            arr = np.atleast_2d(np.asarray(getattr(self, name), float))
            if arr.shape[0] != len(self.t):
                arr = arr.T
            setattr(self, name, arr)
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        self._x_spline = CubicHermiteSpline(self.t, self.x, self.dxdt)
        self._p_spline = CubicHermiteSpline(self.t, self.p, self.dpdt)
        self._dx_spline = self._x_spline.derivative()
        self._dp_spline = self._p_spline.derivative()

    @property
    def t_min(self) -> float:
        return float(self.t[0])

    @property
    def t_max(self) -> float:
        return float(self.t[-1])

    def _check(self, time: float) -> None:
        if time < self.t_min - 1e-12 or time > self.t_max + 1e-12:
            raise PathRangeError(
                f"time {time} outside sampled range [{self.t_min}, {self.t_max}]"
            )

    def x_at(self, time: float) -> np.ndarray:
        self._check(time)
        return np.asarray(self._x_spline(time), float)

    def p_at(self, time: float) -> np.ndarray:
        self._check(time)
        return np.asarray(self._p_spline(time), float)

    def dxdt_at(self, time: float) -> np.ndarray:
        self._check(time)
        return np.asarray(self._dx_spline(time), float)

    def dpdt_at(self, time: float) -> np.ndarray:
        self._check(time)
        return np.asarray(self._dp_spline(time), float)


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
        rows = []
        for j, line in enumerate(self.lines, start=1):
            arrays = [getattr(line, name) for name in names]
            for i in range(len(line.t)):
                rows.append([j, repr(float(line.t[i]))]
                            + [repr(float(v)) for arr in arrays for v in arr[i]])
        return columns, rows

    def export_csv(self, path: str) -> None:
        write_csv(path, *self.csv_table())
