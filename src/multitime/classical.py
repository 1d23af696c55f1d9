"""Multi-time classical mechanics.

Phase-space vector fields (v_j, w_j) drive one world line per particle,
each parametrized by its own time.  The flow-commutation consistency
condition is

    D_j v_k = 0  and  D_j w_k = 0   for all j != k,

with D_j = d/dt_j + v_j . grad_{x_j} + w_j . grad_{p_j}.  The module also
builds n-paths by equal-time integration, tests their validity at
spacelike off-diagonal time choices, integrates the two-time full-grid
variant, and runs the no-interaction demonstration over a field family.
Every integration here and in the HJ module advances a flat state vector
with the one RK4 stepper ``rk4_step``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .expr import (Expression, compile_expression, free_variables,
                   parse_expression, variable_bindings)
from .numdiff import diff_callable
from .paths import NPath, WorldLine
from .reports import DefectReport, ResidualReport

__all__ = [
    "SpacetimePoint",
    "is_spacelike",
    "boost",
    "PhasePoint",
    "PhaseVectorField",
    "hamiltonian_vector_field",
    "classical_consistency_defect",
    "evolve_equal_time",
    "validity_residual",
    "GridSolution",
    "evolve_full_grid",
    "grid_path_independence",
    "cjs_demo",
    "rk4_step",
]


@dataclass(frozen=True)
class SpacetimePoint:
    """(t, x) with x of dimension d; natural units, c = 1."""

    t: float
    x: tuple[float, ...]

    @staticmethod
    def of(t: float, x) -> "SpacetimePoint":
        x = np.atleast_1d(np.asarray(x, float))
        return SpacetimePoint(float(t), tuple(float(v) for v in x))


def is_spacelike(points: Sequence[SpacetimePoint]) -> bool:
    """True iff all pairs are strictly spacelike: (dt)^2 < |dx|^2."""
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dt = points[i].t - points[j].t
            dx = np.asarray(points[i].x) - np.asarray(points[j].x)
            if dt * dt >= float(dx @ dx):
                return False
    return True


def boost(point: SpacetimePoint, rapidity: float, axis: int = 0) -> SpacetimePoint:
    """Lorentz boost along spatial ``axis`` with the given rapidity."""
    c, s = math.cosh(rapidity), math.sinh(rapidity)
    x = list(point.x)
    t_new = c * point.t - s * x[axis]
    x[axis] = -s * point.t + c * x[axis]
    return SpacetimePoint(t_new, tuple(x))


@dataclass
class PhasePoint:
    """Positions and momenta of all particles plus the time tuple."""

    times: np.ndarray  # (n,)
    x: np.ndarray  # (n, d)
    p: np.ndarray  # (n, d)

    def __post_init__(self):
        self.times = np.atleast_1d(np.asarray(self.times, float))
        self.x = np.atleast_2d(np.asarray(self.x, float))
        self.p = np.atleast_2d(np.asarray(self.p, float))
        if not (len(self.times) == self.x.shape[0] == self.p.shape[0]):
            raise ValueError("inconsistent particle count in PhasePoint")

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def bindings(self) -> dict[str, float]:
        return variable_bindings(self.times, self.x, self.p)

    def state(self) -> np.ndarray:
        """The flat state (x, p) the RK4 stepper advances; ``reshape(2, n, d)``
        gives x and p back."""
        return np.concatenate([self.x.ravel(), self.p.ravel()])


# A field component maps variable bindings to a real value.
Component = Callable[[Mapping[str, float]], float]


def _expr_component(expr: Expression) -> Component:
    return compile_expression(expr)


def _grad_component(expr: Expression, var: str, sign: float, h: float | None) -> Component:
    f = compile_expression(expr)
    return lambda b: sign * diff_callable(f, var, b, h=h)


@dataclass
class PhaseVectorField:
    """The fields (v_1, w_1, .., v_n, w_n) as per-component callables."""

    n: int
    d: int
    masses: tuple[float, ...]
    v: list[list[Component]]  # n lists of d components
    w: list[list[Component]]
    label: str = "field"

    def eval_v(self, j: int, bindings: Mapping[str, float]) -> np.ndarray:
        """v_j (1-based) at the bound phase-space point."""
        return np.array([c(bindings) for c in self.v[j - 1]])

    def eval_w(self, j: int, bindings: Mapping[str, float]) -> np.ndarray:
        return np.array([c(bindings) for c in self.w[j - 1]])

    @classmethod
    def from_expressions(cls, n: int, d: int, masses: Sequence[float],
                         v_exprs: Sequence[Sequence[str | Expression]],
                         w_exprs: Sequence[Sequence[str | Expression]],
                         label: str = "field") -> "PhaseVectorField":
        def compile_rows(rows):
            out = []
            for row in rows:
                comps = []
                for e in row:
                    expr = parse_expression(e) if isinstance(e, str) else e
                    _check_vars(expr, n, d)
                    comps.append(_expr_component(expr))
                out.append(comps)
            return out

        if len(v_exprs) != n or len(w_exprs) != n:
            raise ValueError(f"need {n} rows of v and w expressions")
        return cls(n, d, tuple(float(m) for m in masses),
                   compile_rows(v_exprs), compile_rows(w_exprs), label=label)

    @classmethod
    def free(cls, n: int, d: int, masses: Sequence[float]) -> "PhaseVectorField":
        """v_j = p_j / m_j, w_j = 0."""
        v = [[f"p{j + 1}_{dd + 1} / {masses[j]}" for dd in range(d)] for j in range(n)]
        w = [["0" for _ in range(d)] for _ in range(n)]
        return cls.from_expressions(n, d, masses, v, w, label="free")


def _check_vars(expr: Expression, n: int, d: int) -> None:
    allowed = {f"t{j + 1}" for j in range(n)}
    for j in range(n):
        for dd in range(d):
            allowed.add(f"x{j + 1}_{dd + 1}")
            allowed.add(f"p{j + 1}_{dd + 1}")
    extra = free_variables(expr) - allowed
    if extra:
        raise ValueError(f"undeclared variables {sorted(extra)} in field expression")


def hamiltonian_vector_field(h_exprs: str | Expression | Sequence[str | Expression],
                             n: int, d: int, masses: Sequence[float],
                             h: float | None = None) -> PhaseVectorField:
    """Field with v_j = grad_{p_j} H, w_j = -grad_{x_j} H.

    ``h_exprs`` is either a single Hamiltonian (every particle moves under
    it) or one partial Hamiltonian per particle (particle j moves under
    H_j).  Gradients are central differences.
    """
    if isinstance(h_exprs, (str, Expression)):
        exprs = [h_exprs] * n
    else:
        exprs = list(h_exprs)
        if len(exprs) != n:
            raise ValueError(f"need 1 or {n} Hamiltonian expressions")
    parsed = [parse_expression(e) if isinstance(e, str) else e for e in exprs]
    for e in parsed:
        _check_vars(e, n, d)

    v = [[_grad_component(parsed[j], f"p{j + 1}_{dd + 1}", 1.0, h)
          for dd in range(d)] for j in range(n)]
    w = [[_grad_component(parsed[j], f"x{j + 1}_{dd + 1}", -1.0, h)
          for dd in range(d)] for j in range(n)]
    return PhaseVectorField(n, d, tuple(float(m) for m in masses), v, w,
                            label="hamiltonian")


def classical_consistency_defect(field: PhaseVectorField, point: PhasePoint,
                                 h: float = 1e-4) -> DefectReport:
    """Sup-norm of (D_j v_k, D_j w_k) for every ordered pair j != k."""
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    b = point.bindings()
    n, d = field.n, field.d
    vj = [field.eval_v(j, b) for j in range(1, n + 1)]
    wj = [field.eval_w(j, b) for j in range(1, n + 1)]

    def apply_dj(j: int, comp: Component) -> float:
        val = diff_callable(comp, f"t{j}", b, h=h)
        for dd in range(d):
            val += vj[j - 1][dd] * diff_callable(comp, f"x{j}_{dd + 1}", b, h=h)
            val += wj[j - 1][dd] * diff_callable(comp, f"p{j}_{dd + 1}", b, h=h)
        return float(val)

    pairs = {}
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            if j == k:
                continue
            vals = [apply_dj(j, c) for c in field.v[k - 1]]
            vals += [apply_dj(j, c) for c in field.w[k - 1]]
            pairs[f"{j},{k}"] = max(abs(v) for v in vals)
    return DefectReport(pairs=pairs, max_defect=max(pairs.values(), default=0.0), h=h)


def rk4_step(f: Callable[[float, np.ndarray], np.ndarray], t: float,
             y: np.ndarray, h: float, k1: np.ndarray | None = None) -> np.ndarray:
    """One classical RK4 step of dy/dt = f(t, y) from (t, y) to t + h.

    ``k1`` is ``f(t, y)`` when the caller already has it.  Raises
    FloatingPointError if the new state is not finite.
    """
    if k1 is None:
        k1 = f(t, y)
    k2 = f(t + h / 2, y + h / 2 * k1)
    k3 = f(t + h / 2, y + h / 2 * k2)
    k4 = f(t + h, y + h * k3)
    y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(y)):
        raise FloatingPointError(f"non-finite state at t = {t + h}")
    return y


def _field_rhs(field: PhaseVectorField, times: Sequence[float],
               y: np.ndarray) -> np.ndarray:
    """(v_1..v_n, w_1..w_n) at the time tuple and flat state y = (x, p)."""
    n, d = field.n, field.d
    x, p = y.reshape(2, n, d)
    b = variable_bindings(times, x, p)
    return np.concatenate([field.eval_v(j, b) for j in range(1, n + 1)]
                          + [field.eval_w(j, b) for j in range(1, n + 1)])


def evolve_equal_time(field: PhaseVectorField, init: PhasePoint,
                      t_span: tuple[float, float], dt: float,
                      timelike_warning: bool = True) -> NPath:
    """RK4 on the joint system with all time coordinates advanced together
    (lab-frame foliation).  Returns the sampled n-path."""
    if not np.allclose(init.times, init.times[0]):
        raise ValueError("equal-time evolution needs t_1 = ... = t_n initially")
    n, d = field.n, field.d
    t0, t1 = t_span
    steps = max(1, int(round((t1 - t0) / dt)))
    dt = (t1 - t0) / steps

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return _field_rhs(field, [t] * n, y)

    t, y = t0, init.state()
    ts, ys, rates = [t], [y], [rhs(t, y)]
    for _ in range(steps):
        y = rk4_step(rhs, t, y, dt, rates[-1])
        t += dt
        ts.append(t)
        ys.append(y)
        rates.append(rhs(t, y))

    def per_particle(rows: list[np.ndarray]) -> np.ndarray:
        # (samples, 2n*d) -> contiguous (x|p, particle, samples, d)
        arr = np.array(rows).reshape(len(rows), 2, n, d)
        return np.ascontiguousarray(arr.transpose(1, 2, 0, 3))

    t_arr = np.array(ts)
    states, derivs = per_particle(ys), per_particle(rates)
    path = NPath([WorldLine(t=t_arr, x=states[0, j], p=states[1, j],
                            dxdt=derivs[0, j], dpdt=derivs[1, j])
                  for j in range(n)])
    if timelike_warning and path.max_speed() >= 1.0:
        warnings.warn(
            f"world line reaches |dx/dt| = {path.max_speed():.3g} >= 1 "
            "(not timelike; Newtonian field assumed)",
            stacklevel=2,
        )
    return path


def validity_residual(field: PhaseVectorField, npath: NPath,
                      samples: Sequence[Sequence[float]]) -> ResidualReport:
    """Check the multi-time equations on the n-path at each time tuple.

    Each sample is lifted onto the path; non-spacelike lifts are rejected
    and counted.  For accepted samples the residual of particle j is
    |dx_j/dt_j - v_j| + |dp_j/dt_j - w_j|, the fields evaluated at the
    lifted multi-time configuration.
    """
    report = ResidualReport()
    for sample in samples:
        times = np.asarray(sample, float)
        if len(times) != field.n:
            raise ValueError("sample tuple length does not match n")
        xs = np.stack([npath.line(j + 1).x_at(times[j]) for j in range(field.n)])
        ps = np.stack([npath.line(j + 1).p_at(times[j]) for j in range(field.n)])
        events = [SpacetimePoint.of(times[j], xs[j]) for j in range(field.n)]
        if not is_spacelike(events):
            report.rows.append({"times": times.tolist(), "spacelike": False})
            report.rejected += 1
            continue
        b = PhasePoint(times=times, x=xs, p=ps).bindings()
        residuals = []
        for j in range(1, field.n + 1):
            line = npath.line(j)
            rx = np.linalg.norm(line.dxdt_at(times[j - 1]) - field.eval_v(j, b))
            rp = np.linalg.norm(line.dpdt_at(times[j - 1]) - field.eval_w(j, b))
            residuals.append(float(rx + rp))
        report.rows.append({
            "times": times.tolist(),
            "spacelike": True,
            "residuals": residuals,
        })
        report.max_residual = max(report.max_residual, max(residuals))
    return report


class HamiltonianPair:
    """Two partial Hamiltonians H_1, H_2 of the two-time full-grid system
    dx_j/dt_k = grad_{p_j} H_k, dp_j/dt_k = -grad_{x_j} H_k.

    ``fields[k - 1]`` is the single-Hamiltonian field of H_k (every
    particle moves under H_k), the rate of change along time k.
    """

    def __init__(self, h_exprs: Sequence[str | Expression], n: int, d: int,
                 h: float | None = None):
        if len(h_exprs) != 2 or n != 2:
            raise ValueError("the full-grid system is implemented for n = 2")
        self.n, self.d, self.h = n, d, h
        self.exprs = [parse_expression(e) if isinstance(e, str) else e
                      for e in h_exprs]
        # the masses of a Hamiltonian field are carried by H itself
        self.fields = [hamiltonian_vector_field(e, n, d, [1.0] * n, h=h)
                       for e in self.exprs]


@dataclass
class GridSolution:
    """States x_j(t1,t2), p_j(t1,t2) stored on a rectangular grid."""

    t1: np.ndarray
    t2: np.ndarray
    x: np.ndarray  # (n, N1, N2, d)
    p: np.ndarray

    def csv_table(self) -> tuple[list[str], list[list]]:
        """The full-grid CSV layout: columns t1, t2, then x and p of every
        particle, one row per grid node with floats written by ``repr``."""
        n, _, _, d = self.x.shape
        columns = ["t1", "t2"] + [f"{name}{j + 1}_{dd + 1}" for name in ("x", "p")
                                  for j in range(n) for dd in range(d)]
        rows = []
        for i1, t1 in enumerate(self.t1):
            for i2, t2 in enumerate(self.t2):
                row = [repr(float(t1)), repr(float(t2))]
                for arr in (self.x, self.p):
                    for j in range(n):
                        row += [repr(float(v)) for v in arr[j, i1, i2]]
                rows.append(row)
        return columns, rows


def _rk4_grid_leg(hpair: HamiltonianPair, k: int, times: np.ndarray,
                  y: np.ndarray, duration: float, substeps: int) -> np.ndarray:
    """Advance time coordinate ``k`` of the flat state ``y`` by ``duration``
    in ``substeps`` RK4 steps."""
    dt = duration / substeps
    ax = k - 1
    t = np.array(times, float)

    def rhs(tk: float, yy: np.ndarray) -> np.ndarray:
        tt = t.copy()
        tt[ax] = tk
        return _field_rhs(hpair.fields[ax], tt, yy)

    for _ in range(substeps):
        y = rk4_step(rhs, t[ax], y, dt)
        t[ax] += dt
    return y


def evolve_full_grid(hpair: HamiltonianPair, init: PhasePoint,
                     t1_grid: Sequence[float], t2_grid: Sequence[float],
                     substeps: int = 4) -> GridSolution:
    """Integrate the two-time grid system: up the first t2 column, then
    along every t1 row (RK4 per leg)."""
    t1_grid = np.asarray(t1_grid, float)
    t2_grid = np.asarray(t2_grid, float)
    n, d = hpair.n, hpair.d
    n1, n2 = len(t1_grid), len(t2_grid)
    xg = np.zeros((n, n1, n2, d))
    pg = np.zeros((n, n1, n2, d))
    y = init.state()
    column_states = []
    for i2 in range(n2):
        if i2 > 0:
            times = np.array([t1_grid[0], t2_grid[i2 - 1]])
            y = _rk4_grid_leg(hpair, 2, times, y,
                              t2_grid[i2] - t2_grid[i2 - 1], substeps)
        column_states.append(y)
    for i2, y in enumerate(column_states):
        for i1 in range(n1):
            if i1 > 0:
                times = np.array([t1_grid[i1 - 1], t2_grid[i2]])
                y = _rk4_grid_leg(hpair, 1, times, y,
                                  t1_grid[i1] - t1_grid[i1 - 1], substeps)
            xg[:, i1, i2, :], pg[:, i1, i2, :] = y.reshape(2, n, d)
    return GridSolution(t1=t1_grid, t2=t2_grid, x=xg, p=pg)


def grid_path_independence(hpair: HamiltonianPair, init: PhasePoint,
                           rectangle: tuple[float, float], dt: float) -> float:
    """Phase-space distance at the far corner between integrating the t1
    leg first and the t2 leg first."""
    dt1, dt2 = rectangle
    if dt1 == 0.0 or dt2 == 0.0:
        return 0.0
    m1 = max(1, int(math.ceil(abs(dt1) / dt)))
    m2 = max(1, int(math.ceil(abs(dt2) / dt)))
    t0 = np.asarray(init.times, float)
    y0 = init.state()

    ya = _rk4_grid_leg(hpair, 1, t0, y0, dt1, m1)
    ta = t0.copy()
    ta[0] += dt1
    ya = _rk4_grid_leg(hpair, 2, ta, ya, dt2, m2)

    yb = _rk4_grid_leg(hpair, 2, t0, y0, dt2, m2)
    tb = t0.copy()
    tb[1] += dt2
    yb = _rk4_grid_leg(hpair, 1, tb, yb, dt1, m1)

    gx, gp = (ya - yb).reshape(2, hpair.n, hpair.d)
    return float(np.sqrt(np.sum(gx ** 2) + np.sum(gp ** 2)))


def _chord_deviation(npath: NPath) -> float:
    """Max deviation of each world line from its straight chord."""
    worst = 0.0
    for line in npath.lines:
        t0, t1 = line.t[0], line.t[-1]
        frac = ((line.t - t0) / (t1 - t0))[:, None]
        chord = line.x[0][None, :] * (1 - frac) + line.x[-1][None, :] * frac
        worst = max(worst, float(np.max(np.abs(line.x - chord))))
    return worst


def cjs_demo(family: Sequence[tuple[str, PhaseVectorField]],
             sample_points: Sequence[PhasePoint], init: PhasePoint,
             t_span: tuple[float, float], dt: float,
             h: float = 1e-4) -> list[dict]:
    """Consistency-defect sweep plus world-line straightness for each field
    in a candidate family (numerical demonstration of the no-interaction
    theorem, not a proof)."""
    rows = []
    for name, fld in family:
        defects = [classical_consistency_defect(fld, pt, h=h).max_defect
                   for pt in sample_points]
        npath = evolve_equal_time(fld, init, t_span, dt, timelike_warning=False)
        rows.append({
            "id": name,
            "min_defect": float(min(defects)),
            "max_defect": float(max(defects)),
            "straightness_deviation": _chord_deviation(npath),
        })
    return rows
