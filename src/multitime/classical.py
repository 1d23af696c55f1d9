"""Multi-time classical mechanics.

Phase-space vector fields (v_j, w_j) drive one world line per particle,
each parametrized by its own time.  The flow-commutation consistency
condition is

    D_j v_k = 0  and  D_j w_k = 0   for all j != k,

with D_j = d/dt_j + v_j . grad_{x_j} + w_j . grad_{p_j}.  The module also
builds n-paths by equal-time integration, tests their validity at
spacelike off-diagonal time choices, integrates the two-time full-grid
variant, and runs the no-interaction demonstration over a field family.
Every integration here and in the HJ module is one compiled RK4 loop
(``expr.compile_rk4``) that advances a flat state of floats, with the
field's expressions inlined in every stage.  Each loop is compiled once
per field and mode (equal-time, or full-grid legs along one time axis)
and memoised on the field's expressions, and so is the consistency
defect, built with ``expr.derivative`` per field and step.  An
equal-time run is one loop call; a full grid is one call per column or
row, all its legs in a row, and a path around a rectangle one per leg.
A field's right-hand side ``PhaseVectorField.rhs``, one compiled
function of the time tuple and the state, serves the validity
residuals.  Numpy arrays are built once a run is done, from the loop's
records by ``np.fromiter``.  A run's plan function counts its RK4 steps
and refuses more than ``expr.MAX_STEPS`` before the run starts.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .expr import (STEP_TIME, BinOp, Expression, Neg, Var, binding_names,
                   bound_steps, check_steps, compile_function, compile_rk4,
                   derivative, free_variables, parse_expression, substitute)
from .paths import NPath, WorldLine
from .reports import DefectReport, ResidualReport

__all__ = [
    "is_spacelike",
    "PhasePoint",
    "PhaseVectorField",
    "hamiltonian_vector_field",
    "classical_consistency_defect",
    "equal_time_steps",
    "evolve_equal_time",
    "validity_residual",
    "GridSolution",
    "full_grid_steps",
    "evolve_full_grid",
    "rectangle_steps",
    "grid_path_independence",
    "cjs_demo",
]


def is_spacelike(times: np.ndarray, xs: np.ndarray) -> bool:
    """True iff the events (times[j], xs[j]) of the (n,) and (n, d) arrays
    are pairwise strictly spacelike: (dt)^2 < |dx|^2, natural units c = 1."""
    for i in range(len(times)):
        for j in range(i + 1, len(times)):
            dt = times[i] - times[j]
            dx = xs[i] - xs[j]
            if dt * dt >= float(dx @ dx):
                return False
    return True


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

    def state(self) -> np.ndarray:
        """The flat state (x, p) the RK4 loops advance; ``reshape(2, n, d)``
        gives x and p back."""
        return np.concatenate([self.x.ravel(), self.p.ravel()])


# A right-hand side maps a time tuple and a flat state (x, p) to the rates.
RHS = Callable[[Sequence[float], Sequence[float]], tuple[float, ...]]


def _state_names(n: int, d: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The names of a time tuple and of a flat state (x rows, p rows)."""
    return binding_names("t", n), binding_names("x", n, d) + binding_names("p", n, d)


@dataclass
class PhaseVectorField:
    """The fields (v_1, w_1, .., v_n, w_n): ``exprs`` holds the components
    of v_1..v_n and then of w_1..w_n, d each, as expressions in t1..tn,
    xJ_D and pJ_D."""

    n: int
    d: int
    exprs: tuple[Expression, ...]

    @functools.cached_property
    def rhs(self) -> RHS:
        """The right-hand side ``(times, y) -> (v_1..v_n, w_1..w_n)``: a
        time tuple and a flat state y = (x, p) of floats in, the 2·n·d
        rates out as one tuple of floats.  It is one compiled function of
        all components (``expr.compile_function``), built on first use;
        each rate is bit for bit the component's value.
        """
        return compile_function(self.exprs, _state_names(self.n, self.d))

    @classmethod
    def from_expressions(cls, n: int, d: int,
                         v_exprs: Sequence[Sequence[str | Expression]],
                         w_exprs: Sequence[Sequence[str | Expression]],
                         ) -> "PhaseVectorField":
        if len(v_exprs) != n or len(w_exprs) != n:
            raise ValueError(f"need {n} rows of v and w expressions")
        if any(len(row) != d for row in (*v_exprs, *w_exprs)):
            raise ValueError(f"need {d} expressions in every row of v and w")
        rows = [[parse_expression(e) if isinstance(e, str) else e for e in row]
                for row in (*v_exprs, *w_exprs)]
        exprs = tuple(e for row in rows for e in row)
        for expr in exprs:
            _check_vars(expr, n, d)
        return cls(n, d, exprs)

    @classmethod
    def free(cls, n: int, d: int, masses: Sequence[float]) -> "PhaseVectorField":
        """v_j = p_j / m_j, w_j = 0."""
        v = [[f"p{j + 1}_{dd + 1} / {masses[j]}" for dd in range(d)] for j in range(n)]
        w = [["0" for _ in range(d)] for _ in range(n)]
        return cls.from_expressions(n, d, v, w)


def _check_vars(expr: Expression, n: int, d: int) -> None:
    times, state = _state_names(n, d)
    extra = free_variables(expr) - set(times) - set(state)
    if extra:
        raise ValueError(f"undeclared variables {sorted(extra)} in field expression")


def hamiltonian_vector_field(h_exprs: str | Expression | Sequence[str | Expression],
                             n: int, d: int, *,
                             h: float | None = None) -> PhaseVectorField:
    """Field with v_j = grad_{p_j} H, w_j = -grad_{x_j} H.

    ``h_exprs`` is either a single Hamiltonian (every particle moves under
    it) or one partial Hamiltonian per particle (particle j moves under
    H_j).  Without a step ``h`` the gradients are exact: each component is
    the expression ``expr.diff`` builds.  With a step ``h`` each component
    is the central difference of H at that step
    (``expr.central_difference``).
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
    p_vars = [[f"p{j + 1}_{dd + 1}" for dd in range(d)] for j in range(n)]
    x_vars = [[f"x{j + 1}_{dd + 1}" for dd in range(d)] for j in range(n)]
    grad = derivative(h)
    v = [[grad(parsed[j], var) for var in p_vars[j]] for j in range(n)]
    w = [[Neg(grad(parsed[j], var)) for var in x_vars[j]] for j in range(n)]
    return PhaseVectorField.from_expressions(n, d, v, w)


@functools.lru_cache(maxsize=64)
def _defects(exprs: tuple[Expression, ...], n: int, d: int, h: float) -> Callable:
    """``(times, (x, p)) ->`` D_j c = dc/dt_j + v_j . grad_{x_j} c +
    w_j . grad_{p_j} c for each j and each component c of ``exprs``."""
    times, state = _state_names(n, d)
    grad, nd, outputs = derivative(h), n * d, []
    for j in range(n):
        at = j * d  # exprs[at + dd] is in v_j, exprs[nd + at + dd] in w_j
        for c in exprs:
            val = grad(c, times[j])
            for i in range(at, at + d):
                val = BinOp("+", val, BinOp("*", exprs[i], grad(c, state[i])))
                val = BinOp("+", val, BinOp("*", exprs[nd + i], grad(c, state[nd + i])))
            outputs.append(val)
    return compile_function(outputs, (times, state))


def classical_consistency_defect(field: PhaseVectorField, point: PhasePoint,
                                 h: float = 1e-4) -> DefectReport:
    """Sup-norm of (D_j v_k, D_j w_k) for every ordered pair j != k.

    Every derivative is a component's central difference at the step h,
    and D_j is taken of every component, so every component must be
    defined within h of the point, or DomainError is raised; a coordinate
    at which h rounds away raises FloatingPointError (``expr.check_steps``).
    """
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    n, d = field.n, field.d
    nd = n * d
    times, y = point.times.tolist(), point.state().tolist()
    check_steps(h, sum(_state_names(n, d), ()), times + y)
    values = [abs(v) for v in _defects(field.exprs, n, d, h)(times, y)]
    pairs = {}
    for j in range(1, n + 1):
        d_j = values[(j - 1) * 2 * nd:j * 2 * nd]  # D_j of every component
        for k in range(1, n + 1):
            if k != j:
                ak = (k - 1) * d  # v_k and w_k
                pairs[f"{j},{k}"] = max(d_j[ak:ak + d] + d_j[nd + ak:nd + ak + d])
    return DefectReport(pairs=pairs, max_defect=max(pairs.values(), default=0.0), h=h)


@functools.lru_cache(maxsize=64)
def _rk4_loop(exprs: tuple[Expression, ...], n: int, d: int,
              axis: int | None) -> Callable:
    """The compiled RK4 loop of the field with components ``exprs``
    (``expr.compile_rk4``): with ``axis`` None every time t_j follows the
    step and the loop records every node (equal-time evolution); else
    t_{axis+1} follows it, the other times are fixed arguments and the
    loop returns the state at every node (full-grid legs)."""
    times, state = _state_names(n, d)
    follow = times if axis is None else times[axis:axis + 1]
    fixed = [t for t in times if t not in follow]
    step_time = {t: Var(STEP_TIME) for t in follow}
    return compile_rk4([substitute(e, step_time) for e in exprs], state, fixed,
                       record=axis is None)


def _node_times(t0: float, dt: float, steps: int) -> list[float]:
    """t0 and then t += dt ``steps`` times."""
    return list(itertools.accumulate(itertools.repeat(dt, steps), initial=t0))


def _table(rows: Sequence[tuple], width: int) -> np.ndarray:
    """The loop records ``rows``, each ``width`` floats, as one flat array."""
    return np.fromiter(itertools.chain.from_iterable(rows), float, len(rows) * width)


def equal_time_steps(t_span: tuple[float, float], dt: float) -> int:
    """The RK4 steps of an equal-time run over ``t_span`` at about ``dt``:
    (t1 - t0) / dt rounded, at least 1; ValueError above ``MAX_STEPS``."""
    steps = (float(t_span[1]) - float(t_span[0])) / dt
    bound_steps(steps)
    return max(1, int(round(steps)))


def evolve_equal_time(field: PhaseVectorField, init: PhasePoint,
                      t_span: tuple[float, float], dt: float) -> NPath:
    """RK4 on the joint system with all time coordinates advanced together
    (lab-frame foliation).  Returns the sampled n-path."""
    if not np.allclose(init.times, init.times[0]):
        raise ValueError("equal-time evolution needs t_1 = ... = t_n initially")
    n, d = field.n, field.d
    t0, t1 = float(t_span[0]), float(t_span[1])
    steps = equal_time_steps(t_span, dt)
    dt = (t1 - t0) / steps
    ts = _node_times(t0, dt, steps)
    ys, rates = _rk4_loop(field.exprs, n, d, None)(init.state().tolist(), ts,
                                                   [dt] * steps)

    def per_particle(rows: list[tuple]) -> np.ndarray:
        # (samples, 2n*d) -> contiguous (x|p, particle, samples, d)
        arr = _table(rows, 2 * n * d).reshape(len(rows), 2, n, d)
        return np.ascontiguousarray(arr.transpose(1, 2, 0, 3))

    t_arr = np.array(ts)
    states, derivs = per_particle(ys), per_particle(rates)
    return NPath([WorldLine(t=t_arr, x=states[0, j], p=states[1, j],
                            dxdt=derivs[0, j], dpdt=derivs[1, j])
                  for j in range(n)])


def validity_residual(field: PhaseVectorField, npath: NPath,
                      samples: Sequence[Sequence[float]]) -> ResidualReport:
    """Check the multi-time equations on the n-path at each time tuple.

    Each sample is lifted onto the path; non-spacelike lifts are rejected
    and counted.  For accepted samples the residual of particle j is
    |dx_j/dt_j - v_j| + |dp_j/dt_j - w_j|, the fields evaluated at the
    lifted multi-time configuration.
    """
    report = ResidualReport()
    if any(len(sample) != field.n for sample in samples):
        raise ValueError("sample tuple length does not match n")
    tuples = np.reshape(np.asarray(samples, float), (len(samples), field.n))

    # one query per world line and quantity, each (sample, particle, d)
    queried = [np.stack([getattr(npath.line(j + 1), query)(tuples[:, j])
                         for j in range(field.n)], axis=1)
               for query in ("x_at", "p_at", "dxdt_at", "dpdt_at")]
    for times, xs, ps, dxs, dps in zip(tuples, *queried):
        if not is_spacelike(times, xs):
            report.rows.append({"times": times.tolist(), "spacelike": False})
            report.rejected += 1
            continue
        y = np.concatenate([xs.ravel(), ps.ravel()]).tolist()
        rates = np.reshape(field.rhs(times.tolist(), y), (2, field.n, field.d))
        residuals = [float(np.linalg.norm(dxs[j] - rates[0, j])
                           + np.linalg.norm(dps[j] - rates[1, j]))
                     for j in range(field.n)]
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
        self.n, self.d = n, d
        self.fields = [hamiltonian_vector_field(e, n, d, h=h) for e in h_exprs]


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


def _leg_plan(starts: Sequence[float], durations: Sequence[float],
              substeps: int) -> tuple[list[float], list[float], list[int]]:
    """``(ts, hs, ends)`` of legs run one after the other: leg i from the
    time ``starts[i]`` by ``durations[i]`` in ``substeps`` RK4 steps of
    ``durations[i] / substeps``.  ``ts`` and ``hs`` hold every step's start
    time and length, and ``ends`` the node indices of the first leg's start
    and of every leg's end."""
    ts, hs, ends = [], [], [0]
    for start, duration in zip(starts, durations):
        dt = duration / substeps
        ts += _node_times(start, dt, substeps)[:-1]
        hs += [dt] * substeps
        ends.append(len(hs))
    return ts, hs, ends


def _grid_legs(hpair: HamiltonianPair) -> Callable:
    """The function ``(k, plan, y, other) -> states`` that advances time
    coordinate k of the flat state y under the field of H_k, the other time
    fixed at ``other``, along the legs of ``plan`` (``_leg_plan``), each
    leg from the state the one before it ends in.  It returns the state at
    the start and at the end of every leg, from one call of the compiled
    loop."""
    n, d = hpair.n, hpair.d
    loops = [_rk4_loop(f.exprs, n, d, ax) for ax, f in enumerate(hpair.fields)]

    def legs(k: int, plan: tuple, y: Sequence[float], other: float) -> list[tuple]:
        ts, hs, ends = plan
        states = loops[k - 1](y, ts, hs, other)
        return [states[i] for i in ends]

    return legs


def full_grid_steps(points1: int, points2: int, substeps: int) -> int:
    """The RK4 steps counted for a full grid of ``points1`` x ``points2``
    nodes, ``substeps`` per node; ValueError for a count below 1, and
    above ``MAX_STEPS``."""
    for name, count in (("points1", points1), ("points2", points2), ("substeps", substeps)):
        if count < 1:
            raise ValueError(f"a full grid needs {name} >= 1, got {count}")
    bound_steps(steps := points1 * points2 * substeps)
    return steps


def evolve_full_grid(hpair: HamiltonianPair, init: PhasePoint,
                     t1_grid: Sequence[float], t2_grid: Sequence[float],
                     substeps: int = 4) -> GridSolution:
    """Integrate the two-time grid system: up the first t2 column, then
    along every t1 row, ``substeps`` RK4 steps per leg between neighbouring
    nodes and one compiled loop call per column or row."""
    t1_grid = np.asarray(t1_grid, float)
    t2_grid = np.asarray(t2_grid, float)
    t1s, t2s = t1_grid.tolist(), t2_grid.tolist()
    n, d = hpair.n, hpair.d
    full_grid_steps(len(t1s), len(t2s), substeps)
    legs = _grid_legs(hpair)
    plan1, plan2 = (_leg_plan(ts[:-1], [b - a for a, b in zip(ts, ts[1:])], substeps)
                    for ts in (t1s, t2s))
    column = legs(2, plan2, init.state().tolist(), t1s[0])
    # nodes[i2 * len(t1s) + i1] is the state at (t1s[i1], t2s[i2])
    nodes = [y for y0, t2 in zip(column, t2s) for y in legs(1, plan1, y0, t2)]
    # (t2, t1, x|p, particle, d) -> contiguous (x|p, particle, t1, t2, d)
    states = _table(nodes, 2 * n * d).reshape(len(t2s), len(t1s), 2, n, d)
    xg, pg = np.ascontiguousarray(states.transpose(2, 3, 1, 0, 4))
    return GridSolution(t1=t1_grid, t2=t2_grid, x=xg, p=pg)


def rectangle_steps(rectangle: tuple[float, float], dt: float) -> tuple[int, int]:
    """``(m1, m2)``, the RK4 steps of the t1 and t2 legs of one path around
    ``rectangle`` at about ``dt`` ((0, 0) for a side of 0), at most ``MAX_STEPS``."""
    if 0.0 in rectangle:
        return 0, 0
    s1, s2 = abs(rectangle[0]) / dt, abs(rectangle[1]) / dt
    bound_steps(s1 + s2)  # in floats first: ceil overflows on an infinite count
    m1, m2 = max(1, math.ceil(s1)), max(1, math.ceil(s2))
    bound_steps(m1 + m2)
    return m1, m2


def grid_path_independence(hpair: HamiltonianPair, init: PhasePoint,
                           rectangle: tuple[float, float], dt: float) -> float:
    """Phase-space distance at the far corner between integrating the t1
    leg first and the t2 leg first."""
    dt1, dt2 = rectangle
    m1, m2 = rectangle_steps(rectangle, dt)
    if m1 == 0:
        return 0.0
    t0 = init.times.tolist()
    y0 = init.state().tolist()
    legs = _grid_legs(hpair)
    leg1, leg2 = _leg_plan([t0[0]], [dt1], m1), _leg_plan([t0[1]], [dt2], m2)

    ya = legs(1, leg1, y0, t0[1])[-1]
    ya = legs(2, leg2, ya, t0[0] + dt1)[-1]

    yb = legs(2, leg2, y0, t0[0])[-1]
    yb = legs(1, leg1, yb, t0[1] + dt2)[-1]

    gx, gp = np.subtract(ya, yb).reshape(2, hpair.n, hpair.d)
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
        npath = evolve_equal_time(fld, init, t_span, dt)
        rows.append({
            "id": name,
            "min_defect": float(min(defects)),
            "max_defect": float(max(defects)),
            "straightness_deviation": _chord_deviation(npath),
        })
    return rows
