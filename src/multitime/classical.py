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
(``codegen.compile_rk4``) that advances a flat state of floats, with the
field's expressions inlined in every stage.  Each loop is compiled once
per field and mode (equal-time, or full-grid legs along one time axis)
and memoised on the field's expressions, and so is the consistency
defect, built with ``expr.derivative`` per field and step, which a
sample grid takes in one call (``classical_defect_grid``).  An
equal-time run is one loop call; a full grid is one call per column or
row, all its legs in a row, and a path around a rectangle one per leg.
A field's right-hand side ``PhaseVectorField.rhs``, one compiled
function of the time tuple and the state memoised the same way, serves
the validity residuals, which are taken on arrays over all samples.
A loop writes one packed row per node, ``bytes`` of native doubles: an
equal-time node's state (x, p) and then its rates, a grid leg's end its
state alone, and a state row starts the next leg as it is.  Numpy arrays
are built once a run is done, by one ``np.frombuffer`` over all its rows
joined.  A run's plan function counts its RK4 steps and refuses more than
``expr.MAX_STEPS`` before the run starts.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .codegen import compile_function, compile_rk4
from .expr import (_ZERO, STEP_TIME, BinOp, Expression, Neg, Var, _neg, binding_names,
                   bound_steps, check_count, check_finite, check_masses, check_positive,
                   check_span, derivative, free_variables, parse_expression, phase_names,
                   substitute)
from .paths import NPath, PhasePoint, WorldLine, _defect_values, _scaled_norms
from .reports import DefectReport

__all__ = [
    "PhasePoint",
    "PhaseVectorField",
    "hamiltonian_vector_field",
    "classical_consistency_defect",
    "classical_defect_grid",
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


# A right-hand side maps a time tuple and a flat state (x, p) to the rates.
RHS = Callable[[Sequence[float], Sequence[float]], tuple[float, ...]]

#: the smallest normal float: a square below it has rounded to fewer bits
_NORMAL_FLOAT = np.finfo(float).tiny


@functools.lru_cache(maxsize=64)
def _rhs(exprs: tuple[Expression, ...], n: int, d: int) -> RHS:
    return compile_function(exprs, phase_names(n, d))


class PhaseVectorField:
    """The fields (v_1, w_1, .., v_n, w_n): ``exprs`` holds the components
    of v_1..v_n and then of w_1..w_n, d each, as expressions in t1..tn,
    xJ_D and pJ_D."""

    def __init__(self, n: int, d: int, exprs: tuple[Expression, ...]):
        self.n, self.d, self.exprs = n, d, exprs

    @property
    def rhs(self) -> RHS:
        """The right-hand side ``(times, y) -> (v_1..v_n, w_1..w_n)``: a
        time tuple and a flat state y = (x, p) of floats in, the 2·n·d
        rates out as one tuple of floats.  It is one compiled function of
        all components (``codegen.compile_function``), compiled once per
        tuple of expressions, so a field rebuilt from equal ones shares it;
        each rate is bit for bit the component's value.
        """
        return _rhs(self.exprs, self.n, self.d)

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
        """v_j = p_j / m_j, w_j = 0; n masses, each a finite number > 0."""
        masses = check_masses(masses, n)
        v = [[f"p{j + 1}_{dd + 1} / {masses[j]}" for dd in range(d)] for j in range(n)]
        w = [["0" for _ in range(d)] for _ in range(n)]
        return cls.from_expressions(n, d, v, w)


def _check_vars(expr: Expression, n: int, d: int) -> None:
    times, state = phase_names(n, d)
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
    xs, ps, grad = binding_names("x", n, d), binding_names("p", n, d), derivative(h)
    v = [[grad(parsed[j], var) for var in ps[j * d:(j + 1) * d]] for j in range(n)]
    grads = [[grad(parsed[j], var) for var in xs[j * d:(j + 1) * d]] for j in range(n)]
    # a zero gradient keeps its rate -0.0, whose sign a zero state can show
    w = [[Neg(g) if g == _ZERO else _neg(g) for g in row] for row in grads]
    return PhaseVectorField.from_expressions(n, d, v, w)


@functools.lru_cache(maxsize=64)
def _defects(exprs: tuple[Expression, ...], n: int, d: int, h: float) -> Callable:
    """``(times, (x, p)) ->`` D_j c = dc/dt_j + v_j . grad_{x_j} c +
    w_j . grad_{p_j} c for each j and each component c of ``exprs``."""
    times, state = phase_names(n, d)
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


@functools.lru_cache(maxsize=32)
def _pair_slots(n: int, d: int) -> tuple[tuple[str, ...], np.ndarray]:
    """The keys ``"j,k"`` of the ordered pairs j != k, and a row per pair of
    the indices of D_j of v_k and then of w_k in the values of ``_defects``."""
    nd, pairs = n * d, [(j, k) for j in range(n) for k in range(n) if k != j]
    slots = np.array([[2 * nd * j + vw + k * d + dd for vw in (0, nd) for dd in range(d)]
                      for j, k in pairs], np.intp).reshape(len(pairs), 2 * d)
    slots.flags.writeable = False  # shared by every caller of the memo
    return tuple(f"{j + 1},{k + 1}" for j, k in pairs), slots


def _fits(point: PhasePoint, n: int, d: int, what: str) -> PhasePoint:
    """``point``, if its x and p are (n, d)."""
    if point.x.shape != (n, d):
        raise ValueError(f"{what}: expected x and p of shape {(n, d)}, got {point.x.shape}")
    return point


def classical_defect_grid(field: PhaseVectorField, samples: np.ndarray,
                          h: float | None = 1e-4) -> np.ndarray:
    """``classical_consistency_defect`` at every row of ``samples``, an
    (m, n + 2·n·d) array of times, x rows and p rows: the (m, pairs) array
    of the pairs' sup-norms (NaN where a value is), bit for bit, in the
    order of ``_pair_slots``' keys, with the first error of the rows one
    by one (``paths._defect_values``)."""
    n, d = field.n, field.d
    values = _defect_values(functools.partial(_defects, field.exprs, n, d, h),
                            2 * n * n * d, samples, n, d, h)
    return values[:, _pair_slots(n, d)[1]].max(axis=2)


def classical_consistency_defect(field: PhaseVectorField, point: PhasePoint,
                                 h: float | None = 1e-4) -> DefectReport:
    """Sup-norm of (D_j v_k, D_j w_k) for every ordered pair j != k.

    Every derivative is a component's central difference at the step h,
    and D_j is taken of every component, so every component must be
    defined within h of the point, or DomainError is raised; a coordinate
    at which h rounds away raises FloatingPointError and a step that is
    not a finite number > 0 raises ValueError (``expr.check_steps``).
    It is the one-row case of ``classical_defect_grid``, for a point
    whose x and p are the field's (n, d).
    """
    _fits(point, field.n, field.d, "point")
    [row] = classical_defect_grid(field, [[*point.times, *point.state()]], h).tolist()
    return DefectReport(dict(zip(_pair_slots(field.n, field.d)[0], row)), h)


@functools.lru_cache(maxsize=64)
def _rk4_loop(exprs: tuple[Expression, ...], n: int, d: int,
              axis: int | None) -> Callable:
    """The compiled RK4 loop of the field with components ``exprs``
    (``codegen.compile_rk4``): with ``axis`` None every time t_j follows the
    step and the loop records every node, one packed row of the state and
    the rates (equal-time evolution); else t_{axis+1} follows it, the other
    times are fixed arguments and the loop returns the packed state at
    the start and at the end of every leg it is given (full-grid legs)."""
    times, state = phase_names(n, d)
    follow = times if axis is None else times[axis:axis + 1]
    fixed = [t for t in times if t not in follow]
    step_time = {t: Var(STEP_TIME) for t in follow}
    return compile_rk4([substitute(e, step_time) for e in exprs], state, fixed,
                       record=axis is None)


def _node_times(t0: float, dt: float, steps: int) -> list[float]:
    """t0 and then t += dt ``steps`` times."""
    return list(itertools.accumulate(itertools.repeat(dt, steps), initial=t0))


def equal_time_steps(t_span: tuple[float, float], dt: float) -> int:
    """The RK4 steps of an equal-time run over ``t_span`` at about ``dt``:
    (t1 - t0) / dt rounded, at least 1; ValueError above ``MAX_STEPS``
    and for a bad ``dt`` or ``t_span``."""
    t0, t1 = check_span(t_span, "t_span")
    steps = (t1 - t0) / check_positive(dt, "dt")
    bound_steps(steps)
    return max(1, int(round(steps)))


def _start(init: PhasePoint, n: int, d: int) -> bytes:
    """The packed flat state of ``init``, whose x and p must be (n, d)."""
    return _fits(init, n, d, "initial point").state().tobytes()


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
    rows = _rk4_loop(field.exprs, n, d, None)(_start(init, n, d), ts, [dt] * steps)
    # (sample, state|rate, x|p, particle, d) -> contiguous
    # (state|rate, x|p, particle, sample, d); joined into a bytearray, so
    # that every array read from it is writable
    table = np.frombuffer(bytearray().join(rows)).reshape(len(rows), 2, 2, n, d)
    states, derivs = np.ascontiguousarray(table.transpose(1, 2, 3, 0, 4))
    t_arr = np.array(ts)
    return NPath([WorldLine(t=t_arr, x=states[0, j], p=states[1, j],
                            dxdt=derivs[0, j], dpdt=derivs[1, j])
                  for j in range(n)])


def _squares(vectors: np.ndarray) -> np.ndarray:
    """``v @ v`` of every vector v along the last axis, bit for bit as
    ``v @ v`` computes each on its own (stacked matmul takes the same dot);
    one that overflows reads inf, without a warning."""
    with np.errstate(over="ignore"):
        return np.matmul(vectors[..., None, :], vectors[..., :, None])[..., 0, 0]


def _norms(vectors: np.ndarray) -> np.ndarray:
    """|v| of every vector v along the last axis, ``sqrt(v @ v)`` as
    np.linalg.norm takes it where ``v @ v`` is finite; where it overflows
    and v is finite, ``paths._scaled_norms``, so that only a norm beyond
    the float range reads inf."""
    norms = np.sqrt(_squares(vectors))
    over = np.isinf(norms) & np.isfinite(vectors).all(axis=-1)
    if over.any():
        with np.errstate(over="ignore"):
            norms[over] = _scaled_norms(vectors[over])
    return norms


def validity_residual(field: PhaseVectorField, npath: NPath,
                      samples: Sequence[Sequence[float]]) -> dict:
    """Check the multi-time equations on the n-path at each time tuple.

    Each sample is lifted onto the path; non-spacelike lifts are rejected
    and counted.  For accepted samples the residual of particle j is
    |dx_j/dt_j - v_j| + |dp_j/dt_j - w_j|, the fields evaluated at the
    lifted multi-time configuration.  The report holds ``max_residual``
    (0.0 without a residual, NaN where one is), the sample counts and one
    row per sample: its ``times``, ``spacelike`` and any ``residuals``.
    """
    if any(len(sample) != field.n for sample in samples):
        raise ValueError("sample tuple length does not match n")
    n, d = field.n, field.d
    if (npath.n, npath.d) != (n, d):
        raise ValueError(f"n-path: expected (n, d) = {(n, d)}, got {(npath.n, npath.d)}")
    tuples = np.reshape(np.asarray(samples, float), (len(samples), n))

    # one query per world line and quantity, each (sample, particle, d)
    xs, ps, dxs, dps = [np.stack([getattr(npath.line(j + 1), query)(tuples[:, j])
                                  for j in range(n)], axis=1)
                        for query in ("x_at", "p_at", "dxdt_at", "dpdt_at")]
    # a sample is spacelike when every pair of its events is strictly so,
    # (dt)^2 < |dx|^2 (c = 1): its pairs in turn, each on the samples that
    # passed the pairs before it
    spacelike = np.ones(len(tuples), bool)
    for i, j in itertools.combinations(range(n), 2):
        at = np.flatnonzero(spacelike)
        with np.errstate(over="ignore"):  # an infinite gap or square decides as it is
            dt, gaps = tuples[at, i] - tuples[at, j], xs[at, i] - xs[at, j]
            dt2, gap2 = dt * dt, _squares(gaps)
        timelike = dt2 >= gap2
        # where both squares overflow, the lengths decide, the gap's scaled
        both = np.isinf(dt2) & np.isinf(gap2)
        timelike[both] = np.abs(dt[both]) >= _norms(gaps[both])
        # where both fall below the normal range, rounded to a few bits or to
        # 0, and the gap is not zero, the squares of both divided by the
        # larger length decide
        small = np.flatnonzero((np.maximum(dt2, gap2) < _NORMAL_FLOAT)
                               & gaps.any(axis=-1))
        scale = np.maximum(np.abs(dt[small]), np.max(np.abs(gaps[small]), axis=-1))
        timelike[small] = ((dt[small] / scale) ** 2
                           >= _squares(gaps[small] / scale[:, None]))
        spacelike[at] = ~timelike
    accepted = np.flatnonzero(spacelike)
    states = np.concatenate([xs[accepted].reshape(-1, n * d),
                             ps[accepted].reshape(-1, n * d)], axis=1)
    rhs = field.rhs
    rates = np.reshape([rhs(times, y) for times, y in
                        zip(tuples[accepted].tolist(), states.tolist())], (-1, 2, n, d))
    # |dx_j/dt_j - v_j| + |dp_j/dt_j - w_j|, each norm as np.linalg.norm takes
    # it; a difference or a sum beyond the float range reads inf, for the caller
    with np.errstate(over="ignore"):
        residuals = (_norms(dxs[accepted] - rates[:, 0])
                     + _norms(dps[accepted] - rates[:, 1]))
    rows = [{"times": times, "spacelike": False} for times in tuples.tolist()]
    for i, row in zip(accepted.tolist(), residuals.tolist()):
        rows[i].update(spacelike=True, residuals=row)
    return {"max_residual": float(residuals.max(initial=0.0)), "rows": rows,
            "rejected_samples": len(rows) - len(accepted), "accepted_samples": len(accepted)}


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


class GridSolution:
    """States x_j(t1,t2), p_j(t1,t2) stored on a rectangular grid: x and p
    (n, N1, N2, d)."""

    def __init__(self, t1: np.ndarray, t2: np.ndarray, x: np.ndarray, p: np.ndarray):
        self.t1, self.t2, self.x, self.p = t1, t2, x, p

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
              substeps: int) -> tuple[list[float], list[float], list[range]]:
    """``(ts, hs, legs)`` of legs run one after the other: leg i from the
    time ``starts[i]`` by ``durations[i]`` in ``substeps`` RK4 steps of
    ``durations[i] / substeps``.  ``ts`` and ``hs`` hold every step's start
    time and length, and ``legs`` the indices of every leg's steps."""
    ts, hs, legs = [], [], []
    for start, duration in zip(starts, durations):
        dt = duration / substeps
        ts += _node_times(start, dt, substeps)[:-1]
        legs.append(range(len(hs), len(hs) + substeps))
        hs += [dt] * substeps
    return ts, hs, legs


def _grid_legs(hpair: HamiltonianPair) -> Callable:
    """The function ``(k, plan, y, other) -> states`` that advances time
    coordinate k of the packed flat state y under the field of H_k, the
    other time fixed at ``other``, along the legs of ``plan``
    (``_leg_plan``), each leg from the state the one before it ends in.
    It returns y and then the packed state row at the end of every leg,
    from one call of the compiled loop, which packs no other row."""
    n, d = hpair.n, hpair.d
    loops = [_rk4_loop(f.exprs, n, d, ax) for ax, f in enumerate(hpair.fields)]
    return lambda k, plan, y, other: loops[k - 1](y, *plan, other)


def full_grid_steps(points1: int, points2: int, substeps: int) -> int:
    """The RK4 steps counted for a full grid of ``points1`` x ``points2``
    nodes, ``substeps`` per node; ValueError for a count that is not an
    integer >= 1, and above ``MAX_STEPS``."""
    bound_steps(steps := check_count(points1, 1, "points1") * check_count(points2, 1, "points2")
                * check_count(substeps, 1, "substeps"))
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
    column = legs(2, plan2, _start(init, n, d), t1s[0])
    # nodes[i2 * len(t1s) + i1] is the state row at (t1s[i1], t2s[i2])
    nodes = [y for y0, t2 in zip(column, t2s) for y in legs(1, plan1, y0, t2)]
    # (t2, t1, x|p, particle, d) -> contiguous (x|p, particle, t1, t2, d)
    states = np.frombuffer(bytearray().join(nodes)).reshape(len(t2s), len(t1s), 2, n, d)
    xg, pg = np.ascontiguousarray(states.transpose(2, 3, 1, 0, 4))
    return GridSolution(t1=t1_grid, t2=t2_grid, x=xg, p=pg)


def rectangle_steps(rectangle: tuple[float, float], dt: float) -> tuple[int, int]:
    """``(m1, m2)``, the RK4 steps of the t1 and t2 legs of one path around
    ``rectangle`` at about ``dt`` ((0, 0) for a side of 0), at most ``MAX_STEPS``;
    ValueError for a ``dt`` that is not a finite number > 0 and for a
    non-finite side."""
    dt = check_positive(dt, "dt")
    rectangle = [check_finite(side, "rectangle") for side in rectangle]
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
    leg first and the t2 leg first; where its squares overflow, taken again
    by ``_scaled_norms``, so only a distance beyond the float range is inf."""
    dt1, dt2 = rectangle
    m1, m2 = rectangle_steps(rectangle, dt)
    y0 = _start(init, hpair.n, hpair.d)
    if m1 == 0:
        return 0.0
    t0 = init.times.tolist()
    legs = _grid_legs(hpair)
    leg1, leg2 = _leg_plan([t0[0]], [dt1], m1), _leg_plan([t0[1]], [dt2], m2)

    ya = legs(1, leg1, y0, t0[1])[-1]
    ya = legs(2, leg2, ya, t0[0] + dt1)[-1]

    yb = legs(2, leg2, y0, t0[0])[-1]
    yb = legs(1, leg1, yb, t0[1] + dt2)[-1]

    with np.errstate(over="ignore"):
        gap = np.subtract(np.frombuffer(ya), np.frombuffer(yb))
        gx, gp = gap.reshape(2, hpair.n, hpair.d)
        distance = float(np.sqrt(np.sum(gx ** 2) + np.sum(gp ** 2)))
        if distance == math.inf and np.isfinite(gap).all():
            distance = float(_scaled_norms(gap))
    return distance


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
             samples: np.ndarray, init: PhasePoint,
             t_span: tuple[float, float], dt: float,
             h: float = 1e-4) -> list[dict]:
    """Consistency-defect sweep over ``samples`` (the rows
    ``classical_defect_grid`` takes) plus world-line straightness for each
    field in a candidate family (numerical demonstration of the
    no-interaction theorem, not a proof)."""
    rows = []
    for name, fld in family:
        defects = classical_defect_grid(fld, samples, h).max(axis=1, initial=0.0)
        npath = evolve_equal_time(fld, init, t_span, dt)
        rows.append({
            "id": name,
            "min_defect": float(defects.min()),
            "max_defect": float(defects.max()),
            "straightness_deviation": _chord_deviation(npath),
        })
    return rows
