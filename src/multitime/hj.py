"""Multi-time Hamilton-Jacobi formalism.

Given an HJ function S(t1,x1,..,tn,xn) as an expression, this module
evaluates the residuals of the multi-time HJ system, the Poisson-bracket
consistency defect of partial Hamiltonian functions and the velocity
defect of the law dx_j/dt_j = grad_{x_j} S / m_j, each built as
expressions (exact, or central differences at a step) and compiled once
per system and step; a parameter of S or of a Hamiltonian is a number in
its tree (``expr.substitute``).  It extracts world lines on flat
spacelike foliations t = s + u.x: a sweep is one compiled RK4 loop
(``codegen.compile_rk4``) with the leaf times, exact velocities, leaf
rates V_j / (1 - u.V_j) and degeneracy guards 1 - u.V_j > 0 inlined,
given to it as trees, and the world lines are anchored at t = 0
by quasi-Newton (Broyden) steps of the leaf-0 configuration, one sweep of
every leaf each; the converged sweep builds them.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Mapping, NoReturn, Sequence

import numpy as np

from .codegen import compile_function, compile_rk4
from .expr import (STEP_TIME, BinOp, Expression, ExpressionError, FoliationError,
                   Num, Var, binding_names, bound_steps, check_count, check_masses,
                   check_positive, check_span, check_steps, _div, derivative, diff,
                   evaluate, free_variables, parse_expression, phase_names, substitute)
from .numdiff import partial_derivative
from .paths import NPath, PathRangeError, PhasePoint, WorldLine, _defect_values, _norms, hermite_at
from .reports import DefectReport, pair_keys

__all__ = [
    "HJFunction",
    "Foliation",
    "FoliationError",
    "FoliationDegeneracyError",
    "poisson_bracket",
    "hj_residual_multi",
    "hj_consistency_defect",
    "hj_defect_grid",
    "hj_velocity_consistency_defect",
    "hj_trajectories_foliation",
    "foliation_leaves",
    "foliation_compare",
]

FOLIATION_INDEPENDENCE_TOL = 1e-6
#: the points of the common time grid on which ``foliation_compare`` compares
COMPARE_GRID_POINTS = 201


class FoliationDegeneracyError(FoliationError):
    """A world line became tangent to the foliation leaves (1 - u.V <= 0)."""


def _as_expr(e: str | Expression) -> Expression:
    return parse_expression(e) if isinstance(e, str) else e


def _hamiltonians(h_exprs: Sequence[str | Expression], n: int) -> tuple[Expression, ...]:
    """The trees of ``h_exprs``, one partial Hamiltonian per particle."""
    if len(h_exprs) != n:
        raise ValueError(f"need {n} partial Hamiltonian functions, got {len(h_exprs)}")
    return tuple(map(_as_expr, h_exprs))


def _point(s: HJFunction, times: Sequence[float], x: np.ndarray,
           h: float | None) -> tuple[list[float], list[float]]:
    """The time tuple and the positions, shaped (n,) and (n, d), as flat
    lists, checked for the step ``h`` by ``check_steps``."""
    times, x = np.asarray(times, float), np.asarray(x, float)
    for name, value, shape in (("times", times, (s.n,)), ("x", x, (s.n, s.d))):
        if value.shape != shape:
            raise ValueError(f"{name}: expected shape {shape}, got {value.shape}")
    times, x = times.tolist(), x.ravel().tolist()
    check_steps(h, binding_names("t", s.n) + binding_names("x", s.n, s.d), times + x)
    return times, x


class HJFunction:
    """Hamilton-Jacobi function S in the variables t1..tn, xJ_D.

    Each name in ``constants`` (a parameter of S, e.g. a momentum of a free
    solution) is replaced in S by its value, a number like any other.  A
    list of masses that is not n finite numbers > 0 raises ValueError.
    """

    def __init__(self, expr: str | Expression, n: int, d: int,
                 masses: Sequence[float], constants: Mapping[str, float] | None = None):
        self.expr = substitute(_as_expr(expr),
                               {k: Num(float(v)) for k, v in (constants or {}).items()})
        self.n, self.d = n, d
        self.masses = check_masses(masses, n)

    def grad_x(self, j: int, times: Sequence[float], x: np.ndarray,
               h: float | None = None) -> np.ndarray:
        """grad_{x_j} S (1-based j) by ``numdiff`` central differences: the
        cross-check of ``gradients``.  A given step ``h`` that rounds away
        at a component of x_j raises FloatingPointError."""
        x = np.atleast_2d(np.asarray(x, float))
        xs = binding_names("x", *x.shape)
        names = xs[(j - 1) * self.d:j * self.d]
        check_steps(h, names, x[j - 1].tolist())
        times = np.asarray(times, float).tolist()
        b = dict(zip(binding_names("t", len(times)) + xs, times + x.ravel().tolist()))
        return np.array([partial_derivative(self.expr, name, b, h=h) for name in names])

    def gradients(self, h: float | None = None) -> Callable[
            [Sequence[float], Sequence[float]], tuple[float, ...]]:
        """The gradients ``(times, x) -> (grad_{x_1} S, .., grad_{x_n} S)``:
        the time tuple and the flat (n, d) positions in, the n·d partial
        derivatives out, exact or central differences at the step ``h``,
        as one function, compiled once."""
        return _gradients(self.expr, self.n, self.d, h)

    def velocity(self, j: int, times: Sequence[float], x: np.ndarray,
                 h: float | None = None) -> np.ndarray:
        """grad_{x_j} S / m_j: the multi-time HJ velocity law."""
        return self.grad_x(j, times, x, h=h) / self.masses[j - 1]


class Foliation:
    """Flat spacelike foliation with leaves t = s + u.x, |u| < 1."""

    def __init__(self, u: Sequence[float] | float):
        u = np.atleast_1d(np.asarray(u, float))
        if not (norm := float(_norms(u))) < 1.0:
            why = ">= 1" if norm >= 1.0 else "is not a number"
            raise ValueError(f"|u| = {norm} {why}: leaves not spacelike")
        self.u = tuple(float(v) for v in u)

    @property
    def u_vec(self) -> np.ndarray:
        return np.asarray(self.u)

    def label(self) -> str:
        return "u=" + ",".join(f"{v:g}" for v in self.u)


@functools.lru_cache(maxsize=64)
def _gradients(s_expr: Expression, n: int, d: int, h: float | None) -> Callable:
    xs = binding_names("x", n, d)
    return compile_function([derivative(h)(s_expr, v) for v in xs],
                            [binding_names("t", n), xs])


@functools.lru_cache(maxsize=64)
def _bracket(f: Expression, g: Expression, n: int, d: int, h: float | None) -> Expression:
    """{f, g}, summed from 0 in the order of the x and p names."""
    grad, total = derivative(h), Num(0.0)
    for xv, pv in zip(binding_names("x", n, d), binding_names("p", n, d)):
        total = BinOp("+", total, BinOp("*", grad(f, xv), grad(g, pv)))
        total = BinOp("-", total, BinOp("*", grad(f, pv), grad(g, xv)))
    return total


def poisson_bracket(f: str | Expression, g: str | Expression, n: int, d: int,
                    bindings: Mapping[str, float], h: float | None = None) -> float:
    """{f, g} = sum_j grad_{x_j} f . grad_{p_j} g - grad_{p_j} f . grad_{x_j} g.
    Only the variables the bracket reads must be bound (``evaluate``'s
    UnboundVariableError for one that is not), and the step is checked at
    the positions and momenta among them."""
    bracket = _bracket(_as_expr(f), _as_expr(g), n, d, h)
    read = free_variables(bracket)
    moved = [v for v in phase_names(n, d)[1] if v in read]
    if read.issubset(bindings):  # else evaluate raises UnboundVariableError
        check_steps(h, moved, [bindings[v] for v in moved])
    return evaluate(bracket, bindings)


@functools.lru_cache(maxsize=64)
def _residuals(s_expr: Expression, h_exprs: tuple[Expression, ...],
               times: tuple[str, ...], n: int, d: int, h: float | None) -> Callable:
    """``(times, x) -> (dS/dt_j + H_j, ..)``, the momenta in each H_j
    replaced by the derivatives of S in the positions."""
    grad, xs = derivative(h), binding_names("x", n, d)
    momenta = {p: grad(s_expr, v) for p, v in zip(binding_names("p", n, d), xs)}
    return compile_function([BinOp("+", grad(s_expr, t), substitute(he, momenta))
                             for t, he in zip(times, h_exprs)],
                            [times, xs])


def hj_residual_multi(s: HJFunction, h_exprs: Sequence[str | Expression],
                      times: Sequence[float], x: np.ndarray,
                      h: float | None = None) -> list[float]:
    """Residuals |dS/dt_j + H_j(t, x, grad_x S)| of the multi-time system
    at ``times`` and ``x``, shaped (n,) and (n, d)."""
    exprs = _hamiltonians(h_exprs, s.n)
    times, x = _point(s, times, x, h)
    fn = _residuals(s.expr, exprs, binding_names("t", s.n), s.n, s.d, h)
    return [abs(v) for v in fn(times, x)]


@functools.lru_cache(maxsize=64)
def _poisson_defects(h_exprs: tuple[Expression, ...], n: int, d: int,
                     h: float | None) -> Callable:
    """``(times, (x, p)) -> (P_12, P_13, .., P_{n-1,n})``."""
    grad, (ts, state) = derivative(h), phase_names(n, d)
    return compile_function(
        [BinOp("-", BinOp("-", grad(h_exprs[k], ts[j]), grad(h_exprs[j], ts[k])),
               _bracket(h_exprs[j], h_exprs[k], n, d, h))
         for j in range(n) for k in range(j + 1, n)],
        [ts, state])


def hj_defect_grid(h_exprs: Sequence[str | Expression], n: int, d: int,
                   samples: np.ndarray, h: float | None = None) -> np.ndarray:
    """|P_jk| with P_jk = dH_k/dt_j - dH_j/dt_k - {H_j, H_k} at every row of
    ``samples``, an (m, n + 2·n·d) array of times, x rows and p rows: an
    (m, pairs) array, one column per pair j < k in the order 1,2 1,3 ..
    n-1,n, refused and evaluated as ``paths._defect_values`` does."""
    exprs = _hamiltonians(h_exprs, n)
    return _defect_values(functools.partial(_poisson_defects, exprs, n, d, h),
                          n * (n - 1) // 2, samples, n, d, h)


def hj_consistency_defect(h_exprs: Sequence[str | Expression], point: PhasePoint,
                          h: float | None = None) -> DefectReport:
    """The one-row case of ``hj_defect_grid``, the pairs keyed ``"j,k"``;
    the report's ``h`` is None when the derivatives are exact."""
    n, d = point.n, point.d
    [row] = hj_defect_grid(h_exprs, n, d, [[*point.times, *point.state()]], h).tolist()
    return DefectReport(dict(zip(pair_keys(n), row)), h)


@functools.lru_cache(maxsize=64)
def _sum_rule(exprs: tuple[Expression, ...], n: int, d: int, time_var: str) -> Callable:
    """``(times, (x, p), (time_var,)) -> (H_1, .., H_n, H)``."""
    return compile_function(exprs, [*phase_names(n, d), (time_var,)])


def equal_time_sum_gap(h_exprs: Sequence[str | Expression],
                       h_total: str | Expression, point: PhasePoint,
                       time_var: str = "t") -> float:
    """|sum_j H_j - H| at an equal-time phase point (the partial
    Hamiltonian functions must add up to the single-time one there)."""
    if not np.allclose(point.times, point.times[0]):
        raise ValueError("sum rule applies at equal times")
    fn = _sum_rule((*_hamiltonians(h_exprs, point.n), _as_expr(h_total)), point.n, point.d,
                   time_var)
    *parts, total = fn(point.times.tolist(), point.state().tolist(),
                       [float(point.times[0])])
    return abs(sum(parts) - total)


@functools.lru_cache(maxsize=64)
def _velocity_defects(s_expr: Expression, n: int, d: int, masses: tuple[float, ...],
                      h: float | None) -> Callable:
    """``(times, x) ->`` the defect components for each j and x_k, k != j."""
    grad, ts, xs, outputs = derivative(h), binding_names("t", n), binding_names("x", n, d), []
    for j in range(n):
        xj = xs[j * d:(j + 1) * d]
        vel = [BinOp("/", grad(s_expr, v), Num(masses[j])) for v in xj]
        for grad_k in [grad(s_expr, xk) for xk in xs if xk not in xj]:
            val = grad(grad_k, ts[j])
            for v, xv in zip(vel, xj):
                val = BinOp("+", val, BinOp("*", v, grad(grad_k, xv)))
            outputs.append(val)
    return compile_function(outputs, [ts, xs])


def hj_velocity_consistency_defect(s: HJFunction, times: Sequence[float],
                                   x: np.ndarray, h: float | None = None) -> float:
    """Sup over pairs j != k and components of

        (d/dt_j + grad_{x_j} S / m_j . grad_{x_j}) grad_{x_k} S

    at ``times`` and ``x``, shaped (n,) and (n, d) (0.0 for n = 1, NaN
    where a component is)."""
    times, x = _point(s, times, x, h)
    fn = _velocity_defects(s.expr, s.n, s.d, s.masses, h)
    return float(np.abs(fn(times, x)).max(initial=0.0))


def _degenerate(j: int, gamma: float, s_par: float) -> NoReturn:
    raise FoliationDegeneracyError(
        f"1 - u.V_{j} = {gamma:.3g} <= 0 at leaf s = {s_par:.6g}")


def _leaf_rates(velocities: Sequence[Expression], u: tuple[float, ...], n: int,
                d: int) -> tuple[list[Expression], list[tuple[Expression, Callable]]]:
    """The ``rates`` and ``guards`` of ``codegen.compile_rk4`` on the leaves
    t = s + u.x for the ``velocities`` V_j of each particle j: the rates
    V_j / gamma_j, and the guard gamma_j = 1 - u.V_j, which raises
    FoliationDegeneracyError at the stage's leaf s.  u.V_j is summed left to
    right from its first term, not from 0: 1 - (±0) = 1 drops the change."""
    rates, guards = [], []
    for j in range(n):
        vj = velocities[j * d:(j + 1) * d]
        dot = functools.reduce(functools.partial(BinOp, "+"),
                               [BinOp("*", Num(uk), v) for uk, v in zip(u, vj)])
        gamma = BinOp("-", Num(1.0), dot)
        guards.append((gamma, functools.partial(_degenerate, j + 1)))
        rates += [BinOp("/", v, gamma) for v in vj]
    return rates, guards


@functools.lru_cache(maxsize=64)
def _leaf_loop(s_expr: Expression, n: int, d: int, masses: tuple[float, ...],
               u: tuple[float, ...]) -> Callable:
    """The compiled RK4 loop of a sweep over the leaves t = s + u.x
    (``codegen.compile_rk4``), ``(x, s_vals, steps) -> rows``, one packed row
    of the positions and then the velocities per leaf:
    on leaf s particle j sits at t_j = s + u.x_j and moves with the
    velocity V_j = grad_{x_j} S / m_j, exact.  The sums u.x start from 0,
    so the sign of a zero in u changes nothing and u may key the memo."""
    xs, leaf_time = binding_names("x", n, d), {}
    for j, t in enumerate(binding_names("t", n)):
        dot = Num(0.0)
        for uk, x in zip(u, xs[j * d:(j + 1) * d]):
            dot = BinOp("+", dot, BinOp("*", Num(uk), Var(x)))
        leaf_time[t] = BinOp("+", Var(STEP_TIME), dot)
    velocities = [_div(substitute(diff(s_expr, x), leaf_time), Num(masses[i // d]))
                  for i, x in enumerate(xs)]
    rates, guards = _leaf_rates(velocities, u, n, d)
    return compile_rk4(velocities, xs, rates=rates, guards=guards)


def _leaf_sweep(s: HJFunction, fol: Foliation, s_lo: float, s_hi: float,
                ds: float) -> Callable:
    """The sweep ``x_leaf -> (times, xs, vs)``: RK4 over [s_lo, s_hi] from
    the flat state ``x_leaf`` on leaf s = 0, packed (``x.tobytes()``),
    forward and backward, by the compiled ``_leaf_loop`` on leaf grids
    built once.  Each loop row packs a leaf's positions and then its
    velocities, n·d doubles each, and the rows of both directions, from
    s_lo up, are read as one (leaves, 2, n, d) table by ``np.frombuffer``:
    ``xs`` and ``vs`` are its positions and velocities, (leaves, n, d), and
    ``times[j]`` the times s + u.x_j of world line j, checked to increase."""
    n, d = s.n, s.d
    loop = _leaf_loop(s.expr, n, d, s.masses, fol.u)
    n_fw = max(1, int(math.ceil((s_hi - 0.0) / ds))) if s_hi > 0 else 0
    n_bw = max(1, int(math.ceil((0.0 - s_lo) / ds))) if s_lo < 0 else 0
    s_fw = np.linspace(0.0, s_hi, n_fw + 1).tolist() if n_fw else [0.0]
    s_bw = np.linspace(0.0, s_lo, n_bw + 1).tolist() if n_bw else [0.0]
    h_fw = [b - a for a, b in zip(s_fw, s_fw[1:])]
    h_bw = [b - a for a, b in zip(s_bw, s_bw[1:])]
    s_all = np.array(s_bw[::-1] + s_fw[1:])

    def sweep(x_leaf: bytes):
        fw, bw = loop(x_leaf, s_fw, h_fw), loop(x_leaf, s_bw, h_bw)
        rows = bytearray().join(itertools.chain(reversed(bw), itertools.islice(fw, 1, None)))
        # (leaf, x|V, particle, d)
        table = np.frombuffer(rows).reshape(len(s_all), 2, n, d)
        xs, vs = table[:, 0], table[:, 1]
        times = []
        for j in range(n):
            times.append(s_all + xs[:, j] @ fol.u_vec)
            if np.any(np.diff(times[-1]) <= 0):
                raise FoliationError(
                    f"the times of world line {j + 1} do not increase along the "
                    f"leaves of the foliation {fol.label()}")
        return times, xs, vs

    return sweep


def foliation_leaves(fol: Foliation, init_positions: np.ndarray,
                     s_span: tuple[float, float], ds: float,
                     ) -> tuple[float, float, float]:
    """``(s_lo, s_hi, steps)`` of a trajectory run: the leaf parameters it
    integrates over, ``s_span`` widened to cover the t = 0 anchor events
    of ``init_positions``, and its number of RK4 steps at ``ds`` (a float,
    infinite when the range is); ValueError for a bad ``s_span`` or ``ds``."""
    lo, hi = check_span(s_span, "s_span")
    ds = check_positive(ds, "ds")
    x = np.atleast_2d(np.asarray(init_positions, float))
    u = fol.u_vec
    pad = float(np.max(np.abs(x @ u))) * 1.5 + ds if np.any(u) else 0.0
    s_lo, s_hi = min(lo, -pad), max(hi, pad)
    return s_lo, s_hi, max(s_hi, 0.0) / ds + max(-s_lo, 0.0) / ds


def _at_zero(times: list[np.ndarray], xs: np.ndarray, vs: np.ndarray, fol: Foliation,
             derivative: bool = False) -> np.ndarray:
    """x_j(0), or dx_j/dt(0) with ``derivative``, of the world lines of a
    sweep's records, flat, by ``paths.hermite_at``; FoliationError for a
    world line that misses t = 0.  Each query is at the one float time 0.0,
    so it takes ``hermite_at``'s float route, with the array route's bits."""
    values = []
    for j, t in enumerate(times):
        try:
            values.append(hermite_at(t, xs[:, j], vs[:, j], 0.0, derivative))
        except PathRangeError as exc:
            raise FoliationError(
                f"world line {j + 1} misses the anchor time t = 0 on the "
                f"foliation {fol.label()}: {exc}") from None
    return np.concatenate(values)


def _broyden_update(jac: np.ndarray, dx: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """J + ((dz - J dx) dx^T) / (dx.dx) (Broyden 1965), or J where dz is 0
    (J would turn singular) or dx.dx is 0 or not finite (J would turn NaN)."""
    if np.any(dz) and 0.0 < (dxdx := dx @ dx) < math.inf:
        return jac + np.outer(dz - jac @ dx, dx) / dxdx
    return jac


def hj_trajectories_foliation(s: HJFunction, fol: Foliation,
                              init_positions: np.ndarray,
                              s_span: tuple[float, float], ds: float,
                              anchor_tol: float = 1e-10,
                              max_anchor_iters: int = 50) -> NPath:
    """n-path generated by the HJ velocity law restricted to the leaves of
    a flat foliation.

    The world lines are anchored at the lab-frame events (t = 0,
    ``init_positions``): families extracted with different boosts then
    describe the same initial spacetime configuration, so their
    divergence (or agreement) is attributable to the foliation alone.
    Each anchoring iteration sweeps every leaf from the flat leaf-0
    configuration x_leaf and reads z = x_j(0) (``_at_zero``); until
    max|gap| <= ``anchor_tol`` x_leaf moves by the quasi-Newton step
    J step = gap (Broyden 1965).  J starts as the straight-line model
    I - V_j u^T of each particle, V_j = dx_j/dt(0) on the first sweep, and
    takes the update J += ((dz - J dx) dx^T) / (dx.dx) after each later
    sweep.  A later sweep that raises ArithmeticError, ExpressionError or
    FoliationError halves the step.  It raises its error instead once the
    halved step can no longer move x_leaf (max|step| <= ``anchor_tol``, or
    x_leaf + step rounds to x_leaf), and once a halved step has swept: a
    model step that fails again from there points past a degenerate leaf,
    and halving it only creeps toward that leaf.  A run that does not
    converge raises the last such error, else FoliationError.  A bad
    ``anchor_tol`` or ``max_anchor_iters``, or a bad ``s_span`` or ``ds`` or
    too many steps (``foliation_leaves``), raises ValueError before any
    sweep.  A converged world line whose momentum or momentum rate is not
    finite raises FloatingPointError."""
    if not anchor_tol >= 0.0:
        raise ValueError(f"anchor_tol must be a number >= 0, got {anchor_tol}")
    check_count(max_anchor_iters, 1, "max_anchor_iters")
    s_lo, s_hi, steps = foliation_leaves(fol, init_positions, s_span, ds)
    bound_steps(steps, "leaves")
    sweep = _leaf_sweep(s, fol, s_lo, s_hi, ds)
    target = np.asarray(init_positions, float).ravel()
    x_leaf, step, halved, rescued = target, None, False, False
    failure = FoliationError(f"world-line anchoring did not converge in {max_anchor_iters} "
                             f"iterations on the foliation {fol.label()}")
    for _ in range(max_anchor_iters):
        x_next = x_leaf if step is None else x_leaf + step
        try:
            records = sweep(x_next.tobytes())
            z_next = _at_zero(*records, fol)
        except (ArithmeticError, ExpressionError, FoliationError) as exc:
            if step is None or rescued:
                raise
            step, failure, halved = step / 2.0, exc, True
            if (float(np.max(np.abs(step))) <= anchor_tol
                    or np.array_equal(x_leaf + step, x_leaf)):
                raise  # the halved step can no longer move the configuration
            continue
        rescued = halved
        if step is None:  # the straight-line model, particle by particle
            v, jac = _at_zero(*records, fol, derivative=True), np.eye(len(target))
            for i in range(0, len(target), s.d):
                jac[i:i + s.d, i:i + s.d] -= np.outer(v[i:i + s.d], fol.u_vec)
        else:
            jac = _broyden_update(jac, x_next - x_leaf, z_next - z)
        x_leaf, z = x_next, z_next
        gap = target - z
        if float(np.max(np.abs(gap))) <= anchor_tol:
            break
        step = np.linalg.solve(jac, gap)
    else:
        raise failure
    times, xs, vs = records
    # a momentum beyond the float range, or leaf steps so fine that
    # np.gradient's products of them underflow, leave a world line that is
    # not finite: a numerical failure, not a sample error
    with np.errstate(all="ignore"):
        ps = [vs[:, j] * mass for j, mass in enumerate(s.masses)]
        dps = [np.gradient(p, t, axis=0) for t, p in zip(times, ps)]
    for j, (p, dp) in enumerate(zip(ps, dps), 1):
        if not (np.isfinite(p).all() and np.isfinite(dp).all()):
            raise FloatingPointError(f"non-finite momentum or momentum rate on the world "
                                     f"line of particle {j} on the foliation {fol.label()}")
    return NPath([WorldLine(t=t, x=xs[:, j], p=p, dxdt=vs[:, j], dpdt=dp)
                  for j, (t, p, dp) in enumerate(zip(times, ps, dps))])


def foliation_compare(s: HJFunction, foliations: Sequence[Foliation],
                      init_positions: np.ndarray, s_span: tuple[float, float],
                      ds: float, tolerance: float = FOLIATION_INDEPENDENCE_TOL,
                      ) -> dict:
    """Pairwise sup-distance between the trajectory families extracted
    under each foliation, compared as point sets on a common time grid of
    ``COMPARE_GRID_POINTS`` points; ValueError for a bad ``tolerance``.
    The dict holds ``labels``, ``distances`` (symmetric), ``tolerance`` and
    ``foliation_independent``: whether each distance is below it."""
    check_count(len(foliations), 2, "foliations")
    check_positive(tolerance, "tolerance")
    paths = [hj_trajectories_foliation(s, fol, init_positions, s_span, ds)
             for fol in foliations]
    m = len(paths)
    dist = [[0.0] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            worst = 0.0
            for j in range(1, s.n + 1):
                la, lb = paths[a].line(j), paths[b].line(j)
                lo, hi = max(la.t_min, lb.t_min), min(la.t_max, lb.t_max)
                if hi <= lo:
                    raise FoliationError(f"no common time window for particle {j}")
                grid = np.linspace(lo, hi, COMPARE_GRID_POINTS)
                worst = max(worst, float(np.max(np.abs(la.x_at(grid) - lb.x_at(grid)))))
            dist[a][b] = dist[b][a] = worst
    independent = all(dist[a][b] < tolerance for a in range(m) for b in range(a + 1, m))
    return {"labels": [fol.label() for fol in foliations], "distances": dist,
            "foliation_independent": independent, "tolerance": tolerance}
