"""Multi-time Hamilton-Jacobi formalism.

Given an HJ function S(t1,x1,..,tn,xn) supplied as an expression, this
module evaluates residuals of the multi-time HJ system,
the Poisson-bracket consistency defect of partial Hamiltonian functions,
the velocity-consistency defect of the multi-time velocity law
dx_j/dt_j = grad_{x_j} S / m_j, and extracts trajectory families under
flat spacelike foliations t = s + u.x to exhibit foliation dependence.
Each residual, defect and gradient is built as expressions, exact or
central differences at a given step, and compiled once per system and
step.  A parameter of S or of a Hamiltonian is a number in its tree,
put there by ``expr.substitute``, so no function here binds one.  A
trajectory sweep is one compiled RK4 loop (``expr.compile_rk4``) per
system and foliation, with the leaf times, the exact velocities and the
leaf rates V_j / (1 - u.V_j) inlined in every stage.  Each anchoring
iteration only sweeps the leaves and reads x_j(0) from the sweep's
records (``paths.hermite_at``).  The first sweeps every leaf; the later
ones stop a few leaves past the t = 0 crossings, on a prefix of the same
loop calls.  The momenta, their rates and the world lines are built once,
from a sweep of every leaf at the converged leaf-0 configuration.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, NoReturn, Sequence

import numpy as np

from .classical import PhasePoint
from .expr import (STEP_TIME, BinOp, Expression, ExpressionError, FoliationError,
                   Num, Var, binding_names, bound_steps, check_steps,
                   compile_function, compile_rk4, derivative, diff, evaluate,
                   parse_expression, substitute)
from .numdiff import partial_derivative
from .paths import NPath, PathRangeError, WorldLine, hermite_at
from .reports import DefectReport, DivergenceReport

__all__ = [
    "HJFunction",
    "Foliation",
    "FoliationError",
    "FoliationDegeneracyError",
    "poisson_bracket",
    "hj_residual_multi",
    "hj_consistency_defect",
    "hj_velocity_consistency_defect",
    "hj_trajectories_foliation",
    "foliation_leaves",
    "foliation_compare",
]

FOLIATION_INDEPENDENCE_TOL = 1e-6


class FoliationDegeneracyError(FoliationError):
    """A world line became tangent to the foliation leaves (1 - u.V <= 0)."""


def _as_expr(e: str | Expression) -> Expression:
    return parse_expression(e) if isinstance(e, str) else e


@dataclass
class HJFunction:
    """Hamilton-Jacobi function S in the variables t1..tn, xJ_D.

    Each name in ``constants`` (a parameter of S, e.g. a momentum of a free
    solution) is replaced in S by its value, a number like any other.
    """

    expr: Expression
    n: int
    d: int
    masses: tuple[float, ...]

    def __init__(self, expr: str | Expression, n: int, d: int,
                 masses: Sequence[float], constants: Mapping[str, float] | None = None):
        self.expr = substitute(_as_expr(expr),
                               {k: Num(float(v)) for k, v in (constants or {}).items()})
        self.n = n
        self.d = d
        self.masses = tuple(float(m) for m in masses)

    def grad_x(self, j: int, times: Sequence[float], x: np.ndarray,
               h: float | None = None) -> np.ndarray:
        """grad_{x_j} S (1-based j) by ``numdiff`` central differences: the
        cross-check of ``gradients``.  A given step ``h`` that rounds away
        at a component of x_j raises FloatingPointError."""
        x = np.atleast_2d(np.asarray(x, float))
        names = [f"x{j}_{dd + 1}" for dd in range(self.d)]
        check_steps(h, names, x[j - 1].tolist())
        times = np.asarray(times, float).tolist()
        b = dict(zip(binding_names("t", len(times)) + binding_names("x", *x.shape),
                     times + x.ravel().tolist()))
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


@dataclass(frozen=True)
class Foliation:
    """Flat spacelike foliation with leaves t = s + u.x, |u| < 1."""

    u: tuple[float, ...]

    def __init__(self, u: Sequence[float] | float):
        u = np.atleast_1d(np.asarray(u, float))
        if np.linalg.norm(u) >= 1.0:
            raise ValueError(f"|u| = {np.linalg.norm(u)} >= 1: leaves not spacelike")
        object.__setattr__(self, "u", tuple(float(v) for v in u))

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
    """{f, g} = sum_j grad_{x_j} f . grad_{p_j} g - grad_{p_j} f . grad_{x_j} g."""
    moved = binding_names("x", n, d) + binding_names("p", n, d)
    check_steps(h, moved, [bindings[v] for v in moved])
    return evaluate(_bracket(_as_expr(f), _as_expr(g), n, d, h), bindings)


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
    """Residuals |dS/dt_j + H_j(t, x, grad_x S)| of the multi-time system."""
    if len(h_exprs) != s.n:
        raise ValueError(f"need {s.n} partial Hamiltonian functions")
    times, x = np.asarray(times, float).tolist(), np.asarray(x, float).ravel().tolist()
    check_steps(h, binding_names("t", s.n) + binding_names("x", s.n, s.d), times + x)
    fn = _residuals(s.expr, tuple(map(_as_expr, h_exprs)), binding_names("t", s.n),
                    s.n, s.d, h)
    return [abs(v) for v in fn(times, x)]


@functools.lru_cache(maxsize=64)
def _poisson_defects(h_exprs: tuple[Expression, ...], n: int, d: int,
                     h: float | None) -> Callable:
    """``(times, (x, p)) -> (P_12, P_13, .., P_{n-1,n})``."""
    grad = derivative(h)
    return compile_function(
        [BinOp("-", BinOp("-", grad(h_exprs[k], f"t{j + 1}"),
                          grad(h_exprs[j], f"t{k + 1}")),
               _bracket(h_exprs[j], h_exprs[k], n, d, h))
         for j in range(n) for k in range(j + 1, n)],
        [binding_names("t", n), binding_names("x", n, d) + binding_names("p", n, d)])


def hj_consistency_defect(h_exprs: Sequence[str | Expression], point: PhasePoint,
                          h: float | None = None) -> DefectReport:
    """|P_jk| with P_jk = dH_k/dt_j - dH_j/dt_k - {H_j, H_k}, all j < k; the
    report's ``h`` is None when the derivatives are exact."""
    n, d = point.n, point.d
    times, y = point.times.tolist(), point.state().tolist()
    check_steps(h, binding_names("t", n) + binding_names("x", n, d)
                + binding_names("p", n, d), times + y)
    fn = _poisson_defects(tuple(map(_as_expr, h_exprs)), n, d, h)
    keys = [f"{j},{k}" for j in range(1, n + 1) for k in range(j + 1, n + 1)]
    pairs = dict(zip(keys, map(abs, fn(times, y))))
    return DefectReport(pairs=pairs, max_defect=max(pairs.values(), default=0.0), h=h)


@functools.lru_cache(maxsize=64)
def _sum_rule(exprs: tuple[Expression, ...], n: int, d: int, time_var: str) -> Callable:
    """``(times, (x, p), (time_var,)) -> (H_1, .., H_n, H)``."""
    return compile_function(exprs,
                            [binding_names("t", n),
                             binding_names("x", n, d) + binding_names("p", n, d),
                             (time_var,)])


def equal_time_sum_gap(h_exprs: Sequence[str | Expression],
                       h_total: str | Expression, point: PhasePoint,
                       time_var: str = "t") -> float:
    """|sum_j H_j - H| at an equal-time phase point (the partial
    Hamiltonian functions must add up to the single-time one there)."""
    if not np.allclose(point.times, point.times[0]):
        raise ValueError("sum rule applies at equal times")
    fn = _sum_rule(tuple(map(_as_expr, (*h_exprs, h_total))), point.n, point.d, time_var)
    *parts, total = fn(point.times.tolist(), point.state().tolist(),
                       [float(point.times[0])])
    return abs(sum(parts) - total)


@functools.lru_cache(maxsize=64)
def _velocity_defects(s_expr: Expression, n: int, d: int, masses: tuple[float, ...],
                      h: float | None) -> Callable:
    """``(times, x) ->`` the defect components for each j and x_k, k != j."""
    grad, xs, outputs = derivative(h), binding_names("x", n, d), []
    for j in range(n):
        xj = xs[j * d:(j + 1) * d]
        vel = [BinOp("/", grad(s_expr, v), Num(masses[j])) for v in xj]
        for grad_k in [grad(s_expr, xk) for xk in xs if xk not in xj]:
            val = grad(grad_k, f"t{j + 1}")
            for v, xv in zip(vel, xj):
                val = BinOp("+", val, BinOp("*", v, grad(grad_k, xv)))
            outputs.append(val)
    return compile_function(outputs, [binding_names("t", n), xs])


def hj_velocity_consistency_defect(s: HJFunction, times: Sequence[float],
                                   x: np.ndarray, h: float | None = None) -> float:
    """Sup over pairs j != k and components of

        (d/dt_j + grad_{x_j} S / m_j . grad_{x_j}) grad_{x_k} S.
    """
    times, x = np.asarray(times, float).tolist(), np.asarray(x, float).ravel().tolist()
    check_steps(h, binding_names("t", s.n) + binding_names("x", s.n, s.d), times + x)
    fn = _velocity_defects(s.expr, s.n, s.d, s.masses, h)
    return max([0.0, *map(abs, fn(times, x))])


def _degenerate(j: int, gamma: float, s_par: float) -> NoReturn:
    raise FoliationDegeneracyError(
        f"1 - u.V_{j} = {gamma:.3g} <= 0 at leaf s = {s_par:.6g}")


def _leaf_rates(u: tuple[float, ...], n: int, d: int) -> Callable:
    """The ``rates`` hook of ``expr.compile_rk4`` on the leaves t = s + u.x:
    dx_j/ds = V_j / gamma_j with gamma_j = 1 - u.V_j, for every particle j,
    and FoliationDegeneracyError where gamma_j <= 0."""
    def emit(values: list[str], time: str, lines: list[str], namespace: dict) -> list[str]:
        namespace["_degenerate"] = _degenerate
        namespace.update((f"_u{k}", uk) for k, uk in enumerate(u))
        rates = []
        for j in range(n):
            vj = values[j * d:(j + 1) * d]
            gamma = f"r{len(lines)}"
            # u.V_j as sum() adds it up: from 0, left to right
            dot = "".join(f" + _u{k} * {v}" for k, v in enumerate(vj))
            lines.append(f"{gamma} = 1.0 - (0{dot})\n"
                         f"if {gamma} <= 0.0:\n _degenerate({j + 1}, {gamma}, {time})")
            for v in vj:
                rates.append(f"r{len(lines)}")
                lines.append(f"{rates[-1]} = {v} / {gamma}")
        return rates

    return emit


@functools.lru_cache(maxsize=64)
def _leaf_loop(s_expr: Expression, n: int, d: int, masses: tuple[float, ...],
               u: tuple[float, ...]) -> Callable:
    """The compiled RK4 loop of a sweep over the leaves t = s + u.x
    (``expr.compile_rk4``), ``(x, s_vals, steps) -> (states, velocities)``:
    on leaf s particle j sits at t_j = s + u.x_j and moves with the
    velocity V_j = grad_{x_j} S / m_j, exact.  The sums u.x start from 0,
    so the sign of a zero in u changes nothing and u may key the memo."""
    xs = binding_names("x", n, d)
    leaf_time = {}
    for j in range(n):
        dot = Num(0.0)
        for uk, x in zip(u, xs[j * d:(j + 1) * d]):
            dot = BinOp("+", dot, BinOp("*", Num(uk), Var(x)))
        leaf_time[f"t{j + 1}"] = BinOp("+", Var(STEP_TIME), dot)
    velocities = [BinOp("/", substitute(diff(s_expr, x), leaf_time), Num(masses[i // d]))
                  for i, x in enumerate(xs)]
    return compile_rk4(velocities, xs, rates=_leaf_rates(u, n, d))


def _leaf_sweep(s: HJFunction, fol: Foliation, s_lo: float, s_hi: float,
                ds: float) -> tuple[Callable, tuple[int, int]]:
    """``(sweep, full)`` for the sweeps over [s_lo, s_hi] from leaf s = 0:
    RK4 in the leaf parameter by the compiled loop ``_leaf_loop``, forward
    and backward from 0, the leaf grids built once.  ``full`` is the
    number of backward and forward steps that cover the whole range.
    ``sweep(x_leaf, reach)`` starts from the flat state ``x_leaf`` on leaf
    0 and takes the first ``reach = (k_bw, k_fw)`` of those steps: the
    same loop calls on prefixes of the same grids, so its records are
    those of the full sweep on the leaves it reaches, bit for bit.  It
    returns ``(times, xs, vs)``: ``xs`` and ``vs`` are the positions and
    velocities on every leaf reached, (leaves, n, d), and ``times[j]`` the
    times t_j = s + u.x_j of world line j there, checked to increase."""
    n, d = s.n, s.d
    loop = _leaf_loop(s.expr, n, d, s.masses, fol.u)
    n_fw = max(1, int(math.ceil((s_hi - 0.0) / ds))) if s_hi > 0 else 0
    n_bw = max(1, int(math.ceil((0.0 - s_lo) / ds))) if s_lo < 0 else 0
    s_fw = np.linspace(0.0, s_hi, n_fw + 1).tolist() if n_fw else [0.0]
    s_bw = np.linspace(0.0, s_lo, n_bw + 1).tolist() if n_bw else [0.0]
    h_fw = [b - a for a, b in zip(s_fw, s_fw[1:])]
    h_bw = [b - a for a, b in zip(s_bw, s_bw[1:])]
    s_all = np.array(s_bw[::-1] + s_fw[1:])
    if len(s_all) < 2:
        raise ValueError(f"no leaf but s = 0 from s = {s_lo:g} to {s_hi:g}")

    def table(bw: list[tuple], fw: list[tuple]) -> np.ndarray:
        rows = itertools.chain(reversed(bw), itertools.islice(fw, 1, None))
        leaves = len(bw) + len(fw) - 1
        return np.fromiter(itertools.chain.from_iterable(rows), float,
                           leaves * n * d).reshape(leaves, n, d)

    def sweep(x_leaf: list[float], reach: tuple[int, int]):
        k_bw, k_fw = reach
        ys_fw, vs_fw = loop(x_leaf, s_fw[:k_fw + 1], h_fw[:k_fw])
        ys_bw, vs_bw = loop(x_leaf, s_bw[:k_bw + 1], h_bw[:k_bw])
        xs, vs = table(ys_bw, ys_fw), table(vs_bw, vs_fw)
        s_leaves = s_all[n_bw - k_bw:n_bw + k_fw + 1]
        times = []
        for j in range(n):
            times.append(s_leaves + xs[:, j] @ fol.u_vec)
            if np.any(np.diff(times[-1]) <= 0):
                raise FoliationError(
                    f"the times of world line {j + 1} do not increase along the "
                    f"leaves of the foliation {fol.label()}")
        return times, xs, vs

    return sweep, (n_bw, n_fw)


def foliation_leaves(fol: Foliation, init_positions: np.ndarray,
                     s_span: tuple[float, float], ds: float,
                     ) -> tuple[float, float, float]:
    """``(s_lo, s_hi, steps)`` of a trajectory run: the leaf parameters it
    integrates over, ``s_span`` widened to cover the t = 0 anchor events
    of ``init_positions``, and its number of RK4 steps at ``ds`` (a float,
    infinite when the range is)."""
    x = np.atleast_2d(np.asarray(init_positions, float))
    u = fol.u_vec
    pad = float(np.max(np.abs(x @ u))) * 1.5 + ds if np.any(u) else 0.0
    s_lo = min(float(s_span[0]), -pad)
    s_hi = max(float(s_span[1]), pad)
    return s_lo, s_hi, max(s_hi, 0.0) / ds + max(-s_lo, 0.0) / ds


def _anchor_reach(times: list[np.ndarray], vs: np.ndarray, gap: np.ndarray,
                  fol: Foliation, ds: float, reach: tuple[int, int],
                  full: tuple[int, int]) -> tuple[int, int]:
    """The steps ``(k_bw, k_fw)`` of the next anchoring sweep, at most
    ``full``: past the interval that holds t = 0 on each world line in the
    records ``times``, ``vs`` of a sweep of ``reach``, by one leaf more
    than moving leaf 0 by ``gap``, (n, d), shifts it.  As dt_j/ds =
    1 / (1 - u.V_j), that shift in s is about (1 - u.V_j) u.gap_j."""
    u, k_bw, k_fw = fol.u_vec, 0, 0
    for j, t in enumerate(times):
        i = int(np.searchsorted(t[1:-1], 0.0, side="right"))  # as hermite_at
        shift = abs((1.0 - float(vs[i, j] @ u)) * float(gap[j] @ u)) / ds
        # a shift not below the whole range, NaN among them, reaches it all
        margin = 1 + (math.ceil(shift) if shift < sum(full) else sum(full))
        k_bw = max(k_bw, margin - (i - reach[0]))
        k_fw = max(k_fw, (i - reach[0]) + 1 + margin)
    return min(full[0], k_bw), min(full[1], k_fw)


def _partial_records(sweep: Callable, x_leaf: list[float], reach: tuple[int, int]):
    """The records of ``sweep(x_leaf, reach)`` if they read x_j(0) as the
    full sweep's do, else None.  They do when the sweep raises nothing and
    each world line's times t have t[0] <= 0 < t[-1]: the full sweep has
    the same times on these leaves, none above 0 before them and none at
    or below 0 after them, so ``hermite_at`` counts as many inner knots at
    or below 0 in both and reads the same piece.  Where a sweep beyond
    ``reach`` would raise, these records hide the error; the full sweep
    that builds the world lines meets it."""
    try:
        records = sweep(x_leaf, reach)
    except (ArithmeticError, ExpressionError, FoliationError):
        return None  # the full sweep raises the error it meets first
    return records if all(t[0] <= 0.0 < t[-1] for t in records[0]) else None


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
    The anchoring solves a small fixed-point problem for the leaf-0
    configuration: each iteration sweeps the leaves from it and moves it
    by the gap between the targets and x_j(0), read from the cubic Hermite
    piece that holds t = 0.  The first iteration sweeps every leaf, the
    later ones only a few leaves past those pieces, where that reads
    x_j(0) as a full sweep would, bit for bit.  The n-path is built once,
    from a sweep of every leaf at the configuration that closes the gap.
    A run of more than ``expr.MAX_STEPS`` steps (see ``foliation_leaves``)
    raises ValueError before it starts, and so does a span with no leaf
    but s = 0; a world line that misses t = 0 or whose time does not
    increase along the leaves raises FoliationError.  An error that a
    later iteration's full sweep would meet beyond the leaves it reaches
    is met by that final sweep, if the anchoring converges.
    """
    x_target = np.atleast_2d(np.asarray(init_positions, float))
    s_lo, s_hi, steps = foliation_leaves(fol, x_target, s_span, ds)
    bound_steps(steps, "leaves")
    sweep, full = _leaf_sweep(s, fol, s_lo, s_hi, ds)
    x_leaf, reach = x_target.ravel(), full
    for _ in range(max_anchor_iters):
        records = None if reach == full else _partial_records(sweep, x_leaf.tolist(), reach)
        if records is None:
            reach = full
            records = sweep(x_leaf.tolist(), full)
        times, xs, vs = records
        at_zero = []
        for j in range(s.n):
            try:
                at_zero.append(hermite_at(times[j], xs[:, j], vs[:, j], 0.0))
            except PathRangeError as exc:
                raise FoliationError(
                    f"world line {j + 1} misses the anchor time t = 0 on the "
                    f"foliation {fol.label()}: {exc}") from None
        gap = (x_target - np.stack(at_zero)).ravel()
        if float(np.max(np.abs(gap))) < anchor_tol:
            break
        x_leaf = x_leaf + gap
        reach = _anchor_reach(times, vs, gap.reshape(s.n, s.d), fol, ds, reach, full)
    else:
        raise FoliationError(
            f"world-line anchoring did not converge in {max_anchor_iters} "
            f"iterations on the foliation {fol.label()}")
    if reach != full:
        times, xs, vs = sweep(x_leaf.tolist(), full)
    lines = []
    for j, (t, mass) in enumerate(zip(times, s.masses)):
        p = vs[:, j] * mass
        lines.append(WorldLine(t=t, x=xs[:, j], p=p, dxdt=vs[:, j],
                               dpdt=np.gradient(p, t, axis=0)))
    return NPath(lines)


def foliation_compare(s: HJFunction, foliations: Sequence[Foliation],
                      init_positions: np.ndarray, s_span: tuple[float, float],
                      ds: float, grid_points: int = 201,
                      tolerance: float = FOLIATION_INDEPENDENCE_TOL,
                      ) -> DivergenceReport:
    """Pairwise sup-distance between the trajectory families extracted
    under each foliation, compared as point sets on a common time grid."""
    if len(foliations) < 2:
        raise ValueError("need >= 2 foliations to compare")
    paths = [hj_trajectories_foliation(s, fol, init_positions, s_span, ds)
             for fol in foliations]
    m = len(paths)
    dist = [[0.0] * m for _ in range(m)]
    for a in range(m):
        for b in range(a + 1, m):
            worst = 0.0
            for j in range(1, s.n + 1):
                la, lb = paths[a].line(j), paths[b].line(j)
                lo = max(la.t_min, lb.t_min)
                hi = min(la.t_max, lb.t_max)
                if hi <= lo:
                    raise FoliationError(
                        f"no common time window for particle {j}")
                grid = np.linspace(lo, hi, grid_points)
                worst = max(worst, float(np.max(np.abs(la.x_at(grid) - lb.x_at(grid)))))
            dist[a][b] = dist[b][a] = worst
    independent = all(dist[a][b] < tolerance for a in range(m)
                      for b in range(a + 1, m))
    return DivergenceReport(
        labels=[fol.label() for fol in foliations],
        distances=dist,
        foliation_independent=independent,
        tolerance=tolerance,
    )
