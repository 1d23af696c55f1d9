"""Multi-time Hamilton-Jacobi formalism.

Given an HJ function S(t1,x1,..,tn,xn) supplied as an expression, this
module evaluates residuals of the single- and multi-time HJ systems,
the Poisson-bracket consistency defect of partial Hamiltonian functions,
the velocity-consistency defect of the multi-time velocity law
dx_j/dt_j = grad_{x_j} S / m_j, and extracts trajectory families under
flat spacelike foliations t = s + u.x to exhibit foliation dependence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .classical import PhasePoint, rk4_step
from .expr import (Expression, compile_expression, evaluate, parse_expression,
                   variable_bindings)
from .numdiff import diff_callable, mixed_partial, partial_derivative
from .paths import NPath, WorldLine
from .reports import DefectReport, DivergenceReport

__all__ = [
    "HJFunction",
    "Foliation",
    "FoliationError",
    "FoliationDegeneracyError",
    "poisson_bracket",
    "hj_residual_single",
    "hj_residual_multi",
    "hj_consistency_defect",
    "hj_velocity_consistency_defect",
    "hj_trajectories_foliation",
    "foliation_compare",
]

FOLIATION_INDEPENDENCE_TOL = 1e-6
SMOOTHNESS_TOL = 1e-4


class FoliationError(RuntimeError):
    """Trajectories on a foliation could not be extracted or compared:
    anchoring did not converge, or two families share no time window."""


class FoliationDegeneracyError(FoliationError):
    """A world line became tangent to the foliation leaves (1 - u.V <= 0)."""


def _as_expr(e: str | Expression) -> Expression:
    return parse_expression(e) if isinstance(e, str) else e


@dataclass
class HJFunction:
    """Hamilton-Jacobi function S in the variables t1..tn, xJ_D.

    ``constants`` supplies values for any additional parameters appearing
    in the expression (e.g. momentum parameters of a free solution).
    """

    expr: Expression
    n: int
    d: int
    masses: tuple[float, ...]
    constants: dict[str, float]

    def __init__(self, expr: str | Expression, n: int, d: int,
                 masses: Sequence[float], constants: Mapping[str, float] | None = None):
        self.expr = _as_expr(expr)
        self.n = n
        self.d = d
        self.masses = tuple(float(m) for m in masses)
        self.constants = dict(constants or {})

    def bindings(self, times: Sequence[float], x: np.ndarray) -> dict[str, float]:
        return variable_bindings(times, np.atleast_2d(np.asarray(x, float)),
                                 constants=self.constants)

    def value(self, times: Sequence[float], x: np.ndarray) -> float:
        return compile_expression(self.expr)(self.bindings(times, x))

    def grad_x(self, j: int, times: Sequence[float], x: np.ndarray,
               h: float | None = None) -> np.ndarray:
        """grad_{x_j} S (1-based j)."""
        return self.grad_x_at(j, self.bindings(times, x), h=h)

    def grad_x_at(self, j: int, bindings: Mapping[str, float],
                  h: float | None = None) -> np.ndarray:
        """grad_{x_j} S at ``bindings`` from ``self.bindings(times, x)``;
        one set serves every particle at the same times and positions."""
        return np.array([
            partial_derivative(self.expr, f"x{j}_{dd + 1}", bindings, h=h)
            for dd in range(self.d)
        ])

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


def poisson_bracket(f: str | Expression, g: str | Expression, n: int, d: int,
                    bindings: Mapping[str, float], h: float | None = None) -> float:
    """{f, g} = sum_j grad_{x_j} f . grad_{p_j} g - grad_{p_j} f . grad_{x_j} g."""
    fe, ge = _as_expr(f), _as_expr(g)
    total = 0.0
    for j in range(1, n + 1):
        for dd in range(1, d + 1):
            xv, pv = f"x{j}_{dd}", f"p{j}_{dd}"
            total += partial_derivative(fe, xv, bindings, h=h) \
                * partial_derivative(ge, pv, bindings, h=h)
            total -= partial_derivative(fe, pv, bindings, h=h) \
                * partial_derivative(ge, xv, bindings, h=h)
    return total


def hj_residual_single(s_expr: str | Expression, h_expr: str | Expression,
                       t: float, x: np.ndarray, n: int, d: int,
                       constants: Mapping[str, float] | None = None,
                       h: float | None = None,
                       time_var: str = "t") -> float:
    """|dS/dt + H(t, x, grad_x S)| for the single-time HJ equation."""
    se, he = _as_expr(s_expr), _as_expr(h_expr)
    x = np.atleast_2d(np.asarray(x, float))[:n, :d]
    b = variable_bindings(x=x, constants={**(constants or {}), time_var: float(t)})
    dsdt = partial_derivative(se, time_var, b, h=h)
    grad = [[partial_derivative(se, f"x{j}_{dd}", b, h=h) for dd in range(1, d + 1)]
            for j in range(1, n + 1)]
    return abs(dsdt + evaluate(he, variable_bindings(p=grad, constants=b)))


def hj_residual_multi(s: HJFunction, h_exprs: Sequence[str | Expression],
                      times: Sequence[float], x: np.ndarray,
                      h: float | None = None) -> list[float]:
    """Residuals |dS/dt_j + H_j(t, x, grad_x S)| of the multi-time system."""
    if len(h_exprs) != s.n:
        raise ValueError(f"need {s.n} partial Hamiltonian functions")
    b = s.bindings(times, x)
    hb = variable_bindings(
        p=[s.grad_x(j, times, x, h=h) for j in range(1, s.n + 1)], constants=b)
    out = []
    for j, he in enumerate(h_exprs, start=1):
        dsdt = partial_derivative(s.expr, f"t{j}", b, h=h)
        out.append(abs(dsdt + evaluate(_as_expr(he), hb)))
    return out


def hj_consistency_defect(h_exprs: Sequence[str | Expression], point: PhasePoint,
                          h: float | None = None,
                          constants: Mapping[str, float] | None = None,
                          ) -> DefectReport:
    """|P_jk| with P_jk = dH_k/dt_j - dH_j/dt_k - {H_j, H_k}, all j < k."""
    exprs = [_as_expr(e) for e in h_exprs]
    n, d = point.n, point.d
    b = variable_bindings(point.times, point.x, point.p, constants)
    pairs = {}
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            val = partial_derivative(exprs[k - 1], f"t{j}", b, h=h) \
                - partial_derivative(exprs[j - 1], f"t{k}", b, h=h) \
                - poisson_bracket(exprs[j - 1], exprs[k - 1], n, d, b, h=h)
            pairs[f"{j},{k}"] = abs(val)
    used_h = h if h is not None else -1.0
    return DefectReport(pairs=pairs,
                        max_defect=max(pairs.values(), default=0.0),
                        h=used_h)


def equal_time_sum_gap(h_exprs: Sequence[str | Expression],
                       h_total: str | Expression, point: PhasePoint,
                       constants: Mapping[str, float] | None = None,
                       time_var: str = "t") -> float:
    """|sum_j H_j - H| at an equal-time phase point (the partial
    Hamiltonian functions must add up to the single-time one there)."""
    if not np.allclose(point.times, point.times[0]):
        raise ValueError("sum rule applies at equal times")
    b = variable_bindings(point.times, point.x, point.p, constants)
    b[time_var] = float(point.times[0])
    total = sum(evaluate(_as_expr(e), b) for e in h_exprs)
    return abs(total - evaluate(_as_expr(h_total), b))


def hj_velocity_consistency_defect(s: HJFunction, times: Sequence[float],
                                   x: np.ndarray, h: float | None = None,
                                   h2: float = 5e-4,
                                   smoothness_check: bool = True) -> float:
    """Sup over pairs j != k and components of

        (d/dt_j + grad_{x_j} S / m_j . grad_{x_j}) grad_{x_k} S.

    First derivatives use step ``h``, second mixed partials step ``h2``.
    """
    b = s.bindings(times, x)
    s_of = compile_expression(s.expr)

    worst = 0.0
    for j in range(1, s.n + 1):
        vel_j = s.velocity(j, times, x, h=h)
        for k in range(1, s.n + 1):
            if j == k:
                continue
            for e in range(1, s.d + 1):
                xk = f"x{k}_{e}"
                val = mixed_partial(s_of, f"t{j}", xk, b, h=h2)
                for dd in range(1, s.d + 1):
                    val += vel_j[dd - 1] * mixed_partial(s_of, f"x{j}_{dd}", xk, b, h=h2)
                if smoothness_check:
                    refined = mixed_partial(s_of, f"t{j}", xk, b, h=h2 / 2)
                    coarse = mixed_partial(s_of, f"t{j}", xk, b, h=h2)
                    if abs(refined - coarse) > SMOOTHNESS_TOL:
                        warnings.warn(
                            f"mixed partial d2S/dt{j} d{xk} unstable under step "
                            f"refinement ({abs(refined - coarse):.3g}); S may not "
                            "be C2 here", stacklevel=2)
                worst = max(worst, abs(val))
    return worst


def _integrate_on_foliation(s: HJFunction, fol: Foliation, x_leaf: np.ndarray,
                            s_lo: float, s_hi: float, ds: float) -> NPath:
    """RK4 in the leaf parameter from leaf ``s = 0`` (state ``x_leaf``)
    over [s_lo, s_hi]; on leaf s particle j sits at t_j = s + u.x_j."""
    u = fol.u_vec

    def velocities(s_par: float, y: np.ndarray) -> list[np.ndarray]:
        """V_1..V_n on leaf ``s_par`` at the flat state ``y``."""
        x = y.reshape(s.n, s.d)
        b = s.bindings(s_par + x @ u, x)
        return [s.grad_x_at(j, b) / s.masses[j - 1] for j in range(1, s.n + 1)]

    def rate(s_par: float, vs: list[np.ndarray]) -> np.ndarray:
        """dx/ds = V_j / (1 - u.V_j) for every particle j."""
        dx = np.zeros((s.n, s.d))
        for j, vj in enumerate(vs, start=1):
            gamma = 1.0 - float(u @ vj)
            if gamma <= 0.0:
                raise FoliationDegeneracyError(
                    f"1 - u.V_{j} = {gamma:.3g} <= 0 at leaf s = {s_par:.6g}")
            dx[j - 1] = vj / gamma
        return dx.ravel()

    def rhs(s_par: float, y: np.ndarray) -> np.ndarray:
        return rate(s_par, velocities(s_par, y))

    def sweep(s_vals: np.ndarray, x0: np.ndarray):
        """States on the leaves ``s_vals``, and the velocities on every
        leaf but the last (each step's k1 is made from them)."""
        ys, vs = [x0.ravel()], []
        for i in range(len(s_vals) - 1):
            vs.append(velocities(s_vals[i], ys[-1]))
            ys.append(rk4_step(rhs, s_vals[i], ys[-1], s_vals[i + 1] - s_vals[i],
                               rate(s_vals[i], vs[-1])))
        return ys, vs

    n_fw = max(1, int(math.ceil((s_hi - 0.0) / ds))) if s_hi > 0 else 0
    n_bw = max(1, int(math.ceil((0.0 - s_lo) / ds))) if s_lo < 0 else 0
    s_fw = np.linspace(0.0, s_hi, n_fw + 1) if n_fw else np.array([0.0])
    s_bw = np.linspace(0.0, s_lo, n_bw + 1) if n_bw else np.array([0.0])
    ys_fw, vs_fw = sweep(s_fw, x_leaf)
    ys_bw, vs_bw = sweep(s_bw, x_leaf)
    vs_bw.append(velocities(s_bw[-1], ys_bw[-1]))
    if n_fw:
        vs_fw.append(velocities(s_fw[-1], ys_fw[-1]))
    s_all = np.concatenate([s_bw[::-1], s_fw[1:]])
    xs_all = [y.reshape(s.n, s.d) for y in ys_bw[::-1] + ys_fw[1:]]
    vs_all = vs_bw[::-1] + vs_fw[1:]

    lines = []
    for j in range(1, s.n + 1):
        t_arr = np.array([s_all[i] + float(u @ xs_all[i][j - 1])
                          for i in range(len(s_all))])
        x_arr = np.stack([xs_all[i][j - 1] for i in range(len(s_all))])
        v_arr = np.stack([vs_all[i][j - 1] for i in range(len(s_all))])
        p_arr = v_arr * s.masses[j - 1]
        dp_arr = np.gradient(p_arr, t_arr, axis=0)
        lines.append(WorldLine(t=t_arr, x=x_arr, p=p_arr, dxdt=v_arr, dpdt=dp_arr))
    return NPath(lines)


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
    configuration.
    """
    x_target = np.atleast_2d(np.asarray(init_positions, float))
    u = fol.u_vec
    s_lo, s_hi = float(s_span[0]), float(s_span[1])
    # the s-range must cover the t = 0 anchor events
    pad = float(np.max(np.abs(x_target @ u))) * 1.5 + ds if np.any(u) else 0.0
    s_lo = min(s_lo, -pad)
    s_hi = max(s_hi, pad)

    x_leaf = x_target.copy()
    npath = None
    for _ in range(max_anchor_iters):
        npath = _integrate_on_foliation(s, fol, x_leaf, s_lo, s_hi, ds)
        gap = np.stack([
            x_target[j] - npath.line(j + 1).x_at(0.0) for j in range(s.n)
        ])
        if float(np.max(np.abs(gap))) < anchor_tol:
            break
        x_leaf = x_leaf + gap
    else:
        raise FoliationError(
            f"world-line anchoring did not converge in {max_anchor_iters} "
            f"iterations on the foliation {fol.label()}")
    return npath


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
                for t in grid:
                    worst = max(worst, float(np.max(np.abs(
                        la.x_at(t) - lb.x_at(t)))))
            dist[a][b] = dist[b][a] = worst
    independent = all(dist[a][b] < tolerance for a in range(m)
                      for b in range(a + 1, m))
    return DivergenceReport(
        labels=[fol.label() for fol in foliations],
        distances=dist,
        foliation_independent=independent,
        tolerance=tolerance,
    )
