"""Helpers of the test oracles.

``variable_bindings`` builds the bindings dict of the package's naming
convention, the input of the per-call algorithms (``numdiff`` central
differences, ``evaluate``) that the compiled conditions are pinned
against.

``staircase_oracle`` and ``diagonal_oracle`` are the per-substep
propagation loops that stacked propagation is pinned against bit for bit:
one Hamiltonian per midpoint tuple, built from the system's terms with
``evaluate``, and one ``eigh`` per substep.

``hj_residual_single`` is the residual of the single-time HJ equation,
read from the compiled multi-time residuals of ``hj`` with one time.

``with_constants`` puts parameters into expressions as numbers, the way
``HJFunction`` and the CLI do; the oracles bind the same parameters as
variables instead, so a bit-for-bit comparison also checks that the two
agree.

``to_string`` prints an expression so that parsing the text gives the
same tree back; the parser's round-trip and the symbolic ``diff`` tests
read their trees through it.

``hermite_oracle``, ``anchoring_oracle``, ``full_grid_oracle`` and
``path_independence_oracle`` build n-paths and grids the long way, which
the library's runs are pinned against bit for bit and error for error:
the cubic pieces of every interval of a world line, then the one a query
falls in; one full ``NPath`` per anchoring iteration, read at t = 0, and
the library's quasi-Newton step; one compiled loop call per grid leg.
"""

import math
from typing import Mapping, Sequence

import numpy as np

from multitime import classical, hj
from multitime.expr import (BinOp, Call, Expression, ExpressionError, Neg, Num, Var,
                            binding_names, bound_steps, check_steps, evaluate,
                            parse_expression, substitute)
from multitime.hj import _as_expr, _residuals
from multitime.paths import NPath, PathRangeError, WorldLine


def variable_bindings(times: Sequence[float] | np.ndarray = (),
                      x: Sequence[Sequence[float]] | np.ndarray | None = None,
                      p: Sequence[Sequence[float]] | np.ndarray | None = None,
                      constants: Mapping[str, float] | None = None,
                      ) -> dict[str, float]:
    """Bindings ``tJ`` from the time tuple and ``xJ_D``/``pJ_D`` from (n, d)
    position and momentum arrays (row J-1 is particle J), on top of
    ``constants``."""
    b = dict(constants or {})
    times = np.asarray(times, float).tolist()
    b.update(zip(binding_names("t", len(times), 0), times))
    for name, rows in (("x", x), ("p", p)):
        if rows is not None:
            rows = np.asarray(rows, float)
            n, d = rows.shape
            b.update(zip(binding_names(name, n, d), rows.ravel().tolist()))
    return b


def with_constants(exprs: Sequence[str | Expression],
                   constants: Mapping[str, float] | None) -> list[Expression]:
    """``exprs`` with each name in ``constants`` replaced by its value."""
    numbers = {k: Num(float(v)) for k, v in (constants or {}).items()}
    return [substitute(_as_expr(e), numbers) for e in exprs]


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_PREC_NEG = 3


def _prec(expr: Expression) -> int:
    match expr:
        case BinOp(op, _, _):
            return _PREC[op]
        case Neg(_):
            return _PREC_NEG
        case _:
            return 10


def to_string(expr: Expression) -> str:
    """Pretty-print so that re-parsing yields a structurally identical tree."""
    match expr:
        case Num(value):
            if value == int(value) and abs(value) < 1e16:
                return str(int(value))
            return repr(value)
        case Var(name):
            return name
        case Neg(arg):
            inner = to_string(arg)
            if _prec(arg) < _PREC_NEG:
                inner = f"({inner})"
            return f"-{inner}"
        case BinOp(op, left, right):
            ls = to_string(left)
            rs = to_string(right)
            # conservative parenthesization: equal precedence on the wrong
            # side is always wrapped, which keeps round-trips structural
            if op == "^":
                if _prec(left) <= _PREC[op]:
                    ls = f"({ls})"
                if _prec(right) < _PREC[op]:
                    rs = f"({rs})"
            else:
                if _prec(left) < _PREC[op]:
                    ls = f"({ls})"
                if _prec(right) <= _PREC[op]:
                    rs = f"({rs})"
            return f"{ls} {op} {rs}"
        case Call(func, arg):
            return f"{func}({to_string(arg)})"
    raise TypeError(f"not an Expression: {expr!r}")


def _hamiltonian(terms, base, dim: int, j: int, times: Sequence[float]) -> np.ndarray:
    """H_j at one time tuple: zeros + c * O over the terms of row j in
    order, c a Python float; with a ``base``, U (.) U^dagger for
    U = exp(-i base t1) from ``eigh``."""
    bindings = variable_bindings(times)
    h = np.zeros((dim, dim), dtype=np.complex128)
    for op, c in terms[j - 1]:
        if isinstance(c, str):
            c = parse_expression(c)
        c = evaluate(c, bindings) if isinstance(c, Expression) else float(c)
        h = h + c * np.asarray(op, dtype=np.complex128)
    if base is None:
        return h
    w, v = np.linalg.eigh(np.asarray(base, dtype=np.complex128))
    u = (v * np.exp(-1j * w * times[0])) @ v.conj().T
    return u @ h @ u.conj().T


def _propagator(h: np.ndarray, dt: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * dt)) @ v.conj().T


def staircase_oracle(terms, base, phi: np.ndarray, times: Sequence[float],
                     segments) -> np.ndarray:
    """The state after ``segments`` of the system of ``terms`` and
    ``base``, one midpoint Hamiltonian and propagator per substep."""
    phi = np.asarray(phi, dtype=np.complex128).copy()
    times = np.array(times, dtype=float)
    for seg in segments:
        delta = seg.duration / seg.substeps
        ax = seg.axis - 1
        for i in range(seg.substeps):
            tmid = times.copy()
            tmid[ax] += (i + 0.5) * delta
            h = _hamiltonian(terms, base, len(phi), seg.axis, tmid)
            phi = _propagator(h, delta) @ phi
        times[ax] += seg.duration
    return phi


def diagonal_oracle(terms, base, psi: np.ndarray, t_start: float, t_end: float,
                    steps: int) -> np.ndarray:
    """Single-time evolution under H_1 + ... + H_n on the diagonal, one
    midpoint Hamiltonian and propagator per step."""
    psi = np.asarray(psi, dtype=np.complex128).copy()
    n = len(terms)
    dt = (t_end - t_start) / steps
    for i in range(steps):
        tmid = t_start + (i + 0.5) * dt
        h = np.zeros((len(psi), len(psi)), dtype=np.complex128)
        for j in range(1, n + 1):
            h = h + _hamiltonian(terms, base, len(psi), j, [tmid] * n)
        psi = _propagator(h, dt) @ psi
    return psi


def hj_residual_single(s_expr: str | Expression, h_expr: str | Expression,
                       t: float, x: np.ndarray, n: int, d: int,
                       constants: Mapping[str, float] | None = None,
                       h: float | None = None,
                       time_var: str = "t") -> float:
    """|dS/dt + H(t, x, grad_x S)| for the single-time HJ equation, each
    name in ``constants`` replaced by its value."""
    x = np.atleast_2d(np.asarray(x, float))[:n, :d].ravel().tolist()
    check_steps(h, (time_var, *binding_names("x", n, d)), [t, *x])
    s_expr, h_expr = with_constants([s_expr, h_expr], constants)
    return abs(_residuals(s_expr, (h_expr,), (time_var,), n, d, h)([float(t)], x)[0])


def hermite_oracle(t: np.ndarray, y: np.ndarray, dydt: np.ndarray, time,
                   derivative: bool = False) -> np.ndarray:
    """The cubic Hermite interpolant (or its derivative) of the samples at
    ``time``: the coefficients of s^3, s^2, s, 1 of every interval first,
    then those of the interval each time falls in."""
    times = np.asarray(time, float)
    outside = (times < float(t[0]) - 1e-12) | (times > float(t[-1]) + 1e-12)
    if np.any(outside):
        first = time if times.ndim == 0 else times[outside][0]
        raise PathRangeError(f"time {first} outside sampled range "
                             f"[{float(t[0])}, {float(t[-1])}]")
    dt = np.diff(t)[:, None]
    slope = np.diff(y, axis=0) / dt
    curve = (dydt[:-1] + dydt[1:] - 2 * slope) / dt
    pieces = [curve / dt, (slope - dydt[:-1]) / dt - curve, dydt[:-1], y[:-1]]
    if derivative:
        pieces = [3.0 * pieces[0], 2.0 * pieces[1], pieces[2]]
    i = np.clip(np.searchsorted(t, times, side="right") - 1, 0, len(t) - 2)
    s = (times - t[i])[..., None]
    value, power = 0.0 + pieces[-1][i], 1.0
    for c in pieces[-2::-1]:
        power = power * s
        value = value + c[i] * power
    return value


def _foliation_npath(s, fol, x_leaf: list[float], s_lo: float, s_hi: float,
                     ds: float) -> NPath:
    """One sweep over the leaves from leaf 0, forward and backward, as one
    NPath with the momenta and their np.gradient rates."""
    n, d = s.n, s.d
    loop = hj._leaf_loop(s.expr, n, d, s.masses, fol.u)

    def sweep(s_vals):
        return loop(x_leaf, s_vals, [b - a for a, b in zip(s_vals, s_vals[1:])])

    n_fw = max(1, int(math.ceil((s_hi - 0.0) / ds))) if s_hi > 0 else 0
    n_bw = max(1, int(math.ceil((0.0 - s_lo) / ds))) if s_lo < 0 else 0
    s_fw = np.linspace(0.0, s_hi, n_fw + 1).tolist() if n_fw else [0.0]
    s_bw = np.linspace(0.0, s_lo, n_bw + 1).tolist() if n_bw else [0.0]
    ys_fw, vs_fw = sweep(s_fw)
    ys_bw, vs_bw = sweep(s_bw)
    s_all = np.array(s_bw[::-1] + s_fw[1:])
    xs_all = np.array(ys_bw[::-1] + ys_fw[1:]).reshape(len(s_all), n, d)
    vs_all = np.array(vs_bw[::-1] + vs_fw[1:]).reshape(len(s_all), n, d)
    lines = []
    for j in range(n):
        t_arr = s_all + xs_all[:, j] @ fol.u_vec
        if np.any(np.diff(t_arr) <= 0):
            raise hj.FoliationError(
                f"the times of world line {j + 1} do not increase along the "
                f"leaves of the foliation {fol.label()}")
        p_arr = vs_all[:, j] * s.masses[j]
        dp_arr = np.gradient(p_arr, t_arr, axis=0)
        lines.append(WorldLine(t=t_arr, x=xs_all[:, j], p=p_arr,
                               dxdt=vs_all[:, j], dpdt=dp_arr))
    return NPath(lines)


def _oracle_at_zero(npath: NPath, fol, derivative: bool = False) -> np.ndarray:
    """x_j(0), or dx_j/dt there, of every line of ``npath``, flat, by
    ``hermite_oracle``."""
    values = []
    for j, line in enumerate(npath.lines, start=1):
        try:
            values.append(hermite_oracle(line.t, line.x, line.dxdt, 0.0, derivative))
        except PathRangeError as exc:
            raise hj.FoliationError(
                f"world line {j} misses the anchor time t = 0 on the "
                f"foliation {fol.label()}: {exc}") from None
    return np.concatenate(values)


def anchoring_oracle(s, fol, init_positions, s_span: tuple[float, float], ds: float,
                     anchor_tol: float = 1e-10, max_anchor_iters: int = 50) -> NPath:
    """``hj.hj_trajectories_foliation`` with one NPath per anchoring
    iteration, each line read at t = 0 by ``hermite_oracle``.  The step
    solves J step = gap; J starts as I - V_j u^T, entry by entry, and takes
    Broyden's update after every later sweep; a sweep that raises after a
    step halves it, and a run that does not converge raises the last error
    such a sweep met."""
    x_target = np.atleast_2d(np.asarray(init_positions, float))
    s_lo, s_hi, steps = hj.foliation_leaves(fol, x_target, s_span, ds)
    bound_steps(steps, "leaves")
    target = x_target.ravel()
    size = len(target)
    x_leaf, step, failure = target, None, None
    for _ in range(max_anchor_iters):
        x_next = x_leaf if step is None else x_leaf + step
        try:
            npath = _foliation_npath(s, fol, x_next.tolist(), s_lo, s_hi, ds)
            z_next = _oracle_at_zero(npath, fol)
        except (ArithmeticError, ExpressionError, hj.FoliationError) as exc:
            if step is None:
                raise
            step, failure = step / 2.0, exc
            continue
        if step is None:
            v, u = _oracle_at_zero(npath, fol, derivative=True), fol.u
            jac = np.array([[(1.0 if a == b else 0.0)
                             - (v[a] * u[b % s.d] if a // s.d == b // s.d else 0.0)
                             for b in range(size)] for a in range(size)])
        else:
            dx, dz = x_next - x_leaf, z_next - z
            if np.any(dz):  # else z is at its rounding floor, and J would turn singular
                jac = jac + np.outer(dz - jac @ dx, dx) / (dx @ dx)
        x_leaf, z = x_next, z_next
        gap = target - z
        if float(np.max(np.abs(gap))) <= anchor_tol:
            return npath
        step = np.linalg.solve(jac, gap)
    if failure is not None:
        raise failure
    raise hj.FoliationError(
        f"world-line anchoring did not converge in {max_anchor_iters} "
        f"iterations on the foliation {fol.label()}")


def _grid_leg(hpair, k: int, times: Sequence[float], y, duration: float,
              substeps: int) -> tuple:
    """One leg along time k from the time tuple ``times``: one loop call."""
    dt = duration / substeps
    fixed = [t for ax, t in enumerate(times) if ax != k - 1]
    loop = classical._rk4_loop(hpair.fields[k - 1].exprs, hpair.n, hpair.d, k - 1)
    ts = [times[k - 1]]
    for _ in range(substeps):
        ts.append(ts[-1] + dt)
    return loop(y, ts, [dt] * substeps, *fixed)[-1]


def full_grid_oracle(hpair, init, t1_grid, t2_grid, substeps: int):
    """``(x, p)`` of ``classical.evolve_full_grid``, leg by leg: up the
    first t2 column, then along every t1 row."""
    t1s, t2s = np.asarray(t1_grid, float).tolist(), np.asarray(t2_grid, float).tolist()
    n, d = hpair.n, hpair.d
    y = init.state().tolist()
    column = []
    for i2 in range(len(t2s)):
        if i2 > 0:
            y = _grid_leg(hpair, 2, [t1s[0], t2s[i2 - 1]], y, t2s[i2] - t2s[i2 - 1],
                          substeps)
        column.append(y)
    rows = []
    for i2, y in enumerate(column):
        row = [y]
        for i1 in range(1, len(t1s)):
            y = _grid_leg(hpair, 1, [t1s[i1 - 1], t2s[i2]], y, t1s[i1] - t1s[i1 - 1],
                          substeps)
            row.append(y)
        rows.append(row)
    states = np.array(rows).reshape(len(t2s), len(t1s), 2, n, d)
    return np.ascontiguousarray(states.transpose(2, 3, 1, 0, 4))


def path_independence_oracle(hpair, init, rectangle: tuple[float, float],
                             dt: float) -> float:
    """``classical.grid_path_independence``, one loop call per leg."""
    dt1, dt2 = rectangle
    m1, m2 = classical.rectangle_steps(rectangle, dt)
    if m1 == 0:
        return 0.0
    t0, y0 = init.times.tolist(), init.state().tolist()
    ya = _grid_leg(hpair, 1, t0, y0, dt1, m1)
    ya = _grid_leg(hpair, 2, [t0[0] + dt1, t0[1]], ya, dt2, m2)
    yb = _grid_leg(hpair, 2, t0, y0, dt2, m2)
    yb = _grid_leg(hpair, 1, [t0[0], t0[1] + dt2], yb, dt1, m1)
    gx, gp = np.subtract(ya, yb).reshape(2, hpair.n, hpair.d)
    return float(np.sqrt(np.sum(gx ** 2) + np.sum(gp ** 2)))
