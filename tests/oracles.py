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
read their trees through it.  ``diff_unreduced`` is ``diff`` before it
reduced the constants of its rules, which the reduced derivatives are
pinned against bit for bit wherever its value is finite.

``hermite_oracle``, ``anchoring_oracle``, ``full_grid_oracle`` and
``path_independence_oracle`` build n-paths and grids the long way, which
the library's runs are pinned against bit for bit and error for error:
the cubic pieces of every interval of a world line, then the one a query
falls in; one full ``NPath`` per anchoring iteration, read at t = 0, and
the library's quasi-Newton step; one compiled loop call per grid leg.

``unpack_rows`` decodes the packed rows of a compiled RK4 loop into the
tuples of floats the loops returned before, and ``table_oracle`` and
``leaf_table_oracle`` read such tuples into arrays as the runs did then,
by ``np.fromiter``; the runs' ``np.frombuffer`` tables are pinned against
them bit for bit.

``rk4_oracle`` is an RK4 run one component at a time in plain Python,
with the rule for a step sum that overflows, which the compiled loops are
pinned against where their rates are large.  ``emit_oracle``,
``compile_rk4_oracle`` and ``leaf_rates_oracle`` are the
code generator of the RK4 loops before its leaner loop (integer
coefficients, a time read at every step, a complex check after every
power), which the library's loops are pinned against bit for bit and
error for error.  ``defect_oracle`` and ``validity_oracle`` are the
classical defect and validity residual one point and one sample at a
time, the latter by ``is_spacelike``, the spacelike test of one sample,
and ``sample_points_oracle`` and ``validity_tuples_oracle`` the CLI's
random draws in several calls, which the grid, the batched pass and the
single draws are pinned against.  ``defect_grid_oracle`` and
``hj_defect_oracle`` are the classical defect grid and the HJ defect as
they were before both grids took and returned arrays: one
``DefectReport`` per point.  ``phase_points`` turns the rows of a samples
array into the points they take.

``defect_matrix_oracle`` and ``quantum_defect_oracle`` are the quantum
defect as it was before it was taken on stacks: one time tuple and one
pair at a time, each Hamiltonian built alone by ``hamiltonian`` and each
central difference checked for its step where it is taken.  The grid and
the one-point defects are pinned against them bit for bit.

``parse_oracle`` is the recursive-descent parser as it was before its
precedence levels were read from a table: a cursor class with one method
per level.  The parser is pinned against it tree for tree and error for
error on random strings.  It is that parser unchanged, but for the name
of its entry point.
"""

import functools
import itertools
import math
import operator
import re
import struct
from typing import Callable, Mapping, Sequence

import numpy as np

from multitime import classical, hj
from multitime.linops import commutator, norm_inf
from multitime.codegen import _define, _indent, _reader
from multitime.expr import (_ONE, _ZERO, FUNCTIONS, STEP_TIME, BinOp, Call, Expression,
                            ExpressionError, ExpressionSyntaxError, Neg, Num,
                            UnknownFunctionError, Var, _add, _domain_error, _is_num, _pow,
                            binding_names, bound_steps, check_steps, evaluate,
                            parse_expression, phase_names, substitute)
from multitime.hj import _as_expr, _degenerate, _residuals
from multitime.paths import NPath, PathRangeError, WorldLine
from multitime.reports import DefectReport


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


def _unreduced_sub(a: Expression, b: Expression) -> Expression:
    if _is_num(b, 0.0):
        return a
    return _unreduced_neg(b) if _is_num(a, 0.0) else BinOp("-", a, b)


def _unreduced_neg(a: Expression) -> Expression:
    return _ZERO if _is_num(a, 0.0) else Neg(a)


def _unreduced_mul(a: Expression, b: Expression) -> Expression:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return _ZERO
    if _is_num(a, 1.0):
        return b
    return a if _is_num(b, 1.0) else BinOp("*", a, b)


def _unreduced_div(a: Expression, b: Expression) -> Expression:
    if _is_num(a, 0.0):
        return _ZERO
    return a if _is_num(b, 1.0) else BinOp("/", a, b)


def diff_unreduced(expr: Expression, var: str) -> Expression:
    """``expr.diff`` before it reduced the constants of its rules: ``p^2/2``
    gives ``2 * p / 2``, and ``-(-u)``, ``u * -1`` and ``(-a) / b`` stay."""
    match expr:
        case Num():
            return _ZERO
        case Var(name):
            return _ONE if name == var else _ZERO
        case Neg(arg):
            return _unreduced_neg(diff_unreduced(arg, var))
        case BinOp(op, u, v):
            du, dv = diff_unreduced(u, var), diff_unreduced(v, var)
            if op == "+":
                return _add(du, dv)
            if op == "-":
                return _unreduced_sub(du, dv)
            if op == "*":
                return _add(_unreduced_mul(du, v), _unreduced_mul(u, dv))
            if op == "/":
                if _is_num(dv, 0.0):
                    return _unreduced_div(du, v)
                return _unreduced_div(_unreduced_sub(_unreduced_mul(du, v),
                                                     _unreduced_mul(u, dv)),
                                      _unreduced_mul(v, v))
            if _is_num(dv, 0.0):
                if _is_num(v, 0.0):
                    return _ZERO
                c1 = Num(v.value - 1.0) if isinstance(v, Num) else _unreduced_sub(v, _ONE)
                return _unreduced_mul(_unreduced_mul(v, _pow(u, c1)), du)
            return _unreduced_mul(expr, _add(_unreduced_mul(dv, Call("log", u)),
                                             _unreduced_mul(v, _unreduced_div(du, u))))
        case Call(func, u):
            du = diff_unreduced(u, var)
            if _is_num(du, 0.0):
                return _ZERO
            match func:
                case "sin":
                    return _unreduced_mul(Call("cos", u), du)
                case "cos":
                    return _unreduced_mul(Neg(Call("sin", u)), du)
                case "exp":
                    return _unreduced_mul(expr, du)
                case "log":
                    return _unreduced_div(du, u)
                case "sqrt":
                    return _unreduced_div(du, _unreduced_mul(Num(2.0), expr))
                case "abs":
                    return _unreduced_mul(_unreduced_div(u, expr), du)
                case "tanh":
                    return _unreduced_mul(_unreduced_sub(_ONE, _pow(expr, Num(2.0))), du)
            raise TypeError(f"no derivative for function {func!r}")
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


def pack(values: Sequence[float]) -> bytes:
    """``values`` as the packed row that starts a compiled RK4 loop."""
    return struct.pack(f"{len(values)}d", *values)


def unpack_rows(rows: Sequence[bytes], size: int | None = None):
    """The packed rows of a compiled RK4 loop as tuples of floats: the
    states of a leg loop, or with ``size``, the state's length, the states
    and the records of a recording loop, as two lists."""
    values = [struct.unpack(f"{len(row) // 8}d", row) for row in rows]
    if size is None:
        return values
    return [row[:size] for row in values], [row[size:] for row in values]


def table_oracle(rows: Sequence[tuple], width: int) -> np.ndarray:
    """The loop rows ``rows``, tuples of ``width`` floats each, as one flat
    array, read by ``np.fromiter`` as ``classical`` read them before packed
    rows (its ``_table``)."""
    return np.fromiter(itertools.chain.from_iterable(rows), float, len(rows) * width)


def leaf_table_oracle(bw: list[tuple], fw: list[tuple], leaves: int, n: int,
                      d: int) -> np.ndarray:
    """The (leaves, n, d) table of a sweep's backward and forward rows, the
    leaf s = 0 once, read by ``np.fromiter`` as ``hj._leaf_sweep`` read
    them before packed rows (its ``table``)."""
    rows = itertools.chain(reversed(bw), itertools.islice(fw, 1, None))
    return np.fromiter(itertools.chain.from_iterable(rows), float,
                       leaves * n * d).reshape(leaves, n, d)


def _foliation_npath(s, fol, x_leaf: list[float], s_lo: float, s_hi: float,
                     ds: float) -> NPath:
    """One sweep over the leaves from leaf 0, forward and backward, as one
    NPath with the momenta and their np.gradient rates."""
    n, d = s.n, s.d
    loop = hj._leaf_loop(s.expr, n, d, s.masses, fol.u)

    def sweep(s_vals):
        rows = loop(pack(x_leaf), s_vals, [b - a for a, b in zip(s_vals, s_vals[1:])])
        return unpack_rows(rows, n * d)

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
    step halves it, unless the halved step is at most ``anchor_tol`` or
    moves no coordinate, or a halved step has swept before: then it raises
    its error.  A run that does not converge raises the last error such a
    sweep met."""
    x_target = np.atleast_2d(np.asarray(init_positions, float))
    s_lo, s_hi, steps = hj.foliation_leaves(fol, x_target, s_span, ds)
    bound_steps(steps, "leaves")
    target = x_target.ravel()
    size = len(target)
    x_leaf, step, failure, swept_halved = target, None, None, False
    for _ in range(max_anchor_iters):
        x_next = x_leaf if step is None else x_leaf + step
        try:
            npath = _foliation_npath(s, fol, x_next.tolist(), s_lo, s_hi, ds)
            z_next = _oracle_at_zero(npath, fol)
        except (ArithmeticError, ExpressionError, hj.FoliationError) as exc:
            if step is None or swept_halved:
                raise
            step, failure = step / 2.0, exc
            if max(abs(v) for v in step) <= anchor_tol or all(
                    a + b == a for a, b in zip(x_leaf, step)):
                raise
            continue
        swept_halved = failure is not None
        if step is None:
            v, u = _oracle_at_zero(npath, fol, derivative=True), fol.u
            jac = np.array([[(1.0 if a == b else 0.0)
                             - (v[a] * u[b % s.d] if a // s.d == b // s.d else 0.0)
                             for b in range(size)] for a in range(size)])
        else:
            dx, dz = x_next - x_leaf, z_next - z
            # else z is at its rounding floor, and J would turn singular, or
            # dx.dx underflows or overflows, and J would turn NaN
            if np.any(dz) and 0.0 < dx @ dx < math.inf:
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
    # every node kept, as the loop returned them before it took its legs:
    # each step a leg
    legs = [range(i, i + 1) for i in range(substeps)]
    return unpack_rows(loop(pack(y), ts, [dt] * substeps, legs, *fixed))[-1]


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


def emit_oracle(outputs: Sequence[Expression], read: Callable[[str], str],
                namespace: dict[str, object], lines: list[str]) -> list[str]:
    """``expr._emit`` before the leaner loop, unchanged."""
    names: dict[tuple, str] = {}

    def emit(node: Expression) -> str:
        match node:
            case Num(value):
                key = ("num", struct.pack("d", value))
            case Var(name):
                key = ("var", name)
            case Neg(arg):
                key = ("neg", emit(arg))
            case BinOp(op, left, right):
                key = (op, emit(left), emit(right))
            case Call(func, arg):
                key = (func, emit(arg))
            case _:
                raise TypeError(f"not an Expression: {node!r}")
        if key not in names:
            names[key] = statement(node, key)
        return names[key]

    def statement(node: Expression, key: tuple) -> str:
        """Emit a node first seen under ``key``, whose operands are
        emitted already; return the name holding its value."""
        match node:
            case Num(value):
                name = f"c{len(namespace)}"
                namespace[name] = value
                return name
            case Var(name):
                return read(name)
        # unique: a statement is appended after every new temporary
        out = f"r{len(lines)}"
        match node:
            case Neg():
                lines.append(f"{out} = -{key[1]}")
            case BinOp(op):
                a, c = key[1], key[2]
                if op in "+-*":
                    lines.append(f"{out} = {a} {op} {c}")
                elif op == "/":
                    lines.append(f"if {c} == 0.0:\n _domain_error('division by zero')\n"
                                 f"{out} = {a} / {c}")
                else:
                    lines.append(
                        f"try:\n {out} = {a} ** {c}\n"
                        "except (ValueError, ZeroDivisionError, OverflowError) as exc:\n"
                        f" _domain_error('invalid power {{}}^{{}}: {{}}', {a}, {c}, exc)\n"
                        f"if isinstance({out}, complex):\n"
                        f" _domain_error('power {{}}^{{}} leaves the real domain', {a}, {c})")
            case Call(func):
                namespace[f"_{func}"] = FUNCTIONS[func]
                x = key[1]
                if func == "log":
                    lines.append(f"if {x} <= 0.0:\n"
                                 f" _domain_error('log of non-positive value {{}}', {x})")
                elif func == "sqrt":
                    lines.append(f"if {x} < 0.0:\n"
                                 f" _domain_error('sqrt of negative value {{}}', {x})")
                lines.append(f"try:\n {out} = _{func}({x})\n"
                             "except (ValueError, OverflowError) as exc:\n"
                             f" _domain_error('{func}({{}}): {{}}', {x}, exc)")
        return out

    return [emit(node) for node in outputs]


# the stages of an RK4 step after the first: the prefix of the stage
# state's names, and the time and the step factor that make it
_STAGES_ORACLE = (("a", "t_half", "h2"), ("b", "t_half", "h2"), ("e", "t_end", "h"))


def compile_rk4_oracle(outputs: Sequence[Expression], state: Sequence[str],
                       fixed: Sequence[str] = (), *,
                       record: bool = True,
                       rates: Callable[[list[str], str, list[str], dict], list[str]]
                       | None = None,
                       ) -> Callable:
    """``expr.compile_rk4`` before the leaner loop, unchanged but for
    the names of ``emit_oracle`` and ``_STAGES_ORACLE`` and for the rule of
    a step sum that overflows, which the loops took later (``rk4_oracle``):
    such a component is taken again with each rate scaled first."""
    namespace: dict[str, object] = {"_domain_error": _domain_error}
    fixed_locals = {name: f"f_{i}" for i, name in enumerate(fixed)}
    lines: list[str] = []  # the loop body

    def outputs_at(values: Sequence[str], time: str) -> list[str]:
        """Emit the outputs at the state held in ``values`` and the time
        held in ``time``; return their names."""
        bound = {**dict(zip(state, values)), STEP_TIME: time, **fixed_locals}
        return emit_oracle(outputs, _reader(bound), namespace, lines)

    def rates_at(values: Sequence[str], time: str) -> list[str]:
        return rates(values, time, lines, namespace) if rates else values

    def tuple_of(names: Sequence[str]) -> str:
        return f"({''.join(name + ', ' for name in names)})"

    ys = [f"y_{i}" for i in range(len(state))]
    node = outputs_at(ys, "t")
    if record:
        lines.append(f"states.append({tuple_of(ys)})\n"
                     f"records.append({tuple_of(node)})\n"
                     "if i == n:\n break")
    ks = [rates_at(node, "t")]
    lines.append("h = hs[i]\nh2 = h / 2\nt_half = t + h2\nt_end = t + h")
    for prefix, time, factor in _STAGES_ORACLE:
        stage = [f"{prefix}_{i}" for i in range(len(state))]
        lines += [f"{s} = {y} + {factor} * {k}" for s, y, k in zip(stage, ys, ks[-1])]
        ks.append(rates_at(outputs_at(stage, time), time))
    steps = [f"{y} + h6 * ((({k1} + 2 * {k2}) + 2 * {k3}) + {k4})"
             for y, k1, k2, k3, k4 in zip(ys, *ks)]
    zs = [f"z_{i}" for i in range(len(state))]
    lines.append(f"h6 = h / 6\n{tuple_of(zs)} = {tuple_of(steps)}")
    # a step sum that overflows: the component again, each rate scaled first
    lines += [f"if {z} - {z} != 0.0:\n"
              f" {z} = {y} + (h6 * {k1} + (2 * h6) * {k2} + (2 * h6) * {k3} + h6 * {k4})"
              for z, y, k1, k2, k3, k4 in zip(zs, ys, *ks)]
    lines.append(f"{tuple_of(ys)} = {tuple_of(zs)}")
    # y - y is 0.0 for a finite y and nan for an infinite or nan one
    lines.append(f"if {' + '.join(f'({y} - {y})' for y in ys)} != 0.0:\n"
                 " raise FloatingPointError(f'non-finite state at t = {t + h}')")
    if not record:
        lines.append(f"states.append({tuple_of(ys)})")
    return _define([
        f"def integrate(y, ts, hs{''.join(', ' + f for f in fixed_locals.values())}):",
        f" {tuple_of(ys)} = y",
        " n = len(hs)",
        " states, records = [], []" if record else f" states = [{tuple_of(ys)}]",
        f" for i in range({'n + 1' if record else 'n'}):",
        "  t = ts[i]",
        *_indent(_indent(lines)),
        f" return {'states, records' if record else 'states'}",
    ], "integrate", namespace)


def leaf_rates_oracle(u: tuple[float, ...], n: int, d: int) -> Callable:
    """``hj._leaf_rates`` before the leaner loop, unchanged."""
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


def rk4_oracle(rhs: Callable[[float, list[float]], Sequence[float]], y: Sequence[float],
               ts: Sequence[float], hs: Sequence[float]) -> list[list[float]]:
    """An RK4 run of dy/dt = rhs(t, y), one component at a time in plain
    Python: step i from ``ts[i]`` by ``hs[i]``, the stages at y + (h*0.5)*k
    and y + h*k3, the new state y + h/6 * (((k1 + 2*k2) + 2*k3) + k4), or,
    where that is not finite, y + (h6*k1 + (2*h6)*k2 + (2*h6)*k3 + h6*k4),
    and FloatingPointError where that is not finite either.  The state at
    every node."""
    states = [list(y)]
    for t, h in zip(ts, hs):
        y, h2 = states[-1], h * 0.5
        k1 = rhs(t, y)
        k2 = rhs(t + h2, [a + h2 * k for a, k in zip(y, k1)])
        k3 = rhs(t + h2, [a + h2 * k for a, k in zip(y, k2)])
        k4 = rhs(t + h, [a + h * k for a, k in zip(y, k3)])
        h6, z = h / 6.0, []
        for a, r1, r2, r3, r4 in zip(y, k1, k2, k3, k4):
            b = a + h6 * (((r1 + 2.0 * r2) + 2.0 * r3) + r4)
            if not math.isfinite(b):
                b = a + (h6 * r1 + (2.0 * h6) * r2 + (2.0 * h6) * r3 + h6 * r4)
            z.append(b)
        if not all(map(math.isfinite, z)):
            raise FloatingPointError(f"non-finite state at t = {t + h}")
        states.append(z)
    return states


def defect_oracle(field, point, h: float | None = 1e-4) -> DefectReport:
    """``classical.classical_consistency_defect`` point by point, as it was
    before the defect grid: the step check, the memo lookup and the pairs
    of one point."""
    n, d = field.n, field.d
    nd = n * d
    times, y = point.times.tolist(), point.state().tolist()
    names = binding_names("t", n) + binding_names("x", n, d) + binding_names("p", n, d)
    check_steps(h, names, times + y)
    values = [abs(v) for v in classical._defects(field.exprs, n, d, h)(times, y)]
    pairs = {}
    for j in range(1, n + 1):
        d_j = values[(j - 1) * 2 * nd:j * 2 * nd]  # D_j of every component
        for k in range(1, n + 1):
            if k != j:
                ak = (k - 1) * d  # v_k and w_k
                pairs[f"{j},{k}"] = max(d_j[ak:ak + d] + d_j[nd + ak:nd + ak + d])
    return DefectReport(pairs=pairs, h=h)


def phase_points(samples: np.ndarray, n: int, d: int) -> list:
    """The ``PhasePoint`` of every row of an (m, n + 2·n·d) samples array:
    its times, then its x rows, then its p rows."""
    nd = n * d
    return [classical.PhasePoint(times=row[:n], x=row[n:n + nd].reshape(n, d),
                                 p=row[n + nd:].reshape(n, d)) for row in samples]


@functools.lru_cache(maxsize=32)
def _pair_slots_oracle(n: int, d: int) -> tuple[tuple[str, Callable], ...]:
    """``classical._pair_slots`` before the grid returned an array,
    unchanged."""
    nd = n * d
    return tuple((f"{j},{k}", operator.itemgetter(*(
        2 * nd * (j - 1) + vw + (k - 1) * d + dd for vw in (0, nd) for dd in range(d))))
                 for j in range(1, n + 1) for k in range(1, n + 1) if k != j)


def defect_grid_oracle(field, points, h: float | None = 1e-4) -> list[DefectReport]:
    """``classical.classical_defect_grid`` before it took and returned
    arrays, unchanged but for the names of ``classical`` and
    ``_pair_slots_oracle``: one ``DefectReport`` per point."""
    n, d = field.n, field.d
    nd = n * d
    check_steps(h, (), ())
    width = n + 2 * nd
    coords = np.concatenate([np.array([getattr(pt, key) for pt in points], float)
                             .reshape(len(points), size)
                             for key, size in (("times", n), ("x", nd), ("p", nd))], axis=1)
    rounds = ([] if h is None else
              np.flatnonzero((coords + h == coords) | (coords - h == coords)))
    stop = int(rounds[0]) // width if len(rounds) else len(points)
    reports = []
    if stop:
        defects, pairs = classical._defects(field.exprs, n, d, h), _pair_slots_oracle(n, d)
        for ts, y in zip(coords[:stop, :n].tolist(), coords[:stop, n:].tolist()):
            values = list(map(abs, defects(ts, y)))
            reports.append(DefectReport({key: max(at(values)) for key, at in pairs}, h))
    if stop < len(points):
        check_steps(h, sum(phase_names(n, d), ()), coords[stop].tolist())
    return reports


def hj_defect_oracle(h_exprs, point, h: float | None = None) -> DefectReport:
    """``hj.hj_consistency_defect`` point by point, as it was before the HJ
    defect grid, unchanged but for the names of ``hj``."""
    n, d = point.n, point.d
    times, y = point.times.tolist(), point.state().tolist()
    check_steps(h, binding_names("t", n) + binding_names("x", n, d)
                + binding_names("p", n, d), times + y)
    fn = hj._poisson_defects(tuple(map(_as_expr, h_exprs)), n, d, h)
    keys = [f"{j},{k}" for j in range(1, n + 1) for k in range(j + 1, n + 1)]
    pairs = dict(zip(keys, map(abs, fn(times, y))))
    return DefectReport(pairs=pairs, h=h)


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


def validity_oracle(field, npath: NPath, samples) -> dict:
    """``classical.validity_residual`` sample by sample, as it was before the
    batched pass: ``is_spacelike`` and ``np.linalg.norm`` per sample; the
    report is the dict the CLI writes."""
    if any(len(sample) != field.n for sample in samples):
        raise ValueError("sample tuple length does not match n")
    tuples = np.reshape(np.asarray(samples, float), (len(samples), field.n))
    queried = [np.stack([getattr(npath.line(j + 1), query)(tuples[:, j])
                         for j in range(field.n)], axis=1)
               for query in ("x_at", "p_at", "dxdt_at", "dpdt_at")]
    rows, worst, rejected = [], 0.0, 0
    for times, xs, ps, dxs, dps in zip(tuples, *queried):
        if not is_spacelike(times, xs):
            rows.append({"times": times.tolist(), "spacelike": False})
            rejected += 1
            continue
        y = np.concatenate([xs.ravel(), ps.ravel()]).tolist()
        rates = np.reshape(field.rhs(times.tolist(), y), (2, field.n, field.d))
        residuals = [float(np.linalg.norm(dxs[j] - rates[0, j])
                           + np.linalg.norm(dps[j] - rates[1, j]))
                     for j in range(field.n)]
        rows.append({"times": times.tolist(), "spacelike": True, "residuals": residuals})
        worst = max(worst, max(residuals))
    return {"max_residual": worst, "rejected_samples": rejected,
            "accepted_samples": len(rows) - rejected, "rows": rows}


def sample_points_oracle(count: int, t_box, x_box, p_box, n: int, d: int,
                         seed: int) -> np.ndarray:
    """The CLI's random phase points, drawn as they were before one draw
    served them all: three ``uniform`` calls per point, each point one row
    of its times, x rows and p rows."""
    rng = np.random.default_rng(seed)
    return np.array([np.concatenate([rng.uniform(*t_box, size=n),
                                     rng.uniform(*x_box, size=(n, d)).ravel(),
                                     rng.uniform(*p_box, size=(n, d)).ravel()])
                     for _ in range(count)]).reshape(count, n + 2 * n * d)


def validity_tuples_oracle(count: int, window: float, lo: float, hi: float, n: int,
                           seed: int) -> list[list[float]]:
    """The CLI's validity sample tuples on the time range [lo, hi], drawn as
    they were before one draw served them all: two ``uniform`` calls per
    sample."""
    base_hi = max(hi - window, lo + window)
    rng = np.random.default_rng(seed)
    tuples = []
    for _ in range(count):
        base = rng.uniform(lo + window, base_hi)
        tup = base + rng.uniform(-window, window, size=n)
        tuples.append(np.clip(tup, lo, hi).tolist())
    return tuples


def _dh_oracle(sys, k: int, axis: int, times: Sequence[float], h: float) -> np.ndarray:
    """Central difference of H_k along time coordinate ``axis``."""
    tp = np.array(times, dtype=float)
    check_steps(h, binding_names("t", len(tp))[axis - 1:axis], [tp[axis - 1]])
    tm = tp.copy()
    tp[axis - 1] += h
    tm[axis - 1] -= h
    return (sys.hamiltonian(k, tp) - sys.hamiltonian(k, tm)) / (2.0 * h)


def defect_matrix_oracle(sys, times: Sequence[float], j: int, k: int,
                         h: float = 1e-4) -> np.ndarray:
    """C_jk = dH_k/dt_j - dH_j/dt_k + i [H_j, H_k] at the time tuple."""
    check_steps(h, (), ())
    hj = sys.hamiltonian(j, times)
    hk = sys.hamiltonian(k, times)
    return _dh_oracle(sys, k, j, times, h) - _dh_oracle(sys, j, k, times, h) \
        + 1j * commutator(hj, hk)


def quantum_defect_oracle(sys, times: Sequence[float], h: float = 1e-4) -> dict[str, float]:
    """Infinity norms of C_jk for all pairs j < k, keyed ``"j,k"``."""
    return {f"{j},{k}": norm_inf(defect_matrix_oracle(sys, times, j, k, h=h))
            for j in range(1, sys.n + 1) for k in range(j + 1, sys.n + 1)}


_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExpressionSyntaxError(
                f"unexpected character {source[pos]!r}", pos + 1
            )
        if m.lastgroup != "ws":
            kind = m.lastgroup
            tokens.append((kind, m.group(), m.start() + 1))
        pos = m.end()
    tokens.append(("end", "", len(source) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, col = self.peek()
        if kind != "op" or value != op:
            shown = value if value else "end of input"
            raise ExpressionSyntaxError(f"expected {op!r}, found {shown!r}", col)
        self.advance()

    def parse_expr(self) -> Expression:
        node = self.parse_term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinOp(value, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expression:
        node = self.parse_unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = BinOp(value, node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Expression:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expression:
        base = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return BinOp("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Expression:
        kind, value, col = self.advance()
        if kind == "num":
            return Num(float(value))
        if kind == "name":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise UnknownFunctionError(f"unknown function {value!r}", col)
                self.advance()
                arg = self.parse_expr()
                self.expect_op(")")
                return Call(value, arg)
            return Var(value)
        if kind == "op" and value == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        shown = value if value else "end of input"
        raise ExpressionSyntaxError(f"unexpected {shown!r}", col)


@functools.lru_cache(maxsize=1024)
def parse_oracle(source: str) -> Expression:
    """Parse ``source`` into an immutable AST.

    Raises ExpressionSyntaxError (with 1-based column) on malformed input
    and UnknownFunctionError on calls outside the supported function set.
    The ASTs of the last 1024 sources are cached, so a string parsed again
    returns the same tree, already compiled once it has been evaluated;
    errors are not cached.
    """
    if not source or not source.strip():
        raise ExpressionSyntaxError("empty expression", 1)
    parser = _Parser(_tokenize(source))
    node = parser.parse_expr()
    kind, value, col = parser.peek()
    if kind != "end":
        raise ExpressionSyntaxError(f"unexpected {value!r}", col)
    return node
