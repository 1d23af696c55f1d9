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
"""

from typing import Mapping, Sequence

import numpy as np

from multitime.expr import (Expression, Num, binding_names, check_steps, evaluate,
                            parse_expression, substitute)
from multitime.hj import _as_expr, _residuals


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
