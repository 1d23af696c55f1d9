"""Multi-time Schroedinger systems on finite-dimensional state spaces.

A system is a set of partial Hamiltonians H_j(t1..tn), one per time
coordinate, acting on an n-fold tensor product of local dimension k, each
given by its (operator, coefficient) terms.  The module computes the
commutator consistency defect

    C_jk = dH_k/dt_j - dH_j/dt_k + i [H_j, H_k],

evolves states along axis-aligned staircases (lists of ``Segment``s) with
midpoint-frozen exponential propagators, measures rectangle holonomies,
and reduces to single-time evolution on the time diagonal.  An evolution
of more than ``classical.MAX_STEPS`` propagators is refused before it
starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linops
from .classical import MAX_STEPS
from .expr import (Expression, Num, binding_names, check_steps, compile_function,
                   parse_expression)
from .reports import DefectReport

__all__ = [
    "PartialHamiltonianSet",
    "MultiTimeState",
    "Segment",
    "total_hamiltonian",
    "consistency_defect_matrix",
    "quantum_consistency_defect",
    "evolve_staircase",
    "rectangle_holonomy",
    "diagonal_evolution",
    "staircase_between",
    "random_staircase",
]


def _require_operator(m, what: str, dim: int) -> np.ndarray:
    """``m`` as a complex matrix; ValueError naming ``what`` unless it is a
    Hermitian (dim, dim) matrix."""
    m = np.asarray(m, dtype=np.complex128)
    if m.shape != (dim, dim):
        raise ValueError(f"{what} has shape {m.shape}, not ({dim}, {dim})")
    if not linops.is_hermitian(m):
        raise ValueError(f"{what} is not Hermitian")
    return m


def _sum(ops: Sequence[np.ndarray], coefficients, dim: int) -> np.ndarray:
    h = np.zeros((dim, dim), dtype=np.complex128)
    for op, c in zip(ops, coefficients):
        h = h + c * op
    return h


class PartialHamiltonianSet:
    """n matrix-valued partial Hamiltonians H_j(t1..tn), n = len(terms).

    ``terms[j]`` lists the (operator, coefficient) pairs of H_(j+1) = sum
    of c * O; a coefficient is a number, an expression string or an
    Expression in the variables t1..tn.  The coefficients of each row are
    compiled here into one function of the time tuple, numbers as ``Num``;
    a row of numbers alone is summed once, here.  A constant ``base`` puts
    every H_j in the interaction picture, U (sum of c * O) U^dagger with
    U(t) = exp(-i * base * t1).  Each operator and ``base`` must be a
    Hermitian (local_dim^n, local_dim^n) matrix; with real coefficients, so
    is every H_j.
    """

    def __init__(self, terms: Sequence[Sequence[tuple[np.ndarray, object]]],
                 local_dim: int, base: np.ndarray | None = None):
        self.n = n = len(terms)
        self.local_dim = local_dim
        self.dim = dim = local_dim**n
        self._rows = []
        for j, row in enumerate(terms):
            ops = [_require_operator(op, f"operator of terms[{j}][{i}]", dim)
                   for i, (op, _) in enumerate(row)]
            if not any(isinstance(c, (str, Expression)) for _, c in row):
                k = _sum(ops, [float(c) for _, c in row], dim)
                self._rows.append(lambda _t, k=k: k)
                continue
            coeffs = [parse_expression(c) if isinstance(c, str)
                      else c if isinstance(c, Expression) else Num(float(c))
                      for _, c in row]
            f = compile_function(coeffs, [binding_names("t", n)])
            self._rows.append(lambda t, ops=ops, f=f: _sum(
                ops, f(np.asarray(t, float).tolist()), dim))
        self._frame = None
        if base is not None:
            w, v = np.linalg.eigh(_require_operator(base, "base", dim))
            self._frame = w, v, linops.dagger(v)

    def hamiltonian(self, j: int, times: Sequence[float]) -> np.ndarray:
        """H_j at the time tuple; ``j`` is 1-based."""
        if not 1 <= j <= self.n:
            raise ValueError(f"index {j} outside 1..{self.n}")
        if len(times) != self.n:
            raise ValueError(f"time tuple length {len(times)} != n = {self.n}")
        k = self._rows[j - 1](times)
        if self._frame is None:
            return k
        w, v, vd = self._frame
        u = (v * np.exp(-1j * w * times[0])) @ vd
        return u @ k @ u.conj().T


@dataclass
class MultiTimeState:
    vector: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.complex128)
        self.times = np.asarray(self.times, dtype=float)

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


@dataclass(frozen=True)
class Segment:
    """One axis-aligned leg of a staircase: move time ``axis`` (1-based)
    by ``duration`` in ``substeps`` equal substeps."""

    axis: int
    duration: float
    substeps: int = 1


def total_hamiltonian(sys: PartialHamiltonianSet,
                      times: Sequence[float]) -> np.ndarray:
    h = np.zeros((sys.dim, sys.dim), dtype=np.complex128)
    for j in range(1, sys.n + 1):
        h = h + sys.hamiltonian(j, times)
    return h


def _dh(sys: PartialHamiltonianSet, k: int, axis: int,
        times: Sequence[float], h: float) -> np.ndarray:
    """Central difference of H_k along time coordinate ``axis``."""
    tp = np.array(times, dtype=float)
    check_steps(h, [f"t{axis}"], [tp[axis - 1]])
    tm = tp.copy()
    tp[axis - 1] += h
    tm[axis - 1] -= h
    return (sys.hamiltonian(k, tp) - sys.hamiltonian(k, tm)) / (2.0 * h)


def consistency_defect_matrix(sys: PartialHamiltonianSet, times: Sequence[float],
                              j: int, k: int, h: float = 1e-4) -> np.ndarray:
    """C_jk = dH_k/dt_j - dH_j/dt_k + i [H_j, H_k] at the time tuple."""
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    hj = sys.hamiltonian(j, times)
    hk = sys.hamiltonian(k, times)
    return _dh(sys, k, j, times, h) - _dh(sys, j, k, times, h) \
        + 1j * linops.commutator(hj, hk)


def quantum_consistency_defect(sys: PartialHamiltonianSet,
                               times: Sequence[float],
                               h: float = 1e-4) -> DefectReport:
    """Infinity norms of C_jk for all pairs j < k, plus the maximum."""
    pairs = {}
    for j in range(1, sys.n + 1):
        for k in range(j + 1, sys.n + 1):
            c = consistency_defect_matrix(sys, times, j, k, h=h)
            pairs[f"{j},{k}"] = linops.norm_inf(c)
    return DefectReport(pairs=pairs, max_defect=max(pairs.values(), default=0.0), h=h)


def evolve_staircase(sys: PartialHamiltonianSet, state: MultiTimeState,
                     segments: Sequence[Segment]) -> MultiTimeState:
    """Integrate the per-coordinate Schroedinger equations along the
    staircase of ``segments``, taken in order.

    Each substep of length delta applies exp(-i H_j(t_mid) delta) with H_j
    frozen at the substep midpoint (exponential midpoint rule, second
    order, exactly unitary per substep).
    """
    if (total := sum(seg.substeps for seg in segments)) > MAX_STEPS:
        raise ValueError(f"the path takes {total} substeps; at most {MAX_STEPS} are allowed")
    phi = state.vector.copy()
    times = np.array(state.times, dtype=float)
    for seg in segments:
        if seg.substeps < 1:
            raise ValueError("substeps must be >= 1")
        delta = seg.duration / seg.substeps
        ax = seg.axis - 1
        for i in range(seg.substeps):
            tmid = times.copy()
            tmid[ax] += (i + 0.5) * delta
            u = linops.hermitian_propagator(sys.hamiltonian(seg.axis, tmid), delta)
            phi = u @ phi
        times[ax] += seg.duration
    return MultiTimeState(vector=phi, times=times)


def _substeps(duration: float, max_dt: float) -> int:
    """The substeps of at most ``max_dt`` in a leg of ``duration``, counted
    in floats; ValueError for max_dt <= 0 or a leg of more than MAX_STEPS."""
    if not max_dt > 0.0:
        raise ValueError(f"max_dt must be positive, got {max_dt}")
    if (steps := abs(duration) / max_dt) > MAX_STEPS:
        raise ValueError(f"a leg of {duration} takes more than {MAX_STEPS} "
                         f"substeps of {max_dt}")
    return max(1, math.ceil(steps))


def rectangle_holonomy(sys: PartialHamiltonianSet, times: Sequence[float],
                       j: int, k: int, eps: float, delta: float,
                       phi0: np.ndarray, max_dt: float = 1e-2) -> float:
    """Norm of the discrepancy between evolving (t_j by eps, then t_k by
    delta) and the reverse ordering.  Vanishes iff the pair is consistent;
    otherwise scales as eps*delta*||C_jk phi0|| to leading order."""
    if j == k:
        raise ValueError("rectangle needs two distinct axes")
    state = MultiTimeState(vector=np.asarray(phi0), times=np.asarray(times, float))
    leg_j = Segment(j, eps, _substeps(eps, max_dt))
    leg_k = Segment(k, delta, _substeps(delta, max_dt))
    a = evolve_staircase(sys, state, [leg_j, leg_k])
    b = evolve_staircase(sys, state, [leg_k, leg_j])
    return float(np.linalg.norm(a.vector - b.vector))


def diagonal_evolution(sys: PartialHamiltonianSet, psi0: np.ndarray,
                       t_start: float, t_end: float, steps: int) -> np.ndarray:
    """Single-time evolution under H(t) = sum_j H_j(t,..,t) with the
    exponential midpoint rule."""
    if not 1 <= steps <= MAX_STEPS:
        raise ValueError(f"steps must be in 1..{MAX_STEPS}, got {steps}")
    psi = np.asarray(psi0, dtype=np.complex128).copy()
    dt = (t_end - t_start) / steps
    for i in range(steps):
        tmid = t_start + (i + 0.5) * dt
        h = total_hamiltonian(sys, [tmid] * sys.n)
        psi = linops.hermitian_propagator(h, dt) @ psi
    return psi


def staircase_between(start: Sequence[float], end: Sequence[float],
                      order: Sequence[int] | None = None,
                      max_dt: float = 1e-2) -> list[Segment]:
    """One segment per axis, taken in ``order`` (1-based; default 1..n)."""
    start = np.asarray(start, float)
    end = np.asarray(end, float)
    order = list(order) if order is not None else list(range(1, len(start) + 1))
    segs = []
    for ax in order:
        dur = float(end[ax - 1] - start[ax - 1])
        if dur != 0.0:
            segs.append(Segment(ax, dur, _substeps(dur, max_dt)))
    return segs


def random_staircase(rng: np.random.Generator, start: Sequence[float],
                     end: Sequence[float], pieces: int = 4,
                     max_dt: float = 1e-2) -> list[Segment]:
    """Random axis-aligned staircase from ``start`` to ``end``: the move
    along each axis is split into ``pieces`` random chunks and the chunks
    are interleaved in random order."""
    start = np.asarray(start, float)
    end = np.asarray(end, float)
    chunks: list[Segment] = []
    for ax in range(1, len(start) + 1):
        dur = float(end[ax - 1] - start[ax - 1])
        weights = rng.dirichlet(np.ones(pieces))
        for wgt in weights:
            d = dur * float(wgt)
            if d != 0.0:
                chunks.append(Segment(ax, d, _substeps(d, max_dt)))
    perm = rng.permutation(len(chunks))
    return [chunks[i] for i in perm]
