"""Multi-time Schroedinger systems on finite-dimensional state spaces.

A system is a set of partial Hamiltonians H_j(t1..tn), one per time
coordinate, acting on an n-fold tensor product of local dimension k, each
given by its (operator, coefficient) terms.  The module computes the
commutator consistency defect

    C_jk = dH_k/dt_j - dH_j/dt_k + i [H_j, H_k],

evolves states along axis-aligned staircases (lists of ``Segment``s) with
midpoint-frozen exponential propagators, measures rectangle holonomies,
and reduces to single-time evolution on the time diagonal.  A leg whose
Hamiltonian cannot change (a numeric row, not moved along t1 under a
frame) builds one Hamiltonian and one propagator; every other leg builds
its midpoint Hamiltonians as stacks of at most ``STACK_BYTES``, one
``eigh`` call each.  ``path_substeps`` counts an evolution's propagators
and refuses more than ``expr.MAX_STEPS`` before it starts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linops
from .expr import (Expression, Num, binding_names, bound_steps, check_count, check_finite,
                   check_positive, check_steps, compile_function, parse_expression)
from .reports import DefectReport

__all__ = [
    "PartialHamiltonianSet",
    "MultiTimeState",
    "Segment",
    "consistency_defect_matrix",
    "quantum_consistency_defect",
    "path_substeps",
    "evolve_staircase",
    "rectangle_staircases",
    "rectangle_holonomy",
    "diagonal_evolution",
    "staircase_between",
    "random_staircase",
]

#: the most bytes of Hamiltonians that an evolution stacks for one ``eigh``
#: call (a stack holds at least one matrix)
STACK_BYTES = 2 ** 16


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
        # per row: the sum of a numeric row, else None, the operators and
        # the compiled coefficients
        self._rows = []
        for j, row in enumerate(terms):
            ops = [_require_operator(op, f"operator of terms[{j}][{i}]", dim)
                   for i, (op, _) in enumerate(row)]
            if not any(isinstance(c, (str, Expression)) for _, c in row):
                self._rows.append((_sum(ops, [float(c) for _, c in row], dim), None, None))
                continue
            coeffs = [parse_expression(c) if isinstance(c, str)
                      else c if isinstance(c, Expression) else Num(float(c))
                      for _, c in row]
            f = compile_function(coeffs, [binding_names("t", n)])
            self._rows.append((None, ops, f))
        self._frame = None
        if base is not None:
            w, v = np.linalg.eigh(_require_operator(base, "base", dim))
            self._frame = w, v, linops.dagger(v)

    def hamiltonian(self, j: int, times: Sequence[float]) -> np.ndarray:
        """H_j at the time tuple; ``j`` is 1-based."""
        h = self.hamiltonians(j, np.array([times], dtype=float))
        return h if h.ndim == 2 else h[0]

    def hamiltonians(self, j: int, times: np.ndarray) -> np.ndarray:
        """H_j at each row of the (m, n) array ``times``, as an (m, dim, dim)
        stack; a numeric row without a ``base`` gives its one matrix, which
        broadcasts as the stack.  A row with expression coefficients calls
        them per row and sums c * O in the order of its terms."""
        if not 1 <= j <= self.n:
            raise ValueError(f"index {j} outside 1..{self.n}")
        if times.shape[1] != self.n:
            raise ValueError(f"time tuple length {times.shape[1]} != n = {self.n}")
        k, ops, f = self._rows[j - 1]
        if k is None:
            c = np.array([f(t) for t in times.tolist()])
            k = np.zeros((len(times), self.dim, self.dim), dtype=np.complex128)
            for i, op in enumerate(ops):
                k = k + c[:, i, None, None] * op
        if self._frame is None:
            return k
        w, v, vd = self._frame
        u = (v * np.exp(-1j * w * times[:, :1])[:, None, :]) @ vd
        return u @ k @ linops.dagger(u)

    def _is_constant(self, j: int, axes: Sequence[int]) -> bool:
        """Whether H_j stays one matrix while the times ``axes`` (1-based)
        move: its row is numeric, and t1 does not move under a ``base``."""
        return self._rows[j - 1][0] is not None and (self._frame is None or 1 not in axes)


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
    by ``duration``, a finite number, in ``substeps`` >= 1 equal substeps."""

    axis: int
    duration: float
    substeps: int = 1

    def __post_init__(self):
        check_finite(self.duration, "duration")
        check_count(self.substeps, 1, "substeps")


def _total_hamiltonians(sys: PartialHamiltonianSet, times: np.ndarray) -> np.ndarray:
    """H_1 + ... + H_n at each row of the (m, n) array ``times``."""
    h = np.zeros((len(times), sys.dim, sys.dim), dtype=np.complex128)
    for j in range(1, sys.n + 1):
        h = h + sys.hamiltonians(j, times)
    return h


def _dh(sys: PartialHamiltonianSet, k: int, axis: int,
        times: Sequence[float], h: float) -> np.ndarray:
    """Central difference of H_k along time coordinate ``axis``."""
    tp = np.array(times, dtype=float)
    check_steps(h, binding_names("t", len(tp))[axis - 1:axis], [tp[axis - 1]])
    tm = tp.copy()
    tp[axis - 1] += h
    tm[axis - 1] -= h
    return (sys.hamiltonian(k, tp) - sys.hamiltonian(k, tm)) / (2.0 * h)


def consistency_defect_matrix(sys: PartialHamiltonianSet, times: Sequence[float],
                              j: int, k: int, h: float = 1e-4) -> np.ndarray:
    """C_jk = dH_k/dt_j - dH_j/dt_k + i [H_j, H_k] at the time tuple, the
    derivatives central differences at the step ``h`` (``check_steps``)."""
    check_steps(h, (), ())
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
    return DefectReport(pairs=pairs, h=h)


def path_substeps(segments: Sequence[Segment]) -> int:
    """The substeps, one propagator each, of the path of ``segments``;
    ValueError above ``MAX_STEPS``."""
    bound_steps(total := sum(seg.substeps for seg in segments), "substeps")
    return total


def evolve_staircase(sys: PartialHamiltonianSet, state: MultiTimeState,
                     segments: Sequence[Segment]) -> MultiTimeState:
    """Integrate the per-coordinate Schroedinger equations along the
    staircase of ``segments``, taken in order.

    Each substep of length delta applies exp(-i H_j(t_mid) delta) with H_j
    frozen at the substep midpoint (exponential midpoint rule, second
    order, exactly unitary per substep).
    """
    path_substeps(segments)
    phi = state.vector.copy()
    times = np.array(state.times, dtype=float)
    for seg in segments:
        phi = _propagate(phi, functools.partial(sys.hamiltonians, seg.axis), times,
                         [seg.axis], seg.duration / seg.substeps, seg.substeps,
                         sys._is_constant(seg.axis, [seg.axis]))
        times[seg.axis - 1] += seg.duration
    return MultiTimeState(vector=phi, times=times)


def _propagate(phi: np.ndarray, hamiltonians: Callable[[np.ndarray], np.ndarray],
               start: np.ndarray, axes: Sequence[int], delta: float, steps: int,
               constant: bool) -> np.ndarray:
    """``phi`` after ``steps`` substeps of length ``delta`` that move the
    times ``axes`` (1-based) of the tuple ``start`` together.  Substep i
    applies exp(-i H delta), H the matrix that ``hamiltonians`` gives for
    its midpoint tuple, start + (i + 1/2) delta on ``axes``.  A ``constant``
    H, the same at every tuple of the leg, is built at ``start`` and
    exponentiated once.  Otherwise the midpoints go in chunks of at most
    ``STACK_BYTES`` of matrices, one stack and one propagator call per
    chunk."""
    dim = len(phi)
    if constant:
        h = np.reshape(hamiltonians(start[None, :]), (dim, dim))
        u = linops.hermitian_propagator(h, delta)
        for _ in range(steps):
            phi = u @ phi
        return phi
    cols = [ax - 1 for ax in axes]
    chunk = max(1, STACK_BYTES // (16 * dim * dim))
    for i0 in range(0, steps, chunk):
        i1 = min(i0 + chunk, steps)
        mids = np.repeat(start[None, :], i1 - i0, axis=0)
        mids[:, cols] += (np.arange(i0, i1) + 0.5)[:, None] * delta
        for u in linops.hermitian_propagator(hamiltonians(mids), delta):
            phi = u @ phi
    return phi


def _leg(axis: int, duration: float, max_dt: float, name: str) -> Segment:
    """The leg of time ``axis`` by ``duration`` (called ``name``) in substeps
    of at most ``max_dt``, counted in floats; ValueError for a non-finite
    duration, a bad ``max_dt`` or a leg of more than MAX_STEPS."""
    steps = abs(check_finite(duration, name)) / check_positive(max_dt, "max_dt")
    bound_steps(steps, f"substeps in a leg of {duration}")
    return Segment(axis, duration, max(1, math.ceil(steps)))


def rectangle_staircases(j: int, k: int, eps: float, delta: float,
                         max_dt: float = 1e-2) -> tuple[list[Segment], list[Segment]]:
    """The two staircases of a rectangle holonomy: t_j by eps, then t_k by
    delta, and the reverse ordering."""
    if j == k:
        raise ValueError("rectangle needs two distinct axes")
    leg_j, leg_k = _leg(j, eps, max_dt, "eps"), _leg(k, delta, max_dt, "delta")
    return [leg_j, leg_k], [leg_k, leg_j]


def rectangle_holonomy(sys: PartialHamiltonianSet, times: Sequence[float],
                       j: int, k: int, eps: float, delta: float,
                       phi0: np.ndarray, max_dt: float = 1e-2) -> float:
    """Norm of the discrepancy between evolving (t_j by eps, then t_k by
    delta) and the reverse ordering.  Vanishes iff the pair is consistent;
    otherwise scales as eps*delta*||C_jk phi0|| to leading order."""
    paths = rectangle_staircases(j, k, eps, delta, max_dt)
    state = MultiTimeState(vector=np.asarray(phi0), times=np.asarray(times, float))
    a, b = (evolve_staircase(sys, state, path) for path in paths)
    return float(np.linalg.norm(a.vector - b.vector))


def diagonal_evolution(sys: PartialHamiltonianSet, psi0: np.ndarray,
                       t_start: float, t_end: float, steps: int) -> np.ndarray:
    """Single-time evolution under H(t) = sum_j H_j(t,..,t) with the
    exponential midpoint rule; ValueError for a non-finite time and for
    ``steps`` that is not an integer from 1 to ``MAX_STEPS``."""
    bound_steps(check_count(steps, 1, "steps"), "diagonal steps")
    delta = (check_finite(t_end, "t_end") - check_finite(t_start, "t_start")) / steps
    psi = np.asarray(psi0, dtype=np.complex128).copy()
    axes = range(1, sys.n + 1)
    return _propagate(psi, functools.partial(_total_hamiltonians, sys),
                      np.full(sys.n, t_start, dtype=float), axes, delta, steps,
                      all(sys._is_constant(j, axes) for j in axes))


def _differences(start: Sequence[float], end: Sequence[float]) -> list[float]:
    """end - start, entry by entry, as Python floats: numpy's subtraction
    gives the same bits but warns where a difference overflows, which
    ``_leg`` then refuses as non-finite."""
    return [float(b) - float(a) for a, b in zip(start, end, strict=True)]


def staircase_between(start: Sequence[float], end: Sequence[float],
                      order: Sequence[int] | None = None,
                      max_dt: float = 1e-2) -> list[Segment]:
    """One segment per axis whose times differ, taken in ``order`` (1-based;
    default 1..n); ``max_dt`` is checked even where no time differs."""
    check_positive(max_dt, "max_dt")
    durations = _differences(start, end)
    return [_leg(ax, dur, max_dt, "end - start")
            for ax in (order if order is not None else range(1, len(durations) + 1))
            if (dur := durations[ax - 1]) != 0.0]


def random_staircase(rng: np.random.Generator, start: Sequence[float],
                     end: Sequence[float], pieces: int = 4,
                     max_dt: float = 1e-2) -> list[Segment]:
    """Random axis-aligned staircase from ``start`` to ``end``: the move
    along each axis is split into ``pieces`` random chunks and the chunks
    are interleaved in random order."""
    check_positive(max_dt, "max_dt")
    check_count(pieces, 1, "pieces")
    durations = _differences(start, end)
    chunks = [_leg(ax, d, max_dt, "end - start")
              for ax, dur in enumerate(durations, start=1)
              for wgt in rng.dirichlet(np.ones(pieces))
              if (d := dur * float(wgt)) != 0.0]
    return [chunks[i] for i in rng.permutation(len(chunks))]
