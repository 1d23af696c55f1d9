"""Multi-time Schroedinger systems on finite-dimensional state spaces.

A system is a set of partial Hamiltonians H_j(t1..tn), one per time
coordinate, acting on an n-fold tensor product of local dimension k, each
given by its (operator, coefficient) terms.  The module computes the
commutator consistency defect

    C_jk = dH_k/dt_j - dH_j/dt_k + i [H_j, H_k]

on stacks of Hamiltonians at the rows of an array of time tuples; it
evolves states along axis-aligned staircases (lists of ``Segment``s) with
midpoint-frozen exponential propagators, measures rectangle holonomies,
and reduces to single-time evolution on the time diagonal.  A leg whose
Hamiltonian cannot change (a numeric row, not moved along t1 under a
frame) builds one Hamiltonian and one propagator; every other leg builds
its midpoint Hamiltonians in stacks of ``_chunks``, one ``eigh`` call
each.  ``path_substeps`` counts an evolution's propagators and refuses
more than ``expr.MAX_STEPS`` before it starts.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from . import linops
from .expr import (Expression, Num, binding_names, bound_steps, check_count, check_finite,
                   check_positive, check_steps, parse_expression)
from .reports import DefectReport, pair_keys

__all__ = [
    "PartialHamiltonianSet",
    "MultiTimeState",
    "Segment",
    "consistency_defect_matrix",
    "quantum_consistency_defect",
    "quantum_defect_grid",
    "path_substeps",
    "evolve_staircase",
    "rectangle_staircases",
    "rectangle_holonomy",
    "diagonal_evolution",
    "staircase_between",
    "random_staircase",
]

#: the most bytes of Hamiltonians that an evolution stacks for one ``eigh``
#: call, or a defect grid for one pass (a stack holds at least one matrix)
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


def _sum(ops: Sequence[np.ndarray], c: np.ndarray, dim: int) -> np.ndarray:
    """Zeros plus each c[..., i] * ops[i] in turn, c shaped (..., len(ops))."""
    h = np.zeros((*c.shape[:-1], dim, dim), dtype=np.complex128)
    for i, op in enumerate(ops):
        h = h + c[..., i, None, None] * op
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
                self._rows.append((_sum(ops, np.array([float(c) for _, c in row]), dim),
                                   None, None))
                continue
            coeffs = [parse_expression(c) if isinstance(c, str)
                      else c if isinstance(c, Expression) else Num(float(c))
                      for _, c in row]
            from .codegen import compile_function  # a numeric system never loads it

            f = compile_function(coeffs, [binding_names("t", n)])
            self._rows.append((None, ops, f))
        self._frame = None
        if base is not None:
            w, v = np.linalg.eigh(_require_operator(base, "base", dim))
            self._frame = w, v, linops.dagger(v)

    def hamiltonian(self, j: int, times: Sequence[float]) -> np.ndarray:
        """H_j at the time tuple; ``j`` is 1-based."""
        h = self.hamiltonians(j, self._tuple(times))
        return h if h.ndim == 2 else h[0]

    def hamiltonians(self, j: int, times: np.ndarray) -> np.ndarray:
        """H_j at each row of the (m, n) array ``times``, as an (m, dim, dim)
        stack; a numeric row without a ``base`` gives its one matrix, which
        broadcasts as the stack.  Expression coefficients are called per row."""
        self._check(times, j)
        k, ops, f = self._rows[j - 1]
        if k is None:
            k = _sum(ops, np.array([f(t) for t in times.tolist()]), self.dim)
        if self._frame is None:
            return k
        w, v, vd = self._frame
        u = (v * np.exp(-1j * w * times[:, :1])[:, None, :]) @ vd
        return u @ k @ linops.dagger(u)

    def _tuple(self, times: Sequence[float]) -> np.ndarray:
        """The time tuple ``times``, of n entries, as a (1, n) array."""
        row = np.asarray(times, dtype=float)
        if row.shape != (self.n,):
            raise ValueError(f"times: expected shape {(self.n,)}, got {row.shape}")
        return row[None]

    def _check(self, times: np.ndarray, *js: int) -> None:
        """ValueError unless each of ``js`` is in 1..n and ``times`` is (m, n)."""
        if bad := [j for j in js if not 1 <= j <= self.n]:
            raise ValueError(f"index {bad[0]} outside 1..{self.n}")
        if times.ndim != 2 or times.shape[1] != self.n:
            raise ValueError(f"times: expected shape (m, {self.n}), got {times.shape}")

    def _is_constant(self, j: int, axes: Sequence[int]) -> bool:
        """Whether H_j stays one matrix while the times ``axes`` (1-based)
        move: its row is numeric, and t1 does not move under a ``base``."""
        return self._rows[j - 1][0] is not None and (self._frame is None or 1 not in axes)


class MultiTimeState:
    """A state vector at the time tuple ``times``."""

    def __init__(self, vector: np.ndarray, times: np.ndarray):
        self.vector = np.asarray(vector, dtype=np.complex128)
        self.times = np.asarray(times, dtype=float)

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


class Segment:
    """One axis-aligned leg of a staircase: move time ``axis`` (1-based)
    by ``duration``, a finite number, in ``substeps`` >= 1 equal substeps.
    Segments are equal when these three are."""

    def __init__(self, axis: int, duration: float, substeps: int = 1):
        check_finite(duration, "duration")
        self.axis, self.duration = axis, duration
        self.substeps = check_count(substeps, 1, "substeps")

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is Segment else NotImplemented


def _chunks(count: int, dim: int) -> Iterator[slice]:
    """Slices of range(count), each of at most ``STACK_BYTES`` of matrices, or one."""
    step = max(1, STACK_BYTES // (16 * dim * dim))
    return (slice(i, min(i + step, count)) for i in range(0, count, step))


def _total_hamiltonians(sys: PartialHamiltonianSet, times: np.ndarray) -> np.ndarray:
    """H_1 + ... + H_n at each row of the (m, n) array ``times``."""
    return sum((sys.hamiltonians(j, times) for j in range(1, sys.n + 1)),
               np.zeros((len(times), sys.dim, sys.dim), dtype=np.complex128))


def _defects(sys: PartialHamiltonianSet, times: np.ndarray, pairs: Sequence[tuple[int, int]],
             h: float) -> Iterator[tuple[slice, int, np.ndarray]]:
    """(rows, i, C) for each of the ``_chunks`` of ``times`` and each (j, k) =
    pairs[i]: C_jk at those rows, a stack, or one matrix where it is the same
    at every row.  Before any H is built, a bad step, what ``sys._check``
    refuses and the first row and time at which h rounds away are refused."""
    axes = list(dict.fromkeys(ax for pair in pairs for ax in pair))
    check_positive(h, "h")
    sys._check(times, *axes)
    t = times[:, [ax - 1 for ax in axes]]
    if (rounds := ((t + h == t) | (t - h == t)).any(axis=1)).any():
        check_steps(h, [f"t{ax}" for ax in axes], t[rounds.argmax()].tolist())

    def dh(rows: slice, k: int, axis: int) -> np.ndarray:
        up, down = times[rows].copy(), times[rows].copy()
        up[:, axis - 1] += h
        down[:, axis - 1] -= h
        return (sys.hamiltonians(k, up) - sys.hamiltonians(k, down)) / (2.0 * h)

    for rows in _chunks(len(times), sys.dim):
        hs = {j: sys.hamiltonians(j, times[rows]) for j in axes}
        for i, (j, k) in enumerate(pairs):
            yield rows, i, dh(rows, k, j) - dh(rows, j, k) + 1j * linops.commutator(hs[j], hs[k])


def quantum_defect_grid(sys: PartialHamiltonianSet, times: np.ndarray,
                        h: float = 1e-4) -> np.ndarray:
    """||C_jk||_inf at every row of the (m, n) array ``times`` (``_defects``):
    an (m, pairs) array, one column per pair j < k in the order 1,2 .. n-1,n."""
    times = np.asarray(times, dtype=float)
    pairs = [(j, k) for j in range(1, sys.n + 1) for k in range(j + 1, sys.n + 1)]
    grid = np.empty((len(times), len(pairs)))
    for rows, i, c in _defects(sys, times, pairs, h):
        grid[rows, i] = linops.norm_inf(c)
    return grid


def consistency_defect_matrix(sys: PartialHamiltonianSet, times: Sequence[float],
                              j: int, k: int, h: float = 1e-4) -> np.ndarray:
    """C_jk = dH_k/dt_j - dH_j/dt_k + i [H_j, H_k] at the time tuple: the
    one-row case of ``quantum_defect_grid``'s matrices."""
    [(_, _, c)] = _defects(sys, sys._tuple(times), [(j, k)], h)
    return np.reshape(c, (sys.dim, sys.dim))


def quantum_consistency_defect(sys: PartialHamiltonianSet, times: Sequence[float],
                               h: float = 1e-4) -> DefectReport:
    """The one-row case of ``quantum_defect_grid``, the pairs keyed ``"j,k"``."""
    [row] = quantum_defect_grid(sys, sys._tuple(times), h).tolist()
    return DefectReport(dict(zip(pair_keys(sys.n), row)), h)


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
    exponentiated once.  Otherwise the midpoints go in ``_chunks``, one
    stack and one propagator call each."""
    dim = len(phi)
    if constant:
        h = np.reshape(hamiltonians(start[None, :]), (dim, dim))
        u = linops.hermitian_propagator(h, delta)
        for _ in range(steps):
            phi = u @ phi
        return phi
    cols = [ax - 1 for ax in axes]
    for rows in _chunks(steps, dim):
        mids = np.repeat(start[None, :], rows.stop - rows.start, axis=0)
        mids[:, cols] += (np.arange(rows.start, rows.stop) + 0.5)[:, None] * delta
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
