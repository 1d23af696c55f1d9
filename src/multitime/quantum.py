"""Multi-time Schroedinger systems on finite-dimensional state spaces.

A system is a set of partial Hamiltonians H_j(t1..tn), one per time
coordinate, acting on an n-fold tensor product of local dimension k.  The
module computes the commutator consistency defect

    C_jk = dH_k/dt_j - dH_j/dt_k + i [H_j, H_k],

evolves states along axis-aligned staircase paths with midpoint-frozen
exponential propagators, measures rectangle holonomies, and reduces to
single-time evolution on the time diagonal.  An evolution of more than
``classical.MAX_STEPS`` propagators is refused before it starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
    "StaircasePath",
    "total_hamiltonian",
    "consistency_defect_matrix",
    "quantum_consistency_defect",
    "evolve_staircase",
    "rectangle_holonomy",
    "diagonal_evolution",
    "staircase_between",
    "random_staircase",
]


def _require_hermitian(m, what: str) -> np.ndarray:
    """``m`` as a complex matrix; ValueError naming ``what`` if it is not
    Hermitian."""
    m = linops.as_matrix(m)
    if not linops.is_hermitian(m):
        raise ValueError(f"{what} is not Hermitian")
    return m


class PartialHamiltonianSet:
    """n matrix-valued partial Hamiltonians H_j(t1..tn).

    Each H_j is supplied as one of:
      * a constant Hermitian matrix,
      * a sum of (operator, coefficient-expression) terms with the
        coefficients depending on t1..tn,
      * the interaction-picture form H_j = U K_j U^dagger with
        U(t) = exp(-i * base * t1) for constant matrices base, K_j.

    The three constructors check their matrices and operators once; builders
    passed straight to ``__init__`` are checked on every ``hamiltonian`` call.
    """

    def __init__(self, n: int, local_dim: int,
                 builders: Sequence[Callable[[Sequence[float]], np.ndarray]]):
        if len(builders) != n:
            raise ValueError(f"need {n} partial Hamiltonians, got {len(builders)}")
        self.n = n
        self.local_dim = local_dim
        self.dim = local_dim**n
        self._builders = list(builders)
        self._check_calls = True

    @classmethod
    def _checked(cls, n: int, local_dim: int,
                 builders: Sequence[Callable[[Sequence[float]], np.ndarray]],
                 ) -> "PartialHamiltonianSet":
        """A set whose builders make Hermitian matrices by construction, so
        ``hamiltonian`` skips the per-call check."""
        system = cls(n, local_dim, builders)
        system._check_calls = False
        return system

    def hamiltonian(self, j: int, times: Sequence[float]) -> np.ndarray:
        """H_j at the time tuple; ``j`` is 1-based."""
        if not 1 <= j <= self.n:
            raise ValueError(f"index {j} outside 1..{self.n}")
        if len(times) != self.n:
            raise ValueError(f"time tuple length {len(times)} != n = {self.n}")
        h = self._builders[j - 1](times)
        if self._check_calls:
            _require_hermitian(h, f"H_{j} at t = {tuple(times)}")
        return h

    @classmethod
    def from_constant(cls, matrices: Sequence[np.ndarray],
                      local_dim: int) -> "PartialHamiltonianSet":
        mats = [_require_hermitian(m, f"H_{j}")
                for j, m in enumerate(matrices, start=1)]
        return cls._checked(len(mats), local_dim, [lambda _t, m=m: m for m in mats])

    @classmethod
    def from_terms(cls, n: int, local_dim: int,
                   terms: Sequence[Sequence[tuple[np.ndarray, object]]],
                   ) -> "PartialHamiltonianSet":
        """``terms[j]`` is a list of (operator, coefficient) pairs; a
        coefficient is a number, an expression string or an Expression in
        the variables t1..tn; those of each H_j are compiled here into one
        function of the time tuple, numbers as ``Num``.  Each operator must
        be Hermitian; with real coefficients, so is every H_j."""
        rows = []
        for j, per_j in enumerate(terms):
            ops = [_require_hermitian(op, f"operator of terms[{j}][{i}]")
                   for i, (op, _) in enumerate(per_j)]
            coeffs = [parse_expression(c) if isinstance(c, str)
                      else c if isinstance(c, Expression) else Num(float(c))
                      for _, c in per_j]
            rows.append((ops, compile_function(coeffs, [binding_names("t", n)])))

        def make(ops, coefficients):
            def build(times):
                dim = local_dim**n
                h = np.zeros((dim, dim), dtype=np.complex128)
                for op, c in zip(ops, coefficients(np.asarray(times, float).tolist())):
                    h = h + c * op
                return h

            return build

        return cls._checked(n, local_dim, [make(*row) for row in rows])

    @classmethod
    def from_interaction_picture(cls, base: np.ndarray, ks: Sequence[np.ndarray],
                                 local_dim: int) -> "PartialHamiltonianSet":
        base = _require_hermitian(base, "base")
        w, v = np.linalg.eigh(base)
        vd = linops.dagger(v)
        mats = [_require_hermitian(k, f"K_{j}")
                for j, k in enumerate(ks, start=1)]

        def make(k):
            def build(times):
                phases = np.exp(-1j * w * times[0])
                u = (v * phases) @ vd
                return u @ k @ u.conj().T

            return build

        return cls._checked(len(mats), local_dim, [make(k) for k in mats])


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


@dataclass(frozen=True)
class StaircasePath:
    segments: tuple[Segment, ...]

    def __init__(self, segments: Sequence[Segment]):
        object.__setattr__(self, "segments", tuple(segments))

    def displacement(self, n: int) -> np.ndarray:
        d = np.zeros(n)
        for seg in self.segments:
            d[seg.axis - 1] += seg.duration
        return d


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
                     path: StaircasePath) -> MultiTimeState:
    """Integrate the per-coordinate Schroedinger equations along the path.

    Each substep of length delta applies exp(-i H_j(t_mid) delta) with H_j
    frozen at the substep midpoint (exponential midpoint rule, second
    order, exactly unitary per substep).
    """
    if (total := sum(seg.substeps for seg in path.segments)) > MAX_STEPS:
        raise ValueError(f"the path takes {total} substeps; at most {MAX_STEPS} are allowed")
    phi = state.vector.copy()
    times = np.array(state.times, dtype=float)
    for seg in path.segments:
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
    return max(1, int(math.ceil(abs(duration) / max_dt)))


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
    a = evolve_staircase(sys, state, StaircasePath([leg_j, leg_k]))
    b = evolve_staircase(sys, state, StaircasePath([leg_k, leg_j]))
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
                      max_dt: float = 1e-2) -> StaircasePath:
    """One segment per axis, taken in ``order`` (1-based; default 1..n)."""
    start = np.asarray(start, float)
    end = np.asarray(end, float)
    order = list(order) if order is not None else list(range(1, len(start) + 1))
    segs = []
    for ax in order:
        dur = float(end[ax - 1] - start[ax - 1])
        if dur != 0.0:
            segs.append(Segment(ax, dur, _substeps(dur, max_dt)))
    return StaircasePath(segs)


def random_staircase(rng: np.random.Generator, start: Sequence[float],
                     end: Sequence[float], pieces: int = 4,
                     max_dt: float = 1e-2) -> StaircasePath:
    """Random axis-aligned staircase from ``start`` to ``end``: each axis
    displacement is split into ``pieces`` random chunks and the chunks are
    interleaved in random order."""
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
    return StaircasePath([chunks[i] for i in perm])
