"""Dense complex linear algebra for the quantum sector.

Thin wrappers over numpy with the conventions used by the rest of the
package: matrices are square ``complex128`` arrays, states are 1-d
``complex128`` arrays, and the tensor-product ordering puts particle 1 in
the leftmost Kronecker factor.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "as_matrix",
    "dagger",
    "norm_inf",
    "is_hermitian",
    "commutator",
    "hermitian_propagator",
    "pauli_string",
]

MAX_DENSE_DIM = 1024
#: the largest infinity norm of a - a^dagger of a matrix taken as Hermitian
HERMITICITY_TOL = 1e-10

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

_PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": SIGMA_X,
    "Y": SIGMA_Y,
    "Z": SIGMA_Z,
}


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def norm_inf(a: np.ndarray) -> float | np.ndarray:
    """Induced infinity norm (max absolute row sum) of a matrix, a float,
    or of each matrix of a stack, an array."""
    norms = np.abs(np.atleast_2d(a)).sum(axis=-1).max(axis=-1)
    return float(norms) if norms.ndim == 0 else norms


def is_hermitian(a: np.ndarray) -> bool:
    a = as_matrix(a)
    return norm_inf(a - dagger(a)) < HERMITICITY_TOL


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab - ba of two matrices, or of two stacks (a matrix broadcasts)."""
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-2:] != b.shape[-2:] or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices of one dim, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def hermitian_propagator(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) for Hermitian h via eigendecomposition (exactly unitary
    up to rounding; much faster than expm at the small dims used here).
    For a (..., dim, dim) stack, the propagator of each matrix, from one
    ``eigh`` call; each equals the one of that matrix alone bit for bit."""
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError("expected a square matrix or a stack of them, "
                         f"got shape {h.shape}")
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * w * dt)
    return (v * phases[..., None, :]) @ dagger(v)


def pauli_string(symbols: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. ``"ZI"`` = sigma_z x I."""
    if not symbols or any(c not in _PAULI for c in symbols):
        raise ValueError(f"invalid Pauli string {symbols!r}")
    m = _PAULI[symbols[0]]
    for c in symbols[1:]:
        m = np.kron(m, _PAULI[c])
    return m
