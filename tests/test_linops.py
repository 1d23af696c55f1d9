import numpy as np
import pytest

from multitime.linops import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    commutator,
    dagger,
    hermitian_propagator,
    is_hermitian,
    norm_inf,
    pauli_string,
)


class TestBasics:
    def test_pauli_algebra(self):
        assert np.allclose(SIGMA_X @ SIGMA_X, np.eye(2))
        assert np.allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z)
        assert np.allclose(commutator(SIGMA_Z, SIGMA_X), 2j * SIGMA_Y)

    def test_norm_inf_is_max_row_sum(self):
        a = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert norm_inf(a) == 7.0
        assert norm_inf(np.array([[3j, 4.0], [0, 0]])) == 7.0

    def test_is_hermitian(self):
        assert is_hermitian(SIGMA_Y)
        assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
        almost = SIGMA_Z + 1e-12 * np.array([[0, 1], [0, 0]])
        assert is_hermitian(almost)

    def test_commutator_shape_mismatch(self):
        with pytest.raises(ValueError):
            commutator(SIGMA_X, np.eye(4))

    def test_stacks_match_one_matrix_at_a_time(self):
        # a stack, or a stack against one matrix, gives each matrix's
        # commutator and norm bit for bit
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 6, 4, 4)) + 1j * rng.normal(size=(2, 6, 4, 4))
        got = commutator(a, b)
        assert all(np.array_equal(got[i], commutator(a[i], b[i])) for i in range(6))
        assert all(np.array_equal(commutator(a, b[0])[i], commutator(a[i], b[0]))
                   for i in range(6))
        assert norm_inf(got).tolist() == [norm_inf(c) for c in got]
        with pytest.raises(ValueError, match="square matrices of one dim"):
            commutator(a, np.eye(2))
        with pytest.raises(ValueError, match="square matrices of one dim"):
            commutator(np.ones((6, 4, 3)), np.ones((6, 4, 3)))

    def test_pauli_string(self):
        assert np.allclose(pauli_string("ZI"), np.kron(SIGMA_Z, np.eye(2)))
        assert np.allclose(pauli_string("XY"), np.kron(SIGMA_X, SIGMA_Y))
        with pytest.raises(ValueError):
            pauli_string("ZQ")
        with pytest.raises(ValueError):
            pauli_string("")


def expm(a):
    """The matrix exponential by scipy: the oracle of ``hermitian_propagator``."""
    return pytest.importorskip("scipy.linalg").expm(a)


class TestExponentials:
    def test_propagator_of_zero_is_identity(self):
        assert np.allclose(hermitian_propagator(np.zeros((3, 3)), 0.7), np.eye(3))

    def test_propagator_against_series_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h, dt = 0.1 * (a + dagger(a)), 0.5
        series = np.zeros((4, 4), dtype=complex)
        term = np.eye(4, dtype=complex)
        for k in range(1, 30):
            series += term
            term = term @ (-1j * dt * h) / k
        assert np.allclose(hermitian_propagator(h, dt), series, atol=1e-12)

    def test_propagator_unitary(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = a + dagger(a)
        u = hermitian_propagator(h, 0.37)
        assert np.allclose(u @ dagger(u), np.eye(6), atol=1e-12)

    def test_propagator_matches_expm(self):
        h = pauli_string("ZX") + 0.4 * pauli_string("YI")
        dt = 0.21
        assert np.allclose(hermitian_propagator(h, dt), expm(-1j * dt * h), atol=1e-12)

    def test_stack_equals_one_matrix_at_a_time(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(1000, 4, 4)) + 1j * rng.normal(size=(1000, 4, 4))
        h = a + dagger(a)
        stack = hermitian_propagator(h, 0.37)
        assert stack.shape == (1000, 4, 4)
        assert np.array_equal(stack, [hermitian_propagator(m, 0.37) for m in h])

    @pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 3, 4)])
    def test_propagator_needs_square_matrices(self, shape):
        with pytest.raises(ValueError, match="square matrix or a stack"):
            hermitian_propagator(np.zeros(shape), 0.1)

    def test_propagator_rotation_oracle(self):
        # exp(-i theta sigma_z / 2) has phases exp(-/+ i theta / 2)
        theta = 0.8
        u = hermitian_propagator(SIGMA_Z, theta / 2)
        want = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
        assert np.allclose(u, want, atol=1e-14)
