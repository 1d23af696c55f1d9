import math

import numpy as np
import pytest

from multitime import linops
from multitime.linops import (
    SIGMA_Y,
    SIGMA_Z,
    commutator,
    dagger,
    kron,
    norm_inf,
    pauli_string,
)
from multitime.quantum import (
    MultiTimeState,
    PartialHamiltonianSet,
    Segment,
    consistency_defect_matrix,
    diagonal_evolution,
    evolve_staircase,
    quantum_consistency_defect,
    random_staircase,
    rectangle_holonomy,
    staircase_between,
)

G = 0.5


RAISING = np.array([[0, 1], [0, 0]], dtype=complex)


def coupled_qubits(g: float = G) -> PartialHamiltonianSet:
    """H_1 = Z x I + (g/2) Z x Z, H_2 = I x X + (g/2) Z x Z."""
    zz = pauli_string("ZZ")
    return PartialHamiltonianSet(
        [[(pauli_string("ZI"), 1.0), (zz, 0.5 * g)],
         [(pauli_string("IX"), 1.0), (zz, 0.5 * g)]], 2)


def free_qubits() -> PartialHamiltonianSet:
    return PartialHamiltonianSet(
        [[(pauli_string("ZI"), 1.0)], [(pauli_string("IX"), 1.0)]], 2)


def interaction_picture() -> PartialHamiltonianSet:
    base = pauli_string("ZI")
    return PartialHamiltonianSet(
        [[(base, 1.0)], [(pauli_string("IX"), 1.0), (pauli_string("XX"), 0.5)]],
        2, base=base)


class TestDefect:
    def test_free_defect_zero(self):
        rep = quantum_consistency_defect(free_qubits(), [0.3, -0.7])
        assert rep.max_defect < 1e-12
        assert set(rep.pairs) == {"1,2"}

    def test_coupled_defect_analytic_oracle(self):
        # [Z x I + (g/2) Z x Z, I x X + (g/2) Z x Z] = (g/2)[ZxI + ZxZ, ZxZ + IxX]
        # reduces to (g/2) Z x [Z, X] = i g Z x Y, so C_12 = i * that = -g Z x Y
        # and the induced infinity norm is exactly g.
        sys = coupled_qubits()
        c = consistency_defect_matrix(sys, [0.1, 0.2], 1, 2)
        want = -G * kron(SIGMA_Z, SIGMA_Y)
        assert np.allclose(c, want, atol=1e-10)
        rep = quantum_consistency_defect(sys, [0.1, 0.2])
        assert rep.pairs["1,2"] == pytest.approx(G, abs=1e-10)

    def test_coupled_defect_brute_force_oracle(self):
        # constant Hamiltonians: the defect is exactly i[H_1, H_2]
        sys = coupled_qubits()
        h1 = sys.hamiltonian(1, [0.0, 0.0])
        h2 = sys.hamiltonian(2, [0.0, 0.0])
        want = 1j * commutator(h1, h2)
        got = consistency_defect_matrix(sys, [0.4, -0.9], 1, 2)
        assert norm_inf(got - want) < 1e-10

    def test_interaction_picture_consistent(self):
        # H_j = U K_j U^dagger with H_1 generating U is consistent by
        # construction, so the defect is finite-difference noise only
        rep = quantum_consistency_defect(interaction_picture(), [0.35, 0.8], h=1e-3)
        assert rep.max_defect < 1e-5

    def test_defect_step_validation(self):
        with pytest.raises(ValueError):
            quantum_consistency_defect(free_qubits(), [0.0, 0.0], h=0.0)

    def test_non_hermitian_rejected(self):
        # operators are checked once, at construction
        with pytest.raises(ValueError, match=r"operator of terms\[0\]\[0\] is not Hermitian"):
            PartialHamiltonianSet(
                [[(kron(RAISING, np.eye(2)), 1.0)], [(np.eye(4), 1.0)]], 2)

    def test_non_hermitian_term_operator_rejected(self):
        with pytest.raises(ValueError, match=r"operator of terms\[1\]\[1\] is not"):
            PartialHamiltonianSet(
                [[(pauli_string("ZI"), 1.0)],
                 [(pauli_string("IX"), "t1"), (kron(np.eye(2), RAISING), 0.5)]], 2)

    def test_non_hermitian_interaction_picture_rejected(self):
        terms = [[(pauli_string("ZI"), 1.0)], [(pauli_string("IY"), 1.0)]]
        with pytest.raises(ValueError, match="base is not Hermitian"):
            PartialHamiltonianSet(terms, 2, base=kron(RAISING, np.eye(2)))
        terms[1].append((kron(np.eye(2), RAISING), 1.0))
        with pytest.raises(ValueError, match=r"operator of terms\[1\]\[1\] is not"):
            PartialHamiltonianSet(terms, 2, base=pauli_string("ZI"))

    def test_shapes_checked_at_construction(self):
        # local_dim = 3 with two time coordinates needs 9 x 9 operators
        with pytest.raises(ValueError,
                           match=r"terms\[1\]\[0\] has shape \(4, 4\), not \(9, 9\)"):
            PartialHamiltonianSet([[(np.eye(9), 1.0)], [(pauli_string("ZZ"), "t1")]], 3)
        with pytest.raises(ValueError, match=r"base has shape \(2, 2\), not \(4, 4\)"):
            PartialHamiltonianSet([[(pauli_string("ZI"), 1.0)], []], 2, base=SIGMA_Z)
        with pytest.raises(ValueError, match=r"terms\[0\]\[0\] has shape \(4,\)"):
            PartialHamiltonianSet([[(np.ones(4), 1.0)], []], 2)

    def test_time_dependence(self):
        sys = PartialHamiltonianSet(
            [[(pauli_string("ZI"), 1.0), (pauli_string("XI"), "sin(2*t1)")],
             [(pauli_string("IX"), 1.0)]], 2)
        h = sys.hamiltonian(1, [0.4, 0.0])
        want = pauli_string("ZI") + np.sin(0.8) * pauli_string("XI")
        assert np.allclose(h, want)

    def test_numeric_row_summed_once(self):
        sys = coupled_qubits()
        h = sys.hamiltonian(2, [0.0, 0.0])
        assert sys.hamiltonian(2, [0.3, -1.0]) is h
        want = np.zeros((4, 4), complex) + 1.0 * pauli_string("IX") \
            + (0.5 * G) * pauli_string("ZZ")
        assert np.array_equal(h, want)
        assert np.array_equal(sys.hamiltonian(1, [0.0, 0.0]),
                              pauli_string("ZI") + 0.5 * G * pauli_string("ZZ"))

    def test_interaction_picture_of_time_dependent_terms(self):
        # H_j = U (sum of c(t) O) U^dagger with U = exp(-i base t1)
        base = pauli_string("ZI") + 0.3 * pauli_string("XX")
        terms = [[(pauli_string("ZI"), 1.0)],
                 [(pauli_string("IX"), "cos(t2)"), (pauli_string("YY"), 0.5)]]
        sys = PartialHamiltonianSet(terms, 2, base=base)
        times = [0.7, -0.4]
        w, v = np.linalg.eigh(base)
        u = (v * np.exp(-1j * w * 0.7)) @ dagger(v)
        k = np.cos(-0.4) * pauli_string("IX") + 0.5 * pauli_string("YY")
        assert np.allclose(sys.hamiltonian(2, times), u @ k @ dagger(u), atol=1e-14)
        assert np.allclose(sys.hamiltonian(1, times),
                           u @ pauli_string("ZI") @ dagger(u), atol=1e-14)
        assert linops.is_hermitian(sys.hamiltonian(2, times))


class TestEvolution:
    def test_unitarity_preserved(self):
        sys = coupled_qubits()
        phi = np.zeros(4, dtype=complex)
        phi[0] = 1.0
        path = [Segment(1, 0.7, 70), Segment(2, -0.3, 30)]
        out = evolve_staircase(sys, MultiTimeState(phi, [0.0, 0.0]), path)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.times, [0.7, -0.3])

    def test_constant_single_axis_exact(self):
        # one axis of a constant system is exp(-i H_1 T), computable exactly
        sys = free_qubits()
        phi = np.array([1, 0, 0, 0], dtype=complex)
        out = evolve_staircase(sys, MultiTimeState(phi, [0.0, 0.0]),
                               [Segment(1, 1.3, 1)])
        w, v = np.linalg.eigh(pauli_string("ZI"))
        want = (v * np.exp(-1j * w * 1.3)) @ dagger(v) @ phi
        assert np.linalg.norm(out.vector - want) < 1e-12

    def test_substep_second_order_convergence(self):
        # midpoint-frozen exponentials are second order: halving the substep
        # count ratio of errors vs a fine reference should be about 4
        sys = PartialHamiltonianSet(
            [[(pauli_string("ZI"), 1.0), (pauli_string("XI"), "0.3*sin(2*t1)")],
             [(pauli_string("IX"), 1.0)]], 2)
        phi = np.zeros(4, dtype=complex)
        phi[0] = 1.0
        state = MultiTimeState(phi, [0.0, 0.0])

        def run(m):
            return evolve_staircase(sys, state,
                                    [Segment(1, 1.0, m)]).vector

        ref = run(4096)
        e32 = np.linalg.norm(run(32) - ref)
        e64 = np.linalg.norm(run(64) - ref)
        assert 2.5 < e32 / e64 < 6.0

    def test_path_independence_when_consistent(self):
        # consistent system: any two staircases with equal displacement agree
        sys = interaction_picture()
        rng = np.random.default_rng(11)
        phi = rng.normal(size=4) + 1j * rng.normal(size=4)
        phi /= np.linalg.norm(phi)
        state = MultiTimeState(phi, [0.0, 0.0])
        end = [0.6, -0.4]
        a = evolve_staircase(sys, state, staircase_between([0, 0], end, max_dt=1e-3))
        b = evolve_staircase(sys, state,
                             random_staircase(rng, [0, 0], end, max_dt=1e-3))
        assert np.linalg.norm(a.vector - b.vector) < 1e-7

    def test_path_dependence_when_inconsistent(self):
        sys = coupled_qubits()
        phi = np.ones(4, dtype=complex) / 2.0
        state = MultiTimeState(phi, [0.0, 0.0])
        a = evolve_staircase(sys, state, [Segment(1, 0.5, 50), Segment(2, 0.5, 50)])
        b = evolve_staircase(sys, state, [Segment(2, 0.5, 50), Segment(1, 0.5, 50)])
        assert np.linalg.norm(a.vector - b.vector) > 0.01

    def test_bad_substeps(self):
        sys = free_qubits()
        state = MultiTimeState(np.array([1, 0, 0, 0], complex), [0.0, 0.0])
        with pytest.raises(ValueError):
            evolve_staircase(sys, state, [Segment(1, 1.0, 0)])

    def test_work_bounded(self, monkeypatch):
        # refused before the first propagator, each one more than allowed
        def no_propagators(*args):
            raise AssertionError("a propagator was built")

        monkeypatch.setattr(linops, "hermitian_propagator", no_propagators)
        sys = free_qubits()
        phi = np.array([1, 0, 0, 0], complex)
        path = [Segment(1, 1.0, 600_000), Segment(2, 1.0, 400_001)]
        with pytest.raises(ValueError, match="1000001 substeps; at most 1000000"):
            evolve_staircase(sys, MultiTimeState(phi, [0.0, 0.0]), path)
        with pytest.raises(ValueError, match="steps must be in 1..1000000"):
            diagonal_evolution(sys, phi, 0.0, 1.0, steps=1_000_001)


class TestSubsteps:
    """Each leg is split into ceil(|duration| / max_dt) substeps, counted in
    floats, and refused above MAX_STEPS before any propagator is built."""

    @pytest.fixture(autouse=True)
    def no_propagators(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a propagator was built")

        monkeypatch.setattr(linops, "hermitian_propagator", refuse)

    def runs(self, max_dt):
        phi = np.array([1, 0, 0, 0], complex)
        return [
            lambda: staircase_between([0, 0], [0.5, 0.5], max_dt=max_dt),
            lambda: random_staircase(np.random.default_rng(3), [0, 0], [0.5, 0.5],
                                     pieces=1, max_dt=max_dt),
            lambda: rectangle_holonomy(free_qubits(), [0, 0], 1, 2, 0.5, 0.5, phi,
                                       max_dt=max_dt),
        ]

    @pytest.mark.parametrize("max_dt", [0.0, -1e-2, -0.0, float("nan")])
    def test_nonpositive_max_dt_refused(self, max_dt):
        for run in self.runs(max_dt):
            with pytest.raises(ValueError, match="max_dt must be positive"):
                run()

    @pytest.mark.parametrize("max_dt", [5e-324, 1e-300, 0.5 / 1_000_001])
    def test_leg_above_max_steps_refused(self, max_dt):
        for run in self.runs(max_dt):
            with pytest.raises(ValueError, match="more than 1000000 substeps"):
                run()

    def test_counts(self):
        path = staircase_between([0, 0], [0.5, -0.5], max_dt=0.5 / 1_000_000)
        assert [seg.substeps for seg in path] == [1_000_000, 1_000_000]
        path = staircase_between([0, 0], [0.3, 1e-9], order=[2, 1], max_dt=0.1)
        assert [(seg.axis, seg.substeps) for seg in path] == [(2, 1), (1, 3)]
        path = random_staircase(np.random.default_rng(3), [0, 0], [0.5, 0.5],
                                pieces=3, max_dt=0.01)
        assert sum(seg.duration for seg in path if seg.axis == 1) == pytest.approx(0.5)
        assert all(seg.substeps == max(1, math.ceil(abs(seg.duration) / 0.01))
                   for seg in path)


class TestHolonomy:
    def test_holonomy_zero_for_free(self):
        phi = np.array([1, 0, 0, 0], dtype=complex)
        h = rectangle_holonomy(free_qubits(), [0, 0], 1, 2, 0.01, 0.01, phi)
        assert h < 1e-12

    def test_holonomy_area_law_oracle(self):
        # leading order: holonomy = eps * delta * ||C_12 phi0||_2
        sys = coupled_qubits()
        phi = np.ones(4, dtype=complex) / 2.0
        c = consistency_defect_matrix(sys, [0.0, 0.0], 1, 2)
        want = float(np.linalg.norm(c @ phi))
        sizes = [0.01, 0.005, 0.0025]
        ratios = []
        for s in sizes:
            hol = rectangle_holonomy(sys, [0, 0], 1, 2, s, s, phi, max_dt=1e-3)
            ratios.append(hol / (s * s))
        for r in ratios:
            assert abs(r - want) / want < 0.05
        # halving the rectangle moves the normalized value toward the oracle
        assert abs(ratios[2] - want) <= abs(ratios[0] - want)

    def test_holonomy_same_axis_rejected(self):
        phi = np.array([1, 0, 0, 0], dtype=complex)
        with pytest.raises(ValueError):
            rectangle_holonomy(free_qubits(), [0, 0], 1, 1, 0.01, 0.01, phi)


class TestDiagonal:
    def test_diagonal_matches_staircase(self):
        # consistent time-dependent system: staircase to (T, T) agrees with
        # single-time evolution under H = H_1 + H_2 on the diagonal
        sys = interaction_picture()
        phi = np.zeros(4, dtype=complex)
        phi[0] = 1.0
        t_end = 0.5
        a = diagonal_evolution(sys, phi, 0.0, t_end, steps=2000)
        b = evolve_staircase(
            sys, MultiTimeState(phi, [0.0, 0.0]),
            staircase_between([0, 0], [t_end, t_end], max_dt=5e-4)).vector
        assert np.linalg.norm(a - b) < 1e-6

    def test_diagonal_constant_exact(self):
        sys = free_qubits()
        phi = np.array([0, 1, 0, 0], dtype=complex)
        h = pauli_string("ZI") + pauli_string("IX")
        w, v = np.linalg.eigh(h)
        want = (v * np.exp(-1j * w * 0.9)) @ dagger(v) @ phi
        got = diagonal_evolution(sys, phi, 0.0, 0.9, steps=1)
        assert np.linalg.norm(got - want) < 1e-12
