import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (defect_matrix_oracle, diagonal_oracle, quantum_defect_oracle,
                     staircase_oracle)

from multitime import classical, expr, kinds_quantum, linops, quantum
from multitime.configs import EXAMPLE_CONFIGS
from multitime.linops import (
    SIGMA_Y,
    SIGMA_Z,
    commutator,
    dagger,
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
    path_substeps,
    quantum_consistency_defect,
    quantum_defect_grid,
    random_staircase,
    rectangle_holonomy,
    rectangle_staircases,
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
    @pytest.mark.parametrize("h", [0.0, math.nan, math.inf])
    def test_step_not_a_finite_positive_number_refused(self, h):
        # h = nan or inf read nan, with RuntimeWarnings
        for defect in (lambda: consistency_defect_matrix(coupled_qubits(), [0.1, 0.2],
                                                         1, 2, h=h),
                       lambda: quantum_consistency_defect(coupled_qubits(), [0.1, 0.2],
                                                          h=h)):
            with pytest.raises(ValueError, match=r"^h: expected a (finite number|number > 0), "):
                defect()

    def test_one_time_has_no_pair(self):
        # n = 1 has no pair j < k, so the maximum reads 0.0 in every sector
        field = classical.PhaseVectorField.free(1, 1, [1.0])
        point = classical.PhasePoint(times=[0.2], x=[[0.5]], p=[[0.3]])
        reports = [classical.classical_consistency_defect(field, point),
                   quantum_consistency_defect(
                       PartialHamiltonianSet([[(SIGMA_Z, 1.0)]], 2), [0.2])]
        for rep in reports:
            assert rep.pairs == {} and rep.max_defect == 0.0 and rep.h == 1e-4

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
        want = -G * np.kron(SIGMA_Z, SIGMA_Y)
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
                [[(np.kron(RAISING, np.eye(2)), 1.0)], [(np.eye(4), 1.0)]], 2)

    def test_non_hermitian_term_operator_rejected(self):
        with pytest.raises(ValueError, match=r"operator of terms\[1\]\[1\] is not"):
            PartialHamiltonianSet(
                [[(pauli_string("ZI"), 1.0)],
                 [(pauli_string("IX"), "t1"), (np.kron(np.eye(2), RAISING), 0.5)]], 2)

    def test_non_hermitian_interaction_picture_rejected(self):
        terms = [[(pauli_string("ZI"), 1.0)], [(pauli_string("IY"), 1.0)]]
        with pytest.raises(ValueError, match="base is not Hermitian"):
            PartialHamiltonianSet(terms, 2, base=np.kron(RAISING, np.eye(2)))
        terms[1].append((np.kron(np.eye(2), RAISING), 1.0))
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
        with pytest.raises(ValueError, match="the run takes 1000001 diagonal steps; "
                                             "at most 1000000 are allowed"):
            diagonal_evolution(sys, phi, 0.0, 1.0, steps=1_000_001)
        for steps, refused in ((0, ">= 1, got 0"), (-1, ">= 1, got -1"),
                               (float("nan"), "an integer, got nan")):
            with pytest.raises(ValueError, match=f"^steps: expected {refused}$"):
                diagonal_evolution(sys, phi, 0.0, 1.0, steps=steps)


def test_rectangle_plan():
    # the holonomy's two staircases, whose substeps ``path_substeps`` counts
    a, b = rectangle_staircases(1, 2, 0.5, -0.25, max_dt=0.1)
    assert a == [Segment(1, 0.5, 5), Segment(2, -0.25, 3)] and b == a[::-1]
    assert path_substeps(a + b) == 16
    with pytest.raises(ValueError, match="two distinct axes"):
        rectangle_staircases(2, 2, 0.5, 0.5)


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
            with pytest.raises(ValueError, match=r"^max_dt: expected a (finite number|number > 0), "):
                run()

    @pytest.mark.parametrize("max_dt", [0.0, -1.0, float("nan")])
    def test_max_dt_refused_without_legs(self, max_dt):
        # every leg is zero, so no leg is split: max_dt is checked first
        with pytest.raises(ValueError, match=r"^max_dt: expected a (finite number|number > 0), "):
            staircase_between([0, 0], [0, 0], max_dt=max_dt)
        with pytest.raises(ValueError, match=r"^max_dt: expected a (finite number|number > 0), "):
            random_staircase(np.random.default_rng(3), [0, 0], [0, 0], max_dt=max_dt)

    @pytest.mark.parametrize("max_dt", [5e-324, 1e-300, 0.5 / 1_000_001])
    def test_leg_above_max_steps_refused(self, max_dt):
        for run in self.runs(max_dt):
            with pytest.raises(ValueError, match=r"the run takes \S+ substeps in a leg "
                                                 r"of 0\.5; at most 1000000 are allowed"):
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


COEFFICIENTS = ["sin(t1)", "0.5*cos(2*t{k})", "t{k}*t{m} - 0.3", "exp(-t{k}^2)",
                "1.5"]


@st.composite
def propagation_cases(draw):
    """A random system of 1-3 qubit times with numeric and expression rows,
    with or without a ``base``; a random state and start time tuple; and
    the number of matrices per stack (0: the default ``STACK_BYTES``)."""
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = 2 ** n

    def hermitian():
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return a + a.conj().T

    def coefficient():
        if draw(st.booleans()):
            return draw(st.floats(-2.0, 2.0))
        k, m = draw(st.integers(1, n)), draw(st.integers(1, n))
        return draw(st.sampled_from(COEFFICIENTS)).format(k=k, m=m)

    terms = []
    for _ in range(n):
        numeric = draw(st.booleans())
        terms.append([(hermitian(), draw(st.floats(-2.0, 2.0)) if numeric
                       else coefficient()) for _ in range(draw(st.integers(0, 3)))])
    base = hermitian() if draw(st.booleans()) else None
    phi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    start = rng.uniform(-1.0, 1.0, size=n)
    return terms, base, phi / np.linalg.norm(phi), start, rng, \
        draw(st.sampled_from([0, 1, 3, 7]))


class TestStackedPropagation:
    """Stacked and constant-leg propagation equal the per-substep loops of
    ``oracles`` bit for bit, with stacks of the default size and with
    small ones, so that legs span several stacks."""

    @staticmethod
    def budget(monkeypatch, per_stack: int, dim: int):
        if per_stack:
            monkeypatch.setattr(quantum, "STACK_BYTES", per_stack * 16 * dim * dim)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(propagation_cases(), st.integers(1, 4))
    def test_staircase_matches_per_substep_loop(self, case, pieces):
        terms, base, phi, start, rng, per_stack = case
        sys = PartialHamiltonianSet(terms, 2, base=base)
        end = start + rng.uniform(-0.4, 0.4, size=len(start))
        path = random_staircase(rng, start, end, pieces=pieces, max_dt=0.02)
        with pytest.MonkeyPatch.context() as mp:
            self.budget(mp, per_stack, sys.dim)
            got = evolve_staircase(sys, MultiTimeState(phi, start), path)
        assert np.array_equal(got.vector, staircase_oracle(terms, base, phi, start, path))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(propagation_cases(), st.integers(1, 40))
    def test_diagonal_matches_per_step_loop(self, case, steps):
        terms, base, phi, start, rng, per_stack = case
        sys = PartialHamiltonianSet(terms, 2, base=base)
        t_end = start[0] + rng.uniform(-0.5, 0.5)
        with pytest.MonkeyPatch.context() as mp:
            self.budget(mp, per_stack, sys.dim)
            got = diagonal_evolution(sys, phi, start[0], t_end, steps)
        want = diagonal_oracle(terms, base, phi, start[0], t_end, steps)
        assert np.array_equal(got, want)

    def test_constant_leg_builds_one_propagator(self, monkeypatch):
        # the shipped staircase: its t1 leg moves the frame, so its 1000
        # Hamiltonians go in full stacks; under the frame, H_2 has a numeric
        # row and does not depend on t2, so its leg builds one H and one U
        cfg = EXAMPLE_CONFIGS["interaction_picture_staircase"]
        sys = kinds_quantum.build_quantum_system(cfg["system"], "/system")
        exp = cfg["experiment"]
        built, propagators = [], []
        hamiltonians = PartialHamiltonianSet.hamiltonians
        propagator = linops.hermitian_propagator

        def counting_hamiltonians(self, j, times):
            built.append((j, len(times)))
            return hamiltonians(self, j, times)

        def counting_propagator(h, dt):
            propagators.append(int(np.prod(np.shape(h)[:-2])))
            return propagator(h, dt)

        monkeypatch.setattr(PartialHamiltonianSet, "hamiltonians", counting_hamiltonians)
        monkeypatch.setattr(linops, "hermitian_propagator", counting_propagator)
        path = staircase_between(exp["start"], exp["end"], max_dt=exp["max_dt"])
        assert [(seg.axis, seg.substeps) for seg in path] == [(1, 1000), (2, 1000)]
        phi = np.full(4, 0.5, dtype=complex)
        evolve_staircase(sys, MultiTimeState(phi, exp["start"]), path)
        per_stack = quantum.STACK_BYTES // (16 * sys.dim ** 2)
        stacks = [min(per_stack, 1000 - i) for i in range(0, 1000, per_stack)]
        assert built == [(1, m) for m in stacks] + [(2, 1)]
        assert propagators == stacks + [1]


def defect_system(seed: int, n: int, expressions: bool,
                  base: bool) -> PartialHamiltonianSet:
    """A seeded random system of n qubit times: 1-3 random Hermitian
    operators per row, with numbers and (``expressions``) some coefficients
    of ``COEFFICIENTS``, and a random ``base`` or none."""
    rng = np.random.default_rng(seed)
    dim = 2 ** n

    def hermitian():
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return a + a.conj().T

    def coefficient():
        if not expressions or rng.random() < 0.3:
            return float(rng.uniform(-2.0, 2.0))
        k, m = rng.integers(1, n + 1, size=2)
        return COEFFICIENTS[rng.integers(len(COEFFICIENTS))].format(k=k, m=m)

    terms = [[(hermitian(), coefficient()) for _ in range(rng.integers(1, 4))]
             for _ in range(n)]
    return PartialHamiltonianSet(terms, 2, base=hermitian() if base else None)


class TestDefectGrid:
    """The stacked grid, ``consistency_defect_matrix`` and
    ``quantum_consistency_defect`` equal the per-point, per-pair defect of
    ``oracles`` bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("expressions", [False, True])
    @pytest.mark.parametrize("base", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_point_oracle(self, n, expressions, base, seed):
        sys = defect_system(seed, n, expressions, base)
        rng = np.random.default_rng(100 + seed)
        times = rng.uniform(-1.0, 1.0, size=(5, n))
        for h in (1e-4, 1e-3, 2.5e-2):
            grid = quantum_defect_grid(sys, times, h)
            assert grid.shape == (5, n * (n - 1) // 2)
            for row, tt in zip(grid.tolist(), times):
                want = quantum_defect_oracle(sys, tt, h=h)
                assert row == list(want.values())
                assert quantum_consistency_defect(sys, tt, h=h).pairs == want
            for j, k in [(1, n), (n, 1), (n, n)]:
                assert np.array_equal(consistency_defect_matrix(sys, times[0], j, k, h=h),
                                      defect_matrix_oracle(sys, times[0], j, k, h=h))

    def test_grid_longer_than_a_stack(self, monkeypatch):
        # 300 rows at dim 4: stacks of 256 and 44 rows, each building H_1 and
        # H_2 once and each one up and down along the other's time
        sys = defect_system(7, 2, True, True)
        times = np.random.default_rng(8).uniform(-1.0, 1.0, size=(300, 2))
        built = []
        hamiltonians = PartialHamiltonianSet.hamiltonians

        def counting_hamiltonians(self, j, times):
            built.append(len(times))
            return hamiltonians(self, j, times)

        monkeypatch.setattr(PartialHamiltonianSet, "hamiltonians", counting_hamiltonians)
        grid = quantum_defect_grid(sys, times)
        assert built == [256] * 6 + [44] * 6
        built.clear()  # n = 3: three H_j, then four builds for each of three pairs
        quantum_defect_grid(defect_system(7, 3, True, False), np.zeros((5, 3)))
        assert built == [5] * 15
        monkeypatch.undo()
        want = [list(quantum_defect_oracle(sys, tt).values()) for tt in times]
        assert grid.tolist() == want

    def test_one_time_has_no_column(self):
        sys = PartialHamiltonianSet([[(SIGMA_Z, "t1")]], 2)
        assert quantum_defect_grid(sys, np.zeros((3, 1))).shape == (3, 0)

    def test_step_that_rounds_away_refused_before_any_hamiltonian(self, monkeypatch):
        # row 0 leaves the domain of sqrt; row 1 has t2 = 1e20, where
        # t2 +- h == t2: the step is refused first, and no H is built
        sys = PartialHamiltonianSet([[(pauli_string("ZI"), "sqrt(t1)")],
                                     [(pauli_string("IX"), 1.0)]], 2)
        times = np.array([[-1.0, 0.0], [0.5, 1e20]])
        with pytest.raises(expr.DomainError):
            quantum_defect_grid(sys, times[:1])

        def no_hamiltonians(*args):
            raise AssertionError("a Hamiltonian was built")

        monkeypatch.setattr(PartialHamiltonianSet, "hamiltonians", no_hamiltonians)
        with pytest.raises(FloatingPointError,
                           match=r"h = 0.0001 rounds away at t2 = 1e\+20"):
            quantum_defect_grid(sys, times)
        with pytest.raises(FloatingPointError, match="rounds away at t2 = 1e"):
            consistency_defect_matrix(sys, times[1], 2, 1)

    @pytest.mark.parametrize("times", [np.array([0.1, 0.2]), np.zeros((1, 1, 2)),
                                       np.zeros((2, 3))])
    def test_times_not_shaped_m_by_n_refused(self, times):
        message = "^" + re.escape(f"times: expected shape (m, 2), got {times.shape}") + "$"
        for call in (lambda: free_qubits().hamiltonians(1, times),
                     lambda: quantum_defect_grid(free_qubits(), times)):
            with pytest.raises(ValueError, match=message):
                call()


    @pytest.mark.parametrize("times", [[0.1, 0.2, 0.3], [0.1], [[0.1, 0.2]], 0.1])
    def test_time_tuple_not_of_n_times_refused(self, times):
        # it was named as a grid of one row: (m, 2) against (1, 3)
        message = "^" + re.escape(f"times: expected shape (2,), got {np.shape(times)}") + "$"
        for call in (lambda: free_qubits().hamiltonian(1, times),
                     lambda: consistency_defect_matrix(free_qubits(), times, 1, 2),
                     lambda: quantum_consistency_defect(free_qubits(), times)):
            with pytest.raises(ValueError, match=message):
                call()


    @pytest.mark.parametrize("j", [0, 3])
    def test_index_outside_refused(self, j):
        with pytest.raises(ValueError, match=f"^index {j} outside 1..2$"):
            free_qubits().hamiltonian(j, [0.1, 0.2])


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
