"""The refusals of the numbers a run is given.

Every public step, tolerance, span, count, mass and duration of
``classical``, ``quantum`` and ``hj`` is fed NaN, +-inf, 0 and a negative
value, as its kind calls for; each must raise ValueError whose message
starts with the parameter's name, as ``expr.check_finite``,
``check_positive``, ``check_span`` and ``check_count`` word it.  A call
that returns, or raises any other exception, fails.  ``paths`` takes no
such parameter: its one scalar, a query time, is refused with
``PathRangeError`` when it is NaN or outside the samples.
"""

import math

import numpy as np
import pytest

from multitime import classical, expr, hj, quantum
from multitime.classical import HamiltonianPair, PhasePoint, PhaseVectorField
from multitime.hj import Foliation, HJFunction
from multitime.linops import pauli_string
from multitime.quantum import PartialHamiltonianSet, Segment

NAN, INF = math.nan, math.inf
#: a step, a tolerance or a mass: a finite number > 0
POSITIVE = [NAN, INF, -INF, 0.0, -0.0, -0.5]
#: a duration, a side or a time: a finite number
FINITE = [NAN, INF, -INF]
#: a count of at least 1
COUNT = [NAN, INF, -INF, 0, -1, 1.5, True]
#: a finite, strictly increasing pair
SPAN = [(NAN, 1.0), (0.0, NAN), (0.0, INF), (-INF, 1.0), (1.0, 0.0), (0.5, 0.5)]

FIELD = PhaseVectorField.free(2, 1, [1.0, 1.0])
POINT = PhasePoint(times=[0.0, 0.0], x=[[-1.0], [1.0]], p=[[0.1], [0.2]])
#: the samples array of POINT alone: its times, x rows and p rows
ROWS = np.array([[0.0, 0.0, -1.0, 1.0, 0.1, 0.2]])
PAIR = HamiltonianPair(["p1_1^2/2", "p2_1^2/2"], 2, 1)
QUBITS = PartialHamiltonianSet([[(pauli_string("ZI"), 1.0)],
                                [(pauli_string("IX"), 1.0)]], 2)
#: one time, which has no pair: the step is refused all the same
QUBIT = PartialHamiltonianSet([[(pauli_string("Z"), "t1")]], 2)
PHI = np.array([1, 0, 0, 0], complex)
S = HJFunction("0.3*x1_1 - 0.045*t1 - 0.2*x2_1 - 0.02*t2", 2, 1, [1.0, 1.0])
H_LIST = ["p1_1^2/2", "p2_1^2/2"]
FOL, INIT = Foliation([0.0]), [[0.0], [1.0]]
BINDINGS = {"x1_1": 0.5, "x2_1": 1.0, "p1_1": 0.1, "p2_1": 0.2}


def rng():
    return np.random.default_rng(3)


# (id, the parameter's name, its bad values, the call given one)
CASES = [
    # classical
    ("defect-h", "h", POSITIVE,
     lambda v: classical.classical_consistency_defect(FIELD, POINT, h=v)),
    ("defect-grid-h", "h", POSITIVE,
     lambda v: classical.classical_defect_grid(FIELD, ROWS, v)),
    ("field-h", "h", POSITIVE,
     lambda v: classical.hamiltonian_vector_field("p1_1^2/2", 2, 1, h=v)),
    ("pair-h", "h", POSITIVE, lambda v: HamiltonianPair(H_LIST, 2, 1, h=v)),
    ("free-mass", "masses[1]", POSITIVE, lambda v: PhaseVectorField.free(2, 1, [1.0, v])),
    ("equal-time-steps-dt", "dt", POSITIVE,
     lambda v: classical.equal_time_steps((0.0, 1.0), v)),
    ("equal-time-steps-t_span", "t_span", SPAN,
     lambda v: classical.equal_time_steps(v, 0.1)),
    ("evolve-dt", "dt", POSITIVE,
     lambda v: classical.evolve_equal_time(FIELD, POINT, (0.0, 0.1), v)),
    ("evolve-t_span", "t_span", SPAN,
     lambda v: classical.evolve_equal_time(FIELD, POINT, v, 0.05)),
    ("full-grid-steps-points1", "points1", COUNT,
     lambda v: classical.full_grid_steps(v, 2, 2)),
    ("full-grid-steps-points2", "points2", COUNT,
     lambda v: classical.full_grid_steps(2, v, 2)),
    ("full-grid-steps-substeps", "substeps", COUNT,
     lambda v: classical.full_grid_steps(2, 2, v)),
    ("full-grid-substeps", "substeps", COUNT,
     lambda v: classical.evolve_full_grid(PAIR, POINT, [0.0, 0.1], [0.0, 0.1], v)),
    ("rectangle-steps-dt", "dt", POSITIVE,
     lambda v: classical.rectangle_steps((0.1, 0.1), v)),
    ("rectangle-steps-side", "rectangle", FINITE,
     lambda v: classical.rectangle_steps((v, 0.1), 0.1)),
    ("path-independence-dt", "dt", POSITIVE,
     lambda v: classical.grid_path_independence(PAIR, POINT, (0.1, 0.1), v)),
    ("path-independence-side", "rectangle", FINITE,
     lambda v: classical.grid_path_independence(PAIR, POINT, (0.1, v), 0.1)),
    ("cjs-h", "h", POSITIVE,
     lambda v: classical.cjs_demo([("free", FIELD)], ROWS, POINT, (0.0, 0.1), 0.05, h=v)),
    ("cjs-dt", "dt", POSITIVE,
     lambda v: classical.cjs_demo([("free", FIELD)], ROWS, POINT, (0.0, 0.1), v)),
    ("cjs-t_span", "t_span", SPAN,
     lambda v: classical.cjs_demo([("free", FIELD)], ROWS, POINT, v, 0.05)),
    # quantum
    ("defect-matrix-h", "h", POSITIVE,
     lambda v: quantum.consistency_defect_matrix(QUBITS, [0.1, 0.2], 1, 2, h=v)),
    ("quantum-defect-h", "h", POSITIVE,
     lambda v: quantum.quantum_consistency_defect(QUBITS, [0.1, 0.2], h=v)),
    ("quantum-defect-one-time-h", "h", POSITIVE,
     lambda v: quantum.quantum_consistency_defect(QUBIT, [0.1], h=v)),
    ("quantum-defect-grid-h", "h", POSITIVE,
     lambda v: quantum.quantum_defect_grid(QUBITS, np.array([[0.1, 0.2]]), v)),
    ("quantum-defect-grid-one-time-h", "h", POSITIVE,
     lambda v: quantum.quantum_defect_grid(QUBIT, np.array([[0.1]]), v)),
    ("segment-duration", "duration", FINITE, lambda v: Segment(1, v, 1)),
    ("segment-substeps", "substeps", COUNT, lambda v: Segment(1, 0.5, v)),
    ("staircase-max_dt", "max_dt", POSITIVE,
     lambda v: quantum.staircase_between([0.0, 0.0], [0.5, 0.5], max_dt=v)),
    ("staircase-start", "end - start", FINITE,
     lambda v: quantum.staircase_between([v, 0.0], [1.0, 1.0])),
    ("staircase-end", "end - start", FINITE,
     lambda v: quantum.staircase_between([0.0, 0.0], [v, 1.0])),
    ("random-staircase-max_dt", "max_dt", POSITIVE,
     lambda v: quantum.random_staircase(rng(), [0.0, 0.0], [0.5, 0.5], max_dt=v)),
    ("random-staircase-end", "end - start", FINITE,
     lambda v: quantum.random_staircase(rng(), [0.0, 0.0], [0.5, v])),
    ("random-staircase-pieces", "pieces", COUNT,
     lambda v: quantum.random_staircase(rng(), [0.0, 0.0], [0.5, 0.5], pieces=v)),
    ("rectangle-staircases-max_dt", "max_dt", POSITIVE,
     lambda v: quantum.rectangle_staircases(1, 2, 0.5, 0.5, v)),
    ("rectangle-staircases-eps", "eps", FINITE,
     lambda v: quantum.rectangle_staircases(1, 2, v, 0.5)),
    ("rectangle-staircases-delta", "delta", FINITE,
     lambda v: quantum.rectangle_staircases(1, 2, 0.5, v)),
    ("holonomy-max_dt", "max_dt", POSITIVE,
     lambda v: quantum.rectangle_holonomy(QUBITS, [0.0, 0.0], 1, 2, 0.1, 0.1, PHI, max_dt=v)),
    ("holonomy-eps", "eps", FINITE,
     lambda v: quantum.rectangle_holonomy(QUBITS, [0.0, 0.0], 1, 2, v, 0.1, PHI)),
    ("holonomy-delta", "delta", FINITE,
     lambda v: quantum.rectangle_holonomy(QUBITS, [0.0, 0.0], 1, 2, 0.1, v, PHI)),
    ("diagonal-steps", "steps", COUNT,
     lambda v: quantum.diagonal_evolution(QUBITS, PHI, 0.0, 1.0, v)),
    ("diagonal-t_start", "t_start", FINITE,
     lambda v: quantum.diagonal_evolution(QUBITS, PHI, v, 1.0, 10)),
    ("diagonal-t_end", "t_end", FINITE,
     lambda v: quantum.diagonal_evolution(QUBITS, PHI, 0.0, v, 10)),
    # Hamilton-Jacobi
    ("hj-mass", "masses[1]", POSITIVE, lambda v: HJFunction("x1_1", 2, 1, [1.0, v])),
    ("gradients-h", "h", POSITIVE, lambda v: S.gradients(v)),
    ("grad_x-h", "h", POSITIVE, lambda v: S.grad_x(1, [0.0, 0.0], INIT, h=v)),
    ("velocity-h", "h", POSITIVE, lambda v: S.velocity(2, [0.0, 0.0], INIT, h=v)),
    ("bracket-h", "h", POSITIVE,
     lambda v: hj.poisson_bracket("x1_1", "p1_1", 2, 1, BINDINGS, h=v)),
    ("residual-h", "h", POSITIVE,
     lambda v: hj.hj_residual_multi(S, H_LIST, [0.0, 0.0], INIT, h=v)),
    ("hj-defect-h", "h", POSITIVE, lambda v: hj.hj_consistency_defect(H_LIST, POINT, h=v)),
    ("hj-defect-grid-h", "h", POSITIVE, lambda v: hj.hj_defect_grid(H_LIST, 2, 1, ROWS, v)),
    ("velocity-defect-h", "h", POSITIVE,
     lambda v: hj.hj_velocity_consistency_defect(S, [0.0, 0.0], INIT, h=v)),
    ("leaves-s_span", "s_span", SPAN, lambda v: hj.foliation_leaves(FOL, INIT, v, 0.1)),
    ("leaves-ds", "ds", POSITIVE, lambda v: hj.foliation_leaves(FOL, INIT, (0.0, 1.0), v)),
    ("trajectories-s_span", "s_span", SPAN,
     lambda v: hj.hj_trajectories_foliation(S, FOL, INIT, v, 0.1)),
    ("trajectories-ds", "ds", POSITIVE,
     lambda v: hj.hj_trajectories_foliation(S, FOL, INIT, (0.0, 1.0), v)),
    ("trajectories-max_anchor_iters", "max_anchor_iters", COUNT,
     lambda v: hj.hj_trajectories_foliation(S, FOL, INIT, (0.0, 1.0), 0.1,
                                            max_anchor_iters=v)),
    # a tolerance of 0 is allowed: the anchoring may ask for an exact hit
    ("trajectories-anchor_tol", "anchor_tol", [NAN, -INF, -1e-10],
     lambda v: hj.hj_trajectories_foliation(S, FOL, INIT, (0.0, 1.0), 0.1, anchor_tol=v)),
    ("compare-s_span", "s_span", SPAN,
     lambda v: hj.foliation_compare(S, [FOL, Foliation([0.3])], INIT, v, 0.1)),
    ("compare-ds", "ds", POSITIVE,
     lambda v: hj.foliation_compare(S, [FOL, Foliation([0.3])], INIT, (0.0, 1.0), v)),
    ("compare-tolerance", "tolerance", POSITIVE,
     lambda v: hj.foliation_compare(S, [FOL, Foliation([0.3])], INIT, (0.0, 1.0), 0.1,
                                    tolerance=v)),
]


@pytest.mark.parametrize("name,call,value", [
    pytest.param(name, call, value, id=f"{case}[{value}]")
    for case, name, values, call in CASES for value in values])
def test_bad_number_refused_naming_the_parameter(monkeypatch, name, call, value):
    # every refusal comes before any run: no leaf sweep, no propagator
    monkeypatch.setattr(hj, "_leaf_sweep", None)
    monkeypatch.setattr(quantum, "_propagate", None)
    with pytest.raises(ValueError) as exc:
        call(value)
    assert type(exc.value) is ValueError
    # anchor_tol keeps its own wording ("anchor_tol must be a number >= 0")
    assert str(exc.value).startswith(f"{name}: " if name != "anchor_tol" else name)


@pytest.mark.parametrize("call,message", [
    # each of these was accepted, or died on an unrelated error
    (lambda: quantum.staircase_between([0, 0], [0.5, 0.5], max_dt=INF),
     "max_dt: expected a finite number, got inf"),
    (lambda: classical.full_grid_steps(2, 2, NAN), "substeps: expected an integer, got nan"),
    (lambda: classical.full_grid_steps(2, 2, 2.5), "substeps: expected an integer, got 2.5"),
    (lambda: quantum.diagonal_evolution(QUBITS, PHI, 0.0, 1.0, steps=1.5),
     "steps: expected an integer, got 1.5"),
    (lambda: hj.hj_trajectories_foliation(S, FOL, INIT, (0.0, 1.0), 0.1,
                                          max_anchor_iters=1.5),
     "max_anchor_iters: expected an integer, got 1.5"),
    (lambda: quantum.staircase_between([0, 0], [NAN, 1]),
     "end - start: expected a finite number, got nan"),
    # a leg whose length overflows: numpy's subtraction warned before the refusal
    (lambda: quantum.staircase_between([-1e308, 0], [1e308, 0.5]),
     "end - start: expected a finite number, got inf"),
    (lambda: quantum.random_staircase(rng(), [-1e308, 0], [1e308, 0.5]),
     "end - start: expected a finite number, got inf"),
    # a list of masses of the wrong length, refused before any mass is read
    (lambda: HJFunction("x1_1 + x2_1", 2, 1, [1.0]), "masses: expected 2 entries, got 1"),
    (lambda: PhaseVectorField.free(2, 1, [1.0]), "masses: expected 2 entries, got 1"),
    (lambda: PhaseVectorField.free(2, 1, [NAN]), "masses: expected 2 entries, got 1"),
    (lambda: quantum.rectangle_holonomy(QUBITS, [0.0, 0.0], 1, 2, NAN, 0.1, PHI),
     "eps: expected a finite number, got nan"),
    (lambda: classical.equal_time_steps((0, -1), 0.1),
     "t_span: expected a strictly increasing pair, got [0.0, -1.0]"),
])
def test_gaps_between_the_library_and_the_cli_closed(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


class TestChecks:
    """The four checks return what they accept, in the CLI's wording
    without a name."""

    def test_accepted_values_are_returned(self):
        assert expr.check_finite(-3) == -3.0 and type(expr.check_finite(2)) is float
        assert expr.check_positive(np.float64(0.5)) == 0.5
        assert expr.check_span([np.int64(0), 2.5]) == (0.0, 2.5)
        assert expr.check_count(np.int64(3), 1) == 3
        assert expr.check_count(0, 0) == 0
        assert expr.check_masses([1, np.float64(0.5)], 2) == (1.0, 0.5)

    @pytest.mark.parametrize("call,message", [
        (lambda: expr.check_finite(10 ** 400), "expected a finite number, got inf"),
        (lambda: expr.check_finite(-10 ** 400), "expected a finite number, got -inf"),
        (lambda: expr.check_positive(0), "expected a number > 0, got 0.0"),
        (lambda: expr.check_span((1.0, -1.0)),
         "expected a strictly increasing pair, got [1.0, -1.0]"),
        (lambda: expr.check_count(1, 2), "expected >= 2, got 1"),
        (lambda: expr.check_count(False, 0), "expected an integer, got False"),
        (lambda: expr.check_positive(-0.01, "ds"), "ds: expected a number > 0, got -0.01"),
    ])
    def test_wording(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
