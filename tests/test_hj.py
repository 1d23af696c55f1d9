import copy
import functools
import math
import operator
import re
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from multitime import hj, paths
from multitime.cli import run_config
from multitime.configs import EXAMPLE_CONFIGS
from multitime.expr import (MAX_STEPS, BinOp, Call, DomainError, Num, UnboundVariableError,
                            Var, binding_names, evaluate, parse_expression)
from multitime.hj import (
    Foliation,
    FoliationDegeneracyError,
    FoliationError,
    HJFunction,
    equal_time_sum_gap,
    foliation_compare,
    hj_consistency_defect,
    hj_defect_grid,
    hj_residual_multi,
    hj_trajectories_foliation,
    foliation_leaves,
    hj_velocity_consistency_defect,
    poisson_bracket,
)
from multitime.numdiff import diff_callable, partial_derivative
from multitime.paths import PhasePoint
from oracles import (anchoring_oracle, hj_defect_oracle, hj_residual_single,
                     leaf_table_oracle, pack, phase_points, unpack_rows, variable_bindings,
                     with_constants)

K1, K2 = 0.3, -0.2
G = 0.05

FREE_S = "k1*x1_1 - (k1^2/2)*t1 + k2*x2_1 - (k2^2/2)*t2"
COUPLED_S = FREE_S + " + 0.05*(x1_1 - x2_1)^2*(t1 + t2)"
CONSTS = {"k1": K1, "k2": K2}


def free_hj() -> HJFunction:
    return HJFunction(FREE_S, 2, 1, [1.0, 1.0], CONSTS)


def coupled_hj() -> HJFunction:
    return HJFunction(COUPLED_S, 2, 1, [1.0, 1.0], CONSTS)


class TestPoissonBracket:
    def test_canonical_pair(self):
        b = {"x1_1": 0.4, "p1_1": -0.2}
        # exact derivatives without a step
        assert poisson_bracket("x1_1", "p1_1", 1, 1, b) == 1.0
        assert poisson_bracket("p1_1", "x1_1", 1, 1, b) == -1.0
        assert poisson_bracket("x1_1", "x1_1", 1, 1, b) == 0.0
        assert poisson_bracket("x1_1", "p1_1", 1, 1, b, h=1e-3) == pytest.approx(
            1.0, abs=1e-12)

    def test_shared_potential_oracle(self):
        # H_j = p_j^2/2 + (x1 - x2)^2/2: {H_1, H_2} = -(x1 - x2)(p1 + p2)
        h1 = "p1_1^2/2 + (x1_1 - x2_1)^2/2"
        h2 = "p2_1^2/2 + (x1_1 - x2_1)^2/2"
        rng = np.random.default_rng(5)
        for _ in range(5):
            x1, x2, p1, p2 = rng.uniform(-1, 1, 4)
            b = {"x1_1": x1, "x2_1": x2, "p1_1": p1, "p2_1": p2}
            want = -(x1 - x2) * (p1 + p2)
            assert poisson_bracket(h1, h2, 2, 1, b) == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("h", [None, 1e-3])
    def test_reads_only_its_variables(self, h):
        # {x1, p1} of two particles reads neither x2_1 nor p2_1, and the step
        # is not checked at them
        b = {"x1_1": 0.0, "p1_1": 0.0}
        assert poisson_bracket("x1_1", "p1_1", 2, 1, b, h=h) == pytest.approx(1.0, abs=1e-12)
        if h is not None:
            assert poisson_bracket("x1_1", "p1_1", 2, 1, {**b, "x2_1": 1e300}, h=h) \
                == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("h", [None, 1e-3])
    @pytest.mark.parametrize("f,name", [("t1*x1_1", "t1"), ("x1_1*x2_1", "x2_1")])
    def test_unbound_variable(self, f, name, h):
        # a time or a phase variable the bracket reads: evaluate's error, not KeyError
        with pytest.raises(UnboundVariableError, match=f"^variable '{name}' is not bound$"):
            poisson_bracket(f, "p1_1", 2, 1, {"x1_1": 0.0, "p1_1": 0.0}, h=h)


class TestResiduals:
    def test_free_multi_time_residual(self):
        s = free_hj()
        res = hj_residual_multi(s, ["p1_1^2/2", "p2_1^2/2"],
                                [0.2, -0.3], [[-0.7], [0.9]])
        assert res == [0.0, 0.0]  # exact derivatives of a polynomial S
        res = hj_residual_multi(s, ["p1_1^2/2", "p2_1^2/2"],
                                [0.2, -0.3], [[-0.7], [0.9]], h=1e-3)
        assert max(res) < 1e-12

    def test_free_residual_detects_wrong_hamiltonian(self):
        s = free_hj()
        res = hj_residual_multi(s, ["p1_1^2/2 + x1_1^2/2", "p2_1^2/2"],
                                [0.2, -0.3], [[-0.7], [0.9]])
        assert res[0] > 0.1

    def test_harmonic_oscillator_classical_action(self):
        # S = ((x0^2 + x^2) cos t - 2 x0 x) / (2 sin t) solves the
        # single-time HJ equation for H = p^2/2 + x^2/2
        s_expr = "((x0^2 + x1_1^2)*cos(t) - 2*x0*x1_1)/(2*sin(t))"
        h_expr = "p1_1^2/2 + x1_1^2/2"
        worst = 0.0
        for t in np.linspace(0.5, 1.2, 8):
            for x in np.linspace(-1.0, 1.0, 9):
                worst = max(worst, hj_residual_single(
                    s_expr, h_expr, t, [[x]], 1, 1, constants={"x0": 0.5}))
        assert worst < 1e-6

    def test_sum_rule(self):
        pt = PhasePoint(times=[0.3, 0.3], x=[[0.1], [-0.4]], p=[[0.5], [0.2]])
        gap = equal_time_sum_gap(["p1_1^2/2", "p2_1^2/2"],
                                 "p1_1^2/2 + p2_1^2/2", pt)
        assert gap < 1e-12
        gap2 = equal_time_sum_gap(["p1_1^2/2", "p2_1^2/2"],
                                  "p1_1^2/2 + p2_1^2/2 + x1_1", pt)
        assert gap2 == pytest.approx(0.1, abs=1e-12)
        with pytest.raises(ValueError):
            equal_time_sum_gap(["p1_1^2/2", "p2_1^2/2"], "p1_1^2/2",
                               PhasePoint(times=[0.0, 1.0],
                                          x=[[0.0], [0.0]], p=[[0.0], [0.0]]))


class TestConsistencyDefect:
    def test_free_pair_consistent(self):
        pt = PhasePoint(times=[0.2, -0.1], x=[[0.3], [-0.6]], p=[[0.4], [0.1]])
        rep = hj_consistency_defect(["p1_1^2/2", "p2_1^2/2"], pt)
        assert rep.max_defect == 0.0 and rep.h is None
        rep = hj_consistency_defect(["p1_1^2/2", "p2_1^2/2"], pt, h=1e-3)
        assert rep.max_defect < 1e-12 and rep.h == 1e-3

    def test_one_sided_potential_oracle(self):
        # V = g (x1 - x2)^2 only in H_1 gives
        # P_12 = -{H_1, H_2} = 2 g (x1 - x2) p2
        g = 0.35
        h1 = f"p1_1^2/2 + {g}*(x1_1 - x2_1)^2"
        h2 = "p2_1^2/2"
        rng = np.random.default_rng(9)
        for _ in range(5):
            x1, x2, p1, p2 = rng.uniform(-1, 1, 4)
            pt = PhasePoint(times=[0.1, 0.4], x=[[x1], [x2]], p=[[p1], [p2]])
            rep = hj_consistency_defect([h1, h2], pt)
            want = abs(2 * g * (x1 - x2) * p2)
            assert rep.pairs["1,2"] == pytest.approx(want, rel=1e-15)


@st.composite
def hj_grid_cases(draw):
    """n = 2 or 3 partial Hamiltonians in d = 1 or 2 dimensions, one to four
    phase points as the rows of a samples array, one coordinate of which
    may be 1e13 (where h = 1e-4 rounds away), and a step (None: exact)."""
    n, d = draw(st.sampled_from([2, 3])), draw(st.sampled_from([1, 2]))
    names = binding_names("t", n) + binding_names("x", n, d) + binding_names("p", n, d)
    trees = st.recursive(
        st.one_of(st.builds(Num, st.sampled_from([0.5, 2.0, -3.0])),
                  st.builds(Var, st.sampled_from(names))),
        lambda sub: st.one_of(st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
                              # log now and then, for a DomainError of some point
                              st.builds(Call, st.sampled_from(["sin", "cos", "tanh"] * 3
                                                              + ["log"]), sub)),
        max_leaves=4)
    h_exprs = [draw(trees) for _ in range(n)]
    rows = draw(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=len(names),
                                  max_size=len(names)), min_size=1, max_size=4))
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, len(names) - 1))] = 1e13
    return h_exprs, n, d, np.array(rows), draw(st.sampled_from([1e-4, 0.05, None]))


def hj_defect_outcome(run):
    """The pairs of every report and their bits and step, or the error's
    class and message."""
    try:
        reports = run()
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)
    return [(list(r.pairs), bits(r.pairs.values()), r.h) for r in reports]


class TestDefectGrid:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(hj_grid_cases())
    def test_matches_the_point_by_point_defect(self, case):
        # the same bits as the one-point calls before the grid, and the
        # error they raise first: a DomainError of an earlier point, then
        # the step that rounds away
        h_exprs, n, d, samples, h = case
        points = phase_points(samples, n, d)
        keys = [f"{j},{k}" for j in range(1, n + 1) for k in range(j + 1, n + 1)]
        want = hj_defect_outcome(lambda: [hj_defect_oracle(h_exprs, pt, h) for pt in points])
        try:
            got = [(keys, bits(row), h)
                   for row in hj_defect_grid(h_exprs, n, d, samples, h).tolist()]
        except Exception as exc:  # the class and message are compared
            got = type(exc), str(exc)
        assert got == want
        for pt in points:  # and each point's report
            assert hj_defect_outcome(lambda: [hj_consistency_defect(h_exprs, pt, h)]) == \
                hj_defect_outcome(lambda: [hj_defect_oracle(h_exprs, pt, h)])

    def test_error_order(self):
        h_exprs = ["log(x1_1) + p1_1^2/2", "p2_1^2/2"]
        good, bad, far = ([0.0, 0.0, x1, x2, 0.1, 0.2] for x1, x2 in
                          ((1.0, 1.0), (-1.0, 1.0), (1.0, 1e13)))
        with pytest.raises(DomainError, match="log of non-positive value -1.0"):
            hj_defect_grid(h_exprs, 2, 1, np.array([good, bad, far]), 1e-4)
        with pytest.raises(FloatingPointError, match="rounds away at x2_1 = 10000000000000.0"):
            hj_defect_grid(h_exprs, 2, 1, np.array([good, far, bad]), 1e-4)
        with pytest.raises(ValueError, match=r"^h: expected a number > 0, got 0\.0$"):
            hj_defect_grid(h_exprs, 2, 1, np.empty((0, 6)), 0.0)
        assert hj_defect_grid(h_exprs, 2, 1, np.empty((0, 6))).shape == (0, 1)
        with pytest.raises(ValueError, match=r"^samples: expected shape \(m, 6\), got \(1, 9\)"):
            hj_defect_grid(h_exprs, 2, 1, np.zeros((1, 9)))


class TestVelocityDefect:
    def test_free_s_defect_tiny(self):
        s = free_hj()
        assert hj_velocity_consistency_defect(s, [0.2, -0.3], [[-0.7], [0.9]]) == 0.0
        assert hj_velocity_consistency_defect(
            s, [0.2, -0.3], [[-0.7], [0.9]], h=1e-3) < 1e-9

    def test_a_nan_component_is_the_maximum(self):
        # v_1 = 2e300 x1 is inf at x1 = 1e10, and grad_{x_1} of grad_{x_2} S =
        # 0*t1 is 0: the first component is inf * 0
        s = HJFunction("1e300*x1_1^2 + 0*t1*x2_1", 2, 1, [1.0, 1.0])
        got = hj._velocity_defects(s.expr, 2, 1, s.masses, None)([0.0, 0.0], [1e10, -1e10])
        assert math.isnan(got[0]) and got[1] == 0.0
        assert math.isnan(hj_velocity_consistency_defect(s, [0.0, 0.0], [[1e10], [-1e10]]))
        assert hj_velocity_consistency_defect(s, [0.0, 0.0], [[1.0], [-1.0]]) == 0.0
        one = HJFunction("x1_1^2", 1, 1, [1.0])
        assert hj_velocity_consistency_defect(one, [0.0], [[1.0]]) == 0.0  # no pair

    def test_coupled_s_analytic_oracle(self):
        # for S = free + g (x1-x2)^2 (t1+t2) the two off-diagonal
        # components are -+2g(x1-x2) - 2g(t1+t2) v_j with
        # v1 = k1 + 2g(x1-x2)(t1+t2), v2 = k2 - 2g(x1-x2)(t1+t2)
        s = coupled_hj()
        t1, t2, x1, x2 = 0.4, 0.1, -0.7, 0.9
        v1 = K1 + 2 * G * (x1 - x2) * (t1 + t2)
        v2 = K2 - 2 * G * (x1 - x2) * (t1 + t2)
        cand = [
            abs(-2 * G * (x1 - x2) - 2 * G * (t1 + t2) * v1),
            abs(2 * G * (x1 - x2) - 2 * G * (t1 + t2) * v2),
        ]
        got = hj_velocity_consistency_defect(s, [t1, t2], [[x1], [x2]])
        assert got == pytest.approx(max(cand), rel=1e-15)
        got = hj_velocity_consistency_defect(s, [t1, t2], [[x1], [x2]], h=1e-3)
        assert got == pytest.approx(max(cand), abs=1e-8)


class TestRefusedShapesAndCounts:
    """A time tuple or positions not shaped (n,) and (n, d), or another count
    of Hamiltonians than n, is refused with what was expected and what came:
    they used to fail in unpacking or past the end of a tuple, or to give a
    wrong result (3 Hamiltonians for n = 2 read the 1,2 pair alone)."""

    RUNS = {"residual": lambda s, hams, times, x: hj_residual_multi(s, hams, times, x),
            "velocity": lambda s, hams, times, x: hj_velocity_consistency_defect(s, times, x)}

    @pytest.mark.parametrize("times,x,message", [
        ([0.0, 0.0, 0.0], [[-1.0], [1.0]], "times: expected shape (2,), got (3,)"),
        ([0.0], [[-1.0], [1.0]], "times: expected shape (2,), got (1,)"),
        ([[0.0, 0.0]], [[-1.0], [1.0]], "times: expected shape (2,), got (1, 2)"),
        ([0.0, 0.0], [[-1.0], [1.0], [2.0]], "x: expected shape (2, 1), got (3, 1)"),
        ([0.0, 0.0], [[-1.0, 0.0], [1.0, 0.0]], "x: expected shape (2, 1), got (2, 2)"),
        ([0.0, 0.0], [-1.0, 1.0], "x: expected shape (2, 1), got (2,)"),
    ])
    @pytest.mark.parametrize("run", sorted(RUNS))
    def test_point_of_another_shape(self, run, times, x, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.RUNS[run](free_hj(), ["p1_1^2/2", "p2_1^2/2"], times, x)

    POINT = PhasePoint(times=[0.0, 0.0], x=[[-1.0], [1.0]], p=[[0.1], [0.2]])
    COUNTS = {
        "residual": lambda hams: hj_residual_multi(free_hj(), hams, [0.0, 0.0], [[-1.0], [1.0]]),
        "defect": lambda hams: hj_consistency_defect(hams, TestRefusedShapesAndCounts.POINT),
        "defect-grid": lambda hams: hj_defect_grid(hams, 2, 1, np.zeros((1, 6))),
        "sum-gap": lambda hams: equal_time_sum_gap(hams, "p1_1^2/2 + p2_1^2/2",
                                                   TestRefusedShapesAndCounts.POINT)}

    @pytest.mark.parametrize("count", [0, 1, 3])
    @pytest.mark.parametrize("run", sorted(COUNTS))
    def test_hamiltonians_of_another_count(self, run, count):
        h_exprs = ["p1_1^2/2", "p2_1^2/2", "p3_1^2/2"][:count]
        with pytest.raises(ValueError, match=f"^need 2 partial Hamiltonian functions, "
                                             f"got {count}$"):
            self.COUNTS[run](h_exprs)

    def test_sum_gap_of_a_particle_without_a_hamiltonian(self):
        # it read 0.0: the third particle's H_3 was never summed
        point = PhasePoint(times=[0.0] * 3, x=[[0.0]] * 3, p=[[0.1], [0.2], [0.3]])
        with pytest.raises(ValueError, match="^need 3 partial Hamiltonian functions, got 2$"):
            equal_time_sum_gap(["p1_1^2/2", "p2_1^2/2"], "p1_1^2/2 + p2_1^2/2", point)


class TestMasses:
    @pytest.mark.parametrize("mass", [0.0, -0.0, -1.0, math.inf, math.nan])
    def test_mass_not_positive_and_finite_rejected(self, mass):
        # the CLI refuses these too; the velocity law divides by the mass
        kind = "a number > 0" if math.isfinite(mass) else "a finite number"
        message = f"masses[1]: expected {kind}, got {mass}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            HJFunction("x1_1 + x2_1", 2, 1, [1.0, mass])


class TestFoliations:
    def test_superluminal_tilt_rejected(self):
        with pytest.raises(ValueError):
            Foliation([1.0])
        assert Foliation([0.3]).label() == "u=0.3"

    @pytest.mark.parametrize("u", [[math.nan], [0.3, math.nan]])
    def test_tilt_with_a_nan_norm_rejected(self, u):
        # a NaN norm failed the test norm >= 1 and was accepted
        with pytest.raises(ValueError, match="nan is not a number: leaves not spacelike"):
            Foliation(u)
        with pytest.raises(ValueError, match=re.escape("|u| = 1.0 >= 1: leaves not spacelike")):
            Foliation([1.0])  # the message the CLI shows is unchanged

    def test_tilt_whose_square_overflows_rejected(self):
        # |u|^2 overflows, |u| does not: no numpy warning (the suite makes one
        # an error), and the message names |u|
        with pytest.raises(ValueError,
                           match=re.escape("|u| = 1e+200 >= 1: leaves not spacelike")):
            Foliation([1e200])

    def test_free_trajectories_straight(self):
        s = free_hj()
        path = hj_trajectories_foliation(s, Foliation([0.3]),
                                         [[-1.0], [1.0]], (-1.0, 1.0), 0.01)
        # anchored at lab-frame t = 0 and moving at the constant HJ velocity
        assert path.line(1).x_at(0.0)[0] == pytest.approx(-1.0, abs=1e-9)
        assert path.line(2).x_at(0.0)[0] == pytest.approx(1.0, abs=1e-9)
        assert path.line(1).x_at(0.5)[0] == pytest.approx(-1.0 + K1 * 0.5, abs=1e-8)
        assert path.line(2).x_at(-0.5)[0] == pytest.approx(1.0 - K2 * 0.5, abs=1e-8)

    def test_free_s_foliation_independent(self):
        s = free_hj()
        rep = foliation_compare(s, [Foliation([0.0]), Foliation([0.3]),
                                    Foliation([-0.5])],
                                [[-1.0], [1.0]], (-1.0, 1.0), 0.01)
        assert rep["foliation_independent"]
        assert max(max(row) for row in rep["distances"]) < 1e-6

    def test_coupled_s_foliation_dependent(self):
        s = coupled_hj()
        rep = foliation_compare(s, [Foliation([0.0]), Foliation([0.3])],
                                [[-1.0], [1.0]], (-1.0, 1.0), 0.01)
        assert not rep["foliation_independent"]
        assert rep["distances"][0][1] > 0.01

    def test_degenerate_foliation_detected(self):
        # v = 2 along u = 0.6 makes 1 - u.v < 0 on every leaf
        s = HJFunction("2*x1_1", 1, 1, [1.0])
        with pytest.raises(FoliationDegeneracyError):
            hj_trajectories_foliation(s, Foliation([0.6]),
                                      [[0.0]], (-0.5, 0.5), 0.01)

    def test_degenerate_foliation_message(self):
        # V_2 = 2 along u = 0.99 gives 1 - u.V_2 = -0.98 at the first step's
        # start; V_1 = 0.5 keeps particle 1 clear of it
        s = HJFunction("0.5*x1_1 + 2*x2_1", 2, 1, [1.0, 1.0])
        with pytest.raises(FoliationDegeneracyError,
                           match=r"^1 - u\.V_2 = -0\.98 <= 0 at leaf s = 0$"):
            hj_trajectories_foliation(s, Foliation([0.99]), [[0.0], [0.0]],
                                      (-0.1, 0.1), 0.01)
        # V = x: 1 - u.V = 0.05 at the start x = 1.9, and the second stage
        # moves x to 1.9 + 0.5 * 1.9 / 0.05 = 20.9, on the leaf s = 0.5
        loop = hj._leaf_loop(parse_expression("x1_1^2/2"), 1, 1, (1.0,), (0.5,))
        with pytest.raises(FoliationDegeneracyError,
                           match=r"^1 - u\.V_1 = -9\.45 <= 0 at leaf s = 0\.5$"):
            loop(pack([1.9]), [0.0, 1.0], [1.0])

    def test_anchoring_failure_is_a_foliation_error(self):
        # on a boosted foliation the leaf-0 positions differ from the t = 0
        # anchors, so one anchoring iteration cannot close the gap
        with pytest.raises(FoliationError, match="did not converge"):
            hj_trajectories_foliation(free_hj(), Foliation([0.3]),
                                      [[-1.0], [1.0]], (-1.0, 1.0), 0.01,
                                      max_anchor_iters=1)

    def test_light_particle_is_a_foliation_error(self):
        # particle 2 outruns the boosted leaves and never reaches t = 0
        s = HJFunction(FREE_S, 2, 1, [1.0, 1e-3], CONSTS)
        with pytest.raises(FoliationError, match="misses the anchor time t = 0"):
            hj_trajectories_foliation(s, Foliation([0.3]), [[-1.0], [1.0]],
                                      (-1.0, 1.0), 0.01)
        # its times round to the same value on every leaf
        s = HJFunction(FREE_S, 2, 1, [1.0, 1e-300], CONSTS)
        with pytest.raises(FoliationError, match="do not increase along the leaves"):
            hj_trajectories_foliation(s, Foliation([0.3]), [[-1.0], [1.0]],
                                      (-1.0, 1.0), 0.01)

    def test_families_without_a_common_time_window(self, monkeypatch):
        # one family's world lines end before the other's begin
        def family(s, fol, *args):
            t = np.linspace(-1.0, 0.0, 5) + (fol.u[0] > 0.0) * 2.0
            line = paths.WorldLine(t=t, x=np.zeros((5, 1)), p=np.zeros((5, 1)),
                                   dxdt=np.zeros((5, 1)), dpdt=np.zeros((5, 1)))
            return paths.NPath([line, line])

        monkeypatch.setattr(hj, "hj_trajectories_foliation", family)
        with pytest.raises(FoliationError, match="^no common time window for particle 1$"):
            foliation_compare(free_hj(), [Foliation([0.0]), Foliation([0.3])],
                              [[-1.0], [1.0]], (-1.0, 1.0), 0.01)

    def test_leaf_count_bounded_before_the_run(self):
        fol = Foliation([0.3])
        # the range covers the anchors at t = 0: |u.x| * 1.5 + ds
        assert foliation_leaves(fol, [[-1.0], [4.0]], (-1.0, 1.0), 0.5) == (
            -2.3, 2.3, 2.3 / 0.5 + 2.3 / 0.5)
        assert foliation_leaves(Foliation([0.0]), [[1e300]], (-1.0, 1.0), 0.01)[:2] == (
            -1.0, 1.0)
        for init, span, ds in [([[0.0]], (-1.0, 1.0), 1e-300),
                               ([[0.0]], (-1e300, 1.0), 0.01),
                               ([[1e300]], (-1.0, 1.0), 0.01)]:
            assert foliation_leaves(fol, init, span, ds)[2] > MAX_STEPS
            with pytest.raises(ValueError, match="at most"):
                hj_trajectories_foliation(HJFunction("x1_1", 1, 1, [1.0]), fol,
                                          init, span, ds)

    def test_exact_gradients(self):
        s = coupled_hj()
        times, x = [0.2, -0.1], [[-0.7], [0.9]]
        got = s.gradients()(times, [-0.7, 0.9])
        # d/dx1 of the coupling 0.05 (x1 - x2)^2 (t1 + t2) is 0.1 (x1 - x2)(t1 + t2)
        assert got == pytest.approx((K1 + 2 * G * (-1.6) * 0.1,
                                     K2 - 2 * G * (-1.6) * 0.1), abs=1e-15)
        stepped = s.gradients(1e-3)(times, [-0.7, 0.9])
        for j in (1, 2):
            assert s.grad_x(j, times, x)[0] == pytest.approx(got[j - 1], abs=1e-9)
            # at a given step, the numdiff cross-check bit for bit
            assert s.grad_x(j, times, x, h=1e-3)[0] == stepped[j - 1]
        assert s.gradients() is s.gradients(None)  # compiled once

    def test_grad_x_refuses_a_step_that_rounds_away(self):
        # x + 1 rounds back to x = 2**53, so the central difference of x
        # there would read 0.5
        s = HJFunction("x1_1 + x2_1", 2, 1, [1.0, 1.0])
        far = [[2.0 ** 53], [0.0]]
        for method in (s.grad_x, s.velocity):
            with pytest.raises(FloatingPointError,
                               match="h = 1.0 rounds away at x1_1 = 9007199254740992.0"):
                method(1, [0.0, 0.0], far, h=1.0)
        # the default step is relative to x
        assert s.grad_x(1, [0.0, 0.0], far)[0] == pytest.approx(1.0, rel=1e-12)

    def test_compare_needs_two(self):
        with pytest.raises(ValueError):
            foliation_compare(free_hj(), [Foliation([0.0])],
                              [[-1.0], [1.0]], (-1.0, 1.0), 0.01)


# ---------------------------------------------------------------- oracle
# The per-call algorithm that the compiled conditions replace: every
# derivative a ``numdiff`` central difference on a bindings dict, the second
# ones of the velocity defect central differences of the first ones.  At a
# given step the compiled conditions must give its values bit for bit.


def oracle_bracket(f, g, n, d, b, h):
    total = 0.0
    for j in range(1, n + 1):
        for dd in range(1, d + 1):
            xv, pv = f"x{j}_{dd}", f"p{j}_{dd}"
            total += partial_derivative(f, xv, b, h=h) * partial_derivative(g, pv, b, h=h)
            total -= partial_derivative(f, pv, b, h=h) * partial_derivative(g, xv, b, h=h)
    return total


def oracle_residuals(s_expr, h_exprs, times, x, n, d, constants, h, time_var=None):
    if time_var is None:
        b = variable_bindings(times, x, constants=constants)
        time_vars = binding_names("t", n)
    else:
        b = variable_bindings(x=x, constants={**constants, time_var: times[0]})
        time_vars = [time_var]
    grad = [[partial_derivative(s_expr, f"x{j}_{dd}", b, h=h) for dd in range(1, d + 1)]
            for j in range(1, n + 1)]
    hb = variable_bindings(p=grad, constants=b)
    return [abs(partial_derivative(s_expr, t, b, h=h) + evaluate(he, hb))
            for t, he in zip(time_vars, h_exprs)]


def oracle_poisson_defects(h_exprs, point, constants, h):
    n, d = point.n, point.d
    b = variable_bindings(point.times, point.x, point.p, constants)
    return {f"{j},{k}": abs(partial_derivative(h_exprs[k - 1], f"t{j}", b, h=h)
                            - partial_derivative(h_exprs[j - 1], f"t{k}", b, h=h)
                            - oracle_bracket(h_exprs[j - 1], h_exprs[k - 1], n, d, b, h))
            for j in range(1, n + 1) for k in range(j + 1, n + 1)}


def oracle_velocity_defect(s_expr, masses, constants, times, x, h):
    """The defect components for each j and x_k, k != j."""
    b = variable_bindings(times, x, constants=constants)
    (n, d), components = np.shape(x), []
    for j in range(1, n + 1):
        vel = [partial_derivative(s_expr, f"x{j}_{dd}", b, h=h) / masses[j - 1]
               for dd in range(1, d + 1)]
        for k in range(1, n + 1):
            for e in range(1, d + 1):
                if k == j:
                    continue

                def inner(bb, xk=f"x{k}_{e}"):
                    return partial_derivative(s_expr, xk, bb, h=h)

                val = diff_callable(inner, f"t{j}", b, h=h)
                for dd in range(1, d + 1):
                    val += vel[dd - 1] * diff_callable(inner, f"x{j}_{dd}", b, h=h)
                components.append(val)
    return components


def oracle_sum_gap(h_exprs, h_total, point, constants=None, time_var="t"):
    """|sum_j H_j - H| on a bindings dict, each H evaluated on its own."""
    b = variable_bindings(point.times, point.x, point.p, constants)
    b[time_var] = float(point.times[0])
    total = sum(evaluate(hj._as_expr(e), b) for e in h_exprs)
    return abs(total - evaluate(hj._as_expr(h_total), b))


TERMS = ["{c}*{a}*{b}", "{c}*sin({a} + {b})", "{c}*{a}^2*{b}", "{c}*exp({a}*{b}/4)",
         "{c}*{a}/(2 + {b}^2)", "{c}*cos({a})*{b}^3"]


def random_expression(rng, names, terms=5):
    """A sum of random smooth terms, each in two of ``names``, and of one
    term in all of them, so that no derivative of any order is 0."""
    linear = " + ".join(f"{round(rng.uniform(-1, 1), 3)}*{v}" for v in names)
    parts = [f"{round(rng.uniform(0.5, 1), 3)}*sin({linear})"]
    for _ in range(terms):
        a, b = rng.choice(names, 2)
        parts.append(str(rng.choice(TERMS)).format(c=round(rng.uniform(-1, 1), 3),
                                                   a=a, b=b))
    return parse_expression(" + ".join(parts))


def bits(values):
    return [struct.pack("<d", v) for v in values]


class TestAgainstPerCallOracle:
    CONSTS = {"k1": 0.3, "k2": -0.7}

    @pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (3, 1), (3, 2)])
    @pytest.mark.parametrize("h", [1e-4, 1e-3])
    def test_bit_for_bit_at_a_given_step(self, n, d, h):
        rng = np.random.default_rng(100 * n + 10 * d + int(h * 1e4))
        ts, xs, ps = (list(binding_names(v, n, *([d] if v != "t" else [])))
                      for v in ("t", "x", "p"))
        consts = list(self.CONSTS)
        for _ in range(3):
            s_expr = random_expression(rng, ts + xs + consts)
            h_exprs = [random_expression(rng, ts + xs + ps + consts) for _ in range(n)]
            s = HJFunction(s_expr, n, d, rng.uniform(0.5, 2.0, n), self.CONSTS)
            for _ in range(5):
                times = rng.uniform(-1, 1, n).tolist()
                x, p = rng.uniform(-1, 1, (2, n, d))
                point = PhasePoint(times=times, x=x, p=p)
                b = variable_bindings(times, x, p, self.CONSTS)
                # the library takes the constants as numbers in the trees
                bound = with_constants(h_exprs, self.CONSTS)

                assert bits([poisson_bracket(h_exprs[0], h_exprs[1], n, d, b, h=h)]) == bits(
                    [oracle_bracket(h_exprs[0], h_exprs[1], n, d, b, h)])
                assert bits(hj_residual_multi(s, bound, times, x, h=h)) == bits(
                    oracle_residuals(s_expr, h_exprs, times, x, n, d, self.CONSTS, h))
                # the single-time form in t1, the other times as constants
                others = {**self.CONSTS, **dict(zip(ts[1:], times[1:]))}
                single = hj_residual_single(s_expr, h_exprs[0], times[0], x, n, d,
                                            constants=others, h=h, time_var="t1")
                assert bits([single]) == bits(oracle_residuals(
                    s_expr, h_exprs[:1], times[:1], x, n, d, others, h, "t1"))
                rep = hj_consistency_defect(bound, point, h=h)
                want = oracle_poisson_defects(h_exprs, point, self.CONSTS, h)
                assert rep.pairs.keys() == want.keys()
                assert bits(rep.pairs.values()) == bits(want.values())
                # every component, and their sup
                want = oracle_velocity_defect(s_expr, s.masses, self.CONSTS, times, x, h)
                got = hj._velocity_defects(s.expr, n, d, s.masses, h)(times,
                                                                      x.ravel().tolist())
                assert bits(got) == bits(want)
                assert bits([hj_velocity_consistency_defect(s, times, x, h=h)]) == bits(
                    [max(map(abs, want))])

    def test_exact_conditions_near_the_oracle(self):
        # without a step the derivatives are exact; the per-call algorithm
        # at a small step is within its truncation and rounding error
        rng = np.random.default_rng(3)
        n, d, h = 2, 2, 1e-4
        ts, xs, ps = (list(binding_names(v, n, *([d] if v != "t" else [])))
                      for v in ("t", "x", "p"))
        s_expr = random_expression(rng, ts + xs)
        h_exprs = [random_expression(rng, ts + xs + ps) for _ in range(n)]
        s = HJFunction(s_expr, n, d, [1.0, 1.5])
        times = [0.3, -0.2]
        x, p = rng.uniform(-1, 1, (2, n, d))
        point = PhasePoint(times=times, x=x, p=p)
        assert hj_residual_multi(s, h_exprs, times, x) == pytest.approx(
            oracle_residuals(s_expr, h_exprs, times, x, n, d, {}, h), abs=1e-6)
        assert hj_consistency_defect(h_exprs, point).pairs["1,2"] == pytest.approx(
            oracle_poisson_defects(h_exprs, point, {}, h)["1,2"], abs=1e-6)
        assert hj_velocity_consistency_defect(s, times, x) == pytest.approx(
            max(map(abs, oracle_velocity_defect(s_expr, s.masses, {}, times, x, h))),
            abs=1e-5)

    def test_compiled_once_per_system_and_step(self):
        s = coupled_hj()
        h_list = ["p1_1^2/2", "p2_1^2/2"]
        for h in (None, 1e-3):
            hj_residual_multi(s, h_list, [0.1, 0.2], [[0.3], [0.4]], h=h)
            info = hj._residuals.cache_info()
            hj_residual_multi(s, h_list, [0.5, 0.6], [[0.7], [0.8]], h=h)
            assert hj._residuals.cache_info().misses == info.misses
        # constants equal as floats but not in their bits are other systems
        signs = [HJFunction("x1_1*sqrt(k)", 1, 1, [1.0], {"k": k}).gradients()([0.0], [1.0])
                 for k in (0.0, -0.0)]
        assert [math.copysign(1.0, g) for (g,) in signs] == [1.0, -1.0]
        # a constant is a number: a product with 0 folds like the literal's
        zeros = [HJFunction("k*x1_1", 1, 1, [1.0], {"k": k}).gradients()([0.0], [1.0])
                 for k in (0.0, -0.0)]
        assert [math.copysign(1.0, g) for (g,) in zeros] == [1.0, 1.0]

    @pytest.mark.parametrize("n,d,time_var", [(2, 1, "t"), (2, 2, "t"), (3, 1, "t"),
                                              (3, 2, "t2")])
    def test_sum_gap_bit_for_bit(self, n, d, time_var):
        rng = np.random.default_rng(10 * n + d)
        ts, xs, ps = (list(binding_names(v, n, *([d] if v != "t" else [])))
                      for v in ("t", "x", "p"))
        names = list(dict.fromkeys([time_var] + ts + xs + ps + list(self.CONSTS)))
        for _ in range(3):
            h_exprs = [random_expression(rng, names) for _ in range(n)]
            h_total = random_expression(rng, names)
            for _ in range(5):
                point = PhasePoint(times=[rng.uniform(-1, 1)] * n,
                                   x=rng.uniform(-1, 1, (n, d)),
                                   p=rng.uniform(-1, 1, (n, d)))
                *bound, total = with_constants([*h_exprs, h_total], self.CONSTS)
                got = equal_time_sum_gap(bound, total, point, time_var)
                want = oracle_sum_gap(h_exprs, h_total, point, self.CONSTS, time_var)
                assert bits([got]) == bits([want])

    @pytest.mark.parametrize("h_exprs,h_total,error", [
        (["p1_1^2/2", "q*p2_1"], "p1_1", UnboundVariableError),
        (["p1_1^2/2", "p2_1^2/2"], "p1_1 + q", UnboundVariableError),
        (["p1_1^2/2", "log(x1_1)"], "p1_1", DomainError),
        (["p1_1^2/2", "p2_1"], "p1_1 / (x1_1 + 0.5)", DomainError),
    ])
    def test_sum_gap_errors(self, h_exprs, h_total, error):
        # the same first error, class and message, as the bindings dict gives
        point = PhasePoint(times=[0.2, 0.2], x=[[-0.5], [1.0]], p=[[0.3], [0.4]])
        with pytest.raises(error) as want:
            oracle_sum_gap(h_exprs, h_total, point)
        with pytest.raises(error) as got:
            equal_time_sum_gap(h_exprs, h_total, point)
        assert str(got.value) == str(want.value)

    def test_step_that_rounds_away_is_refused(self):
        s = free_hj()
        far = [[1e20], [0.0]]
        with pytest.raises(FloatingPointError, match="rounds away at x1_1 = 1e\\+20"):
            hj_residual_multi(s, ["p1_1^2/2", "p2_1^2/2"], [0.0, 0.0], far, h=1e-4)
        with pytest.raises(FloatingPointError, match="x1_1 = 1e\\+20"):
            hj_velocity_consistency_defect(s, [0.0, 0.0], far, h=1e-4)
        with pytest.raises(FloatingPointError, match="p2_1 = 1e\\+20"):
            hj_consistency_defect(["p1_1^2/2", "p2_1^2/2"],
                                  PhasePoint([0.0, 0.0], [[0.0], [0.0]], [[0.0], [1e20]]),
                                  h=1e-4)
        # exact derivatives need no step
        assert hj_residual_multi(s, ["p1_1^2/2", "p2_1^2/2"], [0.0, 0.0], far) == [0.0, 0.0]


# ------------------------------------------------------- foliation sweep
# The sweep as the closures that the generated loop replaces computed it:
# the velocities from the compiled gradients at the leaf times, then
# dx/ds = V_j / (1 - u.V_j), stepped by the vector RK4 formula.


def numpy_rk4_step(f, t, y, h):
    k1 = f(t, y)
    k2 = f(t + h / 2, y + h / 2 * k1)
    k3 = f(t + h / 2, y + h / 2 * k2)
    k4 = f(t + h, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def reference_sweep(s, u, x_leaf, s_vals):
    n, d = s.n, s.d
    grad = s.gradients()
    masses = [m for m in s.masses for _ in range(d)]
    starts = range(0, n * d, d)

    def velocities(s_par, y):
        times = [s_par + sum(map(operator.mul, u, y[i:i + d])) for i in starts]
        return [g / m for g, m in zip(grad(times, y), masses)]

    def rate(s_par, vs):
        dx = []
        for j, i in enumerate(starts, start=1):
            gamma = 1.0 - sum(map(operator.mul, u, vs[i:i + d]))
            if gamma <= 0.0:
                raise FoliationDegeneracyError(
                    f"1 - u.V_{j} = {gamma:.3g} <= 0 at leaf s = {s_par:.6g}")
            dx += [v / gamma for v in vs[i:i + d]]
        return np.array(dx)

    ys, vs = [list(x_leaf)], [velocities(s_vals[0], list(x_leaf))]
    for a, b in zip(s_vals, s_vals[1:]):
        y = numpy_rk4_step(lambda sp, yy: rate(sp, velocities(sp, yy.tolist())),
                           a, np.array(ys[-1]), b - a)
        ys.append(y.tolist())
        vs.append(velocities(b, ys[-1]))
    return ys, vs


@pytest.mark.parametrize("n,d", [(1, 1), (2, 1), (2, 2), (3, 1)])
def test_leaf_loop_matches_reference_sweep(n, d):
    rng = np.random.default_rng(10 * n + d)
    ts, xs = list(binding_names("t", n)), list(binding_names("x", n, d))
    consts = {"k1": 0.3, "k2": -0.7}
    failures = 0
    for _ in range(6):
        s = HJFunction(random_expression(rng, ts + xs + list(consts)), n, d,
                       rng.uniform(0.5, 2.0, n), consts)
        u = tuple(rng.uniform(-0.9, 0.9, d) / d)
        x_leaf = rng.uniform(-1, 1, n * d).tolist()
        s_vals = np.linspace(0.0, rng.choice([-0.3, 0.3]), 4).tolist()
        loop = hj._leaf_loop(s.expr, n, d, s.masses, u)
        try:
            want = reference_sweep(s, u, x_leaf, s_vals)
        except FoliationDegeneracyError as exc:
            failures += 1
            with pytest.raises(FoliationDegeneracyError, match=re.escape(str(exc))):
                loop(pack(x_leaf), s_vals, [b - a for a, b in zip(s_vals, s_vals[1:])])
            continue
        got = unpack_rows(loop(pack(x_leaf), s_vals,
                               [b - a for a, b in zip(s_vals, s_vals[1:])]), n * d)
        for got_rows, want_rows in zip(got, want):
            assert [bits(row) for row in got_rows] == [bits(row) for row in want_rows]
    assert failures < 6


# ------------------------------------------------------ anchoring oracle
# The anchoring the long way: one full NPath per iteration, its lines read
# at t = 0 by the oracle's own Hermite pieces, then the same quasi-Newton
# step and halving (``oracles.anchoring_oracle``).  The run reads x_j(0)
# from the sweep's records and builds the n-path once; it must give the
# same n-path bit for bit, or the same error.

ANCHOR_SYSTEMS = [
    # n, d, S
    (1, 1, "k1*x1_1 - (k1^2/2)*t1"),
    (2, 1, FREE_S),
    (2, 1, COUPLED_S),
    (2, 1, FREE_S + " + g*sin(x1_1 + t2)*x2_1"),
    (2, 2, "k1*(x1_1 + x1_2) + k2*x2_1 - k1*k1*t1 - (k2^2/2)*t2"
           " + g*(x1_1 - x2_2)^2*(t1 - t2)"),
]


def anchor_outcome(run):
    """The world lines' sample arrays as bytes, or the error's class and
    message."""
    try:
        npath = run()
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)
    return [[getattr(line, a).tobytes() for a in ("t", "x", "p", "dxdt", "dpdt")]
            for line in npath.lines]


@st.composite
def anchor_cases(draw):
    n, d, s_text = draw(st.sampled_from(ANCHOR_SYSTEMS))
    floats = functools.partial(st.floats, allow_nan=False)
    consts = {"k1": draw(floats(-0.6, 0.6)), "k2": draw(floats(-0.6, 0.6)),
              "g": draw(floats(-0.1, 0.1))}
    masses = draw(st.lists(floats(0.3, 3.0), min_size=n, max_size=n))
    s = HJFunction(s_text, n, d, masses,
                   {k: v for k, v in consts.items() if k in s_text})
    u = draw(st.lists(floats(-0.8, 0.8), min_size=d, max_size=d))
    fol = Foliation(u if np.linalg.norm(u) < 1.0 else [0.0] * d)
    init = np.reshape(draw(st.lists(floats(-1.5, 1.5), min_size=n * d,
                                    max_size=n * d)), (n, d))
    span = (draw(floats(-1.0, 0.0)), draw(floats(0.05, 1.0)))
    ds = draw(floats(0.02, 0.25))
    tol = draw(st.sampled_from([1e-10, 1e-6, 0.0]))
    iters = draw(st.integers(1, 50))
    return s, fol, init, span, ds, tol, iters


class TestAnchoringAgainstOracle:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(case=anchor_cases())
    def test_matches_per_iteration_npaths(self, case):
        s, fol, init, span, ds, tol, iters = case
        want = anchor_outcome(lambda: anchoring_oracle(s, fol, init, span, ds,
                                                       tol, iters))
        got = anchor_outcome(lambda: hj_trajectories_foliation(s, fol, init, span, ds,
                                                               tol, iters))
        assert got == want

    @pytest.mark.parametrize("s,u,init,span,kwargs,error,match", [
        # a light particle outruns the leaves and never reaches t = 0
        (HJFunction(FREE_S, 2, 1, [1.0, 1e-3], CONSTS), [0.3], [[-1.0], [1.0]],
         (-1.0, 1.0), {}, FoliationError, "misses the anchor time t = 0"),
        # its times round to one value on every leaf
        (HJFunction(FREE_S, 2, 1, [1.0, 1e-300], CONSTS), [0.3], [[-1.0], [1.0]],
         (-1.0, 1.0), {}, FoliationError, "do not increase along the leaves"),
        (free_hj(), [0.3], [[-1.0], [1.0]], (-1.0, 1.0), {"max_anchor_iters": 1},
         FoliationError, "did not converge in 1 iterations"),
        (HJFunction("2*x1_1", 1, 1, [1.0]), [0.6], [[0.0]], (-0.5, 0.5), {},
         FoliationDegeneracyError, "1 - u.V_1 = -0.2 <= 0"),
    ])
    def test_refusals_match(self, s, u, init, span, kwargs, error, match):
        fol = Foliation(u)
        with pytest.raises(error, match=re.escape(match)) as want:
            anchoring_oracle(s, fol, init, span, 0.01, **kwargs)
        with pytest.raises(error) as got:
            hj_trajectories_foliation(s, fol, init, span, 0.01, **kwargs)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("name", ["hj_free_foliations", "hj_coupled_foliations"])
    def test_shipped_foliations_match(self, name):
        system, exp = EXAMPLE_CONFIGS[name]["system"], EXAMPLE_CONFIGS[name]["experiment"]
        s = HJFunction(system["S"], system["n"], system["d"], system["masses"],
                       system["constants"])
        args = exp["init_positions"], tuple(exp["s_span"]), exp["ds"]
        for fc in exp["foliations"]:
            fol = Foliation(fc["u"])
            want = anchor_outcome(lambda: anchoring_oracle(s, fol, *args))
            assert isinstance(want, list)
            assert anchor_outcome(lambda: hj_trajectories_foliation(s, fol, *args)) == want

    def test_failed_sweep_halves_the_step(self, monkeypatch):
        # the second sweep of the run, and of the oracle, raises after the
        # first step: the third sweeps from half that step
        calls, starts = [0], []
        real_loop = hj._leaf_loop

        def faulty_loop(*args):
            loop = real_loop(*args)

            def run(x, ts, hs):
                calls[0] += 1
                starts.append(np.frombuffer(x))
                if calls[0] == 3:  # the forward loop of the second sweep
                    raise FoliationDegeneracyError("a sweep failed")
                return loop(x, ts, hs)

            return run

        monkeypatch.setattr(hj, "_leaf_loop", faulty_loop)
        s, fol, init = coupled_hj(), Foliation([0.3]), [[-1.0], [1.0]]
        got = anchor_outcome(lambda: hj_trajectories_foliation(s, fol, init, (-1.0, 1.0),
                                                               0.01))
        assert isinstance(got, list)
        first, failed, halved = starts[0], starts[2], starts[3]
        assert np.all(failed != first)
        np.testing.assert_allclose(halved - first, (failed - first) / 2, rtol=1e-12)
        calls[0] = 0
        assert got == anchor_outcome(lambda: anchoring_oracle(s, fol, init, (-1.0, 1.0),
                                                              0.01))
        # a run that ends on it raises it, as does an error on the first sweep
        for start, iters in [(0, 2), (2, 50)]:
            calls[0] = start
            with pytest.raises(FoliationDegeneracyError, match="a sweep failed"):
                hj_trajectories_foliation(s, fol, init, (-1.0, 1.0), 0.01,
                                          max_anchor_iters=iters)

    @pytest.mark.parametrize("tol,most", [(1e-10, 40), (0.0, 60)])
    def test_halving_stops_once_the_step_cannot_move(self, monkeypatch, tol, most):
        # every sweep after the first fails: the step halves until it is at
        # most the tolerance (about 32 halvings of a step of order 1), or,
        # at tolerance 0, until x_leaf + step rounds to x_leaf (about 54),
        # and then raises, with most of the 1000 iterations left
        calls, real_loop = [0], hj._leaf_loop

        def faulty_loop(*args):
            loop = real_loop(*args)

            def run(x, ts, hs):
                calls[0] += 1
                if calls[0] > 2:
                    raise FoliationDegeneracyError("a sweep failed")
                return loop(x, ts, hs)

            return run

        monkeypatch.setattr(hj, "_leaf_loop", faulty_loop)
        with pytest.raises(FoliationDegeneracyError, match="a sweep failed"):
            hj_trajectories_foliation(coupled_hj(), Foliation([0.3]), [[-1.0], [1.0]],
                                      (-1.0, 1.0), 0.01, anchor_tol=tol,
                                      max_anchor_iters=1000)
        assert 20 < calls[0] - 2 <= most

    def test_anchors_past_a_degenerate_leaf_fail_fast(self, monkeypatch):
        # survey draw 283 (scripts/anchor_survey.py, seed 0), rounded: each
        # model step crosses the leaf where 1 - u.V_2 turns negative, and a
        # halved step only creeps toward it; the run raises when the step
        # after a halved one fails again, not after all 50 iterations
        s = HJFunction(COUPLED_S, 2, 1, [2.46, 0.778], {"k1": -0.343, "k2": 0.565})
        fol, init, args = Foliation([0.346]), [[-0.9], [1.41]], ((-0.88, 0.75), 0.0555)
        calls, real_loop = [0], hj._leaf_loop

        def counted_loop(*loop_args):
            loop = real_loop(*loop_args)
            return lambda x, ts, hs: calls.__setitem__(0, calls[0] + 1) or loop(x, ts, hs)

        monkeypatch.setattr(hj, "_leaf_loop", counted_loop)
        got = anchor_outcome(lambda: hj_trajectories_foliation(s, fol, init, *args))
        assert got[0] is FoliationDegeneracyError
        assert calls[0] <= 2 * 4  # the first sweep, a failure, a halved step, a failure
        assert got == anchor_outcome(lambda: anchoring_oracle(s, fol, init, *args))

    def test_anchors_where_the_plain_step_crawls(self, monkeypatch):
        # u.V = 0.8 * 1.2 = 0.96: the plain step x_leaf += gap shrinks the
        # gap by 0.96 a sweep and does not anchor in 50 sweeps; the
        # straight-line model J = 1 - u.V solves this free system at once
        s = HJFunction("k1*x1_1 - (k1^2/2)*t1", 1, 1, [0.5], {"k1": 0.6})
        fol, init, args = Foliation([0.8]), [[1.5]], ((-1.0, 0.05), 0.25)
        calls = []
        real_loop = hj._leaf_loop

        def counted_loop(*loop_args):
            loop = real_loop(*loop_args)
            return lambda x, ts, hs: calls.append(x) or loop(x, ts, hs)

        monkeypatch.setattr(hj, "_leaf_loop", counted_loop)
        path = hj_trajectories_foliation(s, fol, init, *args, 1e-10, 50)
        assert len(calls) <= 2 * 3  # at most 3 sweeps of two loop calls
        assert abs(path.line(1).x_at(0.0)[0] - 1.5) <= 1e-10
        assert anchor_outcome(lambda: path) == anchor_outcome(
            lambda: anchoring_oracle(s, fol, init, *args, 1e-10, 50))

    @pytest.mark.parametrize("kwargs,match", [
        ({"anchor_tol": math.nan}, "anchor_tol must be a number >= 0, got nan"),
        ({"anchor_tol": -1e-10}, "anchor_tol must be a number >= 0, got -1e-10"),
        ({"max_anchor_iters": 0}, "max_anchor_iters: expected >= 1, got 0"),
        ({"ds": math.nan}, "ds: expected a finite number, got nan"),
        ({"ds": math.inf}, "ds: expected a finite number, got inf"),
        ({"ds": 0.0}, "ds: expected a number > 0, got 0.0"),
        ({"ds": -0.01}, "ds: expected a number > 0, got -0.01"),
    ])
    def test_bad_anchoring_parameters_refused(self, monkeypatch, kwargs, match):
        monkeypatch.setattr(hj, "_leaf_sweep", None)  # refused before any sweep
        args = {"s_span": (-1.0, 1.0), "ds": 0.01, **kwargs}
        with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
            hj_trajectories_foliation(free_hj(), Foliation([0.3]), [[-1.0], [1.0]],
                                      **args)

    def test_broyden_update_skips_an_underflowing_step(self):
        # dx.dx of a step of 3.2e-173 underflows to 0 while dz does not: the
        # update would turn J NaN, and "invalid value" would warn
        dx = dz = np.array([-3.2e-173, 0.0])
        assert dx @ dx == 0.0 and np.any(dz)
        jac = np.array([[0.7, 0.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hj._broyden_update(jac, dx, dz)
        assert np.all(np.isfinite(got)) and got.tobytes() == jac.tobytes()
        # a step that does not underflow takes the update
        dx, dz = np.array([0.5, 0.25]), np.array([0.25, 0.5])
        want = jac + np.outer(dz - jac @ dx, dx) / (dx @ dx)
        assert hj._broyden_update(jac, dx, dz).tobytes() == want.tobytes()

    def test_zero_tolerance_met_only_by_an_exact_gap(self):
        # on the unboosted foliation the first sweep reads x_j(0) = x_leaf
        # exactly, so the gap is 0 and a tolerance of 0 is met
        path = hj_trajectories_foliation(free_hj(), Foliation([0.0]), [[-1.0], [1.0]],
                                         (-1.0, 1.0), 0.01, anchor_tol=0.0,
                                         max_anchor_iters=1)
        assert path.line(1).x_at(0.0)[0] == -1.0
        # boosted, the gap stops at rounding noise, where a step no longer
        # moves z: J keeps its rank and the run ends unconverged
        args = free_hj(), Foliation([0.3]), [[-1.0], [1.0]], (-1.0, 1.0), 0.1, 0.0, 20
        with pytest.raises(FoliationError, match="did not converge in 20 iterations"):
            hj_trajectories_foliation(*args)
        assert anchor_outcome(lambda: anchoring_oracle(*args)) == anchor_outcome(
            lambda: hj_trajectories_foliation(*args))

    def test_leaf_steps_per_pass(self, monkeypatch):
        # the hj-foliation workload's three sweeping configs, 200 leaves a
        # sweep: one sweep on each unboosted foliation, two on each boosted
        # free one and five on the boosted coupled one
        counts, real_loop = {}, hj._leaf_loop

        def counted_loop(*args):
            loop = real_loop(*args)

            def run(x, ts, hs):
                counts[name] = counts.get(name, 0) + len(hs)
                return loop(x, ts, hs)

            return run

        monkeypatch.setattr(hj, "_leaf_loop", counted_loop)
        for name in ("hj_free_foliations", "hj_coupled_foliations", "hj_free_trajectories"):
            run_config(copy.deepcopy(EXAMPLE_CONFIGS[name]), "foliation")
        assert counts == {"hj_free_foliations": 1000, "hj_coupled_foliations": 1200,
                          "hj_free_trajectories": 200}

    @pytest.mark.parametrize("s_span,message", [
        # min(nan, -pad) is nan, so s_lo < 0 failed and the run covered only
        # the forward leaves; a reversed span was "no leaf but s = 0"
        ((math.nan, 1.0), "s_span: expected a finite number, got nan"),
        ((1.0, -1.0), "s_span: expected a strictly increasing pair, got [1.0, -1.0]"),
    ])
    def test_nan_or_reversed_span_refused(self, monkeypatch, s_span, message):
        monkeypatch.setattr(hj, "_leaf_sweep", None)  # refused before any sweep
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hj_trajectories_foliation(free_hj(), Foliation([0.0]), [[0.0], [1.0]],
                                      s_span, 0.1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hj.foliation_leaves(Foliation([0.0]), [[0.0], [1.0]], s_span, 0.1)

    def test_span_without_leaves_refused(self):
        # s_span [0, 0] on an unboosted foliation: no step from s = 0
        with pytest.raises(ValueError, match=r"^s_span: expected a strictly increasing "
                                             r"pair, got \[0\.0, 0\.0\]$"):
            hj_trajectories_foliation(free_hj(), Foliation([0.0]), [[-1.0], [1.0]],
                                      (0.0, 0.0), 0.01)

    def test_one_world_line_per_particle_per_foliation(self, monkeypatch):
        built, sweeps = [], []
        real_loop = hj._leaf_loop

        def counted_line(*args, **kwargs):
            built.append(args)
            return paths.WorldLine(*args, **kwargs)

        def counted_loop(*args):
            loop = real_loop(*args)

            def run(*run_args):
                sweeps.append(run_args)
                return loop(*run_args)

            return run

        monkeypatch.setattr(hj, "WorldLine", counted_line)
        monkeypatch.setattr(hj, "_leaf_loop", counted_loop)
        fols = [Foliation([0.0]), Foliation([0.3]), Foliation([-0.5])]
        foliation_compare(coupled_hj(), fols, [[-1.0], [1.0]], (-1.0, 1.0), 0.01)
        # the boosted foliations anchor in several iterations of two sweeps
        assert len(sweeps) > 2 * len(fols) + 2
        assert len(built) == 2 * len(fols)


class TestPackedLeafTable:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(case=anchor_cases())
    def test_matches_the_fromiter_table(self, case):
        # a sweep reads its packed loop rows, both directions, with one
        # np.frombuffer; the same rows as tuples, read by np.fromiter as
        # before (oracles.leaf_table_oracle), give the same bits
        s, fol, init, span, ds, _, _ = case
        n, d, seen, real = s.n, s.d, [], hj._leaf_loop

        def capturing(*args):
            loop = real(*args)
            return lambda *call: seen.append(loop(*call)) or seen[-1]

        s_lo, s_hi, _ = hj.foliation_leaves(fol, init, span, ds)
        with mock.patch.object(hj, "_leaf_loop", capturing):
            sweep = hj._leaf_sweep(s, fol, s_lo, s_hi, ds)
        try:
            _, xs, vs = sweep(np.ravel(init).tobytes())
        except (ArithmeticError, FoliationError):
            assume(False)
        (xs_fw, vs_fw), (xs_bw, vs_bw) = (unpack_rows(rows, n * d) for rows in seen)
        leaves = len(xs_fw) + len(xs_bw) - 1
        assert xs.tobytes() == leaf_table_oracle(xs_bw, xs_fw, leaves, n, d).tobytes()
        assert vs.tobytes() == leaf_table_oracle(vs_bw, vs_fw, leaves, n, d).tobytes()
        assert xs.flags.writeable and vs.flags.writeable
