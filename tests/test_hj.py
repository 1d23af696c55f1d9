import numpy as np
import pytest

from multitime.classical import PhasePoint
from multitime.hj import (
    Foliation,
    FoliationDegeneracyError,
    FoliationError,
    HJFunction,
    equal_time_sum_gap,
    foliation_compare,
    hj_consistency_defect,
    hj_residual_multi,
    hj_residual_single,
    hj_trajectories_foliation,
    MAX_LEAVES,
    foliation_leaves,
    hj_velocity_consistency_defect,
    poisson_bracket,
)

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
        assert poisson_bracket("x1_1", "p1_1", 1, 1, b) == pytest.approx(1.0, abs=1e-9)
        assert poisson_bracket("p1_1", "x1_1", 1, 1, b) == pytest.approx(-1.0, abs=1e-9)
        assert poisson_bracket("x1_1", "x1_1", 1, 1, b) == pytest.approx(0.0, abs=1e-9)

    def test_shared_potential_oracle(self):
        # H_j = p_j^2/2 + (x1 - x2)^2/2: {H_1, H_2} = -(x1 - x2)(p1 + p2)
        h1 = "p1_1^2/2 + (x1_1 - x2_1)^2/2"
        h2 = "p2_1^2/2 + (x1_1 - x2_1)^2/2"
        rng = np.random.default_rng(5)
        for _ in range(5):
            x1, x2, p1, p2 = rng.uniform(-1, 1, 4)
            b = {"x1_1": x1, "x2_1": x2, "p1_1": p1, "p2_1": p2}
            want = -(x1 - x2) * (p1 + p2)
            assert poisson_bracket(h1, h2, 2, 1, b) == pytest.approx(want, abs=1e-7)


class TestResiduals:
    def test_free_multi_time_residual(self):
        s = free_hj()
        res = hj_residual_multi(s, ["p1_1^2/2", "p2_1^2/2"],
                                [0.2, -0.3], [[-0.7], [0.9]])
        assert max(res) < 1e-9

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
        assert rep.max_defect < 1e-9

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
            assert rep.pairs["1,2"] == pytest.approx(want, abs=1e-6)


class TestVelocityDefect:
    def test_free_s_defect_tiny(self):
        s = free_hj()
        assert hj_velocity_consistency_defect(
            s, [0.2, -0.3], [[-0.7], [0.9]]) < 1e-6

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
        assert got == pytest.approx(max(cand), abs=1e-5)


class TestFoliations:
    def test_superluminal_tilt_rejected(self):
        with pytest.raises(ValueError):
            Foliation([1.0])
        assert Foliation([0.3]).label() == "u=0.3"

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
        assert rep.foliation_independent
        assert max(max(row) for row in rep.distances) < 1e-6

    def test_coupled_s_foliation_dependent(self):
        s = coupled_hj()
        rep = foliation_compare(s, [Foliation([0.0]), Foliation([0.3])],
                                [[-1.0], [1.0]], (-1.0, 1.0), 0.01)
        assert not rep.foliation_independent
        assert rep.distances[0][1] > 0.01

    def test_degenerate_foliation_detected(self):
        # v = 2 along u = 0.6 makes 1 - u.v < 0 on every leaf
        s = HJFunction("2*x1_1", 1, 1, [1.0])
        with pytest.raises(FoliationDegeneracyError):
            hj_trajectories_foliation(s, Foliation([0.6]),
                                      [[0.0]], (-0.5, 0.5), 0.01)

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
            assert foliation_leaves(fol, init, span, ds)[2] > MAX_LEAVES
            with pytest.raises(ValueError, match="at most"):
                hj_trajectories_foliation(HJFunction("x1_1", 1, 1, [1.0]), fol,
                                          init, span, ds)

    def test_exact_gradients(self):
        s = coupled_hj()
        times, x = [0.2, -0.1], [[-0.7], [0.9]]
        got = s.gradients(times, [-0.7, 0.9])
        # d/dx1 of the coupling 0.05 (x1 - x2)^2 (t1 + t2) is 0.1 (x1 - x2)(t1 + t2)
        assert got == pytest.approx((K1 + 2 * G * (-1.6) * 0.1,
                                     K2 - 2 * G * (-1.6) * 0.1), abs=1e-15)
        for j in (1, 2):
            assert s.grad_x(j, times, x)[0] == pytest.approx(got[j - 1], abs=1e-9)

    def test_compare_needs_two(self):
        with pytest.raises(ValueError):
            foliation_compare(free_hj(), [Foliation([0.0])],
                              [[-1.0], [1.0]], (-1.0, 1.0), 0.01)
