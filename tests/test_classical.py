import copy
import functools
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from multitime import classical
from multitime.classical import (
    HamiltonianPair,
    PhasePoint,
    PhaseVectorField,
    cjs_demo,
    classical_consistency_defect,
    evolve_equal_time,
    evolve_full_grid,
    grid_path_independence,
    hamiltonian_vector_field,
    is_spacelike,
    validity_residual,
)
from multitime.cli import run_config
from multitime.configs import EXAMPLE_CONFIGS
from multitime.expr import (FUNCTIONS, BinOp, Call, DomainError, Num, Var,
                            binding_names, compile_function, evaluate)
from multitime.numdiff import diff_callable
from multitime.paths import NPath, PathRangeError, WorldLine
from multitime.reports import write_csv
from oracles import full_grid_oracle, path_independence_oracle, variable_bindings


def free_field() -> PhaseVectorField:
    return PhaseVectorField.free(2, 1, [1.0, 1.0])


def harmonic_field() -> PhaseVectorField:
    """v_j = p_j, w_1 = -(x1 - x2), w_2 = x1 - x2 (unit masses)."""
    return PhaseVectorField.from_expressions(
        2, 1,
        [["p1_1"], ["p2_1"]],
        [["-(x1_1 - x2_1)"], ["x1_1 - x2_1"]])


def phase_point(t, x1, x2, p1, p2) -> PhasePoint:
    return PhasePoint(times=[t, t], x=[[x1], [x2]], p=[[p1], [p2]])


class TestSpacetime:
    def test_spacelike_strict(self):
        xs = np.array([[0.0], [1.0]])
        assert is_spacelike(np.array([0.0, 0.1]), xs)
        assert not is_spacelike(np.array([0.0, 1.0]), xs)  # lightlike
        assert not is_spacelike(np.array([0.0, 2.0]), xs)


class TestDefect:
    def test_free_field_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            t, x1, x2, p1, p2 = rng.uniform(-1, 1, 5)
            rep = classical_consistency_defect(
                free_field(), phase_point(t, x1, x2, p1, p2))
            assert rep.max_defect < 1e-10

    def test_harmonic_field_analytic_oracle(self):
        # D_1 w_2 = v_1 * d(x1 - x2)/dx1 = p1, D_2 w_1 = -v_2 * (-1) ... = -p2;
        # all other terms vanish, so defect(j,k) = |p_j| exactly
        rng = np.random.default_rng(2)
        for _ in range(5):
            t, x1, x2, p1, p2 = rng.uniform(-1, 1, 5)
            rep = classical_consistency_defect(
                harmonic_field(), phase_point(t, x1, x2, p1, p2))
            assert rep.pairs["1,2"] == pytest.approx(abs(p1), abs=1e-8)
            assert rep.pairs["2,1"] == pytest.approx(abs(p2), abs=1e-8)

    def test_hamiltonian_field_matches_explicit(self):
        # exact gradients of H reproduce the hand-written harmonic field,
        # and central differences at an explicit step come close to it
        h = "p1_1^2/2 + p2_1^2/2 + (x1_1 - x2_1)^2/2"
        exact = hamiltonian_vector_field(h, 2, 1)
        fd = hamiltonian_vector_field(h, 2, 1, h=1e-4)
        explicit = harmonic_field()
        point = phase_point(0.2, 0.4, -0.3, 0.7, -0.1)
        times, y = point.times.tolist(), point.state().tolist()
        want = explicit.rhs(times, y)
        assert want == (0.7, -0.1, -0.7, 0.7)
        assert bits(exact.rhs(times, y)) == bits(want)
        assert fd.rhs(times, y) == pytest.approx(want, abs=1e-8)

    def test_exact_derivative_domain_error(self):
        # |x1 - x2| has no derivative where the particles meet
        fld = hamiltonian_vector_field("p1_1^2/2 + p2_1^2/2 + abs(x1_1 - x2_1)",
                                       2, 1)
        with pytest.raises(DomainError, match="division by zero"):
            fld.rhs([0.0, 0.0], [0.5, 0.5, 0.0, 0.0])
        assert fld.rhs([0.0, 0.0], [0.5, 1.5, 0.0, 0.0])[2:] == (1.0, -1.0)

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValueError):
            PhaseVectorField.from_expressions(
                2, 1, [["q1"], ["p2_1"]], [["0"], ["0"]])

    def test_row_length_checked(self):
        # a short row would leave the flat state without its rate
        with pytest.raises(ValueError, match="need 2 expressions in every row"):
            PhaseVectorField.from_expressions(
                2, 2, [["p1_1", "p1_2"], ["p2_1"]],
                [["0", "0"], ["0", "0"]])


def reference_defect(field: PhaseVectorField, point: PhasePoint, h: float) -> dict:
    """The pairs of ``classical_consistency_defect`` by the per-component
    algorithm: each component of v_k and w_k compiled on its own and
    differenced by ``numdiff.diff_callable`` on a bindings dict."""
    b = variable_bindings(point.times, point.x, point.p)
    n, d = field.n, field.d
    nd = n * d
    rates = field.rhs(point.times.tolist(), point.state().tolist())
    comps = [functools.partial(evaluate, e) for e in field.exprs]

    def apply_dj(j, comp):
        val = diff_callable(comp, f"t{j}", b, h=h)
        for dd in range(d):
            i = (j - 1) * d + dd
            val += rates[i] * diff_callable(comp, f"x{j}_{dd + 1}", b, h=h)
            val += rates[nd + i] * diff_callable(comp, f"p{j}_{dd + 1}", b, h=h)
        return float(val)

    pairs = {}
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            if j != k:
                at = (k - 1) * d
                pairs[f"{j},{k}"] = max(abs(apply_dj(j, c)) for c in
                                        comps[at:at + d] + comps[nd + at:nd + at + d])
    return pairs


@st.composite
def defect_cases(draw):
    """A field of n = 2 or 3 particles in d = 1 or 2 dimensions (given by
    expressions, or by partial Hamiltonians with exact or h_step = 0.05
    gradients), a phase point and a defect step."""
    n, d = draw(st.sampled_from([2, 3])), draw(st.sampled_from([1, 2]))
    names = binding_names("t", n) + binding_names("x", n, d) + binding_names("p", n, d)
    numbers = st.sampled_from([0.5, 1.0, 2.0, -3.0])
    sparse = st.recursive(
        st.one_of(st.builds(Num, numbers), st.builds(Var, st.sampled_from(names))),
        lambda sub: st.one_of(st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
                              st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), sub)),
        max_leaves=5)

    @st.composite
    def trees(draw):
        # f(sum of c * name) makes every term of D_j non-zero, so that a
        # change in the order of the accumulation shows in the bits
        terms = [BinOp("*", Num(draw(numbers)), Var(name)) for name in names]
        dense = Call(draw(st.sampled_from(["sin", "cos", "tanh"])),
                     functools.reduce(lambda a, b: BinOp("+", a, b), terms))
        return BinOp("+", draw(sparse), dense)

    kind = draw(st.sampled_from(["expressions", "exact", "h_step"]))
    if kind == "expressions":
        v, w = ([[draw(trees()) for _ in range(d)] for _ in range(n)] for _ in "vw")
        field = PhaseVectorField.from_expressions(n, d, v, w)
    else:
        field = hamiltonian_vector_field([draw(trees()) for _ in range(n)], n, d,
                                         h=0.05 if kind == "h_step" else None)
    coords = st.lists(st.floats(-2.0, 2.0), min_size=n * d, max_size=n * d)
    point = PhasePoint(times=draw(st.lists(st.floats(-2.0, 2.0), min_size=n,
                                           max_size=n)),
                       x=np.reshape(draw(coords), (n, d)),
                       p=np.reshape(draw(coords), (n, d)))
    return field, point, draw(st.sampled_from([1e-4, 1e-3, 0.05]))


class TestDefectFromRhs:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(defect_cases())
    def test_matches_per_component_reference(self, case):
        # the same bits as differencing each component on its own, on
        # fields whose components are all defined within h of the point
        field, point, h = case
        try:
            rep = classical_consistency_defect(field, point, h=h)
        except (DomainError, OverflowError):
            assume(False)
        want = reference_defect(field, point, h)
        assert list(rep.pairs) == list(want)
        assert bits(rep.pairs.values()) == bits(want.values())

    def test_every_component_defined_within_h(self):
        # v_1 is only differenced along t2 for the pair (2, 1), but the
        # probe t1 + h of D_1 evaluates it too, where log(0.5 - t1) is undefined
        field = PhaseVectorField.from_expressions(
            2, 1, [["log(0.5 - t1)"], ["p2_1"]], [["0"], ["0"]])
        x, p = [[0.0], [1.0]], [[0.2], [0.3]]
        with pytest.raises(DomainError):
            classical_consistency_defect(
                field, PhasePoint(times=[0.49995, 0.0], x=x, p=p), h=1e-4)
        rep = classical_consistency_defect(
            field, PhasePoint(times=[0.4, 0.0], x=x, p=p), h=1e-4)
        assert rep.max_defect == 0.0


class TestDefectCompiledOnce:
    def test_one_function_per_field_and_step(self, monkeypatch):
        # a 100-sample defect grid compiles D_1 and D_2 of the 4 components
        # once; another step is another function
        sizes = []

        def counting(outputs, *args, **kwargs):
            sizes.append(len(outputs))
            return compile_function(outputs, *args, **kwargs)

        monkeypatch.setattr(classical, "compile_function", counting)
        classical._defects.cache_clear()
        cfg = copy.deepcopy(EXAMPLE_CONFIGS["classical_harmonic_check"])
        assert cfg["experiment"]["samples"]["count"] == 100
        first = run_config(copy.deepcopy(cfg), "check", 1, None)["results"]
        assert sizes == [8]
        assert run_config(copy.deepcopy(cfg), "check", 1, None)["results"] == first
        assert sizes == [8]
        cfg["experiment"]["h"] = 1e-3
        run_config(cfg, "check", 1, None)
        assert sizes == [8, 8]


class TestEqualTimeEvolution:
    def test_free_straight_lines(self):
        path = evolve_equal_time(free_field(),
                                 phase_point(0.0, -2.0, 2.0, 0.1, -0.1),
                                 (0.0, 5.0), 0.01)
        line = path.line(1)
        assert line.x_at(3.0)[0] == pytest.approx(-2.0 + 0.1 * 3.0, abs=1e-10)
        assert line.p_at(3.0)[0] == pytest.approx(0.1, abs=1e-12)

    def test_harmonic_energy_conservation(self):
        path = evolve_equal_time(harmonic_field(),
                                 phase_point(0.0, -0.5, 0.5, 0.0, 0.0),
                                 (0.0, 10.0), 1e-3)

        def energy(t):
            x1 = path.line(1).x_at(t)[0]
            x2 = path.line(2).x_at(t)[0]
            p1 = path.line(1).p_at(t)[0]
            p2 = path.line(2).p_at(t)[0]
            return 0.5 * (p1**2 + p2**2) + 0.5 * (x1 - x2) ** 2

        e0 = energy(0.0)
        drift = max(abs(energy(t) - e0) for t in np.linspace(0.0, 10.0, 101))
        assert drift < 1e-10

    def test_harmonic_normal_modes_oracle(self):
        # x1 = R - r/2, x2 = R + r/2 with R inertial and r oscillating at
        # sqrt(2); closed form frozen independently of the integrator
        x10, x20, p10, p20 = -0.5, 0.5, 0.3, -0.1
        path = evolve_equal_time(harmonic_field(),
                                 phase_point(0.0, x10, x20, p10, p20),
                                 (0.0, 2.0), 1e-3)
        w = np.sqrt(2.0)
        for t in (0.7, 1.4, 2.0):
            big_r = (x10 + x20) / 2 + (p10 + p20) / 2 * t
            r = (x10 - x20) * np.cos(w * t) + (p10 - p20) / w * np.sin(w * t)
            assert path.line(1).x_at(t)[0] == pytest.approx(big_r + r / 2, abs=1e-9)
            assert path.line(2).x_at(t)[0] == pytest.approx(big_r - r / 2, abs=1e-9)

    def test_rk4_fourth_order_convergence(self):
        init = phase_point(0.0, -0.5, 0.5, 0.3, -0.1)
        fld = harmonic_field()
        ref = evolve_equal_time(fld, init, (0.0, 2.0), 1e-4)
        ref_x = ref.line(1).x_at(2.0)[0]

        def err(dt):
            p = evolve_equal_time(fld, init, (0.0, 2.0), dt)
            return abs(p.line(1).x_at(2.0)[0] - ref_x)

        ratio = err(0.02) / err(0.01)
        assert 10.0 < ratio < 25.0

    def test_signed_zero_fields_get_their_own_loops(self):
        # the RK4 loops are memoised on the field's trees, and Num(0.0) and
        # Num(-0.0) are different trees: each field keeps the sign of its rates
        def dxdt(zero):
            field = PhaseVectorField.from_expressions(
                1, 1, [[BinOp("*", Num(zero), Var("p1_1"))]], [[Num(0.0)]])
            init = PhasePoint(times=[0.0], x=[[0.0]], p=[[1.0]])
            return evolve_equal_time(field, init, (0.0, 0.1), 0.05).line(1).dxdt

        assert bits(dxdt(0.0).ravel()) == bits([0.0] * 3)
        assert bits(dxdt(-0.0).ravel()) == bits([-0.0] * 3)

    def test_unequal_initial_times_rejected(self):
        init = PhasePoint(times=[0.0, 0.5], x=[[0.0], [1.0]], p=[[0.0], [0.0]])
        with pytest.raises(ValueError):
            evolve_equal_time(free_field(), init, (0.0, 1.0), 0.01)


class TestValidity:
    def test_free_spacelike_residual_tiny(self):
        fld = free_field()
        path = evolve_equal_time(fld, phase_point(0.0, -2.0, 2.0, 0.1, -0.1),
                                 (0.0, 2.0), 1e-3)
        rep = validity_residual(fld, path, [[1.0, 1.2], [0.5, 0.9], [1.5, 1.5]])
        assert rep.rejected == 0
        assert rep.max_residual < 1e-10

    def test_non_spacelike_rejected(self):
        fld = free_field()
        # bring the particles close so a large time offset is timelike
        path = evolve_equal_time(fld, phase_point(0.0, -0.1, 0.1, 0.0, 0.0),
                                 (0.0, 2.0), 1e-2)
        rep = validity_residual(fld, path, [[0.2, 1.8]])
        assert rep.rejected == 1
        assert rep.rows[0]["spacelike"] is False

    def test_coupled_off_diagonal_residual_grows(self):
        # an interacting field is valid on the diagonal but not off it; the
        # residual should grow with the time offset
        fld = PhaseVectorField.from_expressions(
            2, 1,
            [["p1_1"], ["p2_1"]],
            [["-0.1*(x1_1 - x2_1)"], ["0.1*(x1_1 - x2_1)"]])
        path = evolve_equal_time(fld, phase_point(0.0, -2.0, 2.0, 0.0, 0.0),
                                 (0.0, 2.0), 1e-3)
        rep_on = validity_residual(fld, path, [[1.0, 1.0]])
        rep_off = validity_residual(fld, path, [[0.8, 1.3]])
        assert rep_on.max_residual < 1e-8
        assert rep_off.max_residual > 1e-3

    def test_sample_length_validated(self):
        fld = free_field()
        path = evolve_equal_time(fld, phase_point(0.0, -2.0, 2.0, 0.1, -0.1),
                                 (0.0, 1.0), 1e-2)
        with pytest.raises(ValueError):
            validity_residual(fld, path, [[0.5]])


class TestWorldLines:
    def test_range_checks(self):
        t = np.linspace(0.0, 1.0, 11)
        line = WorldLine(t=t, x=t[:, None], p=np.ones((11, 1)),
                         dxdt=np.ones((11, 1)), dpdt=np.zeros((11, 1)))
        with pytest.raises(PathRangeError):
            line.x_at(1.5)
        with pytest.raises(PathRangeError):
            line.x_at(-0.1)

    def test_monotone_time_required(self):
        t = np.array([0.0, 0.5, 0.4])
        with pytest.raises(ValueError):
            WorldLine(t=t, x=t[:, None], p=t[:, None],
                      dxdt=np.ones((3, 1)), dpdt=np.zeros((3, 1)))

    @pytest.mark.parametrize("samples", [0, 1])
    def test_two_samples_required(self, samples):
        t = np.arange(float(samples))
        with pytest.raises(ValueError, match="two or more samples"):
            WorldLine(t=t, x=t[:, None], p=t[:, None],
                      dxdt=np.ones((samples, 1)), dpdt=np.zeros((samples, 1)))

    @pytest.mark.parametrize("bad", ["shape", "length", "nan", "inf"])
    def test_samples_checked(self, bad):
        t = np.linspace(0.0, 1.0, 4)
        x, dx = t[:, None], np.ones((4, 1))
        if bad == "shape":
            dx = np.ones((4, 2))
        elif bad == "length":
            x = x[:3]
        else:
            x = x.copy()
            x[2, 0] = float(bad)
        with pytest.raises(ValueError):
            WorldLine(t=t, x=x, p=x, dxdt=dx, dpdt=dx)

    def test_array_query_range_error_names_first_time_outside(self):
        t = np.linspace(0.0, 1.0, 11)
        line = WorldLine(t=t, x=t[:, None], p=np.ones((11, 1)),
                         dxdt=np.ones((11, 1)), dpdt=np.zeros((11, 1)))
        with pytest.raises(PathRangeError) as scalar:
            line.x_at(1.5)
        assert str(scalar.value) == "time 1.5 outside sampled range [0.0, 1.0]"
        for query in (line.x_at, line.p_at, line.dxdt_at, line.dpdt_at):
            with pytest.raises(PathRangeError) as array:
                query(np.array([0.5, 1.0 + 1e-12, -0.25, 2.0]))
            assert str(array.value) == "time -0.25 outside sampled range [0.0, 1.0]"
        assert line.x_at(np.array([0.0, 1.0])).shape == (2, 1)
        assert line.x_at(np.array([])).shape == (0, 1)

    def test_nan_query_time_is_outside(self):
        t = np.linspace(0.0, 1.0, 11)
        line = WorldLine(t=t, x=t[:, None], p=np.ones((11, 1)),
                         dxdt=np.ones((11, 1)), dpdt=np.zeros((11, 1)))
        for query in (line.x_at, line.p_at, line.dxdt_at, line.dpdt_at):
            with pytest.raises(PathRangeError) as scalar:
                query(float("nan"))
            assert str(scalar.value) == "time nan outside sampled range [0.0, 1.0]"
            with pytest.raises(PathRangeError) as array:
                query(np.array([0.5, np.nan, 2.0]))
            assert str(array.value) == "time nan outside sampled range [0.0, 1.0]"

    @pytest.mark.parametrize("seed", range(6))
    def test_bit_for_bit_scipy_cubic_hermite(self, seed):
        interpolate = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(seed)
        for trial in range(40):
            d, m = int(rng.integers(1, 4)), int(rng.integers(2, 25))
            t = np.cumsum(rng.uniform(0.01, 1.0, m)) * 10.0 ** rng.uniform(-8, 8)
            t = t - t[int(rng.integers(0, m))]
            # one knot is exactly zero, negative zero on every other trial
            t[t == 0.0] = -0.0 if trial % 2 else 0.0
            scales = 10.0 ** rng.uniform(-8, 8, (4, 1, 1))
            y, p, dy, dp = rng.normal(size=(4, m, d)) * scales
            line = WorldLine(t=t, x=y, p=p, dxdt=dy, dpdt=dp)
            sx = interpolate.CubicHermiteSpline(t, y, dy)
            sp = interpolate.CubicHermiteSpline(t, p, dp)
            oracles = {line.x_at: sx, line.p_at: sp,
                       line.dxdt_at: sx.derivative(), line.dpdt_at: sp.derivative()}
            times = np.concatenate([t, rng.uniform(t[0], t[-1], 30),
                                    [t[0] - 1e-12, t[-1] + 1e-12]])
            for query, spline in oracles.items():
                want = spline(times)
                got = query(times)
                assert got.shape == want.shape == (len(times), d)
                assert got.tobytes() == want.tobytes()
                for time in times[::5].tolist():
                    got = query(time)
                    assert got.shape == (d,)
                    assert got.tobytes() == spline(time).tobytes()

    def test_hermite_interpolation_exact_on_cubics(self):
        t = np.linspace(0.0, 2.0, 9)
        x = (t**3 - t)[:, None]
        dx = (3 * t**2 - 1)[:, None]
        line = WorldLine(t=t, x=x, p=x, dxdt=dx, dpdt=dx)
        for s in (0.33, 1.111, 1.99):
            assert line.x_at(s)[0] == pytest.approx(s**3 - s, abs=1e-12)
            assert line.dxdt_at(s)[0] == pytest.approx(3 * s**2 - 1, abs=1e-11)

    def test_npath_common_range_and_export(self, tmp_path):
        t = np.linspace(0.0, 1.0, 5)
        mk = lambda: WorldLine(t=t, x=t[:, None], p=t[:, None],
                               dxdt=np.ones((5, 1)), dpdt=np.ones((5, 1)))
        path = NPath([mk(), mk()])
        assert path.common_time_range() == (0.0, 1.0)
        out = tmp_path / "lines.csv"
        write_csv(str(out), *path.csv_table())
        text = out.read_text().splitlines()
        assert text[0].startswith("particle,t,x_1")
        assert len(text) == 1 + 2 * 5  # header + two lines of five samples


class TestFullGrid:
    def free_pair(self):
        return HamiltonianPair(["p1_1^2/2", "p2_1^2/2"], 2, 1)

    def coupled_pair(self):
        return HamiltonianPair(["p1_1^2/2 + (x1_1 - x2_1)^2/2",
                                "p2_1^2/2 + (x1_1 - x2_1)^2/2"], 2, 1)

    def init(self):
        return PhasePoint(times=[0.0, 0.0], x=[[0.0], [1.0]], p=[[0.3], [-0.2]])

    def test_free_grid_analytic(self):
        # for free partial Hamiltonians x_j depends only on t_j, linearly
        grid = evolve_full_grid(self.free_pair(), self.init(),
                                np.linspace(0, 1, 11), np.linspace(0, 1, 11),
                                substeps=2)
        want = 0.0 + 0.3 * grid.t1[:, None] + 0.0 * grid.t2[None, :]
        assert np.max(np.abs(grid.x[0, :, :, 0] - want)) < 1e-12
        dx1_dt2 = np.max(np.abs(np.diff(grid.x[0, :, :, 0], axis=1)))
        assert dx1_dt2 < 1e-12

    def test_coupled_grid_cross_dependence(self):
        # with a potential in H_2, x_1 must vary along t_2
        grid = evolve_full_grid(self.coupled_pair(), self.init(),
                                np.linspace(0, 1, 21), np.linspace(0, 1, 21),
                                substeps=2)
        dt2 = grid.t2[1] - grid.t2[0]
        dx1_dt2 = np.max(np.abs(np.diff(grid.x[0, :, :, 0], axis=1))) / dt2
        assert dx1_dt2 > 0.05

    def test_path_independence_free_zero(self):
        assert grid_path_independence(self.free_pair(), self.init(),
                                      (0.4, 0.4), 0.01) < 1e-12

    def test_path_independence_area_scaling(self):
        # corner discrepancy of an inconsistent pair scales with the
        # rectangle area: quartering the area divides it by about 4
        hp = self.coupled_pair()
        init = self.init()
        gaps = [grid_path_independence(hp, init, (s, s), 0.01)
                for s in (0.4, 0.2, 0.1)]
        assert gaps[0] > 1e-4
        for a, b in zip(gaps, gaps[1:]):
            assert 0.8 * 4 < a / b < 1.2 * 4

    def test_n_must_be_two(self):
        with pytest.raises(ValueError):
            HamiltonianPair(["p1_1^2/2"], 1, 1)

    @pytest.mark.parametrize("points1,points2,substeps,refused", [
        (3, 2, 0, "substeps >= 1, got 0"),
        (3, 2, -1, "substeps >= 1, got -1"),
        (0, 2, 4, "points1 >= 1, got 0"),
        (3, -2, 4, "points2 >= 1, got -2"),
    ])
    def test_counts_below_one_refused(self, points1, points2, substeps, refused):
        with pytest.raises(ValueError, match=f"^a full grid needs {refused}$"):
            classical.full_grid_steps(points1, points2, substeps)

    @pytest.mark.parametrize("substeps", [0, -1])
    def test_substeps_below_one_refused_before_the_run(self, monkeypatch, substeps):
        # -1 used to return the initial state at every node, 0 to divide by 0
        def no_legs(hpair):
            raise AssertionError("a leg loop was built")

        monkeypatch.setattr(classical, "_grid_legs", no_legs)
        with pytest.raises(ValueError, match=f"substeps >= 1, got {substeps}$"):
            evolve_full_grid(self.free_pair(), self.init(), np.linspace(0, 1, 3),
                             np.linspace(0, 1, 2), substeps=substeps)
        with pytest.raises(ValueError, match="points1 >= 1, got 0$"):
            evolve_full_grid(self.free_pair(), self.init(), [], [0.0, 1.0])

    # The grid and the rectangle as first written, one compiled loop call per
    # leg (``oracles.full_grid_oracle``, ``path_independence_oracle``): the
    # runs call it once per column, row or leg, and must match bit for bit.
    PAIRS = [["p1_1^2/2", "p2_1^2/2"],
             ["p1_1^2/2 + (x1_1 - x2_1)^2/2", "p2_1^2/2 + (x1_1 - x2_1)^2/2"],
             ["p1_1^2/2 + x1_1*sin(t1 - x2_1)", "p2_1^2/3 - cos(t2*x1_1)*p1_1"]]

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(pair=st.sampled_from(range(len(PAIRS))),
           y=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
           t0=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
           gaps1=st.lists(st.floats(1e-3, 0.4), max_size=5),
           gaps2=st.lists(st.floats(1e-3, 0.4), max_size=5),
           substeps=st.integers(1, 3))
    def test_grid_matches_leg_by_leg(self, pair, y, t0, gaps1, gaps2, substeps):
        hpair = HamiltonianPair(self.PAIRS[pair], 2, 1)
        init = PhasePoint(times=t0, x=[[y[0]], [y[1]]], p=[[y[2]], [y[3]]])
        t1s, t2s = (np.cumsum([t] + gaps) for t, gaps in zip(t0, (gaps1, gaps2)))
        grid = evolve_full_grid(hpair, init, t1s, t2s, substeps=substeps)
        x, p = full_grid_oracle(hpair, init, t1s, t2s, substeps)
        assert grid.x.shape == x.shape == (2, len(t1s), len(t2s), 1)
        assert grid.x.tobytes() == x.tobytes() and grid.p.tobytes() == p.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(pair=st.sampled_from(range(len(PAIRS))),
           y=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
           t0=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
           rectangle=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
           dt=st.floats(0.01, 0.3))
    def test_path_independence_matches_leg_by_leg(self, pair, y, t0, rectangle, dt):
        hpair = HamiltonianPair(self.PAIRS[pair], 2, 1)
        init = PhasePoint(times=t0, x=[[y[0]], [y[1]]], p=[[y[2]], [y[3]]])
        got = grid_path_independence(hpair, init, rectangle, dt)
        want = path_independence_oracle(hpair, init, rectangle, dt)
        assert bits([got]) == bits([want])


class TestCjsDemo:
    def test_family_sweep(self):
        family = [("free", free_field()), ("harmonic", harmonic_field())]
        rng = np.random.default_rng(0)
        pts = [phase_point(*rng.uniform(-1, 1, 5)) for _ in range(20)]
        rows = cjs_demo(family, pts, phase_point(0.0, -2.0, 2.0, 0.1, -0.1),
                        (0.0, 2.0), 0.01)
        by_id = {r["id"]: r for r in rows}
        assert by_id["free"]["max_defect"] < 1e-10
        assert by_id["free"]["straightness_deviation"] < 1e-10
        assert by_id["harmonic"]["max_defect"] > 1e-3
        assert by_id["harmonic"]["straightness_deviation"] > 1e-3


def numpy_rk4_step(f, t, y, h):
    """The vector RK4 step on numpy arrays that the generated loops reproduce."""
    k1 = f(t, y)
    k2 = f(t + h / 2, y + h / 2 * k1)
    k3 = f(t + h / 2, y + h / 2 * k2)
    k4 = f(t + h, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def bits(values):
    return [struct.pack("d", v) for v in values]


def rk4_loop(field, axis=None):
    """The compiled RK4 loop of ``field``: equal-time (``axis`` None) or a
    grid leg along time ``axis + 1``."""
    return classical._rk4_loop(field.exprs, field.n, field.d, axis)


class TestRk4Step:
    FIELDS = [
        free_field(),
        harmonic_field(),
        # the Gaussian member of the cjs family, and a time-dependent force
        PhaseVectorField.from_expressions(
            2, 1, [["p1_1"], ["p2_1"]],
            [["-(x1_1 - x2_1)*exp(-(x1_1 - x2_1)^2)"],
             ["(x1_1 - x2_1)*exp(-(x1_1 - x2_1)^2)"]]),
        PhaseVectorField.from_expressions(
            2, 1, [["p1_1"], ["p2_1 / 3"]],
            [["-x1_1*cos(t1)"], ["-sin(x2_1 - t2)"]]),
    ]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(field=st.sampled_from(range(len(FIELDS))),
           y=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
           t=st.floats(-5.0, 5.0), h=st.floats(1e-6, 1.0), other=st.floats(-5.0, 5.0))
    def test_matches_numpy_step(self, field, y, t, h, other):
        fld = self.FIELDS[field]
        rhs = fld.rhs

        def stepped(times):
            # the numpy step with the time tuple times(tt) at stage time tt
            return bits(numpy_rk4_step(lambda tt, yy: np.array(rhs(times(tt), yy.tolist())),
                                       t, np.array(y), h))

        # equal time: every time follows the step, and the loop records the
        # rates at both nodes
        states, rates = rk4_loop(fld)(y, [t, t + h], [h])
        assert bits(states[0]) == bits(y) and bits(states[1]) == stepped(lambda tt: (tt, tt))
        assert bits(rates[0]) == bits(rhs((t, t), y))
        assert bits(rates[1]) == bits(rhs((t + h, t + h), states[1]))
        # a grid leg along t1, then along t2, with the other time fixed; the
        # loop returns the state at both nodes
        leg1 = rk4_loop(fld, 0)(y, [t], [h], other)
        assert bits(leg1[0]) == bits(y) and bits(leg1[-1]) == stepped(lambda tt: (tt, other))
        assert bits(rk4_loop(fld, 1)(y, [t], [h], other)[-1]) == stepped(lambda tt: (other, tt))

    @pytest.mark.parametrize("component", range(4))
    def test_non_finite_state(self, component):
        # the rate 1e308 of one component takes it from 1e308 to inf
        rates = [["1e308" if c == component else "0"] for c in range(4)]
        fld = PhaseVectorField.from_expressions(2, 1, rates[:2], rates[2:])
        y = [1e308 if c == component else 0.0 for c in range(4)]
        with pytest.raises(FloatingPointError, match="non-finite state at t = 0.5"):
            evolve_equal_time(fld, phase_point(0.0, *y), (0.0, 0.5), 0.5)
        with pytest.raises(FloatingPointError, match="non-finite state at t = 0.5"):
            rk4_loop(fld, 0)(y, [0.0], [0.5], 0.0)

    def test_domain_error_in_a_middle_stage(self):
        # v_1 = log(1 - 2 t1) is defined at the step's start t = 0 and not
        # at its second stage, t + h/2 = 0.5
        fld = PhaseVectorField.from_expressions(2, 1, [["log(1 - 2*t1)"], ["p2_1"]],
                                                [["0"], ["0"]])
        init = phase_point(0.0, 0.0, 0.0, 0.0, 0.0)
        y = init.state().tolist()
        assert fld.rhs((0.0, 0.0), y) == (0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError) as want:
            fld.rhs((0.5, 0.5), y)
        with pytest.raises(DomainError) as got:
            evolve_equal_time(fld, init, (0.0, 1.0), 1.0)
        assert str(got.value) == str(want.value) == "log of non-positive value 0.0"

    def test_grid_leg_never_evaluates_its_end_point(self):
        # dp1/dt1 = 3 t1^2 takes p1 from -1 to 0.0 in one step of 1, and
        # v_1 = log(-p1) is defined at every stage state (p1 = -1, -1,
        # -0.625, -0.25) but not at the end point
        fld = PhaseVectorField.from_expressions(2, 1, [["log(-p1_1)"], ["0"]],
                                                [["3*t1^2"], ["0"]])
        y = [0.0, 0.0, -1.0, 0.0]
        end = rk4_loop(fld, 0)(y, [0.0], [1.0], 0.0)[-1]
        assert end[2] == 0.0
        with pytest.raises(DomainError, match="log of non-positive value -0.0"):
            fld.rhs((1.0, 0.0), end)
        # the equal-time loop records the rates at the end node, and fails there
        with pytest.raises(DomainError, match="log of non-positive value -0.0"):
            rk4_loop(fld)(y, [0.0, 1.0], [1.0])

    def test_plans_count_the_run(self):
        init = phase_point(0.0, -1.0, 1.0, 0.1, -0.1)
        npath = evolve_equal_time(free_field(), init, (0.0, 1.0), 0.03)
        assert len(npath.lines[0].t) == classical.equal_time_steps((0.0, 1.0), 0.03) + 1
        assert classical.equal_time_steps((0.0, 1.0), 0.03) == 33
        # each leg ceil(|side| / dt); 0.3 / 0.1 is a rounding below 3
        assert classical.rectangle_steps((0.35, -0.3), 0.1) == (4, 3)
        assert classical.rectangle_steps((0.4, 0.0), 1e-300) == (0, 0)
        # the legs are bounded as the run takes them, rounded up
        with pytest.raises(ValueError, match="takes 1000001 RK4 steps"):
            classical.rectangle_steps((500000.3, -499999.6), 1.0)
        assert classical.full_grid_steps(3, 4, 2) == 24

    def test_step_count_bounded_before_the_run(self):
        init = phase_point(0.0, -1.0, 1.0, 0.1, -0.1)
        with pytest.raises(ValueError, match="2e\\+300 RK4 steps; at most 1000000"):
            evolve_equal_time(free_field(), init, (0.0, 2.0), 1e-300)
        pair = HamiltonianPair(["p1_1^2/2", "p2_1^2/2"], 2, 1)
        with pytest.raises(ValueError, match="at most 1000000"):
            grid_path_independence(pair, init, (0.4, 0.4), 1e-300)
        with pytest.raises(ValueError, match="at most 1000000"):
            evolve_full_grid(pair, init, [0.0, 1.0], [0.0, 1.0], substeps=250001)
