"""Acceptance gate: ten end-to-end criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py`` (the pass/fail lines bypass
output capture, so they appear even without ``-s``).
"""

import copy
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from multitime import classical, hj, linops, quantum
from multitime.classical import (
    HamiltonianPair,
    PhasePoint,
    PhaseVectorField,
    cjs_demo,
    classical_consistency_defect,
    evolve_equal_time,
    evolve_full_grid,
    grid_path_independence,
    validity_residual,
)
from multitime.cli import _SUBCOMMAND_KINDS, run_config
from multitime.configs import EXAMPLE_CONFIGS
from multitime.hj import (
    Foliation,
    HJFunction,
    equal_time_sum_gap,
    foliation_compare,
    hj_residual_multi,
    hj_velocity_consistency_defect,
    poisson_bracket,
)
from multitime.linops import commutator, norm_inf, pauli_string
from multitime.quantum import (
    MultiTimeState,
    PartialHamiltonianSet,
    Segment,
    StaircasePath,
    consistency_defect_matrix,
    diagonal_evolution,
    evolve_staircase,
    quantum_consistency_defect,
    random_staircase,
    rectangle_holonomy,
    staircase_between,
)

G = 0.5  # coupling of the inconsistent two-qubit system

#: ``results`` of every shipped config at seed 0; any change to this file
#: is explained in CHANGES.md
GOLDEN = json.loads((Path(__file__).parent / "golden_results.json").read_text())
#: Tolerance of the golden comparison.  On one machine the results repeat
#: bit for bit, and a refactor that keeps the numerics reproduces them
#: exactly.  The slack is for another machine's libm, LAPACK and numpy
#: builds, whose last-bit differences the 1e-4 finite-difference steps
#: amplify: relative 1e-9 for figures of order one, absolute 1e-10 for
#: figures at the round-off floor (free-field defects and residuals near
#: 1e-14, free foliation distances near 5e-11 under the 1e-10 anchoring
#: tolerance).  A change of method, step or order moves the figures by
#: far more than that.
GOLDEN_REL, GOLDEN_ABS = 1e-9, 1e-10


def _golden_drift(got, want, pointer: str = "") -> list[str]:
    """JSON pointers of the values of ``got`` that are off ``want``."""
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [p for k in want
                for p in _golden_drift(got[k], want[k], f"{pointer}/{k}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in _golden_drift(g, w, f"{pointer}/{i}")]
    if isinstance(want, float) and isinstance(got, float):
        ok = math.isclose(got, want, rel_tol=GOLDEN_REL, abs_tol=GOLDEN_ABS)
    else:
        ok = got == want and type(got) is type(want)
    return [] if ok else [pointer or "/"]


def _report(capsys, num: int, checks: list[tuple[bool, str]],
            elapsed: float, budget: float | None) -> None:
    if budget is not None:
        checks = checks + [(elapsed < budget,
                            f"runtime {elapsed:.2f}s < {budget:g}s")]
    ok = all(c for c, _ in checks)
    detail = "; ".join(d for _, d in checks)
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    failed = [d for c, d in checks if not c]
    assert ok, f"criterion {num} failed: {failed}"


def commuting_system() -> PartialHamiltonianSet:
    return PartialHamiltonianSet.from_constant(
        [pauli_string("ZI"), pauli_string("IX")], 2)


def coupled_system() -> PartialHamiltonianSet:
    zz = 0.5 * G * pauli_string("ZZ")
    return PartialHamiltonianSet.from_constant(
        [pauli_string("ZI") + zz, pauli_string("IX") + zz], 2)


def interaction_picture_system() -> PartialHamiltonianSet:
    base = pauli_string("ZI")
    return PartialHamiltonianSet.from_interaction_picture(
        base, [base, pauli_string("IX") + 0.5 * pauli_string("XX")], 2)


def plus_state(dim: int = 4) -> np.ndarray:
    return np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)


def harmonic_field() -> PhaseVectorField:
    return PhaseVectorField.from_expressions(
        2, 1,
        [["p1_1"], ["p2_1"]],
        [["-(x1_1 - x2_1)"], ["x1_1 - x2_1"]])


FREE_S = "k1*x1_1 - (k1^2/2)*t1 + k2*x2_1 - (k2^2/2)*t2"
COUPLED_S = FREE_S + " + 0.05*(x1_1 - x2_1)^2*(t1 + t2)"
HJ_CONSTS = {"k1": 0.3, "k2": -0.2}


def test_criterion_01_consistent_quantum_integrability(capsys):
    start = time.monotonic()
    sys_q = commuting_system()
    rep = quantum_consistency_defect(sys_q, [0.3, -0.7])
    phi = plus_state()
    hols = [rectangle_holonomy(sys_q, [0.0, 0.0], 1, 2, s, s, phi)
            for s in (0.1, 0.05, 0.01)]
    checks = [
        (rep.max_defect < 1e-10, f"defect {rep.max_defect:.2e} < 1e-10"),
        (max(hols) < 1e-8, f"holonomies max {max(hols):.2e} < 1e-8"),
    ]
    _report(capsys, 1, checks, time.monotonic() - start, 1.0)


def test_criterion_02_interaction_breaks_consistency(capsys):
    start = time.monotonic()
    sys_q = coupled_system()
    h1 = sys_q.hamiltonian(1, [0.0, 0.0])
    h2 = sys_q.hamiltonian(2, [0.0, 0.0])
    oracle = norm_inf(1j * commutator(h1, h2))
    rep = quantum_consistency_defect(sys_q, [0.2, 0.5])
    gap = abs(rep.pairs["1,2"] - oracle)
    phi = plus_state()
    c = consistency_defect_matrix(sys_q, [0.0, 0.0], 1, 2)
    want = float(np.linalg.norm(c @ phi))
    rel = []
    for s in (0.01, 0.005, 0.0025):
        hol = rectangle_holonomy(sys_q, [0.0, 0.0], 1, 2, s, s, phi)
        rel.append(abs(hol / (s * s) - want) / want)
    checks = [
        (gap < 1e-9, f"defect matches ||i[H1,H2]|| to {gap:.2e} (< 1e-9)"),
        (max(rel) < 0.05,
         f"holonomy/area within {max(rel):.2%} of ||C12 phi0|| over halvings"),
    ]
    _report(capsys, 2, checks, time.monotonic() - start, 5.0)


def test_criterion_03_consistent_interacting_system(capsys):
    start = time.monotonic()
    sys_q = interaction_picture_system()
    coarse = quantum_consistency_defect(sys_q, [0.35, 0.8], h=1e-3).max_defect
    fine = quantum_consistency_defect(sys_q, [0.35, 0.8], h=2.5e-4).max_defect
    rng = np.random.default_rng(0)
    phi = rng.normal(size=4) + 1j * rng.normal(size=4)
    phi /= np.linalg.norm(phi)
    state = MultiTimeState(phi, [0.0, 0.0])
    worst_pair = 0.0
    for _ in range(10):
        end = rng.uniform(-0.5, 0.5, 2)
        a = evolve_staircase(sys_q, state,
                             staircase_between([0, 0], end, max_dt=1e-3))
        b = evolve_staircase(sys_q, state,
                             random_staircase(rng, [0, 0], end, max_dt=1e-3))
        worst_pair = max(worst_pair, float(np.linalg.norm(a.vector - b.vector)))
    psi0 = plus_state()
    diag = diagonal_evolution(sys_q, psi0, 0.0, 0.5, steps=1000)
    stair = evolve_staircase(
        sys_q, MultiTimeState(psi0, [0.0, 0.0]),
        staircase_between([0, 0], [0.5, 0.5], max_dt=5e-4)).vector
    diag_gap = float(np.linalg.norm(diag - stair))
    checks = [
        (coarse < 1e-6, f"defect {coarse:.2e} < 1e-6 at h=1e-3"),
        (coarse / fine >= 10.0,
         f"defect improves {coarse / fine:.1f}x when h shrinks 4x (>= 10x)"),
        (worst_pair < 1e-7,
         f"10 random staircase pairs agree to {worst_pair:.2e} (< 1e-7)"),
        (diag_gap < 1e-7, f"staircase vs diagonal {diag_gap:.2e} < 1e-7"),
    ]
    _report(capsys, 3, checks, time.monotonic() - start, 10.0)


def test_criterion_04_classical_flow_consistency(capsys):
    start = time.monotonic()
    free = PhaseVectorField.free(2, 1, [1.0, 1.0])
    rng = np.random.default_rng(1)
    worst_free = 0.0
    for _ in range(1000):
        pt = PhasePoint(times=rng.uniform(0, 1, 2),
                        x=rng.uniform(-1, 1, (2, 1)),
                        p=rng.uniform(-1, 1, (2, 1)))
        worst_free = max(worst_free,
                         classical_consistency_defect(free, pt).max_defect)
    harm = harmonic_field()
    worst_gap = 0.0
    for _ in range(100):
        pt = PhasePoint(times=rng.uniform(0, 1, 2),
                        x=rng.uniform(-1, 1, (2, 1)),
                        p=rng.uniform(-1, 1, (2, 1)))
        rep = classical_consistency_defect(harm, pt)
        # D_2 w_1 expands by hand to (p2/m2) dw1/dx2 = p2, and D_1 w_2 to p1
        worst_gap = max(worst_gap,
                        abs(rep.pairs["2,1"] - abs(float(pt.p[1, 0]))),
                        abs(rep.pairs["1,2"] - abs(float(pt.p[0, 0]))))
    checks = [
        (worst_free < 1e-9,
         f"free defect {worst_free:.2e} < 1e-9 on 1000 samples"),
        (worst_gap < 1e-6,
         f"harmonic defect matches hand oracle to {worst_gap:.2e} (< 1e-6)"),
    ]
    _report(capsys, 4, checks, time.monotonic() - start, 5.0)


def test_criterion_05_validity_operationalized(capsys):
    start = time.monotonic()
    free = PhaseVectorField.free(2, 1, [1.0, 1.0])
    init = PhasePoint(times=[0.0, 0.0], x=[[-2.0], [2.0]], p=[[0.1], [-0.1]])
    path = evolve_equal_time(free, init, (0.0, 2.0), 1e-3)
    rng = np.random.default_rng(2)
    samples = []
    while len(samples) < 100:
        tup = rng.uniform(0.2, 1.8) + rng.uniform(-0.3, 0.3, 2)
        if abs(tup[0] - tup[1]) > 1e-3:
            samples.append(np.clip(tup, 0.0, 2.0))
    rep = validity_residual(free, path, samples)

    harm = harmonic_field()
    init_h = PhasePoint(times=[0.0, 0.0], x=[[-0.5], [0.5]], p=[[0.0], [0.0]])
    path_h = evolve_equal_time(harm, init_h, (0.0, 2.0), 1e-3,
                               timelike_warning=False)
    best = 0.0
    for t1 in np.linspace(0.1, 1.5, 29):
        r = validity_residual(harm, path_h, [[t1, t1 + 0.5]])
        if r.rejected == 0:
            best = max(best, r.max_residual)
    checks = [
        (rep.rejected == 0, f"all 100 free samples spacelike"),
        (rep.max_residual < 1e-9,
         f"free residual {rep.max_residual:.2e} < 1e-9"),
        (best > 1e-2,
         f"harmonic residual {best:.2e} > 1e-2 at |t1-t2| = 0.5"),
    ]
    _report(capsys, 5, checks, time.monotonic() - start, 5.0)


def test_criterion_06_footnote_grid_system(capsys):
    start = time.monotonic()
    init = PhasePoint(times=[0.0, 0.0], x=[[0.0], [1.0]], p=[[0.3], [-0.2]])
    grid = np.linspace(0.0, 1.0, 50)
    free = HamiltonianPair(["p1_1^2/2", "p2_1^2/2"], 2, 1)
    sol = evolve_full_grid(free, init, grid, grid, substeps=2)
    cross_free = float(np.max(np.abs(np.gradient(sol.x[0], grid, axis=1))))
    gap_free = grid_path_independence(free, init, (0.4, 0.4), 0.01)

    coupled = HamiltonianPair(["p1_1^2/2 + (x1_1 - x2_1)^2/2",
                               "p2_1^2/2 + (x1_1 - x2_1)^2/2"], 2, 1)
    sol_c = evolve_full_grid(coupled, init, grid, grid, substeps=2)
    cross_c = float(np.max(np.abs(np.gradient(sol_c.x[0], grid, axis=1))))
    gaps = [grid_path_independence(coupled, init, (s, s), 0.01)
            for s in (0.4, 0.2, 0.1)]
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    checks = [
        (cross_free < 1e-10, f"free dx1/dt2 {cross_free:.2e} < 1e-10"),
        (gap_free < 1e-10, f"free corner gap {gap_free:.2e} < 1e-10"),
        (cross_c > 0.05, f"coupled dx1/dt2 {cross_c:.2e} measurable"),
        (all(abs(r - 4.0) / 4.0 < 0.2 for r in ratios),
         f"corner gap scales with area (ratios {ratios[0]:.2f}, "
         f"{ratios[1]:.2f} within 20% of 4)"),
    ]
    _report(capsys, 6, checks, time.monotonic() - start, 30.0)


def test_criterion_07_hj_sector(capsys):
    start = time.monotonic()
    s_free = HJFunction(FREE_S, 2, 1, [1.0, 1.0], HJ_CONSTS)
    res = hj_residual_multi(s_free, ["p1_1^2/2", "p2_1^2/2"],
                            [0.2, -0.3], [[-0.7], [0.9]])
    vel_free = hj_velocity_consistency_defect(s_free, [0.2, -0.3],
                                              [[-0.7], [0.9]])
    rep_free = foliation_compare(
        s_free, [Foliation([0.0]), Foliation([0.3]), Foliation([-0.5])],
        [[-1.0], [1.0]], (-1.0, 1.0), 0.01)
    dist_free = max(max(row) for row in rep_free.distances)

    s_cpl = HJFunction(COUPLED_S, 2, 1, [1.0, 1.0], HJ_CONSTS)
    vel_cpl = hj_velocity_consistency_defect(s_cpl, [0.4, 0.1],
                                             [[-0.7], [0.9]])
    rep_cpl = foliation_compare(s_cpl, [Foliation([0.0]), Foliation([0.3])],
                                [[-1.0], [1.0]], (-1.0, 1.0), 0.01)
    checks = [
        (max(res) < 1e-7, f"free residuals max {max(res):.2e} < 1e-7"),
        (vel_free < 1e-7, f"free velocity defect {vel_free:.2e} < 1e-7"),
        (rep_free.foliation_independent and dist_free < 1e-6,
         f"free family foliation-independent (sup {dist_free:.2e} < 1e-6)"),
        (vel_cpl > 1e-3, f"coupled defect {vel_cpl:.2e} > 1e-3"),
        (rep_cpl.distances[0][1] > 1e-3,
         f"coupled foliation distance {rep_cpl.distances[0][1]:.2e} > 1e-3"),
    ]
    _report(capsys, 7, checks, time.monotonic() - start, 20.0)


def test_criterion_08_structural_checks(capsys):
    start = time.monotonic()
    b = {"x1_1": 0.4, "p1_1": -0.2, "x2_1": -0.9, "p2_1": 0.6}
    canonical = abs(poisson_bracket("x1_1", "p1_1", 2, 1, b) - 1.0)
    f = "p1_1^2/2 + x1_1^2"
    g = "x1_1*p1_1"
    hh = "sin(x1_1) + p1_1"
    anti = abs(poisson_bracket(f, g, 2, 1, b)
               + poisson_bracket(g, f, 2, 1, b))
    from multitime.expr import evaluate, parse_expression
    leibniz = abs(
        poisson_bracket(f, f"({g})*({hh})", 2, 1, b)
        - poisson_bracket(f, g, 2, 1, b) * evaluate(parse_expression(hh), b)
        - evaluate(parse_expression(g), b) * poisson_bracket(f, hh, 2, 1, b))
    rng = np.random.default_rng(4)
    jacobi = 0.0
    for _ in range(5):
        mats = []
        for _ in range(3):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            mats.append(m + m.conj().T)
        a, bb, c = mats
        j = (commutator(a, commutator(bb, c))
             + commutator(bb, commutator(c, a))
             + commutator(c, commutator(a, bb)))
        jacobi = max(jacobi, norm_inf(j) / max(norm_inf(m) for m in mats))
    pt = PhasePoint(times=[0.3, 0.3], x=[[0.1], [-0.4]], p=[[0.5], [0.2]])
    sum_gap = equal_time_sum_gap(["p1_1^2/2", "p2_1^2/2"],
                                 "p1_1^2/2 + p2_1^2/2", pt)
    checks = [
        (canonical < 1e-9, f"canonical bracket exact to {canonical:.2e}"),
        (anti < 1e-9, f"antisymmetry to {anti:.2e}"),
        (leibniz < 1e-6, f"Leibniz rule to {leibniz:.2e} (< 1e-6)"),
        (jacobi < 1e-12, f"matrix Jacobi identity to {jacobi:.2e} (< 1e-12)"),
        (sum_gap < 1e-8, f"equal-time sum rule gap {sum_gap:.2e} < 1e-8"),
    ]
    _report(capsys, 8, checks, time.monotonic() - start, None)


def test_criterion_09_cjs_demonstration(capsys):
    start = time.monotonic()
    cfg = EXAMPLE_CONFIGS["cjs_family"]
    rng = np.random.default_rng(0)
    fields = []
    for member in cfg["experiment"]["family"]:
        fields.append((member["id"], PhaseVectorField.from_expressions(
            2, 1, member["field"]["v"], member["field"]["w"])))
    pts = [PhasePoint(times=rng.uniform(0, 1, 2),
                      x=rng.uniform(-1, 1, (2, 1)),
                      p=rng.uniform(-1, 1, (2, 1))) for _ in range(100)]
    init = PhasePoint(times=[0.0, 0.0], x=[[-2.0], [2.0]], p=[[0.1], [-0.1]])
    rows = {r["id"]: r for r in cjs_demo(fields, pts, init, (0.0, 2.0), 1e-3)}
    interacting = ("harmonic", "gaussian")
    checks = [
        (rows["free"]["max_defect"] < 1e-9,
         f"free member defect {rows['free']['max_defect']:.2e} < 1e-9"),
        (rows["free"]["straightness_deviation"] < 1e-9,
         f"free world lines straight to "
         f"{rows['free']['straightness_deviation']:.2e}"),
        (all(rows[m]["max_defect"] > 1e-3 for m in interacting),
         "every interacting member shows defect > 1e-3 "
         + str({m: f"{rows[m]['max_defect']:.2e}" for m in interacting})),
    ]
    _report(capsys, 9, checks, time.monotonic() - start, 10.0)


def test_criterion_10_determinism_and_convergence(capsys):
    start = time.monotonic()
    kind_to_sub = {k: sub for sub, kinds in _SUBCOMMAND_KINDS.items()
                   for k in kinds}
    mismatched = []
    drifted = [f"{name} (no golden results)"
               for name in EXAMPLE_CONFIGS if name not in GOLDEN]
    for name, cfg in EXAMPLE_CONFIGS.items():
        sub = kind_to_sub[cfg["experiment"]["kind"]]
        texts = []
        for _ in range(2):
            rep = run_config(copy.deepcopy(cfg), sub)
            rep.pop("duration_seconds")
            texts.append(json.dumps(rep, sort_keys=True))
        if texts[0] != texts[1]:
            mismatched.append(name)
        if name in GOLDEN:
            drift = _golden_drift(json.loads(texts[0])["results"], GOLDEN[name])
            drifted += [f"{name}{p}" for p in drift[:1]]

    harm = harmonic_field()
    init = PhasePoint(times=[0.0, 0.0], x=[[-0.5], [0.5]], p=[[0.3], [-0.1]])
    ref = evolve_equal_time(harm, init, (0.0, 2.0), 1e-4).line(1).x_at(2.0)[0]

    def rk4_err(dt):
        p = evolve_equal_time(harm, init, (0.0, 2.0), dt)
        return abs(p.line(1).x_at(2.0)[0] - ref)

    rk4_ratio = rk4_err(0.02) / rk4_err(0.01)

    sys_q = PartialHamiltonianSet.from_terms(
        2, 2,
        [[(pauli_string("ZI"), 1.0), (pauli_string("XI"), "0.3*sin(2*t1)")],
         [(pauli_string("IX"), 1.0)]])
    phi = np.zeros(4, dtype=complex)
    phi[0] = 1.0
    state = MultiTimeState(phi, [0.0, 0.0])

    def stair(m):
        return evolve_staircase(sys_q, state,
                                StaircasePath([Segment(1, 1.0, m)])).vector

    fine = stair(4096)
    stair_ratio = (np.linalg.norm(stair(32) - fine)
                   / np.linalg.norm(stair(64) - fine))
    checks = [
        (not mismatched,
         f"all {len(EXAMPLE_CONFIGS)} shipped configs reproduce "
         f"byte-for-byte (mismatched: {mismatched or 'none'})"),
        (not drifted,
         f"their results match tests/golden_results.json within "
         f"rel {GOLDEN_REL:g} / abs {GOLDEN_ABS:g} "
         f"(drifted: {drifted or 'none'})"),
        (10.0 < rk4_ratio < 25.0,
         f"halving dt shrinks equal-time error {rk4_ratio:.1f}x (~16x)"),
        (2.5 < stair_ratio < 6.0,
         f"halving substeps shrinks staircase error {stair_ratio:.2f}x (~4x)"),
    ]
    _report(capsys, 10, checks, time.monotonic() - start, None)
