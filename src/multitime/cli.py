"""Command-line front end.

Reads a strict JSON config, checks all of it, then runs one experiment
and writes a deterministic JSON report (plus optional CSV for tabular
data).  ``_KINDS`` is the one table of experiment kinds: for each
(formalism, kind) it names the subcommand that runs it, whether it writes
CSV, and the function that checks its config and builds its system.
That function returns a closure that does only the numerics.

Exit codes: 0 success, 2 config error or output error (a report, CSV
or examples path that cannot be written), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import classical, expr, hj, linops, quantum
from .configs import write_examples
from .expr import DomainError, ExpressionError, binding_names, free_variables
from .hj import FoliationError
from .reports import write_csv

CSV_FORMAT_VERSION = 1
#: the most sample points or time tuples one run may draw or build up front
MAX_POINTS = 10 ** 6


class ConfigError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path or '/'}: {message}")
        self.pointer = path


# ---------------------------------------------------------------- validation


def _obj(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _keys(obj: dict, path: str, required: Sequence[str],
          optional: Sequence[str] = ()) -> None:
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}/{key}", "unknown key (strict schema)")
    for key in required:
        if key not in obj:
            raise ConfigError(path, f"missing required key {key!r}")


def _num(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {value}")
    return value


def _int(value, path: str, minimum: int | None = None,
         maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"expected >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(path, f"expected <= {maximum}, got {value}")
    return value


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected a boolean, got {type(value).__name__}")
    return value


def _str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {type(value).__name__}")
    return value


def _list(value, path: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, f"expected an array, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise ConfigError(path, f"expected {length} entries, got {len(value)}")
    return value


def _positive(value, path: str) -> float:
    value = _num(value, path)
    if not value > 0.0:
        raise ConfigError(path, f"expected a number > 0, got {value}")
    return value


def _num_list(value, path: str, length: int | None = None) -> list[float]:
    return [_num(v, f"{path}/{i}") for i, v in enumerate(_list(value, path, length))]


def _axes(value, path: str, n: int, length: int) -> list[int]:
    """``length`` distinct 1-based time axes in 1..n."""
    axes = []
    for i, v in enumerate(_list(value, path, length)):
        ax = _int(v, f"{path}/{i}", 1)
        if ax > n:
            raise ConfigError(f"{path}/{i}", f"expected an axis in 1..{n}, got {ax}")
        if ax in axes:
            raise ConfigError(f"{path}/{i}", f"axis {ax} repeated")
        axes.append(ax)
    return axes


def _option(obj: dict, key: str, path: str, default, read, *args):
    """``obj[key]`` checked by ``read(value, pointer, *args)``.  An absent
    key takes ``default``, which is recorded in ``obj`` so that the report
    echoes it; a None default means "absent" and is returned unread."""
    if key not in obj:
        if default is None:
            return None
        obj[key] = default
    return read(obj[key], f"{path}/{key}", *args)


def _span(value, path: str) -> tuple[float, float]:
    lo, hi = _num_list(value, path, 2)
    if not lo < hi:
        raise ConfigError(path, f"expected a strictly increasing pair, "
                                f"got [{lo}, {hi}]")
    return lo, hi


def _box(value, path: str) -> tuple[float, float]:
    lo, hi = _num_list(value, path, 2)
    if not (lo <= hi and math.isfinite(hi - lo)):
        raise ConfigError(path, f"expected a pair lo <= hi with a finite "
                                f"hi - lo, got [{lo}, {hi}]")
    return lo, hi


def _matrix(value, path: str, rows: int, cols: int) -> np.ndarray:
    out = [_num_list(r, f"{path}/{i}", cols)
           for i, r in enumerate(_list(value, path, rows))]
    return np.array(out)


# -------------------------------------------------------- system construction


def _pauli_op_sum(value, path: str, n: int, numeric_only: bool) -> list:
    """List of {"op": "ZI..", "coeff": number-or-expression}."""
    terms = []
    for i, item in enumerate(_list(value, path)):
        ipath = f"{path}/{i}"
        item = _obj(item, ipath)
        _keys(item, ipath, ["op", "coeff"])
        op = _str(item["op"], f"{ipath}/op")
        if len(op) != n:
            raise ConfigError(f"{ipath}/op",
                              f"Pauli string must have length n = {n}")
        try:
            mat = linops.pauli_string(op)
        except ValueError as exc:
            raise ConfigError(f"{ipath}/op", str(exc)) from None
        coeff = item["coeff"]
        if isinstance(coeff, str):
            if numeric_only:
                raise ConfigError(f"{ipath}/coeff",
                                  "expected a numeric coefficient here")
            coeff = _expr(coeff, f"{ipath}/coeff", binding_names("t", n))
        else:
            coeff = _num(coeff, f"{ipath}/coeff")
        terms.append((mat, coeff))
    return terms


def _expr(value, path: str, names: Sequence[str]):
    """The expression of the string ``value``; each of its variables must
    be one of ``names``.  ``expr.parse_expression`` is looked up on the
    module at each call, so perfbench's ``expr.parse`` span counts it."""
    try:
        tree = expr.parse_expression(_str(value, path))
    except ExpressionError as exc:
        raise ConfigError(path, f"bad expression: {exc}") from None
    extra = free_variables(tree) - set(names)
    if extra:
        raise ConfigError(path, f"undeclared variables {sorted(extra)}")
    return tree


def _numeric_pauli_sum(value, path: str, n: int) -> np.ndarray:
    """A Pauli sum with numeric coefficients as a matrix; an empty sum is
    the 2^n-dimensional zero matrix."""
    terms = _pauli_op_sum(value, path, n, numeric_only=True)
    return sum((float(c) * op for op, c in terms),
               np.zeros((2**n, 2**n), dtype=np.complex128))


def build_quantum_system(cfg: dict, path: str) -> quantum.PartialHamiltonianSet:
    cfg = _obj(cfg, path)
    _keys(cfg, path, ["n", "local_dim", "hamiltonians"])
    n = _int(cfg["n"], f"{path}/n", minimum=1)
    k = _int(cfg["local_dim"], f"{path}/local_dim", minimum=2)
    ham = _obj(cfg["hamiltonians"], f"{path}/hamiltonians")
    hpath = f"{path}/hamiltonians"
    htype = _str(ham.get("type", ""), f"{hpath}/type")
    if htype in ("pauli_terms", "interaction_picture") and k != 2:
        raise ConfigError(f"{path}/local_dim", f"{htype} requires local_dim = 2")
    # n capped where 2^n passes the bound, so a huge n costs nothing
    if k ** min(n, linops.MAX_DENSE_DIM.bit_length()) > linops.MAX_DENSE_DIM:
        raise ConfigError(f"{path}/n", f"local_dim^n exceeds {linops.MAX_DENSE_DIM}")
    if htype == "pauli_terms":
        _keys(ham, hpath, ["type", "terms"])
        rows = _list(ham["terms"], f"{hpath}/terms", length=n)
        terms = [_pauli_op_sum(row, f"{hpath}/terms/{j}", n, numeric_only=False)
                 for j, row in enumerate(rows)]
        return quantum.PartialHamiltonianSet.from_terms(n, k, terms)
    if htype == "interaction_picture":
        _keys(ham, hpath, ["type", "base", "k"])
        base = _numeric_pauli_sum(ham["base"], f"{hpath}/base", n)
        ks = [_numeric_pauli_sum(row, f"{hpath}/k/{j}", n)
              for j, row in enumerate(_list(ham["k"], f"{hpath}/k", length=n))]
        return quantum.PartialHamiltonianSet.from_interaction_picture(base, ks, k)
    raise ConfigError(f"{hpath}/type",
                      f"unknown Hamiltonian type {htype!r} "
                      "(expected pauli_terms | interaction_picture)")


def _build_field(field_cfg: dict, path: str, n: int, d: int, grid: bool = False):
    """The system's phase-space field.  With ``grid`` the field must be
    ``partial_hamiltonians``, and the two-time ``HamiltonianPair`` of its
    H_1, H_2 is built instead, with the same ``h_step``."""
    field_cfg = _obj(field_cfg, path)
    ftype = _str(field_cfg.get("type", ""), f"{path}/type")
    if grid and ftype != "partial_hamiltonians":
        raise ConfigError(f"{path}/type", "the grid experiments need field "
                                          "type 'partial_hamiltonians'")
    names = (binding_names("t", n) + binding_names("x", n, d)
             + binding_names("p", n, d))
    try:
        if ftype == "expressions":
            _keys(field_cfg, path, ["type", "v", "w"])
            v, w = ([[_expr(c, f"{path}/{key}/{j}/{i}", names) for i, c in
                      enumerate(_list(row, f"{path}/{key}/{j}", length=d))]
                     for j, row in enumerate(_list(field_cfg[key], f"{path}/{key}", n))]
                    for key in ("v", "w"))
            return classical.PhaseVectorField.from_expressions(n, d, v, w)
        if ftype == "hamiltonian":
            _keys(field_cfg, path, ["type", "h"], ["h_step"])
            step = _option(field_cfg, "h_step", path, None, _positive)
            return classical.hamiltonian_vector_field(
                _expr(field_cfg["h"], f"{path}/h", names), n, d, h=step)
        if ftype == "partial_hamiltonians":
            _keys(field_cfg, path, ["type", "h_list"], ["h_step"])
            hs = [_expr(e, f"{path}/h_list/{j}", names) for j, e in
                  enumerate(_list(field_cfg["h_list"], f"{path}/h_list", n))]
            step = _option(field_cfg, "h_step", path, None, _positive)
            if grid:
                return classical.HamiltonianPair(hs, n, d, h=step)
            return classical.hamiltonian_vector_field(hs, n, d, h=step)
    except (ValueError, ExpressionError) as exc:
        raise ConfigError(path, str(exc)) from None
    raise ConfigError(f"{path}/type", f"unknown field type {ftype!r}")


def _classical_system(cfg: dict, path: str, grid: bool = False, field: bool = True):
    """n, d and the checked field: the ``HamiltonianPair`` for the grid
    kinds, and None without ``field`` (cjs-demo's fields are its family's)."""
    cfg = _obj(cfg, path)
    _keys(cfg, path, ["n", "d", "field"] if field else ["n", "d"])
    n = _int(cfg["n"], f"{path}/n", minimum=1)
    d = _int(cfg["d"], f"{path}/d", minimum=1)
    if d > 3:
        raise ConfigError(f"{path}/d", "d up to 3 supported")
    if not field:
        return n, d, None
    return n, d, _build_field(cfg["field"], f"{path}/field", n, d, grid)


def build_hj_system(cfg: dict, path: str):
    cfg = _obj(cfg, path)
    _keys(cfg, path, ["n", "d", "masses", "S"], ["constants", "hamiltonians"])
    n = _int(cfg["n"], f"{path}/n", minimum=1)
    d = _int(cfg["d"], f"{path}/d", minimum=1)
    # the velocity law divides by the masses
    masses = [_positive(m, f"{path}/masses/{j}")
              for j, m in enumerate(_list(cfg["masses"], f"{path}/masses", n))]
    constants = {}
    if "constants" in cfg:
        for key, val in _obj(cfg["constants"], f"{path}/constants").items():
            constants[key] = _num(val, f"{path}/constants/{key}")
    # S is a function of t1..tn, the positions and the constants; the
    # Hamiltonians also of the momenta, and h_total of the single time t
    names = [*binding_names("t", n), *binding_names("x", n, d), *constants]
    s = hj.HJFunction(_expr(cfg["S"], f"{path}/S", names), n, d, masses, constants)
    hams = None
    if "hamiltonians" in cfg:
        hpath = f"{path}/hamiltonians"
        ham = _obj(cfg["hamiltonians"], hpath)
        _keys(ham, hpath, ["h_list"], ["h_total"])
        names += binding_names("p", n, d)
        h_list = [_expr(e, f"{hpath}/h_list/{j}", names)
                  for j, e in enumerate(_list(ham["h_list"], f"{hpath}/h_list", n))]
        h_total = None
        if "h_total" in ham:
            h_total = _expr(ham["h_total"], f"{hpath}/h_total", [*names, "t"])
        hams = (h_list, h_total)
    return s, hams


def _initial_state(cfg, path: str, dim: int) -> np.ndarray:
    cfg = _obj(cfg, path)
    kind = _str(cfg.get("kind", ""), f"{path}/kind")
    if kind == "basis":
        _keys(cfg, path, ["kind"], ["index"])
        idx = _option(cfg, "index", path, 0, _int, 0)
        if idx >= dim:
            raise ConfigError(f"{path}/index", f"index {idx} >= dim {dim}")
        v = np.zeros(dim, dtype=np.complex128)
        v[idx] = 1.0
        return v
    if kind == "plus":
        _keys(cfg, path, ["kind"])
        return np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
    raise ConfigError(f"{path}/kind", f"unknown state kind {kind!r}")


def _phase_point(cfg, path: str, n: int, d: int) -> classical.PhasePoint:
    cfg = _obj(cfg, path)
    _keys(cfg, path, ["t", "x", "p"])
    t = _num(cfg["t"], f"{path}/t")
    x = _matrix(cfg["x"], f"{path}/x", n, d)
    p = _matrix(cfg["p"], f"{path}/p", n, d)
    return classical.PhasePoint(times=np.full(n, t), x=x, p=p)


def _sample_phase_points(cfg, path: str, n: int, d: int,
                         rng: np.random.Generator) -> list[classical.PhasePoint]:
    cfg = _obj(cfg, path)
    _keys(cfg, path, ["count", "t_box", "x_box", "p_box"])
    count = _int(cfg["count"], f"{path}/count", 1, MAX_POINTS)
    t_box, x_box, p_box = (_box(cfg[key], f"{path}/{key}")
                           for key in ("t_box", "x_box", "p_box"))
    return [classical.PhasePoint(times=rng.uniform(*t_box, size=n),
                                 x=rng.uniform(*x_box, size=(n, d)),
                                 p=rng.uniform(*p_box, size=(n, d)))
            for _ in range(count)]


def _bound_steps(steps: float, path: str) -> None:
    """Refuse, at ``path``, a run of more than ``classical.MAX_STEPS`` RK4
    steps (its states would be kept in memory)."""
    if steps > classical.MAX_STEPS:
        raise ConfigError(path, f"the run takes {steps:.3g} RK4 steps; at most "
                                f"{classical.MAX_STEPS} are allowed")


def _equal_time_steps(exp: dict) -> tuple[tuple[float, float], float]:
    """``t_span`` and ``dt`` of an equal-time run, with its step count bounded."""
    span = _span(exp["t_span"], f"{_E}/t_span")
    dt = _positive(exp["dt"], f"{_E}/dt")
    _bound_steps((span[1] - span[0]) / dt, f"{_E}/dt")
    return span, dt


def _foliation(cfg, path: str, d: int) -> hj.Foliation:
    cfg = _obj(cfg, path)
    _keys(cfg, path, ["u"])
    try:
        return hj.Foliation(_num_list(cfg["u"], f"{path}/u", d))
    except ValueError as exc:
        raise ConfigError(f"{path}/u", str(exc)) from None


def _leaves(exp: dict, fols: list[hj.Foliation], n: int, d: int):
    """``init_positions``, ``s_span`` and ``ds`` of a foliation kind.  A run
    on one of ``fols`` that would take more than ``classical.MAX_STEPS``
    leaves is refused, with the pointer at ``ds`` when the leaves are finer
    than the range is wide, else at the key that sets the range:
    ``init_positions`` when the anchor events stretch it beyond ``s_span``."""
    init = _matrix(exp["init_positions"], f"{_E}/init_positions", n, d)
    span = _span(exp["s_span"], f"{_E}/s_span")
    ds = _positive(exp["ds"], f"{_E}/ds")
    for fol in fols:
        lo, hi, steps = hj.foliation_leaves(fol, init, span, ds)
        if steps > classical.MAX_STEPS:
            if (hi - lo) * ds < 1.0:
                key = "ds"
            else:
                key = "init_positions" if (lo, hi) != span else "s_span"
            raise ConfigError(f"{_E}/{key}", (
                f"the run on the foliation {fol.label()} takes {steps:.3g} leaves "
                f"(s from {lo:.6g} to {hi:.6g} in steps of {ds:g}); at most "
                f"{classical.MAX_STEPS} are allowed"))
    return init, span, ds


# --------------------------------------------------------------- experiments
#
# A kind function checks its system and experiment blocks in full, builds the
# system and draws its random samples.  It returns ``run``, which does the
# numerics and returns the results and, for a kind that writes CSV, the
# function that builds the table.

_E = "/experiment"


def _quantum_defect_grid(system: dict, exp: dict, rng):
    sys_q = build_quantum_system(system, "/system")
    _keys(exp, _E, ["kind", "grid"], ["h"])
    grid = _obj(exp["grid"], f"{_E}/grid")
    _keys(grid, f"{_E}/grid", ["t_min", "t_max", "points_per_axis"])
    t_min = _num(grid["t_min"], f"{_E}/grid/t_min")
    t_max = _num(grid["t_max"], f"{_E}/grid/t_max")
    pts = _int(grid["points_per_axis"], f"{_E}/grid/points_per_axis", 1)
    if pts ** sys_q.n > MAX_POINTS:
        raise ConfigError(f"{_E}/grid/points_per_axis", f"the grid has {pts}^{sys_q.n} "
                          f"time tuples; at most {MAX_POINTS} are allowed")
    h = _option(exp, "h", _E, 1e-4, _positive)

    def run():
        axes = [np.linspace(t_min, t_max, pts)] * sys_q.n
        tuples = [np.array(tt) for tt in
                  np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, sys_q.n)]
        reports = [quantum.quantum_consistency_defect(sys_q, tt, h=h) for tt in tuples]
        points = [{"times": tt.tolist(), **rep.to_dict()}
                  for tt, rep in zip(tuples, reports)]
        return {"points": points, "max_defect": max(r.max_defect for r in reports),
                "h": h}, None

    return run


def _staircase(system: dict, exp: dict, rng):
    sys_q = build_quantum_system(system, "/system")
    _keys(exp, _E, ["kind", "start", "end"], ["order", "max_dt", "initial_state",
                                              "compare_diagonal", "diagonal_steps"])
    start = _num_list(exp["start"], f"{_E}/start", sys_q.n)
    end = _num_list(exp["end"], f"{_E}/end", sys_q.n)
    max_dt = _option(exp, "max_dt", _E, 1e-2, _positive)
    # a permutation of 1..n, so that the staircase ends at ``end``
    order = _option(exp, "order", _E, None, _axes, sys_q.n, sys_q.n)
    phi0 = _option(exp, "initial_state", _E, {"kind": "basis", "index": 0},
                   _initial_state, sys_q.dim)
    compare = _option(exp, "compare_diagonal", _E, False, _bool)
    steps = _option(exp, "diagonal_steps", _E, 1000, _int, 1)
    if compare and not (np.allclose(start, start[0]) and np.allclose(end, end[0])):
        raise ConfigError(f"{_E}/compare_diagonal", "diagonal comparison needs "
                                                    "equal-time start and end tuples")

    def run():
        path = quantum.staircase_between(start, end, order=order, max_dt=max_dt)
        state0 = quantum.MultiTimeState(vector=phi0, times=np.array(start))
        final = quantum.evolve_staircase(sys_q, state0, path)
        results = {
            "final_times": final.times.tolist(),
            "norm_drift": abs(final.norm() - float(np.linalg.norm(phi0))),
            "final_state_re": final.vector.real.tolist(),
            "final_state_im": final.vector.imag.tolist(),
        }
        if compare:
            psi = quantum.diagonal_evolution(sys_q, phi0, start[0], end[0], steps)
            results["diagonal_distance"] = float(np.linalg.norm(psi - final.vector))
        return results, None

    return run


def _holonomy(system: dict, exp: dict, rng):
    sys_q = build_quantum_system(system, "/system")
    _keys(exp, _E, ["kind", "base_times", "axes", "sizes"], ["max_dt", "initial_state"])
    base = _num_list(exp["base_times"], f"{_E}/base_times", sys_q.n)
    axes = _axes(exp["axes"], f"{_E}/axes", sys_q.n, 2)
    sizes = [_positive(v, f"{_E}/sizes/{i}")
             for i, v in enumerate(_list(exp["sizes"], f"{_E}/sizes"))]
    for i, size in enumerate(sizes):
        if not size * size > 0.0:  # the holonomy is divided by this area
            raise ConfigError(f"{_E}/sizes/{i}", f"size {size} has an area of 0")
    max_dt = _option(exp, "max_dt", _E, 1e-2, _positive)
    phi0 = _option(exp, "initial_state", _E, {"kind": "basis", "index": 0},
                   _initial_state, sys_q.dim)

    def one(size: float) -> dict:
        hol = quantum.rectangle_holonomy(
            sys_q, base, axes[0], axes[1], size, size, phi0, max_dt=max_dt)
        return {"size": size, "area": size * size, "holonomy": hol,
                "holonomy_per_area": hol / (size * size)}

    def run():
        table = [one(size) for size in sizes]
        c = quantum.consistency_defect_matrix(sys_q, base, axes[0], axes[1])
        return {"table": table, "defect_vector_norm": float(np.linalg.norm(c @ phi0)),
                "defect_norm_inf": linops.norm_inf(c)}, None

    return run


def _defect_summary(reports) -> dict:
    values = [r.max_defect for r in reports]
    return {"sample_count": len(values), "max_defect": max(values),
            "min_defect": min(values)}


def _classical_defect_grid(system: dict, exp: dict, rng):
    n, d, field = _classical_system(system, "/system")
    _keys(exp, _E, ["kind", "samples"], ["h"])
    h = _option(exp, "h", _E, 1e-4, _positive)
    points = _sample_phase_points(exp["samples"], f"{_E}/samples", n, d, rng)

    def run():
        reports = [classical.classical_consistency_defect(field, pt, h=h)
                   for pt in points]
        return {**_defect_summary(reports), "h": h}, None

    return run


def _equal_time_evolve(system: dict, exp: dict, rng):
    n, d, field = _classical_system(system, "/system")
    _keys(exp, _E, ["kind", "init", "t_span", "dt"])
    init = _phase_point(exp["init"], f"{_E}/init", n, d)
    span, dt = _equal_time_steps(exp)

    def run():
        npath = classical.evolve_equal_time(field, init, span, dt, timelike_warning=False)
        return {"samples_per_line": len(npath.lines[0].t), "max_speed": npath.max_speed(),
                "final_x": [line.x[-1].tolist() for line in npath.lines],
                "final_p": [line.p[-1].tolist() for line in npath.lines]}, npath.csv_table

    return run


def _validity(system: dict, exp: dict, rng):
    n, d, field = _classical_system(system, "/system")
    _keys(exp, _E, ["kind", "init", "t_span", "dt", "samples"])
    init = _phase_point(exp["init"], f"{_E}/init", n, d)
    span, dt = _equal_time_steps(exp)
    samples_cfg = _obj(exp["samples"], f"{_E}/samples")
    _keys(samples_cfg, f"{_E}/samples", ["count", "window"])
    count = _int(samples_cfg["count"], f"{_E}/samples/count", 1, MAX_POINTS)
    window = _num(samples_cfg["window"], f"{_E}/samples/window")
    if not 0.0 <= 2 * window <= span[1] - span[0]:
        raise ConfigError(f"{_E}/samples/window", f"expected 0 <= 2 * window <= "
                                                  f"t_span length, got window {window}")

    def run():
        npath = classical.evolve_equal_time(field, init, span, dt, timelike_warning=False)
        lo, hi = npath.common_time_range()
        # the path may end a rounding error short of t_span[1]
        base_hi = max(hi - window, lo + window)
        tuples = []
        for _ in range(count):
            base = rng.uniform(lo + window, base_hi)
            tup = base + rng.uniform(-window, window, size=n)
            tuples.append(np.clip(tup, lo, hi))
        report = classical.validity_residual(field, npath, tuples)
        return {"max_residual": report.max_residual, "rejected_samples": report.rejected,
                "accepted_samples": len(report.rows) - report.rejected,
                "rows": report.rows}, None

    return run


def _full_grid(system: dict, exp: dict, rng):
    n, d, hpair = _classical_system(system, "/system", grid=True)
    _keys(exp, _E, ["kind", "init", "t1_max", "t2_max", "points"], ["substeps"])
    init = _phase_point(exp["init"], f"{_E}/init", n, d)
    t1m = _num(exp["t1_max"], f"{_E}/t1_max")
    t2m = _num(exp["t2_max"], f"{_E}/t2_max")
    pts = _int(exp["points"], f"{_E}/points", 2)
    sub = _option(exp, "substeps", _E, 4, _int, 1)
    _bound_steps(pts * pts * sub, f"{_E}/points")
    t0 = float(init.times[0])  # the same for both particles
    for key, span in (("t1_max", t1m), ("t2_max", t2m)):
        if not math.isfinite(t0 + span):
            raise ConfigError(f"{_E}/{key}", f"t + {key} = {t0 + span} is not finite")
    t1g, t2g = (np.linspace(t0, t0 + span, pts) for span in (t1m, t2m))
    # dx1/dt2 is taken by np.gradient, which divides by the t2 node gaps
    if len(np.unique(t2g)) < pts:
        raise ConfigError(f"{_E}/t2_max", f"the {pts} t2 nodes from t = {t0!r} "
                                          f"to t + t2_max are not all distinct")

    def run():
        sol = classical.evolve_full_grid(hpair, init, t1g, t2g, substeps=sub)
        with np.errstate(all="ignore"):  # _check_finite reports a non-finite slope
            cross = np.gradient(sol.x[0], t2g, axis=1)
        return {"grid_shape": [pts, pts], "max_dx1_dt2": float(np.max(np.abs(cross))),
                "corner_x": sol.x[:, -1, -1, :].tolist(),
                "corner_p": sol.p[:, -1, -1, :].tolist()}, sol.csv_table

    return run


def _path_independence(system: dict, exp: dict, rng):
    n, d, hpair = _classical_system(system, "/system", grid=True)
    _keys(exp, _E, ["kind", "init", "rectangle", "dt"], ["refinements"])
    init = _phase_point(exp["init"], f"{_E}/init", n, d)
    rect = _num_list(exp["rectangle"], f"{_E}/rectangle", 2)
    dt = _positive(exp["dt"], f"{_E}/dt")
    if 0.0 not in rect:  # else grid_path_independence takes no step
        _bound_steps(abs(rect[0]) / dt + abs(rect[1]) / dt, f"{_E}/dt")
    refinements = _option(exp, "refinements", _E, 0, _int, 0)

    def run():
        table = []
        for level in range(refinements + 1):
            scale = 0.5**level
            r = (rect[0] * scale, rect[1] * scale)
            gap = classical.grid_path_independence(hpair, init, r, dt)
            table.append({"rectangle": list(r), "area": r[0] * r[1], "gap": gap})
        for i in range(1, len(table)):
            prev, cur = table[i - 1], table[i]
            cur["gap_ratio_vs_previous"] = (
                prev["gap"] / cur["gap"] if cur["gap"] > 0 else None)
        return {"table": table}, None

    return run


def _cjs_demo(system: dict, exp: dict, rng):
    n, d, _ = _classical_system(system, "/system", field=False)
    _keys(exp, _E, ["kind", "family", "samples", "init", "t_span", "dt"], ["h"])
    h = _option(exp, "h", _E, 1e-4, _positive)
    family = []
    for i, member in enumerate(_list(exp["family"], f"{_E}/family")):
        mpath = f"{_E}/family/{i}"
        member = _obj(member, mpath)
        _keys(member, mpath, ["id", "field"])
        fld = _build_field(member["field"], f"{mpath}/field", n, d)
        family.append((_str(member["id"], f"{mpath}/id"), fld))
    points = _sample_phase_points(exp["samples"], f"{_E}/samples", n, d, rng)
    init = _phase_point(exp["init"], f"{_E}/init", n, d)
    span, dt = _equal_time_steps(exp)
    return lambda: ({"table": classical.cjs_demo(family, points, init, span, dt,
                                                 h=h)}, None)


def _hj_residual(system: dict, exp: dict, rng):
    s, hams = build_hj_system(system, "/system")
    if hams is None:
        raise ConfigError("/system", "hj-residual needs system.hamiltonians")
    h_list, h_total = hams
    _keys(exp, _E, ["kind", "points"], ["h"])
    step = _option(exp, "h", _E, None, _positive)
    points = []
    for i, pt in enumerate(_list(exp["points"], f"{_E}/points")):
        ppath = f"{_E}/points/{i}"
        pt = _obj(pt, ppath)
        _keys(pt, ppath, ["times", "x"])
        points.append((_num_list(pt["times"], f"{ppath}/times", s.n),
                       _matrix(pt["x"], f"{ppath}/x", s.n, s.d)))

    def run():
        rows = []
        for times, x in points:
            residuals = hj.hj_residual_multi(s, h_list, times, x, h=step)
            row = {"times": times, "residuals": residuals}
            if h_total is not None and np.allclose(times, times[0]):
                p = np.reshape(s.gradients(step)(times, x.ravel().tolist()), x.shape)
                point = classical.PhasePoint(times=np.asarray(times), x=x, p=p)
                row["sum_rule_gap"] = hj.equal_time_sum_gap(
                    h_list, h_total, point, constants=s.constants)
            rows.append(row)
        worst = max([0.0] + [max(row["residuals"]) for row in rows])
        return {"points": rows, "max_residual": worst}, None

    return run


def _hj_defect_grid(system: dict, exp: dict, rng):
    s, hams = build_hj_system(system, "/system")
    if hams is None:
        raise ConfigError("/system", "the HJ defect grid needs system.hamiltonians")
    _keys(exp, _E, ["kind", "samples"], ["h"])
    step = _option(exp, "h", _E, None, _positive)
    points = _sample_phase_points(exp["samples"], f"{_E}/samples", s.n, s.d, rng)

    def run():
        reports = [hj.hj_consistency_defect(hams[0], pt, h=step, constants=s.constants)
                   for pt in points]
        return _defect_summary(reports), None

    return run


def _trajectories(system: dict, exp: dict, rng):
    s, _ = build_hj_system(system, "/system")
    _keys(exp, _E, ["kind", "foliation", "init_positions", "s_span", "ds"])
    fol = _foliation(exp["foliation"], f"{_E}/foliation", s.d)
    init, span, ds = _leaves(exp, [fol], s.n, s.d)

    def run():
        npath = hj.hj_trajectories_foliation(s, fol, init, span, ds)
        ranges = [[line.t_min, line.t_max] for line in npath.lines]
        return {"foliation": fol.label(), "time_ranges": ranges,
                "max_speed": npath.max_speed()}, npath.csv_table

    return run


def _foliation_compare(system: dict, exp: dict, rng):
    s, _ = build_hj_system(system, "/system")
    _keys(exp, _E, ["kind", "foliations", "init_positions", "s_span", "ds"],
          ["tolerance"])
    fols = [_foliation(fc, f"{_E}/foliations/{i}", s.d)
            for i, fc in enumerate(_list(exp["foliations"], f"{_E}/foliations"))]
    if len(fols) < 2:
        raise ConfigError(f"{_E}/foliations", "need >= 2 foliations")
    init, span, ds = _leaves(exp, fols, s.n, s.d)
    tol = _option(exp, "tolerance", _E, hj.FOLIATION_INDEPENDENCE_TOL, _positive)
    return lambda: (hj.foliation_compare(s, fols, init, span, ds,
                                         tolerance=tol).to_dict(), None)


class _Kind(NamedTuple):
    subcommand: str
    csv: bool  # whether ``--csv`` is supported
    prepare: Callable  # (system, experiment, rng) -> run


_KINDS: dict[tuple[str, str], _Kind] = {
    ("quantum", "defect-grid"): _Kind("check", False, _quantum_defect_grid),
    ("classical", "defect-grid"): _Kind("check", False, _classical_defect_grid),
    ("hj", "defect-grid"): _Kind("check", False, _hj_defect_grid),
    ("quantum", "staircase"): _Kind("evolve", False, _staircase),
    ("classical", "equal-time-evolve"): _Kind("evolve", True, _equal_time_evolve),
    ("quantum", "holonomy"): _Kind("holonomy", False, _holonomy),
    ("classical", "validity"): _Kind("validity", False, _validity),
    ("classical", "full-grid"): _Kind("grid", True, _full_grid),
    ("classical", "path-independence"): _Kind("grid", False, _path_independence),
    ("hj", "hj-residual"): _Kind("hj", False, _hj_residual),
    ("hj", "trajectories"): _Kind("foliation", True, _trajectories),
    ("hj", "foliation-compare"): _Kind("foliation", False, _foliation_compare),
    ("classical", "cjs-demo"): _Kind("cjs", False, _cjs_demo),
}

_FORMALISMS = tuple(dict.fromkeys(f for f, _ in _KINDS))

_SUBCOMMAND_KINDS: dict[str, set[str]] = {
    sub: {kind for (_, kind), entry in _KINDS.items() if entry.subcommand == sub}
    for sub in dict.fromkeys(entry.subcommand for entry in _KINDS.values())}


# ------------------------------------------------------------------ plumbing


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read config: {exc}")
    except ValueError as exc:  # JSONDecodeError, undecodable bytes, huge ints
        raise ConfigError("", f"invalid JSON: {exc}")
    cfg = _obj(raw, "")
    _keys(cfg, "", ["formalism", "system", "experiment"], ["seed"])
    formalism = _str(cfg["formalism"], "/formalism")
    if formalism not in _FORMALISMS:
        raise ConfigError("/formalism", f"expected {' | '.join(_FORMALISMS)}, "
                                        f"got {formalism!r}")
    _option(cfg, "seed", "", 0, _int, 0)
    exp = _obj(cfg["experiment"], "/experiment")
    if "kind" not in exp:
        raise ConfigError("/experiment", "missing required key 'kind'")
    _str(exp["kind"], "/experiment/kind")
    return cfg


def _check_finite(value, path: str) -> None:
    """FloatingPointError naming the first non-finite number in ``value``,
    a nest of dicts and lists (JSON has no such numbers)."""
    if isinstance(value, float) and not math.isfinite(value):
        raise FloatingPointError(f"non-finite result at {path}: {value}")
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{path}/{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_finite(item, f"{path}/{i}")


def run_config(cfg: dict, subcommand: str, jobs=None,
               csv_path: str | None = None) -> dict:
    """The report of one run; ``jobs`` is ignored (runs are serial)."""
    formalism, kind = cfg["formalism"], cfg["experiment"]["kind"]
    allowed = _SUBCOMMAND_KINDS[subcommand]
    if kind not in allowed:
        raise ConfigError("/experiment/kind", f"kind {kind!r} not valid for subcommand "
                          f"{subcommand!r} (expected one of {sorted(allowed)})")
    entry = _KINDS.get((formalism, kind))
    if entry is None:
        raise ConfigError("/experiment/kind", f"unsupported {formalism} kind {kind!r}")
    if csv_path and not entry.csv:
        raise ConfigError("/experiment/kind", f"kind {kind!r} produces no CSV output")
    start = time.monotonic()
    rng = np.random.default_rng(cfg["seed"])
    # every config error is raised here, before any numerics run
    run = entry.prepare(cfg["system"], cfg["experiment"], rng)
    results, csv_table = run()
    _check_finite(results, "/results")
    report = {"config": cfg, "results": results,
              "duration_seconds": time.monotonic() - start}
    if csv_path:
        columns, rows = csv_table()
        write_csv(csv_path, columns, rows)
        report["csv"] = {"path": csv_path, "columns": columns,
                         "format_version": CSV_FORMAT_VERSION}
    return report


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="multitime",
        description="multi-time consistency experiments: quantum, classical "
                    "and Hamilton-Jacobi",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMAND_KINDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None,
                       help="report JSON path (default: stdout)")
        p.add_argument("--csv", default=None,
                       help="write tabular data (paths, grids) as CSV")
        p.add_argument("--jobs", type=int, help="ignored: runs are serial")
    pex = sub.add_parser("examples")
    pex.add_argument("--dir", default="configs",
                     help="directory for the shipped example configs")

    args = parser.parse_args(argv)

    try:
        if args.subcommand == "examples":
            written = write_examples(args.dir)
            print("\n".join(written))
            return 0
        cfg = _load_config(args.config)
        report = run_config(cfg, args.subcommand, csv_path=args.csv)
        text = json.dumps(report, indent=2, sort_keys=True)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    except (FloatingPointError, OverflowError, FoliationError,
            DomainError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ExpressionError) as exc:  # DomainError is caught above
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output file or directory that cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
