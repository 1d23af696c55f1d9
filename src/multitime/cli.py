"""Command-line front end.

Reads a strict JSON config, runs one experiment, and writes a
deterministic JSON report (plus optional CSV for tabular data).

Subcommands and experiment kinds:

    check      defect-grid (quantum | classical | hj)
    evolve     staircase | equal-time-evolve
    holonomy   holonomy
    validity   validity
    grid       full-grid | path-independence
    hj         hj-residual
    foliation  trajectories | foliation-compare
    cjs        cjs-demo
    examples   write the shipped example configs

Exit codes: 0 success, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from . import classical, hj, linops, quantum
from .configs import write_examples
from .expr import DomainError, ExpressionError
from .hj import FoliationError
from .reports import write_csv

CSV_FORMAT_VERSION = 1

_SUBCOMMAND_KINDS = {
    "check": {"defect-grid"},
    "evolve": {"staircase", "equal-time-evolve"},
    "holonomy": {"holonomy"},
    "validity": {"validity"},
    "grid": {"full-grid", "path-independence"},
    "hj": {"hj-residual"},
    "foliation": {"trajectories", "foliation-compare"},
    "cjs": {"cjs-demo"},
}


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
    return float(value)


def _int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"expected >= {minimum}, got {value}")
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


def _optional_positive(obj: dict, key: str, path: str) -> float | None:
    """``obj[key]`` as a number > 0, or None when the key is absent."""
    value = obj.get(key)
    return _positive(value, f"{path}/{key}") if value is not None else None


def _span(value, path: str) -> tuple[float, float]:
    lo, hi = _num_list(value, path, 2)
    if not lo < hi:
        raise ConfigError(path, f"expected a strictly increasing pair, "
                                f"got [{lo}, {hi}]")
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
            _parse_expr(coeff, f"{ipath}/coeff")
        else:
            coeff = _num(coeff, f"{ipath}/coeff")
        terms.append((mat, coeff))
    return terms


def _parse_expr(source: str, path: str):
    from .expr import parse_expression

    try:
        return parse_expression(source)
    except ExpressionError as exc:
        raise ConfigError(path, f"bad expression: {exc}") from None


def _const_matrix_from_terms(terms: list) -> np.ndarray:
    m = sum(float(c) * op for op, c in terms)
    return np.asarray(m, dtype=np.complex128)


def build_quantum_system(cfg: dict, path: str) -> quantum.PartialHamiltonianSet:
    cfg = _obj(cfg, path)
    _keys(cfg, path, ["n", "local_dim", "hamiltonians"])
    n = _int(cfg["n"], f"{path}/n", minimum=1)
    k = _int(cfg["local_dim"], f"{path}/local_dim", minimum=2)
    ham = _obj(cfg["hamiltonians"], f"{path}/hamiltonians")
    hpath = f"{path}/hamiltonians"
    htype = _str(ham.get("type", ""), f"{hpath}/type")
    if htype == "pauli_terms":
        _keys(ham, hpath, ["type", "terms"])
        if k != 2:
            raise ConfigError(f"{path}/local_dim",
                              "pauli_terms requires local_dim = 2")
        rows = _list(ham["terms"], f"{hpath}/terms", length=n)
        terms = [_pauli_op_sum(row, f"{hpath}/terms/{j}", n, numeric_only=False)
                 for j, row in enumerate(rows)]
        return quantum.PartialHamiltonianSet.from_terms(n, k, terms)
    if htype == "interaction_picture":
        _keys(ham, hpath, ["type", "base", "k"])
        if k != 2:
            raise ConfigError(f"{path}/local_dim",
                              "interaction_picture examples use local_dim = 2")
        base = _const_matrix_from_terms(
            _pauli_op_sum(ham["base"], f"{hpath}/base", n, numeric_only=True))
        rows = _list(ham["k"], f"{hpath}/k", length=n)
        ks = [_const_matrix_from_terms(
            _pauli_op_sum(row, f"{hpath}/k/{j}", n, numeric_only=True))
            for j, row in enumerate(rows)]
        return quantum.PartialHamiltonianSet.from_interaction_picture(base, ks, k)
    raise ConfigError(f"{hpath}/type",
                      f"unknown Hamiltonian type {htype!r} "
                      "(expected pauli_terms | interaction_picture)")


def _build_field(field_cfg: dict, path: str, n: int, d: int,
                 masses: list[float]) -> classical.PhaseVectorField:
    field_cfg = _obj(field_cfg, path)
    ftype = _str(field_cfg.get("type", ""), f"{path}/type")
    try:
        if ftype == "expressions":
            _keys(field_cfg, path, ["type", "v", "w"])
            v = [[_str(c, f"{path}/v/{j}/{i}") for i, c in
                  enumerate(_list(row, f"{path}/v/{j}", length=d))]
                 for j, row in enumerate(_list(field_cfg["v"], f"{path}/v", n))]
            w = [[_str(c, f"{path}/w/{j}/{i}") for i, c in
                  enumerate(_list(row, f"{path}/w/{j}", length=d))]
                 for j, row in enumerate(_list(field_cfg["w"], f"{path}/w", n))]
            return classical.PhaseVectorField.from_expressions(n, d, masses, v, w)
        if ftype == "hamiltonian":
            _keys(field_cfg, path, ["type", "h"], ["h_step"])
            step = _optional_positive(field_cfg, "h_step", path)
            return classical.hamiltonian_vector_field(
                _str(field_cfg["h"], f"{path}/h"), n, d, masses, h=step)
        if ftype == "partial_hamiltonians":
            _keys(field_cfg, path, ["type", "h_list"], ["h_step"])
            hs = [_str(e, f"{path}/h_list/{j}") for j, e in
                  enumerate(_list(field_cfg["h_list"], f"{path}/h_list", n))]
            step = _optional_positive(field_cfg, "h_step", path)
            return classical.hamiltonian_vector_field(hs, n, d, masses, h=step)
    except (ValueError, ExpressionError) as exc:
        raise ConfigError(path, str(exc)) from None
    raise ConfigError(f"{path}/type", f"unknown field type {ftype!r}")


def build_classical_system(cfg: dict, path: str, field_required: bool = True):
    cfg = _obj(cfg, path)
    _keys(cfg, path, ["n", "d", "masses"], ["field"])
    n = _int(cfg["n"], f"{path}/n", minimum=1)
    d = _int(cfg["d"], f"{path}/d", minimum=1)
    if d > 3:
        raise ConfigError(f"{path}/d", "d up to 3 supported")
    masses = _num_list(cfg["masses"], f"{path}/masses", length=n)
    field = None
    if "field" in cfg:
        field = _build_field(cfg["field"], f"{path}/field", n, d, masses)
    elif field_required:
        raise ConfigError(path, "missing required key 'field'")
    return n, d, masses, field, cfg


def build_hj_system(cfg: dict, path: str):
    cfg = _obj(cfg, path)
    _keys(cfg, path, ["n", "d", "masses", "S"], ["constants", "hamiltonians"])
    n = _int(cfg["n"], f"{path}/n", minimum=1)
    d = _int(cfg["d"], f"{path}/d", minimum=1)
    masses = _num_list(cfg["masses"], f"{path}/masses", length=n)
    constants = {}
    if "constants" in cfg:
        for key, val in _obj(cfg["constants"], f"{path}/constants").items():
            constants[key] = _num(val, f"{path}/constants/{key}")
    expr = _parse_expr(_str(cfg["S"], f"{path}/S"), f"{path}/S")
    s = hj.HJFunction(expr, n, d, masses, constants)
    hams = None
    if "hamiltonians" in cfg:
        hpath = f"{path}/hamiltonians"
        ham = _obj(cfg["hamiltonians"], hpath)
        _keys(ham, hpath, ["h_list"], ["h_total"])
        h_list = [_parse_expr(_str(e, f"{hpath}/h_list/{j}"), f"{hpath}/h_list/{j}")
                  for j, e in enumerate(_list(ham["h_list"], f"{hpath}/h_list", n))]
        h_total = None
        if "h_total" in ham:
            h_total = _parse_expr(_str(ham["h_total"], f"{hpath}/h_total"),
                                  f"{hpath}/h_total")
        hams = (h_list, h_total)
    return s, hams


def _initial_state(cfg, path: str, dim: int) -> np.ndarray:
    if cfg is None:
        cfg = {"kind": "basis", "index": 0}
    cfg = _obj(cfg, path)
    kind = _str(cfg.get("kind", ""), f"{path}/kind")
    if kind == "basis":
        _keys(cfg, path, ["kind"], ["index"])
        idx = _int(cfg.get("index", 0), f"{path}/index", minimum=0)
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
    count = _int(cfg["count"], f"{path}/count", minimum=1)
    t_box = _num_list(cfg["t_box"], f"{path}/t_box", 2)
    x_box = _num_list(cfg["x_box"], f"{path}/x_box", 2)
    p_box = _num_list(cfg["p_box"], f"{path}/p_box", 2)
    points = []
    for _ in range(count):
        points.append(classical.PhasePoint(
            times=rng.uniform(t_box[0], t_box[1], size=n),
            x=rng.uniform(x_box[0], x_box[1], size=(n, d)),
            p=rng.uniform(p_box[0], p_box[1], size=(n, d)),
        ))
    return points


# ------------------------------------------------------------------- helpers


def _resolve_jobs(flag_value: int | None) -> int:
    env = os.environ.get("MULTITIME_JOBS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError("MULTITIME_JOBS", f"not an integer: {env!r}")
    if flag_value is not None:
        return max(1, flag_value)
    return os.cpu_count() or 1


def _pmap(fn, items, jobs: int) -> list:
    """Order-preserving map over a worker pool (deterministic assembly)."""
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# --------------------------------------------------------------- experiments


def run_quantum(cfg: dict, exp: dict, jobs: int, csv_path: str | None):
    sys_q = build_quantum_system(cfg["system"], "/system")
    kind = exp["kind"]
    epath = "/experiment"
    if kind == "defect-grid":
        _keys(exp, epath, ["kind", "grid"], ["h"])
        grid = _obj(exp["grid"], f"{epath}/grid")
        _keys(grid, f"{epath}/grid", ["t_min", "t_max", "points_per_axis"])
        t_min = _num(grid["t_min"], f"{epath}/grid/t_min")
        t_max = _num(grid["t_max"], f"{epath}/grid/t_max")
        pts = _int(grid["points_per_axis"], f"{epath}/grid/points_per_axis", 1)
        h = _positive(exp.get("h", 1e-4), f"{epath}/h")
        exp.setdefault("h", h)
        axes = [np.linspace(t_min, t_max, pts)] * sys_q.n
        tuples = [np.array(tt) for tt in
                  np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, sys_q.n)]
        reports = _pmap(
            lambda tt: quantum.quantum_consistency_defect(sys_q, tt, h=h),
            tuples, jobs)
        points = [{"times": tt.tolist(), **rep.to_dict()}
                  for tt, rep in zip(tuples, reports)]
        return {
            "points": points,
            "max_defect": max(r.max_defect for r in reports),
            "h": h,
        }, None
    if kind == "staircase":
        _keys(exp, epath, ["kind", "start", "end"],
              ["order", "max_dt", "initial_state", "compare_diagonal",
               "diagonal_steps"])
        start = _num_list(exp["start"], f"{epath}/start", sys_q.n)
        end = _num_list(exp["end"], f"{epath}/end", sys_q.n)
        max_dt = _positive(exp.get("max_dt", 1e-2), f"{epath}/max_dt")
        exp.setdefault("max_dt", max_dt)
        order = None
        if "order" in exp:
            # a permutation of 1..n, so that the staircase ends at ``end``
            order = _axes(exp["order"], f"{epath}/order", sys_q.n, sys_q.n)
        phi0 = _initial_state(exp.get("initial_state"),
                              f"{epath}/initial_state", sys_q.dim)
        exp.setdefault("initial_state", {"kind": "basis", "index": 0})
        path = quantum.staircase_between(start, end, order=order, max_dt=max_dt)
        state0 = quantum.MultiTimeState(vector=phi0, times=np.array(start))
        final = quantum.evolve_staircase(sys_q, state0, path)
        results = {
            "final_times": final.times.tolist(),
            "norm_drift": abs(final.norm() - float(np.linalg.norm(phi0))),
            "final_state_re": final.vector.real.tolist(),
            "final_state_im": final.vector.imag.tolist(),
        }
        if exp.get("compare_diagonal", False):
            exp.setdefault("compare_diagonal", False)
            steps = _int(exp.get("diagonal_steps", 1000),
                         f"{epath}/diagonal_steps", 1)
            exp.setdefault("diagonal_steps", steps)
            if not (np.allclose(start, start[0]) and np.allclose(end, end[0])):
                raise ConfigError(f"{epath}/compare_diagonal",
                                  "diagonal comparison needs equal-time "
                                  "start and end tuples")
            psi = quantum.diagonal_evolution(sys_q, phi0, start[0], end[0], steps)
            results["diagonal_distance"] = float(
                np.linalg.norm(psi - final.vector))
        return results, None
    if kind == "holonomy":
        _keys(exp, epath, ["kind", "base_times", "axes", "sizes"],
              ["max_dt", "initial_state"])
        base = _num_list(exp["base_times"], f"{epath}/base_times", sys_q.n)
        axes = _axes(exp["axes"], f"{epath}/axes", sys_q.n, 2)
        sizes = [_positive(v, f"{epath}/sizes/{i}")
                 for i, v in enumerate(_list(exp["sizes"], f"{epath}/sizes"))]
        max_dt = _positive(exp.get("max_dt", 1e-2), f"{epath}/max_dt")
        exp.setdefault("max_dt", max_dt)
        phi0 = _initial_state(exp.get("initial_state"),
                              f"{epath}/initial_state", sys_q.dim)
        exp.setdefault("initial_state", {"kind": "basis", "index": 0})

        def one(size: float) -> dict:
            hol = quantum.rectangle_holonomy(
                sys_q, base, axes[0], axes[1], size, size, phi0, max_dt=max_dt)
            return {"size": size, "area": size * size, "holonomy": hol,
                    "holonomy_per_area": hol / (size * size)}

        table = _pmap(one, sizes, jobs)
        c = quantum.consistency_defect_matrix(sys_q, base, axes[0], axes[1])
        return {
            "table": table,
            "defect_vector_norm": float(np.linalg.norm(c @ phi0)),
            "defect_norm_inf": linops.norm_inf(c),
        }, None
    raise ConfigError("/experiment/kind", f"unsupported quantum kind {kind!r}")


def run_classical(cfg: dict, exp: dict, jobs: int, csv_path: str | None,
                  rng: np.random.Generator):
    kind = exp["kind"]
    epath = "/experiment"
    field_required = kind != "cjs-demo"
    n, d, masses, field, _ = build_classical_system(
        cfg["system"], "/system", field_required=field_required)
    if kind == "defect-grid":
        _keys(exp, epath, ["kind", "samples"], ["h"])
        h = _positive(exp.get("h", 1e-4), f"{epath}/h")
        exp.setdefault("h", h)
        points = _sample_phase_points(exp["samples"], f"{epath}/samples", n, d, rng)
        reports = _pmap(
            lambda pt: classical.classical_consistency_defect(field, pt, h=h),
            points, jobs)
        values = [r.max_defect for r in reports]
        return {
            "sample_count": len(values),
            "max_defect": max(values),
            "min_defect": min(values),
            "h": h,
        }, None
    if kind == "equal-time-evolve":
        _keys(exp, epath, ["kind", "init", "t_span", "dt"])
        init = _phase_point(exp["init"], f"{epath}/init", n, d)
        span = _span(exp["t_span"], f"{epath}/t_span")
        dt = _positive(exp["dt"], f"{epath}/dt")
        npath = classical.evolve_equal_time(field, init, span, dt,
                                            timelike_warning=False)
        results = {
            "samples_per_line": len(npath.lines[0].t),
            "max_speed": npath.max_speed(),
            "final_x": [line.x[-1].tolist() for line in npath.lines],
            "final_p": [line.p[-1].tolist() for line in npath.lines],
        }
        payload = npath.csv_table() if csv_path else None
        return results, payload
    if kind == "validity":
        _keys(exp, epath, ["kind", "init", "t_span", "dt", "samples"])
        init = _phase_point(exp["init"], f"{epath}/init", n, d)
        span = _span(exp["t_span"], f"{epath}/t_span")
        dt = _positive(exp["dt"], f"{epath}/dt")
        samples_cfg = _obj(exp["samples"], f"{epath}/samples")
        _keys(samples_cfg, f"{epath}/samples", ["count", "window"])
        count = _int(samples_cfg["count"], f"{epath}/samples/count", 1)
        window = _num(samples_cfg["window"], f"{epath}/samples/window")
        if not 0.0 <= 2 * window <= span[1] - span[0]:
            raise ConfigError(f"{epath}/samples/window",
                              f"expected 0 <= 2 * window <= t_span length, "
                              f"got window {window}")
        npath = classical.evolve_equal_time(field, init, span, dt,
                                            timelike_warning=False)
        lo, hi = npath.common_time_range()
        # the path may end a rounding error short of t_span[1]
        base_hi = max(hi - window, lo + window)
        tuples = []
        for _ in range(count):
            base = rng.uniform(lo + window, base_hi)
            tup = base + rng.uniform(-window, window, size=n)
            tuples.append(np.clip(tup, lo, hi))
        report = classical.validity_residual(field, npath, tuples)
        return {
            "max_residual": report.max_residual,
            "rejected_samples": report.rejected,
            "accepted_samples": len(report.rows) - report.rejected,
            "rows": report.rows,
        }, None
    if kind == "full-grid":
        _keys(exp, epath, ["kind", "init", "t1_max", "t2_max", "points"],
              ["substeps"])
        hpair = _hpair_from_system(cfg["system"], n, d)
        init = _phase_point(exp["init"], f"{epath}/init", n, d)
        t1m = _num(exp["t1_max"], f"{epath}/t1_max")
        t2m = _num(exp["t2_max"], f"{epath}/t2_max")
        pts = _int(exp["points"], f"{epath}/points", 2)
        sub = _int(exp.get("substeps", 4), f"{epath}/substeps", 1)
        exp.setdefault("substeps", sub)
        t1g = np.linspace(init.times[0], init.times[0] + t1m, pts)
        t2g = np.linspace(init.times[1], init.times[1] + t2m, pts)
        sol = classical.evolve_full_grid(hpair, init, t1g, t2g, substeps=sub)
        cross = np.gradient(sol.x[0], t2g, axis=1)
        results = {
            "grid_shape": [pts, pts],
            "max_dx1_dt2": float(np.max(np.abs(cross))),
            "corner_x": sol.x[:, -1, -1, :].tolist(),
            "corner_p": sol.p[:, -1, -1, :].tolist(),
        }
        payload = None
        if csv_path:
            columns = ["t1", "t2"] + [
                f"{name}{j + 1}_{dd + 1}" for name in ("x", "p")
                for j in range(n) for dd in range(d)]
            rows = []
            for i1, t1v in enumerate(t1g):
                for i2, t2v in enumerate(t2g):
                    row = [repr(float(t1v)), repr(float(t2v))]
                    for arr in (sol.x, sol.p):
                        for j in range(n):
                            row += [repr(float(v)) for v in arr[j, i1, i2]]
                    rows.append(row)
            payload = (columns, rows)
        return results, payload
    if kind == "path-independence":
        _keys(exp, epath, ["kind", "init", "rectangle", "dt"], ["refinements"])
        hpair = _hpair_from_system(cfg["system"], n, d)
        init = _phase_point(exp["init"], f"{epath}/init", n, d)
        rect = _num_list(exp["rectangle"], f"{epath}/rectangle", 2)
        dt = _positive(exp["dt"], f"{epath}/dt")
        refinements = _int(exp.get("refinements", 0), f"{epath}/refinements", 0)
        exp.setdefault("refinements", refinements)
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
    if kind == "cjs-demo":
        _keys(exp, epath,
              ["kind", "family", "samples", "init", "t_span", "dt"], ["h"])
        h = _positive(exp.get("h", 1e-4), f"{epath}/h")
        exp.setdefault("h", h)
        family = []
        for i, member in enumerate(_list(exp["family"], f"{epath}/family")):
            mpath = f"{epath}/family/{i}"
            member = _obj(member, mpath)
            _keys(member, mpath, ["id", "field"])
            fld = _build_field(member["field"], f"{mpath}/field", n, d, masses)
            family.append((_str(member["id"], f"{mpath}/id"), fld))
        points = _sample_phase_points(exp["samples"], f"{epath}/samples", n, d, rng)
        init = _phase_point(exp["init"], f"{epath}/init", n, d)
        span = _span(exp["t_span"], f"{epath}/t_span")
        dt = _positive(exp["dt"], f"{epath}/dt")
        rows = classical.cjs_demo(family, points, init, span, dt, h=h)
        return {"table": rows}, None
    raise ConfigError("/experiment/kind", f"unsupported classical kind {kind!r}")


def _hpair_from_system(sys_cfg: dict, n: int, d: int) -> classical.HamiltonianPair:
    field_cfg = _obj(sys_cfg, "/system").get("field")
    field_cfg = _obj(field_cfg, "/system/field")
    if field_cfg.get("type") != "partial_hamiltonians":
        raise ConfigError("/system/field/type",
                          "the grid experiments need field type "
                          "'partial_hamiltonians'")
    hs = [_str(e, f"/system/field/h_list/{j}")
          for j, e in enumerate(_list(field_cfg["h_list"],
                                      "/system/field/h_list", n))]
    try:
        return classical.HamiltonianPair(hs, n, d)
    except (ValueError, ExpressionError) as exc:
        raise ConfigError("/system/field", str(exc)) from None


def run_hj(cfg: dict, exp: dict, jobs: int, csv_path: str | None,
           rng: np.random.Generator):
    s, hams = build_hj_system(cfg["system"], "/system")
    kind = exp["kind"]
    epath = "/experiment"
    if kind == "hj-residual":
        _keys(exp, epath, ["kind", "points"], ["h"])
        if hams is None:
            raise ConfigError("/system",
                              "hj-residual needs system.hamiltonians")
        h_list, h_total = hams
        step = _optional_positive(exp, "h", epath)
        rows = []
        worst = 0.0
        for i, pt in enumerate(_list(exp["points"], f"{epath}/points")):
            ppath = f"{epath}/points/{i}"
            pt = _obj(pt, ppath)
            _keys(pt, ppath, ["times", "x"])
            times = _num_list(pt["times"], f"{ppath}/times", s.n)
            x = _matrix(pt["x"], f"{ppath}/x", s.n, s.d)
            residuals = hj.hj_residual_multi(s, h_list, times, x, h=step)
            row = {"times": times, "residuals": residuals}
            if h_total is not None and np.allclose(times, times[0]):
                point = classical.PhasePoint(
                    times=np.asarray(times),
                    x=x,
                    p=np.stack([s.grad_x(j, times, x)
                                for j in range(1, s.n + 1)]),
                )
                row["sum_rule_gap"] = hj.equal_time_sum_gap(
                    h_list, h_total, point, constants=s.constants)
            rows.append(row)
            worst = max(worst, max(residuals))
        return {"points": rows, "max_residual": worst}, None
    if kind == "defect-grid":
        _keys(exp, epath, ["kind", "samples"], ["h"])
        if hams is None:
            raise ConfigError("/system",
                              "the HJ defect grid needs system.hamiltonians")
        h_list, _ = hams
        step = _optional_positive(exp, "h", epath)
        points = _sample_phase_points(exp["samples"], f"{epath}/samples",
                                      s.n, s.d, rng)
        reports = _pmap(
            lambda pt: hj.hj_consistency_defect(h_list, pt, h=step,
                                                constants=s.constants),
            points, jobs)
        values = [r.max_defect for r in reports]
        return {
            "sample_count": len(values),
            "max_defect": max(values),
            "min_defect": min(values),
        }, None
    if kind == "trajectories":
        _keys(exp, epath, ["kind", "foliation", "init_positions",
                           "s_span", "ds"])
        fol_cfg = _obj(exp["foliation"], f"{epath}/foliation")
        _keys(fol_cfg, f"{epath}/foliation", ["u"])
        try:
            fol = hj.Foliation(_num_list(fol_cfg["u"], f"{epath}/foliation/u",
                                         s.d))
        except ValueError as exc:
            raise ConfigError(f"{epath}/foliation/u", str(exc)) from None
        init = _matrix(exp["init_positions"], f"{epath}/init_positions",
                       s.n, s.d)
        span = _span(exp["s_span"], f"{epath}/s_span")
        ds = _positive(exp["ds"], f"{epath}/ds")
        npath = hj.hj_trajectories_foliation(s, fol, init, span, ds)
        results = {
            "foliation": fol.label(),
            "time_ranges": [[line.t_min, line.t_max] for line in npath.lines],
            "max_speed": npath.max_speed(),
        }
        payload = npath.csv_table() if csv_path else None
        return results, payload
    if kind == "foliation-compare":
        _keys(exp, epath, ["kind", "foliations", "init_positions",
                           "s_span", "ds"], ["tolerance"])
        fols = []
        for i, fc in enumerate(_list(exp["foliations"], f"{epath}/foliations")):
            fpath = f"{epath}/foliations/{i}"
            fc = _obj(fc, fpath)
            _keys(fc, fpath, ["u"])
            try:
                fols.append(hj.Foliation(_num_list(fc["u"], f"{fpath}/u", s.d)))
            except ValueError as exc:
                raise ConfigError(f"{fpath}/u", str(exc)) from None
        if len(fols) < 2:
            raise ConfigError(f"{epath}/foliations", "need >= 2 foliations")
        init = _matrix(exp["init_positions"], f"{epath}/init_positions",
                       s.n, s.d)
        span = _span(exp["s_span"], f"{epath}/s_span")
        ds = _positive(exp["ds"], f"{epath}/ds")
        tol = _num(exp.get("tolerance", hj.FOLIATION_INDEPENDENCE_TOL),
                   f"{epath}/tolerance")
        exp.setdefault("tolerance", tol)
        report = hj.foliation_compare(s, fols, init, span, ds, tolerance=tol)
        return report.to_dict(), None
    raise ConfigError("/experiment/kind", f"unsupported hj kind {kind!r}")


# ------------------------------------------------------------------ plumbing


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON: {exc}")
    cfg = _obj(raw, "")
    _keys(cfg, "", ["formalism", "system", "experiment"], ["seed"])
    formalism = _str(cfg["formalism"], "/formalism")
    if formalism not in ("quantum", "classical", "hj"):
        raise ConfigError("/formalism",
                          f"expected quantum | classical | hj, got {formalism!r}")
    cfg.setdefault("seed", 0)
    _int(cfg["seed"], "/seed", 0)
    exp = _obj(cfg["experiment"], "/experiment")
    if "kind" not in exp:
        raise ConfigError("/experiment", "missing required key 'kind'")
    _str(exp["kind"], "/experiment/kind")
    return cfg


def run_config(cfg: dict, subcommand: str, jobs: int,
               csv_path: str | None) -> dict:
    kind = cfg["experiment"]["kind"]
    allowed = _SUBCOMMAND_KINDS[subcommand]
    if kind not in allowed:
        raise ConfigError("/experiment/kind",
                          f"kind {kind!r} not valid for subcommand "
                          f"{subcommand!r} (expected one of {sorted(allowed)})")
    rng = np.random.default_rng(cfg["seed"])
    start = time.monotonic()
    formalism = cfg["formalism"]
    if formalism == "quantum":
        results, csv_payload = run_quantum(cfg, cfg["experiment"], jobs, csv_path)
    elif formalism == "classical":
        results, csv_payload = run_classical(cfg, cfg["experiment"], jobs,
                                             csv_path, rng)
    else:
        results, csv_payload = run_hj(cfg, cfg["experiment"], jobs, csv_path, rng)
    duration = time.monotonic() - start
    report = {
        "config": cfg,
        "results": results,
        "jobs": jobs,
        "duration_seconds": duration,
    }
    if csv_path:
        if csv_payload is None:
            raise ConfigError("/experiment/kind",
                              f"kind {kind!r} produces no CSV output")
        columns, rows = csv_payload
        write_csv(csv_path, columns, rows)
        report["csv"] = {
            "path": csv_path,
            "columns": columns,
            "format_version": CSV_FORMAT_VERSION,
        }
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
        p.add_argument("--jobs", type=int, default=None,
                       help="worker pool size (default: available cores; "
                            "env MULTITIME_JOBS overrides)")
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
        jobs = _resolve_jobs(args.jobs)
        report = run_config(cfg, args.subcommand, jobs, args.csv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, OverflowError, FoliationError,
            DomainError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ExpressionError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
