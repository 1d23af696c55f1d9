"""The classical kinds of the CLI: the readers of a classical system
block and its field (``_classical_system``, ``_build_field``) and of a
phase point, and the kind functions ``_classical_defect_grid``,
``_equal_time_evolve``, ``_validity``, ``_full_grid``,
``_path_independence`` and ``_cjs_demo``, each of which checks its config
in full and returns its run (see ``cli``); it imports ``spec``, never
``cli``.  ``cli._KINDS`` loads this module at the first call of a
classical kind; it loads ``classical`` and ``paths`` in its functions.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from . import expr
from .spec import (_E, _KIND, _REQ, MAX_POINTS, ConfigError, _blame, _defect_summary,
                   _each, _expr, _int, _num, _obj, _positive, _read, _sample_phase_points,
                   _some, _span, _str, _tag)
from .expr import ExpressionError

if TYPE_CHECKING:
    from . import paths


def _build_field(field_cfg: dict, path: str, n: int, d: int, grid: bool = False):
    """The system's phase-space field.  With ``grid`` the field must be
    ``partial_hamiltonians``, and the two-time ``HamiltonianPair`` of its
    H_1, H_2 is built instead, with the same ``h_step``."""
    from . import classical

    ftype = _tag(field_cfg, path, "type")
    if grid and ftype != "partial_hamiltonians":
        raise ConfigError(f"{path}/type", "the grid experiments need field "
                                          "type 'partial_hamiltonians'")
    names = sum(expr.phase_names(n, d), ())
    rows, step = (_REQ, _each, n, _each, d, _expr, names), (None, _positive)
    try:
        if ftype == "expressions":
            _, v, w = _read(field_cfg, path, {"type": (_REQ, _str), "v": rows, "w": rows})
            return classical.PhaseVectorField.from_expressions(n, d, v, w)
        if ftype == "hamiltonian":
            _, h_step, h = _read(field_cfg, path, {"type": (_REQ, _str), "h_step": step,
                                                   "h": (_REQ, _expr, names)})
            return classical.hamiltonian_vector_field(h, n, d, h=h_step)
        if ftype == "partial_hamiltonians":
            _, hs, h_step = _read(field_cfg, path, {
                "type": (_REQ, _str), "h_list": (_REQ, _each, n, _expr, names),
                "h_step": step})
            if grid:
                return classical.HamiltonianPair(hs, n, d, h=h_step)
            return classical.hamiltonian_vector_field(hs, n, d, h=h_step)
    except (ValueError, ExpressionError) as exc:
        raise ConfigError(path, str(exc)) from None
    raise ConfigError(f"{path}/type", f"unknown field type {ftype!r} (expected "
                                      "expressions | hamiltonian | partial_hamiltonians)")


def _classical_system(cfg: dict, path: str, grid: bool = False, field: bool = True):
    """n, d and the checked field: the ``HamiltonianPair`` for the grid
    kinds, whose n must be 2, and None without ``field`` (cjs-demo's fields
    are its family's)."""
    spec = {"n": (_REQ, _int, 1), "d": (_REQ, _int, 1)}
    if field:
        spec["field"] = (_REQ, _obj)
    n, d, *field_cfg = _read(cfg, path, spec)
    if grid and n != 2:
        raise ConfigError(f"{path}/n", "the full-grid system is implemented for n = 2")
    if d > 3:
        raise ConfigError(f"{path}/d", "d up to 3 supported")
    if not field:
        return n, d, None
    return n, d, _build_field(field_cfg[0], f"{path}/field", n, d, grid)


def _phase_point(cfg, path: str, n: int, d: int) -> paths.PhasePoint:
    from . import paths

    rows = (_REQ, _each, n, _each, d, _num)
    t, x, p = _read(cfg, path, {"t": (_REQ, _num), "x": rows, "p": rows})
    return paths.PhasePoint(times=np.full(n, t), x=x, p=p)


#: the keys of an equal-time run, whose steps the kind bounds at ``dt``
_EQUAL_TIME = {"t_span": (_REQ, _span), "dt": (_REQ, _positive)}


def _classical_defect_grid(system: dict, exp: dict, seed: int):
    from . import classical

    n, d, field = _classical_system(system, "/system")
    _, h, samples = _read(exp, _E, {"kind": _KIND, "h": (1e-4, _positive), "samples": (
        _REQ, _sample_phase_points, n, d, seed)})

    def run():
        return {**_defect_summary(classical.classical_defect_grid(field, samples, h)),
                "h": h}, None

    return run


def _equal_time_evolve(system: dict, exp: dict, seed: int):
    from . import classical

    n, d, field = _classical_system(system, "/system")
    _, init, span, dt = _read(exp, _E, {"kind": _KIND, "init": (_REQ, _phase_point, n, d),
                                        **_EQUAL_TIME})
    _blame(f"{_E}/dt", classical.equal_time_steps, span, dt)

    def run():
        npath = classical.evolve_equal_time(field, init, span, dt)
        return {"samples_per_line": len(npath.lines[0].t), "max_speed": npath.max_speed(),
                "final_x": [line.x[-1].tolist() for line in npath.lines],
                "final_p": [line.p[-1].tolist() for line in npath.lines]}, npath.csv_table

    return run


def _validity(system: dict, exp: dict, seed: int):
    from . import classical

    n, d, field = _classical_system(system, "/system")
    _, init, span, dt, (count, window) = _read(exp, _E, {
        "kind": _KIND, "init": (_REQ, _phase_point, n, d), **_EQUAL_TIME,
        "samples": (_REQ, _read, {"count": (_REQ, _int, 1, MAX_POINTS),
                                  "window": (_REQ, _num)})})
    _blame(f"{_E}/dt", classical.equal_time_steps, span, dt)
    if not 0.0 <= 2 * window <= span[1] - span[0]:
        raise ConfigError(f"{_E}/samples/window", f"expected 0 <= 2 * window <= "
                                                  f"t_span length, got window {window}")

    def run():
        npath = classical.evolve_equal_time(field, init, span, dt)
        lo, hi = npath.common_time_range()
        # the path may end a rounding error short of t_span[1]
        base_hi = max(hi - window, lo + window)
        # each sample's base time, then its n offsets: the stream of drawing them in turn
        draws = np.random.default_rng(seed).uniform(
            [lo + window] + [-window] * n, [base_hi] + [window] * n, size=(count, n + 1))
        tuples = np.clip(draws[:, :1] + draws[:, 1:], lo, hi)
        return classical.validity_residual(field, npath, tuples), None

    return run


def _full_grid(system: dict, exp: dict, seed: int):
    from . import classical

    n, d, hpair = _classical_system(system, "/system", grid=True)
    _, init, t1m, t2m, pts, sub = _read(exp, _E, {
        "kind": _KIND, "init": (_REQ, _phase_point, n, d), "t1_max": (_REQ, _num),
        "t2_max": (_REQ, _num), "points": (_REQ, _int, 2), "substeps": (4, _int, 1)})
    _blame(f"{_E}/points", classical.full_grid_steps, pts, pts, sub)
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


def _path_independence(system: dict, exp: dict, seed: int):
    from . import classical

    n, d, hpair = _classical_system(system, "/system", grid=True)
    _, init, rect, dt, refinements = _read(exp, _E, {
        "kind": _KIND, "init": (_REQ, _phase_point, n, d),
        "rectangle": (_REQ, _each, 2, _num), "dt": (_REQ, _positive),
        "refinements": (0, _int, 0, MAX_POINTS - 1)})
    steps = sum(_blame(f"{_E}/dt", classical.rectangle_steps, rect, dt))
    # level l halves the rectangle l times, so all levels (one table row
    # each) take about 2 - 2^-l times level 0's steps
    _blame(f"{_E}/refinements", expr.bound_steps, steps * (2.0 - 0.5 ** refinements))

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


def _cjs_demo(system: dict, exp: dict, seed: int):
    from . import classical

    n, d, _ = _classical_system(system, "/system", field=False)
    _, h, family, samples, init, span, dt = _read(exp, _E, {
        "kind": _KIND, "h": (1e-4, _positive),
        "family": (_REQ, _some, _read, {"id": (_REQ, _str),
                                        "field": (_REQ, _build_field, n, d)}),
        "samples": (_REQ, _sample_phase_points, n, d, seed),
        "init": (_REQ, _phase_point, n, d), **_EQUAL_TIME})
    _blame(f"{_E}/dt", classical.equal_time_steps, span, dt)
    return lambda: ({"table": classical.cjs_demo(family, samples, init, span, dt,
                                                 h=h)}, None)
