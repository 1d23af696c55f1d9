"""The Hamilton-Jacobi kinds of the CLI: the reader of an HJ system block,
``build_hj_system``, with those of a foliation and of its leaves, and the
kind functions ``_hj_residual``, ``_hj_defect_grid``, ``_trajectories``
and ``_foliation_compare``, each of which checks its config in full and
returns its run (see ``cli``); it imports ``spec``, never ``cli``.
``cli._KINDS`` loads this module at the first call of an HJ kind; it
loads ``hj`` and ``paths`` in its functions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import expr
from .spec import (_E, _KIND, _REQ, ConfigError, _blame, _defect_summary, _each, _expr,
                   _int, _list, _num, _obj, _positive, _read, _sample_phase_points, _some,
                   _span, _str)
from .expr import binding_names

if TYPE_CHECKING:
    from . import hj


def build_hj_system(cfg: dict, path: str):
    from . import hj

    # the masses have n entries, and S and the Hamiltonians name n and d
    n, d, masses, constants, s_text, hams = _read(cfg, path, {
        "n": (_REQ, _int, 1), "d": (_REQ, _int, 1), "masses": (_REQ, _list),
        "constants": (None, _obj), "S": (_REQ, _str), "hamiltonians": (None, _obj)})
    # the velocity law divides by the masses
    masses = _each(masses, f"{path}/masses", n, _positive)
    # S is a function of t1..tn, the positions and the constants; the
    # Hamiltonians also of the momenta, and h_total of the single time t
    names = [*binding_names("t", n), *binding_names("x", n, d)]
    numbers = {}
    for key, val in (constants or {}).items():
        if key in {*names, *binding_names("p", n, d), "t"}:
            raise ConfigError(f"{path}/constants/{key}", "names a variable of the system")
        numbers[key] = expr.Num(_num(val, f"{path}/constants/{key}"))
    s = hj.HJFunction(_expr(s_text, f"{path}/S", names, numbers), n, d, masses)
    if hams is not None:
        names += binding_names("p", n, d)
        hams = _read(hams, f"{path}/hamiltonians", {
            "h_list": (_REQ, _each, n, _expr, names, numbers),
            "h_total": (None, _expr, [*names, "t"], numbers)})
    return s, hams


def _foliation(cfg, path: str, d: int) -> hj.Foliation:
    from . import hj

    [u] = _read(cfg, path, {"u": (_REQ, _each, d, _num)})
    return _blame(f"{path}/u", hj.Foliation, u)


def _leaf_keys(n: int, d: int) -> dict:
    """The keys of a foliation kind's leaves, which ``_leaves`` bounds."""
    return {"init_positions": (_REQ, _each, n, _each, d, _num),
            "s_span": (_REQ, _span), "ds": (_REQ, _positive)}


def _leaves(fols: list[hj.Foliation], init: list, span: tuple[float, float], ds: float):
    """A run on one of ``fols`` that would take more than ``MAX_STEPS``
    leaves is refused, with the pointer at ``ds`` when the leaves are finer
    than the range is wide, else at the key that sets the range:
    ``init_positions`` when the anchor events stretch it beyond ``s_span``."""
    from . import hj

    for fol in fols:
        lo, hi, steps = hj.foliation_leaves(fol, init, span, ds)
        try:
            expr.bound_steps(steps, "leaves")
        except ValueError as exc:
            if (hi - lo) * ds < 1.0:
                key = "ds"
            else:
                key = "init_positions" if (lo, hi) != span else "s_span"
            raise ConfigError(f"{_E}/{key}", (
                f"the run on the foliation {fol.label()} (s from {lo:.6g} to "
                f"{hi:.6g} in steps of {ds:g}): {exc}")) from None


def _hj_residual(system: dict, exp: dict, seed: int):
    from . import hj, paths

    s, hams = build_hj_system(system, "/system")
    if hams is None:
        raise ConfigError("/system", "hj-residual needs system.hamiltonians")
    h_list, h_total = hams
    _, step, points = _read(exp, _E, {
        "kind": _KIND, "h": (None, _positive), "points": (_REQ, _some, _read, {
            "times": (_REQ, _each, s.n, _num), "x": (_REQ, _each, s.n, _each, s.d, _num)})})

    def run():
        rows = []
        for times, x in points:
            x = np.array(x)
            residuals = hj.hj_residual_multi(s, h_list, times, x, h=step)
            row = {"times": times, "residuals": residuals}
            if h_total is not None and np.allclose(times, times[0]):
                p = np.reshape(s.gradients(step)(times, x.ravel().tolist()), x.shape)
                point = paths.PhasePoint(times=np.asarray(times), x=x, p=p)
                row["sum_rule_gap"] = hj.equal_time_sum_gap(h_list, h_total, point)
            rows.append(row)
        worst = max(max(row["residuals"]) for row in rows)  # points has an entry
        return {"points": rows, "max_residual": worst}, None

    return run


def _hj_defect_grid(system: dict, exp: dict, seed: int):
    from . import hj

    s, hams = build_hj_system(system, "/system")
    if hams is None:
        raise ConfigError("/system", "the HJ defect grid needs system.hamiltonians")
    _, step, samples = _read(exp, _E, {"kind": _KIND, "h": (None, _positive), "samples": (
        _REQ, _sample_phase_points, s.n, s.d, seed)})
    return lambda: (_defect_summary(hj.hj_defect_grid(hams[0], s.n, s.d, samples, step)),
                    None)


def _trajectories(system: dict, exp: dict, seed: int):
    from . import hj

    s, _ = build_hj_system(system, "/system")
    _, fol, init, span, ds = _read(exp, _E, {
        "kind": _KIND, "foliation": (_REQ, _foliation, s.d), **_leaf_keys(s.n, s.d)})
    _leaves([fol], init, span, ds)

    def run():
        npath = hj.hj_trajectories_foliation(s, fol, init, span, ds)
        ranges = [[line.t_min, line.t_max] for line in npath.lines]
        return {"foliation": fol.label(), "time_ranges": ranges,
                "max_speed": npath.max_speed()}, npath.csv_table

    return run


def _foliation_compare(system: dict, exp: dict, seed: int):
    from . import hj

    s, _ = build_hj_system(system, "/system")
    _, fols, init, span, ds, tol = _read(exp, _E, {
        "kind": _KIND, "foliations": (_REQ, _each, None, _foliation, s.d),
        **_leaf_keys(s.n, s.d), "tolerance": (hj.FOLIATION_INDEPENDENCE_TOL, _positive)})
    if len(fols) < 2:
        raise ConfigError(f"{_E}/foliations", "need >= 2 foliations")
    _leaves(fols, init, span, ds)
    return lambda: (hj.foliation_compare(s, fols, init, span, ds, tolerance=tol), None)
