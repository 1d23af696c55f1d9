"""Command-line front end.

Reads a strict JSON config, checks all of it, then runs one experiment
and writes a deterministic JSON report (plus optional CSV for tabular
data).  ``_KINDS`` is the one table of experiment kinds: for each
(formalism, kind) it names the subcommand that runs it, whether it writes
CSV, and the function that checks its config and builds its system.
That function returns a closure that does only the numerics.  It bounds
the run's work with the library's plan functions, which the run itself
counts with, and picks the pointer to blame; it sums only a holonomy's
staircases over its sizes and path-independence's levels.  A formalism
module imports only the shared layer (``expr``, ``reports``, ``paths``,
``numdiff``, ``linops``), never another formalism, and a run imports only
the formalism it uses (``quantum`` with ``linops``, ``classical`` with
``paths``, or ``hj`` with ``paths`` and ``numdiff``), inside the functions
of that formalism, and ``numpy.random`` only if it draws samples;
``examples`` imports only the configs.

Exit codes: 0 success, 2 config error or output error (a report, CSV
or examples path that cannot be written, or a report that cannot be
printed), 3 numerical failure.  A run that exits 2 or 3 leaves no report
or CSV behind.  Run as ``python -m multitime.cli``, the process ends
through ``multitime._exit``; ``main`` itself returns the code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

if __name__ == "__main__":  # ``python -m multitime.cli``: before numpy loads its BLAS
    from . import _one_blas_thread

    _one_blas_thread()

import numpy as np

from . import expr
from .expr import (MAX_STEPS, DomainError, ExpressionError, FoliationError,
                   binding_names, free_variables)
from .reports import pair_keys, write_csv

if TYPE_CHECKING:
    from . import hj, paths, quantum

CSV_FORMAT_VERSION = 1
#: the most sample points or time tuples one run may draw or build up front
MAX_POINTS = 10 ** 6


class ConfigError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path or '/'}: {message}")
        self.pointer = path


# ---------------------------------------------------------------- validation
#
# Each config block has one spec, a dict that maps each of its keys, in the
# order they are read, to ``(default, read, *args)``: the entry is read by
# ``read(value, pointer, *args)``, and ``_REQ`` marks a required key.


_REQ = object()  # the default of a required key


def _obj(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _tag(value, path: str, key: str) -> str:
    """The string at ``key`` of the object ``value``, which selects the
    spec that reads the object; a missing one is a missing required key."""
    if key not in _obj(value, path):
        raise ConfigError(path, f"missing required key {key!r}")
    return _str(value[key], f"{path}/{key}")


def _read(value, path: str, spec: dict) -> list:
    """The entries of the object ``value``, read in the order of ``spec``.
    An unknown key is refused first, then a missing required key.  An
    absent key takes its default, which is recorded in ``value`` so that
    the report echoes it; a None default leaves it absent, read as None."""
    obj = _obj(value, path)
    for key in obj:
        if key not in spec:
            raise ConfigError(f"{path}/{key}", "unknown key (strict schema)")
    for key, entry in spec.items():
        if entry[0] is _REQ and key not in obj:
            raise ConfigError(path, f"missing required key {key!r}")
    got = []
    for key, entry in spec.items():
        if key not in obj:
            if entry[0] is None:
                got.append(None)
                continue
            obj[key] = entry[0]
        got.append(entry[1](obj[key], f"{path}/{key}", *entry[2:]))
    return got


def _num(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    return _blame(path, expr.check_finite, value)


def _int(value, path: str, minimum: int | None = None,
         maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None:
        _blame(path, expr.check_count, value, minimum)
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


def _each(value, path: str, length: int | None, read: Callable, *args) -> list:
    """Every entry of the array ``value`` (of ``length`` entries unless
    None), read by ``read(entry, pointer, *args)``."""
    return [read(v, f"{path}/{i}", *args) for i, v in enumerate(_list(value, path, length))]


def _positive(value, path: str) -> float:
    return _blame(path, expr.check_positive, _num(value, path))


def _some(value, path: str, read: Callable, *args) -> list:
    """``_each`` of an array of at least one entry."""
    _blame(path, expr.check_count, len(_list(value, path)), 1)
    return _each(value, path, None, read, *args)


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


def _blame(path: str, check: Callable, *args):
    """``check(*args)``, a library function that checks a value or plans a
    run's work (a count above ``MAX_STEPS`` is refused), its ValueError a
    ConfigError at ``path``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _span(value, path: str) -> tuple[float, float]:
    return _blame(path, expr.check_span, _each(value, path, 2, _num))


def _box(value, path: str) -> tuple[float, float]:
    lo, hi = _each(value, path, 2, _num)
    if not (lo <= hi and math.isfinite(hi - lo)):
        raise ConfigError(path, f"expected a pair lo <= hi with a finite "
                                f"hi - lo, got [{lo}, {hi}]")
    return lo, hi


# -------------------------------------------------------- system construction


def _pauli(value, path: str, n: int) -> np.ndarray:
    from . import linops

    if len(op := _str(value, path)) != n:
        raise ConfigError(path, f"Pauli string must have length n = {n}")
    return _blame(path, linops.pauli_string, op)


def _coeff(value, path: str, n: int, numeric_only: bool):
    if not isinstance(value, str):
        return _num(value, path)
    if numeric_only:
        raise ConfigError(path, "expected a numeric coefficient here")
    return _expr(value, path, binding_names("t", n))


def _pauli_op_sum(value, path: str, n: int, numeric_only: bool) -> list:
    """List of {"op": "ZI..", "coeff": number-or-expression}."""
    return _each(value, path, None, _read, {"op": (_REQ, _pauli, n),
                                            "coeff": (_REQ, _coeff, n, numeric_only)})


def _expr(value, path: str, names: Sequence[str], numbers: dict | None = None):
    """The expression of the string ``value``; each of its variables must
    be one of ``names`` or of ``numbers``, the constants, each of which is
    replaced by its number.  ``expr.parse_expression`` is looked up on the
    module at each call, so perfbench's ``expr.parse`` span counts it."""
    try:
        tree = expr.parse_expression(_str(value, path))
    except ExpressionError as exc:
        raise ConfigError(path, f"bad expression: {exc}") from None
    extra = free_variables(tree) - {*names, *(numbers or {})}
    if extra:
        raise ConfigError(path, f"undeclared variables {sorted(extra)}")
    return expr.substitute(tree, numbers or {})


def _numeric_pauli_sum(value, path: str, n: int) -> np.ndarray:
    """A Pauli sum with numeric coefficients as a matrix; an empty sum is
    the 2^n-dimensional zero matrix."""
    terms = _pauli_op_sum(value, path, n, numeric_only=True)
    return sum((float(c) * op for op, c in terms),
               np.zeros((2**n, 2**n), dtype=np.complex128))


def build_quantum_system(cfg: dict, path: str) -> quantum.PartialHamiltonianSet:
    from . import linops, quantum

    n, k, ham = _read(cfg, path, {"n": (_REQ, _int, 1), "local_dim": (_REQ, _int, 2),
                                  "hamiltonians": (_REQ, _obj)})
    hpath = f"{path}/hamiltonians"
    htype = _tag(ham, hpath, "type")
    if htype in ("pauli_terms", "interaction_picture") and k != 2:
        raise ConfigError(f"{path}/local_dim", f"{htype} requires local_dim = 2")
    # n capped where 2^n passes the bound, so a huge n costs nothing
    if k ** min(n, linops.MAX_DENSE_DIM.bit_length()) > linops.MAX_DENSE_DIM:
        raise ConfigError(f"{path}/n", f"local_dim^n exceeds {linops.MAX_DENSE_DIM}")
    if htype == "pauli_terms":
        _, terms = _read(ham, hpath, {"type": (_REQ, _str),
                                      "terms": (_REQ, _each, n, _pauli_op_sum, n, False)})
        return quantum.PartialHamiltonianSet(terms, k)
    if htype == "interaction_picture":
        _, base, terms = _read(ham, hpath, {
            "type": (_REQ, _str), "base": (_REQ, _numeric_pauli_sum, n),
            "k": (_REQ, _each, n, _pauli_op_sum, n, True)})
        return quantum.PartialHamiltonianSet(terms, k, base=base)
    raise ConfigError(f"{hpath}/type",
                      f"unknown Hamiltonian type {htype!r} "
                      "(expected pauli_terms | interaction_picture)")


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


def _initial_state(cfg, path: str, dim: int) -> np.ndarray:
    kind = _tag(cfg, path, "kind")
    if kind == "basis":
        _, idx = _read(cfg, path, {"kind": (_REQ, _str), "index": (0, _int, 0)})
        if idx >= dim:
            raise ConfigError(f"{path}/index", f"index {idx} >= dim {dim}")
        v = np.zeros(dim, dtype=np.complex128)
        v[idx] = 1.0
        return v
    if kind == "plus":
        _read(cfg, path, {"kind": (_REQ, _str)})
        return np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)
    raise ConfigError(f"{path}/kind", f"unknown state kind {kind!r} (expected basis | plus)")


def _phase_point(cfg, path: str, n: int, d: int) -> paths.PhasePoint:
    from . import paths

    rows = (_REQ, _each, n, _each, d, _num)
    t, x, p = _read(cfg, path, {"t": (_REQ, _num), "x": rows, "p": rows})
    return paths.PhasePoint(times=np.full(n, t), x=x, p=p)


def _sample_phase_points(cfg, path: str, n: int, d: int, seed: int) -> np.ndarray:
    """The (count, n + 2·n·d) array of the sampled phase points, one row
    each: its times, then its x rows, then its p rows."""
    count, t_box, x_box, p_box = _read(cfg, path, {
        "count": (_REQ, _int, 1, MAX_POINTS), "t_box": (_REQ, _box),
        "x_box": (_REQ, _box), "p_box": (_REQ, _box)})
    # each point's times, x and p in one row: the stream of drawing them in turn
    bounds = [t_box] * n + [x_box] * (n * d) + [p_box] * (n * d)
    lo, hi = np.transpose(bounds)
    return np.random.default_rng(seed).uniform(lo, hi, size=(count, len(bounds)))


#: the keys of an equal-time run, whose steps the kind bounds at ``dt``
_EQUAL_TIME = {"t_span": (_REQ, _span), "dt": (_REQ, _positive)}


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


# --------------------------------------------------------------- experiments
#
# A kind function checks its system and experiment blocks in full, builds the
# system and draws its random samples from a generator of the config's seed,
# made only by a kind that draws (it loads ``numpy.random``).  It returns
# ``run``, which does the numerics and returns the results and, for a kind
# that writes CSV, the function that builds the table.

_E = "/experiment"
_KIND = (_REQ, _str)


def _quantum_defect_grid(system: dict, exp: dict, seed: int):
    from . import quantum

    sys_q = build_quantum_system(system, "/system")
    _, (t_min, t_max, pts), h = _read(exp, _E, {"kind": _KIND, "grid": (_REQ, _read, {
        "t_min": (_REQ, _num), "t_max": (_REQ, _num),
        "points_per_axis": (_REQ, _int, 1)}), "h": (1e-4, _positive)})
    if pts ** sys_q.n > MAX_POINTS:
        raise ConfigError(f"{_E}/grid/points_per_axis", f"the grid has {pts}^{sys_q.n} "
                          f"time tuples; at most {MAX_POINTS} are allowed")

    def run():
        axes = [np.linspace(t_min, t_max, pts)] * sys_q.n
        tuples = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, sys_q.n)
        grid, keys = quantum.quantum_defect_grid(sys_q, tuples, h), pair_keys(sys_q.n)
        worst = grid.max(axis=1, initial=0.0)  # 0.0 without a pair, NaN where one is
        points = [{"times": tt, "pairs": dict(sorted(zip(keys, row))), "max_defect": m, "h": h}
                  for tt, row, m in zip(tuples.tolist(), grid.tolist(), worst.tolist())]
        return {"points": points, "max_defect": float(worst.max()), "h": h}, None

    return run


def _staircase(system: dict, exp: dict, seed: int):
    from . import quantum

    sys_q = build_quantum_system(system, "/system")
    n = sys_q.n
    # ``order`` is a permutation of 1..n, so that the staircase ends at ``end``
    _, start, end, max_dt, order, phi0, compare, steps = _read(exp, _E, {
        "kind": _KIND, "start": (_REQ, _each, n, _num), "end": (_REQ, _each, n, _num),
        "max_dt": (1e-2, _positive), "order": (None, _axes, n, n),
        "initial_state": ({"kind": "basis", "index": 0}, _initial_state, sys_q.dim),
        "compare_diagonal": (False, _bool),
        "diagonal_steps": (1000, _int, 1, MAX_STEPS)})
    for a, b in zip(start, end):  # a leg's length may overflow
        _blame(f"{_E}/end", expr.check_finite, b - a, "end - start")
    path = _blame(f"{_E}/max_dt", quantum.staircase_between, start, end, order, max_dt)
    _blame(f"{_E}/max_dt", quantum.path_substeps, path)
    if compare and not (np.allclose(start, start[0]) and np.allclose(end, end[0])):
        raise ConfigError(f"{_E}/compare_diagonal", "diagonal comparison needs "
                                                    "equal-time start and end tuples")

    def run():
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


def _holonomy(system: dict, exp: dict, seed: int):
    from . import linops, quantum

    sys_q = build_quantum_system(system, "/system")
    _, base, axes, sizes, max_dt, phi0 = _read(exp, _E, {
        "kind": _KIND, "base_times": (_REQ, _each, sys_q.n, _num),
        "axes": (_REQ, _axes, sys_q.n, 2), "sizes": (_REQ, _some, _positive),
        "max_dt": (1e-2, _positive),
        "initial_state": ({"kind": "basis", "index": 0}, _initial_state, sys_q.dim)})
    for i, size in enumerate(sizes):
        if not size * size > 0.0:  # the holonomy is divided by this area
            raise ConfigError(f"{_E}/sizes/{i}", f"size {size} has an area of 0")
    # the run's two staircases per size, bounded together as one path
    at = f"{_E}/max_dt"
    legs = [seg for size in sizes for path in _blame(
        at, quantum.rectangle_staircases, *axes, size, size, max_dt) for seg in path]
    _blame(at, quantum.path_substeps, legs)

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


def _defect_summary(grid: np.ndarray) -> dict:
    """The extremes of each sample's largest pair defect in a (samples x pairs)
    grid: 0.0 without a pair (n = 1), NaN where one is, which is refused."""
    worst = grid.max(axis=1, initial=0.0)
    return {"sample_count": len(worst), "max_defect": float(worst.max()),
            "min_defect": float(worst.min())}


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


class _Kind(NamedTuple):
    subcommand: str
    csv: bool  # whether ``--csv`` is supported
    prepare: Callable  # (system, experiment, seed) -> run


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


def _formalism(value, path: str) -> str:
    if (formalism := _str(value, path)) not in _FORMALISMS:
        raise ConfigError(path, f"expected {' | '.join(_FORMALISMS)}, got {formalism!r}")
    return formalism


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read config: {exc}")
    except ValueError as exc:  # JSONDecodeError, undecodable bytes, huge ints
        raise ConfigError("", f"invalid JSON: {exc}")
    _, _, _, exp = _read(raw, "", {"formalism": (_REQ, _formalism), "system": (_REQ, _obj),
                                   "seed": (0, _int, 0), "experiment": (_REQ, _obj)})
    _tag(exp, "/experiment", "kind")
    return raw


def _all_finite(value) -> bool:
    """True iff every number in ``value``, a nest of dicts and lists, is
    finite: one loop over a stack, with no call per dict, list or float."""
    stack = [value]
    pop, push = stack.pop, stack.extend
    while stack:
        item = pop()
        if isinstance(item, float):
            if not math.isfinite(item):
                return False
        elif isinstance(item, dict):
            push(item.values())
        elif isinstance(item, list):
            push(item)
    return True


def _non_finite(value) -> list | None:
    """``[number, key, .., key]``: the first non-finite number in ``value``,
    a nest of dicts and lists, and the keys down to it, innermost first;
    None if every number is finite."""
    if isinstance(value, float):
        return None if math.isfinite(value) else [value]
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        if (found := _non_finite(item)) is not None:
            found.append(key)
            return found
    return None


def _check_finite(value, path: str) -> None:
    """FloatingPointError naming the first non-finite number in ``value``,
    a nest of dicts and lists (JSON has no such numbers).  One flat scan
    (``_all_finite``) clears a report whose numbers are all finite; only
    a report it refuses is walked for the pointer, which is built for
    that number only."""
    if not _all_finite(value) and (found := _non_finite(value)) is not None:
        bad, *keys = found
        pointer = path + "".join(f"/{key}" for key in reversed(keys))
        raise FloatingPointError(f"non-finite result at {pointer}: {bad}")


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
    # every config error is raised here, before any numerics run
    run = entry.prepare(cfg["system"], cfg["experiment"], cfg["seed"])
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


def _print(text: str) -> None:
    """Print and flush ``text``, so that a closed pipe is an output error
    here; stdout is then pointed at ``os.devnull``, or the teardown's flush
    of the text left in its buffer (where ``multitime._exit`` returns)
    would fail again and exit 120."""
    try:
        print(text, flush=True)
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


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
            from .configs import write_examples

            _print("\n".join(write_examples(args.dir)))
            return 0
        cfg = _load_config(args.config)
        report = run_config(cfg, args.subcommand, csv_path=args.csv)
        text = json.dumps(report, indent=2, sort_keys=True)
        try:
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text + "\n")
            else:
                _print(text)
        except OSError:  # remove the CSV file written, never a link or a device
            if args.csv and os.path.isfile(args.csv) and not os.path.islink(args.csv):
                os.remove(args.csv)
            raise
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
    from . import _exit

    sys.exit(_exit(main()))
