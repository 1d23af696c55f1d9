"""The quantum kinds of the CLI: the reader of a quantum system block,
``build_quantum_system``, and the kind functions ``_quantum_defect_grid``,
``_staircase`` and ``_holonomy``, each of which checks its config in full
and returns its run (see ``cli``); it imports ``spec``, never ``cli``.
``cli._KINDS`` loads this module at the first call of a quantum kind; it
loads ``quantum`` and ``linops`` in its functions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import expr
from .spec import (_E, _KIND, _REQ, MAX_POINTS, ConfigError, _axes, _blame, _bool,
                   _each, _expr, _int, _num, _obj, _positive, _read, _some, _str, _tag)
from .expr import MAX_STEPS, binding_names
from .reports import pair_keys

if TYPE_CHECKING:
    from . import quantum


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
