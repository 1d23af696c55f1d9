"""The benchmark's workloads, their inputs and the correctness predicates.

Every workload is a closed loop with one caller: one shipped config runs
at a time, and the next starts when the previous one has returned.

* ``classical-integrate`` (in-process ``run_config``): the classical
  sector.  Nearly all of its time is top-level ``evaluate`` calls, finite
  differences of the partial Hamiltonians and the hand-written RK4 loops;
  it does no ``linops`` work.  Gains in expression evaluation, exact
  derivatives or a shared RK4 core must show here.
* ``hj-foliation`` (in-process ``run_config``): the same ``expr`` and
  ``numdiff`` layers used differently.  Per particle per step it
  differentiates one scalar S (``HJFunction.grad_x``) inside the
  anchoring sweeps; there is no field right-hand side and no grid
  stepper.  A change that helps the classical right-hand side but costs
  gradients shows here.
* ``cli-cold`` (one ``python -m multitime.cli`` process per config, as
  the README runs experiments): dominated by ``import multitime.cli``.
  It is the only workload that loads and validates JSON config files,
  writes report files, builds ``linops`` propagators and runs the CLI's
  worker pool.  It is the no-change control for expression and
  integrator changes and catches per-invocation costs.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool
    configs: tuple[str, ...]


WORKLOADS = {w.name: w for w in (
    Workload("classical-integrate", True, (
        "classical_free_evolve", "classical_free_validity",
        "classical_harmonic_validity", "grid_free", "grid_coupled",
        "grid_coupled_pathindep", "cjs_family")),
    Workload("hj-foliation", True, (
        "hj_free_foliations", "hj_coupled_foliations",
        "hj_free_trajectories", "hj_free_residual")),
    Workload("cli-cold", False, (
        "free_quantum", "free_quantum_holonomy", "coupled_qubits_check",
        "coupled_qubits", "interaction_picture_check",
        "interaction_picture_staircase", "classical_free_check",
        "classical_harmonic_check", "hj_free_residual")),
)}

#: CLI subcommand of each experiment kind (``multitime <sub> --config``)
SUBCOMMAND = {
    "defect-grid": "check",
    "staircase": "evolve",
    "equal-time-evolve": "evolve",
    "holonomy": "holonomy",
    "validity": "validity",
    "full-grid": "grid",
    "path-independence": "grid",
    "hj-residual": "hj",
    "trajectories": "foliation",
    "foliation-compare": "foliation",
    "cjs-demo": "cjs",
}


@dataclass(frozen=True)
class Job:
    """One config run: the config dict, its subcommand and, for the CLI
    workload, the config and report file paths."""

    name: str
    subcommand: str
    config: dict
    config_path: str | None = None
    report_path: str | None = None


def make_inputs(workload: Workload, seed: int, directory: str) -> list[Job]:
    """The workload's config runs, with ``seed`` in every config's seed
    field (it drives the classical defect-grid samples, the validity
    sample times and the cjs samples).  For the CLI workload the configs
    are also written as files under ``directory``."""
    from multitime.configs import EXAMPLE_CONFIGS

    jobs = []
    for name in workload.configs:
        cfg = copy.deepcopy(EXAMPLE_CONFIGS[name])
        cfg["seed"] = seed
        sub = SUBCOMMAND[cfg["experiment"]["kind"]]
        if workload.in_process:
            jobs.append(Job(name, sub, cfg))
            continue
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
        jobs.append(Job(name, sub, cfg, path,
                        os.path.join(directory, f"{name}.report.json")))
    return jobs


# ------------------------------------------------------------- predicates
#
# Each states the paper's fact for its config, so a fast but wrong run
# fails.  Tolerances are far from both the measured values and the
# opposite outcome; they hold on any seed.

ZERO = 1e-6       # a defect or residual that should vanish
NONZERO = 1e-2    # a defect or residual that should not


def _free_quantum(r):
    return r["max_defect"] < ZERO


def _free_holonomy(r):
    return (all(row["holonomy"] < ZERO for row in r["table"])
            and r["defect_vector_norm"] < ZERO)


def _coupled_check(r):
    return abs(r["max_defect"] - 0.5) < ZERO  # the coupling g = 0.5


def _coupled_holonomy(r):
    """holonomy / area settles on ||C_12 phi0||: each smaller rectangle
    is closer to it, and the smallest within 1e-4 relative."""
    target = r["defect_vector_norm"]
    gaps = [abs(row["holonomy_per_area"] - target) for row in r["table"]]
    return (abs(target - 0.5) < ZERO
            and all(b < a for a, b in zip(gaps, gaps[1:]))
            and gaps[-1] < 1e-4 * target)


def _staircase(r):
    return r["diagonal_distance"] < ZERO and r["norm_drift"] < 1e-9


def _free_evolve(r):
    # x(t) = x0 + p0 t from x0 = (-2, 2), p0 = (0.1, -0.1) over t in [0, 5]
    x, p = r["final_x"], r["final_p"]
    return (abs(x[0][0] + 1.5) < ZERO and abs(x[1][0] - 1.5) < ZERO
            and p == [[0.1], [-0.1]] and abs(r["max_speed"] - 0.1) < ZERO)


def _valid(r):
    return r["accepted_samples"] > 0 and r["max_residual"] < ZERO


def _invalid(r):
    return r["accepted_samples"] > 0 and r["max_residual"] > NONZERO


def _path_independence(r):
    """The two-leg gap shrinks with every halving of the rectangle."""
    gaps = [row["gap"] for row in r["table"]]
    return len(gaps) > 1 and all(b < a / 2 for a, b in zip(gaps, gaps[1:]))


def _hj_residual(r):
    return (r["max_residual"] < ZERO
            and all(p.get("sum_rule_gap", 0.0) < ZERO for p in r["points"]))


def _cjs(r):
    """Only the non-interacting members pass the consistency check."""
    valid = {row["id"] for row in r["table"] if row["max_defect"] < ZERO}
    return valid == {"free", "zero_coupling"}


PREDICATES = {
    "free_quantum": _free_quantum,
    "free_quantum_holonomy": _free_holonomy,
    "coupled_qubits_check": _coupled_check,
    "coupled_qubits": _coupled_holonomy,
    "interaction_picture_check": _free_quantum,
    "interaction_picture_staircase": _staircase,
    "classical_free_check": lambda r: r["max_defect"] < ZERO,
    "classical_harmonic_check": lambda r: r["max_defect"] > NONZERO,
    "classical_free_evolve": _free_evolve,
    "classical_free_validity": _valid,
    "classical_harmonic_validity": _invalid,
    "grid_free": lambda r: r["max_dx1_dt2"] < ZERO,
    "grid_coupled": lambda r: r["max_dx1_dt2"] > NONZERO,
    "grid_coupled_pathindep": _path_independence,
    "hj_free_residual": _hj_residual,
    "hj_free_foliations": lambda r: r["foliation_independent"] is True,
    "hj_coupled_foliations": lambda r: r["foliation_independent"] is False,
    "hj_free_trajectories": lambda r: abs(r["max_speed"] - 0.3) < ZERO,
    "cjs_family": _cjs,
}


def holds(name: str, results: dict) -> bool:
    """Whether ``results`` of config ``name`` state the expected fact."""
    try:
        return bool(PREDICATES[name](results))
    except (KeyError, TypeError, IndexError):
        return False
