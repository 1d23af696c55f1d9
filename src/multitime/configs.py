"""Shipped example configurations for the CLI.

``multitime examples --dir DIR`` writes each of these as DIR/<name>.json.
They cover every experiment kind but the HJ ``defect-grid`` and are the
systems exercised by the test suite: commuting and coupled two-qubit systems, the consistent
interaction-picture system, free and harmonically coupled classical
fields, the two-time grid system, free and coupled Hamilton-Jacobi
functions, and the no-interaction candidate family.
"""

from __future__ import annotations

import json
import os

__all__ = ["EXAMPLE_CONFIGS", "write_examples"]

_COUPLING = 0.5  # g of the coupled-qubit system

_QUANTUM_FREE = {
    "n": 2,
    "local_dim": 2,
    "hamiltonians": {
        "type": "pauli_terms",
        "terms": [
            [{"op": "ZI", "coeff": 1.0}],
            [{"op": "IX", "coeff": 1.0}],
        ],
    },
}

_QUANTUM_COUPLED = {
    "n": 2,
    "local_dim": 2,
    "hamiltonians": {
        "type": "pauli_terms",
        "terms": [
            [{"op": "ZI", "coeff": 1.0}, {"op": "ZZ", "coeff": _COUPLING / 2}],
            [{"op": "IX", "coeff": 1.0}, {"op": "ZZ", "coeff": _COUPLING / 2}],
        ],
    },
}

_QUANTUM_INTERACTION_PICTURE = {
    "n": 2,
    "local_dim": 2,
    "hamiltonians": {
        "type": "interaction_picture",
        "base": [{"op": "ZI", "coeff": 1.0}],
        "k": [
            [{"op": "ZI", "coeff": 1.0}],
            [{"op": "IX", "coeff": 1.0}, {"op": "XX", "coeff": 0.5}],
        ],
    },
}

_CLASSICAL_BASE = {"n": 2, "d": 1}

_FIELD_FREE = {
    "type": "expressions",
    "v": [["p1_1"], ["p2_1"]],
    "w": [["0"], ["0"]],
}

_FIELD_HARMONIC = {
    "type": "expressions",
    "v": [["p1_1"], ["p2_1"]],
    "w": [["-(x1_1 - x2_1)"], ["x1_1 - x2_1"]],
}

_HJ_FREE = {
    "n": 2,
    "d": 1,
    "masses": [1.0, 1.0],
    "S": "k1*x1_1 - (k1^2/2)*t1 + k2*x2_1 - (k2^2/2)*t2",
    "constants": {"k1": 0.3, "k2": -0.2},
}

_HJ_COUPLED = {
    "n": 2,
    "d": 1,
    "masses": [1.0, 1.0],
    "S": "k1*x1_1 - (k1^2/2)*t1 + k2*x2_1 - (k2^2/2)*t2"
         " + 0.05*(x1_1 - x2_1)^2*(t1 + t2)",
    "constants": {"k1": 0.3, "k2": -0.2},
}

EXAMPLE_CONFIGS: dict[str, dict] = {
    "free_quantum": {
        "formalism": "quantum",
        "seed": 0,
        "system": _QUANTUM_FREE,
        "experiment": {
            "kind": "defect-grid",
            "grid": {"t_min": 0.0, "t_max": 1.0, "points_per_axis": 3},
            "h": 1e-4,
        },
    },
    "free_quantum_holonomy": {
        "formalism": "quantum",
        "seed": 0,
        "system": _QUANTUM_FREE,
        "experiment": {
            "kind": "holonomy",
            "base_times": [0.0, 0.0],
            "axes": [1, 2],
            "sizes": [0.1, 0.05, 0.01],
            "max_dt": 0.01,
            "initial_state": {"kind": "plus"},
        },
    },
    "coupled_qubits_check": {
        "formalism": "quantum",
        "seed": 0,
        "system": _QUANTUM_COUPLED,
        "experiment": {
            "kind": "defect-grid",
            "grid": {"t_min": 0.0, "t_max": 1.0, "points_per_axis": 2},
            "h": 1e-4,
        },
    },
    "coupled_qubits": {
        "formalism": "quantum",
        "seed": 0,
        "system": _QUANTUM_COUPLED,
        "experiment": {
            "kind": "holonomy",
            "base_times": [0.0, 0.0],
            "axes": [1, 2],
            "sizes": [0.01, 0.005, 0.0025],
            "max_dt": 0.01,
            "initial_state": {"kind": "plus"},
        },
    },
    "interaction_picture_check": {
        "formalism": "quantum",
        "seed": 0,
        "system": _QUANTUM_INTERACTION_PICTURE,
        "experiment": {
            "kind": "defect-grid",
            "grid": {"t_min": 0.0, "t_max": 1.0, "points_per_axis": 3},
            "h": 1e-4,
        },
    },
    "interaction_picture_staircase": {
        "formalism": "quantum",
        "seed": 0,
        "system": _QUANTUM_INTERACTION_PICTURE,
        "experiment": {
            "kind": "staircase",
            "start": [0.0, 0.0],
            "end": [0.5, 0.5],
            "max_dt": 0.0005,
            "initial_state": {"kind": "plus"},
            "compare_diagonal": True,
            "diagonal_steps": 1000,
        },
    },
    "classical_free_check": {
        "formalism": "classical",
        "seed": 0,
        "system": dict(_CLASSICAL_BASE, field=_FIELD_FREE),
        "experiment": {
            "kind": "defect-grid",
            "samples": {"count": 100, "t_box": [0.0, 1.0],
                        "x_box": [-1.0, 1.0], "p_box": [-1.0, 1.0]},
            "h": 1e-4,
        },
    },
    "classical_harmonic_check": {
        "formalism": "classical",
        "seed": 0,
        "system": dict(_CLASSICAL_BASE, field=_FIELD_HARMONIC),
        "experiment": {
            "kind": "defect-grid",
            "samples": {"count": 100, "t_box": [0.0, 1.0],
                        "x_box": [-1.0, 1.0], "p_box": [-1.0, 1.0]},
            "h": 1e-4,
        },
    },
    "classical_free_evolve": {
        "formalism": "classical",
        "seed": 0,
        "system": dict(_CLASSICAL_BASE, field=_FIELD_FREE),
        "experiment": {
            "kind": "equal-time-evolve",
            "init": {"t": 0.0, "x": [[-2.0], [2.0]], "p": [[0.1], [-0.1]]},
            "t_span": [0.0, 5.0],
            "dt": 0.001,
        },
    },
    "classical_free_validity": {
        "formalism": "classical",
        "seed": 0,
        "system": dict(_CLASSICAL_BASE, field=_FIELD_FREE),
        "experiment": {
            "kind": "validity",
            "init": {"t": 0.0, "x": [[-2.0], [2.0]], "p": [[0.1], [-0.1]]},
            "t_span": [0.0, 2.0],
            "dt": 0.001,
            "samples": {"count": 100, "window": 0.5},
        },
    },
    "classical_harmonic_validity": {
        "formalism": "classical",
        "seed": 0,
        "system": dict(_CLASSICAL_BASE, field=_FIELD_HARMONIC),
        "experiment": {
            "kind": "validity",
            "init": {"t": 0.0, "x": [[-0.5], [0.5]], "p": [[0.0], [0.0]]},
            "t_span": [0.0, 4.0],
            "dt": 0.001,
            "samples": {"count": 200, "window": 0.5},
        },
    },
    "grid_free": {
        "formalism": "classical",
        "seed": 0,
        "system": dict(_CLASSICAL_BASE, field={
            "type": "partial_hamiltonians",
            "h_list": ["p1_1^2/2", "p2_1^2/2"],
        }),
        "experiment": {
            "kind": "full-grid",
            "init": {"t": 0.0, "x": [[0.0], [1.0]], "p": [[0.3], [-0.2]]},
            "t1_max": 1.0,
            "t2_max": 1.0,
            "points": 50,
            "substeps": 2,
        },
    },
    "grid_coupled": {
        "formalism": "classical",
        "seed": 0,
        "system": dict(_CLASSICAL_BASE, field={
            "type": "partial_hamiltonians",
            "h_list": ["p1_1^2/2 + (x1_1 - x2_1)^2/2",
                       "p2_1^2/2 + (x1_1 - x2_1)^2/2"],
        }),
        "experiment": {
            "kind": "full-grid",
            "init": {"t": 0.0, "x": [[0.0], [1.0]], "p": [[0.3], [-0.2]]},
            "t1_max": 1.0,
            "t2_max": 1.0,
            "points": 50,
            "substeps": 2,
        },
    },
    "grid_coupled_pathindep": {
        "formalism": "classical",
        "seed": 0,
        "system": dict(_CLASSICAL_BASE, field={
            "type": "partial_hamiltonians",
            "h_list": ["p1_1^2/2 + (x1_1 - x2_1)^2/2",
                       "p2_1^2/2 + (x1_1 - x2_1)^2/2"],
        }),
        "experiment": {
            "kind": "path-independence",
            "init": {"t": 0.0, "x": [[0.0], [1.0]], "p": [[0.3], [-0.2]]},
            "rectangle": [0.4, 0.4],
            "dt": 0.01,
            "refinements": 2,
        },
    },
    "hj_free_residual": {
        "formalism": "hj",
        "seed": 0,
        "system": dict(_HJ_FREE, hamiltonians={
            "h_list": ["p1_1^2/2", "p2_1^2/2"],
            "h_total": "p1_1^2/2 + p2_1^2/2",
        }),
        "experiment": {
            "kind": "hj-residual",
            "points": [
                {"times": [0.0, 0.0], "x": [[-1.0], [1.0]]},
                {"times": [0.2, -0.3], "x": [[-0.7], [0.9]]},
            ],
        },
    },
    "hj_free_foliations": {
        "formalism": "hj",
        "seed": 0,
        "system": _HJ_FREE,
        "experiment": {
            "kind": "foliation-compare",
            "foliations": [{"u": [0.0]}, {"u": [0.3]}, {"u": [-0.5]}],
            "init_positions": [[-1.0], [1.0]],
            "s_span": [-1.0, 1.0],
            "ds": 0.01,
            "tolerance": 1e-6,
        },
    },
    "hj_coupled_foliations": {
        "formalism": "hj",
        "seed": 0,
        "system": _HJ_COUPLED,
        "experiment": {
            "kind": "foliation-compare",
            "foliations": [{"u": [0.0]}, {"u": [0.3]}],
            "init_positions": [[-1.0], [1.0]],
            "s_span": [-1.0, 1.0],
            "ds": 0.01,
            "tolerance": 1e-6,
        },
    },
    "hj_free_trajectories": {
        "formalism": "hj",
        "seed": 0,
        "system": _HJ_FREE,
        "experiment": {
            "kind": "trajectories",
            "foliation": {"u": [0.0]},
            "init_positions": [[-1.0], [1.0]],
            "s_span": [-1.0, 1.0],
            "ds": 0.01,
        },
    },
    "cjs_family": {
        "formalism": "classical",
        "seed": 0,
        "system": _CLASSICAL_BASE,
        "experiment": {
            "kind": "cjs-demo",
            "family": [
                {"id": "free", "field": _FIELD_FREE},
                {"id": "harmonic", "field": _FIELD_HARMONIC},
                {"id": "gaussian", "field": {
                    "type": "expressions",
                    "v": [["p1_1"], ["p2_1"]],
                    "w": [["-(x1_1 - x2_1)*exp(-(x1_1 - x2_1)^2)"],
                          ["(x1_1 - x2_1)*exp(-(x1_1 - x2_1)^2)"]],
                }},
                {"id": "zero_coupling", "field": {
                    "type": "expressions",
                    "v": [["p1_1"], ["p2_1"]],
                    "w": [["0*(x1_1 - x2_1)"], ["0*(x1_1 - x2_1)"]],
                }},
            ],
            "samples": {"count": 100, "t_box": [0.0, 1.0],
                        "x_box": [-1.0, 1.0], "p_box": [-1.0, 1.0]},
            "init": {"t": 0.0, "x": [[-2.0], [2.0]], "p": [[0.1], [-0.1]]},
            "t_span": [0.0, 2.0],
            "dt": 0.001,
            "h": 1e-4,
        },
    },
}


def write_examples(directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, cfg in EXAMPLE_CONFIGS.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    return written
