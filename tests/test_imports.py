"""Import footprint: scipy is loaded only by the code that uses it.

Each test runs a fresh interpreter, because this test process has long
since imported scipy through other tests.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

PRELUDE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""

CLI_RUNS = """
import multitime.cli as cli

directory = sys.argv[1]
cli.write_examples(directory)
seen = {"import multitime.cli": scipy_modules()}

def run(sub, name):
    out = f"{directory}/{name}.report.json"
    code = cli.main([sub, "--config", f"{directory}/{name}.json", "--out", out,
                     "--jobs", "1"])
    seen[name] = [code, scipy_modules()]

for sub, name in [("check", "free_quantum"), ("holonomy", "coupled_qubits"),
                  ("evolve", "interaction_picture_staircase"),
                  ("check", "classical_free_check"), ("hj", "hj_free_residual"),
                  ("grid", "grid_free"), ("evolve", "classical_free_evolve")]:
    run(sub, name)
print(json.dumps(seen))
"""

MATRIX_EXPONENTIAL = """
import numpy as np
from multitime import linops

seen = {"import multitime.linops": scipy_modules()}
r = linops.matrix_exponential(-1j * 0.3 * linops.SIGMA_Z)
seen["matches"] = bool(np.allclose(r, np.diag(np.exp([-0.3j, 0.3j]))))
seen["matrix_exponential"] = scipy_modules()
print(json.dumps(seen))
"""


def run_fresh(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", PRELUDE + code, *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    return run_fresh(CLI_RUNS, str(tmp_path_factory.mktemp("configs")))


def test_cli_import_loads_no_scipy(cli_runs):
    assert cli_runs["import multitime.cli"] == []


@pytest.mark.parametrize("name", ["free_quantum", "coupled_qubits",
                                  "interaction_picture_staircase",
                                  "classical_free_check", "hj_free_residual",
                                  "grid_free"])
def test_runs_without_world_lines_load_no_scipy(cli_runs, name):
    assert cli_runs[name] == [0, []]


def test_equal_time_evolve_loads_interpolation_on_demand(cli_runs):
    code, modules = cli_runs["classical_free_evolve"]
    assert code == 0
    assert "scipy.interpolate" in modules


def test_matrix_exponential_loads_scipy_linalg_on_demand():
    seen = run_fresh(MATRIX_EXPONENTIAL)
    assert seen["import multitime.linops"] == []
    assert seen["matches"]
    assert "scipy.linalg" in seen["matrix_exponential"]
