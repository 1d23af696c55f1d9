"""The package runs on numpy and the standard library alone: every shipped
config exits 0 in a fresh interpreter in which scipy cannot be imported.
The runs are serial: they import no worker pool and start no thread.  A
CLI process loads only the formalism its config uses.

The runs need a fresh interpreter, because this test process has long
since imported scipy and every module of the package through other tests.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from multitime.configs import EXAMPLE_CONFIGS, write_examples

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

RUN_ALL_WITHOUT_SCIPY = """
import json, sys, threading

sys.modules["scipy"] = None  # any import of scipy or a submodule now fails

import multitime.cli as cli
from multitime.configs import EXAMPLE_CONFIGS, write_examples

directory = sys.argv[1]
write_examples(directory)
subcommand = {kind: sub for sub, kinds in cli._SUBCOMMAND_KINDS.items()
              for kind in kinds}
codes = {}
for name, cfg in EXAMPLE_CONFIGS.items():
    codes[name] = cli.main([subcommand[cfg["experiment"]["kind"]],
                            "--config", f"{directory}/{name}.json",
                            "--out", f"{directory}/{name}.report.json"])
print(json.dumps(codes))
print(json.dumps(["concurrent.futures" in sys.modules, threading.active_count()]))
"""


MODULES_AFTER_MAIN = """
import json, sys

import multitime.cli as cli

code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def fresh(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's ``src`` first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=300)


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    """The exit code of each config, then whether concurrent.futures was
    imported and how many threads are alive after all the runs."""
    done = fresh("-c", RUN_ALL_WITHOUT_SCIPY, str(tmp_path_factory.mktemp("configs")))
    assert done.returncode == 0, done.stderr
    *_, codes, serial = done.stdout.splitlines()
    return json.loads(codes), json.loads(serial)


@pytest.fixture(scope="module")
def exit_codes(fresh_run):
    return fresh_run[0]


def test_runs_are_serial(fresh_run):
    assert fresh_run[1] == [False, 1]


def test_every_shipped_config_ran(exit_codes):
    assert sorted(exit_codes) == sorted(EXAMPLE_CONFIGS)


@pytest.mark.parametrize("name", sorted(EXAMPLE_CONFIGS))
def test_config_runs_without_scipy(exit_codes, name):
    assert exit_codes[name] == 0


FORMALISMS = ["multitime.classical", "multitime.hj", "multitime.linops",
              "multitime.paths", "multitime.quantum"]
NOT_QUANTUM = ["multitime.classical", "multitime.hj", "multitime.paths",
               "multitime.configs", "multitime.numdiff"]


@pytest.mark.parametrize("args,loaded,absent", [
    (["evolve", "--config", "interaction_picture_staircase.json"],
     ["multitime.quantum", "multitime.linops"], [*NOT_QUANTUM, "numpy.random"]),
    (["holonomy", "--config", "coupled_qubits.json"],
     ["multitime.quantum", "multitime.linops"], [*NOT_QUANTUM, "numpy.random"]),
    (["evolve", "--config", "classical_free_evolve.json"], ["multitime.classical"],
     ["multitime.hj", "multitime.quantum", "multitime.linops", "multitime.configs",
      "multitime.numdiff", "numpy.random"]),
    (["check", "--config", "classical_free_check.json"],
     ["multitime.classical", "numpy.random"],
     ["multitime.hj", "multitime.quantum", "multitime.linops", "multitime.configs",
      "multitime.numdiff"]),
    (["foliation", "--config", "hj_free_foliations.json"], ["multitime.hj"],
     ["multitime.quantum", "multitime.linops", "multitime.configs", "numpy.random"]),
    (["examples", "--dir", "again"], ["multitime.configs"],
     [*FORMALISMS, "multitime.numdiff", "numpy.random"]),
], ids=["quantum-evolve", "quantum-holonomy", "classical-evolve", "classical-check",
        "hj", "examples"])
def test_a_run_loads_only_what_it_uses(tmp_path, args, loaded, absent):
    """A run loads its formalism and no other, and ``numpy.random`` only
    when it draws samples."""
    write_examples(str(tmp_path))
    args = [str(tmp_path / a) if a.endswith(".json") or a == "again" else a
            for a in args]
    if args[0] != "examples":
        args += ["--out", str(tmp_path / "report.json")]
    done = fresh("-c", MODULES_AFTER_MAIN, *args)
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert set(loaded) <= set(modules)
    assert not set(absent) & set(modules)
