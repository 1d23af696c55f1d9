"""The package runs on numpy and the standard library alone: every shipped
config exits 0 in a fresh interpreter in which scipy cannot be imported.
The runs are serial: they import no worker pool and start no Python
thread, and a CLI process, run by either entry point, runs numpy's BLAS
in one thread (``OPENBLAS_NUM_THREADS=1``, unless the user set it), so it
has no native thread beside its main one either.  An import of the
package changes no environment variable.  A CLI process loads only the
formalism its config uses.

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


BLAS_AFTER_IMPORT = """
import json, os
import multitime.cli
print(json.dumps(os.environ.get("OPENBLAS_NUM_THREADS")))
"""


BLAS_AFTER_RUN = """
import importlib, json, os, runpy, sys

entry, directory = sys.argv[1:]
sys.argv = ["multitime", "examples", "--dir", directory]
if entry == "-m":
    try:
        runpy.run_module("multitime.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:  # "module:function", called as the console script calls it
    module, _, function = entry.partition(":")
    code = getattr(importlib.import_module(module), function)()

import numpy as np

try:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
except (TypeError, KeyError):  # a numpy that does not say
    blas = None
threads = None
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
print(json.dumps([code, os.environ.get("OPENBLAS_NUM_THREADS"), blas, threads]))
"""


def fresh(*args: str, **env_changes: str | None) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's ``src`` first on its path,
    and each variable of ``env_changes`` set, or removed where it is None."""
    env = dict(os.environ)
    for name, value in env_changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
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
    """No worker pool and no Python thread; the native threads of a CLI
    process are counted by ``test_cli_runs_one_blas_thread``."""
    assert fresh_run[1] == [False, 1]


def test_import_changes_no_environment_variable():
    done = fresh("-c", BLAS_AFTER_IMPORT, OPENBLAS_NUM_THREADS=None)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) is None


def console_script() -> str:
    """The ``module:function`` of the ``multitime`` console script."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["multitime"]


@pytest.mark.parametrize("entry", ["-m", "console-script"])
@pytest.mark.parametrize("given,kept", [(None, "1"), ("", "1"), ("2", "2")],
                         ids=["unset", "empty", "set"])
def test_cli_runs_one_blas_thread(tmp_path, entry, given, kept):
    """Either entry point sets ``OPENBLAS_NUM_THREADS=1`` before numpy
    loads its BLAS, unless the user set it; OpenBLAS then starts no thread."""
    entry = console_script() if entry == "console-script" else entry
    done = fresh("-c", BLAS_AFTER_RUN, entry, str(tmp_path / "configs"),
                 OPENBLAS_NUM_THREADS=given)
    assert done.returncode == 0, done.stderr
    code, value, blas, threads = json.loads(done.stdout.splitlines()[-1])
    assert code == 0 and value == kept
    if kept == "1" and threads is not None and blas and "openblas" in blas.lower():
        assert threads == 1


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
