"""The package runs on numpy and the standard library alone: every shipped
config exits 0 in a fresh interpreter in which scipy cannot be imported.
The runs are serial: they import no worker pool and start no Python
thread, and a CLI process, run by either entry point, runs numpy's BLAS
in one thread (``OPENBLAS_NUM_THREADS=1``, unless the user set it), so it
has no native thread beside its main one either.  An import of the
package changes no environment variable.  A CLI process loads only the
formalism its config uses, with that formalism's reader module, and the
code generator only where it compiles an expression; it ends with a hard
exit that leaves its outputs whole, keeps its exit codes and runs its
atexit callbacks.

The runs need a fresh interpreter, because this test process has long
since imported scipy and every module of the package through other tests.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from multitime.cli import run_config
from multitime.configs import EXAMPLE_CONFIGS, write_examples

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

RUN_ALL_WITHOUT_SCIPY = """
import json, sys, threading

sys.modules["scipy"] = None  # any import of scipy or a submodule now fails

import multitime.cli as cli
from multitime.configs import EXAMPLE_CONFIGS, write_examples

directory = sys.argv[1]
write_examples(directory)
codes = {}
for name, cfg in EXAMPLE_CONFIGS.items():
    codes[name] = cli.main([cli._KINDS[cfg["formalism"], cfg["experiment"]["kind"]].subcommand,
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


MODULES_AFTER_IMPORT = """
import importlib.util, json, sys

import multitime.cli

print(json.dumps([sorted(name for name in sys.modules if name.partition(".")[0] == "multitime"),
                  [importlib.util.find_spec(name) is not None for name in sys.argv[1:]],
                  "numpy" in sys.modules]))
"""


BLAS_AFTER_IMPORT = """
import json, os
import multitime.cli
print(json.dumps(os.environ.get("OPENBLAS_NUM_THREADS")))
"""


BLAS_AFTER_RUN = """
import importlib, json, os, runpy, sys

exits = []


def stub_exit(code):  # the CLI's hard exit, stopped so that this process reads on
    exits.append(code)
    raise SystemExit(code)


os._exit = stub_exit
entry, directory = sys.argv[1:]
sys.argv = ["multitime", "examples", "--dir", directory]
try:
    if entry == "-m":
        runpy.run_module("multitime.cli", run_name="__main__", alter_sys=True)
    else:  # "module:function", called as the console script calls it
        module, _, function = entry.partition(":")
        code = getattr(importlib.import_module(module), function)()
except SystemExit as exc:
    code = exc.code

numpy_loaded = "numpy" in sys.modules  # before this script imports it to ask for its BLAS
import numpy as np

try:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
except (TypeError, KeyError):  # a numpy that does not say
    blas = None
threads = None
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
print(json.dumps([code, exits, os.environ.get("OPENBLAS_NUM_THREADS"), blas, threads,
                  numpy_loaded]))
"""


def fresh(*args: str, stdout=subprocess.PIPE,
          **env_changes: str | None) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's ``src`` first on its path,
    and each variable of ``env_changes`` set, or removed where it is None;
    its stdin is empty, and its stdout is captured unless ``stdout`` is
    given."""
    env = dict(os.environ)
    for name, value in env_changes.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env, stdin=subprocess.DEVNULL,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=300)


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
    loads its BLAS, unless the user set it; OpenBLAS then starts no thread.
    The entry's hard exit is stubbed to raise SystemExit, so that the
    threads can be counted after the run; the stub must be reached.  The
    run is ``examples``, which loads no numpy by either entry point: the
    script imports it after the run."""
    entry = console_script() if entry == "console-script" else entry
    done = fresh("-c", BLAS_AFTER_RUN, entry, str(tmp_path / "configs"),
                 OPENBLAS_NUM_THREADS=given)
    assert done.returncode == 0, done.stderr
    code, exits, value, blas, threads, numpy_loaded = json.loads(done.stdout.splitlines()[-1])
    assert code == 0 and exits == [0] and value == kept and not numpy_loaded
    if kept == "1" and threads is not None and blas and "openblas" in blas.lower():
        assert threads == 1


def test_every_shipped_config_ran(exit_codes):
    assert sorted(exit_codes) == sorted(EXAMPLE_CONFIGS)


@pytest.mark.parametrize("name", sorted(EXAMPLE_CONFIGS))
def test_config_runs_without_scipy(exit_codes, name):
    assert exit_codes[name] == 0


FORMALISMS = ["multitime.classical", "multitime.hj", "multitime.linops",
              "multitime.paths", "multitime.quantum"]
#: the reader module of each formalism's kinds, and the code generator
READERS = {"quantum": "multitime.kinds_quantum", "classical": "multitime.kinds_classical",
           "hj": "multitime.kinds_hj"}
CODEGEN = "multitime.codegen"
NOT_QUANTUM = ["multitime.classical", "multitime.hj", "multitime.paths",
               "multitime.configs", "multitime.numdiff", READERS["classical"],
               READERS["hj"]]
#: standard modules that a run without a CSV does not use
UNUSED = ["csv", "dataclasses"]


@pytest.mark.parametrize("args,loaded,absent", [
    (["evolve", "--config", "interaction_picture_staircase.json"],
     ["numpy", "multitime.quantum", "multitime.linops", READERS["quantum"]],
     [*NOT_QUANTUM, CODEGEN, "numpy.random", *UNUSED]),
    (["holonomy", "--config", "coupled_qubits.json"],
     ["numpy", "multitime.quantum", "multitime.linops", READERS["quantum"]],
     [*NOT_QUANTUM, CODEGEN, "numpy.random", *UNUSED]),
    (["check", "--config", "free_quantum.json"],
     ["numpy", "multitime.quantum", "multitime.linops", READERS["quantum"]],
     [*NOT_QUANTUM, CODEGEN, "numpy.random", *UNUSED]),
    (["evolve", "--config", "classical_free_evolve.json"],
     ["numpy", "multitime.classical", READERS["classical"], CODEGEN],
     ["multitime.hj", "multitime.quantum", "multitime.linops", "multitime.configs",
      "multitime.numdiff", READERS["quantum"], READERS["hj"], "numpy.random", *UNUSED]),
    (["evolve", "--config", "classical_free_evolve.json", "--csv", "lines.csv"],
     ["numpy", "multitime.classical", READERS["classical"], CODEGEN, "csv"],
     ["multitime.hj", "multitime.quantum", "multitime.linops", "multitime.configs",
      "multitime.numdiff", READERS["quantum"], READERS["hj"], "numpy.random",
      "dataclasses"]),
    (["check", "--config", "classical_free_check.json"],
     ["numpy", "multitime.classical", READERS["classical"], CODEGEN, "numpy.random"],
     ["multitime.hj", "multitime.quantum", "multitime.linops", "multitime.configs",
      "multitime.numdiff", READERS["quantum"], READERS["hj"], *UNUSED]),
    (["foliation", "--config", "hj_free_foliations.json"],
     ["numpy", "multitime.hj", READERS["hj"], CODEGEN],
     ["multitime.classical", "multitime.quantum", "multitime.linops", "multitime.configs",
      READERS["quantum"], READERS["classical"], "numpy.random", *UNUSED]),
    (["hj", "--config", "hj_free_residual.json"],
     ["numpy", "multitime.hj", "multitime.paths", READERS["hj"], CODEGEN],
     ["multitime.classical", "multitime.quantum", "multitime.linops", "multitime.configs",
      READERS["quantum"], READERS["classical"], "numpy.random", *UNUSED]),
    (["examples", "--dir", "again"], ["multitime.configs"],
     [*FORMALISMS, "multitime.numdiff", *READERS.values(), CODEGEN, "numpy",
      *UNUSED]),
], ids=["quantum-evolve", "quantum-holonomy", "quantum-check", "classical-evolve",
        "classical-evolve-csv", "classical-check", "hj", "hj-residual", "examples"])
def test_a_run_loads_only_what_it_uses(tmp_path, args, loaded, absent):
    """A run loads its formalism and its reader module and no other
    formalism's, the code generator only where it compiles an expression
    (every classical and HJ run; no shipped quantum config, whose
    coefficients are all numbers), numpy with its reader module (so not
    for ``examples``), ``numpy.random`` only when it draws samples and
    ``csv`` only when it writes a CSV; no run loads ``dataclasses``."""
    write_examples(str(tmp_path))
    args = [str(tmp_path / a) if a.endswith((".json", ".csv")) or a == "again" else a
            for a in args]
    if args[0] != "examples":
        args += ["--out", str(tmp_path / "report.json")]
    done = fresh("-c", MODULES_AFTER_MAIN, *args)
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert set(loaded) <= set(modules)
    assert not set(absent) & set(modules)


def test_an_expression_coefficient_loads_the_generator(tmp_path):
    """A quantum coefficient given as an expression is compiled, so that
    run loads the code generator, and still no other formalism's reader."""
    cfg = json.loads(json.dumps(EXAMPLE_CONFIGS["free_quantum"]))
    cfg["system"]["hamiltonians"]["terms"][0][0]["coeff"] = "cos(t1)"
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    done = fresh("-c", MODULES_AFTER_MAIN, "check", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "report.json"))
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert {"multitime.quantum", READERS["quantum"], CODEGEN} <= set(modules)
    assert not {READERS["classical"], READERS["hj"], "multitime.classical",
                "multitime.hj"} & set(modules)


def test_the_cli_import_loads_no_reader_and_no_generator():
    """``import multitime.cli`` loads the CLI, its config-spec layer, the
    parser and the reports alone: no formalism, no reader module, no code
    generator and no numpy, each of which a run loads when it needs it."""
    done = fresh("-c", MODULES_AFTER_IMPORT, *READERS.values(), CODEGEN)
    assert done.returncode == 0, done.stderr
    modules, found, numpy_loaded = json.loads(done.stdout)
    assert modules == ["multitime", "multitime.cli", "multitime.expr", "multitime.reports",
                       "multitime.spec"]
    assert found == [True] * (len(READERS) + 1)
    assert not numpy_loaded


@pytest.mark.parametrize("args,message", [
    (["check", "--config", "missing.json"], "config error: /: cannot read config: "),
    (["evolve", "--config", "coupled_qubits.json"],
     "config error: /experiment/kind: kind 'holonomy' not valid for subcommand 'evolve'"),
], ids=["unreadable", "kind-mismatch"])
def test_a_refused_config_loads_no_numpy(tmp_path, args, message):
    """A config that the loader or ``run_config``'s kind check refuses
    exits 2 before any reader module, and so numpy, loads."""
    write_examples(str(tmp_path))
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    done = fresh("-c", MODULES_AFTER_MAIN, *args, "--out", str(tmp_path / "report.json"))
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 2 and done.stderr.startswith(message)
    assert not {"numpy", *READERS.values()} & set(modules)


def cli_imports(path: pathlib.Path) -> list[str]:
    """The function (or ``<module>``) of each import of ``multitime.cli``
    in the package module at ``path``, in any of its forms."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):  # from . import cli, from .cli import ..
                module = child.module or ""
                names = [module, *(f"{module}.{alias.name}" for alias in child.names)]
            else:
                names = []
            if any("cli" in name.split(".") for name in names):
                found.append(where)
            visit(child, where)

    visit(ast.parse(path.read_text(), str(path)), "<module>")
    return found


def test_only_the_console_script_imports_the_cli():
    """No module of the package imports ``cli`` but the console script,
    ``multitime.main``: the reader modules take ``ConfigError`` and the spec
    primitives from ``spec``, so the CLI layer has no import cycle."""
    imports = {path.name: cli_imports(path)
               for path in sorted((SRC / "multitime").glob("*.py"))}
    assert {name: where for name, where in imports.items() if where} == {
        "__init__.py": ["main"]}


CLI_MODULE_AT_EXIT = """
import atexit, json, runpy, sys

out = sys.argv[1]


def record():  # run by the CLI's hard exit, with the run's modules still loaded
    with open(out, "w") as fh:
        json.dump(sorted(name for name in sys.modules
                         if name.partition(".")[0] == "multitime"), fh)


atexit.register(record)
sys.argv = ["multitime", *sys.argv[2:]]
runpy.run_module("multitime.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("formalism,args", [
    ("quantum", ["holonomy", "--config", "coupled_qubits.json"]),
    ("classical", ["check", "--config", "classical_free_check.json"]),
    ("hj", ["hj", "--config", "hj_free_residual.json"]),
])
def test_a_main_run_registers_no_second_cli(tmp_path, formalism, args):
    """Run as ``python -m multitime.cli`` (here by runpy, as ``-m`` runs
    it), the CLI is ``__main__`` alone: a run of a reader kind of each
    formalism ends, at its atexit callbacks, with its reader module loaded
    and no ``multitime.cli`` module in ``sys.modules``."""
    write_examples(str(tmp_path))
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    out = tmp_path / "modules.json"
    done = fresh("-c", CLI_MODULE_AT_EXIT, str(out), *args,
                 "--out", str(tmp_path / "report.json"))
    assert done.returncode == 0, done.stderr
    modules = json.loads(out.read_text())
    assert READERS[formalism] in modules and "multitime.cli" not in modules


def test_formalisms_share_the_phase_point():
    """``PhasePoint`` lives in ``paths``, the shared layer, and
    ``classical`` exports that class."""
    from multitime import classical, paths

    assert classical.PhasePoint is paths.PhasePoint


# ------------------------------------------------------------ the hard exit
# A CLI process, run by either entry point, runs its atexit callbacks,
# flushes stdout and stderr and then ends at once (``multitime._exit``),
# unless a tracer, a profiler or ``-i`` must still run after the CLI.  Every
# child here runs without PYTHONUNBUFFERED, so that its stdout is buffered
# as a user's is.

ENTRIES = ["-m", "console-script"]

EXIT_HOOK_THEN_RUN = """
import atexit, importlib, pathlib, runpy, sys


class Canary:  # freed only when the interpreter is torn down
    def __del__(self):
        sys.stderr.write("torn down\\n")


canary = Canary()
entry, marker = sys.argv[1:3]
atexit.register(pathlib.Path(marker).write_text, "ran")
atexit.register(print, "printed at exit")  # buffered: flushed after the callbacks
sys.argv = ["multitime", *sys.argv[3:]]
if entry == "-m":
    runpy.run_module("multitime.cli", run_name="__main__", alter_sys=True)
else:  # "module:function", called as the console script calls it
    module, _, function = entry.partition(":")
    sys.exit(getattr(importlib.import_module(module), function)())
"""


def entry_argv(entry: str) -> list[str]:
    """The interpreter arguments that run the CLI as ``entry`` runs it."""
    if entry == "-m":
        return ["-m", "multitime.cli"]
    module, _, function = console_script().partition(":")
    return ["-c", f"import sys; from {module} import {function}; sys.exit({function}())"]


def cli_process(entry: str, *args: str, stdout=subprocess.PIPE):
    return fresh(*entry_argv(entry), *args, stdout=stdout, PYTHONUNBUFFERED=None)


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("exit-configs")
    write_examples(str(directory))
    return directory


def without_duration(report: dict) -> dict:
    return {key: value for key, value in report.items() if key != "duration_seconds"}


def in_process_report(configs, name: str, subcommand: str, csv_path=None) -> dict:
    cfg = json.loads((configs / f"{name}.json").read_text())
    return without_duration(run_config(cfg, subcommand, csv_path=csv_path))


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("name,subcommand,where", [
    ("free_quantum", "check", "out"),
    ("classical_harmonic_validity", "validity", "stdout"),
    ("classical_free_evolve", "evolve", "csv"),
])
def test_hard_exit_leaves_complete_outputs(configs, tmp_path, entry, name, subcommand,
                                           where):
    """The report, in a file or on stdout, and the CSV are whole: each
    equals the in-process run's, apart from ``duration_seconds``."""
    args = ["--config", str(configs / f"{name}.json")]
    csv_path = tmp_path / "lines.csv"
    want = in_process_report(configs, name, subcommand,
                             str(csv_path) if where == "csv" else None)
    if where == "csv":
        want_csv = csv_path.read_bytes()
        csv_path.unlink()
        args += ["--csv", str(csv_path)]
    if where != "stdout":
        args += ["--out", str(tmp_path / "report.json")]
    done = cli_process(entry, subcommand, *args)
    assert done.returncode == 0 and done.stderr == ""
    text = done.stdout if where == "stdout" else (tmp_path / "report.json").read_text()
    assert without_duration(json.loads(text)) == want
    if where == "csv":
        assert csv_path.read_bytes() == want_csv


DEGENERATE_FOLIATION = {
    "formalism": "hj",
    "system": {"n": 1, "d": 1, "masses": [1.0], "S": "2*x1_1"},
    "experiment": {"kind": "trajectories", "foliation": {"u": [0.6]},
                   "init_positions": [[0.0]], "s_span": [-0.5, 0.5], "ds": 0.01},
}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("case,code,message", [
    ("missing-config", 2, "config error: "),
    ("unwritable-out", 2, "output error: "),
    ("closed-stdout", 2, "output error: [Errno 32] Broken pipe"),
    ("numerical-failure", 3, "numerical failure: 1 - u.V_1 = -0.2 <= 0"),
    ("reader-config-error", 2, "config error: /experiment/sizes: expected >= 1, got 0"),
])
def test_hard_exit_keeps_codes_and_messages(configs, tmp_path, entry, case, code,
                                            message):
    """Exits 2 and 3 keep their codes and their one-line messages.  A
    report that cannot be printed, here on a pipe whose reader has closed,
    is an output error, and its flush at the exit prints nothing more.  A
    config error that a formalism's reader module raises is caught as the
    CLI's own, also where the CLI runs as ``__main__``."""
    quantum = str(configs / "free_quantum.json")
    stdout = subprocess.PIPE
    if case == "missing-config":
        args = ["check", "--config", str(tmp_path / "missing.json")]
    elif case == "unwritable-out":
        args = ["check", "--config", quantum, "--out", str(tmp_path / "no" / "r.json")]
    elif case == "closed-stdout":
        args = ["check", "--config", quantum]
        read_end, stdout = os.pipe()
        os.close(read_end)
    elif case == "reader-config-error":  # raised in the quantum reader module
        cfg = json.loads((configs / "coupled_qubits.json").read_text())
        cfg["experiment"]["sizes"] = []
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        args = ["holonomy", "--config", str(tmp_path / "cfg.json")]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps(DEGENERATE_FOLIATION))
        args = ["foliation", "--config", str(tmp_path / "cfg.json")]
    try:
        done = cli_process(entry, *args, stdout=stdout)
    finally:
        if stdout != subprocess.PIPE:
            os.close(stdout)
    assert done.returncode == code
    assert done.stderr.startswith(message) and done.stderr.count("\n") == 1
    assert not done.stdout


TRACED_RUN = """
import runpy, sys

sys.settrace(lambda *args: None)  # a tracer: multitime._exit returns the code
sys.argv = ["multitime", *sys.argv[1:]]
runpy.run_module("multitime.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("subcommand", ["check", "examples"])
def test_traced_run_on_a_closed_pipe_exits_2(configs, tmp_path, subcommand):
    """Under a tracer the interpreter is torn down after the run, and its
    flush of stdout, which still holds the text that could not be printed,
    prints nothing more: the run exits 2 with its one output error line."""
    args = (["check", "--config", str(configs / "free_quantum.json")]
            if subcommand == "check" else ["examples", "--dir", str(tmp_path / "d")])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = fresh("-c", TRACED_RUN, *args, stdout=write_end, PYTHONUNBUFFERED=None)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, "output error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("entry", ENTRIES)
def test_hard_exit_runs_atexit_callbacks(configs, tmp_path, entry):
    """An atexit callback registered before the run still runs, and what
    it prints is flushed; the interpreter is not torn down, so a global's
    ``__del__`` never runs."""
    entry = console_script() if entry == "console-script" else entry
    marker = tmp_path / "marker"
    done = fresh("-c", EXIT_HOOK_THEN_RUN, entry, str(marker), "check", "--config",
                 str(configs / "free_quantum.json"), "--out", str(tmp_path / "r.json"),
                 PYTHONUNBUFFERED=None)
    assert done.returncode == 0, done.stderr
    assert marker.read_text() == "ran" and done.stdout == "printed at exit\n"
    assert "torn down" not in done.stderr
    assert json.loads((tmp_path / "r.json").read_text())["results"]


def test_profiled_run_prints_its_stats(configs, tmp_path):
    """Under cProfile the CLI returns its code instead: the profiler prints
    its table after the run."""
    done = fresh("-m", "cProfile", "-m", "multitime.cli", "check", "--config",
                 str(configs / "free_quantum.json"), "--out", str(tmp_path / "r.json"),
                 PYTHONUNBUFFERED=None)
    assert done.returncode == 0, done.stderr
    assert "function calls" in done.stdout and "Ordered by" in done.stdout
    assert json.loads((tmp_path / "r.json").read_text())["results"]


def test_inspect_flag_reaches_the_prompt(tmp_path):
    """With ``-i`` the interpreter goes on to its prompt after the run (and
    ends at the empty stdin)."""
    done = fresh("-i", "-m", "multitime.cli", "examples", "--dir", str(tmp_path / "d"),
                 PYTHONUNBUFFERED=None)
    assert done.returncode == 0
    assert ">>>" in done.stderr
    assert len(done.stdout.splitlines()) == len(EXAMPLE_CONFIGS)
