"""The package runs on numpy and the standard library alone: every shipped
config exits 0 in a fresh interpreter in which scipy cannot be imported.
The runs are serial: they import no worker pool and start no thread.

The runs need a fresh interpreter, because this test process has long
since imported scipy through other tests.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from multitime.configs import EXAMPLE_CONFIGS

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

RUN_ALL_WITHOUT_SCIPY = """
import json, sys, threading

sys.modules["scipy"] = None  # any import of scipy or a submodule now fails

import multitime.cli as cli
from multitime.configs import EXAMPLE_CONFIGS

directory = sys.argv[1]
cli.write_examples(directory)
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


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    """The exit code of each config, then whether concurrent.futures was
    imported and how many threads are alive after all the runs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-c", RUN_ALL_WITHOUT_SCIPY,
         str(tmp_path_factory.mktemp("configs"))],
        env=env, capture_output=True, text=True, timeout=300)
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
