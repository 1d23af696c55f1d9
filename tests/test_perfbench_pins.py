"""The benchmark's fast in-process self-checks, run with the tests.

``perfbench/selfcheck.py`` pins what the benchmark's per-layer numbers
rest on, such as one ``HJFunction.velocity`` call being one ``numdiff``
call and two top-level evaluations.  Running its in-process checks here
makes a change to the package that breaks such a pin fail the tests, not
only the benchmark.  Its slow checks (whole benchmark runs) stay out.
"""

import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def selfcheck(monkeypatch):
    # selfcheck imports its sibling modules (spans, calibrate) by name
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("selfcheck", BENCH / "selfcheck.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("check", ["check_arithmetic", "check_wrappers",
                                   "check_scaling"])
def test_selfcheck(selfcheck, check):
    getattr(selfcheck, check)()
