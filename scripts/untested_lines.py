"""The lines of ``src/multitime`` that no Tier-1 test runs.

    python scripts/untested_lines.py [PYTEST_ARG ...]

Runs the Tier-1 suite (``pytest -q tests``, or the pytest arguments
given) in this process under a line tracer of its own, set by
``sys.settrace`` and ``threading.settrace`` before anything imports
``multitime``, and prints, module by module, every executable line of
``src/multitime`` that no test ran, as ``line: source``.  A line is
executable where the compiler starts the bytecode of a statement
(``dis.findlinestarts`` over every code object of the module).  It needs
the standard library and the suite's own packages alone, not
``coverage``.  The suite's own output goes to stderr.

Hypothesis runs without its per-example deadline here, because the trace
slows every example; no other setting changes.  The tests that run
multitime in fresh interpreters (``tests/test_imports.py``) are not
traced, so a line that only they run is listed.  The trace makes the
suite two to three times slower.  Exits with the suite's status.
"""

import contextlib
import dis
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "multitime"


def executable_lines(path: Path) -> set[int]:
    """The lines at which a statement's bytecode starts, in every code
    object of the module at ``path``."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def line_tracer(ran: set[int]):
    """The local trace function that adds each line it sees run to ``ran``."""
    def trace(frame, event, arg):
        if event == "line":
            ran.add(frame.f_lineno)
        return trace

    return trace


def pytest_configure(config):
    """This module is a pytest plugin of the traced run, which takes away
    hypothesis's deadline once pytest has loaded its plugins."""
    import hypothesis

    hypothesis.settings.register_profile("traced", deadline=None)
    hypothesis.settings.load_profile("traced")


def main(argv: list[str]) -> int:
    import pytest

    sources = {str(path): executable_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    ran = {path: set() for path in sources}
    tracers = {path: line_tracer(lines) for path, lines in ran.items()}

    def trace(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")],
                                 plugins=[sys.modules[__name__]])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("Untraced: tests/test_imports.py runs multitime in fresh interpreters; "
          "a line that only those run is listed below.")
    for path, lines in sources.items():
        missed = sorted(lines - ran[path])
        text = Path(path).read_text().splitlines()
        print(f"\n{Path(path).relative_to(ROOT)}: {len(missed)} of {len(lines)} "
              "executable lines not run")
        for line in missed:
            print(f"  {line}: {text[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
