"""Command-line front end.

Reads a strict JSON config, checks all of it, then runs one experiment
and writes a deterministic JSON report (plus optional CSV for tabular
data).  ``_KINDS`` is the one table of experiment kinds: for each
(formalism, kind) it names the subcommand that runs it, whether it writes
CSV, and the function that checks its config and builds its system.
That function returns a closure that does only the numerics.  It bounds
the run's work with the library's plan functions, which the run itself
counts with, and picks the pointer to blame; it sums only a holonomy's
staircases over its sizes and path-independence's levels.

This module holds the table, the config loader, the finite checks of a
report, ``run_config`` and ``main``; ``spec`` holds ``ConfigError``, the
spec primitives and the readers that two formalisms share.  The system
readers and kind functions of each formalism are in its reader module,
``kinds_quantum``, ``kinds_classical`` or ``kinds_hj``, which imports
``spec``, never this module, and which a kind's ``prepare`` imports at
its first call.  A formalism module imports
only the shared layer (``expr``, ``reports``, ``paths``, ``numdiff``,
``linops``, ``codegen``), never another formalism.  So a run loads only
its formalism's reader module and the formalism itself: ``quantum`` with
``linops``, and ``codegen``, the code generator, only for a coefficient
given as an expression; ``classical`` with ``paths`` and ``codegen``; or
``hj`` with ``paths``, ``numdiff`` and ``codegen``.  numpy loads with
the reader module: ``import multitime.cli``, ``examples``, ``--help`` and
a config refused before its kind runs load no numpy.  A run loads
``numpy.random`` only if it draws samples; ``examples`` loads only the
configs.

Exit codes: 0 success, 2 config error or output error (a report, CSV
or examples path that cannot be written, or a report that cannot be
printed), 3 numerical failure.  A run that exits 2 or 3 leaves no report
or CSV behind.  Run as ``python -m multitime.cli``, the process ends
through ``multitime._exit``; ``main`` itself returns the code.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple, Sequence

if __name__ == "__main__":  # ``python -m multitime.cli``: before a reader module loads numpy
    from . import _one_blas_thread

    _one_blas_thread()

from .expr import DomainError, ExpressionError, FoliationError
from .reports import write_csv
from .spec import _REQ, ConfigError, _int, _obj, _read, _str, _tag

CSV_FORMAT_VERSION = 1

# --------------------------------------------------------------- experiments
#
# A kind function checks its system and experiment blocks in full, builds the
# system and draws its random samples from a generator of the config's seed,
# made only by a kind that draws (it loads ``numpy.random``).  It returns
# ``run``, which does the numerics and returns the results and, for a kind
# that writes CSV, the function that builds the table.  The kind functions
# and system readers of each formalism are in its reader module,
# ``kinds_<formalism>``, which the first call of one of its kinds loads.


class _Kind(NamedTuple):
    subcommand: str
    csv: bool  # whether ``--csv`` is supported
    prepare: Callable  # (system, experiment, seed) -> run


def _deferred(formalism: str, name: str) -> Callable:
    """The ``prepare`` that calls the kind function ``name`` of the reader
    module ``kinds_<formalism>``, imported at its first call."""
    def prepare(system: dict, exp: dict, seed: int):
        module = importlib.import_module(f".kinds_{formalism}", __package__)
        return getattr(module, name)(system, exp, seed)

    return prepare


_KINDS: dict[tuple[str, str], _Kind] = {
    (formalism, kind): _Kind(subcommand, csv, _deferred(formalism, name))
    for formalism, kind, subcommand, csv, name in [
        ("quantum", "defect-grid", "check", False, "_quantum_defect_grid"),
        ("classical", "defect-grid", "check", False, "_classical_defect_grid"),
        ("hj", "defect-grid", "check", False, "_hj_defect_grid"),
        ("quantum", "staircase", "evolve", False, "_staircase"),
        ("classical", "equal-time-evolve", "evolve", True, "_equal_time_evolve"),
        ("quantum", "holonomy", "holonomy", False, "_holonomy"),
        ("classical", "validity", "validity", False, "_validity"),
        ("classical", "full-grid", "grid", True, "_full_grid"),
        ("classical", "path-independence", "grid", False, "_path_independence"),
        ("hj", "hj-residual", "hj", False, "_hj_residual"),
        ("hj", "trajectories", "foliation", True, "_trajectories"),
        ("hj", "foliation-compare", "foliation", False, "_foliation_compare"),
        ("classical", "cjs-demo", "cjs", False, "_cjs_demo"),
    ]}

_FORMALISMS = tuple(dict.fromkeys(f for f, _ in _KINDS))

_SUBCOMMAND_KINDS: dict[str, set[str]] = {
    sub: {kind for (_, kind), entry in _KINDS.items() if entry.subcommand == sub}
    for sub in dict.fromkeys(entry.subcommand for entry in _KINDS.values())}


# ------------------------------------------------------------------ plumbing


def _formalism(value, path: str) -> str:
    if (formalism := _str(value, path)) not in _FORMALISMS:
        raise ConfigError(path, f"expected {' | '.join(_FORMALISMS)}, got {formalism!r}")
    return formalism


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read config: {exc}")
    except (ValueError, RecursionError) as exc:  # bad JSON, bytes, huge ints, deep nests
        raise ConfigError("", f"invalid JSON: {exc}")
    _, _, _, exp = _read(raw, "", {"formalism": (_REQ, _formalism), "system": (_REQ, _obj),
                                   "seed": (0, _int, 0), "experiment": (_REQ, _obj)})
    _tag(exp, "/experiment", "kind")
    return raw


def _all_finite(value) -> bool:
    """True iff every number in ``value``, a nest of dicts and lists, is
    finite: one loop over a stack, with no call per dict, list or float."""
    stack = [value]
    pop, push = stack.pop, stack.extend
    while stack:
        item = pop()
        if isinstance(item, float):
            if not math.isfinite(item):
                return False
        elif isinstance(item, dict):
            push(item.values())
        elif isinstance(item, list):
            push(item)
    return True


def _non_finite(value) -> list | None:
    """``[number, key, .., key]``: the first non-finite number in ``value``,
    a nest of dicts and lists, and the keys down to it, innermost first;
    None if every number is finite."""
    if isinstance(value, float):
        return None if math.isfinite(value) else [value]
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        if (found := _non_finite(item)) is not None:
            found.append(key)
            return found
    return None


def _check_finite(value, path: str) -> None:
    """FloatingPointError naming the first non-finite number in ``value``,
    a nest of dicts and lists (JSON has no such numbers).  One flat scan
    (``_all_finite``) clears a report whose numbers are all finite; only
    a report it refuses is walked for the pointer, which is built for
    that number only."""
    if not _all_finite(value) and (found := _non_finite(value)) is not None:
        bad, *keys = found
        pointer = path + "".join(f"/{key}" for key in reversed(keys))
        raise FloatingPointError(f"non-finite result at {pointer}: {bad}")


def run_config(cfg: dict, subcommand: str, jobs=None,
               csv_path: str | None = None) -> dict:
    """The report of one run; ``jobs`` is ignored (runs are serial)."""
    formalism, kind = cfg["formalism"], cfg["experiment"]["kind"]
    allowed = _SUBCOMMAND_KINDS[subcommand]
    if kind not in allowed:
        raise ConfigError("/experiment/kind", f"kind {kind!r} not valid for subcommand "
                          f"{subcommand!r} (expected one of {sorted(allowed)})")
    entry = _KINDS.get((formalism, kind))
    if entry is None:
        raise ConfigError("/experiment/kind", f"unsupported {formalism} kind {kind!r}")
    if csv_path and not entry.csv:
        raise ConfigError("/experiment/kind", f"kind {kind!r} produces no CSV output")
    start = time.monotonic()
    # every config error is raised here, before any numerics run
    run = entry.prepare(cfg["system"], cfg["experiment"], cfg["seed"])
    results, csv_table = run()
    _check_finite(results, "/results")
    report = {"config": cfg, "results": results,
              "duration_seconds": time.monotonic() - start}
    if csv_path:
        columns, rows = csv_table()
        write_csv(csv_path, columns, rows)
        report["csv"] = {"path": csv_path, "columns": columns,
                         "format_version": CSV_FORMAT_VERSION}
    return report


def _print(text: str) -> None:
    """Print and flush ``text``, so that a closed pipe is an output error
    here; stdout is then pointed at ``os.devnull``, or the teardown's flush
    of the text left in its buffer (where ``multitime._exit`` returns)
    would fail again and exit 120."""
    try:
        print(text, flush=True)
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise


def _numerical_errors() -> tuple[type[Exception], ...]:
    """The exceptions that exit 3, built when one is matched: numpy's
    ``LinAlgError`` only if numpy is loaded, as it is once a kind runs."""
    numpy = sys.modules.get("numpy")
    linalg = (numpy.linalg.LinAlgError,) if numpy is not None else ()
    return (FloatingPointError, OverflowError, FoliationError, DomainError, *linalg)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="multitime",
        description="multi-time consistency experiments: quantum, classical "
                    "and Hamilton-Jacobi",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _SUBCOMMAND_KINDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None,
                       help="report JSON path (default: stdout)")
        p.add_argument("--csv", default=None,
                       help="write tabular data (paths, grids) as CSV")
        p.add_argument("--jobs", type=int, help="ignored: runs are serial")
    pex = sub.add_parser("examples")
    pex.add_argument("--dir", default="configs",
                     help="directory for the shipped example configs")

    args = parser.parse_args(argv)

    try:
        if args.subcommand == "examples":
            from .configs import write_examples

            _print("\n".join(write_examples(args.dir)))
            return 0
        cfg = _load_config(args.config)
        report = run_config(cfg, args.subcommand, csv_path=args.csv)
        text = json.dumps(report, indent=2, sort_keys=True)
        try:
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text + "\n")
            else:
                _print(text)
        except OSError:  # remove the CSV file written, never a link or a device
            if args.csv and os.path.isfile(args.csv) and not os.path.islink(args.csv):
                os.remove(args.csv)
            raise
    except _numerical_errors() as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ExpressionError) as exc:  # DomainError is caught above
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output file or directory that cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    from . import _exit

    sys.exit(_exit(main()))
