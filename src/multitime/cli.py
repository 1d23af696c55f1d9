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

This module holds the spec primitives (``_read``, ``_each``, ``_num``,
..), the readers that two formalisms share (``_expr``,
``_sample_phase_points``, ``_defect_summary``), the table, the config
loader, the finite checks of a report, ``run_config`` and ``main``.  The
system readers and kind functions of each formalism are in its reader
module, ``kinds_quantum``, ``kinds_classical`` or ``kinds_hj``, which a
kind's ``prepare`` imports at its first call.  A formalism module imports
only the shared layer (``expr``, ``reports``, ``paths``, ``numdiff``,
``linops``, ``codegen``), never another formalism.  So a run loads only
its formalism's reader module and the formalism itself: ``quantum`` with
``linops``, and ``codegen``, the code generator, only for a coefficient
given as an expression; ``classical`` with ``paths`` and ``codegen``; or
``hj`` with ``paths``, ``numdiff`` and ``codegen``.  It loads
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

if __name__ == "__main__":  # ``python -m multitime.cli``: before numpy loads its BLAS
    from . import _one_blas_thread

    _one_blas_thread()

import numpy as np

from . import expr
from .expr import DomainError, ExpressionError, FoliationError, free_variables
from .reports import write_csv

CSV_FORMAT_VERSION = 1
#: the most sample points or time tuples one run may draw or build up front
MAX_POINTS = 10 ** 6


class ConfigError(Exception):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path or '/'}: {message}")
        self.pointer = path


# ---------------------------------------------------------------- validation
#
# Each config block has one spec, a dict that maps each of its keys, in the
# order they are read, to ``(default, read, *args)``: the entry is read by
# ``read(value, pointer, *args)``, and ``_REQ`` marks a required key.


_REQ = object()  # the default of a required key


def _obj(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, f"expected an object, got {type(value).__name__}")
    return value


def _tag(value, path: str, key: str) -> str:
    """The string at ``key`` of the object ``value``, which selects the
    spec that reads the object; a missing one is a missing required key."""
    if key not in _obj(value, path):
        raise ConfigError(path, f"missing required key {key!r}")
    return _str(value[key], f"{path}/{key}")


def _read(value, path: str, spec: dict) -> list:
    """The entries of the object ``value``, read in the order of ``spec``.
    An unknown key is refused first, then a missing required key.  An
    absent key takes its default, which is recorded in ``value`` so that
    the report echoes it; a None default leaves it absent, read as None."""
    obj = _obj(value, path)
    for key in obj:
        if key not in spec:
            raise ConfigError(f"{path}/{key}", "unknown key (strict schema)")
    for key, entry in spec.items():
        if entry[0] is _REQ and key not in obj:
            raise ConfigError(path, f"missing required key {key!r}")
    got = []
    for key, entry in spec.items():
        if key not in obj:
            if entry[0] is None:
                got.append(None)
                continue
            obj[key] = entry[0]
        got.append(entry[1](obj[key], f"{path}/{key}", *entry[2:]))
    return got


def _num(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    return _blame(path, expr.check_finite, value)


def _int(value, path: str, minimum: int | None = None,
         maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {type(value).__name__}")
    if minimum is not None:
        _blame(path, expr.check_count, value, minimum)
    if maximum is not None and value > maximum:
        raise ConfigError(path, f"expected <= {maximum}, got {value}")
    return value


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected a boolean, got {type(value).__name__}")
    return value


def _str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {type(value).__name__}")
    return value


def _list(value, path: str, length: int | None = None) -> list:
    if not isinstance(value, list):
        raise ConfigError(path, f"expected an array, got {type(value).__name__}")
    if length is not None and len(value) != length:
        raise ConfigError(path, f"expected {length} entries, got {len(value)}")
    return value


def _each(value, path: str, length: int | None, read: Callable, *args) -> list:
    """Every entry of the array ``value`` (of ``length`` entries unless
    None), read by ``read(entry, pointer, *args)``."""
    return [read(v, f"{path}/{i}", *args) for i, v in enumerate(_list(value, path, length))]


def _positive(value, path: str) -> float:
    return _blame(path, expr.check_positive, _num(value, path))


def _some(value, path: str, read: Callable, *args) -> list:
    """``_each`` of an array of at least one entry."""
    _blame(path, expr.check_count, len(_list(value, path)), 1)
    return _each(value, path, None, read, *args)


def _axes(value, path: str, n: int, length: int) -> list[int]:
    """``length`` distinct 1-based time axes in 1..n."""
    axes = []
    for i, v in enumerate(_list(value, path, length)):
        ax = _int(v, f"{path}/{i}", 1)
        if ax > n:
            raise ConfigError(f"{path}/{i}", f"expected an axis in 1..{n}, got {ax}")
        if ax in axes:
            raise ConfigError(f"{path}/{i}", f"axis {ax} repeated")
        axes.append(ax)
    return axes


def _blame(path: str, check: Callable, *args):
    """``check(*args)``, a library function that checks a value or plans a
    run's work (a count above ``MAX_STEPS`` is refused), its ValueError a
    ConfigError at ``path``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _span(value, path: str) -> tuple[float, float]:
    return _blame(path, expr.check_span, _each(value, path, 2, _num))


def _box(value, path: str) -> tuple[float, float]:
    lo, hi = _each(value, path, 2, _num)
    if not (lo <= hi and math.isfinite(hi - lo)):
        raise ConfigError(path, f"expected a pair lo <= hi with a finite "
                                f"hi - lo, got [{lo}, {hi}]")
    return lo, hi


# ------------------------------------------------- readers two formalisms share


def _expr(value, path: str, names: Sequence[str], numbers: dict | None = None):
    """The expression of the string ``value``; each of its variables must
    be one of ``names`` or of ``numbers``, the constants, each of which is
    replaced by its number.  ``expr.parse_expression`` is looked up on the
    module at each call, so perfbench's ``expr.parse`` span counts it."""
    try:
        tree = expr.parse_expression(_str(value, path))
    except ExpressionError as exc:
        raise ConfigError(path, f"bad expression: {exc}") from None
    extra = free_variables(tree) - {*names, *(numbers or {})}
    if extra:
        raise ConfigError(path, f"undeclared variables {sorted(extra)}")
    return expr.substitute(tree, numbers or {})


def _sample_phase_points(cfg, path: str, n: int, d: int, seed: int) -> np.ndarray:
    """The (count, n + 2·n·d) array of the sampled phase points, one row
    each: its times, then its x rows, then its p rows."""
    count, t_box, x_box, p_box = _read(cfg, path, {
        "count": (_REQ, _int, 1, MAX_POINTS), "t_box": (_REQ, _box),
        "x_box": (_REQ, _box), "p_box": (_REQ, _box)})
    # each point's times, x and p in one row: the stream of drawing them in turn
    bounds = [t_box] * n + [x_box] * (n * d) + [p_box] * (n * d)
    lo, hi = np.transpose(bounds)
    return np.random.default_rng(seed).uniform(lo, hi, size=(count, len(bounds)))


# --------------------------------------------------------------- experiments
#
# A kind function checks its system and experiment blocks in full, builds the
# system and draws its random samples from a generator of the config's seed,
# made only by a kind that draws (it loads ``numpy.random``).  It returns
# ``run``, which does the numerics and returns the results and, for a kind
# that writes CSV, the function that builds the table.  The kind functions
# and system readers of each formalism are in its reader module,
# ``kinds_<formalism>``, which the first call of one of its kinds loads.

_E = "/experiment"
_KIND = (_REQ, _str)


def _defect_summary(grid: np.ndarray) -> dict:
    """The extremes of each sample's largest pair defect in a (samples x pairs)
    grid: 0.0 without a pair (n = 1), NaN where one is, which is refused."""
    worst = grid.max(axis=1, initial=0.0)
    return {"sample_count": len(worst), "max_defect": float(worst.max()),
            "min_defect": float(worst.min())}


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
    except ValueError as exc:  # JSONDecodeError, undecodable bytes, huge ints
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
    except (FloatingPointError, OverflowError, FoliationError,
            DomainError, np.linalg.LinAlgError) as exc:
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

    # the kind readers import this module by its name: give them this run's
    # names (its ConfigError is the one main catches), not a second copy.
    # They go into a new module: under cProfile (runpy without alter_sys)
    # no module holds this namespace.  No name here is rebound after this.
    sys.modules[__spec__.name] = module = type(sys)(__spec__.name)
    vars(module).update((k, v) for k, v in globals().items() if not k.startswith("__"))
    sys.exit(_exit(main()))
