"""The config-spec layer of the CLI: ``ConfigError``, the spec
primitives (``_read``, ``_each``, ``_num``, ..) and the readers that two
formalisms share.  ``cli`` and each formalism's reader module import it,
and it imports neither, so the CLI layer has no import cycle."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence

from . import expr
from .expr import ExpressionError, free_variables

if TYPE_CHECKING:
    import numpy as np

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
    import numpy as np  # loaded by the reader module that calls this

    count, t_box, x_box, p_box = _read(cfg, path, {
        "count": (_REQ, _int, 1, MAX_POINTS), "t_box": (_REQ, _box),
        "x_box": (_REQ, _box), "p_box": (_REQ, _box)})
    # each point's times, x and p in one row: the stream of drawing them in turn
    bounds = [t_box] * n + [x_box] * (n * d) + [p_box] * (n * d)
    lo, hi = np.transpose(bounds)
    return np.random.default_rng(seed).uniform(lo, hi, size=(count, len(bounds)))


# the pointer of the experiment block, and the spec entry of its ``kind``
_E = "/experiment"
_KIND = (_REQ, _str)


def _defect_summary(grid: np.ndarray) -> dict:
    """The extremes of each sample's largest pair defect in a (samples x pairs)
    grid: 0.0 without a pair (n = 1), NaN where one is, which is refused."""
    worst = grid.max(axis=1, initial=0.0)
    return {"sample_count": len(worst), "max_defect": float(worst.max()),
            "min_defect": float(worst.min())}
