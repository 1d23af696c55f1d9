"""Finite-difference derivatives for expressions and generic callables.

All consistency conditions in this package are checked pointwise, so a
small, careful finite-difference kernel is enough.  Central differences
are second order; ``richardson_difference`` (fourth order) is the
reference they are measured against.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .expr import Expression, evaluate

__all__ = [
    "default_step",
    "central_difference",
    "richardson_difference",
    "diff_callable",
    "partial_derivative",
    "mixed_partial",
]

#: relative step used when the caller does not pass one
DEFAULT_REL_STEP = 1e-4
#: absolute floor on the default step and on the steps of ``mixed_partial``
MIN_ABS_STEP = 1e-6


def default_step(x: float) -> float:
    """Step ``1e-4 * max(1, |x|)``, floored at 1e-6."""
    return max(DEFAULT_REL_STEP * max(1.0, abs(x)), MIN_ABS_STEP)


def central_difference(f: Callable[[float], float], x: float, h: float):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def richardson_difference(f: Callable[[float], float], x: float, h: float):
    """One Richardson step on the central difference (fourth order)."""
    coarse = central_difference(f, x, h)
    fine = central_difference(f, x, h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def diff_callable(
    f: Callable[[Mapping[str, float]], float],
    var: str,
    bindings: Mapping[str, float],
    h: float | None = None,
):
    """Partial derivative of a bindings->value callable at ``bindings``,
    by central differences at the step ``h``, taken as given, or
    ``default_step`` when it is None.

    ``f`` may return a float or a numpy array (matrix-valued functions).
    """
    x0 = float(bindings[var])
    if h is None:
        h = default_step(x0)
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    b = dict(bindings)

    def g(x: float):
        b[var] = x
        return f(b)

    try:
        return central_difference(g, x0, h)
    finally:
        b[var] = x0


def partial_derivative(
    expr: Expression,
    var: str,
    bindings: Mapping[str, float],
    h: float | None = None,
) -> float:
    """Central-difference partial derivative of an expression."""
    if var not in bindings:
        raise KeyError(f"variable {var!r} is not bound")
    return diff_callable(lambda b: evaluate(expr, b), var, bindings, h=h)


def mixed_partial(
    f: Callable[[Mapping[str, float]], float],
    u: str,
    v: str,
    bindings: Mapping[str, float],
    h: float = 5e-4,
) -> float:
    """Second mixed partial d^2 f / du dv of distinct variables ``u != v``
    via the symmetric four-point stencil."""
    if u == v:
        raise ValueError("mixed_partial requires two distinct variables")
    b = dict(bindings)
    u0, v0 = float(b[u]), float(b[v])
    hu = max(h * max(1.0, abs(u0)), MIN_ABS_STEP)
    hv = max(h * max(1.0, abs(v0)), MIN_ABS_STEP)

    def at(du: float, dv: float) -> float:
        b[u] = u0 + du
        b[v] = v0 + dv
        return f(b)

    value = (at(hu, hv) - at(hu, -hv) - at(-hu, hv) + at(-hu, -hv)) / (4 * hu * hv)
    b[u], b[v] = u0, v0
    return value
