"""Central differences of expressions and generic callables.

The package takes its derivatives exactly or as central differences
built into the expressions (``expr.derivative``); ``HJFunction.grad_x``
and ``velocity`` take them here, as the finite-difference cross-check
of the exact gradients.  Only the HJ module loads this one.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .expr import Expression, check_steps, evaluate

__all__ = [
    "default_step",
    "diff_callable",
    "partial_derivative",
]

#: relative step used when the caller does not pass one
DEFAULT_REL_STEP = 1e-4
#: absolute floor on the default step
MIN_ABS_STEP = 1e-6


def default_step(x: float) -> float:
    """Step ``1e-4 * max(1, |x|)``, floored at 1e-6."""
    return max(DEFAULT_REL_STEP * max(1.0, abs(x)), MIN_ABS_STEP)


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
    check_steps(h, (), ())
    return (f({**bindings, var: x0 + h}) - f({**bindings, var: x0 - h})) / (2.0 * h)


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
