"""Central differences of expressions and generic callables.

The package takes its derivatives exactly (``expr.diff``) or as central
differences built into the expressions (``expr.central_difference``);
``HJFunction.grad_x`` and ``velocity`` take them here, as the
cross-check of the exact gradients.  ``check_steps`` refuses a step
that rounds away; the consistency conditions check every step they are
given.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from .expr import Expression, evaluate

__all__ = [
    "default_step",
    "diff_callable",
    "partial_derivative",
    "check_steps",
]

#: relative step used when the caller does not pass one
DEFAULT_REL_STEP = 1e-4
#: absolute floor on the default step
MIN_ABS_STEP = 1e-6


def default_step(x: float) -> float:
    """Step ``1e-4 * max(1, |x|)``, floored at 1e-6."""
    return max(DEFAULT_REL_STEP * max(1.0, abs(x)), MIN_ABS_STEP)


def check_steps(h: float | None, names: Sequence[str], values: Sequence[float]) -> None:
    """FloatingPointError at the first of ``names`` whose value x (in
    ``values``) has x + h == x or x - h == x: a central difference there
    would read a wrong slope, or 0.  A None ``h`` (exact) is not checked."""
    if h is not None:
        for name, x in zip(names, values):
            if x + h == x or x - h == x:
                raise FloatingPointError(f"the step h = {float(h)!r} rounds "
                                         f"away at {name} = {float(x)!r}")


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
