"""Small arithmetic expression language used for Hamiltonians, vector fields
and Hamilton-Jacobi functions.

Grammar (standard precedence, ``^`` right-associative and tighter than
``* /``, which are tighter than ``+ -``)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := number | name | name '(' expr ')' | '(' expr ')'

The parser reads the left-associative levels, ``expr`` and ``term``, from
one table, ``_LEVELS``, in one loop, and has one function for ``unary``
and ``power`` and one for ``atom``.  A source nested deeper than
``MAX_DEPTH`` levels (brackets, calls, minus signs and powers), or whose
tree is taller, is an ExpressionSyntaxError at the token that passes the
bound, so that no pass over a tree derived from one it accepts runs out
of Python's recursion limit.

Known functions: sin, cos, exp, log, sqrt, abs, tanh.  A tree's nodes
(``Num``, ``Var``, ``Neg``, ``BinOp``, ``Call``) are immutable values that
compare and hash by their structure, a number by its bits.

Variable naming convention used throughout the package: time variables
``t1..tn``; position components ``xJ_D`` and momentum components ``pJ_D``
for particle ``J`` in 1..n and dimension ``D`` in 1..d.  The single-time
forms additionally use the bare variable ``t``.  ``binding_names`` builds
them, and ``phase_names`` those of a time tuple and of a flat state.

The code generator that compiles trees, ``compile_function`` and
``compile_rk4``, is the module ``codegen``, which this module loads only
when a tree's ``function`` is first used: ``evaluate`` is a thin caller
of it.  So a run that compiles no tree, as a quantum run whose
coefficients are all numbers, loads the parser, the nodes and the checks
alone.  ``STEP_TIME``, the variable of ``compile_rk4``'s stage time, is
here, so that a tree can name it without loading the generator.
``diff`` builds the exact partial derivative of an AST as another AST,
and ``central_difference`` its central difference at a given step;
``derivative(h)`` picks one of the two for every condition.

The module also holds what every formalism shares without importing
another: the work bound ``MAX_STEPS`` and its one check ``bound_steps``
next to ``check_steps`` and the four checks of a number that the CLI's
readers share (``check_finite``, ``check_positive``, ``check_span`` and
``check_count``: each returns what it accepts, and its ValueError has the
CLI's wording, after ``name: `` when the caller names the number), and
``FoliationError`` next to ``DomainError``, so that the CLI can catch it
without loading the HJ module.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
import struct
import sys
from typing import Callable, Mapping, NoReturn, Sequence

__all__ = [
    "Expression",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "ExpressionError",
    "ExpressionSyntaxError",
    "UnknownFunctionError",
    "UnboundVariableError",
    "DomainError",
    "parse_expression",
    "evaluate",
    "free_variables",
    "binding_names",
    "phase_names",
    "STEP_TIME",
    "diff",
    "central_difference",
    "derivative",
    "check_steps",
    "check_finite",
    "check_positive",
    "check_span",
    "check_count",
    "check_masses",
    "MAX_STEPS",
    "MAX_DEPTH",
    "bound_steps",
    "FoliationError",
    "substitute",
]


class ExpressionError(Exception):
    """Base class for expression language errors."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed source text; ``column`` is 1-based."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


class UnknownFunctionError(ExpressionSyntaxError):
    """A call to a function that is not in the supported set."""


class UnboundVariableError(ExpressionError):
    """Evaluation hit a variable with no binding."""


class DomainError(ExpressionError):
    """Evaluation left the real domain (log of non-positive, sqrt of
    negative, division by zero, overflow)."""


class FoliationError(RuntimeError):
    """Trajectories on a foliation could not be extracted or compared:
    anchoring did not converge, or two families share no time window."""


class _Node:
    """Base of the node kinds: an immutable value (assigning or deleting a
    field raises AttributeError) that compares and hashes by its kind and
    one key fixed at construction, the fields named by ``__match_args__``,
    or a number's bits: ``Num(0.0) != Num(-0.0)``, so equal trees compile
    alike.  ``function`` is the tree's variables, left to right, and their
    ``codegen.compile_function``, built on first access and kept in the
    instance ``__dict__`` beside the key; it is freed with the tree.  The
    first access in a process loads ``codegen``."""

    def __init__(self, *fields):
        vars(self).update(zip(self.__match_args__, fields, strict=True), _key=fields)

    def __eq__(self, other):
        return self._key == other._key if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change {name!r}: a {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({', '.join(fields)})"

    @functools.cached_property
    def function(self) -> tuple[tuple[str, ...], Callable[..., tuple[float, ...]]]:
        from .codegen import compile_function

        names = _variables(self)
        return names, compile_function([self], [names])


class Num(_Node):
    __match_args__ = ("value",)

    def __init__(self, value: float):
        super().__init__(value)
        vars(self)["_key"] = struct.pack("d", value)


class Var(_Node):
    __match_args__ = ("name",)


class Neg(_Node):
    __match_args__ = ("arg",)


class BinOp(_Node):
    __match_args__ = ("op", "left", "right")  # op: one of + - * / ^


class Call(_Node):
    __match_args__ = ("func", "arg")


Expression = Num | Var | Neg | BinOp | Call

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
    "tanh": math.tanh,
}

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

# The left-associative levels of operators, loosest first: the operands
# that each joins are made of the levels after it, and the last one's of
# unary minus, powers and atoms.
_LEVELS = ("+-", "*/")

#: the deepest nesting of a source (brackets, calls, minus signs and
#: powers) and the tallest tree that the parser builds: every tree derived
#: from one it accepts (exact and central-difference derivatives, a
#: field's D_j, the HJ gradients and brackets) is walked within Python's
#: default recursion limit of 1000 frames; the deepest walk measured, of
#: the second derivatives of a 64-level power tower, takes about 590
MAX_DEPTH = 64


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """The tokens of ``source`` as (kind, text, 1-based column), last first
    for the parser to ``pop``, behind the end token, whose text its errors
    show.  No text is empty, so only an operator's is in an operator string."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        if m.lastgroup == "bad":
            raise ExpressionSyntaxError(f"unexpected character {m.group()!r}", m.start() + 1)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), m.start() + 1))
    return [("end", "end of input", len(source) + 1), *reversed(tokens)]


def _bounded(levels: int, column: int) -> int:
    """``levels`` of nesting or of tree height, if at most ``MAX_DEPTH``."""
    if levels > MAX_DEPTH:
        raise ExpressionSyntaxError(f"the expression nests deeper than {MAX_DEPTH} levels",
                                    column)
    return levels


def _operands(tokens: list, level: int, depth: int) -> tuple[Expression, int]:
    """The operands of the operators of ``_LEVELS[level]``, joined left to
    right, or past the last level a unary, at ``depth`` levels of nesting;
    with the height of the tree."""
    if level == len(_LEVELS):
        return _unary(tokens, depth)
    node, height = _operands(tokens, level + 1, depth)
    while tokens[-1][1] in _LEVELS[level]:
        _, op, column = tokens.pop()
        right, right_height = _operands(tokens, level + 1, depth)
        height = _bounded(max(height, right_height) + 1, column)
        node = BinOp(op, node, right)
    return node, height


def _unary(tokens: list, depth: int) -> tuple[Expression, int]:
    """``'-' unary | atom ('^' unary)?``, with the height of the tree."""
    if tokens[-1][1] == "-":
        column = tokens.pop()[2]
        arg, height = _unary(tokens, _bounded(depth + 1, column))
        return Neg(arg), _bounded(height + 1, column)
    base, height = _atom(tokens, depth)
    if tokens[-1][1] != "^":
        return base, height
    column = tokens.pop()[2]
    exponent, right_height = _unary(tokens, _bounded(depth + 1, column))
    return BinOp("^", base, exponent), _bounded(max(height, right_height) + 1, column)


def _atom(tokens: list, depth: int) -> tuple[Expression, int]:
    """``number | name | name '(' expr ')' | '(' expr ')'``, with the height
    of the tree."""
    kind, text, column = tokens.pop()
    if kind == "num":
        return Num(float(text)), 1
    if kind == "name":
        if tokens[-1][1] != "(":
            return Var(text), 1
        if text not in FUNCTIONS:
            raise UnknownFunctionError(f"unknown function {text!r}", column)
        tokens.pop()
    elif text != "(":
        raise ExpressionSyntaxError(f"unexpected {text!r}", column)
    node, height = _operands(tokens, 0, _bounded(depth + 1, column))
    _, closing, at = tokens.pop()
    if closing != ")":
        raise ExpressionSyntaxError(f"expected ')', found {closing!r}", at)
    if kind == "name":
        return Call(text, node), _bounded(height + 1, column)
    return node, height


@functools.lru_cache(maxsize=1024)
def parse_expression(source: str) -> Expression:
    """Parse ``source`` into an immutable AST.

    Raises ExpressionSyntaxError (with 1-based column) on malformed input,
    on nesting or a tree deeper than ``MAX_DEPTH``, and UnknownFunctionError
    on calls outside the supported function set.
    The ASTs of the last 1024 sources are cached, so a string parsed again
    returns the same tree, already compiled once it has been evaluated;
    errors are not cached.
    """
    if not source or not source.strip():
        raise ExpressionSyntaxError("empty expression", 1)
    tokens = _tokenize(source)
    node, _ = _operands(tokens, 0, 0)
    kind, text, column = tokens[-1]
    if kind != "end":
        raise ExpressionSyntaxError(f"unexpected {text!r}", column)
    return node


def _variables(expr: Expression) -> tuple[str, ...]:
    """The names of the variables of ``expr`` in the order of their first
    occurrence, left to right."""
    match expr:
        case Num():
            return ()
        case Var(name):
            return (name,)
        case Neg(arg) | Call(_, arg):
            return _variables(arg)
        case BinOp(_, left, right):
            return tuple(dict.fromkeys(_variables(left) + _variables(right)))
    raise TypeError(f"not an Expression: {expr!r}")


def free_variables(expr: Expression) -> frozenset[str]:
    return frozenset(_variables(expr))


_ZERO = Num(0.0)
_ONE = Num(1.0)


def _is_num(node: Expression, value: float) -> bool:
    return isinstance(node, Num) and node.value == value


def _add(a: Expression, b: Expression) -> Expression:
    if _is_num(a, 0.0):
        return b
    return a if _is_num(b, 0.0) else BinOp("+", a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    if _is_num(b, 0.0):
        return a
    return _neg(b) if _is_num(a, 0.0) else BinOp("-", a, b)


def _neg(a: Expression) -> Expression:
    match a:
        case Num(value):
            return _ZERO if value == 0.0 else Num(-value)
        case Neg(arg):
            return arg
    return Neg(a)


def _mul(a: Expression, b: Expression) -> Expression:
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return _ZERO
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a, -1.0):
        return _neg(b)
    if _is_num(b, -1.0):
        return _neg(a)
    match a, b:
        case Num(c), Neg(u):
            return _mul(Num(-c), u)
        case Num(c), BinOp("*", Num(k), u) if _scales_exactly(k) and math.isfinite(c * k):
            return _mul(Num(c * k), u)
    return BinOp("*", a, b)


def _scales_exactly(k: float) -> bool:
    """True for k = ±2^j with j >= 0: k * u is then exact wherever it is
    finite, and (k * u) / k is u."""
    return abs(math.frexp(k)[0]) == 0.5 and 1.0 <= abs(k) < math.inf


def _div(a: Expression, b: Expression) -> Expression:
    if _is_num(a, 0.0):
        return _ZERO
    if _is_num(b, 1.0):
        return a
    match a, b:
        case Neg(arg), _:
            return _neg(_div(arg, b))
        case BinOp("*", Num() as k, u), Num(value) if k == b and _scales_exactly(value):
            return u
    return BinOp("/", a, b)


def _pow(a: Expression, b: Expression) -> Expression:
    if _is_num(b, 0.0):
        return _ONE  # x ** 0.0 is 1.0 for every float x
    return a if _is_num(b, 1.0) else BinOp("^", a, b)


def diff(expr: Expression, var: str) -> Expression:
    """The exact partial derivative of ``expr`` with respect to ``var``, as
    an expression (symbolic forward-mode differentiation).

    Products with 0 and 1, sums with 0 and powers 0 and 1 are folded, so
    a subtree that does not contain ``var`` has the derivative 0.  The
    constants of the rules are reduced as well: the negation of a number
    is that number, ``-(-u)`` is u, a product with -1 is a negation,
    ``(-a) / b`` is ``-(a / b)``, and ``(k*u) / k`` is u for k = ±2^j with
    j >= 0 (the same bits of k), so ``p^2/2`` gives ``p``, and
    ``(a - b)^2/2`` gives ``-(a - b)`` with respect to b.  A number c
    times ``-u`` is ``(-c) * u``, and c times ``k*u`` is ``(c*k) * u`` for
    such a k when c*k is finite, so ``0.05 * (a - b)^2`` gives
    ``0.1 * (a - b)`` with respect to a.  The reduced derivative has the
    bits of the unreduced one wherever ``k*u`` is finite.  Where ``k*u``
    overflows, the unreduced value is infinite (an RK4 run of the field
    raises FloatingPointError) and the reduced one is finite where its
    own product is: the rate of ``0.25 * u^2`` at u = 1e308 is 5e307, not
    inf.  Where u is NaN the sign of the NaN may differ.  Any
    other number k (``(3*u)/3``, ``(0.5*u)/0.5``) stays, because
    ``(k*u)/k`` is not always u.  A power
    ``u^c`` whose exponent does not contain ``var`` uses the rule
    ``c * u^(c-1) * u'``; any other power ``u^v`` is differentiated as
    ``exp(v log u)``.  Where the derivative does not exist the derivative
    expression raises DomainError when evaluated, like the expression
    does outside its domain: ``abs(u)'`` is ``u / abs(u) * u'`` (division
    by zero at 0), ``sqrt(u)'`` is ``u' / (2 sqrt(u))`` (division by zero
    at 0), and ``(u^c)'`` with c < 1 raises at u = 0 because ``0^(c-1)``
    does.
    """
    match expr:
        case Num():
            return _ZERO
        case Var(name):
            return _ONE if name == var else _ZERO
        case Neg(arg):
            return _neg(diff(arg, var))
        case BinOp(op, u, v):
            du, dv = diff(u, var), diff(v, var)
            if op == "+":
                return _add(du, dv)
            if op == "-":
                return _sub(du, dv)
            if op == "*":
                return _add(_mul(du, v), _mul(u, dv))
            if op == "/":
                if _is_num(dv, 0.0):
                    return _div(du, v)
                return _div(_sub(_mul(du, v), _mul(u, dv)), _mul(v, v))
            if _is_num(dv, 0.0):
                if _is_num(v, 0.0):
                    return _ZERO
                c1 = Num(v.value - 1.0) if isinstance(v, Num) else _sub(v, _ONE)
                return _mul(_mul(v, _pow(u, c1)), du)
            return _mul(expr, _add(_mul(dv, Call("log", u)), _mul(v, _div(du, u))))
        case Call(func, u):
            du = diff(u, var)
            if _is_num(du, 0.0):
                return _ZERO
            match func:
                case "sin":
                    return _mul(Call("cos", u), du)
                case "cos":
                    return _mul(Neg(Call("sin", u)), du)
                case "exp":
                    return _mul(expr, du)
                case "log":
                    return _div(du, u)
                case "sqrt":
                    return _div(du, _mul(Num(2.0), expr))
                case "abs":
                    return _mul(_div(u, expr), du)
                case "tanh":
                    return _mul(_sub(_ONE, _pow(expr, Num(2.0))), du)
            raise TypeError(f"no derivative for function {func!r}")
    raise TypeError(f"not an Expression: {expr!r}")


def substitute(expr: Expression, values: Mapping[str, Expression]) -> Expression:
    """``expr`` with each variable named in ``values`` replaced by its value;
    a subtree in which none of them occurs is returned as the same object."""
    match expr:
        case Var(name) if name in values:
            return values[name]
        case Neg(arg):
            new = substitute(arg, values)
            return expr if new is arg else Neg(new)
        case Call(func, arg):
            new = substitute(arg, values)
            return expr if new is arg else Call(func, new)
        case BinOp(_, left, right):
            new_left, new_right = substitute(left, values), substitute(right, values)
            if new_left is left and new_right is right:
                return expr
            return BinOp(expr.op, new_left, new_right)
    return expr


def central_difference(expr: Expression, var: str, h: float) -> Expression:
    """``(expr[var := var + h] - expr[var := var - h]) / (2h)``: the central
    difference at the step ``h`` as an expression.  It evaluates to the
    value of ``numdiff.diff_callable`` on ``expr`` bit for bit, or raises
    the same first error.  The step is checked by ``check_steps``."""
    check_steps(h, (), ())
    step = Num(float(h))
    return BinOp("/", BinOp("-", substitute(expr, {var: BinOp("+", Var(var), step)}),
                            substitute(expr, {var: BinOp("-", Var(var), step)})),
                 Num(2.0 * h))


def derivative(h: float | None) -> Callable[[Expression, str], Expression]:
    """The one derivative operator ``(expr, var) -> expression``: exact
    (``diff``) without a step, the central difference at ``h`` with one."""
    return diff if h is None else functools.partial(central_difference, h=h)


#: the most steps one run may take: RK4 steps of an equal-time run, of one
#: path around a grid rectangle, of a full grid or of an HJ trajectory run
#: (leaves), and propagators of a quantum evolution
MAX_STEPS = 10 ** 6


def bound_steps(steps: float, what: str = "RK4 steps") -> None:
    """ValueError if a run takes more than ``MAX_STEPS`` ``what``: an int
    count shows in full up to 10 * MAX_STEPS, any other count to 3 digits."""
    if steps > MAX_STEPS:
        shown = (steps if isinstance(steps, int) and steps <= 10 * MAX_STEPS
                 else f"{steps if steps <= sys.float_info.max else math.inf:.3g}")
        raise ValueError(f"the run takes {shown} {what}; at most {MAX_STEPS} are allowed")


def check_steps(h: float | None, names: Sequence[str], values: Sequence[float]) -> None:
    """ValueError for a step ``h`` that is not a finite number > 0, then
    FloatingPointError at the first of ``names`` whose value x (in
    ``values``) has x + h == x or x - h == x: a central difference there
    would read a wrong slope, or 0.  A None ``h`` (exact) is not checked."""
    if h is not None:
        check_positive(h, "h")
        for name, x in zip(names, values):
            if x + h == x or x - h == x:
                raise FloatingPointError(f"the step h = {float(h)!r} rounds "
                                         f"away at {name} = {float(x)!r}")


def _refused(name: str, message: str) -> ValueError:
    return ValueError(f"{name}: {message}" if name else message)


def check_finite(value: float, name: str = "") -> float:
    """``value`` as a float, if finite (an int beyond the float range is not)."""
    try:
        x = float(value)
    except OverflowError:
        x = math.inf if value > 0 else -math.inf
    if not math.isfinite(x):
        raise _refused(name, f"expected a finite number, got {x}")
    return x


def check_positive(value: float, name: str = "") -> float:
    """``check_finite``, and > 0: a step, a tolerance or a mass."""
    if not (x := check_finite(value, name)) > 0.0:
        raise _refused(name, f"expected a number > 0, got {x}")
    return x


def check_masses(masses: Sequence[float], n: int) -> tuple[float, ...]:
    """The ``n`` masses of a system, each by ``check_positive``."""
    if len(masses) != n:
        raise _refused("masses", f"expected {n} entries, got {len(masses)}")
    return tuple(check_positive(m, f"masses[{j}]") for j, m in enumerate(masses))


def check_span(pair: Sequence[float], name: str = "") -> tuple[float, float]:
    """``(lo, hi)``, the ends of ``pair`` by ``check_finite``, with lo < hi."""
    lo, hi = (check_finite(end, name) for end in pair)
    if not lo < hi:
        raise _refused(name, f"expected a strictly increasing pair, got [{lo}, {hi}]")
    return lo, hi


def check_count(value: int, least: int, name: str = "") -> int:
    """``value``, an integer (numpy's too, not a bool) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise _refused(name, f"expected an integer, got {value}")
    if value < least:
        raise _refused(name, f"expected >= {least}, got {value}")
    return value


@functools.lru_cache(maxsize=32)
def binding_names(prefix: str, n: int, d: int = 0) -> tuple[str, ...]:
    """``prefix1..prefixn`` for d = 0, else ``prefixJ_D`` row by row: the
    variable names of a time tuple (``t``) and of flat (n, d) position
    (``x``) and momentum (``p``) arrays."""
    if d == 0:
        return tuple(f"{prefix}{j}" for j in range(1, n + 1))
    return tuple(f"{prefix}{j}_{dd}" for j in range(1, n + 1)
                 for dd in range(1, d + 1))


def phase_names(n: int, d: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The names of a time tuple, and of a flat state: x rows, then p rows."""
    return binding_names("t", n), binding_names("x", n, d) + binding_names("p", n, d)


def _domain_error(template: str, *args) -> NoReturn:
    """The error path of a compiled expression: raise DomainError with
    ``template.format(*args)`` (kept out of the generated source, which
    then compiles faster)."""
    raise DomainError(template.format(*args)) from None


#: the variable that ``compile_rk4`` binds to the time of each RK4 stage;
#: no name of the expression language is spelled like it
STEP_TIME = "<step time>"


def evaluate(expr: Expression, bindings: Mapping[str, float]) -> float:
    """Evaluate ``expr`` at the bindings (IEEE doubles; extra ones allowed)
    by the tree's ``function``.  Each variable is read by ``float`` first,
    so the leftmost unbound one raises UnboundVariableError before any
    DomainError of the evaluation (which never returns a NaN instead)."""
    if not isinstance(expr, _Node):
        raise TypeError(f"not an Expression: {expr!r}")
    names, function = expr.function
    try:
        values = [float(bindings[name]) for name in names]
    except KeyError as exc:
        raise UnboundVariableError(f"variable {exc.args[0]!r} is not bound") from None
    return function(values)[0]

