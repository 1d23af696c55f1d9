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

The code generator has two entry points: ``compile_function`` lowers a
system of ASTs to one Python function of positional float sequences that
returns all their values and computes shared subtrees once, and
``compile_rk4`` lowers a whole RK4 integration to one function with the
loop inside and the system's statements inlined in every stage.  Both
perform the IEEE operations of each tree in evaluation order, left
operand before right, with no rewriting but two that keep every bit: a
subtree of numbers only is folded into the number that the same Python
operation gives, unless it raises or gives no finite float, and a
division by ±2^k with a finite inverse is a product.  An RK4 loop
computes a stage state only where an output reads it, and folds constant
rates.  ``evaluate`` is a thin caller of the first.  A variable is an argument of the generated function, and every
number, a literal or a parameter's value put into the tree by
``substitute``, is bound one way: as a global of it.
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
import operator
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
    "compile_function",
    "STEP_TIME",
    "compile_rk4",
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
    ``compile_function``, built on first access and kept in the instance
    ``__dict__`` beside the key; it is freed with the tree."""

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


def _bind(value: float, namespace: dict[str, object]) -> str:
    """Bind the number ``value`` as a global of a generated function; its
    name, ``c`` and a count, is the only kind there that starts with c."""
    name = f"c{len(namespace)}"
    namespace[name] = value
    return name


def _numbers(names: Sequence[str], namespace: dict[str, object]) -> list[float] | None:
    """The values of ``names`` if every one names a number, else None."""
    return [namespace[n] for n in names] if all(n[0] == "c" for n in names) else None


def _exact_inverse(c: float) -> float | None:
    """1 / c for c = ±2^k where that is finite, else None: a * (1 / c) then
    rounds the same real number as a / c, to the same bits for every a."""
    return 1.0 / c if abs(math.frexp(c)[0]) == 0.5 and math.isfinite(1.0 / c) else None


def _emit(outputs: Sequence[Expression], read: Callable[[str], str],
          namespace: dict[str, object], lines: list[str]) -> list[str]:
    """Append to ``lines`` the straight-line statements that compute every
    tree of ``outputs``; return the name holding each output's value.

    Every inner node becomes one statement, emitted in post-order, output
    after output, so the operations run in the order of a left-to-right
    recursive evaluation of the outputs in turn.  Numbers are bound as
    globals in ``namespace``, never as literals, so that CPython cannot
    fold them.  A node whose operands are all numbers is folded here
    instead, into the number that the statement's own Python operation
    gives (``-a``, ``a / c``, ``_log(x)``, ..), so a constant subtree costs
    nothing per call; a node whose operation raises or gives anything
    but a finite float stays a statement, so its error is raised where
    and when it was.  A check that cannot fire is left out: the zero check
    of a division by a nonzero number, and the complex check of a power to
    an integral number (a float to such a power stays real).  A division by
    ±2^k with a finite inverse is the product with it (``_exact_inverse``):
    the same bits, by CPython's faster multiplication.  ``read(name)``
    returns the name that holds a variable; it is called once per
    variable, at its first occurrence, and may append the statement that
    reads it to ``lines``.

    A subtree that occurs again, in the same output or a later one, reuses
    the name computed at its first occurrence: nodes are numbered by their
    operator and the names of their operands, numbers by their bits.  The
    reused value is the one the repeated operations would give, and the
    first error raised is the one of evaluating the outputs one by one,
    because a repeat only skips statements that already ran.
    """
    names: dict[tuple, str] = {}

    def emit(node: Expression) -> str:
        match node:
            case Num(value):
                key = ("num", struct.pack("d", value))
            case Var(name):
                key = ("var", name)
            case Neg(arg):
                key = ("neg", emit(arg))
            case BinOp(op, left, right):
                key = (op, emit(left), emit(right))
            case Call(func, arg):
                key = (func, emit(arg))
            case _:
                raise TypeError(f"not an Expression: {node!r}")
        if key not in names:
            names[key] = statement(node, key)
        return names[key]

    def statement(node: Expression, key: tuple) -> str:
        """Emit a node first seen under ``key``, whose operands are
        emitted already; return the name holding its value."""
        match node:
            case Num(value):
                return _bind(value, namespace)
            case Var(name):
                return read(name)
        if (operands := _numbers(key[1:], namespace)) is not None:
            value = _fold(node, *operands)
            if isinstance(value, float) and math.isfinite(value):
                return emit(Num(value))
        # unique: a statement is appended after every new temporary
        out = f"r{len(lines)}"
        match node:
            case Neg():
                lines.append(f"{out} = -{key[1]}")
            case BinOp(op):
                a, c = key[1], key[2]
                if op in "+-*":
                    lines.append(f"{out} = {a} {op} {c}")
                elif op == "/":
                    divisor, = _numbers((c,), namespace) or (0.0,)
                    if (inverse := _exact_inverse(divisor)) is not None:
                        lines.append(f"{out} = {a} * {emit(Num(inverse))}")
                    else:  # a number other than zero needs no check
                        lines.append((f"if {c} == 0.0:\n _domain_error('division by zero')\n"
                                      if divisor == 0.0 else "") + f"{out} = {a} / {c}")
                else:
                    # a float to an integral float power is never complex
                    exponent, = _numbers((c,), namespace) or (0.5,)
                    check = not float(exponent).is_integer()
                    lines.append(
                        f"try:\n {out} = {a} ** {c}\n"
                        "except (ValueError, ZeroDivisionError, OverflowError) as exc:\n"
                        f" _domain_error('invalid power {{}}^{{}}: {{}}', {a}, {c}, exc)"
                        + (f"\nif isinstance({out}, complex):\n"
                           f" _domain_error('power {{}}^{{}} leaves the real domain', {a}, {c})"
                           if check else ""))
            case Call(func):
                namespace[f"_{func}"] = FUNCTIONS[func]
                x = key[1]
                if func == "log":
                    lines.append(f"if {x} <= 0.0:\n"
                                 f" _domain_error('log of non-positive value {{}}', {x})")
                elif func == "sqrt":
                    lines.append(f"if {x} < 0.0:\n"
                                 f" _domain_error('sqrt of negative value {{}}', {x})")
                lines.append(f"try:\n {out} = _{func}({x})\n"
                             "except (ValueError, OverflowError) as exc:\n"
                             f" _domain_error('{func}({{}}): {{}}', {x}, exc)")
        return out

    return [emit(node) for node in outputs]


#: the operation of each binary operator's statement
_OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv, "^": operator.pow}


def _fold(node: Expression, *args: float) -> float | None:
    """The value of ``node``, an operator or function node of ``_emit``,
    at the operand values ``args``, by the operation its statement
    performs; None where that raises."""
    try:
        match node:
            case Neg():
                return -args[0]
            case BinOp(op):
                return _OPERATIONS[op](*args)
            case Call(func):
                return FUNCTIONS[func](*args)
    except (ArithmeticError, ValueError):
        return None


def _indent(lines: list[str]) -> list[str]:
    """``lines`` (statements, some of several lines) one level deeper."""
    return [" " + line for line in "\n".join(lines or ["pass"]).splitlines()]


def _define(source: list[str], name: str, namespace: dict[str, object]) -> Callable:
    exec(compile("\n".join(source), "<multitime expression>", "exec"), namespace)
    return namespace[name]


def _reader(bound: Mapping[str, str]) -> Callable[[str], str]:
    """The ``read`` of ``_emit`` for the variables held in the locals
    ``bound``; any other variable raises UnboundVariableError."""
    def read(name: str) -> str:
        if name in bound:
            return bound[name]
        raise UnboundVariableError(f"variable {name!r} is not bound")

    return read


def compile_function(outputs: Sequence[Expression],
                     arguments: Sequence[Sequence[str]]) -> Callable[..., tuple[float, ...]]:
    """One compiled function that evaluates all of ``outputs`` at once.

    It takes one positional argument per group of ``arguments``: a
    sequence of floats, bound in order to the group's variable names.  It
    returns the tuple of the outputs' values.  A variable not named in
    ``arguments`` raises UnboundVariableError here, when the function is
    compiled; a value known in advance is a number in the tree
    (``substitute`` puts it there).  A subtree
    shared between outputs is computed once.  Each output's value is that
    of a left-to-right recursive evaluation of its tree, bit for bit, and
    a failing call raises the DomainError that evaluating the outputs one
    after another would raise first.
    """
    namespace: dict[str, object] = {"_domain_error": _domain_error}
    params = [f"a{i}" for i in range(len(arguments))]
    lines: list[str] = []
    bound: dict[str, str] = {}
    for param, group in zip(params, arguments):
        locals_ = [f"v{len(bound) + i}" for i in range(len(group))]
        lines.append(f"({''.join(v + ', ' for v in locals_)}) = {param}")
        bound.update(zip(group, locals_))
    results = _emit(outputs, _reader(bound), namespace, lines)
    return _define([
        f"def function({', '.join(params)}):",
        *_indent(lines),
        f" return ({''.join(r + ', ' for r in results)})",
    ], "function", namespace)


#: the variable that ``compile_rk4`` binds to the time of each RK4 stage;
#: no name of the expression language is spelled like it
STEP_TIME = "<step time>"

# the stages of an RK4 step after the first: the prefix of the stage
# state's names, and the time and the step factor that make it
_STAGES = (("a", "t_half", "h2"), ("b", "t_half", "h2"), ("e", "t_end", "h"))
# the source that computes each stage time in the loop body, as its name
# is computed there
_TIME_SOURCE = {"t": "ts[i]", "t_half": "ts[i] + h2", "t_end": "ts[i] + h"}


def compile_rk4(outputs: Sequence[Expression], state: Sequence[str],
                fixed: Sequence[str] = (), *,
                record: bool = True,
                rates: Callable[[list[str], str, list[str], dict], list[str]] | None = None,
                ) -> Callable:
    """One compiled function that runs a whole RK4 integration of
    dy/dt = k(t, y), the right-hand side inlined in every stage.

    The flat state y holds the variables ``state``.  ``outputs`` are
    expressions in them, in ``STEP_TIME`` (the time of the stage), in the
    ``fixed`` variables.  The rates k are the outputs, or what the hook
    ``rates(values, time, lines, namespace)`` makes of them: it appends to
    ``lines`` the statements that turn the names ``values`` (the outputs
    of one stage) into the rates, and returns the rates' names, naming
    each new value ``r{len(lines)}`` before it appends the statement, as
    ``_emit`` does, and binding each number it folds by ``_bind``.
    ``time`` is the source of an expression that computes the stage's time
    in the loop body (``ts[i] + h2``); a hook that reads it only on an
    error path costs nothing per step.

    The function is ``integrate(y, ts, hs, *fixed_values)``, or
    ``integrate(y, ts, hs, legs, *fixed_values)`` without ``record``: from
    the state y at the time ``ts[0]`` it takes step i from ``ts[i]`` by
    ``hs[i]`` (``ts`` holds one node time more than ``hs`` steps).  Its
    arithmetic is that of the vector formulas ``y + h/2*k`` (stage times
    ``t + h/2``) and ``y + h*k3`` (stage time ``t + h``) for the stages and
    ``y + h/6*(((k1 + 2*k2) + 2*k3) + k4)`` for the step, element by
    element, with each stage's outputs those of ``compile_function``, bit
    for bit.  A component whose step is not finite, as when the sum of its
    rates overflows before h/6 scales it, is taken again as
    ``y + (h6*k1 + (2*h6)*k2 + (2*h6)*k3 + h6*k4)``; a step whose new state
    is not finite even so raises FloatingPointError.

    States and records are packed rows: ``bytes`` of native doubles, one
    ``struct`` pack per node, which ``np.frombuffer`` reads as they are.  y
    is such a row of the state's floats, unpacked once.  With ``record``
    the loop evaluates the outputs at every node ``ts[i]``, the step's k1
    among them, and returns one row per node: the state, then the outputs
    there.  Without, it runs the steps of each of ``legs`` (``range``s of
    step indices) in turn, evaluates the outputs at each step's start
    only, and returns y itself and then the state at each leg's end, no
    other row.  So a row it returns starts the next call as it is: each
    step starts from its own ``ts[i]``, not from the step before it.

    The loop computes only what it uses: a stage state only for a state
    variable that an output reads, the node time ``ts[i]``, the stage
    times and h/2 only where a statement reads them, and the sum
    ``((k1 + 2*k2) + 2*k3) + k4`` of a component whose rates are numbers
    folded, by the same float operations.  Its own coefficients are float
    literals (``h * 0.5``, which is ``h / 2.0`` bit for bit, ``h / 6.0``,
    ``2.0 * k2``), without CPython's int-and-float path.
    """
    namespace: dict[str, object] = {"_domain_error": _domain_error}
    fixed_locals = {name: f"f_{i}" for i, name in enumerate(fixed)}
    lines: list[str] = []  # the loop body
    times_read: set[str] = set()  # the stage times that a statement reads
    read_names = frozenset().union(*map(free_variables, outputs))  # none folded away

    def outputs_at(values: Sequence[str], time: str) -> list[str]:
        """Emit the outputs at the state held in ``values`` and the time
        held in ``time``; return their names."""
        read = _reader({**dict(zip(state, values)), STEP_TIME: time, **fixed_locals})

        def reading(name: str) -> str:
            if name == STEP_TIME:
                times_read.add(time)
            return read(name)

        return _emit(outputs, reading, namespace, lines)

    def rates_at(values: Sequence[str], time: str) -> list[str]:
        return rates(values, _TIME_SOURCE[time], lines, namespace) if rates else values

    ys = [f"y_{i}" for i in range(len(state))]
    node = outputs_at(ys, "t")
    if record:
        lines.append(f"add_row(pack({', '.join(ys + node)}))\n"
                     "if i == n:\n break")
    ks = [rates_at(node, "t")]
    scaffold = len(lines)
    lines.append("")  # the step's scaffold, once the stages' reads are known
    for prefix, time, factor in _STAGES:
        stage = [f"{prefix}_{i}" for i in range(len(state))]
        lines += [f"{s} = {y} + {factor} * {k}" for s, y, k, name
                  in zip(stage, ys, ks[-1], state) if name in read_names]
        ks.append(rates_at(outputs_at(stage, time), time))
    stage_times = {time: factor for _, time, factor in _STAGES}
    half = read_names.intersection(state) or "t_half" in times_read
    lines[scaffold] = "\n".join(["h = hs[i]"] + ["h2 = h * 0.5"] * bool(half) + [
        f"{time} = t + {factor}" for time, factor in stage_times.items()
        if time in times_read])
    ends = [f"z_{i}" for i in range(len(state))]
    lines.append("h6 = h / 6.0")
    rescue = []  # a sum of rates that overflows before h6 scales it, each rate scaled first
    for z, y, k in zip(ends, ys, zip(*ks)):
        total = "((({} + 2.0 * {}) + 2.0 * {}) + {})".format(*k)
        if (c := _numbers(k, namespace)) is not None:  # folded by the same operations
            total = _bind(((c[0] + 2.0 * c[1]) + 2.0 * c[2]) + c[3], namespace)
        lines.append(f"{z} = {y} + h6 * {total}")
        rescue.append(f" if {z} - {z} != 0.0:\n  {z} = {y} + (h6 * {k[0]} + (2.0 * h6) * "
                      f"{k[1]} + (2.0 * h6) * {k[2]} + h6 * {k[3]})")
    # z - z is 0.0 for a finite z and nan for an infinite or nan one
    failed = " or ".join(f"{z} - {z} != 0.0" for z in ends)
    lines.append(f"if {failed}:\n" + "\n".join(rescue) + f"\n if {failed}:\n"
                 "  raise FloatingPointError(f'non-finite state at t = {ts[i] + h}')")
    lines += [f"{y} = {z}" for y, z in zip(ys, ends)]
    namespace["pack"] = struct.Struct(f"{len(ys) + (len(node) if record else 0)}d").pack
    namespace["unpack"] = struct.Struct(f"{len(ys)}d").unpack
    body = _indent(_indent([*(["t = ts[i]"] if times_read else []), *lines]))
    return _define([
        f"def integrate(y, ts, hs{'' if record else ', legs'}"
        f"{''.join(', ' + f for f in fixed_locals.values())}):",
        f" ({''.join(y + ', ' for y in ys)}) = unpack(y)",
        *([" rows = []", " add_row = rows.append", " n = len(hs)",
           " for i in range(n + 1):", *body] if record else
          [" rows = [y]", " add_row = rows.append", " for leg in legs:",
           "  for i in leg:", *_indent(body), f"  add_row(pack({', '.join(ys)}))"]),
        " return rows",
    ], "integrate", namespace)


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

