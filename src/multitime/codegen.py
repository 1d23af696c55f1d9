"""The code generator of the expression language: it lowers trees of
``expr`` to Python source, one statement per operation, and compiles it.

It has two entry points: ``compile_function`` lowers a system of ASTs to
one Python function of positional float sequences that returns all their
values and computes shared subtrees once, and ``compile_rk4`` lowers a
whole RK4 integration to one function with the loop inside and the
system's statements inlined in every stage.  Both perform the IEEE
operations of each tree in evaluation order, left operand before right,
with no rewriting but two that keep every bit: a subtree of numbers only
is folded into the number that the same Python operation gives, unless
it raises or gives no finite float, and a division by ±2^k with a finite
inverse is a product.  An RK4 loop computes a stage state only where a
tree reads it, and folds constant rates.  It is the only module that
writes source: the HJ leaf rates and their degeneracy guards come to
``compile_rk4`` as trees.  A variable is an argument of
the generated function, and every number, a literal or a parameter's
value put into the tree by ``expr.substitute``, is bound one way: as a
global of it.

The integrators, ``classical`` and ``hj``, import this module; ``expr``
imports it when a tree's ``function`` is first used (``evaluate``), and
``quantum`` only for a coefficient given as an expression.  So a quantum
run whose coefficients are all numbers never compiles it.
"""

from __future__ import annotations

import math
import operator
import struct
from typing import Callable, Mapping, Sequence

from .expr import (FUNCTIONS, STEP_TIME, BinOp, Call, Expression, Neg, Num,
                   UnboundVariableError, Var, _domain_error, free_variables)

__all__ = ["compile_function", "compile_rk4"]


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
          namespace: dict[str, object], lines: list[str],
          names: dict[tuple, str] | None = None,
          positive: frozenset[str] = frozenset()) -> list[str]:
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
    because a repeat only skips statements that already ran.  Calls that
    pass one memo ``names`` act as one call.  A division by a name in
    ``positive``, a value tested > 0 (or NaN), gets no zero check either.
    """
    names = {} if names is None else names

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
                    else:  # a number other than zero, or a tested value, needs no check
                        lines.append((f"if {c} == 0.0:\n _domain_error('division by zero')\n"
                                      if divisor == 0.0 and c not in positive else "")
                                     + f"{out} = {a} / {c}")
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


# the stages of an RK4 step after the first: the prefix of the stage
# state's names, and the time and the step factor that make it
_STAGES = (("a", "t_half", "h2"), ("b", "t_half", "h2"), ("e", "t_end", "h"))


# the source that computes each stage time in the loop body, as its name
# is computed there
_TIME_SOURCE = {"t": "ts[i]", "t_half": "ts[i] + h2", "t_end": "ts[i] + h"}


def compile_rk4(outputs: Sequence[Expression], state: Sequence[str],
                fixed: Sequence[str] = (), *,
                record: bool = True,
                rates: Sequence[Expression] | None = None,
                guards: Sequence[tuple[Expression, Callable[[float, float], object]]] = (),
                ) -> Callable:
    """One compiled function that runs a whole RK4 integration of
    dy/dt = k(t, y), the right-hand side inlined in every stage.

    The flat state y holds the variables ``state``.  ``outputs`` are
    expressions in them, in ``STEP_TIME`` (the time of the stage), in the
    ``fixed`` variables.  The rates k are the outputs, or the trees
    ``rates`` in the same variables.  Each of ``guards`` is a tree g and
    its ``fail``: at every stage, after the outputs and before the rates,
    the loop calls ``fail(g, time)`` where g <= 0, with the stage's time,
    which only that error path computes.  A guard that folds to a number
    > 0 is no test, and a rate's division by a guard's value has no zero
    check.  A stage's outputs, guards and rates share one memo (``_emit``),
    so a subtree among them is computed once and a variable read once.

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
    variable that a tree reads, the node time ``ts[i]``, the stage
    times and h/2 only where a statement reads them, and the sum
    ``((k1 + 2*k2) + 2*k3) + k4`` of a component whose rates are numbers
    folded, by the same float operations.  Its own coefficients are float
    literals (``h * 0.5``, which is ``h / 2.0`` bit for bit, ``h / 6.0``,
    ``2.0 * k2``), without CPython's int-and-float path.
    """
    namespace: dict[str, object] = {"_domain_error": _domain_error}
    fixed_locals = {name: f"f_{i}" for i, name in enumerate(fixed)}
    lines: list[str] = []  # the loop body
    rates = outputs if rates is None else rates
    namespace.update((f"_fail{i}", fail) for i, (_, fail) in enumerate(guards))
    read_names = frozenset().union(  # none folded away, each read at every stage
        *map(free_variables, [*outputs, *rates, *(tree for tree, _ in guards)]))
    timed = STEP_TIME in read_names

    def stage_at(values: Sequence[str], time: str) -> list[str]:
        """Emit a stage at the state held in ``values`` and the time held in
        ``time``, with one memo: the outputs, at a recorded node their row,
        then the guards' tests and the rates; return the rates' names."""
        read = _reader({**dict(zip(state, values)), STEP_TIME: time, **fixed_locals})
        memo, tested = {}, []
        node = _emit(outputs, read, namespace, lines, memo)
        if record and time == "t":
            lines.append(f"add_row(pack({', '.join([*values, *node])}))\n"
                         "if i == n:\n break")
        for i, (tree, _) in enumerate(guards):
            g, = _emit([tree], read, namespace, lines, memo)
            if not (c := _numbers((g,), namespace)) or c[0] <= 0.0:
                lines.append(f"if {g} <= 0.0:\n _fail{i}({g}, {_TIME_SOURCE[time]})")
            tested.append(g)
        return _emit(rates, read, namespace, lines, memo, frozenset(tested))

    ys = [f"y_{i}" for i in range(len(state))]
    ks = [stage_at(ys, "t")]
    scaffold = len(lines)
    lines.append("")  # the step's scaffold, once the stages' reads are known
    for prefix, time, factor in _STAGES:
        stage = [f"{prefix}_{i}" for i in range(len(state))]
        lines += [f"{s} = {y} + {factor} * {k}" for s, y, k, name
                  in zip(stage, ys, ks[-1], state) if name in read_names]
        ks.append(stage_at(stage, time))
    stage_times = {time: factor for _, time, factor in _STAGES}
    half = read_names.intersection(state) or timed
    lines[scaffold] = "\n".join(["h = hs[i]"] + ["h2 = h * 0.5"] * bool(half) + [
        f"{time} = t + {factor}" for time, factor in stage_times.items() if timed])
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
    namespace["pack"] = struct.Struct(f"{len(ys) + (len(outputs) if record else 0)}d").pack
    namespace["unpack"] = struct.Struct(f"{len(ys)}d").unpack
    body = _indent(_indent([*(["t = ts[i]"] if timed else []), *lines]))
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
