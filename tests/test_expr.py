import copy
import dis
import functools
import hashlib
import itertools
import math
import random
import re
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multitime import classical, codegen, expr as expr_module, hj, kinds_classical, quantum
from multitime.codegen import compile_function
from multitime.classical import (HamiltonianPair, PhasePoint, PhaseVectorField,
                                 evolve_equal_time, evolve_full_grid,
                                 grid_path_independence, hamiltonian_vector_field,
                                 validity_residual)
from multitime.expr import (
    FUNCTIONS,
    BinOp,
    Call,
    DomainError,
    ExpressionSyntaxError,
    Neg,
    Num,
    UnboundVariableError,
    UnknownFunctionError,
    Var,
    diff,
    evaluate,
    free_variables,
    parse_expression,
    substitute,
)
from multitime.configs import EXAMPLE_CONFIGS
from multitime.hj import FoliationDegeneracyError, hj_consistency_defect
from multitime.quantum import (MultiTimeState, PartialHamiltonianSet,
                               evolve_staircase, staircase_between)
from multitime.numdiff import default_step, diff_callable, partial_derivative
from oracles import (compile_rk4_oracle, diff_unreduced, leaf_rates_oracle, pack, parse_oracle,
                     to_string, unpack_rows)


def central_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def richardson_difference(f, x, h):
    """One Richardson step on the central difference (fourth order): the
    reference that the central differences and exact derivatives are
    measured against."""
    return (4.0 * central_difference(f, x, h / 2.0) - central_difference(f, x, h)) / 3.0


class TestParsing:
    def test_kinetic_term(self):
        e = parse_expression("p1_1^2/(2*1.0)")
        assert free_variables(e) == {"p1_1"}
        assert evaluate(e, {"p1_1": 3.0}) == 4.5

    def test_sine_of_difference(self):
        e = parse_expression("sin(x1_1 - x2_1)")
        assert free_variables(e) == {"x1_1", "x2_1"}

    def test_syntax_error_column(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression("x1_1 + * 3")
        assert exc.value.column == 8

    @pytest.mark.parametrize("source, message, column", [
        ("2 $ 3", "unexpected character '$'", 3),
        ("x@y", "unexpected character '@'", 2),
        ("sin(x", "expected ')', found 'end of input'", 6),
        ("(x y)", "expected ')', found 'y'", 4),
        ("sin x", "unexpected 'x'", 5),
        ("x +", "unexpected 'end of input'", 4),
        ("--", "unexpected 'end of input'", 3),
    ])
    def test_syntax_error_message(self, source, message, column):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression(source)
        assert type(exc.value) is ExpressionSyntaxError
        assert (str(exc.value), exc.value.column) == (f"{message} (column {column})", column)

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            parse_expression("sinh(x)")

    def test_empty_source(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("   ")

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_expression("1 + 2)")

    def test_power_right_associative(self):
        e = parse_expression("2^3^2")
        assert isinstance(e, BinOp) and e.op == "^"
        assert isinstance(e.left, Num)
        assert evaluate(e, {}) == 512.0

    def test_precedence(self):
        assert evaluate(parse_expression("1 + 2 * 3^2"), {}) == 19.0
        assert evaluate(parse_expression("-2^2"), {}) == -4.0

    def test_numbers_compare_by_their_bits(self):
        # so that a memo keyed on trees tells the two zeros apart
        assert Num(0.0) != Num(-0.0)
        assert BinOp("*", Num(0.0), Var("x")) != BinOp("*", Num(-0.0), Var("x"))
        assert len({Num(0.0), Num(-0.0), Num(1.0), Num(1)}) == 3
        assert Num(math.nan) == Num(math.nan)
        assert Num(2.5) != 2.5 and Num(2.5) != Var("x")
        assert parse_expression("x - 0.0") == BinOp("-", Var("x"), Num(0.0))

    @pytest.mark.parametrize("source", [
        "p1_1^2/(2*1.0)",
        "sin(x1_1 - x2_1)",
        "2^3^2",
        "(2^3)^2",
        "a - (b + c)",
        "a - b - c",
        "-(x + y)^2",
        "x - -y",
        "exp(-(x1_1 - x2_1)^2) * tanh(t1)",
        "1/(1 + x^2) + sqrt(abs(x))",
    ])
    def test_round_trip_structural(self, source):
        tree = parse_expression(source)
        assert parse_expression(to_string(tree)) == tree


OPERANDS = ["x", "y1_2", "t", "e", "2", "0.5", "1e3", ".5e-1", "3."]
# what an edit inserts: tokens of every kind, characters outside the
# language and malformed numbers
PIECES = [*OPERANDS, "sin", "sinh", "1e", *"+-*/^()", " ", "$", "."]


def random_pieces(rng, depth=0):
    """The pieces of a random expression of the grammar, at most 5 deep."""
    draw = rng.random()
    if depth == 5 or draw < 0.3:
        return [rng.choice(OPERANDS)]
    inner = random_pieces(rng, depth + 1)
    if draw < 0.4:
        return ["-", *inner]
    if draw < 0.5:
        return ["(", *inner, ")"]
    if draw < 0.6:  # a call, or an unknown function
        return [rng.choice(["sin", "exp", "sinh"]), "(", *inner, ")"]
    return [*inner, rng.choice("+-*/^"), *random_pieces(rng, depth + 1)]


def random_source(rng):
    """A random expression, spaced at random (so that names merge with
    what follows: "x" + "2" is a name), then changed by up to 2 edits,
    each the deletion of a piece or the insertion of one of ``PIECES``."""
    pieces = random_pieces(rng)
    for _ in range(rng.randrange(3)):
        at = rng.randrange(len(pieces) + 1)
        if pieces and rng.random() < 0.5:
            del pieces[min(at, len(pieces) - 1)]
        else:
            pieces.insert(at, rng.choice(PIECES))
    return "".join(piece + rng.choice(["", "", " "]) for piece in pieces)


def parse_outcome(parse, source):
    """The tree of ``source``, or its error's class, message and column."""
    try:
        return parse(source)
    except ExpressionSyntaxError as exc:
        return type(exc), str(exc), exc.column


D = expr_module.MAX_DEPTH
# the deepest source of each shape that the parser accepts, and one level deeper:
# brackets and calls nest, minus signs and powers nest and make the tree taller,
# and a sum makes it taller alone
DEEPEST = {
    "brackets": "(" * D + "x" + ")" * D,
    "calls": "sin(" * (D - 1) + "x" + ")" * (D - 1),
    "minus signs": "-" * (D - 1) + "x",
    "powers": "^".join(["x"] * D),
    "sum": " + ".join(["x"] * D),
    "nested sums": "x + (" * (D - 1) + "x" + ")" * (D - 1),
}
TOO_DEEP = {  # with the column of the token whose level or node passes the bound
    "brackets": ("(" * (D + 1) + "x" + ")" * (D + 1), D + 1),
    "calls": ("sin(" * D + "x" + ")" * D, 1),
    "minus signs": ("-" * D + "x", 1),
    "more minus signs": ("-" * (D + 1) + "x", D + 1),
    "powers": ("^".join(["x"] * (D + 1)), 2),
    "more powers": ("^".join(["x"] * (D + 2)), 2 * D + 2),
    "sum": (" + ".join(["x"] * (D + 1)), 4 * D - 1),
    "nested sums": ("x + (" * D + "x" + ")" * D, 3),
}


class TestDepthBound:
    """Nesting and tree height beyond ``MAX_DEPTH`` are a syntax error with a
    column: a deeper tree used to exhaust Python's recursion limit in the
    parser or in a pass over the tree, its derivatives or a system's."""

    @pytest.mark.parametrize("shape", sorted(DEEPEST))
    def test_deepest_accepted_tree_is_the_oracles(self, shape):
        assert parse_expression.__wrapped__(DEEPEST[shape]) == parse_oracle.__wrapped__(
            DEEPEST[shape])

    @pytest.mark.parametrize("shape", sorted(TOO_DEEP))
    def test_one_level_deeper_refused_at_its_token(self, shape):
        source, column = TOO_DEEP[shape]
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_expression(source)
        assert (str(exc.value), exc.value.column) == (
            f"the expression nests deeper than {D} levels (column {column})", column)

    @pytest.mark.parametrize("shape", ["(", "sin(", "-", "x^", "x + "])
    def test_far_deeper_refused_without_recursion(self, shape):
        # ten thousand levels, far past Python's recursion limit
        with pytest.raises(ExpressionSyntaxError, match=f"nests deeper than {D} levels"):
            parse_expression(shape * 10_000 + "x")


class TestParserOracle:
    def test_random_sources_match_the_oracle(self):
        rng = random.Random(20261020)
        parse = parse_expression.__wrapped__  # the cache would only churn
        sources = [random_source(rng) for _ in range(100_000)]
        trees = 0
        for source in sources:
            got = parse_outcome(parse, source)
            assert got == parse_outcome(parse_oracle.__wrapped__, source), source
            trees += not isinstance(got, tuple)
        assert 10_000 < trees < 90_000  # both outcomes are drawn often


# One tree of each node kind by its fields; each call of ``node`` builds it anew.
KIND_FIELDS = {
    "Num": (Num, (2.5,)),
    "Var": (Var, ("x",)),
    "Neg": (Neg, (Var("x"),)),
    "BinOp": (BinOp, ("*", Num(2.0), Var("x"))),
    "Call": (Call, ("sin", Var("x"))),
}


def node(kind):
    cls, fields = KIND_FIELDS[kind]
    return cls(*copy.deepcopy(fields))


class TestNodeValues:
    """Every node kind is an immutable value, whatever implements it."""

    @pytest.mark.parametrize("kind", sorted(KIND_FIELDS))
    def test_fields_cannot_be_assigned_or_deleted(self, kind):
        tree = node(kind)
        for name in [*tree.__match_args__, "other"]:
            with pytest.raises(AttributeError):
                setattr(tree, name, Num(1.0))
            with pytest.raises(AttributeError):
                delattr(tree, name)
        assert tree == node(kind)

    @pytest.mark.parametrize("kind", sorted(KIND_FIELDS))
    def test_built_twice_equal_and_hash_alike(self, kind):
        a, b = node(kind), node(kind)
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert BinOp("+", a, Var("y")) == BinOp("+", b, Var("y"))
        assert len({a, b, BinOp("+", a, Var("y")), BinOp("+", b, Var("y"))}) == 2

    def test_kinds_unequal(self):
        trees = [node(kind) for kind in KIND_FIELDS]
        # a Var named by Num(2.5)'s bits shares its fields' bytes, not its kind
        trees += [Var(struct.pack("d", 2.5)), Call("sin", Var("y")), Neg(Num(2.0))]
        for a, b in itertools.combinations(trees, 2):
            assert a != b and not a == b

    def test_signed_zeros_unequal(self):
        assert Num(0.0) != Num(-0.0) and Num(0.0) == Num(0.0)
        assert Neg(Num(0.0)) != Neg(Num(-0.0))

    @pytest.mark.parametrize("compiled", [False, True], ids=["fresh", "compiled"])
    @pytest.mark.parametrize("kind", sorted(KIND_FIELDS))
    def test_deep_copy_equal_and_compiles_alike(self, kind, compiled):
        tree = BinOp("+", node(kind), Call("exp", Var("y")))
        at = {"x": 0.75, "y": -0.5}
        if compiled:
            evaluate(tree, at)
        twin = copy.deepcopy(tree)
        assert twin == tree and hash(twin) == hash(tree)
        assert struct.pack("d", evaluate(twin, at)) == struct.pack("d", evaluate(tree, at))

    @pytest.mark.parametrize("kind", sorted(KIND_FIELDS))
    def test_positional_patterns_bind_the_fields(self, kind):
        match node(kind):
            case Num(a) | Var(a) | Neg(a):
                fields = (a,)
            case BinOp(a, b, c):
                fields = (a, b, c)
            case Call(a, b):
                fields = (a, b)
        assert fields == KIND_FIELDS[kind][1]


class TestEvaluation:
    def test_identity_case(self):
        assert evaluate(parse_expression("exp(0)*cos(0)"), {}) == 1.0

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            evaluate(parse_expression("x + 1"), {})

    def test_extra_bindings_allowed(self):
        assert evaluate(parse_expression("x"), {"x": 2.0, "y": 7.0}) == 2.0

    @pytest.mark.parametrize("source,bindings", [
        ("log(x)", {"x": -1.0}),
        ("log(x)", {"x": 0.0}),
        ("sqrt(x)", {"x": -4.0}),
        ("1/x", {"x": 0.0}),
    ])
    def test_domain_errors(self, source, bindings):
        with pytest.raises(DomainError):
            evaluate(parse_expression(source), bindings)

    def test_deterministic(self):
        e = parse_expression("sin(x)*exp(cos(x)) + x^3/7")
        b = {"x": 0.12345}
        assert evaluate(e, b) == evaluate(e, b)


class TestDerivatives:
    def test_quadratic_exact(self):
        e = parse_expression("x^2")
        assert partial_derivative(e, "x", {"x": 3.0}, h=1e-4) == pytest.approx(
            6.0, abs=1e-7)

    def test_sine_against_cosine_oracle(self):
        e = parse_expression("sin(x)")
        for x in (0.0, 0.4, -1.1):
            got = partial_derivative(e, "x", {"x": x}, h=1e-5)
            assert got == pytest.approx(math.cos(x), abs=1e-8)

    def test_constant_exact_zero(self):
        e = parse_expression("t*0 + 5")
        assert partial_derivative(e, "t", {"t": 2.0}) == 0.0

    def test_low_degree_polynomials_exact(self):
        # central differences are exact on degree <= 2 up to rounding
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b, c = rng.uniform(-2, 2, 3)
            x = float(rng.uniform(-3, 3))
            e = parse_expression(f"({a})*x^2 + ({b})*x + ({c})")
            got = partial_derivative(e, "x", {"x": x})
            want = 2 * a * x + b
            assert abs(got - want) < 1e-9 * max(1.0, abs(want))

    def test_default_step(self):
        assert default_step(0.0) == 1e-4
        assert default_step(100.0) == 1e-2

    def test_explicit_step_used_as_given(self):
        # a step below default_step's 1e-6 floor is not raised to it
        probes = []

        def f(b):
            probes.append(b["x"])
            return b["x"] ** 2

        diff_callable(f, "x", {"x": 1.0}, h=1e-9)
        assert probes == [1.0 + 1e-9, 1.0 - 1e-9]

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            partial_derivative(parse_expression("x"), "x", {"x": 1.0}, h=-1.0)

    def test_richardson_second_order_convergence(self):
        # |central - richardson| tracks the h^2 truncation term, so it
        # should drop ~16x (assert >= 10x) when h drops 4x
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = float(rng.uniform(0.5, 1.5))
            b = float(rng.uniform(0.3, 1.0))
            x = float(rng.uniform(-1.0, 1.0))
            f = lambda u: math.sin(a * u) + b * u**3
            h = 1e-2
            gap_coarse = abs(central_difference(f, x, h)
                             - richardson_difference(f, x, h))
            gap_fine = abs(central_difference(f, x, h / 4)
                           - richardson_difference(f, x, h / 4))
            if gap_coarse < 1e-10:
                continue  # third derivative vanished at this point
            assert gap_coarse / gap_fine >= 10.0


def reference_evaluate(expr, bindings):
    """The recursive tree-walking evaluator that compiled expressions
    replace; the oracle of the property test."""
    match expr:
        case Num(value):
            return value
        case Var(name):
            try:
                return float(bindings[name])
            except KeyError:
                raise UnboundVariableError(f"variable {name!r} is not bound") from None
        case Neg(arg):
            return -reference_evaluate(arg, bindings)
        case BinOp(op, left, right):
            a = reference_evaluate(left, bindings)
            b = reference_evaluate(right, bindings)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                if b == 0.0:
                    raise DomainError("division by zero")
                return a / b
            try:
                r = a**b
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise DomainError(f"invalid power {a}^{b}: {exc}") from None
            if isinstance(r, complex):
                raise DomainError(f"power {a}^{b} leaves the real domain")
            return r
        case Call(func, arg):
            x = reference_evaluate(arg, bindings)
            if func == "log" and x <= 0.0:
                raise DomainError(f"log of non-positive value {x}")
            if func == "sqrt" and x < 0.0:
                raise DomainError(f"sqrt of negative value {x}")
            try:
                return FUNCTIONS[func](x)
            except (ValueError, OverflowError) as exc:
                raise DomainError(f"{func}({x}): {exc}") from None
    raise TypeError(f"not an Expression: {expr!r}")


NAMES = ("x", "y", "z")
EDGE_VALUES = (0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.0, 1e308, -1e308, 1e-308,
               5e-324)
values = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(width=64))
trees = st.recursive(
    st.one_of(st.builds(Num, values), st.builds(Var, st.sampled_from(NAMES))),
    lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), sub),
    ),
    max_leaves=12,
)
# a name left out of the dictionary is unbound
bindings = st.dictionaries(st.sampled_from(NAMES), values)


def outcome(fn):
    try:
        return "value", struct.pack("d", fn())
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)


def leftmost_unbound(expr, bindings):
    """The name of the leftmost variable of ``expr`` that ``bindings``
    leaves unbound, or None."""
    match expr:
        case Var(name):
            return None if name in bindings else name
        case Neg(arg) | Call(_, arg):
            return leftmost_unbound(arg, bindings)
        case BinOp(_, left, right):
            return leftmost_unbound(left, bindings) or leftmost_unbound(right, bindings)
    return None


def evaluate_outcome(tree, bindings):
    """The outcome ``evaluate`` must have: the leftmost unbound variable
    raises before anything is evaluated, else the reference interpreter's."""
    name = leftmost_unbound(tree, bindings)
    if name is not None:
        return UnboundVariableError, f"variable {name!r} is not bound"
    return outcome(lambda: reference_evaluate(tree, bindings))


def calling_module() -> str:
    """The name of the module whose call reached the wrapper of this file
    that runs this, past the other wrappers of this file."""
    frame = sys._getframe(2)
    while frame.f_globals["__name__"] == __name__:
        frame = frame.f_back
    return frame.f_globals["__name__"]


class TestCompiledExpressions:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(tree=trees, b=bindings)
    def test_matches_reference_interpreter(self, tree, b):
        assert outcome(lambda: evaluate(tree, b)) == evaluate_outcome(tree, b)

    @pytest.mark.parametrize("source,b", [
        ("x^2 - 3*x + 1/(y + 2)", {"x": 1.7, "y": -0.3}),
        ("exp(-(x1_1 - x2_1)^2) * tanh(t1)", {"x1_1": 0.2, "x2_1": -1.1, "t1": 3.0}),
        ("log(x)", {"x": 0.0}),
        ("(-8)^(1/3)", {}),
        ("exp(x)", {"x": 1e308}),
        ("x + y", {"x": 1.0}),
        ("log(x) + y", {"x": 0.0}),
        ("2^3^2 - -x", {"x": -0.0}),
    ])
    def test_shipped_shapes_match_reference(self, source, b):
        tree = parse_expression(source)
        assert outcome(lambda: evaluate(tree, b)) == evaluate_outcome(tree, b)

    def test_not_an_expression(self):
        with pytest.raises(TypeError):
            evaluate("x + 1", {})
        with pytest.raises(TypeError):
            evaluate(BinOp("+", Num(1.0), "x"), {})

    @pytest.fixture
    def compiles(self, monkeypatch):
        """The trees that ``evaluate`` compiles while the test runs, in
        order: those that a tree's ``function`` passes to
        ``codegen.compile_function``.  The parse cache is emptied first, so
        sources parsed by earlier tests are parsed and compiled again here."""
        parse_expression.cache_clear()
        seen = []
        real = codegen.compile_function

        def counting(outputs, *args):
            if calling_module() == expr_module.__name__:
                seen.extend(outputs)
            return real(outputs, *args)

        monkeypatch.setattr(codegen, "compile_function", counting)
        return seen

    def test_compiled_once_per_tree(self, compiles):
        tree = parse_expression("x^2 + sin(y)")
        for i in range(50):
            evaluate(tree, {"x": float(i), "y": 1.0})
        assert len(compiles) == 1 and compiles[0] is tree
        # the same source gives the same tree; another spelling of it gives
        # an equal tree that is compiled on its own
        assert parse_expression("x^2 + sin(y)") is tree
        twin = parse_expression("x^2+sin(y)")
        assert twin is not tree
        assert evaluate(twin, {"x": 2.0, "y": 0.0}) == 4.0
        assert len(compiles) == 2 and compiles[1] is twin
        # the compiled function stays out of the key, so out of eq, hash and repr
        assert tree == twin and hash(tree) == hash(twin)
        assert repr(tree) == repr(twin)

    @pytest.fixture
    def fused(self, monkeypatch):
        """The outputs of every ``compile_function`` call that the
        classical, quantum and HJ modules make while the test runs.  The
        classical and HJ modules call the name they imported, which is
        wrapped; the quantum module looks it up in ``codegen`` at the call,
        where it is wrapped over what the ``compiles`` fixture may have put
        there, and counted for the quantum module's calls alone."""
        seen = []
        real = codegen.compile_function

        def counting(outputs, *args):
            seen.append(tuple(outputs))
            return compile_function(outputs, *args)

        def quantum_counting(outputs, *args):
            if calling_module() == quantum.__name__:
                seen.append(tuple(outputs))
            return real(outputs, *args)

        for module in (classical, hj):
            monkeypatch.setattr(module, "compile_function", counting)
        monkeypatch.setattr(codegen, "compile_function", quantum_counting)
        return seen

    @pytest.fixture
    def loops(self, monkeypatch):
        """The outputs of every ``compile_rk4`` call that the classical and
        HJ modules make while the test runs, from empty loop memos."""
        seen = []
        real = codegen.compile_rk4

        def counting(outputs, *args, **kwargs):
            seen.append(tuple(outputs))
            return real(outputs, *args, **kwargs)

        for module in (classical, hj):
            monkeypatch.setattr(module, "compile_rk4", counting)
        classical._rk4_loop.cache_clear()
        hj._leaf_loop.cache_clear()
        return seen

    def test_field_compiled_once_over_rk4_run(self, compiles, fused, loops):
        h_exprs = ["p1_1^2/2 + (x1_1 - x2_1)^2/2", "p2_1^2/2 + (x1_1 - x2_1)^2/2"]
        free = PhaseVectorField.free(2, 1, [1.0, 2.0])
        coupled = hamiltonian_vector_field(h_exprs, 2, 1)
        # a field is its expressions: nothing is compiled at construction
        assert compiles == [] and fused == [] and loops == []
        init = PhasePoint(times=[0.0, 0.0], x=[[-1.0], [1.0]], p=[[0.1], [-0.1]])
        for field in (free, coupled, free, coupled, hamiltonian_vector_field(h_exprs, 2, 1)):
            evolve_equal_time(field, init, (0.0, 0.2), 0.01)
        # one loop per field, also for a field rebuilt from equal
        # expressions, with every time t_j the step time, and no right-hand
        # side or component compiled on its own
        step = {"t1": Var(expr_module.STEP_TIME), "t2": Var(expr_module.STEP_TIME)}
        assert loops == [tuple(expr_module.substitute(e, step) for e in f.exprs)
                         for f in (free, coupled)]
        assert compiles == [] and fused == []
        # the grid legs: one loop per field and time axis
        pair = HamiltonianPair(h_exprs, 2, 1)
        for _ in range(2):
            evolve_full_grid(pair, init, [0.0, 0.1, 0.2], [0.0, 0.1, 0.2])
            grid_path_independence(pair, init, (0.2, 0.1), 0.05)
        assert len(loops) == 4 and compiles == [] and fused == []

    def test_rhs_compiled_once_over_validity_runs(self, compiles, fused, loops):
        classical._rhs.cache_clear()
        init = PhasePoint(times=[0.0, 0.0], x=[[-1.0], [1.0]], p=[[0.1], [-0.1]])
        for _ in range(2):
            # a field rebuilt from the same strings: equal, not the same
            field = PhaseVectorField.from_expressions(
                2, 1, [["p1_1"], ["p2_1"]], [["-(x1_1 - x2_1)"], ["x1_1 - x2_1"]])
            npath = evolve_equal_time(field, init, (0.0, 1.0), 0.01)
            report = validity_residual(field, npath, [[0.5, 0.6], [0.4, 0.45]])
            assert report["rejected_samples"] == 0
        # one right-hand side, no expression on its own, and one loop
        assert fused == [field.exprs] and compiles == [] and len(loops) == 1

    def test_leaf_loop_compiled_once_per_foliation(self, compiles, fused, loops):
        s = hj.HJFunction("k1*x1_1 - (k1^2/2)*t1 + k2*x2_1 - (k2^2/2)*t2", 2, 1,
                          [1.0, 1.0], {"k1": 0.3, "k2": -0.2})
        fols = [hj.Foliation([0.0]), hj.Foliation([0.3])]
        for _ in range(2):  # each run anchors in several sweeps
            hj.foliation_compare(s, fols, [[-1.0], [1.0]], (-0.5, 0.5), 0.05)
        assert len(loops) == 2 and compiles == [] and fused == []

    def test_quantum_coefficients_compiled_at_construction(self, compiles, fused):
        z = np.diag([1.0, -1.0])
        system = PartialHamiltonianSet(
            [[(np.kron(z, z), "sin(2*t1)"), (np.kron(z, z), 0.5)],
             [(np.kron(z, z), Var("t2"))]], 2)
        # one function of the time tuple per H_j, numbers as Num
        assert fused == [(parse_expression("sin(2*t1)"), Num(0.5)), (Var("t2"),)]
        path = staircase_between([0.0, 0.0], [1.0, 1.0], max_dt=0.01)
        evolve_staircase(system, MultiTimeState(np.eye(4)[0], [0.0, 0.0]), path)
        assert len(fused) == 2 and compiles == []
        assert np.array_equal(system.hamiltonian(1, np.array([0.25, 3.0])),
                              (math.sin(0.5) + 0.5) * np.kron(z, z))

    def test_quantum_coefficient_variables_checked_at_construction(self):
        with pytest.raises(UnboundVariableError, match="'t3' is not bound"):
            PartialHamiltonianSet([[(np.eye(4), "t3")], []], 2)

    def test_strings_parsed_and_compiled_once_over_hj_defect_calls(self, compiles,
                                                                   fused):
        hj._poisson_defects.cache_clear()  # an earlier test may have built it
        h_exprs = ["p1_1^2/2 + (x1_1 - x2_1)^2/2", "p2_1^2/2 + (x1_1 - x2_1)^2/2"]
        point = PhasePoint(times=[0.0, 0.0], x=[[-1.0], [1.0]], p=[[0.1], [-0.1]])
        first = hj_consistency_defect(h_exprs, point)
        assert len(fused) == 1
        for _ in range(20):
            assert hj_consistency_defect(h_exprs, point) == first
        # one function of every pair's defect, no expression on its own,
        # and each string parsed once
        assert len(fused) == 1 and compiles == []
        assert parse_expression.cache_info().misses == 2

    def test_parse_errors_not_cached(self):
        parse_expression.cache_clear()
        for _ in range(2):
            with pytest.raises(ExpressionSyntaxError):
                parse_expression("x +")
        assert parse_expression.cache_info().currsize == 0


# ------------------------------------------------------- exact derivatives

SMALL = (0.5, 1.0, 1.5, 2.0, 3.0)
# x, the variable of differentiation, is drawn twice as often as y or a number
smooth_leaves = st.one_of(st.builds(Var, st.just("x")), st.builds(Var, st.just("x")),
                         st.builds(Var, st.just("y")), st.builds(Num, st.sampled_from(SMALL)))


def smooth_nodes(sub):
    return st.one_of(
        st.builds(Neg, sub),
        st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), sub),
    )


smooth_trees = st.recursive(smooth_leaves, smooth_nodes, max_leaves=8)


#: the numbers c of the shapes c*(u^2) and c*-(u): c*2 exact, inexact and overflowing
SCALES = (0.05, 0.25, -0.5, 3.0, 1e308)


def power_rule_shapes(sub):
    """u^2/2, u^3/3, (a - b)^2/2, c*(u^2) and c*-(u): the terms whose
    derivatives carry the constants of the power rule, or a number times
    a negation."""
    return st.one_of(
        st.builds(lambda u: BinOp("/", BinOp("^", u, Num(2.0)), Num(2.0)), sub),
        st.builds(lambda u: BinOp("/", BinOp("^", u, Num(3.0)), Num(3.0)), sub),
        st.builds(lambda a, b: BinOp("/", BinOp("^", BinOp("-", a, b), Num(2.0)), Num(2.0)),
                  sub, sub),
        st.builds(lambda c, u: BinOp("*", Num(c), BinOp("^", u, Num(2.0))),
                  st.sampled_from(SCALES), sub),
        st.builds(lambda c, u: BinOp("*", Num(c), Neg(u)), st.sampled_from(SCALES), sub),
    )


# smooth trees that also hold the power rule's shapes, at any depth
power_rule_trees = st.recursive(
    smooth_leaves, lambda sub: st.one_of(smooth_nodes(sub), power_rule_shapes(sub)),
    max_leaves=8)
points = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


def exact_derivative(tree, x, y):
    """d tree / dx at (x, y), or None where it is not defined."""
    try:
        value = evaluate(diff(tree, "x"), {"x": x, "y": y})
    except DomainError:
        return None
    return value if math.isfinite(value) else None


def to_sympy(sp, node, symbols):
    match node:
        case Num(value):
            return sp.Float(value)
        case Var(name):
            return symbols[name]
        case Neg(arg):
            return -to_sympy(sp, arg, symbols)
        case BinOp(op, left, right):
            a, b = to_sympy(sp, left, symbols), to_sympy(sp, right, symbols)
            return {"+": a + b, "-": a - b, "*": a * b,
                    "/": a / b if b != 0 else sp.nan, "^": a ** b}[op]
        case Call(func, arg):
            return (sp.Abs if func == "abs" else getattr(sp, func))(
                to_sympy(sp, arg, symbols))


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


class TestDiff:
    @pytest.mark.parametrize("source,var,want", [
        ("3", "x", "0"),
        ("y", "x", "0"),
        ("x", "x", "1"),
        ("x * y", "x", "y"),
        ("x + 2*y", "x", "1"),
        ("-(y - x)", "x", "1"),
        ("x^3", "x", "3 * x ^ 2"),
        ("x^1", "x", "1"),
        ("y^x", "x", "y ^ x * log(y)"),
        ("sin(x)", "x", "cos(x)"),
        ("exp(y)", "x", "0"),
    ])
    def test_folding(self, source, var, want):
        got = diff(parse_expression(source), var)
        assert got == parse_expression(want) or to_string(got) == want

    @pytest.mark.parametrize("source,x", [
        ("abs(x)", 0.0),
        ("abs(x)", -0.0),
        ("sqrt(x)", 0.0),
        ("x^0.5", 0.0),
        ("x^(1/3)", 0.0),
        ("(x - 1)^0.25 + x", 1.0),
    ])
    def test_no_derivative_raises(self, source, x):
        with pytest.raises(DomainError):
            evaluate(diff(parse_expression(source), "x"), {"x": x})

    @pytest.mark.parametrize("source,x,want", [
        ("abs(x)", -2.0, -1.0),
        ("sqrt(x)", 4.0, 0.25),
        ("x^1.5", 0.0, 0.0),
        ("x^2", 0.0, 0.0),
        ("x^0", 0.0, 0.0),
        ("tanh(x)", 0.0, 1.0),
        ("log(x)", 4.0, 0.25),
    ])
    def test_values(self, source, x, want):
        assert evaluate(diff(parse_expression(source), "x"), {"x": x}) == want

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(tree=smooth_trees, at=points)
    def test_matches_richardson(self, tree, at):
        x, y = at
        exact = exact_derivative(tree, x, y)

        def g(u):
            return evaluate(tree, {"x": u, "y": y})

        def one_sided(h):  # second order, from x to x + 2h
            return (4.0 * g(x + h) - 3.0 * g(x) - g(x + 2.0 * h)) / (2.0 * h)

        try:
            fine, coarse = (richardson_difference(g, x, h) for h in (1e-3, 2e-3))
            sides = [one_sided(1e-3), one_sided(-1e-3)]
        except DomainError:
            return
        scale = max(1.0, abs(fine))
        # defined, and smooth enough near x that halving the step barely
        # moves the fourth-order estimate and the one-sided estimates
        # agree with it (a central difference does not see a kink at x)
        if exact is None or not (abs(fine - coarse) < 1e-7 * scale and all(
                abs(side - fine) < 1e-4 * scale for side in sides)):
            return
        assert abs(exact - fine) <= 1e-6 * scale

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(tree=smooth_trees, at=points)
    def test_matches_sympy(self, sympy, tree, at):
        x, y = at
        exact = exact_derivative(tree, x, y)
        if exact is None:
            return
        symbols = {name: sympy.Symbol(name, real=True) for name in ("x", "y")}
        want = sympy.diff(to_sympy(sympy, tree, symbols), symbols["x"]).evalf(
            40, subs={symbols["x"]: sympy.Float(x), symbols["y"]: sympy.Float(y)})
        try:
            want = complex(want)
        except (TypeError, ZeroDivisionError):
            return  # not a number there (sympy's y*x^y/x at x = 0)
        # a real derivative; (-a)^(y-1) is complex in exact arithmetic when
        # y - 1 only rounds to an integer in floats
        if want.imag != 0.0 or not math.isfinite(want.real):
            return
        assert abs(exact - want.real) <= 1e-8 * max(1.0, abs(want.real))

    def test_not_an_expression(self):
        with pytest.raises(TypeError):
            diff("x", "x")


# moderate values, where a tree's derivative mostly stays finite, and the edges
field_values = st.one_of(st.floats(-10.0, 10.0),
                         st.sampled_from(EDGE_VALUES + (math.inf, -math.inf, math.nan)))


def assert_field_matches_the_unreduced_one(h, at):
    """The Hamiltonian field of ``h`` (x1_1 and p1_1) at ``at`` has the
    bits of the field of the unreduced derivatives wherever those are
    finite, and raises the same error where they raise."""
    reduced = hamiltonian_vector_field(h, 1, 1).exprs
    unreduced = (diff_unreduced(h, "p1_1"), Neg(diff_unreduced(h, "x1_1")))
    names = [("x1_1", "p1_1")]
    got = outcomes(lambda: compile_function(reduced, names)(at))
    want = outcomes(lambda: compile_function(unreduced, names)(at))
    if want[0] != "values":
        assert got == want
        return
    assert got[0] == "values"
    for new, old in zip(got[1], want[1]):
        if math.isfinite(struct.unpack("d", old)[0]):
            assert new == old


class TestReducedDerivatives:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(tree=power_rule_trees, at=st.tuples(field_values, field_values))
    def test_field_matches_the_unreduced_one(self, tree, at):
        # x and y as a position and a momentum: the field is (dH/dp, -dH/dx)
        assert_field_matches_the_unreduced_one(
            substitute(tree, {"x": Var("x1_1"), "y": Var("p1_1")}), at)

    @pytest.mark.parametrize("source", [
        "x1_1^3/3 + p1_1^2/2", "(x1_1 - p1_1)^2/2", "-((p1_1 - x1_1)^2/2)",
        "sin(x1_1)^3/3 * p1_1", "x1_1 * p1_1^2/2", "log(p1_1)^2/2 - 2*x1_1^2/2",
    ])
    @pytest.mark.parametrize("at", [(9.999999999999998, 0.1), (0.1, -3.7), (1e308, 5e-324),
                                    (-0.0, 1e154), (math.inf, 2.0), (-2.5e-310, 0.0)])
    def test_shapes_match_the_unreduced_one(self, source, at):
        assert_field_matches_the_unreduced_one(parse_expression(source), at)

    def test_power_rule_constants_cancel(self):
        assert diff(parse_expression("p^2/2"), "p") == Var("p")
        assert diff(parse_expression("(a - b)^2/2"), "b") == parse_expression("-(a - b)")
        assert diff(parse_expression("-((a - b)^2/2)"), "b") == parse_expression("a - b")

    def test_numbers_fold_into_products(self):
        # c * -(u) is (-c) * u, and c * (k*u) is (c*k) * u for k = ±2^j
        a_minus_b = parse_expression("a - b")
        assert diff(parse_expression("0.05 * (a - b)^2"), "a") == BinOp(
            "*", Num(0.1), a_minus_b)
        assert diff(parse_expression("0.05 * (a - b)^2"), "b") == BinOp(
            "*", Num(-0.1), a_minus_b)
        assert expr_module._mul(Num(3.0), Neg(Var("u"))) == BinOp("*", Num(-3.0), Var("u"))
        # an inexact k stays, and so does a c*k that overflows
        for c, k in ((0.05, 3.0), (1e308, 2.0)):
            scaled = BinOp("*", Num(k), Var("u"))
            assert expr_module._mul(Num(c), scaled) == BinOp("*", Num(c), scaled)

    def test_overflowing_scaled_rate_is_finite(self):
        # the rate of 0.25 * p^2 at p = 1e308 is 0.5 * p, finite; the
        # unreduced 0.25 * (2 * p) overflows in 2 * p to inf
        h = parse_expression("0.25 * p1_1^2")
        reduced = hamiltonian_vector_field(h, 1, 1)
        unreduced = PhaseVectorField(1, 1, (diff_unreduced(h, "p1_1"),
                                            Neg(diff_unreduced(h, "x1_1"))))
        assert reduced.exprs[0] == parse_expression("0.5 * p1_1")
        assert reduced.rhs([0.0], [0.0, 1e308]) == (5e307, 0.0)
        assert unreduced.rhs([0.0], [0.0, 1e308]) == (math.inf, 0.0)
        # where 2 * p is finite the two rates have the same bits
        for p in (0.1, -3.7, 1e307, 5e-324):
            assert reduced.rhs([0.0], [0.0, p]) == unreduced.rhs([0.0], [0.0, p])

    @pytest.mark.parametrize("k,cancels", [
        (2.0, True), (-2.0, True), (4.0, True), (-4.0, True), (2.0 ** 1023, True),
        (3.0, False), (0.5, False), (-0.5, False), (6.0, False), (2.0 ** -1022, False),
    ])
    def test_only_exact_scalings_cancel(self, k, cancels):
        u, scaled = Var("u"), BinOp("*", Num(k), Var("u"))
        assert expr_module._div(scaled, Num(k)) == (u if cancels else BinOp("/", scaled, Num(k)))

    def test_why_inexact_scalings_stay(self):
        # (3*u)/3 rounds twice, and 0.5*u underflows for a subnormal u
        assert (3.0 * 0.1) / 3.0 != 0.1 and (0.5 * 5e-324) / 0.5 != 5e-324
        assert diff(parse_expression("x^3/3"), "x") == parse_expression("3 * x^2 / 3")
        # 0.5 * (2 * x) is folded to x, but (k*u)/k cancels only for k = ±2^j
        assert diff(parse_expression("0.5 * x^2 / 0.5"), "x") == parse_expression("x / 0.5")
        # the two k must have the same bits
        assert diff(parse_expression("x^2/4"), "x") == parse_expression("2 * x / 4")

    @pytest.mark.parametrize("config,fields", [
        ("grid_coupled", [["p1_1", "0", "-(x1_1 - x2_1)", "x1_1 - x2_1"],
                          ["0", "p2_1", "-(x1_1 - x2_1)", "x1_1 - x2_1"]]),
        # a zero gradient keeps its rate -0
        ("grid_free", [["p1_1", "0", "-0", "-0"], ["0", "p2_1", "-0", "-0"]]),
    ])
    def test_shipped_grid_fields(self, config, fields):
        _, _, pair = kinds_classical._classical_system(EXAMPLE_CONFIGS[config]["system"], "", grid=True)
        assert [list(field.exprs) for field in pair.fields] == [
            [parse_expression(source) for source in row] for row in fields]

    def test_overflowing_power_rule_rate_is_finite(self):
        # the rate of p^2/2 at p = 1e308 is p, finite; 2 * p / 2 overflows
        # to inf, and a run of the unreduced field raises at its first step
        h = parse_expression("p1_1^2/2")
        reduced = hamiltonian_vector_field(h, 1, 1)
        unreduced = PhaseVectorField(1, 1, (diff_unreduced(h, "p1_1"),
                                            Neg(diff_unreduced(h, "x1_1"))))
        start = PhasePoint(times=[0.0], x=[[0.0]], p=[[1e308]])
        assert reduced.rhs([0.0], [0.0, 1e308]) == (1e308, 0.0)
        assert unreduced.rhs([0.0], [0.0, 1e308]) == (math.inf, 0.0)
        # a step of rate 1e308 overflows in the sum of its rates, 6 * 1e308;
        # taken again with each rate scaled by h/6 first, the reduced field
        # steps to x = 1e298, and the unreduced rate inf still raises
        path = evolve_equal_time(reduced, start, (0.0, 1e-10), 1e-10)
        assert path.line(1).x[-1, 0] == pytest.approx(1e298)
        with pytest.raises(FloatingPointError, match="non-finite state at t = 1e-10"):
            evolve_equal_time(unreduced, start, (0.0, 1e-10), 1e-10)
        # scaled after the power rule, the reduced rate steps; the
        # unreduced one is inf * 1e-10
        h = parse_expression("p1_1^2/2 * 1e-10")
        reduced = hamiltonian_vector_field(h, 1, 1)
        unreduced = PhaseVectorField(1, 1, (diff_unreduced(h, "p1_1"),
                                            Neg(diff_unreduced(h, "x1_1"))))
        assert reduced.exprs[0] == parse_expression("p1_1 * 1e-10")
        path = evolve_equal_time(reduced, start, (0.0, 1e-10), 1e-10)
        assert path.line(1).x_at(np.array([1e-10]))[0, 0] == pytest.approx(1e288)
        with pytest.raises(FloatingPointError, match="non-finite state at t = 1e-10"):
            evolve_equal_time(unreduced, start, (0.0, 1e-10), 1e-10)


class TestCentralDifference:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(tree=trees, var=st.sampled_from(NAMES), at=values, b=bindings,
           h=st.floats(5e-324, 1e308))
    def test_matches_diff_callable(self, tree, var, at, b, h):
        b = {**b, var: at}
        stepped = expr_module.central_difference(tree, var, h)
        assert outcome(lambda: evaluate(stepped, b)) == outcome(
            lambda: diff_callable(lambda bb: evaluate(tree, bb), var, b, h=h))

    def test_shape(self):
        got = expr_module.central_difference(parse_expression("x*y + x"), "x", 0.5)
        assert got == parse_expression(
            "((x + 0.5)*y + (x + 0.5) - ((x - 0.5)*y + (x - 0.5))) / 1")
        with pytest.raises(ValueError, match=r"^h: expected a number > 0, got 0\.0$"):
            expr_module.central_difference(got, "x", 0.0)

    @pytest.mark.parametrize("h", [0.0, -1e-4, math.nan, math.inf, -math.inf])
    def test_step_not_a_finite_positive_number_refused(self, h):
        # a NaN step built a tree of NaNs, and each copy of the check let it by
        kind = "a number > 0" if math.isfinite(h) else "a finite number"
        refused = f"^{re.escape(f'h: expected {kind}, got {h}')}$"
        with pytest.raises(ValueError, match=refused):
            expr_module.check_steps(h, ["x"], [1.0])
        with pytest.raises(ValueError, match=refused):
            expr_module.central_difference(parse_expression("x"), "x", h)
        with pytest.raises(ValueError, match=refused):
            diff_callable(lambda b: b["x"], "x", {"x": 1.0}, h=h)
        expr_module.check_steps(None, ["x"], [math.nan])  # None means exact


def rebuilt_substitution(expr, values):
    """Substitution that builds every node anew: the oracle of
    ``expr.substitute``."""
    match expr:
        case Var(name) if name in values:
            return values[name]
        case Neg(arg):
            return Neg(rebuilt_substitution(arg, values))
        case Call(func, arg):
            return Call(func, rebuilt_substitution(arg, values))
        case BinOp(op, left, right):
            return BinOp(op, rebuilt_substitution(left, values),
                         rebuilt_substitution(right, values))
    return expr


class TestBoundSteps:
    """One check of every formalism's work count against ``MAX_STEPS``."""

    def test_at_the_bound_passes(self):
        expr_module.bound_steps(10 ** 6)
        expr_module.bound_steps(1e6, "substeps")

    @pytest.mark.parametrize("steps,what,shown", [
        (10 ** 6 + 1, "substeps", "1000001"),  # a count near the bound in full
        (10 ** 7, "RK4 steps", "10000000"),
        (2 * 10 ** 18, "RK4 steps", "2e+18"),
        (4.000000000000001e6, "RK4 steps", "4e+06"),  # an estimate to 3 digits
        (math.inf, "RK4 steps", "inf"),
        (10 ** 400, "RK4 steps", "inf"),  # beyond the floats
    ])
    def test_message(self, steps, what, shown):
        with pytest.raises(ValueError, match=re.escape(
                f"the run takes {shown} {what}; at most 1000000 are allowed")):
            expr_module.bound_steps(steps, what)


class TestSubstitute:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(tree=trees, var=st.sampled_from(NAMES), value=trees)
    def test_matches_rebuilt_tree(self, tree, var, value):
        got = expr_module.substitute(tree, {var: value})
        assert got == rebuilt_substitution(tree, {var: value})
        if var not in free_variables(tree):
            assert got is tree

    def test_subtree_without_the_variable_is_the_same_object(self):
        tree = parse_expression("x*y + exp(y - 2) / -y")
        step = BinOp("+", Var("x"), Num(0.5))
        got = expr_module.substitute(tree, {"x": step})
        assert got == parse_expression("(x + 0.5)*y + exp(y - 2) / -y")
        assert got.right is tree.right
        assert got.left.right is tree.left.right
        assert expr_module.substitute(tree, {"z": step}) is tree


# ------------------------------------------------------- fused functions

FUSED_NAMES = ("x", "y", "z", "k")


@st.composite
def systems(draw):
    """One to four trees over x, y, z and the constant k that share a
    common subtree."""
    shared = draw(trees)
    leaves = st.one_of(st.builds(Num, values),
                       st.builds(Var, st.sampled_from(FUSED_NAMES)),
                       st.just(shared))
    outputs = st.recursive(leaves, lambda sub: st.one_of(
        st.builds(Neg, sub),
        st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
        st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), sub),
    ), max_leaves=6)
    return draw(st.lists(outputs, min_size=1, max_size=4))


def outcomes(fn):
    try:
        return "values", [struct.pack("d", v) for v in fn()]
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)


class TestFusedFunctions:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(outputs=systems(), vals=st.tuples(values, values, values, values))
    def test_matches_components(self, outputs, vals):
        x, y, z, k = vals
        # k a number in the trees, a bound variable of the reference
        fused = compile_function([substitute(tree, {"k": Num(float(k))}) for tree in outputs],
                                 [("x",), ("y", "z")])
        b = {"x": x, "y": y, "z": z, "k": k}
        assert outcomes(lambda: fused((x,), [y, z])) == outcomes(
            lambda: [reference_evaluate(tree, b) for tree in outputs])

    def test_shared_subtree_computed_once(self, monkeypatch):
        calls = []

        def counting_exp(u):
            calls.append(u)
            return math.exp(u)

        monkeypatch.setitem(FUNCTIONS, "exp", counting_exp)
        forces = [parse_expression("-(x1_1 - x2_1)*exp(-(x1_1 - x2_1)^2)"),
                  parse_expression("(x1_1 - x2_1)*exp(-(x1_1 - x2_1)^2)")]
        fused = compile_function(forces, [("x1_1", "x2_1")])
        assert fused([0.5, -0.25]) == (-0.75 * math.exp(-0.5625),
                                       0.75 * math.exp(-0.5625))
        assert len(calls) == 1

    def test_unbound_variables(self):
        tree = parse_expression("k*x + t")
        with pytest.raises(UnboundVariableError, match="'k' is not bound"):
            compile_function([tree], [("t", "x")])
        f = compile_function([tree, Var("k")], [("t",), ("k", "x")])
        assert f((1.0,), (2.0, 3.0)) == (7.0, 2.0)
        with pytest.raises(ValueError):
            f((1.0, 2.0), (2.0, 3.0))  # one time too many


# ------------------------------------------------------- compiled RK4 loops

RK4_NUMBERS = (0.0, -0.0, 0.5, 2.0, 3.0, -1.5, 1.0 / 3.0, 1e308)
# integral, non-integral and negative exponents, the complex check's cases
RK4_EXPONENTS = (2.0, 3.0, -1.0, 0.0, 0.5, 1.5, -0.5)


@functools.cache
def rk4_trees(names: tuple[str, ...]):
    """Small trees over ``names`` and the numbers above, built once per
    tuple of names."""
    return st.recursive(
        st.one_of(st.builds(Num, st.sampled_from(RK4_NUMBERS)),
                  st.builds(Var, st.sampled_from(names))),
        lambda sub: st.one_of(
            st.builds(Neg, sub),
            st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
            st.builds(BinOp, st.just("^"), sub,
                      st.one_of(st.builds(Num, st.sampled_from(RK4_EXPONENTS)), sub)),
            st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), sub),
        ),
        max_leaves=5)


@st.composite
def rk4_cases(draw):
    """A loop to compile twice and one call of it: outputs over a state of
    one to three variables, an optional fixed variable and the step time;
    the mode; on the HJ leaves or not; the initial state, the node
    times, the steps and the fixed value."""
    size = draw(st.integers(1, 3))
    state = tuple(f"y{i}" for i in range(1, size + 1))
    fixed = ("f1",) if draw(st.booleans()) else ()
    trees = rk4_trees(state + fixed + (expr_module.STEP_TIME,))
    outputs = draw(st.lists(trees, min_size=size, max_size=size))
    leaves = None
    if not fixed and draw(st.booleans()):
        # the leaves t = s + u.x of ``size`` particles in one dimension
        leaves = (tuple(draw(st.lists(st.sampled_from([0.0, 0.3, -0.6]),
                                      min_size=1, max_size=1))), size, 1)
    y0 = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.25, 1e300]) |
                       st.floats(-3.0, 3.0), min_size=size, max_size=size))
    hs = draw(st.lists(st.sampled_from([0.1, 0.25, -0.1, 1e-3]), min_size=1, max_size=4))
    ts = [draw(st.floats(-2.0, 2.0))]
    for h in hs:
        ts.append(ts[-1] + h)
    values = [draw(st.floats(-2.0, 2.0))] if fixed else []
    return outputs, state, fixed, draw(st.booleans()), leaves, y0, ts, hs, values


def leaf_loop(outputs, state, fixed=(), *, record=True, leaves=None):
    """``codegen.compile_rk4`` of ``outputs``, or with ``leaves``, the
    ``(u, n, d)`` of ``hj._leaf_rates``, of the velocities ``outputs`` on
    those leaves."""
    rates, guards = hj._leaf_rates(outputs, *leaves) if leaves else (None, ())
    return codegen.compile_rk4(outputs, state, fixed, record=record, rates=rates, guards=guards)


def compile_unpacked(outputs, state, fixed=(), *, record=True, leaves=None):
    """``leaf_loop`` as the oracle's loop is called: a state of floats in,
    every node kept without ``record`` (each step a leg), and its packed
    rows out as the states and the records, or the states, each a tuple of
    floats."""
    loop = leaf_loop(outputs, state, fixed, record=record, leaves=leaves)
    if record:
        return lambda y, *args: unpack_rows(loop(pack(y), *args), len(state))
    return lambda y, ts, hs, *fixed_values: unpack_rows(
        loop(pack(y), ts, hs, [range(i, i + 1) for i in range(len(hs))], *fixed_values))


def compile_oracle(outputs, state, fixed=(), *, record=True, leaves=None):
    """``oracles.compile_rk4_oracle`` with the hook ``leaf_rates_oracle``
    on the ``leaves`` of ``compile_unpacked``."""
    return compile_rk4_oracle(outputs, state, fixed, record=record,
                              rates=leaf_rates_oracle(*leaves) if leaves else None)


def loop_outcome(compile_loop, case):
    """The bits of every state and record of one loop call, or the class
    and message of its error."""
    outputs, state, fixed, record, leaves, y0, ts, hs, values = case
    try:
        loop = compile_loop(outputs, state, fixed, record=record, leaves=leaves)
        result = loop(y0, ts, hs, *values)
        rows = [*result[0], *result[1]] if record else result
        return "values", [struct.pack("d", v) for row in rows for v in row]
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)


class TestCompiledRk4:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=rk4_cases())
    def test_matches_the_loop_before_it(self, case):
        # float literals in the scaffold, the stage times only where read
        # and no complex check after an integral power change no bit and
        # no error
        assert loop_outcome(compile_unpacked, case) == \
            loop_outcome(compile_oracle, case)

    @pytest.mark.parametrize("source", [
        "y1 / 0", "y1 / -0", "y1 / (y1 - y1)", "y1 / 4",  # division by a number or zero
        "(y1 - 3)^2", "(y1 - 3)^-1", "(y1 - 3)^0.5", "(y1 - 3)^1.5", "(y1 - 1)^-0.5",
        "(y1 - 1)^y1", "log(y1 - 1)", "sqrt(y1 - 1)", "sin(t1) * y1",
    ])
    @pytest.mark.parametrize("record", [True, False])
    def test_edge_cases_match_the_loop_before_it(self, source, record):
        # y1 = 1 at the start, and a step's stages move it away from 1
        tree = substitute(parse_expression(source), {"t1": Var(expr_module.STEP_TIME)})
        case = ([tree], ("y1",), (), record, None, [1.0], [0.0, 0.5, 1.0], [0.5, 0.5], [])
        assert loop_outcome(compile_unpacked, case) == \
            loop_outcome(compile_oracle, case)

    def test_autonomous_loop_never_reads_the_times(self):
        class Times(list):
            reads = 0

            def __getitem__(self, i):
                Times.reads += 1
                return super().__getitem__(i)

        # two steps: a time-dependent loop reads the three node times when it
        # records and the two steps' start times when it does not; the HJ
        # leaf guards read a time only to report a degenerate leaf
        y = Var("y1")
        for outputs, leaves, reads in (([BinOp("*", Num(-0.5), y)], None, 0),
                                       ([BinOp("*", Num(-0.5), y)], ((0.5,), 1, 1), 0),
                                       ([BinOp("*", Var(expr_module.STEP_TIME), y)], None, 3 + 2)):
            Times.reads = 0
            for record in (True, False):
                loop = leaf_loop(outputs, ["y1"], record=record, leaves=leaves)
                loop(pack([1.0]), Times([0.0, 0.1, 0.2]), [0.1, 0.1], *[] if record else [[range(2)]])
            assert Times.reads == reads

    def test_rows_are_packed(self):
        # a recording loop packs each node's state and then its outputs, a
        # leg loop the state at the end of each leg it is given, the start
        # state itself first
        outputs, y0 = [BinOp("*", Num(-0.5), Var("y1")), Var("y2")], pack([1.0, 2.0])
        ts, hs = [0.0, 0.1, 0.2, 0.3], [0.1] * 3
        recorded = codegen.compile_rk4(outputs, ["y1", "y2"])(y0, ts, hs)
        assert [struct.unpack("4d", row) for row in recorded[:1]] == [(1.0, 2.0, -0.5, 2.0)]
        assert len(recorded) == 4 and len(recorded[1]) == 4 * 8
        leg = codegen.compile_rk4(outputs, ["y1", "y2"], record=False)
        states = leg(y0, ts, hs, [range(1), range(1, 3)])
        assert len(states) == 3 and states[0] is y0
        assert states[1:] == [recorded[1][:2 * 8], recorded[3][:2 * 8]]
        # the loop takes the legs' steps alone
        assert leg(y0, ts, hs, [range(2)]) == [y0, recorded[2][:2 * 8]]
        # a row of one call starts the next as it is
        again = leg(states[1], ts, hs, [range(1, 2)])
        assert again[0] is states[1] and again[1] == recorded[2][:2 * 8]

    def test_constant_subtrees_folded(self):
        # -(2 * 3) and log(4) fold into numbers; 1 / 0, log(-1) and
        # 10^400 do not, and raise in the call as before
        x = Var("x")
        folded = compile_function([BinOp("*", Neg(BinOp("*", Num(2.0), Num(3.0))), x),
                                   BinOp("+", Call("log", Num(4.0)), x)], [("x",)])
        assert folded.__code__.co_code == compile_function(
            [BinOp("*", Num(-6.0), x), BinOp("+", Num(math.log(4.0)), x)],
            [("x",)]).__code__.co_code
        assert folded([0.5]) == (-6.0 * 0.5, math.log(4.0) + 0.5)
        for tree, error in ((BinOp("/", Num(1.0), Num(0.0)), "division by zero"),
                            (Call("log", Num(-1.0)), "log of non-positive value -1.0"),
                            (BinOp("^", Num(10.0), Num(400.0)), "invalid power 10.0^400.0")):
            with pytest.raises(DomainError, match=re.escape(error)):
                compile_function([BinOp("+", x, tree)], [("x",)])([0.5])


# ------------------------------------------------- what the loops compute

# ±2^k with a finite inverse, which become products; then 2^-1074, whose
# inverse overflows, and 3, no power of two, which stay divisions
PRODUCT_DIVISORS = (2.0, 0.5, -4.0, 2.0 ** -1022, 2.0 ** 1023)
DIVISORS = PRODUCT_DIVISORS + (2.0 ** -1074, 3.0)
DIVIDENDS = (0.0, -0.0, 5e-324, -2.5e-310, 1.5, -3.0, 1e308, -1e308,
             math.inf, -math.inf, math.nan)


def binary_ops(function) -> list[str]:
    """The operators of the ``BINARY_OP`` instructions of ``function``."""
    return [op.argrepr for op in dis.get_instructions(function) if op.opname == "BINARY_OP"]


def number_divisors(function) -> list[float]:
    """The divisor of every ``/`` of ``function`` whose right operand is a
    number: a global of it, or a literal."""
    ops = list(dis.get_instructions(function))
    divisors = []
    for operand, op in zip(ops, ops[1:]):
        if op.opname == "BINARY_OP" and op.argrepr == "/":
            if operand.opname == "LOAD_CONST":
                divisors.append(operand.argval)
            elif isinstance(value := function.__globals__.get(operand.argval), float):
                divisors.append(value)
    return divisors


def number_factors(function) -> list[float]:
    """The number operands of every ``*`` of ``function`` whose operands
    are both loaded right before it: a global of it, or a literal."""
    ops = list(dis.get_instructions(function))
    factors = []
    for i, op in enumerate(ops):
        if op.opname == "BINARY_OP" and op.argrepr == "*" and i >= 2 and all(
                operand.opname.startswith("LOAD_") for operand in ops[i - 2:i]):
            for operand in ops[i - 2:i]:
                if operand.opname == "LOAD_CONST":
                    factors.append(operand.argval)
                elif isinstance(value := function.__globals__.get(operand.argval), float):
                    factors.append(value)
    return factors


def stage_states(loop) -> list[str]:
    """The stage states that ``loop`` computes, in order."""
    return [op.argval for op in dis.get_instructions(loop)
            if op.opname == "STORE_FAST" and op.argval[:2] in ("a_", "b_", "e_")]


def shipped_loops() -> list[tuple[str, object]]:
    """``(label, loop)``: the compiled loop of every classical field of the
    shipped configs in every mode (equal-time, a grid leg along each time)
    and the leaf loop of every shipped foliation."""
    loops = []
    for name, cfg in sorted(EXAMPLE_CONFIGS.items()):
        system, exp = cfg["system"], cfg["experiment"]
        if cfg["formalism"] == "hj" and "init_positions" in exp:
            s = hj.HJFunction(system["S"], system["n"], system["d"], system["masses"],
                              system.get("constants"))
            for fc in exp.get("foliations", [exp.get("foliation")]):
                u = hj.Foliation(fc["u"]).u
                loops.append((f"{name}:{u}", hj._leaf_loop(s.expr, s.n, s.d, s.masses, u)))
        elif cfg["formalism"] == "classical":
            if exp["kind"] == "cjs-demo":
                fields = [kinds_classical._build_field(member["field"], "", system["n"], system["d"])
                          for member in exp["family"]]
            elif exp["kind"] in ("full-grid", "path-independence"):
                fields = kinds_classical._classical_system(system, "", grid=True)[2].fields
            else:
                fields = [kinds_classical._classical_system(system, "")[2]]
            for field in fields:
                for axis in (None, *range(field.n)):
                    loop = classical._rk4_loop(field.exprs, field.n, field.d, axis)
                    loops.append((f"{name}:{axis}", loop))
    return loops


def same_as_before(outputs, state, record, y0, leaves=None):
    """One call of the loop of ``outputs`` over two steps, and of the loop
    before the leaner one, give the same bits or the same error."""
    case = (outputs, state, (), record, leaves, y0, [0.0, 0.25, 0.5], [0.25, 0.25], [])
    return (loop_outcome(compile_unpacked, case)
            == loop_outcome(compile_oracle, case))


class TestLeanLoops:
    @pytest.mark.parametrize("c", DIVISORS)
    def test_function_divisors_match_the_reference(self, c):
        x = Var("x")
        trees = [BinOp("/", x, Num(c)),
                 BinOp("-", BinOp("/", Neg(x), Num(c)), BinOp("/", Num(c), x))]
        fused = compile_function(trees, [("x",)])
        for v in DIVIDENDS:
            assert outcomes(lambda: fused((v,))) == outcomes(
                lambda: [reference_evaluate(tree, {"x": v}) for tree in trees])
        # c / x stays a division by a variable
        assert number_divisors(fused) == ([] if c in PRODUCT_DIVISORS else [c, c])
        assert binary_ops(fused).count("/") == (1 if c in PRODUCT_DIVISORS else 3)

    @pytest.mark.parametrize("c", DIVISORS)
    @pytest.mark.parametrize("record", [True, False])
    def test_loop_divisors_match_the_loop_before_it(self, c, record):
        y1, y2 = Var("y1"), Var("y2")
        outputs = [BinOp("/", y2, Num(c)), BinOp("/", Neg(y1), Num(c))]
        for v in DIVIDENDS:
            assert same_as_before(outputs, ("y1", "y2"), record, [v, 0.5])
            assert same_as_before(outputs, ("y1", "y2"), record, [0.5, v])
        loop = codegen.compile_rk4(outputs, ["y1", "y2"], record=record)
        assert sorted(number_divisors(loop)) == sorted([6.0] + ([] if c in PRODUCT_DIVISORS
                                                               else [c] * 8))

    @pytest.mark.parametrize("record", [True, False])
    def test_a_field_that_reads_no_state(self, record):
        # constant rates: no stage state, no h / 2, and each step's sum
        # folded, so a component costs y + h6 * c
        outputs = [Num(0.5), Num(-2.0), Num(1e308)]
        for y0 in ([1.0, -0.0, 2.0], [5e-324, 0.0, -1e308], [0.0, 0.0, 1e308]):
            assert same_as_before(outputs, ("y1", "y2", "y3"), record, y0)
        loop = codegen.compile_rk4(outputs, ["y1", "y2", "y3"], record=record)
        assert stage_states(loop) == [] and "h2" not in loop.__code__.co_varnames
        # (n + 1 nodes,) h / 6.0, the three steps and their finiteness checks;
        # then, on the error path alone, each component's check and its step
        # again with the rates scaled first, the checks again and the error's time
        again = ["-", "*", "*", "*", "+", "*", "*", "+", "*", "+", "+"]
        assert binary_ops(loop) == ["+"] * record + ["/", "*", "+", "*", "+", "*", "+",
                                                     "-", "-", "-"] + again * 3 + [
            "-", "-", "-", "+"]

    @pytest.mark.parametrize("record", [True, False])
    def test_a_field_that_reads_part_of_its_state(self, record):
        # y2 is read by no output, and the time by one
        y1, y3, t = Var("y1"), Var("y3"), Var(expr_module.STEP_TIME)
        outputs = [y3, Neg(y1), BinOp("*", y3, t)]
        for y0 in ([1.0, -0.0, 2.0], [1e308, 0.0, -1e308], [0.5, math.inf, 0.5]):
            assert same_as_before(outputs, ("y1", "y2", "y3"), record, y0)
        loop = codegen.compile_rk4(outputs, ["y1", "y2", "y3"], record=record)
        assert stage_states(loop) == ["a_0", "a_2", "b_0", "b_2", "e_0", "e_2"]

    @pytest.mark.parametrize("record", [True, False])
    def test_constant_leaf_rates(self, record):
        # on the leaves of u = 0.5, V = 1 folds into the rate 1 / 0.5 = 2;
        # V = 2 gives gamma = 1 - 0.5 * 2 = 0 and V = 3 gives -0.5, each
        # degenerate at the first stage
        one, two, three = Num(1.0), Num(2.0), Num(3.0)
        folded = leaf_loop([one, one], ["y1", "y2"], record=record, leaves=((0.5,), 2, 1))
        assert not any(name.startswith("_fail") for name in folded.__code__.co_names)
        assert stage_states(folded) == []
        for outputs in ([one, one], [one, two], [two, one], [three, one], [Var("y2"), two]):
            for y0 in ([1.0, -0.5], [1e308, 0.0]):
                assert same_as_before(outputs, ("y1", "y2"), record, y0, ((0.5,), 2, 1))
        degenerate = leaf_loop([one, two], ["y1", "y2"], record=record, leaves=((0.5,), 2, 1))
        with pytest.raises(FoliationDegeneracyError,
                           match=re.escape("1 - u.V_2 = 0 <= 0 at leaf s = 0")):
            degenerate(pack([1.0, -0.5]), [0.0, 0.25], [0.25],
                       *[] if record else [[range(1)]])

    def test_free_equal_time_loop_has_no_position_stage_state(self):
        n, d, field = kinds_classical._classical_system(EXAMPLE_CONFIGS["classical_free_evolve"]["system"], "")
        loop = classical._rk4_loop(field.exprs, n, d, None)
        # the rates v = p read the momenta alone, which follow the positions
        momenta = range(n * d, 2 * n * d)
        assert stage_states(loop) == [f"{s}_{i}" for s in "abe" for i in momenta]

    def test_free_grid_leg_has_one_stage_state_per_stage(self):
        _, _, pair = kinds_classical._classical_system(EXAMPLE_CONFIGS["grid_free"]["system"], "",
                                           grid=True)
        loop = classical._rk4_loop(pair.fields[0].exprs, pair.n, pair.d, 0)
        assert [name[0] for name in stage_states(loop)] == ["a", "b", "e"]

    def test_no_shipped_loop_divides_by_a_power_of_two(self):
        loops = shipped_loops()
        assert len(loops) > 20
        for label, loop in loops:
            for c in number_divisors(loop):
                assert not (abs(math.frexp(c)[0]) == 0.5 and math.isfinite(1.0 / c)), label

    def test_no_shipped_loop_multiplies_by_one_or_minus_one(self):
        loops = shipped_loops()
        assert len(loops) > 20
        for label, loop in loops:
            assert not {1.0, -1.0}.intersection(number_factors(loop)), label

    def test_free_foliation_leaf_loop_has_no_degeneracy_test(self):
        system = EXAMPLE_CONFIGS["hj_free_foliations"]["system"]
        s = hj.HJFunction(system["S"], system["n"], system["d"], system["masses"],
                          system["constants"])
        loop = hj._leaf_loop(s.expr, s.n, s.d, s.masses, (0.3,))
        assert not any(name.startswith("_fail") for name in loop.__code__.co_names)
        assert stage_states(loop) == []


# ------------------------------------------------- guards of a loop of no foliation

class GuardFailed(Exception):
    """The error of ``guard_failed``: the guard's value and the stage's time."""


def guard_failed(g, time):
    raise GuardFailed(g, time)


def compare_ops(function) -> list[str]:
    """The operators of the ``COMPARE_OP`` instructions of ``function``."""
    return [op.argrepr for op in dis.get_instructions(function) if op.opname == "COMPARE_OP"]


#: the sha256 of the generated source of every shipped classical loop, in the
#: order of ``shipped_loops``: a classical loop has neither rates nor guards,
#: so the guards leave its source as it was
CLASSICAL_LOOP_SOURCES = "e16cf7f0902fddccc9ae88a0c1d3b216668a5d091ff555e4f073ea47d99a1e8d"


class TestGuards:
    @pytest.mark.parametrize("record", [True, False])
    def test_guard_fires_with_the_stage_time(self, record):
        # dy1/dt = 1 from y1 = 1 at t = 0.5: the guard 1.1 - y1 is 0.1 at the
        # node and 1.1 - 1.125 at the first half stage, t = 0.5 + 0.125; the
        # outputs read no state, the guard reads y1
        y1 = Var("y1")
        loop = codegen.compile_rk4([Num(1.0)], ["y1"], record=record,
                                   guards=[(BinOp("-", Num(1.1), y1), guard_failed)])
        with pytest.raises(GuardFailed) as failed:
            loop(pack([1.0]), [0.5, 0.75], [0.25], *[] if record else [[range(1)]])
        assert failed.value.args == (1.1 - 1.125, 0.5 + 0.25 * 0.5)
        assert stage_states(loop) == ["a_0", "b_0", "e_0"]

    @pytest.mark.parametrize("record", [True, False])
    def test_constant_guard_above_zero_is_no_test(self, record):
        y1 = Var("y1")
        plain = codegen.compile_rk4([Neg(y1)], ["y1"], record=record)
        for guard in (Num(0.5), BinOp("-", Num(1.0), Num(0.5))):
            loop = codegen.compile_rk4([Neg(y1)], ["y1"], record=record,
                                       guards=[(guard, guard_failed)])
            assert not any(name.startswith("_fail") for name in loop.__code__.co_names)
            assert [op.opname for op in dis.get_instructions(loop)] == \
                [op.opname for op in dis.get_instructions(plain)]

    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0])
    def test_constant_guard_at_most_zero_fails_at_the_first_stage(self, record, value):
        loop = codegen.compile_rk4([Neg(Var("y1"))], ["y1"], record=record,
                                   guards=[(BinOp("-", Num(1.0), Num(1.0 - value)),
                                            guard_failed)])
        with pytest.raises(GuardFailed) as failed:
            loop(pack([1.0]), [0.5, 0.75], [0.25], *[] if record else [[range(1)]])
        assert failed.value.args == (1.0 - (1.0 - value), 0.5)

    def test_guarded_divisor_has_no_zero_check(self):
        # y1 / (1 + y2): a zero check at each of the four stages, or none
        # where a guard has tested the divisor; the same bits where it passes
        y1, y2 = Var("y1"), Var("y2")
        divisor = BinOp("+", Num(1.0), y2)
        outputs, rates = [y2, y1], [BinOp("/", y1, divisor), y1]
        plain = codegen.compile_rk4(outputs, ["y1", "y2"], record=False, rates=rates)
        guarded = codegen.compile_rk4(outputs, ["y1", "y2"], record=False, rates=rates,
                                      guards=[(divisor, guard_failed)])
        assert compare_ops(plain).count("==") == 4 and "==" not in compare_ops(guarded)
        ts, hs = [0.0, 0.1, 0.2], [0.1, 0.1]
        assert guarded(pack([1.0, 0.5]), ts, hs, [range(2)]) == \
            plain(pack([1.0, 0.5]), ts, hs, [range(2)])
        with pytest.raises(GuardFailed) as failed:
            guarded(pack([1.0, -1.0]), ts, hs, [range(2)])
        assert failed.value.args == (0.0, 0.0)

    @pytest.mark.parametrize("record", [True, False])
    def test_output_error_comes_before_a_guard(self, record):
        # log(y1 - 2) at y1 = 1 fails in the outputs, before the failing guard
        loop = codegen.compile_rk4([Call("log", BinOp("-", Var("y1"), Num(2.0)))], ["y1"],
                                   record=record, guards=[(Num(-1.0), guard_failed)])
        with pytest.raises(DomainError, match=re.escape("log of non-positive value -1.0")):
            loop(pack([1.0]), [0.5, 0.75], [0.25], *[] if record else [[range(1)]])

    def test_classical_loops_keep_their_source(self, monkeypatch):
        sources = []
        define = codegen._define

        def capture(source, name, namespace):
            sources.append("\n".join(source))
            return define(source, name, namespace)

        monkeypatch.setattr(codegen, "_define", capture)
        # every loop compiled here, none taken from the memos
        monkeypatch.setattr(classical, "_rk4_loop", classical._rk4_loop.__wrapped__)
        monkeypatch.setattr(hj, "_leaf_loop", hj._leaf_loop.__wrapped__)
        loops = shipped_loops()
        assert len(sources) == len(loops)
        text = "\n".join(source for (label, _), source in zip(loops, sources)
                         if EXAMPLE_CONFIGS[label.split(":")[0]]["formalism"] == "classical")
        assert hashlib.sha256(text.encode()).hexdigest() == CLASSICAL_LOOP_SOURCES
