"""Tests for the kernel-factor expression language."""

import math
import re

import numpy as np
import pytest

from gmequiv.errors import EvaluationError, ExpressionSyntaxError, UnknownIdentifier
from gmequiv.expr import (
    FUNCTIONS,
    VARIABLE,
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    parse_kernel_expression,
)

# A minimal-parenthesis printer: the oracle of the round-trip tests, which
# check that the parser reads back exactly the tree that was printed.
_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POWER, _PREC_ATOM = 0, 1, 2, 3, 4


def _precedence(node) -> int:
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _PREC_ADD
        if node.op in "*/":
            return _PREC_MUL
        return _PREC_POWER
    if isinstance(node, Neg):
        return _PREC_UNARY
    return _PREC_ATOM


def _render(node, minimum: int = _PREC_ADD) -> str:
    if isinstance(node, Num):
        text = repr(node.value)
    elif isinstance(node, Var):
        text = VARIABLE
    elif isinstance(node, Neg):
        text = "-" + _render(node.operand, _PREC_UNARY)
    elif isinstance(node, Call):
        text = f"{node.fn}({_render(node.arg)})"
    elif node.op in "+-":
        text = f"{_render(node.left)} {node.op} {_render(node.right, _PREC_MUL)}"
    elif node.op in "*/":
        text = f"{_render(node.left, _PREC_MUL)}{node.op}{_render(node.right, _PREC_UNARY)}"
    else:
        text = f"{_render(node.left, _PREC_ATOM)}^{_render(node.right, _PREC_UNARY)}"
    return f"({text})" if _precedence(node) < minimum else text


def _pretty(source: str) -> str:
    return _render(parse_kernel_expression(source).root)


class TestEvaluation:
    def test_polynomial(self):
        fn = parse_kernel_expression("t*(1 - t)")
        ts = np.linspace(0.0, 1.0, 17)
        np.testing.assert_allclose(fn(ts), ts * (1 - ts), rtol=0, atol=0)

    def test_known_functions(self):
        fn = parse_kernel_expression("exp(2*t) - 1")
        ts = np.linspace(0.0, 1.0, 9)
        np.testing.assert_allclose(fn(ts), np.exp(2 * ts) - 1, rtol=1e-15)

    def test_scientific_literals(self):
        assert parse_kernel_expression("1e-3")(0.0) == 1e-3
        assert parse_kernel_expression("2.5E+2")(0.0) == 250.0

    def test_scalar_in_float_out(self):
        fn = parse_kernel_expression("sqrt(t)")
        out = fn(0.25)
        assert isinstance(out, float)
        assert out == 0.5

    def test_array_in_array_out(self):
        fn = parse_kernel_expression("cos(t)")
        out = fn(np.zeros(5))
        assert isinstance(out, np.ndarray)
        assert out.shape == (5,)

    def test_values_are_read_only_in_the_input_shape(self):
        """A constant is one float broadcast to the input's shape, and 't'
        is a view of the input, not a copy; every value is read-only."""
        ts = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        for source, expected in (("2", np.full((3, 4), 2.0)), ("t", ts), ("2 - t", 2.0 - ts)):
            out = parse_kernel_expression(source)(ts)
            assert out.shape == (3, 4) and not out.flags.writeable, source
            np.testing.assert_array_equal(out, expected)
        assert np.shares_memory(parse_kernel_expression("t")(ts), ts)
        assert parse_kernel_expression("2")(0.5) == 2.0


class TestPrecedence:
    """Binding strength: ^ above unary minus above * and / above + and -."""

    def test_unary_minus_binds_below_power(self):
        assert parse_kernel_expression("-t^2")(3.0) == -9.0

    def test_power_right_associative(self):
        assert parse_kernel_expression("2^3^2")(0.0) == 512.0

    def test_division_left_associative(self):
        assert parse_kernel_expression("8/4/2")(0.0) == 1.0

    def test_subtraction_left_associative(self):
        assert parse_kernel_expression("1 - 2 - 3")(0.0) == -4.0

    def test_negative_exponent(self):
        assert parse_kernel_expression("2^-1")(0.0) == 0.5

    def test_double_negation(self):
        assert parse_kernel_expression("1 - -t")(2.0) == 3.0


class TestPrinting:
    def test_minimal_parens_kept_for_grouping(self):
        assert _pretty("t*(1-t)") == "t*(1.0 - t)"

    def test_no_parens_when_precedence_suffices(self):
        assert _pretty("(t*t)+1") == "t*t + 1.0"

    def test_negated_power_prints_without_parens(self):
        # -t^2 means -(t^2); the printer must not add parens that would
        # change the reading
        tree = Neg(BinOp("^", Var(), Num(2.0)))
        fn = parse_kernel_expression("-t^2.0")
        assert fn.root == tree
        assert _render(fn.root) == "-t^2.0"

    def test_power_of_negation_keeps_parens(self):
        fn = parse_kernel_expression("(-t)^2.0")
        assert _render(fn.root) == "(-t)^2.0"
        assert fn(3.0) == 9.0


def _random_tree(gen: np.random.Generator, depth: int):
    """Random AST inside the parser's image: Num values are nonnegative
    (the parser always produces Neg(Num), never a negative literal)."""
    if depth == 0 or gen.random() < 0.25:
        if gen.random() < 0.4:
            return Var()
        return Num(float(np.round(gen.uniform(0.0, 10.0), 3)))
    pick = int(gen.integers(0, 7))
    if pick == 0:
        return Neg(_random_tree(gen, depth - 1))
    if pick == 1:
        name = str(gen.choice(sorted(FUNCTIONS)))
        return Call(name, _random_tree(gen, depth - 1))
    op = "+-*/^"[int(gen.integers(0, 5))]
    return BinOp(op, _random_tree(gen, depth - 1), _random_tree(gen, depth - 1))


class TestRoundTrip:
    """The printed text re-parses to the identical tree."""

    def test_fixed_cases(self):
        for source in (
            "t", "1.5", "-t", "t + 1", "t - (1 - t)", "t*(2 - t)/(1 + t)",
            "exp(2*t) - exp(-2*t)", "sqrt(t^3)", "-(t + 1)", "t^t^t",
            "(t + 1)*(t + 2)", "1/(1 - t)", "cos(sin(t))",
        ):
            fn = parse_kernel_expression(source)
            again = parse_kernel_expression(_render(fn.root))
            assert again.root == fn.root, source

    def test_random_trees(self):
        gen = np.random.default_rng(0)
        for _ in range(300):
            tree = _random_tree(gen, 4)
            text = _render(tree)
            assert parse_kernel_expression(text).root == tree, text


class TestErrors:
    def test_dangling_operator_offset(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_kernel_expression("1 + * 2")
        assert exc.value.offset == 4

    def test_unbalanced_paren(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_kernel_expression("(1 + 2")
        assert exc.value.expected == "')'"
        assert exc.value.offset == 6

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_kernel_expression("t q")
        assert exc.value.offset == 2

    def test_empty_input(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_kernel_expression("")
        assert exc.value.offset == 0

    def test_malformed_number(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_kernel_expression("1.2.3")
        assert exc.value.offset == 0
        assert "numeric" in exc.value.expected

    def test_double_star_is_not_power(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_kernel_expression("2 ** 3")

    def test_caret_diagnostic_in_message(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_kernel_expression("1 + * 2")
        message = str(exc.value)
        assert "1 + * 2" in message
        assert "^" in message

    def test_caret_keeps_the_tabs_before_the_fault(self):
        """The caret's prefix copies the line's tabs, so a terminal of any
        tab width draws it under the '$'."""
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_kernel_expression("1 +\t$")
        assert str(exc.value).endswith("\n  1 +\t$\n     \t^")
        for width in (4, 8):
            source, caret = str(exc.value).split("\n")[1:]
            assert caret.expandtabs(width).index("^") == source.expandtabs(width).index("$")

    def test_caret_sits_under_the_line_that_holds_the_fault(self):
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse_kernel_expression("t\n+ $")
        assert exc.value.offset == 4
        assert str(exc.value).split("\n")[1:] == ["  + $", "    ^"]

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifier) as exc:
            parse_kernel_expression("foo(t)")
        assert exc.value.name == "foo"
        assert exc.value.offset == 0

    def test_bare_name(self):
        with pytest.raises(UnknownIdentifier) as exc:
            parse_kernel_expression("x + 1")
        assert exc.value.name == "x"

    def test_function_without_call_parens(self):
        with pytest.raises(UnknownIdentifier):
            parse_kernel_expression("exp 2")


class TestFirstFault:
    """The text is read once, left to right: of two faults, the first is
    reported, and nothing after it is read."""

    @pytest.mark.parametrize("source, error, offset, expected", [
        ("t t 1.2.3", ExpressionSyntaxError, 2, "an operator or end of input"),
        ("foo(1.2.3)", UnknownIdentifier, 0, None),
        ("1 + * 2 $", ExpressionSyntaxError, 4, "a number, 't', a function call, or '('"),
        ("-^.e.", ExpressionSyntaxError, 1, "a number, 't', a function call, or '('"),
    ])
    def test_two_faults_report_the_first(self, source, error, offset, expected):
        with pytest.raises(error) as exc:
            parse_kernel_expression(source)
        assert type(exc.value) is error and exc.value.offset == offset
        assert getattr(exc.value, "expected", None) == expected

    def test_an_inserted_character_is_refused_where_it_stands(self):
        """'$' inserted at p into a printed tree is refused at p, or at the
        start of the name that p falls inside or ends at."""
        gen = np.random.default_rng(1)
        for _ in range(300):
            text = _render(_random_tree(gen, 4))
            p = int(gen.integers(0, len(text) + 1))
            allowed = {p} | {m.start() for m in re.finditer(r"[A-Za-z_]\w*", text)
                             if m.start() < p <= m.end()}
            with pytest.raises((ExpressionSyntaxError, UnknownIdentifier)) as exc:
                parse_kernel_expression(text[:p] + "$" + text[p:])
            assert exc.value.offset in allowed, (text, p)


class TestDomainErrors:
    """Leaving the real domain raises EvaluationError naming the point."""

    def test_log_at_zero(self):
        fn = parse_kernel_expression("log(t)")
        with pytest.raises(EvaluationError, match="t=0.0"):
            fn(0.0)

    def test_division_by_zero(self):
        fn = parse_kernel_expression("1/t")
        with pytest.raises(EvaluationError):
            fn(np.array([0.5, 0.0]))

    def test_names_the_point_of_a_node_array(self):
        """Quadrature passes a (panels, 16) node array."""
        fn = parse_kernel_expression("1/(t - 0.5)")
        with pytest.raises(EvaluationError, match="t=0.5"):
            fn(np.array([[0.25, 0.75], [0.5, 0.125]]))

    def test_sqrt_of_negative(self):
        fn = parse_kernel_expression("sqrt(t - 1)")
        with pytest.raises(EvaluationError):
            fn(0.5)

    def test_overflow(self):
        fn = parse_kernel_expression("exp(t)^t")
        with pytest.raises(EvaluationError):
            fn(1e6)

    def test_fine_inside_domain(self):
        fn = parse_kernel_expression("log(t)")
        assert math.isclose(fn(math.e), 1.0, rel_tol=1e-15)
