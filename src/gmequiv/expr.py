"""Tiny expression language for kernel factors.

Kernel factors u and v are written as closed-form expressions in the single
time variable ``t``, e.g. ``"exp(2*t) - 1"`` or ``"t*(1 - t)"``. The grammar:

    expr   := term  (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          right-associative
    atom   := NUMBER | 't' | NAME '(' expr ')' | '(' expr ')'

Binding strength is ``^`` above unary minus above ``*``/``/`` above
``+``/``-``, so ``-t^2`` means ``-(t^2)``. Known functions: exp, sin, cos,
sqrt, log. Numbers are ordinary decimal literals with an optional exponent
part; whitespace between tokens is skipped.

The text is read once, left to right, with no token list built ahead: a
syntax error reports the offset of the first fault, with a caret under it,
and nothing after that fault is read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvaluationError, ExpressionSyntaxError, UnknownIdentifier

FUNCTIONS = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "log": np.log,
}

VARIABLE = "t"


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Union[Num, Var, Neg, BinOp, Call]


# ---------------------------------------------------------------------------
# parser

# A number is decimal digits and points, with an optional exponent, read by
# float; a name is a letter or '_', then word characters.
_NUMBER = re.compile(r"[\d.]+(?:[eE][-+]?\d+)?")
_NAME = re.compile(r"[^\W\d]\w*")


class _Parser:
    """Recursive descent over the source string itself, read once, left to
    right: each rule takes its tokens at the current offset, so a syntax
    error is raised at the first fault, with nothing read beyond it."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0

    def peek(self) -> str:
        """The next character that is not whitespace, '' at the end; the
        offset moves past the whitespace."""
        while self.pos < len(self.source) and self.source[self.pos].isspace():
            self.pos += 1
        return self.source[self.pos:self.pos + 1]

    def accept(self, ops: str) -> str | None:
        """Consume the next character and return it when it is an operator
        in ops; otherwise consume nothing and return None."""
        c = self.peek()
        if c and c in ops:
            self.pos += 1
            return c
        return None

    def fail(self, expected: str) -> ExpressionSyntaxError:
        return ExpressionSyntaxError(self.source, self.pos, expected)

    def parse(self) -> Node:
        node = self.expr()
        if self.peek():
            raise self.fail("an operator or end of input")
        return node

    def expr(self) -> Node:
        node = self.term()
        while op := self.accept("+-"):
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while op := self.accept("*/"):
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        return Neg(self.unary()) if self.accept("-") else self.power()

    def power(self) -> Node:
        base = self.atom()
        return BinOp("^", base, self.unary()) if self.accept("^") else base

    def group(self) -> Node:
        """An expression and its closing ')', the opening one consumed."""
        node = self.expr()
        if not self.accept(")"):
            raise self.fail("')'")
        return node

    def atom(self) -> Node:
        if self.accept("("):
            return self.group()
        if number := _NUMBER.match(self.source, self.pos):
            try:
                value = float(number[0])
            except ValueError:
                raise self.fail("a numeric literal") from None
            self.pos = number.end()
            return Num(value)
        name = _NAME.match(self.source, self.pos)
        if name is None:
            raise self.fail("a number, 't', a function call, or '('")
        self.pos = name.end()
        if name[0] == VARIABLE:
            return Var()
        if name[0] not in FUNCTIONS or not self.accept("("):
            raise UnknownIdentifier(name[0], name.start())
        return Call(name[0], self.group())


# ---------------------------------------------------------------------------
# evaluation


BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


def _evaluate(node: Node, t: np.ndarray):
    """The value of node at t: a float where node holds no t, else an array
    broadcast from t (t itself for a bare Var)."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return t
    if isinstance(node, Neg):
        return np.negative(_evaluate(node.operand, t))
    if isinstance(node, Call):
        return FUNCTIONS[node.fn](_evaluate(node.arg, t))
    return BINARY[node.op](_evaluate(node.left, t), _evaluate(node.right, t))


@dataclass(frozen=True)
class KernelExpression:
    """A parsed expression in the single variable t, evaluable on arrays.

    The value at an array is read-only, in the shape of t: a constant
    expression is one float broadcast to that shape, and the expression
    't' is a view of t itself. A constant exponent 2, 0.5 or -1 is taken
    as numpy takes one: x*x, sqrt(x) and 1/x, each correctly rounded.
    """

    root: Node
    source: str

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        with np.errstate(all="ignore"):
            out = np.broadcast_to(_evaluate(self.root, arr), arr.shape)
        bad = ~np.isfinite(out)
        if np.any(bad):
            where = float(arr.flat[np.argmax(bad)])
            raise EvaluationError(
                f"expression {self.source!r} is not finite at t={where!r}"
            )
        return float(out) if arr.ndim == 0 else out


def parse_kernel_expression(source: str) -> KernelExpression:
    """Parse expression text into a KernelExpression, reading it once, left
    to right.

    Raises ExpressionSyntaxError (with the offset of the first fault and
    what was expected there, shown with a caret) on malformed input, and
    UnknownIdentifier (with the name's offset) for names outside {t, exp,
    sin, cos, sqrt, log}.
    """
    return KernelExpression(_Parser(source).parse(), source)
