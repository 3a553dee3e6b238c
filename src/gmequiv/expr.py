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
part.
"""

from __future__ import annotations

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
# lexer


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    offset: int


def _lex(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ExpressionSyntaxError(source, i, "a numeric literal") from None
            tokens.append(_Token("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(_Token("name", source[i:j], i))
            i = j
            continue
        raise ExpressionSyntaxError(source, i, "a number, name, or operator")
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _lex(source)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def accept(self, ops: str) -> str | None:
        """Consume the next token and return its text when it is an
        operator in ops; otherwise consume nothing and return None."""
        tok = self.peek()
        if tok.kind == "op" and tok.text in ops:
            self.pos += 1
            return tok.text
        return None

    def fail(self, expected: str) -> ExpressionSyntaxError:
        return ExpressionSyntaxError(self.source, self.peek().offset, expected)

    def parse(self) -> Node:
        node = self.expr()
        if self.peek().kind != "end":
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
        tok = self.peek()
        if self.accept("("):
            return self.group()
        if tok.kind not in ("num", "name"):
            raise self.fail("a number, 't', a function call, or '('")
        self.pos += 1
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.text == VARIABLE:
            return Var()
        if tok.text not in FUNCTIONS or not self.accept("("):
            raise UnknownIdentifier(tok.text, tok.offset)
        return Call(tok.text, self.group())


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
    """Parse expression text into a KernelExpression.

    Raises ExpressionSyntaxError (with offset and expectation) on malformed
    input and UnknownIdentifier for names outside {t, exp, sin, cos, sqrt,
    log}.
    """
    return KernelExpression(_Parser(source).parse(), source)
