"""Recursive-descent parser and evaluator for coefficient expressions in x.

Grammar (whitespace ignored, no implicit multiplication)::

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := unary ('^' factor)?
    unary   := '-' unary | primary
    primary := number | name | name '(' expr ')' | '(' expr ')'

All literals are complex; log and sqrt take principal branches.  The symbolic
derivative refuses abs/conj/re/im, which are not holomorphic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ExpressionError, NonHolomorphicError
from .grids import Grid, NodeValueError, SampledFunction

_MAX_DEPTH = 200

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]|−))"
)

_CONSTANTS = {"pi": complex(np.pi), "e": complex(np.e), "i": 1j}

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "sech": lambda z: 1.0 / np.cosh(z),
    "abs": np.abs,
    "conj": np.conj,
    "re": np.real,
    "im": np.imag,
}


# ---------------------------------------------------------------------------
# syntax tree


@dataclass(frozen=True)
class Literal:
    value: complex

    def __str__(self):
        v = self.value
        if v.imag == 0:
            return repr(v.real)
        return f"({v.real!r}+{v.imag!r}*i)" if v.real else f"({v.imag!r}*i)"


@dataclass(frozen=True)
class Variable:
    def __str__(self):
        return "x"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"

    def __str__(self):
        return f"(-{self.arg})"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"

    def __str__(self):
        return f"({self.left}{self.op}{self.right})"


@dataclass(frozen=True)
class Call:
    name: str
    arg: "Expr"

    def __str__(self):
        return f"{self.name}({self.arg})"


Expr = Literal | Variable | Neg | BinOp | Call


# ---------------------------------------------------------------------------
# tokenizer / parser


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            rest = src[pos:].lstrip()
            if not rest:
                break
            at = len(src) - len(rest)
            raise ExpressionError(f"unexpected character {rest[0]!r}", at)
        if m.lastgroup == "op":
            text = "-" if m.group("op") == "−" else m.group("op")
            tokens.append(("op", text, m.start("op")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("number", m.group("number"), m.start("number")))
        pos = m.end()
    tokens.append(("eof", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str):
        kind, val, at = self.take()
        if kind != "op" or val != text:
            raise ExpressionError(f"expected {text!r}, found {val or 'end of input'!r}", at)

    def _enter(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExpressionError("expression too deeply nested", self.peek()[2])

    def parse(self) -> Expr:
        node = self.expr()
        kind, val, at = self.peek()
        if kind != "eof":
            raise ExpressionError(f"unexpected token {val!r}", at)
        return node

    def expr(self) -> Expr:
        self._enter()
        try:
            node = self.term()
            while self.peek()[:2] in (("op", "+"), ("op", "-")):
                op = self.take()[1]
                node = BinOp(op, node, self.term())
            return node
        finally:
            self.depth -= 1

    def term(self) -> Expr:
        node = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        node = self.unary()
        if self.peek()[:2] == ("op", "^"):
            self.take()
            node = BinOp("^", node, self.factor())
        return node

    def unary(self) -> Expr:
        self._enter()
        try:
            if self.peek()[:2] == ("op", "-"):
                self.take()
                return Neg(self.unary())
            return self.primary()
        finally:
            self.depth -= 1

    def primary(self) -> Expr:
        kind, val, at = self.take()
        if kind == "number":
            return Literal(complex(float(val)))
        if kind == "name":
            if self.peek()[:2] == ("op", "("):
                if val not in _FUNCTIONS:
                    raise ExpressionError(f"unknown function {val!r}", at)
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            if val == "x":
                return Variable()
            if val in _CONSTANTS:
                return Literal(_CONSTANTS[val])
            raise ExpressionError(f"unknown name {val!r}", at)
        if (kind, val) == ("op", "("):
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected token {val or 'end of input'!r}", at)


def parse(src: str) -> Expr:
    """Parse an expression in the variable x; raises ExpressionError with position."""
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# evaluation


def evaluate(expr: Expr, x: np.ndarray | complex):
    """Evaluate on complex inputs; numpy broadcasting applies."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Variable):
        return x
    if isinstance(expr, Neg):
        return -evaluate(expr.arg, x)
    if isinstance(expr, Call):
        return _FUNCTIONS[expr.name](evaluate(expr.arg, x))
    if isinstance(expr, BinOp):
        a = evaluate(expr.left, x)
        b = evaluate(expr.right, x)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            return a / b
        return np.power(a, b)
    raise TypeError(f"not an expression node: {expr!r}")


def evaluate_on_grid(expr: Expr, grid: Grid) -> SampledFunction:
    """Tabulate the expression on the grid; non-finite results name the node."""
    with np.errstate(all="ignore"):
        vals = np.broadcast_to(
            np.asarray(evaluate(expr, grid.nodes.astype(np.complex128))), (grid.n_nodes,)
        ).astype(np.complex128)
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise NodeValueError(
            f"expression is not finite at x = {grid.nodes[i]!r}", i
        )
    return SampledFunction(grid, vals)


# ---------------------------------------------------------------------------
# symbolic differentiation


def _lit(v: complex) -> Literal:
    return Literal(complex(v))


def _is_lit(e: Expr, v: complex | None = None) -> bool:
    return isinstance(e, Literal) and (v is None or e.value == v)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_lit(a) and _is_lit(b):
        return _lit(a.value + b.value)
    if _is_lit(a, 0):
        return b
    if _is_lit(b, 0):
        return a
    return BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_lit(a) and _is_lit(b):
        return _lit(a.value - b.value)
    if _is_lit(b, 0):
        return a
    if _is_lit(a, 0):
        return Neg(b)
    return BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_lit(a) and _is_lit(b):
        return _lit(a.value * b.value)
    if _is_lit(a, 0) or _is_lit(b, 0):
        return _lit(0)
    if _is_lit(a, 1):
        return b
    if _is_lit(b, 1):
        return a
    return BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_lit(a, 0):
        return _lit(0)
    if _is_lit(b, 1):
        return a
    return BinOp("/", a, b)


def _chain(outer: Expr, inner_diff: Expr) -> Expr:
    return _mul(outer, inner_diff)


_DERIVATIVES = {
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: Neg(Call("sin", u)),
    "tan": lambda u: _div(_lit(1), BinOp("^", Call("cos", u), _lit(2))),
    "exp": lambda u: Call("exp", u),
    "log": lambda u: _div(_lit(1), u),
    "sqrt": lambda u: _div(_lit(1), _mul(_lit(2), Call("sqrt", u))),
    "sinh": lambda u: Call("cosh", u),
    "cosh": lambda u: Call("sinh", u),
    "tanh": lambda u: BinOp("^", Call("sech", u), _lit(2)),
    "sech": lambda u: Neg(_mul(Call("sech", u), Call("tanh", u))),
}


def differentiate(expr: Expr) -> Expr:
    """Structural derivative with literal-arithmetic folding only."""
    if isinstance(expr, Literal):
        return _lit(0)
    if isinstance(expr, Variable):
        return _lit(1)
    if isinstance(expr, Neg):
        d = differentiate(expr.arg)
        return _lit(0) if _is_lit(d, 0) else Neg(d)
    if isinstance(expr, Call):
        if expr.name not in _DERIVATIVES:
            raise NonHolomorphicError(
                f"{expr.name} is not holomorphic; cannot differentiate"
            )
        return _chain(_DERIVATIVES[expr.name](expr.arg), differentiate(expr.arg))
    if isinstance(expr, BinOp):
        a, b = expr.left, expr.right
        da, db = (differentiate(a), differentiate(b)) if expr.op != "^" else (None, None)
        if expr.op == "+":
            return _add(da, db)
        if expr.op == "-":
            return _sub(da, db)
        if expr.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if expr.op == "/":
            return _div(_sub(_mul(da, b), _mul(a, db)), BinOp("^", b, _lit(2)))
        # power rule: d(a^b) = a^b * (b' log a + b a'/a); constant exponent folds
        da = differentiate(a)
        db = differentiate(b)
        if _is_lit(db, 0):
            if _is_lit(b):
                return _mul(_mul(b, BinOp("^", a, _lit(b.value - 1))), da)
            return _mul(_mul(b, BinOp("^", a, BinOp("-", b, _lit(1)))), da)
        return _mul(
            BinOp("^", a, b),
            _add(_mul(db, Call("log", a)), _mul(b, _div(da, a))),
        )
    raise TypeError(f"not an expression node: {expr!r}")
