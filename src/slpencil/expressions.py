"""Parser and evaluator for coefficient expressions in x.

Grammar (whitespace ignored, no implicit multiplication)::

    expr    := term (('+'|'-') term)*
    term    := unary (('*'|'/') unary)*
    unary   := '-' unary | power
    power   := primary ('^' unary)?
    primary := number | name | name '(' expr ')' | '(' expr ')'

Python's own parser reads the text, with '^' written '**'; a walk over its
tree then accepts only the nodes of this grammar.  All literals are complex;
log and sqrt take principal branches.  The module only parses and evaluates:
a coefficient's derivative, where a reduction needs one, is taken spectrally
from its samples (`grids.derivative`).
"""

from __future__ import annotations

import ast
import operator
import re
import warnings

import numpy as np

from .errors import ExpressionError
from .grids import Grid, NodeValueError, SampledFunction

# evaluate recurses once per level, so this keeps it inside the interpreter's
# recursion limit of 1000
_MAX_DEPTH = 500

_BAD_CHAR_RE = re.compile(r"[^0-9A-Za-z_.+\-*/^() ]")
_NUMBER_RE = re.compile(r"\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")

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

_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: np.power}


def parse(src: str) -> ast.expr:
    """Parse an expression in the variable x; raises ExpressionError with position."""
    text = re.sub(r"\s", " ", src).replace("−", "-")
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        raise ExpressionError(f"unexpected character {src[bad.start()]!r}", bad.start())
    if "**" in text:
        raise ExpressionError("powers are written '^', not '**'", text.index("**"))
    body = text.strip()
    lead = len(text) - len(text.lstrip())
    # origin[k] is the offset in src of character k of the parsed text
    origin = [lead + i for i, c in enumerate(body) for _ in range(1 + (c == "^"))]
    origin.append(lead + len(body))
    code = body.replace("^", "**")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the newline makes errors at the end point at the end
            tree = ast.parse(code + "\n", mode="eval").body
    except SyntaxError as err:
        at = min(max((err.offset or 1) - 1, 0), len(code))
        raise ExpressionError(err.msg, origin[at]) from None
    except RecursionError:
        raise ExpressionError("expression too deeply nested", origin[0]) from None
    _check(tree, code, origin, 1)
    return tree


def _check(node: ast.expr, code: str, origin: list[int], depth: int):
    """Accept only the grammar's nodes; store each number's complex value."""
    at, text = origin[node.col_offset], code[node.col_offset:node.end_col_offset]
    if depth > _MAX_DEPTH:
        raise ExpressionError("expression too deeply nested", at)
    children = ()
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        children = (node.left, node.right)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        children = (node.operand,)
    elif isinstance(node, ast.Call):
        name = code[node.func.col_offset:node.func.end_col_offset]
        if name not in _FUNCTIONS:
            raise ExpressionError(f"unknown function {name!r}", at)
        if len(node.args) != 1 or node.keywords:
            raise ExpressionError(f"{name} takes one argument", at)
        children = node.args
    elif isinstance(node, ast.Name):
        if node.id != "x" and node.id not in _CONSTANTS:
            raise ExpressionError(f"unknown name {node.id!r}", at)
    elif isinstance(node, ast.Constant) and _NUMBER_RE.fullmatch(text):
        node.value = complex(float(text))
    else:
        raise ExpressionError(f"unexpected {text!r}", at)
    for child in children:
        _check(child, code, origin, depth + 1)


def evaluate(tree: ast.expr, x: np.ndarray | complex):
    """Evaluate on complex inputs; numpy broadcasting applies."""
    if isinstance(tree, ast.Constant):
        return tree.value
    if isinstance(tree, ast.Name):
        return x if tree.id == "x" else _CONSTANTS[tree.id]
    if isinstance(tree, ast.UnaryOp):
        return -evaluate(tree.operand, x)
    if isinstance(tree, ast.Call):
        return _FUNCTIONS[tree.func.id](evaluate(tree.args[0], x))
    return _BINARY[type(tree.op)](evaluate(tree.left, x), evaluate(tree.right, x))


def evaluate_on_grid(expr: ast.expr, grid: Grid) -> SampledFunction:
    """Tabulate the expression on the grid; non-finite results name the node."""
    with np.errstate(all="ignore"):
        try:
            vals = np.broadcast_to(
                np.asarray(evaluate(expr, grid.nodes.astype(np.complex128))),
                (grid.n_nodes,)
            ).astype(np.complex128)
        except ZeroDivisionError:  # a constant subexpression divides by zero
            vals = np.full(grid.n_nodes, np.nan, dtype=np.complex128)
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise NodeValueError(
            f"expression is not finite at x = {float(grid.nodes[i])}", i
        )
    return SampledFunction(grid, vals)

