"""Coefficient expressions over grid coordinates.

A small arithmetic language used wherever an operator or boundary condition
needs a variable coefficient.  Expressions are parsed once into an immutable
AST and can be evaluated at a single point or over numpy coordinate arrays.

Grammar (precedence lowest to highest):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | 'x'K | NAME '(' expr ')' | '(' expr ')'

Variables are ``x1``, ``x2``, ... (1-based).  Functions: exp, ln, sin, cos,
sqrt, abs.  A token is an operator, a decimal number or a name that starts
with a letter or ``_``; whitespace between tokens is insignificant, and any
other character is a syntax error.  There is no implicit multiplication:
``2x1`` is a syntax error.  Numeric literals must be finite (``1e999`` is a
syntax error), and so is an expression nested more than 100 levels deep.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import partial
from typing import Sequence, Union

import numpy as np

__all__ = [
    "CoeffExpr",
    "Num",
    "Var",
    "Neg",
    "Call",
    "BinOp",
    "ExprError",
    "ExprSyntaxError",
    "ExprEvalError",
    "parse",
    "evaluate",
    "evaluate_arrays",
    "evaluate_nodes",
    "to_string",
]

# Each function's scalar form, which raises on a domain error, and its array
# form, which gives nan or inf there instead.
FUNCTIONS = {
    "exp": (math.exp, np.exp),
    "ln": (math.log, np.log),
    "sin": (math.sin, np.sin),
    "cos": (math.cos, np.cos),
    "sqrt": (math.sqrt, np.sqrt),
    "abs": (abs, np.abs),
}

# Each binary operator's scalar form, the name a non-finite scalar result is
# reported under, and its array form.  Division by zero and a negative base
# with a non-integer exponent are refused before the scalar form is called.
OPERATORS = {
    "+": (operator.add, "addition", np.add),
    "-": (operator.sub, "subtraction", np.subtract),
    "*": (operator.mul, "multiplication", np.multiply),
    "/": (operator.truediv, "division", np.divide),
    "^": (math.pow, "power", np.power),
}


class ExprError(ValueError):
    """Base class for expression errors."""


class ExprSyntaxError(ExprError):
    """Malformed expression text; ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprEvalError(ExprError):
    """Evaluation hit a domain error or produced a non-finite value.

    ``reason`` is the message without the ``at point (...)`` suffix.
    """

    def __init__(self, message: str, point: Sequence[float] | None = None):
        self.reason = message
        self.point = tuple(float(v) for v in point) if point is not None else None
        if self.point is not None:
            message = f"{message} at point {self.point}"
        super().__init__(message)


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based coordinate index


@dataclass(frozen=True)
class Neg:
    operand: "CoeffExpr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "CoeffExpr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "CoeffExpr"
    right: "CoeffExpr"


CoeffExpr = Union[Num, Var, Neg, Call, BinOp]

# Deepest syntax tree, and deepest nesting of brackets, calls, signs and
# exponents, that parse accepts.  The parser recurses up to five frames per
# level and the evaluators and the printer one per level of the tree, so this
# keeps them well inside Python's default recursion limit of 1000 frames.
_MAX_DEPTH = 100

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_VAR_RE = re.compile(r"x(\d+)\Z")
# A token is an operator, a number, or any other character with the word
# characters after it, which is an identifier if it starts with a letter or "_".
# re's \s is str.isspace and its \w is str.isalnum plus "_", so finditer skips
# whitespace alone; \w also takes digits such as "²" that \d, and so a number, does not.
_TOKEN_RE = re.compile(rf"(?P<op>[-+*/^()])|(?P<number>{_NUMBER_RE.pattern})|(?P<ident>\S\w*)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    for m in _TOKEN_RE.finditer(text):
        kind, value, offset = m.lastgroup, m.group(), m.start()
        if kind == "ident" and not (value[0].isalpha() or value[0] == "_"):
            raise ExprSyntaxError(f"unexpected character {value[0]!r}", offset)
        tokens.append((value if kind == "op" else kind, value, offset))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent; each production returns ``(tree, height of the tree)``."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> None:
        raise ExprSyntaxError(message, self.peek()[2])

    def checked(self, e: CoeffExpr, height: int, offset: int) -> tuple[CoeffExpr, int]:
        if height > _MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {_MAX_DEPTH} levels", offset)
        return e, height

    def parse(self) -> CoeffExpr:
        e, _ = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {value!r}", offset)
        return e

    def expr(self, ops: str = "+-") -> tuple[CoeffExpr, int]:
        """A left-associative chain of ``ops``: terms joined by ``+ -``, or unaries by ``* /``."""
        operand = partial(self.expr, "*/") if ops == "+-" else self.unary
        left, height = operand()
        while self.peek()[0] in ops:
            op, _, offset = self.advance()
            right, right_height = operand()
            left, height = self.checked(
                BinOp(op, left, right), 1 + max(height, right_height), offset
            )
        return left, height

    def unary(self) -> tuple[CoeffExpr, int]:
        # Every recursive production passes through here, so this bounds the
        # parser's own recursion, which brackets grow without deepening the tree.
        self.nesting += 1
        if self.nesting > _MAX_DEPTH:
            self.fail(f"expression nested deeper than {_MAX_DEPTH} levels")
        offset = self.peek()[2]
        if self.peek()[0] == "-":
            self.advance()
            operand, height = self.unary()
            result = self.checked(Neg(operand), height + 1, offset)
        else:
            result = self.power()
        self.nesting -= 1
        return result

    def power(self) -> tuple[CoeffExpr, int]:
        base, height = self.atom()
        if self.peek()[0] == "^":
            offset = self.advance()[2]
            exponent, exponent_height = self.unary()
            return self.checked(
                BinOp("^", base, exponent), 1 + max(height, exponent_height), offset
            )
        return base, height

    def atom(self) -> tuple[CoeffExpr, int]:
        kind, value, offset = self.advance()
        if kind == "number":
            number = float(value)
            if not math.isfinite(number):
                raise ExprSyntaxError(f"numeric literal {value!r} is not finite", offset)
            return Num(number), 1
        if kind == "(":
            e = self.expr()
            if self.peek()[0] != ")":
                self.fail("expected ')'")
            self.advance()
            return e
        if kind == "ident":
            m = _VAR_RE.match(value)
            if m is not None:
                index = int(m.group(1))
                if index < 1:
                    raise ExprSyntaxError(f"invalid variable index in {value!r}", offset)
                return Var(index), 1
            if value in FUNCTIONS:
                if self.peek()[0] != "(":
                    self.fail(f"expected '(' after {value!r}")
                self.advance()
                arg, height = self.expr()
                if self.peek()[0] != ")":
                    self.fail("expected ')'")
                self.advance()
                return self.checked(Call(value, arg), height + 1, offset)
            raise ExprSyntaxError(f"unknown identifier {value!r}", offset)
        raise ExprSyntaxError(f"unexpected {value!r}" if value else "unexpected end of input", offset)


def parse(text: str) -> CoeffExpr:
    """Parse expression text into an AST.  Raises ExprSyntaxError with a byte offset."""
    return _Parser(text).parse()


def _check_finite(value: float, what: str, point: tuple[float, ...]) -> float:
    if not math.isfinite(value):
        raise ExprEvalError(f"non-finite result from {what}", point)
    return value


def _eval_scalar(e: CoeffExpr, point: tuple[float, ...]) -> float:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.index > len(point):
            raise ExprEvalError(
                f"expression uses x{e.index} but the point has dimension {len(point)}", point
            )
        return point[e.index - 1]
    if isinstance(e, Neg):
        return -_eval_scalar(e.operand, point)
    if isinstance(e, Call):
        arg = _eval_scalar(e.arg, point)
        try:
            value = FUNCTIONS[e.func][0](arg)
        except (ValueError, OverflowError) as exc:
            raise ExprEvalError(f"{e.func}({arg!r}) failed: {exc}", point) from None
        return _check_finite(value, f"{e.func}(...)", point)
    left = _eval_scalar(e.left, point)
    right = _eval_scalar(e.right, point)
    if e.op == "/" and right == 0.0:
        raise ExprEvalError("division by zero", point)
    # '^' with real-only semantics: a negative base needs an integer exponent.
    if e.op == "^" and left < 0.0 and right != math.floor(right):
        raise ExprEvalError(
            f"negative base {left!r} with non-integer exponent {right!r}", point
        )
    scalar, name, _ = OPERATORS[e.op]
    try:
        value = scalar(left, right)
    except (ValueError, OverflowError) as exc:
        raise ExprEvalError(f"{left!r}{e.op}{right!r} failed: {exc}", point) from None
    return _check_finite(value, name, point)


def evaluate(e: CoeffExpr, point: Sequence[float]) -> float:
    """Evaluate at a single point.  Raises ExprEvalError on any non-finite result."""
    return _eval_scalar(e, tuple(float(v) for v in point))


def _eval_array(e: CoeffExpr, coords: list[np.ndarray]):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.index > len(coords):
            raise ExprError(f"expression uses x{e.index} but the grid has dimension {len(coords)}")
        return coords[e.index - 1]
    if isinstance(e, Neg):
        return -_eval_array(e.operand, coords)
    if isinstance(e, Call):
        return FUNCTIONS[e.func][1](_eval_array(e.arg, coords))
    return OPERATORS[e.op][2](_eval_array(e.left, coords), _eval_array(e.right, coords))


def evaluate_arrays(e: CoeffExpr, coords: Sequence[np.ndarray]) -> np.ndarray:
    """Vectorized evaluation over per-axis coordinate arrays of a common shape.

    Domain errors surface as non-finite entries rather than exceptions;
    :func:`evaluate_nodes` turns them into an error naming the failing node.
    A variable beyond the given coordinates is an input error, :class:`ExprError`.
    """
    arrays = [np.asarray(c, dtype=float) for c in coords]
    if not arrays:
        raise ValueError("evaluate_arrays needs at least one coordinate array")
    shape = arrays[0].shape
    with np.errstate(all="ignore"):
        out = _eval_array(e, arrays)
    return np.broadcast_to(np.asarray(out, dtype=float), shape).copy()


def _first_failing(ok: np.ndarray) -> tuple[int, ...]:
    """Index of the first False entry of ``ok`` in row-major order, as a tuple of ints."""
    return tuple(int(i) for i in np.unravel_index(int(np.argmin(ok)), ok.shape))


def evaluate_nodes(e: CoeffExpr, meshes: Sequence[np.ndarray], what: str) -> np.ndarray:
    """Evaluate over grid meshes and require every entry to be finite.

    At the first non-finite node in row-major order the expression is
    re-evaluated with :func:`evaluate` to recover the cause, and one
    ExprEvalError ``"<what> failed at node (i, ...): <cause> at point (...)"``
    is raised.
    """
    values = evaluate_arrays(e, meshes)
    finite = np.isfinite(values)
    if finite.all():
        return values
    index = _first_failing(finite)
    point = tuple(float(m[index]) for m in meshes)
    try:
        evaluate(e, point)
        cause = "non-finite result"
    except ExprEvalError as exc:
        cause = exc.reason
    raise ExprEvalError(f"{what} failed at node {index}: {cause}", point)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PREC = 3


def _prec(e: CoeffExpr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _NEG_PREC
    return 5


def to_string(e: CoeffExpr) -> str:
    """Canonical printer; ``parse(to_string(t)) == t`` for any parsed tree."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Neg):
        inner = to_string(e.operand)
        if _prec(e.operand) < _NEG_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Call):
        return f"{e.func}({to_string(e.arg)})"
    p = _PREC[e.op]
    left = to_string(e.left)
    right = to_string(e.right)
    if e.op == "^":
        # Right-associative: parenthesize a compound base, and any exponent
        # below unary precedence (the grammar slot for exponents).
        if _prec(e.left) <= p:
            left = f"({left})"
        if _prec(e.right) < _NEG_PREC:
            right = f"({right})"
    else:
        if _prec(e.left) < p:
            left = f"({left})"
        if _prec(e.right) <= p:
            right = f"({right})"
    return f"{left} {e.op} {right}" if e.op in "+-" else f"{left}{e.op}{right}"
