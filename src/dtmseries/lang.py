"""A small DSL for explicit ODEs, lowered to coefficient recurrences.

An equation isolates its highest derivative on the left:

    D(u,m) = f(x, u, D(u,1), ..., D(u,m-1))

Grammar (whitespace insignificant):

    equation := "D(u," INT ")" "=" expr
    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := NUMBER | "x" | "x^" INT | "u" | "D(u," INT ")"
              | "pow(" expr "," INT ")" | "exp(" expr ")" | "(" expr ")"

NUMBER is a decimal literal with an optional exponent, rejected when it
overflows to an infinite float (e.g. "1e999"); a sign is recognized
only immediately in front of a literal, so write "-1 * u" rather than "-u".
INT is an unsigned decimal integer. Anything else (e.g. "sin(u)") is
rejected as an unsupported operator, and a right-hand side referencing
D(u,j) with j >= m is rejected as implicit.

Lowering inverts the derivative transform: if R(k) is the coefficient of
x^k of the right-hand side, then

    U(k+m) = R(k) / ((k+1)(k+2)...(k+m))

An :class:`Equation` checks itself when it is built, whether parsed or
built by hand; :func:`lower` pairs it with a truncation order, and the
plan it returns holds no state. Each run walks the tree once and gives
every non-leaf node a buffer and a stepper, then advances the steppers
once per order k in topological order. A product, a pow and an exp node
drive the steppers that the whole-series functions drive
(``series.mul_steps``, ``powers.pow_steps``, ``powers.exp_steps``): one
Cauchy coefficient or one single-sum recurrence step per order, which
keeps a whole solve at O(N^2). Each of those steppers keeps the operand
its inner sum reads backwards in a newest-first list, so a step is one
dot product over two lists already in order. Every stepper reads only
coefficients 0..k of its operands at step k, so a pow of any operand, u or
composite, finds its valuation and shifts as the operand's coefficients
are produced.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence, Union

from .errors import (
    EquationSyntaxError,
    ImplicitFormError,
    InvalidArgumentError,
    NonFiniteCoefficientError,
)
from .powers import exp_steps, pow_steps
from .series import Series, monomial, mul_steps

__all__ = [
    "Const",
    "Var",
    "XPow",
    "U",
    "Deriv",
    "Add",
    "Sub",
    "Mul",
    "Scale",
    "Pow",
    "Exp",
    "Equation",
    "RecurrencePlan",
    "parse",
    "format_expr",
    "format_equation",
    "lower",
    "run",
]


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    """The independent variable x."""


@dataclass(frozen=True)
class XPow:
    power: int


@dataclass(frozen=True)
class U:
    """The dependent variable u."""


@dataclass(frozen=True)
class Deriv:
    order: int


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Scale:
    factor: float
    child: "Expr"


@dataclass(frozen=True)
class Pow:
    child: "Expr"
    power: int


@dataclass(frozen=True)
class Exp:
    child: "Expr"


Expr = Union[Const, Var, XPow, U, Deriv, Add, Sub, Mul, Scale, Pow, Exp]


def _u_offset(expr: Expr) -> int:
    """Highest solution index read relative to k when emitting R(k); u reads U(k).

    Also rejects hand-built nodes that the parser never produces.
    """
    if isinstance(expr, Deriv):
        if expr.order < 1:
            raise InvalidArgumentError("derivative order must be positive")
        return expr.order
    if isinstance(expr, (Add, Sub, Mul)):
        return max(_u_offset(expr.left), _u_offset(expr.right))
    if isinstance(expr, Pow) and expr.power < 1:
        raise InvalidArgumentError("pow exponent must be positive")
    if isinstance(expr, (Scale, Pow, Exp)):
        return _u_offset(expr.child)
    if isinstance(expr, XPow) and expr.power < 0:
        raise InvalidArgumentError("x power must be non-negative")
    if isinstance(expr, (Const, Var, XPow, U)):
        return 0
    raise TypeError(f"not an expression node: {expr!r}")


@dataclass(frozen=True)
class Equation:
    """Explicit equation D(u, lhs_order) = rhs, checked when it is built.

    Raises :class:`InvalidArgumentError` for ``lhs_order < 1`` or a node
    the parser never produces (``Deriv(0)``, ``Pow(e, 0)``, a negative
    ``XPow``), and :class:`ImplicitFormError` when the right-hand side
    reads D(u,j) with j >= lhs_order. So emitting R(k) reads solution
    coefficients of index below k + lhs_order, the one being produced.
    """

    lhs_order: int
    rhs: Expr

    def __post_init__(self) -> None:
        m = self.lhs_order
        if m < 1:
            raise InvalidArgumentError("equation must isolate a derivative of order >= 1")
        offset = _u_offset(self.rhs)
        if offset >= m:
            raise ImplicitFormError(
                f"implicit form: right-hand side contains D(u,{offset}) but the "
                f"left-hand side isolates order {m}"
            )


# ----------------------------------------------------------------------
# Lexer / parser
# ----------------------------------------------------------------------

# A number, a name, or any other non-space character; finditer skips the
# spaces between tokens, since no alternative matches one.
_TOKEN_RE = re.compile(
    r"(?P<NUMBER>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<NAME>[A-Za-z_][A-Za-z_0-9]*)"
    r"|\S"
)


class _Token(NamedTuple):
    kind: str  # "NUMBER", "NAME", "END", or the punctuation character itself
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup or m.group()
        if len(kind) == 1 and kind not in "(),^*+-=":
            raise EquationSyntaxError(f"unexpected character {kind!r}", m.start())
        tokens.append(_Token(kind, m.group(), m.start()))
    tokens.append(_Token("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._i = 0

    def _peek(self) -> _Token:
        return self._tokens[self._i]

    def _advance(self) -> _Token:
        tok = self._tokens[self._i]
        if tok.kind != "END":
            self._i += 1
        return tok

    def _error(self, what: str) -> EquationSyntaxError:
        tok = self._peek()
        got = tok.text or "end of input"
        return EquationSyntaxError(f"expected {what}, got {got!r}", tok.pos)

    def _expect(self, text: str) -> None:
        # Only a NAME token can spell a name, and a punctuation token's
        # text is its kind, so the text alone identifies the token.
        if self._peek().text != text:
            raise self._error(repr(text))
        self._advance()

    def _int(self, what: str) -> int:
        tok = self._peek()
        if tok.kind != "NUMBER" or not tok.text.isdigit():
            raise self._error(f"a non-negative integer for {what}")
        self._advance()
        return int(tok.text)

    def _u_order(self, what: str) -> tuple[int, int]:
        """Parse ``(u, INT)`` after a D; return INT and its position."""
        self._expect("(")
        self._expect("u")
        self._expect(",")
        pos = self._peek().pos
        j = self._int(what)
        self._expect(")")
        return j, pos

    def parse_equation(self) -> Equation:
        self._expect("D")
        m, m_pos = self._u_order("the left-hand derivative order")
        if m < 1:
            raise EquationSyntaxError(
                "left-hand derivative order must be at least 1", m_pos
            )
        self._expect("=")
        rhs = self.expr()
        tail = self._peek()
        if tail.kind != "END":
            raise EquationSyntaxError(f"unexpected trailing input {tail.text!r}", tail.pos)
        return Equation(m, rhs)

    def expr(self) -> Expr:
        node = self.term()
        while self._peek().kind in ("+", "-"):
            op = self._advance()
            rhs = self.term()
            node = Add(node, rhs) if op.kind == "+" else Sub(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self._peek().kind == "*":
            self._advance()
            node = _fold_mul(node, self.factor())
        return node

    def factor(self) -> Expr:
        tok = self._peek()
        if tok.kind in ("+", "-", "NUMBER"):
            # A sign belongs to a numeric literal only.
            if tok.kind != "NUMBER":
                self._advance()
            num = self._peek()
            if num.kind != "NUMBER":
                raise self._error("a numeric literal after the sign")
            self._advance()
            value = float(num.text)
            if not math.isfinite(value):
                raise EquationSyntaxError(
                    f"numeric literal {num.text!r} is not a finite float", num.pos
                )
            return Const(-value if tok.kind == "-" else value)
        if tok.kind == "(":
            self._advance()
            node = self.expr()
            self._expect(")")
            return node
        if tok.kind == "NAME":
            return self._named_factor()
        raise self._error("a factor")

    def _named_factor(self) -> Expr:
        tok = self._advance()
        name = tok.text
        if name == "x":
            if self._peek().kind == "^":
                self._advance()
                return XPow(self._int("the power of x"))
            return Var()
        if name == "u":
            return U()
        if name == "D":
            j, _ = self._u_order("the derivative order")
            # The 0th derivative is the function itself.
            return U() if j == 0 else Deriv(j)
        if name == "pow":
            self._expect("(")
            child = self.expr()
            self._expect(",")
            p = self._int("the exponent")
            self._expect(")")
            # pow(e, 0) folds to the constant one by the algebraic convention.
            return Const(1.0) if p == 0 else Pow(child, p)
        if name == "exp":
            self._expect("(")
            child = self.expr()
            self._expect(")")
            return Exp(child)
        raise EquationSyntaxError(f"unsupported operator {name!r}", tok.pos)


def _fold_mul(a: Expr, b: Expr) -> Expr:
    # Numeric literals fold into Const/Scale at parse time.
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if isinstance(a, Const):
        return Scale(a.value, b)
    if isinstance(b, Const):
        return Scale(b.value, a)
    return Mul(a, b)


def parse(text: str) -> Equation:
    """Parse the equation text into an :class:`Equation` AST."""
    return _Parser(_tokenize(text)).parse_equation()


# ----------------------------------------------------------------------
# Printer (parse . format . parse is the identity on ASTs)
# ----------------------------------------------------------------------


def _fmt_operand(e: Expr) -> str:
    # Operands of * must reparse as single factors.
    if isinstance(e, (Add, Sub, Mul, Scale)):
        return f"({format_expr(e)})"
    return format_expr(e)


def _fmt_addend(e: Expr) -> str:
    # Right operands of +/- must not swallow the rest of the sum.
    if isinstance(e, (Add, Sub)):
        return f"({format_expr(e)})"
    return format_expr(e)


def format_expr(e: Expr) -> str:
    """Render an AST back to equation-grammar text."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return "x"
    if isinstance(e, XPow):
        return f"x^{e.power}"
    if isinstance(e, U):
        return "u"
    if isinstance(e, Deriv):
        return f"D(u,{e.order})"
    if isinstance(e, Add):
        return f"{format_expr(e.left)} + {_fmt_addend(e.right)}"
    if isinstance(e, Sub):
        return f"{format_expr(e.left)} - {_fmt_addend(e.right)}"
    if isinstance(e, Mul):
        return f"{_fmt_operand(e.left)} * {_fmt_operand(e.right)}"
    if isinstance(e, Scale):
        return f"{e.factor!r} * {_fmt_operand(e.child)}"
    if isinstance(e, Pow):
        return f"pow({format_expr(e.child)}, {e.power})"
    if isinstance(e, Exp):
        return f"exp({format_expr(e.child)})"
    raise TypeError(f"not an expression node: {e!r}")


def format_equation(eq: Equation) -> str:
    return f"D(u,{eq.lhs_order}) = {format_expr(eq.rhs)}"


# ----------------------------------------------------------------------
# Lowering and stepping
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RecurrencePlan:
    """An equation and the truncation order it is solved to.

    The equation checked itself when it was built, so every plan is
    causal: emitting R(k) never reads a coefficient before it is produced.
    A plan holds no stepping state: :func:`run` builds its buffers afresh
    on every call, so one plan may be shared and run concurrently.
    """

    equation: Equation
    order: int

    @property
    def lhs_order(self) -> int:
        return self.equation.lhs_order


def lower(equation: Equation, order: int) -> RecurrencePlan:
    """Lower an equation to a recurrence plan for the given truncation order."""
    m = equation.lhs_order
    if order < m - 1:
        raise InvalidArgumentError(
            f"order {order} cannot hold the {m} initial coefficients U(0..{m - 1})"
        )
    return RecurrencePlan(equation, order)


_Stepped = list[tuple[list[float], Iterator[float]]]


def _buffer(expr: Expr, u: list[float], nodes: _Stepped) -> Sequence[float]:
    """The coefficient buffer of ``expr`` for one run.

    Leaves are filled in full; u's buffer is the solution list itself.
    Every other node gets an empty buffer and a stepper that yields one
    coefficient per order; the pair is appended to ``nodes`` after the
    pairs of its operands.
    """
    n = len(u) - 1
    if isinstance(expr, U):
        return u
    if isinstance(expr, Const):
        return (expr.value,) + (0.0,) * n
    if isinstance(expr, (Var, XPow)):
        return monomial(expr.power if isinstance(expr, XPow) else 1, n).coeffs
    ks = itertools.count()
    if isinstance(expr, Deriv):
        j = expr.order
        steps = (math.perm(k + j, j) * u[k + j] for k in ks)
    elif isinstance(expr, (Add, Sub, Mul)):
        a = _buffer(expr.left, u, nodes)
        b = _buffer(expr.right, u, nodes)
        if isinstance(expr, Add):
            steps = (a[k] + b[k] for k in ks)
        elif isinstance(expr, Sub):
            steps = (a[k] - b[k] for k in ks)
        else:
            steps = mul_steps(a, b)
    elif isinstance(expr, Scale):
        c = _buffer(expr.child, u, nodes)
        f = expr.factor
        steps = (f * c[k] for k in ks)
    elif isinstance(expr, Pow):
        steps = pow_steps(_buffer(expr.child, u, nodes), expr.power)
    else:
        steps = exp_steps(_buffer(expr.child, u, nodes))
    buf: list[float] = []
    nodes.append((buf, steps))
    return buf


def run(plan: RecurrencePlan, initial: Sequence[float]) -> Series:
    """Step the plan from the initial coefficients U(0..m-1) to its order.

    Raises :class:`NonFiniteCoefficientError` naming the first order at
    which a coefficient stops being finite.
    """
    m = plan.lhs_order
    if len(initial) != m:
        raise InvalidArgumentError(
            f"need {m} initial coefficients U(0..{m - 1}), got {len(initial)}"
        )
    u = [float(c) for c in initial]
    for k, c in enumerate(u):
        if not math.isfinite(c):
            raise InvalidArgumentError(f"initial coefficient U({k}) is not finite")
    u.extend(0.0 for _ in range(plan.order + 1 - m))
    nodes: _Stepped = []
    root = _buffer(plan.equation.rhs, u, nodes)
    for k in range(plan.order - m + 1):
        try:
            for buf, steps in nodes:
                buf.append(next(steps))
        except OverflowError:
            raise NonFiniteCoefficientError(k + m) from None
        value = root[k] / math.perm(k + m, m)
        if not math.isfinite(value):
            raise NonFiniteCoefficientError(k + m)
        u[k + m] = value
    return Series._checked(u)
