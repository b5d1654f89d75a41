"""A small DSL for explicit ODEs, lowered to coefficient recurrences.

An equation isolates its highest derivative on the left:

    D(u,m) = f(x, u, D(u,1), ..., D(u,m-1))

Grammar (whitespace insignificant):

    equation := "D(u," INT ")" "=" expr
    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := NUMBER | "x" | "x^" INT | "u" | "D(u," INT ")"
              | "pow(" expr "," INT ")" | "exp(" expr ")" | "(" expr ")"

NUMBER is a decimal literal with an optional exponent; a sign is recognized
only immediately in front of a literal, so write "-1 * u" rather than "-u".
INT is an unsigned decimal integer. Anything else (e.g. "sin(u)") is
rejected as an unsupported operator, and a right-hand side referencing
D(u,j) with j >= m is rejected as implicit.

Lowering inverts the derivative transform: if R(k) is the coefficient of
x^k of the right-hand side, then

    U(k+m) = R(k) / ((k+1)(k+2)...(k+m))

Each AST node becomes a plan node holding its own coefficient buffer,
filled once per order k in topological order. Products accumulate partial
Cauchy sums from cached child coefficients; pow and exp nodes advance
their single-sum recurrences one step per order, which keeps a whole solve
at O(N^2). A pow node whose child has a zero constant coefficient at run
time is handled by the valuation shift only when that child is literally
u; for composite children the run fails instead of guessing an evaluation
order for a mid-plan shift.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import (
    CausalityError,
    DomainError,
    EquationSyntaxError,
    ImplicitFormError,
    NonFiniteCoefficientError,
)
from .powers import _int_pow, exp_step, miller_step
from .series import Series

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


@dataclass(frozen=True)
class Equation:
    """Explicit equation D(u, lhs_order) = rhs."""

    lhs_order: int
    rhs: Expr


# ----------------------------------------------------------------------
# Lexer / parser
# ----------------------------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_PUNCT = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    "^": "CARET",
    "*": "STAR",
    "+": "PLUS",
    "-": "MINUS",
    "=": "EQUALS",
}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            tokens.append(_Token("NUMBER", m.group(), i))
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            tokens.append(_Token("NAME", m.group(), i))
            i = m.end()
            continue
        kind = _PUNCT.get(ch)
        if kind is None:
            raise EquationSyntaxError(f"unexpected character {ch!r}", i)
        tokens.append(_Token(kind, ch, i))
        i += 1
    tokens.append(_Token("END", "", n))
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

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            got = tok.text or "end of input"
            raise EquationSyntaxError(f"expected {what}, got {got!r}", tok.pos)
        return self._advance()

    def _expect_name(self, name: str) -> _Token:
        tok = self._peek()
        if tok.kind != "NAME" or tok.text != name:
            got = tok.text or "end of input"
            raise EquationSyntaxError(f"expected '{name}', got {got!r}", tok.pos)
        return self._advance()

    def _int(self, what: str) -> int:
        tok = self._peek()
        if tok.kind != "NUMBER" or not tok.text.isdigit():
            got = tok.text or "end of input"
            raise EquationSyntaxError(
                f"expected a non-negative integer for {what}, got {got!r}", tok.pos
            )
        self._advance()
        return int(tok.text)

    def parse_equation(self) -> Equation:
        self._expect_name("D")
        self._expect("LPAREN", "'('")
        self._expect_name("u")
        self._expect("COMMA", "','")
        m_pos = self._peek().pos
        m = self._int("the left-hand derivative order")
        self._expect("RPAREN", "')'")
        if m < 1:
            raise EquationSyntaxError(
                "left-hand derivative order must be at least 1", m_pos
            )
        self._expect("EQUALS", "'='")
        rhs = self.expr()
        tail = self._peek()
        if tail.kind != "END":
            raise EquationSyntaxError(f"unexpected trailing input {tail.text!r}", tail.pos)
        offset = _u_offset(rhs)
        if offset >= m:
            raise ImplicitFormError(
                f"implicit form: right-hand side contains D(u,{offset}) but the "
                f"left-hand side isolates order {m}"
            )
        return Equation(m, rhs)

    def expr(self) -> Expr:
        node = self.term()
        while self._peek().kind in ("PLUS", "MINUS"):
            op = self._advance()
            rhs = self.term()
            node = Add(node, rhs) if op.kind == "PLUS" else Sub(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self._peek().kind == "STAR":
            self._advance()
            node = _fold_mul(node, self.factor())
        return node

    def factor(self) -> Expr:
        tok = self._peek()
        if tok.kind in ("PLUS", "MINUS"):
            # A sign belongs to a numeric literal only.
            self._advance()
            num = self._expect("NUMBER", "a numeric literal after the sign")
            value = float(num.text)
            return Const(-value if tok.kind == "MINUS" else value)
        if tok.kind == "NUMBER":
            self._advance()
            return Const(float(tok.text))
        if tok.kind == "LPAREN":
            self._advance()
            node = self.expr()
            self._expect("RPAREN", "')'")
            return node
        if tok.kind == "NAME":
            return self._named_factor()
        got = tok.text or "end of input"
        raise EquationSyntaxError(f"expected a factor, got {got!r}", tok.pos)

    def _named_factor(self) -> Expr:
        tok = self._advance()
        name = tok.text
        if name == "x":
            if self._peek().kind == "CARET":
                self._advance()
                return XPow(self._int("the power of x"))
            return Var()
        if name == "u":
            return U()
        if name == "D":
            self._expect("LPAREN", "'('")
            self._expect_name("u")
            self._expect("COMMA", "','")
            j = self._int("the derivative order")
            self._expect("RPAREN", "')'")
            # The 0th derivative is the function itself.
            return U() if j == 0 else Deriv(j)
        if name == "pow":
            self._expect("LPAREN", "'('")
            child = self.expr()
            self._expect("COMMA", "','")
            p = self._int("the exponent")
            self._expect("RPAREN", "')'")
            # pow(e, 0) folds to the constant one by the algebraic convention.
            return Const(1.0) if p == 0 else Pow(child, p)
        if name == "exp":
            self._expect("LPAREN", "'('")
            child = self.expr()
            self._expect("RPAREN", "')'")
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
# Plan nodes
# ----------------------------------------------------------------------


class _Node:
    """One evaluation node; ``coeffs[k]`` is its transform coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self):
        self.coeffs: list[float] = []

    def reset(self) -> None:
        self.coeffs.clear()

    def step(self, k: int, u: Sequence[float]) -> None:
        raise NotImplementedError


class _ConstNode(_Node):
    __slots__ = ("value",)

    def __init__(self, value: float):
        super().__init__()
        self.value = value

    def step(self, k, u):
        self.coeffs.append(self.value if k == 0 else 0.0)


class _XPowNode(_Node):
    __slots__ = ("power",)

    def __init__(self, power: int):
        super().__init__()
        self.power = power

    def step(self, k, u):
        self.coeffs.append(1.0 if k == self.power else 0.0)


class _UNode(_Node):
    __slots__ = ()

    def step(self, k, u):
        self.coeffs.append(u[k])


class _DerivNode(_Node):
    __slots__ = ("order",)

    def __init__(self, order: int):
        super().__init__()
        self.order = order

    def step(self, k, u):
        self.coeffs.append(math.perm(k + self.order, self.order) * u[k + self.order])


class _BinaryNode(_Node):
    __slots__ = ("left", "right")

    def __init__(self, left: _Node, right: _Node):
        super().__init__()
        self.left = left
        self.right = right


class _AddNode(_BinaryNode):
    __slots__ = ()

    def step(self, k, u):
        self.coeffs.append(self.left.coeffs[k] + self.right.coeffs[k])


class _SubNode(_BinaryNode):
    __slots__ = ()

    def step(self, k, u):
        self.coeffs.append(self.left.coeffs[k] - self.right.coeffs[k])


class _MulNode(_BinaryNode):
    __slots__ = ()

    def step(self, k, u):
        lc = self.left.coeffs
        rc = self.right.coeffs
        s = 0.0
        for l in range(k + 1):
            s += lc[l] * rc[k - l]
        self.coeffs.append(s)


class _ScaleNode(_Node):
    __slots__ = ("factor", "child")

    def __init__(self, factor: float, child: _Node):
        super().__init__()
        self.factor = factor
        self.child = child

    def step(self, k, u):
        self.coeffs.append(self.factor * self.child.coeffs[k])


class _ExpNode(_Node):
    __slots__ = ("child",)

    def __init__(self, child: _Node):
        super().__init__()
        self.child = child

    def step(self, k, u):
        if k == 0:
            self.coeffs.append(math.exp(self.child.coeffs[0]))
        else:
            self.coeffs.append(exp_step(self.child.coeffs, self.coeffs, k))


class _PowNode(_Node):
    """Integer power of a subexpression via the single-sum recurrence.

    When the child's constant coefficient is zero at run time, the shifted
    recurrence is applied only if the child is literally u: the node then
    discovers the valuation v of the solution lazily, builds the shifted
    stream ubar[j] = u[v+j], and emits zeros below index v*m.
    """

    __slots__ = ("child", "power", "child_is_u", "direct", "v", "scan", "ubar", "cbuf")

    def __init__(self, child: _Node, power: int, child_is_u: bool):
        super().__init__()
        self.child = child
        self.power = power
        self.child_is_u = child_is_u
        self.direct = True
        self.v: int | None = None
        self.scan = 0
        self.ubar: list[float] = []
        self.cbuf: list[float] = []

    def reset(self):
        super().reset()
        self.direct = True
        self.v = None
        self.scan = 0
        self.ubar.clear()
        self.cbuf.clear()

    def step(self, k, u):
        if k == 0:
            a0 = self.child.coeffs[0]
            if a0 != 0.0:
                self.direct = True
                self.coeffs.append(_int_pow(a0, self.power))
                return
            if not self.child_is_u:
                raise DomainError(
                    "pow of zero-constant subexpression: the valuation shift is "
                    "only applied when the pow operand is exactly u"
                )
            self.direct = False
            self.coeffs.append(self._shifted(0, u))
            return
        if self.direct:
            self.coeffs.append(miller_step(self.child.coeffs, self.coeffs, k, self.power))
        else:
            self.coeffs.append(self._shifted(k, u))

    def _shifted(self, k, u):
        if self.v is None:
            while self.scan <= k:
                if u[self.scan] != 0.0:
                    self.v = self.scan
                    break
                self.scan += 1
            if self.v is None:
                return 0.0
        i = k - self.v * self.power
        if i < 0:
            return 0.0
        while len(self.ubar) <= i:
            self.ubar.append(u[self.v + len(self.ubar)])
        if i == 0:
            value = _int_pow(self.ubar[0], self.power)
        else:
            value = miller_step(self.ubar, self.cbuf, i, self.power)
        self.cbuf.append(value)
        return value


# ----------------------------------------------------------------------
# Lowering and stepping
# ----------------------------------------------------------------------


class RecurrencePlan:
    """Topologically ordered evaluation nodes for one equation.

    ``max_u_offset`` is the causality certificate: emitting the right-hand
    coefficient R(k) reads solution coefficients of index at most
    k + max_u_offset, which lowering guarantees is below the k + lhs_order
    coefficient being produced.

    Plan nodes hold mutable per-order buffers while stepping, so a single
    plan must not be run concurrently; distinct plans are independent.
    """

    def __init__(self, equation: Equation, order: int, nodes: list[_Node], root: _Node, max_u_offset: int):
        self.equation = equation
        self.lhs_order = equation.lhs_order
        self.order = order
        self.max_u_offset = max_u_offset
        self._nodes = nodes
        self._root = root


def _build_node(expr: Expr, nodes: list[_Node]) -> _Node:
    if isinstance(expr, Const):
        node: _Node = _ConstNode(expr.value)
    elif isinstance(expr, Var):
        node = _XPowNode(1)
    elif isinstance(expr, XPow):
        if expr.power < 0:
            raise ValueError("x power must be non-negative")
        node = _XPowNode(expr.power)
    elif isinstance(expr, U):
        node = _UNode()
    elif isinstance(expr, Deriv):
        if expr.order < 1:
            raise ValueError("derivative order must be positive")
        node = _DerivNode(expr.order)
    elif isinstance(expr, Add):
        node = _AddNode(_build_node(expr.left, nodes), _build_node(expr.right, nodes))
    elif isinstance(expr, Sub):
        node = _SubNode(_build_node(expr.left, nodes), _build_node(expr.right, nodes))
    elif isinstance(expr, Mul):
        node = _MulNode(_build_node(expr.left, nodes), _build_node(expr.right, nodes))
    elif isinstance(expr, Scale):
        node = _ScaleNode(expr.factor, _build_node(expr.child, nodes))
    elif isinstance(expr, Pow):
        if expr.power < 1:
            raise ValueError("pow exponent must be positive")
        node = _PowNode(_build_node(expr.child, nodes), expr.power, isinstance(expr.child, U))
    elif isinstance(expr, Exp):
        node = _ExpNode(_build_node(expr.child, nodes))
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    nodes.append(node)
    return node


def _u_offset(expr: Expr) -> int:
    """Highest solution index read relative to k when emitting R(k); u reads U(k)."""
    if isinstance(expr, Deriv):
        return expr.order
    if isinstance(expr, (Add, Sub, Mul)):
        return max(_u_offset(expr.left), _u_offset(expr.right))
    if isinstance(expr, (Scale, Pow, Exp)):
        return _u_offset(expr.child)
    return 0


def _require_room(order: int, m: int) -> None:
    if order < m - 1:
        raise ValueError(
            f"order {order} cannot hold the {m} initial coefficients U(0..{m - 1})"
        )


def lower(equation: Equation, order: int) -> RecurrencePlan:
    """Lower an equation to a recurrence plan for the given truncation order."""
    m = equation.lhs_order
    if m < 1:
        raise ValueError("equation must isolate a derivative of order >= 1")
    _require_room(order, m)
    offset = _u_offset(equation.rhs)
    if offset > m - 1:
        raise CausalityError(
            f"emitting R(k) would read U(k+{offset}) before it is produced"
        )
    nodes: list[_Node] = []
    root = _build_node(equation.rhs, nodes)
    return RecurrencePlan(equation, order, nodes, root, offset)


def run(plan: RecurrencePlan, initial: Sequence[float], order: int | None = None) -> Series:
    """Step the plan from the initial coefficients U(0..m-1).

    ``order`` defaults to the order the plan was lowered for. Raises
    :class:`NonFiniteCoefficientError` naming the first order at which a
    coefficient stops being finite.
    """
    m = plan.lhs_order
    if order is None:
        order = plan.order
    _require_room(order, m)
    if len(initial) != m:
        raise ValueError(f"need {m} initial coefficients U(0..{m - 1}), got {len(initial)}")
    u = [float(c) for c in initial]
    for k, c in enumerate(u):
        if not math.isfinite(c):
            raise ValueError(f"initial coefficient U({k}) is not finite")
    u.extend(0.0 for _ in range(order + 1 - m))
    for node in plan._nodes:
        node.reset()
    for k in range(order - m + 1):
        try:
            for node in plan._nodes:
                node.step(k, u)
        except OverflowError:
            raise NonFiniteCoefficientError(k + m) from None
        value = plan._root.coeffs[k] / math.perm(k + m, m)
        if not math.isfinite(value):
            raise NonFiniteCoefficientError(k + m)
        u[k + m] = value
    return Series(u)
