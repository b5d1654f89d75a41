"""A small DSL for explicit ODEs, lowered to coefficient recurrences.

An equation isolates its highest derivative on the left:

    D(u,m) = f(x, u, D(u,1), ..., D(u,m-1))

Grammar (whitespace insignificant):

    equation := "D(u," INT ")" "=" expr
    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := NUMBER | "x" | "x^" INT | "u" | "D(u," INT ")"
              | "pow(" expr "," INT ")" | "exp(" expr ")" | "(" expr ")"

NUMBER is a decimal literal with an optional exponent, rejected when it,
or a product of literals folded with it, overflows to an infinite float
(e.g. "1e999" or "1e200*1e200"); a sign is recognized
only immediately in front of a literal, so write "-1 * u" rather than "-u".
INT is an unsigned decimal integer. Anything else (e.g. "sin(u)") is
rejected as an unsupported operator, and a right-hand side referencing
D(u,j) with j >= m is rejected as implicit.

Lowering inverts the derivative transform: if R(k) is the coefficient of
x^k of the right-hand side, then

    U(k+m) = R(k) / ((k+1)(k+2)...(k+m))

An :class:`Equation` is checked and lowered when it is built, whether
parsed or built by hand: one bottom-up walk of the right-hand side checks
every node and builds an immutable program of slots in topological
order, in which structurally equal subtrees share one slot (floats
compared by their bits, so 0.0 and -0.0 stay apart). The program's keys
are the equation's equality and hash. :func:`lower` only pairs the
equation with a truncation order, checked by the plan. Each run gives
every slot a buffer and every non-leaf slot a stepper, then
advances the steppers once per order k in program order, so a subtree
that occurs twice, like exp(u) in u*exp(u) + exp(u), is stepped once. A
product, a square, a pow and an exp slot drive the steppers that the
whole-series functions drive (``series.mul_steps``, ``series.sq_steps``,
``powers.pow_steps``, ``powers.exp_steps``): one Cauchy coefficient or
one single-sum recurrence step per order, which keeps a whole solve at
O(N^2). A product of a slot with itself is its square, at about half the
multiplies. ``pow(e, m)`` is the slots of the stages that
``powers.power_chain`` gives and ``pow_int`` runs: square and product
slots for a small m, so ``pow(u,2)`` and ``pow(u,3)`` share u's square,
and one pow slot, Miller's recurrence, for a larger m. A product with
``x^p`` is a shift, W(k) = 0.0 + E(k-p), bit for bit the Cauchy
coefficient while E is finite. Each of those steppers keeps the operand
its inner sum reads backwards in a newest-first list, so a step is one
dot product over two lists already in order. Every stepper reads only
coefficients 0..k of its operands at step k, so a Miller pow of any
operand, u or composite, finds its valuation and shifts as the operand's
coefficients are produced.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence, Union

from .errors import (
    EquationSyntaxError,
    ImplicitFormError,
    InvalidArgumentError,
    NonFiniteCoefficientError,
)
from .powers import exp_steps, pow_steps, power_chain
from .series import Series, _div_exact, _finite_float, monomial, mul_steps, sq_steps

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


# A slot of a lowered equation is a tuple (kind, param, args): ``kind`` is
# "u", "const", "xpow", "deriv", "add", "sub", "mul", "sq", "shift",
# "scale", "pow" or "exp"; ``param`` is the literal, power, derivative
# order or factor (None when there is none); ``args`` are the indices of
# the operand slots, all below the slot's own index.
_Slot = tuple[str, Union[float, int, None], tuple[int, ...]]


def _program(rhs: Expr) -> tuple[tuple[_Slot, ...], tuple[tuple, ...]]:
    """Check ``rhs`` and lower it: its slots in topological order, the root
    last, and their keys.

    Rejects the nodes the parser never produces (``Deriv(0)``, ``Pow(e,
    0)``, a negative ``XPow``, a literal that is not a finite float) with
    :class:`InvalidArgumentError`, and a non-node with ``TypeError``.
    Structurally equal subtrees share one slot: slots are hash-consed
    bottom up on their key (kind, parameter, operand slots), with floats
    keyed by ``float.hex`` so that 0.0 and -0.0 stay apart, as their
    products do. ``x`` is ``x^1``. A product with an ``x^p`` operand is a
    "shift" slot whose args are the left operand, the right operand and
    the other one; a product of one slot with itself is a "sq" slot.
    ``pow(e, m)`` is the stages of :func:`~dtmseries.powers.power_chain`:
    "sq" and "mul" are products (so ``pow(e, 1)`` is ``e``'s own slot, and
    ``pow(u, 2)`` and ``pow(u, 3)`` share ``u``'s square), and "pow" is a
    "pow" slot, Miller's recurrence.
    """
    slots: list[_Slot] = []
    index: dict[tuple, int] = {}

    def slot(kind: str, param: float | int | None = None, args: tuple[int, ...] = ()) -> int:
        key = (kind, param.hex() if type(param) is float else param, args)
        i = index.setdefault(key, len(slots))
        if i == len(slots):
            slots.append((kind, param, args))
        return i

    def product(a: int, b: int) -> int:
        (left, p, _), (right, q, _) = slots[a], slots[b]
        if left == "xpow":
            return slot("shift", p, (a, b, b))
        if right == "xpow":
            return slot("shift", q, (a, b, a))
        return slot("sq", None, (a,)) if a == b else slot("mul", None, (a, b))

    def visit(e: Expr) -> int:
        t = type(e)
        if t is U:
            return slot("u")
        if t is Const:
            return slot("const", _finite_float(e.value, "literal"))
        if t is Var or t is XPow:
            p = 1 if t is Var else e.power
            if p < 0:
                raise InvalidArgumentError("x power must be non-negative")
            return slot("xpow", p)
        if t is Deriv:
            if e.order < 1:
                raise InvalidArgumentError("derivative order must be positive")
            return slot("deriv", e.order)
        if t is Scale:
            return slot("scale", _finite_float(e.factor, "literal"), (visit(e.child),))
        if t is Pow:
            if e.power < 1:
                raise InvalidArgumentError("pow exponent must be positive")
            power = base = visit(e.child)
            for op in power_chain(e.power):
                if op == "pow":
                    power = slot("pow", e.power, (base,))
                else:
                    power = product(power, power if op == "sq" else base)
            return power
        if t is Exp:
            return slot("exp", None, (visit(e.child),))
        if t is Mul:
            return product(visit(e.left), visit(e.right))
        if t is Add or t is Sub:
            return slot("add" if t is Add else "sub", None, (visit(e.left), visit(e.right)))
        raise TypeError(f"not an expression node: {e!r}")

    visit(rhs)
    return tuple(slots), tuple(index)


@dataclass(frozen=True)
class Equation:
    """Explicit equation D(u, lhs_order) = rhs, checked and lowered when it is built.

    Raises :class:`InvalidArgumentError` for ``lhs_order < 1``, a node the
    parser never produces (``Deriv(0)``, ``Pow(e, 0)``, a negative
    ``XPow``) or a ``Const``/``Scale`` literal that is not a finite float
    (``10**400``, inf, NaN), ``TypeError`` for a non-node, and
    :class:`ImplicitFormError` when the right-hand side reads D(u,j) with
    j >= lhs_order. So emitting R(k) reads solution coefficients of index
    below k + lhs_order, the one being produced.

    The one walk that checks the right-hand side also lowers it into an
    immutable program of slots (see :func:`_program`), which every plan of
    the equation runs. Equations are equal, and hash equal, when their
    orders and slot keys are: floats compare by their bits, so
    ``-0.0 * u`` and ``0.0 * u`` differ, while ``pow(u, 1)`` and ``u`` are
    one equation.
    """

    lhs_order: int
    rhs: Expr = field(compare=False)
    _program: tuple[_Slot, ...] = field(init=False, repr=False, compare=False)
    _keys: tuple[tuple, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = self.lhs_order
        if m < 1:
            raise InvalidArgumentError("equation must isolate a derivative of order >= 1")
        program, keys = _program(self.rhs)
        offset = max((j for kind, j, _ in program if kind == "deriv"), default=0)
        if offset >= m:
            raise ImplicitFormError(
                f"implicit form: right-hand side contains D(u,{offset}) but the "
                f"left-hand side isolates order {m}"
            )
        object.__setattr__(self, "_program", program)
        object.__setattr__(self, "_keys", keys)


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
            op = self._advance()
            node = _fold_mul(node, self.factor(), op.pos)
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


def _fold_mul(a: Expr, b: Expr, pos: int) -> Expr:
    # Numeric literals fold into Const/Scale at parse time; pos is the "*" they fold at.
    if isinstance(a, Const) and isinstance(b, Const):
        value = a.value * b.value
        if not math.isfinite(value):
            raise EquationSyntaxError(
                f"product of numeric literals is {value!r}, not a finite float", pos
            )
        return Const(value)
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

    Building a plan checks the order, which must hold the equation's
    lhs_order initial coefficients. The equation checked and lowered
    itself when it was built, so every plan is causal (emitting R(k) never
    reads a coefficient before it is produced) and shares its equation's
    immutable program; :func:`run` gives each slot a fresh buffer and
    stepper on every call, so one plan may be shared and run concurrently.
    Plans are equal when their equations and orders are.
    """

    equation: Equation
    order: int

    def __post_init__(self) -> None:
        m = self.equation.lhs_order
        if self.order < m - 1:
            raise InvalidArgumentError(
                f"order {self.order} cannot hold the {m} initial coefficients U(0..{m - 1})"
            )

    @property
    def lhs_order(self) -> int:
        return self.equation.lhs_order


def lower(equation: Equation, order: int) -> RecurrencePlan:
    """Lower an equation to a recurrence plan for the given truncation order."""
    return RecurrencePlan(equation, order)


def _shift_steps(
    a: Sequence[float], b: Sequence[float], e: Sequence[float], p: int
) -> Iterator[float]:
    """Yield W(0), W(1), ... of a * b where the operand other than ``e`` is x^p.

    W(k) is 0.0 for k < p and 0.0 + E(k-p) after, which is bit for bit the
    Cauchy sum while E(0..k) are finite (every other term is a signed zero).
    At the first E(k) that is not, the stepper hands over to
    ``mul_steps(a, b)``, advanced to k, since 0 * inf is NaN.
    """
    isfinite = math.isfinite
    for k in itertools.count():
        if not isfinite(e[k]):
            yield from itertools.islice(mul_steps(a, b), k, None)
            return
        yield 0.0 if k < p else 0.0 + e[k - p]


def _stepper(
    kind: str, param, operands: list[Sequence[float]], u: list[float]
) -> Iterator[float]:
    """The stepper of a non-leaf slot: one coefficient per order k."""
    ks = itertools.count()
    if kind == "deriv":
        j = param
        return (math.perm(k + j, j) * u[k + j] for k in ks)
    if kind == "add":
        a, b = operands
        return (a[k] + b[k] for k in ks)
    if kind == "sub":
        a, b = operands
        return (a[k] - b[k] for k in ks)
    if kind == "scale":
        (c,) = operands
        return (param * c[k] for k in ks)
    if kind == "mul":
        return mul_steps(*operands)
    if kind == "sq":
        return sq_steps(operands[0])
    if kind == "shift":
        return _shift_steps(*operands, param)
    if kind == "pow":
        return pow_steps(operands[0], param)
    return exp_steps(operands[0])


def run(plan: RecurrencePlan, initial: Sequence[float]) -> Series:
    """Step the plan from the initial coefficients U(0..m-1) to its order.

    The initial coefficients must be m finite floats, checked as a
    :class:`Series` checks its coefficients. Every slot of the equation's
    program gets one buffer: u's is the solution list itself, a
    constant's or x^p's is filled in full, and every other slot's grows
    by one coefficient per order from its own stepper. The steppers
    advance once per order k in program order, so each reads operands
    that already hold coefficient k, and a subtree that occurs more than
    once is stepped once.

    Raises :class:`NonFiniteCoefficientError` naming the first order at
    which a coefficient stops being finite.
    """
    m = plan.lhs_order
    if len(initial) != m:
        raise InvalidArgumentError(
            f"need {m} initial coefficients U(0..{m - 1}), got {len(initial)}"
        )
    u = list(Series(initial).coeffs)
    n = plan.order
    u.extend(0.0 for _ in range(n + 1 - m))
    bufs: list[Sequence[float]] = []
    nodes: list[tuple[list[float], Iterator[float]]] = []
    for kind, param, args in plan.equation._program:
        if kind == "u":
            buf: Sequence[float] = u
        elif kind == "const":
            buf = (param,) + (0.0,) * n
        elif kind == "xpow":
            buf = monomial(param, n).coeffs
        else:
            buf = []
            nodes.append((buf, _stepper(kind, param, [bufs[i] for i in args], u)))
        bufs.append(buf)
    root = bufs[-1]
    for k in range(n - m + 1):
        try:
            for buf, steps in nodes:
                buf.append(next(steps))
        except OverflowError:
            raise NonFiniteCoefficientError(k + m) from None
        try:
            value = root[k] / (d := math.perm(k + m, m))
        except OverflowError:  # perm(k + m, m) > DBL_MAX: divide exactly
            value = _div_exact(root[k], d)
        if not math.isfinite(value):
            raise NonFiniteCoefficientError(k + m)
        u[k + m] = value
    return Series._checked(u)
