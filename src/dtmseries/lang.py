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
INT is an unsigned decimal integer of at most 4300 digits, and
parentheses nest at most 200 deep. Anything else (e.g. "sin(u)") is
rejected as an unsupported operator, and a right-hand side referencing
D(u,j) with j >= m is rejected as implicit.

Lowering inverts the derivative transform: if R(k) is the coefficient of
x^k of the right-hand side, then

    U(k+m) = R(k) / ((k+1)(k+2)...(k+m))

and the quotient, like the product of a D(u,j), is rounded once at any order.

An :class:`Equation` is checked and lowered when it is built, whether
parsed or built by hand: one bottom-up walk of the right-hand side checks
every node and builds an immutable program of slots in topological
order, in which structurally equal subtrees share one slot (floats
compared by their bits, so 0.0 and -0.0 stay apart), and, in the same
walk, its shape and literals (below). The program's keys are the
equation's equality and its hash, computed once. :func:`lower` only pairs
the equation with a truncation order, checked by the plan.

A product of a slot with itself is its square, at about half the
multiplies. ``pow(e, m)`` is the slots of the stages that
``powers.power_chain`` gives and ``pow_int`` runs: square and product
slots for a small m, so ``pow(u,2)`` and ``pow(u,3)`` share u's square,
and one pow slot, Miller's recurrence, for a larger m. A product with
``x^p``, p >= 1, is a shift, W(k) = 0.0 + E(k-p), bit for bit the Cauchy
coefficient while E(k) is finite, and NaN, as the Cauchy sum's 0 * E(k)
is, where it is not. A product with ``x^0`` is the Cauchy product, which
keeps a non-finite E(k) as it is.

:func:`run` steps a plan in straight-line code, as Taylor integrators
such as ATOMFT (Chang & Corliss, 1994) and Jorba & Zou's ``taylor``
(2005) do: one generated Python function per program *shape*, which is
the program with its float literals left out (slot kinds, integer
parameters, operand indices, and lhs_order). Its loop runs k from 0 to
the order minus lhs_order and computes every slot once per order, in
program order, so a subtree that occurs twice, like exp(u) in u*exp(u) +
exp(u), is computed once. A pointwise slot (u, a constant, x^p, D(u,j),
a sum, a difference, a scaling, a shift) is a local variable, the shift
read from its operand's history. A product, a square, an exp and a pow
call their one-step kernels (``series.mul_step``, ``series.sq_step``,
``powers.exp_step``, ``powers.miller_step``) directly, one Cauchy
coefficient or one single-sum recurrence step per order, which keeps a
whole solve at O(N^2); a pow finds its operand's valuation as the orders
come. Each kernel reads the history it needs from a list kept once per
slot, newest first where its sum reads backwards, so a step is one dot
product over two lists already in order; a slot that nothing reads back
has no list. This is the one driver of the kernels: ``series.mul``,
``pow_int`` and ``exp_series`` are programs over input slots too.

The literals are the function's argument, never part of its source,
which holds only names and integers checked when the equation was
built. So Bratu's equation at every lambda, or ``-0.0*u`` and
``0.0*u``, share one function and still compute with their own bits, and
no literal can change the code that runs. The functions are kept in a
``functools.lru_cache`` of 128 shapes, and one cached executor per
whole-series ``(kind, m)``, so such a call builds no slots: a product, an
exp, a chain per m <= 8 and one Miller program per m > 8. Generating and
compiling one costs 0.23-0.44 ms (CPython 3.11, 2-vCPU Xeon), about one
short run; a process that solves a handful of shapes pays it a handful of
times, however many equations and plans of those shapes it builds, and a
result never depends on whether its shape was cached. The front end is
paid once per text: :func:`parse` keeps the immutable Equations of the
last 128 texts in a ``functools.lru_cache``, the same bounded policy, so
a repeated text costs a lookup (about 0.1 us) where parsing
``D(u,2) = -1*u*exp(u) + exp(u)`` (22 tokens, one regex pass) takes
about 26 us, against about 60 us for its run to N = 30. A text that
fails to parse is not kept, and raises afresh on every call.

A run is paid once per (equation, initial coefficients), at the longest
order asked for. Each U(k) reads lower orders only, so a run to order N
holds the run to every n <= N bit for bit: :func:`run` keeps, in a
``functools.lru_cache`` of the last 128 keys (equation, bits of the
initial coefficients), the longest run it has returned, and returns it,
or its prefix, for a plan at or below its order without stepping (about
4 us with the checks of its arguments, against the run above). So the
cache holds at most 128 runs, each the longest asked for of its key. The
bits keep (-0.0,) and (0.0,) apart, as the literals ``-0.0`` and ``0.0``
are. A longer plan steps from k = 0 and its run replaces the kept one; a
run that raises keeps nothing and raises afresh on every call. Two
threads may both step a run not yet kept, to the same bits; a lock lets
only the longer be kept. Every trial gamma of a Bratu shoot is new, so
its runs only miss; a miss adds one insert, the lock and a look-up of the
equation's hash, which it computed when it was built, about 2 us to a
run of 35 us at N = 31. The whole-series operators (``series.mul``,
``pow_int``, ``exp_series``) keep nothing: the ``OpCount`` of a call reports the
multiplies it performed.
"""

from __future__ import annotations

import functools
import math
import re
import threading
from array import array
from collections.abc import Callable, Sequence

from .errors import (
    EquationSyntaxError,
    ImplicitFormError,
    InvalidArgumentError,
    NonFiniteCoefficientError,
)
from . import powers
from .powers import power_chain
from .series import (
    _FLOAT_EXACT_INT, OpCount, Series, _div_exact, _finite_float, _int, _mul_exact,
    _Record, mul_step, sq_step,
)

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
    "Expr",
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


def _node(name: str, *fields: str, doc: str | None = None) -> type:
    """An AST node class: the record (``series._Record``) of ``fields``, so
    two nodes are equal when their types and fields are."""
    namespace = {"__slots__": fields, "_fields": fields, "__doc__": doc, "__module__": __name__}
    return type(name, (_Record,), namespace)


Const = _node("Const", "value")
Var = _node("Var", doc="The independent variable x.")
XPow = _node("XPow", "power")
U = _node("U", doc="The dependent variable u.")
Deriv = _node("Deriv", "order")
Add = _node("Add", "left", "right")
Sub = _node("Sub", "left", "right")
Mul = _node("Mul", "left", "right")
Scale = _node("Scale", "factor", "child")
Pow = _node("Pow", "child", "power")
Exp = _node("Exp", "child")
Expr = Const | Var | XPow | U | Deriv | Add | Sub | Mul | Scale | Pow | Exp


# A slot of a lowered equation is a tuple (kind, param, args): ``kind`` is
# "u", "const", "xpow", "deriv", "add", "sub", "mul", "sq", "shift",
# "scale", "pow", "exp" or, in a whole-series operator, "in"; ``param`` is
# the literal, power, derivative order or factor (None when there is
# none); ``args`` are the indices of the operand slots, all below the
# slot's own index.
_Slot = tuple[str, float | int | None, tuple[int, ...]]

#: Slot kinds whose parameter is left out of a program's shape and passed
#: to its executor as an argument: a float literal, or an input's list.
_LITERAL_KINDS = ("const", "scale", "in")


def _program(rhs: Expr) -> tuple:
    """Check ``rhs`` and lower it to slots in topological order, the root
    last: their keys, its shape slots (the slots with their float literals
    left out) and those literals, and the highest derivative order it reads.

    Rejects the nodes the parser never produces (``Deriv(0)``, ``Pow(e,
    0)``, a negative ``XPow``, a power or order that is not an int, bools
    included, a literal that is not a finite number) with
    :class:`InvalidArgumentError`, and a non-node with ``TypeError``.
    Structurally equal subtrees share one slot: slots are hash-consed
    bottom up on their key (kind, parameter, operand slots), with floats
    keyed by ``float.hex`` so that 0.0 and -0.0 stay apart, as their
    products do. ``x`` is ``x^1``. A product with an ``x^p`` operand, p >=
    1, is a "shift" slot whose args are the left operand, the right
    operand and the other one, so ``x*u`` and ``u*x`` stay two slots and
    their product is not a square; a product with ``x^0`` is a "mul" slot,
    and a product of one slot with itself is a "sq" slot.
    ``pow(e, m)`` is the stages of :func:`~dtmseries.powers.power_chain`:
    "sq" and "mul" are products (so ``pow(e, 1)`` is ``e``'s own slot, and
    ``pow(u, 2)`` and ``pow(u, 3)`` share ``u``'s square), and "pow" is a
    "pow" slot, Miller's recurrence.

    The walk keeps its own stack, so a sum of thousands of terms costs no
    Python frame per term, and visits the nodes as a recursive walk would.
    """
    slots: list[_Slot] = []
    shape: list[_Slot] = []
    literals: list[float] = []
    index: dict[tuple, int] = {}
    top = 0

    def slot(kind: str, param: float | int | None = None, args: tuple[int, ...] = ()) -> int:
        literal = kind in _LITERAL_KINDS
        key = (kind, param.hex() if literal else param, args)
        i = index.setdefault(key, len(slots))
        if i == len(slots):
            slots.append((kind, param, args))
            shape.append((kind, None, args) if literal else slots[i])
            if literal:
                literals.append(param)
        return i

    def product(a: int, b: int) -> int:
        (left, p, _), (right, q, _) = slots[a], slots[b]
        if left == "xpow" and p:
            return slot("shift", p, (a, b, b))
        if right == "xpow" and q:
            return slot("shift", q, (a, b, a))
        return slot("sq", None, (a,)) if a == b else slot("mul", None, (a, b))

    # (node, its checked literal, whether its operands' slots are on ``done``)
    todo: list[tuple] = [(rhs, None, False)]
    done: list[int] = []
    while todo:
        e, literal, ready = todo.pop()
        t = type(e)
        if ready:
            a = done.pop()
            if t is Pow:
                power = a
                for op in power_chain(e.power):
                    if op == "pow":
                        power = slot("pow", e.power, (a,))
                    else:
                        power = product(power, power if op == "sq" else a)
                done.append(power)
            elif t is Mul:
                done[-1] = product(done[-1], a)
            elif t is Add or t is Sub:
                done[-1] = slot("add" if t is Add else "sub", None, (done[-1], a))
            else:
                done.append(slot("scale" if t is Scale else "exp", literal, (a,)))
        elif t is U:
            done.append(slot("u"))
        elif t is Const:
            done.append(slot("const", _finite_float(e.value, "literal")))
        elif t is Var or t is XPow:
            p = 1 if t is Var else _int(e.power, "x power")
            if p < 0:
                raise InvalidArgumentError("x power must be non-negative")
            done.append(slot("xpow", p))
        elif t is Deriv:
            if _int(e.order, "derivative order") < 1:
                raise InvalidArgumentError("derivative order must be positive")
            top = max(top, e.order)
            done.append(slot("deriv", e.order))
        elif t is Add or t is Sub or t is Mul:
            todo += [(e, None, True), (e.right, None, False), (e.left, None, False)]
        elif t is Scale:
            todo += [(e, _finite_float(e.factor, "literal"), True), (e.child, None, False)]
        elif t is Exp or t is Pow:
            if t is Pow and _int(e.power, "pow exponent") < 1:
                raise InvalidArgumentError("pow exponent must be positive")
            todo += [(e, None, True), (e.child, None, False)]
        else:
            raise TypeError(f"not an expression node: {e!r}")
    return tuple(index), tuple(shape), tuple(literals), top


class Equation(_Record):
    """Explicit equation D(u, lhs_order) = rhs, checked and lowered when it is built.

    Raises :class:`InvalidArgumentError` for an ``lhs_order`` that is not
    an int of at least 1, a node the parser never produces (``Deriv(0)``,
    ``Pow(e, 0)``, a negative ``XPow``, a ``Deriv``, ``XPow`` or ``Pow``
    whose integer field is not an int, ``True`` and 2.0 included) or a
    ``Const``/``Scale`` literal that is not a finite number (``10**400``,
    inf, NaN, ``"1"``, None), ``TypeError`` for a non-node, and
    :class:`ImplicitFormError` when the right-hand side reads D(u,j) with
    j >= lhs_order. So emitting R(k) reads solution coefficients of index
    below k + lhs_order, the one being produced.

    The one walk that checks the right-hand side also lowers it into an
    immutable program of slots (see :func:`_program`), which every plan of
    the equation runs. The equation keeps the program as its shape (the
    slots with their float literals left out, and lhs_order), which selects
    the compiled executor, and the tuple of those literals, which the
    executor takes as an argument. It is the record of ``lhs_order`` and
    ``rhs``, but equal, and hashed, by its order and slot keys, its hash
    computed once: ``rhs``'s spelling is ignored and floats compare by their
    bits, so ``-0.0 * u`` and ``0.0 * u`` differ, while ``pow(u, 1)`` and
    ``u`` are one equation.
    """

    _fields = ("lhs_order", "rhs")
    __slots__ = (*_fields, "_key", "_shape", "_literals", "_hash")

    def __init__(self, lhs_order: int, rhs: Expr):
        m = _int(lhs_order, "equation order")
        if m < 1:
            raise InvalidArgumentError("equation must isolate a derivative of order >= 1")
        keys, shape, literals, top = _program(rhs)
        if top >= m:
            raise ImplicitFormError(
                f"implicit form: right-hand side contains D(u,{top}) but the "
                f"left-hand side isolates order {m}"
            )
        super().__init__(m, rhs, (m, keys), (m, shape), literals, hash((m, keys)))

    def __eq__(self, other: object) -> bool:
        if type(other) is not Equation:
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self) -> int:
        return self._hash


# ----------------------------------------------------------------------
# Lexer / parser
# ----------------------------------------------------------------------

# A number, a name, a punctuation character (whose kind is itself), or any
# other non-space character, BAD; finditer skips the spaces between
# tokens, since no alternative matches one.
_TOKEN_RE = re.compile(
    r"(?P<NUMBER>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<NAME>[A-Za-z_][A-Za-z_0-9]*)"
    r"|[(),^*+\-=]"
    r"|(?P<BAD>\S)"
)

#: The fieldless nodes, one instance each.
_U, _VAR = U(), Var()

#: The deepest nesting of parentheses (grouping, ``exp(`` and ``pow(``)
#: that :func:`parse` accepts. Each level costs the parser three Python
#: frames, so 200 stay far inside CPython's default recursion limit, 1000.
_MAX_NESTING = 200


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, position) tokens of ``text``, closed by an END token."""
    tokens = [(m.lastgroup or m[0], m[0], m.start()) for m in _TOKEN_RE.finditer(text)]
    for kind, char, pos in tokens:
        if kind == "BAD":
            raise EquationSyntaxError(f"unexpected character {char!r}", pos)
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens by ``_i``, which never passes END.

    A numeric literal is a float until a product folds it into a ``Scale``
    or its term ends as a ``Const``. ``_depth`` counts the open expressions.
    """

    def __init__(self, tokens: list[tuple[str, str, int]]):
        self._tokens = tokens
        self._i = 0
        self._depth = 0

    def _error(self, what: str) -> EquationSyntaxError:
        _, text, pos = self._tokens[self._i]
        return EquationSyntaxError(f"expected {what}, got {text or 'end of input'!r}", pos)

    def _expect(self, text: str) -> None:
        # Only a NAME token can spell a name, and a punctuation token's
        # text is its kind, so the text alone identifies the token.
        if self._tokens[self._i][1] != text:
            raise self._error(repr(text))
        self._i += 1

    def _int(self, what: str) -> int:
        kind, text, pos = self._tokens[self._i]
        if kind != "NUMBER" or not text.isdigit():
            raise self._error(f"a non-negative integer for {what}")
        self._i += 1
        try:
            return int(text)
        except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
            raise EquationSyntaxError(f"{what} has too many digits ({len(text)})", pos) from None

    def _u_order(self, what: str) -> int:
        """Parse ``(u, INT)`` after a D; return INT."""
        for text in "(u,":
            self._expect(text)
        j = self._int(what)
        self._expect(")")
        return j

    def parse_equation(self) -> Equation:
        self._expect("D")
        m = self._u_order("the left-hand derivative order")
        if m < 1:
            # The order is the token before the closing ")".
            raise EquationSyntaxError(
                "left-hand derivative order must be at least 1", self._tokens[self._i - 2][2]
            )
        self._expect("=")
        rhs = self.expr()
        kind, text, pos = self._tokens[self._i]
        if kind != "END":
            raise EquationSyntaxError(f"unexpected trailing input {text!r}", pos)
        return Equation(m, rhs)

    def expr(self) -> Expr:
        tokens = self._tokens
        if self._depth > _MAX_NESTING:  # a nested expression follows its "("
            pos = tokens[self._i - 1][2]
            raise EquationSyntaxError(f"more than {_MAX_NESTING} nested parentheses", pos)
        self._depth += 1
        node = self.term()
        while (op := tokens[self._i][0]) == "+" or op == "-":
            self._i += 1
            node = (Add if op == "+" else Sub)(node, self.term())
        self._depth -= 1
        return node

    def term(self) -> Expr:
        a = self.factor()
        tokens = self._tokens
        while (tok := tokens[self._i])[0] == "*":
            self._i += 1
            b = self.factor()
            if type(a) is not float:
                a = Scale(b, a) if type(b) is float else Mul(a, b)
            elif type(b) is not float:
                a = Scale(a, b)
            elif not math.isfinite(a := a * b):
                raise EquationSyntaxError(
                    f"product of numeric literals is {a!r}, not a finite float", tok[2]
                )
        return Const(a) if type(a) is float else a

    def factor(self) -> Expr | float:
        tokens = self._tokens
        kind, text, pos = tokens[self._i]
        if kind == "NAME":
            self._i += 1
            if text == "u":
                return _U
            if text == "x":
                if tokens[self._i][0] != "^":
                    return _VAR
                self._i += 1
                return XPow(self._int("the power of x"))
            if text == "D":
                j = self._u_order("the derivative order")
                # The 0th derivative is the function itself.
                return _U if j == 0 else Deriv(j)
            if text != "pow" and text != "exp":
                raise EquationSyntaxError(f"unsupported operator {text!r}", pos)
            self._expect("(")
            child = self.expr()
            if text == "exp":
                self._expect(")")
                return Exp(child)
            self._expect(",")
            p = self._int("the exponent")
            self._expect(")")
            # pow(e, 0) folds to the constant one by the algebraic convention.
            return 1.0 if p == 0 else Pow(child, p)
        if kind == "(":
            self._i += 1
            node = self.expr()
            self._expect(")")
            # A parenthesized literal folds like a bare one.
            return node.value if type(node) is Const else node
        if kind == "+" or kind == "-":
            # A sign belongs to a numeric literal only.
            self._i += 1
            if tokens[self._i][0] != "NUMBER":
                raise self._error("a numeric literal after the sign")
            _, text, pos = tokens[self._i]
        elif kind != "NUMBER":
            raise self._error("a factor")
        self._i += 1
        value = float(text)
        if not math.isfinite(value):
            raise EquationSyntaxError(f"numeric literal {text!r} is not a finite float", pos)
        return -value if kind == "-" else value


def parse(text: str) -> Equation:
    """Parse the equation text into an :class:`Equation` AST.

    The last 128 texts parsed are remembered, so a repeated text returns
    the same immutable :class:`Equation` without being parsed again. An
    error is not remembered: a bad text raises afresh on every call. A
    text that is not a str, hashable or not, raises
    :class:`InvalidArgumentError` before the cache sees it.
    """
    if not isinstance(text, str):
        raise InvalidArgumentError(f"equation text must be a str, got {type(text).__name__}")
    return _parse_text(text)


@functools.lru_cache(maxsize=128)
def _parse_text(text: str) -> Equation:
    return _Parser(_tokenize(text)).parse_equation()


# ----------------------------------------------------------------------
# Printer (parse . format . parse is the identity on ASTs)
# ----------------------------------------------------------------------


def _operand(e: Expr, grouped: tuple[type, ...] = (Add, Sub, Mul, Scale)) -> list:
    # Parenthesized where it would not reparse as one operand: a sum or a
    # product as the right factor of *, a sum as the right operand of + or
    # -. A chain's left operands are printed in line (see format_expr).
    return ["(", (e,), ")"] if isinstance(e, grouped) else [(e,)]


def _pieces(e: Expr) -> list:
    # One node's text, left to right: strings, and the operands still to
    # print, each in a 1-tuple, so that a str in the tree is not text.
    if isinstance(e, (Add, Sub)):
        tail = []
        while isinstance(e, (Add, Sub)):
            tail.append((" + " if isinstance(e, Add) else " - ", e.right))
            e = e.left
        pieces = [(e,)]
        for op, right in reversed(tail):
            pieces += [op, *_operand(right, (Add, Sub))]
        return pieces
    if isinstance(e, (Mul, Scale)):
        tail = []
        while isinstance(e, Mul) or isinstance(e, Scale) and isinstance(e.child, (Mul, Scale)):
            if isinstance(e, Mul):
                tail.append(_operand(e.right))
                e = e.left
            else:
                tail.append([repr(e.factor)])
                e = e.child
        pieces = [f"{e.factor!r} * ", *_operand(e.child)] if isinstance(e, Scale) else _operand(e)
        for factor in reversed(tail):
            pieces += [" * ", *factor]
        return pieces
    if isinstance(e, Pow):
        return ["pow(", (e.child,), f", {e.power})"]
    if isinstance(e, Exp):
        return ["exp(", (e.child,), ")"]
    if isinstance(e, Const):
        return [repr(e.value)]
    if isinstance(e, Var):
        return ["x"]
    if isinstance(e, XPow):
        return [f"x^{e.power}"]
    if isinstance(e, U):
        return ["u"]
    if isinstance(e, Deriv):
        return [f"D(u,{e.order})"]
    raise TypeError(f"not an expression node: {e!r}")


def format_expr(e: Expr) -> str:
    """Render an AST back to equation-grammar text.

    The parser nests a chain of terms, or of factors, on the left, and
    folds a literal factor after the first into a ``Scale`` of the chain
    so far. So the left spine of a sum is printed as one chain of terms,
    and the left spine of a product, through such a ``Scale``, as one
    chain of factors with the literal in place: ``Scale(2.0, Mul(u, x))``
    prints as ``u * x * 2.0``. The tree is walked with an explicit stack,
    so a chain of thousands of operands, or a hand-built nest of thousands
    of ``exp``, ``pow`` or parenthesized operands, prints with no Python
    frame per node; a chain prints, and parses back to the same tree,
    with no parenthesis per operand. A non-node anywhere in the tree, a
    str included, raises ``TypeError``.
    """
    out = []
    todo: list = [(e,)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
        else:
            todo.extend(reversed(_pieces(item[0])))
    return "".join(out)


def format_equation(eq: Equation) -> str:
    if not isinstance(eq, Equation):
        raise InvalidArgumentError(f"equation must be an Equation, got {type(eq).__name__}")
    return f"D(u,{eq.lhs_order}) = {format_expr(eq.rhs)}"


# ----------------------------------------------------------------------
# Lowering and stepping
# ----------------------------------------------------------------------


class RecurrencePlan(_Record):
    """An equation and the truncation order it is solved to, a record.

    Building a plan checks that the equation is an :class:`Equation` and
    the order an int that must hold its lhs_order initial coefficients.
    The equation checked and lowered itself when it was built, so every
    plan is causal (emitting R(k) never reads a coefficient before it is
    produced) and shares its equation's immutable program. :func:`run`
    keeps all stepping state in the locals of one call, and shares only
    finished runs, so one plan may be shared and run concurrently. Plans
    are equal, and hash equal, when their equations and orders are.
    """

    __slots__ = _fields = ("equation", "order")

    def __init__(self, equation: Equation, order: int):
        if not isinstance(equation, Equation):
            raise InvalidArgumentError(
                f"equation must be an Equation, got {type(equation).__name__}"
            )
        m = equation.lhs_order
        if _int(order, "order") < m - 1:
            raise InvalidArgumentError(
                f"order {order} cannot hold the {m} initial coefficients U(0..{m - 1})"
            )
        _set_equation(self, equation)
        _set_order(self, order)

    @property
    def lhs_order(self) -> int:
        return self.equation.lhs_order


_set_equation, _set_order = RecurrencePlan._setters  # every lower builds a plan


def lower(equation: Equation, order: int) -> RecurrencePlan:
    """Lower an equation to a recurrence plan for the given truncation order."""
    return RecurrencePlan(equation, order)


#: The globals of every generated executor. The kernels of ``powers`` are
#: reached through their module at call time, so a function that rebinds
#: ``powers.exp_step`` or ``powers.miller_step`` (a tracer, a test) sees
#: every call. 0.0 and 1.0 are names, so the source holds no float at all.
_EXECUTOR_GLOBALS = {
    "NAN": math.nan,
    "ONE": 1.0,
    "ZERO": 0.0,
    "FLOAT_EXACT_INT": _FLOAT_EXACT_INT,
    "NonFiniteCoefficientError": NonFiniteCoefficientError,
    "div_exact": _div_exact,
    "exp": math.exp,
    "isfinite": math.isfinite,
    "mul_exact": _mul_exact,
    "mul_step": mul_step,
    "perm": math.perm,
    "powers": powers,
    "sq_step": sq_step,
}


def _int_source(n: int) -> str:
    """``n`` as a Python expression: its decimal literal, or, where it has
    more digits than ``str`` converts (``sys.get_int_max_str_digits``),
    ``int`` of its hexadecimal digits, which have no such limit."""
    try:
        return str(n)
    except ValueError:
        return f'int("{n:x}", 16)'


def _source(shape: tuple[int, tuple[_Slot, ...]]) -> str:
    """The Python source of the executor of one program shape.

    ``shape`` is (lhs_order, slots) with the parameters of "const",
    "scale" and "in" slots replaced by None; everything else in it is an
    integer checked when the program was built, or a name. The executor
    ``steps(u, n, literals, count)`` appends U(m..n) to the list u of the
    initial coefficients; ``literals`` holds those parameters in slot
    order, and every kernel adds its multiplies to ``count`` (if not
    None). Every integer is written by :func:`_int_source`. Slot i's
    coefficient at order k is the local ``v<i>``, left out where nothing
    reads it (a shift's x^p, and u read by shifts only). A
    slot gets a history only where it is read back: ``b<i>`` oldest first
    (the left operand of a product, a square's operand, the operand of a
    pow or a shift; u's is u itself, and an input's is its list) and
    ``r<i>`` newest first (the right operand of a product, a square's
    operand, the output of an exp or a pow), each shared by all its
    readers. A D(u,j) is perm(k + j, j) * U(k+j) and U(k+m) is R(k) /
    perm(k + m, m), each one line on FLOAT_EXACT_INT that rounds once (the
    local ``f`` or ``d`` holds the integer). A shift by x^p is the one line
    ``v = (0.0 + E(k-p) if k >= p else 0.0) if E(k) is finite else NaN``, which
    is the Cauchy coefficient's value where E(k) is finite and its NaN, 0 *
    E(k), where it is not; u needs no test, as every U(k) is checked finite
    before it is appended. An exp keeps dY in ``d<i>``. A pow keeps m in ``m<i>``,
    takes the first k with Y(k) != 0 as the valuation v, sets its start
    order ``s<i>`` = v*m and shift ``h<i>`` = v*(m-1), and from the start
    runs Miller's recurrence on ybar(j) = Y(k - h), kept in ``y<i>``;
    below it, it is 0.0.
    """
    m, program = shape
    forward: set[int] = set()
    backward: set[int] = set()
    read = {len(program) - 1}
    for i, (kind, _, args) in enumerate(program):
        if kind != "shift":
            read.update(args)
        elif program[args[2]][0] != "u":  # the finiteness test reads the operand
            read.add(args[2])
        if kind == "mul":
            forward.add(args[0])
            backward.add(args[1])
        elif kind == "sq":
            forward.add(args[0])
            backward.add(args[0])
        elif kind in ("pow", "shift"):  # the operand, other than x^p, is the last arg
            forward.add(args[-1])
        if kind in ("pow", "exp"):
            backward.add(i)
    # Forward histories of their own: u's is u, and an input's is its list.
    kept = {i for i in forward if program[i][0] not in ("u", "in")}

    def hist(i: int) -> str:
        kind = program[i][0]
        return "u" if kind == "u" else f"c{i}" if kind == "in" else f"b{i}"

    head = ["def steps(u, n, literals, count):"]
    literals = [f"c{i}" for i, (kind, _, _) in enumerate(program) if kind in _LITERAL_KINDS]
    if literals:
        head.append(f"    {', '.join(literals)}, = literals")
    head += [f"    b{i} = []" for i in sorted(kept)]
    head += [f"    r{i} = []" for i in sorted(backward)]
    body = []
    for i, (kind, p, args) in enumerate(program):
        # Only a u or x^p slot can go unread: any other is the root or an operand.
        if i not in read:
            continue
        v = f"v{i}"
        a = f"v{args[0]}" if args else ""
        if kind == "u":
            body.append(f"{v} = u[k]")
        elif kind == "in":
            body.append(f"{v} = c{i}[k]")
        elif kind == "const":
            body.append(f"{v} = c{i} if k == 0 else ZERO")
        elif kind == "xpow":
            body.append(f"{v} = ONE if k == {_int_source(p)} else ZERO")
        elif kind == "deriv":
            j = _int_source(p)
            body.append(f"{v} = f * u[k + {j}] if (f := perm(k + {j}, {j})) <= FLOAT_EXACT_INT"
                        f" else mul_exact(f, u[k + {j}])")
        elif kind == "add":
            body.append(f"{v} = {a} + v{args[1]}")
        elif kind == "sub":
            body.append(f"{v} = {a} - v{args[1]}")
        elif kind == "scale":
            body.append(f"{v} = c{i} * {a}")
        elif kind == "mul":
            body.append(f"{v} = mul_step({hist(args[0])}, r{args[1]}, k, count)")
        elif kind == "sq":
            body.append(f"{v} = sq_step({hist(args[0])}, r{args[0]}, k, count)")
        elif kind == "shift":
            e = args[2]
            j = _int_source(p)
            line = f"ZERO + {hist(e)}[k - {j}] if k >= {j} else ZERO"
            body.append(f"{v} = {line}" if program[e][0] == "u"
                        else f"{v} = ({line}) if isfinite(v{e}) else NAN")
        elif kind == "exp":
            head.append(f"    d{i} = []")
            body += ["if k:",
                     f"    d{i}.append(k * {a})",
                     f"    {v} = powers.exp_step(d{i}, r{i}, k, count)",
                     "else:",
                     f"    {v} = exp({a})"]
        else:
            head += [f"    m{i} = {_int_source(p)}", f"    s{i} = -1", f"    y{i} = []"]
            body += [f"if s{i} < 0 and {a} != ZERO:",
                     f"    s{i}, h{i} = k * m{i}, k * (m{i} - 1)",
                     f"if k >= s{i} >= 0:",
                     f"    y{i}.append({hist(args[0])}[k - h{i}])",
                     f"    {v} = (powers.miller_step(y{i}, r{i}, k - s{i}, m{i}, count) if k > s{i}"
                     f" else powers._int_pow(y{i}[0], m{i}, count))",
                     "else:",
                     f"    {v} = ZERO"]
        if i in kept:
            body.append(f"b{i}.append({v})")
        if i in backward:
            body.append(f"r{i}.insert(0, {v})")
    root = f"v{len(program) - 1}"
    lhs = _int_source(m)
    if m == 0:  # U(k) = R(k) / perm(k, 0) is R(k) exactly, -0.0 included
        body.append(f"value = {root}")
    else:  # U(k+m) = R(k) / perm(k+m, m)
        body.append(f"value = {root} / d if (d := perm(k + {lhs}, {lhs})) <= FLOAT_EXACT_INT"
                    f" else div_exact({root}, d)")
    body += [
        "if not isfinite(value):",
        f"    raise NonFiniteCoefficientError(k + {lhs})",
        "u.append(value)",
    ]
    return "\n".join(head + [
        "    try:",
        f"        for k in range(n - {lhs} + 1):",
        *(" " * 12 + line for line in body),
        "    except OverflowError:",
        f"        raise NonFiniteCoefficientError(k + {lhs}) from None",
        "",
    ])


@functools.lru_cache(maxsize=128)
def _executor(shape: tuple[int, tuple[_Slot, ...]]) -> Callable[..., None]:
    """The compiled executor of a program shape (see :func:`_source`)."""
    namespace = dict(_EXECUTOR_GLOBALS)
    exec(compile(_source(shape), "<dtmseries plan>", "exec"), namespace)
    return namespace["steps"]


@functools.lru_cache(maxsize=128)
def _longest_run(equation: Equation, bits: bytes) -> list[Series]:
    """The box of the longest run returned for ``equation`` from the initial
    coefficients whose C doubles are ``bits``; empty until one returns."""
    return []


#: Makes a box's check-then-replace one step, so a box only grows.
_LONGEST_RUN_LOCK = threading.Lock()


def run(plan: RecurrencePlan, initial: Sequence[float]) -> Series:
    """Step the plan from the initial coefficients U(0..m-1) to its order.

    The initial coefficients must be a sequence of m finite numbers,
    checked as a :class:`Series` checks its coefficients. The steps run in
    one generated function, the executor of the equation's shape (see the
    module docstring), which computes every slot once per order k in
    program order, so each reads operands that already hold coefficient
    k, and a subtree that occurs more than once is computed once.

    Each U(k) comes from lower orders only, so a run to order N holds the
    run to every order n <= N bit for bit. The longest run returned for
    each (equation, bits of the initial coefficients) is kept, for the
    last 128 such keys (``functools.lru_cache``): a plan at its order
    returns that :class:`Series` itself, and a plan below it the prefix,
    without stepping. The key holds the coefficients' bits, so (-0.0,)
    and (0.0,) are two keys, as the literals ``-0.0`` and ``0.0`` are two
    equations. A longer plan steps the executor from k = 0 and its run is
    kept in place of the shorter one. A run that raises keeps nothing,
    and raises afresh on every call. Two threads may both step a run not
    yet kept, to the same bits.

    Raises :class:`NonFiniteCoefficientError` naming the first order at
    which a coefficient stops being finite.
    """
    if not isinstance(plan, RecurrencePlan):
        raise InvalidArgumentError(f"plan must be a RecurrencePlan, got {type(plan).__name__}")
    m = plan.lhs_order
    try:
        given = len(initial)
    except TypeError:
        raise InvalidArgumentError(
            f"initial coefficients must be a sequence of numbers, got {initial!r}"
        ) from None
    if given != m:
        raise InvalidArgumentError(f"need {m} initial coefficients U(0..{m - 1}), got {given}")
    u = list(Series(initial).coeffs)
    equation, n = plan.equation, plan.order
    box = _longest_run(equation, array("d", u).tobytes())
    if box and len(longest := box[0]) > n:
        return longest if len(longest) == n + 1 else Series._checked(longest.coeffs[:n + 1])
    _executor(equation._shape)(u, n, equation._literals, None)
    result = Series._checked(u)
    with _LONGEST_RUN_LOCK:
        if not box or len(box[0]) < len(result):
            box[:] = [result]
    return result


#: The leaf of a whole-series operator: a slot that reads a given list.
_INPUT: _Slot = ("in", None, ())


@functools.lru_cache(maxsize=128)
def _whole_series(kind: str, m: int) -> Callable[..., None]:
    """The executor of one whole-series operator, compiled once per (kind, m).

    Its program has lhs_order 0, so U(k) is R(k), and its input slots are
    its only literals: "mul" of two inputs (two slots even for one list: a
    square is not bitwise a product), "exp" of one, or y^m of one, m >= 2,
    by the slots of ``pow(u, m)`` ("pow") or Miller's alone ("miller").
    """
    if kind == "mul":
        slots = (_INPUT, _INPUT, ("mul", None, (0, 1)))
    elif kind == "exp":
        slots = (_INPUT, ("exp", None, (0,)))
    elif kind == "miller":
        slots = (_INPUT, ("pow", m, (0,)))
    else:
        slots = (_INPUT, *_program(Pow(_U, m))[1][1:])
    return _executor((0, slots))


def _apply(kind: str, inputs: tuple, count: OpCount | None, m: int = 0) -> Series:
    """Run the :func:`_whole_series` operator ``(kind, m)`` over ``inputs``,
    lists of one length, adding its multiplies to ``count`` (if not None)."""
    u: list[float] = []
    _whole_series(kind, m)(u, len(inputs[0]) - 1, inputs, count)
    return Series._checked(u)
