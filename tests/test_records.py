"""The package's values are records: immutable, equal and hashed by their type
and fields, with a repr that evaluates back, and pickle and deepcopy round
trips. ``OpCount`` is the one mutable value."""

import copy
import pickle

import pytest

import dtmseries
from dtmseries import (
    Add,
    BratuSolution,
    Const,
    Deriv,
    Equation,
    Exp,
    Mul,
    OpCount,
    Pow,
    RecurrencePlan,
    Scale,
    Series,
    Sub,
    U,
    Var,
    XPow,
    lower,
    parse,
    shoot,
)
from dtmseries.series import _Record

u = U()
EQUATION = parse("D(u,2) = -1*u*exp(u) + exp(u)")
RECORDS = {
    Const: Const(2.5),
    Var: Var(),
    XPow: XPow(3),
    U: u,
    Deriv: Deriv(2),
    Add: Add(u, Var()),
    Sub: Sub(u, Const(-0.0)),
    Mul: Mul(u, XPow(2)),
    Scale: Scale(-0.5, Exp(u)),
    Pow: Pow(u, 3),
    Exp: Exp(u),
    Equation: EQUATION,
    RecurrencePlan: lower(EQUATION, 12),
    BratuSolution: shoot(1.0, 10, "lower"),
    Series: Series([1.0, -0.5, 0.25]),
}
CLASSES = pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)


def test_every_record_class_is_checked():
    assert set(_Record.__subclasses__()) == set(RECORDS)


@CLASSES
def test_equal_and_hash_follow_the_fields(cls):
    x = RECORDS[cls]
    y = cls(*x._values())
    assert y is not x and y == x and hash(y) == hash(x)
    assert x != tuple(x._values()) and x != object()


def test_equal_and_hash_follow_the_type():
    assert Add(u, u) != Sub(u, u) and Mul(u, u) != Add(u, u)
    assert XPow(1) != Deriv(1)
    assert U() == U() and U() != Var()
    assert Const(0.0) == Const(-0.0) and hash(Const(0.0)) == hash(Const(-0.0))


def test_equation_equality_follows_the_program():
    a, b = parse("D(u,1) = pow(u,1)"), parse("D(u,1) = u")
    assert a.rhs != b.rhs
    assert a == b and hash(a) == hash(b)
    assert lower(a, 5) == lower(b, 5)
    assert parse("D(u,1) = -0.0*u") != parse("D(u,1) = 0.0*u")
    assert parse("D(u,1) = u") != parse("D(u,2) = u")


@CLASSES
def test_assignment_and_deletion_raise(cls):
    x = RECORDS[cls]
    for name in (*x._fields, "_other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == cls(*x._values())


@CLASSES
def test_repr_evaluates_back(cls):
    x = RECORDS[cls]
    assert repr(x).startswith(cls.__name__ + "(")
    assert eval(repr(x), vars(dtmseries)) == x


def test_repr_is_positional():
    assert repr(Series([1, 2])) == "Series((1.0, 2.0))"
    assert repr(Scale(-0.0, U())) == "Scale(-0.0, U())"


@CLASSES
@pytest.mark.parametrize("copier", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy,
                                    copy.copy], ids=["pickle", "deepcopy", "copy"])
def test_copies_round_trip(cls, copier):
    x = RECORDS[cls]
    y = copier(x)
    assert type(y) is cls and y == x and y._values() == x._values()


def test_fields_are_taken_by_position_only():
    with pytest.raises(TypeError):
        Const()
    with pytest.raises(TypeError):
        Scale(1.0)
    with pytest.raises(TypeError):
        Scale(factor=1.0, child=u)


def test_opcount_is_mutable_with_its_equality_and_repr():
    count = OpCount()
    assert count == OpCount(0) == OpCount(multiplies=0) and count != OpCount(1)
    count.multiplies += 3
    assert count == OpCount(3) and repr(count) == "OpCount(multiplies=3)"
    assert count != 3 and eval(repr(count), vars(dtmseries)) == count
    assert pickle.loads(pickle.dumps(count)) == count == copy.deepcopy(count)
    with pytest.raises(TypeError):
        hash(count)
