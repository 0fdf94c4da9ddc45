from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from moyal.scalars import HALF_I, I, ONE, ZERO, ExactScalar

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)
scalars = st.builds(ExactScalar, rationals, rationals)


def test_construction_coerces():
    assert ExactScalar(2) == ExactScalar(Fraction(2), Fraction(0))
    assert ExactScalar(Fraction(1, 3)).re == Fraction(1, 3)
    assert ExactScalar(0, 1) == I


def test_arithmetic_small_values():
    a = ExactScalar(Fraction(1, 2), Fraction(1, 3))
    b = ExactScalar(Fraction(-1, 4), 2)
    assert a + b == ExactScalar(Fraction(1, 4), Fraction(7, 3))
    assert a - a == ZERO
    assert a * ONE == a
    assert I * I == ExactScalar(-1)


def test_division_exact():
    a = ExactScalar(3, 4)
    assert a / a == ONE
    assert (ONE / I) == -I
    assert ExactScalar(1, 1) / ExactScalar(1, -1) == I


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_pow():
    assert I ** 2 == ExactScalar(-1)
    assert I ** 103 == -I
    assert ExactScalar(Fraction(1, 2)) ** -2 == ExactScalar(4)
    assert HALF_I ** 2 == ExactScalar(Fraction(-1, 4))


def test_conjugate_and_reality():
    a = ExactScalar(Fraction(2, 7), Fraction(-3, 5))
    assert a.conjugate().im == Fraction(3, 5)
    assert (a * a.conjugate()).im == 0
    assert ExactScalar(5).im == 0
    assert I.im != 0


def test_int_interop():
    assert 2 * HALF_I == I
    assert ExactScalar(3) + 1 == ExactScalar(4)
    assert 1 - ExactScalar(3) == ExactScalar(-2)
    assert Fraction(1, 2) * ExactScalar(2) == ONE


def test_hash_matches_plain_rational():
    assert hash(ExactScalar(Fraction(3, 7))) == hash(Fraction(3, 7))
    assert ExactScalar(Fraction(3, 7)) == Fraction(3, 7)


def test_text_is_the_printers_coefficient_text():
    texts = [
        str(ExactScalar(3)),
        str(ExactScalar(-3)),
        str(ExactScalar(Fraction(-1, 2))),
        str(I),
        str(ExactScalar(0, Fraction(2, 3))),
        str(ExactScalar(Fraction(1, 2), 1)),
        str(ExactScalar(-1, -1)),
    ]
    assert texts == ["3", "(-3)", "(-1/2)", "i", "(2/3)*i", "((1/2) + i)", "((-1) + (-1)*i)"]


def test_complex_conversion():
    z = complex(ExactScalar(Fraction(1, 2), Fraction(-1, 4)))
    assert z == 0.5 - 0.25j


def test_bool():
    assert not ZERO
    assert ONE
    assert I


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert a + (b + c) == (a + b) + c
    assert a * (b * c) == (a * b) * c
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_multiplicative_inverse(a):
    if a:
        assert a * (ONE / a) == ONE


@given(scalars, scalars)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
