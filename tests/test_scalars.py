from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from moyal.expr import Const, add, const, mul
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


# -- the real-only fast paths against the general formulas ---------------


def _parts(x):
    """(re, im) of an operand as the general formulas read it."""
    if isinstance(x, ExactScalar):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def _add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def _mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _div(x, y):
    d = y[0] * y[0] + y[1] * y[1]
    if d == 0:
        raise ZeroDivisionError
    return (x[0] * y[0] + x[1] * y[1]) / d, (x[1] * y[0] - x[0] * y[1]) / d


def _pow(x, n):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        out = _mul(out, x)
    return out if n >= 0 else _div((Fraction(1), Fraction(0)), out)


def _agrees(got, want):
    assert type(got) is ExactScalar
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert (got.re, got.im) == want


# the imaginary part is zero in about half of the draws
half_real = st.builds(ExactScalar, rationals, st.one_of(st.just(0), rationals))
plain = st.one_of(st.integers(-20, 20), rationals, st.booleans())


@given(half_real, st.one_of(half_real, plain), st.booleans(), st.integers(-4, 5))
def test_arithmetic_matches_the_general_formulas(a, b, swap, n):
    x, y = (b, a) if swap else (a, b)
    px, py = _parts(x), _parts(y)
    for op, ref in (
        (lambda u, v: u + v, _add),
        (lambda u, v: u - v, _sub),
        (lambda u, v: u * v, _mul),
        (lambda u, v: u / v, _div),
    ):
        try:
            want = ref(px, py)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                op(x, y)
            continue
        _agrees(op(x, y), want)
    _agrees(-a, (-a.re, -a.im))
    _agrees(a.conjugate(), (a.re, -a.im))
    if a or n >= 0:
        _agrees(a ** n, _pow(_parts(a), n))
    else:
        with pytest.raises(ZeroDivisionError):
            a ** n
    assert (x == y) is (px == py)
    assert (x != y) is (px != py)
    assert bool(a) is (a.re != 0 or a.im != 0)
    assert hash(a) == hash(ExactScalar(a.re, a.im))
    if a.im == 0:
        assert hash(a) == hash(a.re)


@given(rationals)
def test_real_scalars_hash_as_their_rational(r):
    assert hash(ExactScalar(r)) == hash(r)
    assert hash(ExactScalar(r) * ExactScalar(r)) == hash(r * r)
    if r.denominator == 1:
        assert hash(ExactScalar(r)) == hash(int(r))


def test_floats_are_not_coerced():
    assert (ExactScalar(1) == 1.0) is False
    assert (ExactScalar(1) != 1.0) is True
    assert (1.0 == ONE) is False
    assert ExactScalar(1) == True  # noqa: E712 - bool is an int
    with pytest.raises(TypeError):
        ONE + 1.0


@given(half_real)
def test_equal_constant_nodes_hash_equally(a):
    built = add(const(a), const(ExactScalar(0, 1)), const(ExactScalar(0, -1)))
    twice = mul(const(a * 2), const(Fraction(1, 2)))
    for node in (built, twice, Const(ExactScalar(a.re, a.im))):
        assert node == const(a)
        assert hash(node) == hash(const(a))
