from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moyal.expr import ZERO, DerivTable, eval_expr, parse_expr
from moyal.poly import (
    HBAR,
    P,
    PhasePolynomial,
    PolyParseError,
    Q,
    bidifferential,
    bracket_2n,
    coherent_smooth,
    format_poly,
    hbar_component,
    moyal_bracket,
    parse_poly,
    poisson_bracket,
    star_n,
    star_product,
)
from moyal.scalars import ExactScalar

I_HBAR = PhasePolynomial.monomial(ExactScalar(0, 1), 0, 0, 1)


def mono(c, a, b, h=0):
    return PhasePolynomial.monomial(c, a, b, h)


@st.composite
def polys(draw, max_degree=4, max_terms=4, with_hbar=False):
    acc = PhasePolynomial.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        a = draw(st.integers(0, max_degree))
        b = draw(st.integers(0, max_degree - a))
        h = draw(st.integers(0, 2)) if with_hbar else 0
        c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
        acc = acc + mono(c, a, b, h)
    return acc


# -- printed forms frozen by hand --------------------------------------


def test_star_q_p():
    assert format_poly(star_product(Q, P)) == "q*p + (1/2)*i*hbar"


def test_star_q2_p2():
    got = format_poly(star_product(Q * Q, P * P))
    assert got == "q^2*p^2 + 2*i*hbar*q*p + (-1/2)*hbar^2"


def test_star_with_constant():
    one = PhasePolynomial.constant(1)
    cube = mono(1, 3, 0)
    assert star_product(one, cube) == cube
    assert format_poly(star_product(one, cube)) == "q^3"


def test_star_grades_q2_p2():
    q2, p2 = mono(1, 2, 0), mono(1, 0, 2)
    assert star_n(q2, p2, 0) == q2 * p2
    assert star_n(q2, p2, 1) == mono(ExactScalar(0, 2), 1, 1)
    assert star_n(q2, p2, 2) == PhasePolynomial.constant(Fraction(-1, 2))
    assert star_n(q2, p2, 3).is_zero


def test_bracket_ladder_q3_p3():
    q3, p3 = mono(1, 3, 0), mono(1, 0, 3)
    assert poisson_bracket(q3, p3) == mono(9, 2, 2)
    assert bracket_2n(q3, p3, 1) == PhasePolynomial.constant(Fraction(-3, 2))
    assert bracket_2n(q3, p3, 2).is_zero
    assert format_poly(moyal_bracket(q3, p3)) == "9*q^2*p^2 + (-3/2)*hbar^2"


def test_canonical_bracket():
    assert moyal_bracket(Q, P) == PhasePolynomial.constant(1)
    assert poisson_bracket(Q, P) == PhasePolynomial.constant(1)


def test_star_truncates_at_min_degree():
    # grades beyond the smaller total degree vanish identically
    f = mono(1, 2, 1)
    g = mono(1, 3, 4)
    assert star_n(f, g, 4).is_zero
    assert not star_n(f, g, 3).is_zero


# -- structural operations ---------------------------------------------


def test_diff():
    f = mono(Fraction(1, 2), 3, 1)
    assert f.diff_q() == mono(Fraction(3, 2), 2, 1)
    assert f.diff_p() == mono(Fraction(1, 2), 3, 0)
    assert PhasePolynomial.constant(7).diff_q().is_zero


def test_degree_and_grades():
    f = mono(1, 2, 1) + mono(1, 0, 0, 3)
    assert f.degree_qp() == 3
    assert f.hbar_degree() == 3
    assert PhasePolynomial.zero().degree_qp() == -1
    assert hbar_component(f, 3) == PhasePolynomial.constant(1)
    assert hbar_component(f, 1).is_zero


def test_evaluate():
    f = mono(Fraction(1, 2), 2, 0) + mono(1, 0, 1, 1)
    assert f.evaluate(2.0, 3.0, 0.5) == pytest.approx(2.0 + 1.5)


def test_conjugate_flips_i():
    f = mono(ExactScalar(0, 1), 1, 0)
    assert f.conjugate() == mono(ExactScalar(0, -1), 1, 0)


def test_coherent_smooth_gaussian_widths():
    # q^2 picks up hbar/(2 m omega), p^2 picks up (hbar m omega)/2
    got = coherent_smooth(mono(1, 2, 0), 1, 1)
    assert got == mono(1, 2, 0) + mono(Fraction(1, 2), 0, 0, 1)
    got = coherent_smooth(mono(1, 0, 2), 2, Fraction(1, 2))
    assert got == mono(1, 0, 2) + mono(Fraction(1, 2), 0, 0, 1)
    with pytest.raises(ValueError):
        coherent_smooth(Q, -1, 1)


# -- parsing -----------------------------------------------------------


def test_parse_examples():
    assert parse_poly("q*p + (1/2)*i*hbar") == star_product(Q, P)
    assert parse_poly("q^2") == mono(1, 2, 0)
    assert parse_poly("-q") == mono(-1, 1, 0)
    assert parse_poly("3") == PhasePolynomial.constant(3)
    assert parse_poly("(-3/2)*hbar^2") == mono(Fraction(-3, 2), 0, 0, 2)


def test_parse_nesting_budget():
    assert parse_poly("(" * 100 + "q" + ")" * 100) == Q
    with pytest.raises(PolyParseError) as err:
        parse_poly("(" * 3000 + "q" + ")" * 3000)
    assert err.value.position == 101


def test_parse_degree_budget():
    assert parse_poly("q^64") == mono(1, 64, 0)
    assert parse_poly("q^32*p^32") == mono(1, 32, 32)
    for text, position in (
        ("q^65", 1),
        ("(q*hbar)^33", 8),
        ("(q + p)^100000000", 7),
        ("q^32*p^33", 4),
        ("hbar^40 * q^30", 8),
    ):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text)
        assert err.value.position == position
        assert "degree above 64" in str(err.value)


def test_parse_division_by_constants():
    assert parse_poly("q/2") == mono(Fraction(1, 2), 1, 0)
    # a/b^n is a/(b^n), as in the expression grammar
    assert parse_poly("3/4^2") == PhasePolynomial.constant(Fraction(3, 16))
    assert parse_poly("2^-3*p") == mono(Fraction(1, 8), 0, 1)
    assert parse_poly("p^2/2 + q^4/24") == parse_poly("(1/2)*p^2 + (1/24)*q^4")
    for text, position, what in (
        ("q/p", 1, "non-constant"),
        ("q^-1", 1, "non-constant"),
        ("1/0", 1, "division by zero"),
        ("q/(p - p)", 1, "division by zero"),
    ):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text)
        assert err.value.position == position, text
        assert what in str(err.value)


def test_parse_error_carries_position():
    with pytest.raises(PolyParseError) as err:
        parse_poly("q + * p")
    assert err.value.position == 4
    with pytest.raises(PolyParseError):
        parse_poly("")
    with pytest.raises(PolyParseError):
        parse_poly("q^")


@settings(max_examples=60)
@given(polys(with_hbar=True))
def test_print_parse_roundtrip(f):
    text = format_poly(f)
    assert parse_poly(text) == f
    assert format_poly(parse_poly(text)) == text


# -- algebraic properties ----------------------------------------------


@settings(max_examples=40)
@given(polys(), polys(), polys())
def test_star_associative(f, g, h):
    assert star_product(star_product(f, g), h) == star_product(f, star_product(g, h))


@settings(max_examples=40)
@given(polys(), polys())
def test_star_commutator_is_i_hbar_bracket(f, g):
    comm = star_product(f, g) - star_product(g, f)
    assert comm == I_HBAR * moyal_bracket(f, g)


@settings(max_examples=40)
@given(polys(), polys())
def test_bracket_antisymmetric(f, g):
    assert moyal_bracket(f, g) == -moyal_bracket(g, f)


@settings(max_examples=40)
@given(polys())
def test_star_with_one_is_identity(f):
    one = PhasePolynomial.constant(1)
    assert star_product(one, f) == f
    assert star_product(f, one) == f


# -- the one bidifferential kernel -------------------------------------


@settings(max_examples=40, deadline=None)
@given(polys(), polys(), st.integers(0, 6))
def test_bidifferential_same_on_polynomials_expressions_and_floats(f, g, k):
    q0, p0 = 0.7, -1.3
    on_poly = bidifferential(f.derivative, g.derivative, k, PhasePolynomial.zero())
    fe, ge = parse_expr(format_poly(f)), parse_expr(format_poly(g))
    on_expr = bidifferential(DerivTable(fe).get, DerivTable(ge).get, k, ZERO)

    def at_point(h):
        return lambda a, b: h.derivative(a, b).evaluate(q0, p0).real

    on_float = bidifferential(at_point(f), at_point(g), k, 0.0)
    want = on_poly.evaluate(q0, p0).real
    assert eval_expr(on_expr, {"q": q0, "p": p0}).real == pytest.approx(want, rel=1e-12, abs=1e-9)
    assert on_float == pytest.approx(want, rel=1e-12, abs=1e-9)
    if k == 0:
        assert on_poly == f * g


def test_bidifferential_skips_the_second_factor_after_a_zero():
    asked = []

    def dg(a, b):
        asked.append((a, b))
        return P ** b

    # only d_q^2 of q^2 is non-zero, so dg is asked for (0, 2) alone
    got = bidifferential((Q * Q).derivative, dg, 2, PhasePolynomial.zero(), 3)
    assert asked == [(0, 2)]
    assert got == mono(6, 0, 2)


# -- digit runs and the coefficient budget -----------------------------


def test_parse_digit_run_limit():
    assert parse_poly("9" * 1000) == PhasePolynomial.constant(int("9" * 1000))
    for text, position in (("9" * 5000, 0), ("q^" + "9" * 5000, 2), ("1/" + "9" * 4301, 2)):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text)
        assert err.value.position == position
        assert "more than 4300 digits" in str(err.value)


def test_parse_coefficient_budget():
    top = 2 ** 4096 - 1
    assert parse_poly(str(top)) == PhasePolynomial.constant(top)
    assert parse_poly(f"(1/{top})*q + p") == mono(Fraction(1, top), 1, 0) + P
    assert parse_poly("2^2048*q") == mono(2 ** 2048, 1, 0)
    # coprime 3000-bit denominators: their common denominator has 6000 bits
    a, b = 2 ** 3000 + 1, 2 ** 3000 - 1
    for text, position, what in (
        (str(2 ** 4096), 0, "coefficients"),
        (f"(1/{a})*q + (1/{b})*p", 0, "coefficients"),
        (f"q*(1/{a} + 1/{b})", 3, "coefficients"),
        (f"q + (2*{2 ** 4095})", 6, "product with coefficients"),
        ("2^10000000", 1, "power with coefficients"),
        ("(3 + i)^4000", 7, "power with coefficients"),
        ("9" * 3000 + "*" + "9" * 3000, 3000, "product with coefficients"),
    ):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text)
        assert err.value.position == position, text
        assert f"{what} above 4096 bits" in str(err.value)
