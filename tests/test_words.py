from fractions import Fraction
from math import comb

import pytest

from moyal import words
from moyal.poly import PhasePolynomial, format_poly, star_product
from moyal.scalars import ExactScalar
from moyal.words import (
    bch_check,
    expand,
    format_word,
    sas_order,
    star_function_S,
    weyl_symmetrize,
)

mono = PhasePolynomial.monomial


def test_symmetrize_q2p():
    e = weyl_symmetrize(2, 1)
    assert [format_word(w) for w in e.words] == [
        "(1/3)*q**q**p",
        "(1/3)*q**p**q",
        "(1/3)*p**q**q",
    ]
    assert expand(e) == mono(1, 2, 1)


def test_symmetrize_word_counts():
    for n, m in [(0, 0), (1, 0), (3, 2), (4, 4)]:
        e = weyl_symmetrize(n, m)
        assert len(e.words) == comb(n + m, n)
        assert expand(e) == mono(1, n, m)


def test_star_function_of_polynomial():
    f = mono(Fraction(1, 2), 2, 1) + mono(-3, 0, 2)
    assert expand(star_function_S(f)) == f


def test_star_function_rejects_hbar():
    with pytest.raises(ValueError, match="must be hbar-free"):
        star_function_S(mono(1, 0, 0, 1))
    with pytest.raises(ValueError, match="must be hbar-free"):
        sas_order(mono(1, 2, 1) + mono(3, 1, 0, 2))


def test_sas_q2p_is_half_and_half():
    s = sas_order(mono(1, 2, 1))
    assert [format_word(w) for w in s.words] == [
        "(1/2)*q**q**p",
        "(1/2)*p**q**q",
    ]
    assert expand(s) == mono(1, 2, 1)


def test_sas_q2p2_needs_secant_correction():
    s = sas_order(mono(1, 2, 2))
    texts = [format_word(w) for w in s.words]
    assert texts == [
        "(1/2)*q**q**p**p",
        "(1/2)*p**p**q**q",
        "(1/4)*hbar^2",
        "(1/4)*hbar^2",
    ]
    assert expand(s) == mono(1, 2, 2)


def test_sas_identity_degree_grid():
    for n in range(7):
        for m in range(7 - n):
            f = mono(1, n, m)
            assert expand(sas_order(f)) == f


def test_sas_linear_combination():
    f = mono(Fraction(2, 3), 3, 2) + mono(-1, 1, 4)
    assert expand(sas_order(f)) == f


def test_expand_is_linear():
    a = weyl_symmetrize(1, 1)
    b = weyl_symmetrize(0, 2)
    together = a + b.scale(ExactScalar(Fraction(1, 2)))
    assert expand(together) == mono(1, 1, 1) + mono(Fraction(1, 2), 0, 2)


def test_bch_small_orders():
    for order in range(1, 5):
        rep = bch_check(order)
        assert rep.passed, rep.first_failing_grade
        assert rep.order == order


def test_bch_check_reads_the_star_product(monkeypatch):
    # a star product missing its hbar^2 grade must fail the composition law
    # at the first degree that grade reaches, q^2 (*) p^2 at degree 4
    def without_hbar2(f, g):
        full = star_product(f, g)
        return PhasePolynomial({k: c for k, c in full.terms.items() if k[2] != 2})

    monkeypatch.setattr(words, "star_product", without_hbar2)
    assert bch_check(3).passed
    for order in range(4, 9):
        assert bch_check(order).first_failing_grade == 4


def test_bch_order_cap():
    with pytest.raises(ValueError):
        bch_check(9)
    with pytest.raises(ValueError):
        bch_check(0)


def test_word_format_shows_hbar_power():
    s = sas_order(mono(1, 2, 2))
    constant_words = [w for w in s.words if not w.letters]
    assert len(constant_words) == 2
    assert all(w.hbar_power == 2 for w in constant_words)
    assert format_poly(expand(constant_words[0])) == "(1/4)*hbar^2"
