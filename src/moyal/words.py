"""Formal star-monomial words, operator orderings, and the BCH identity.

A :class:`StarWord` is a scalar times a power of the formal hbar times a
sequence of polynomial letters to be star-multiplied left to right; a
:class:`StarExpression` is a finite sum of words.  Words keep operator
products unevaluated so that distinct orderings of the same symbol stay
distinguishable until :func:`expand` collapses them into the polynomial
algebra.

Two orderings of a (q, p)-polynomial are provided: the fully symmetrized
form (every interleaving of the letters, equally weighted) and the
symmetric-antinormal form (half all-q-left plus half all-q-right, applied
to a secant-corrected symbol).  Both expand back to the symbol they order,
which is checked property-style in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .poly import P, PhasePolynomial, Q, require_hbar_free, star_product
from .scalars import ExactScalar

__all__ = [
    "StarWord",
    "StarExpression",
    "expand",
    "weyl_symmetrize",
    "star_function_S",
    "sas_order",
    "bch_check",
    "BchReport",
    "MAX_BCH_ORDER",
    "format_word",
]

MAX_BCH_ORDER = 8


@dataclass(frozen=True)
class StarWord:
    """scalar * hbar^hbar_power * (letters[0] (*) letters[1] (*) ...)."""

    scalar: ExactScalar
    hbar_power: int
    letters: tuple[PhasePolynomial, ...]

    def expand(self) -> PhasePolynomial:
        acc = PhasePolynomial.constant(self.scalar).mul_hbar_power(self.hbar_power)
        for letter in self.letters:
            acc = star_product(acc, letter)
        return acc


@dataclass(frozen=True)
class StarExpression:
    words: tuple[StarWord, ...]

    def __add__(self, other: "StarExpression") -> "StarExpression":
        return StarExpression(self.words + other.words)

    def scale(self, c: ExactScalar) -> "StarExpression":
        return StarExpression(
            tuple(
                StarWord(w.scalar * c, w.hbar_power, w.letters) for w in self.words
            )
        )


def expand(e: StarExpression | StarWord) -> PhasePolynomial:
    """Collapse a word or a sum of words into the polynomial algebra."""
    if isinstance(e, StarWord):
        return e.expand()
    acc = PhasePolynomial.zero()
    for w in e.words:
        acc = acc + w.expand()
    return acc


def format_word(w: StarWord) -> str:
    """ASCII rendering like ``(1/3)*q**q**p``; ``**`` is the star."""
    parts = [] if w.scalar == 1 else [str(w.scalar)]
    if w.hbar_power == 1:
        parts.append("hbar")
    elif w.hbar_power >= 2:
        parts.append(f"hbar^{w.hbar_power}")
    body = "**".join(_letter_text(x) for x in w.letters)
    if body:
        parts.append(body)
    if not parts:
        return "1"
    return "*".join(parts)


def _letter_text(x: PhasePolynomial) -> str:
    if x == Q:
        return "q"
    if x == P:
        return "p"
    return f"({x})"


def weyl_symmetrize(n: int, m: int) -> StarExpression:
    """All interleavings of n q-letters and m p-letters, equally weighted.

    Expands to exactly q^n p^m: the deformation corrections of the
    individual words cancel in the symmetrized sum.
    """
    if n < 0 or m < 0:
        raise ValueError("letter counts must be non-negative")
    total = n + m
    weight = ExactScalar(Fraction(1, math.comb(total, n)))
    words = []
    for q_slots in combinations(range(total), n):
        q_set = set(q_slots)
        letters = tuple(Q if k in q_set else P for k in range(total))
        words.append(StarWord(weight, 0, letters))
    return StarExpression(tuple(words))


def star_function_S(f: PhasePolynomial) -> StarExpression:
    """Rewrite an hbar-free polynomial as its fully symmetrized word sum."""
    require_hbar_free(f, "the symbol of star_function_S")
    words: list[StarWord] = []
    for (a, b, _h), c in sorted(f.terms.items(), reverse=True):
        words.extend(weyl_symmetrize(a, b).scale(c).words)
    return StarExpression(tuple(words))


# exact secant-series coefficients s_k with sec x = sum_k s_k x^{2k},
# obtained by inverting the cosine series
def _sec_coefficients(upto: int) -> list[Fraction]:
    s = [Fraction(1)]
    for k in range(1, upto + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            acc += Fraction((-1) ** j, math.factorial(2 * j)) * s[k - j]
        s.append(-acc)
    return s


def sas_order(f: PhasePolynomial) -> StarExpression:
    """Symmetric-antinormal ordering of an hbar-free polynomial.

    First corrects the symbol with the secant of half the mixed second
    derivative (a finite series on polynomials), then writes each corrected
    term as half the all-q-left word plus half the all-q-right word.  The
    correction is exactly what makes the expansion reproduce f.
    """
    require_hbar_free(f, "the symbol of sas_order")
    # G = sec((hbar/2) d_q d_p) f, with hbar entering as a formal power;
    # the mixed-derivative ladder kills any polynomial, so the series is finite
    max_k = 0
    fk = f
    while fk:
        fk = fk.derivative(1, 1)
        if fk:
            max_k += 1
    sec = _sec_coefficients(max_k // 2)
    g = PhasePolynomial.zero()
    deriv = f
    for k2 in range(0, max_k // 2 + 1):
        if k2:
            deriv = deriv.derivative(2, 2)
            if not deriv:
                break
        w = sec[k2] / Fraction(4 ** k2)
        g = g + deriv.scale(w).mul_hbar_power(2 * k2)
    half = ExactScalar(Fraction(1, 2))
    words: list[StarWord] = []
    for (a, b, h), c in sorted(g.terms.items(), reverse=True):
        left = tuple([Q] * a + [P] * b)
        right = tuple([P] * b + [Q] * a)
        words.append(StarWord(c * half, h, left))
        words.append(StarWord(c * half, h, right))
    return StarExpression(tuple(words))


# -- BCH identity on plane-wave Taylor truncations -----------------------


@dataclass(frozen=True)
class BchReport:
    order: int
    passed: bool
    first_failing_grade: int | None


def bch_check(order: int) -> BchReport:
    """Verify the plane-wave composition law on Taylor truncations.

    Star-multiplies the truncated exponentials of i*xi*q and i*eta*p, scales
    by the phase exp(i*hbar*xi*eta/2), and compares against the truncated
    exponential of i*(xi*q + eta*p), all through total wave-number degree
    ``order``.  The wave numbers are not carried: every term has xi-degree
    a + h and eta-degree b + h, so the term q^a p^b hbar^h sits at total
    degree a + b + 2h.  Returns the first failing degree, None when all
    match.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > MAX_BCH_ORDER:
        raise ValueError(f"order capped at {MAX_BCH_ORDER}; higher truncations get slow")

    def series(keys) -> PhasePolynomial:
        # the q^a p^b hbar^h coefficient of every exponential here
        return PhasePolynomial({
            (a, b, h): ExactScalar(0, 1) ** (a + b + h)
            * Fraction(1, math.factorial(a) * math.factorial(b) * math.factorial(h) * 2 ** h)
            for a, b, h in keys
        })

    # q^a (*) p^b stays at degree a + b, so each power of q meets only the
    # powers of p inside the budget
    lhs = PhasePolynomial.zero()
    for a in range(order + 1):
        right = series((0, b, 0) for b in range(order + 1 - a))
        lhs = lhs + star_product(series([(a, 0, 0)]), right)
    phase = series((0, 0, h) for h in range(order // 2 + 1))
    combined = series((a, b, 0) for a in range(order + 1) for b in range(order + 1 - a))
    diff = lhs * phase - combined
    grades = {a + b + 2 * h for (a, b, h) in diff.terms}
    first = min((g for g in grades if g <= order), default=None)
    return BchReport(order=order, passed=first is None, first_failing_grade=first)
