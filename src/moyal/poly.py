"""Exact polynomial symbols on phase space and their star-product algebra.

A :class:`PhasePolynomial` is a finite sum of monomials ``c * q^a * p^b *
hbar^h`` with Gaussian-rational coefficients.  ``hbar`` is a formal central
variable: the deformation parameter rides along as an exponent and is never
given a numeric value inside the algebra.

The module-level operators implement the graded pieces of the star product

    f (*) g = sum_n hbar^n * star_n(f, g)

where ``star_n`` applies the n-th power of the mixed bidifferential operator
(derivatives in q acting left, p acting right, minus the transpose), and the
odd-sine bracket ladder ``bracket_2n`` whose weighted sum is the full bracket
of the deformed algebra.  On polynomial symbols every series terminates, so
all results here are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping

from .scalars import ExactScalar, HALF_I, I, ONE

__all__ = [
    "PhasePolynomial",
    "EvalPoint",
    "Q",
    "P",
    "HBAR",
    "star_n",
    "star_weight",
    "star_product",
    "poisson_bracket",
    "bracket_2n",
    "bracket_weight",
    "moyal_bracket",
    "hbar_component",
    "coherent_smooth",
    "parse_poly",
    "format_poly",
    "PolyParseError",
]

# monomial keys are (deg_q, deg_p, deg_hbar)
_Key = tuple[int, int, int]


class PhasePolynomial:
    """Polynomial in q, p and the formal deformation parameter hbar.

    Terms live in a dict keyed by exponent triples; zero coefficients are
    pruned on construction, so the zero polynomial has an empty dict and
    equality is plain dict equality.  Instances are immutable by convention.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[_Key, ExactScalar] | None = None):
        clean: dict[_Key, ExactScalar] = {}
        if terms:
            for key, coeff in terms.items():
                if not isinstance(coeff, ExactScalar):
                    coeff = ExactScalar(coeff)
                if coeff:
                    clean[key] = coeff
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "PhasePolynomial":
        return cls()

    @classmethod
    def constant(cls, c) -> "PhasePolynomial":
        return cls({(0, 0, 0): c if isinstance(c, ExactScalar) else ExactScalar(c)})

    @classmethod
    def monomial(cls, c, dq: int, dp: int, dh: int = 0) -> "PhasePolynomial":
        if dq < 0 or dp < 0 or dh < 0:
            raise ValueError("monomial exponents must be non-negative")
        return cls({(dq, dp, dh): c if isinstance(c, ExactScalar) else ExactScalar(c)})

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        res = PhasePolynomial.__new__(PhasePolynomial)
        res.terms = out
        return res

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        res = PhasePolynomial.__new__(PhasePolynomial)
        res.terms = {k: -c for k, c in self.terms.items()}
        return res

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            return self.scale(other)
        if not isinstance(other, PhasePolynomial):
            return NotImplemented
        out: dict[_Key, ExactScalar] = {}
        for (a1, b1, h1), c1 in self.terms.items():
            for (a2, b2, h2), c2 in other.terms.items():
                key = (a1 + a2, b1 + b2, h1 + h2)
                c = c1 * c2
                s = out.get(key)
                s = c if s is None else s + c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        res = PhasePolynomial.__new__(PhasePolynomial)
        res.terms = out
        return res

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        out = PhasePolynomial.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, c) -> "PhasePolynomial":
        if not isinstance(c, ExactScalar):
            c = ExactScalar(c)
        if not c:
            return PhasePolynomial.zero()
        res = PhasePolynomial.__new__(PhasePolynomial)
        res.terms = {k: v * c for k, v in self.terms.items()}
        return res

    # -- structure -------------------------------------------------------

    def conjugate(self) -> "PhasePolynomial":
        """Complex-conjugate the coefficients; q, p, hbar stay fixed."""
        res = PhasePolynomial.__new__(PhasePolynomial)
        res.terms = {k: c.conjugate() for k, c in self.terms.items()}
        return res

    def diff_q(self, n: int = 1) -> "PhasePolynomial":
        return self._diff(0, n)

    def diff_p(self, n: int = 1) -> "PhasePolynomial":
        return self._diff(1, n)

    def _diff(self, axis: int, n: int) -> "PhasePolynomial":
        if n < 0:
            raise ValueError("derivative order must be non-negative")
        if n == 0:
            return self
        out: dict[_Key, ExactScalar] = {}
        for key, c in self.terms.items():
            e = key[axis]
            if e < n:
                continue
            fall = 1
            for j in range(n):
                fall *= e - j
            new = list(key)
            new[axis] = e - n
            out[tuple(new)] = c * fall
        res = PhasePolynomial.__new__(PhasePolynomial)
        res.terms = out
        return res

    def degree_qp(self) -> int:
        """Total degree in (q, p), ignoring hbar.  -1 for the zero polynomial."""
        return max((a + b for (a, b, _h) in self.terms), default=-1)

    def hbar_degree(self) -> int:
        return max((h for (_a, _b, h) in self.terms), default=-1)

    def mul_hbar_power(self, k: int) -> "PhasePolynomial":
        if k == 0:
            return self
        res = PhasePolynomial.__new__(PhasePolynomial)
        res.terms = {(a, b, h + k): c for (a, b, h), c in self.terms.items()}
        return res

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def evaluate(self, q: float, p: float, hbar: float = 1.0) -> complex:
        """Numeric value at a point; exact coefficients round at the end."""
        acc = 0j
        for (a, b, h), c in self.terms.items():
            acc += complex(c) * (q ** a) * (p ** b) * (hbar ** h)
        return acc

    def eval_at(self, at: "EvalPoint") -> complex:
        return self.evaluate(at.q, at.p, at.hbar)

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<PhasePolynomial {format_poly(self)}>"


def _coerce_poly(x):
    if isinstance(x, PhasePolynomial):
        return x
    if isinstance(x, (int, Fraction, ExactScalar)):
        return PhasePolynomial.constant(x)
    return NotImplemented


Q = PhasePolynomial.monomial(1, 1, 0, 0)
P = PhasePolynomial.monomial(1, 0, 1, 0)
HBAR = PhasePolynomial.monomial(1, 0, 0, 1)


@dataclass(frozen=True)
class EvalPoint:
    """A numeric phase-space point with a positive hbar and free parameters."""

    q: float
    p: float
    hbar: float = 1.0
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (self.hbar > 0):
            raise ValueError("hbar must be positive")
        for v in (self.q, self.p, self.hbar, *self.params.values()):
            if not math.isfinite(v):
                raise ValueError("EvalPoint coordinates must be finite")

    def bindings(self) -> dict[str, float]:
        out = {"q": self.q, "p": self.p, "hbar": self.hbar}
        out.update(self.params)
        return out


# -- graded star product ------------------------------------------------


def _bidifferential(f: PhasePolynomial, g: PhasePolynomial, k: int) -> PhasePolynomial:
    """k-th power of the mixed bidifferential operator, unweighted:

        sum_j  C(k,j) (-1)^j  (d_q^{k-j} d_p^j f) (d_p^{k-j} d_q^j g)
    """
    acc = PhasePolynomial.zero()
    for j in range(k + 1):
        df = f.diff_q(k - j).diff_p(j)
        if df.is_zero:
            continue
        dg = g.diff_p(k - j).diff_q(j)
        if dg.is_zero:
            continue
        sign = -1 if j & 1 else 1
        acc = acc + (df * dg).scale(sign * math.comb(k, j))
    return acc


def star_weight(n: int) -> ExactScalar:
    """Weight (i/2)^n / n! of the grade-n star piece."""
    return (HALF_I ** n) * Fraction(1, math.factorial(n))


def bracket_weight(n: int) -> Fraction:
    """Sine-series weight (-1)^n / ((2n+1)! 4^n) of the grade-2n bracket piece."""
    return Fraction((-1) ** n, math.factorial(2 * n + 1) * 4 ** n)


def star_n(f: PhasePolynomial, g: PhasePolynomial, n: int) -> PhasePolynomial:
    """The n-th graded piece of the star product (hbar stripped off).

    star_0 is the pointwise product; star_1 is (i/2) times the Poisson
    bracket.  The grade-n piece is (1/n!) (i/2)^n times the n-th power of
    the mixed bidifferential operator.
    """
    if n < 0:
        raise ValueError("grade must be non-negative")
    if n == 0:
        return f * g
    return _bidifferential(f, g, n).scale(star_weight(n))


def star_product(f: PhasePolynomial, g: PhasePolynomial) -> PhasePolynomial:
    """Full star product of two polynomial symbols; exact and terminating.

    Grades above min(total (q,p)-degree of f, same of g) annihilate one of
    the factors, so the sum stops there.
    """
    n_max = min(f.degree_qp(), g.degree_qp())
    if n_max < 0:
        return PhasePolynomial.zero()
    acc = PhasePolynomial.zero()
    for n in range(n_max + 1):
        piece = star_n(f, g, n)
        if not piece.is_zero:
            acc = acc + piece.mul_hbar_power(n)
    return acc


def poisson_bracket(f: PhasePolynomial, g: PhasePolynomial) -> PhasePolynomial:
    return f.diff_q() * g.diff_p() - f.diff_p() * g.diff_q()


def bracket_2n(f: PhasePolynomial, g: PhasePolynomial, n: int) -> PhasePolynomial:
    """Grade-2n piece of the odd-sine bracket ladder.

    Applies the (2n+1)-th power of the bidifferential operator with the
    sine-series weight (-1)^n / ((2n+1)! 4^n); grade 0 recovers the Poisson
    bracket.  The full bracket is sum_n hbar^{2n} bracket_2n(f, g).
    """
    if n < 0:
        raise ValueError("grade must be non-negative")
    return _bidifferential(f, g, 2 * n + 1).scale(bracket_weight(n))


def moyal_bracket(f: PhasePolynomial, g: PhasePolynomial) -> PhasePolynomial:
    """Full deformed bracket; terminates on polynomial symbols.

    Satisfies i*hbar*moyal_bracket(f, g) == star_product(f, g) -
    star_product(g, f) identically in the formal hbar.
    """
    n_max = min(f.degree_qp(), g.degree_qp())
    if n_max < 0:
        return PhasePolynomial.zero()
    acc = PhasePolynomial.zero()
    n = 0
    while 2 * n + 1 <= n_max:
        piece = bracket_2n(f, g, n)
        if not piece.is_zero:
            acc = acc + piece.mul_hbar_power(2 * n)
        n += 1
    return acc


def hbar_component(f: PhasePolynomial, r: int) -> PhasePolynomial:
    """Coefficient polynomial of hbar^r (the hbar exponent is stripped)."""
    out = {
        (a, b, 0): c for (a, b, h), c in f.terms.items() if h == r
    }
    res = PhasePolynomial.__new__(PhasePolynomial)
    res.terms = out
    return res


def coherent_smooth(f: PhasePolynomial, m, omega) -> PhasePolynomial:
    """Gaussian smoothing that maps a symbol to its coherent-state average.

    Applies exp[(hbar/(4 m omega)) d_q^2 + (hbar m omega / 4) d_p^2] as a
    finite double sum; each derivative pair costs one power of the formal
    hbar.  m and omega must be positive rationals.
    """
    m = Fraction(m) if not isinstance(m, Fraction) else m
    omega = Fraction(omega) if not isinstance(omega, Fraction) else omega
    if m <= 0 or omega <= 0:
        raise ValueError("m and omega must be positive")
    a = Fraction(1, 4) / (m * omega)
    b = m * omega * Fraction(1, 4)
    acc = PhasePolynomial.zero()
    j = 0
    fj = f
    while not fj.is_zero:
        cj = a ** j / math.factorial(j)
        k = 0
        fjk = fj
        while not fjk.is_zero:
            w = cj * b ** k / math.factorial(k)
            acc = acc + fjk.scale(w).mul_hbar_power(j + k)
            fjk = fjk.diff_p(2)
            k += 1
        fj = fj.diff_q(2)
        j += 1
    return acc


# -- canonical text form ------------------------------------------------


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _fmt_rational(r: Fraction) -> str:
    if r.denominator == 1:
        return str(r.numerator) if r.numerator >= 0 else f"({r.numerator})"
    return f"({r.numerator}/{r.denominator})"


def _term_factors(c: ExactScalar, key: _Key) -> list[str]:
    a, b, h = key
    mono: list[str] = []
    for name, e in (("hbar", h), ("q", a), ("p", b)):
        if e == 1:
            mono.append(name)
        elif e >= 2:
            mono.append(f"{name}^{e}")
    factors: list[str] = []
    if c.im == 0:
        if not (c.re == 1 and mono):
            factors.append(_fmt_rational(c.re))
    elif c.re == 0:
        if c.im != 1:
            factors.append(_fmt_rational(c.im))
        factors.append("i")
    else:
        re_txt = _fmt_rational(c.re)
        im_txt = "i" if c.im == 1 else f"{_fmt_rational(c.im)}*i"
        factors.append(f"({re_txt} + {im_txt})")
    factors.extend(mono)
    return factors


def format_poly(f: PhasePolynomial) -> str:
    """Canonical text: terms in descending (deg_q, deg_p, deg_hbar) order."""
    if not f.terms:
        return "0"
    parts = []
    for key in sorted(f.terms, reverse=True):
        parts.append("*".join(_term_factors(f.terms[key], key)))
    return " + ".join(parts)


# parentheses nested deeper than this are refused by the parser
MAX_NESTING = 100
# and so is a term whose total degree in q, p and hbar would exceed this
MAX_DEGREE = 64


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise PolyParseError(f"expected '{ch}'", self.pos)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise PolyParseError("expected digits", start)
        return int(self.text[start:self.pos])

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalpha() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start:self.pos]


def parse_poly(text: str) -> PhasePolynomial:
    """Parse the canonical polynomial grammar back into exact form.

    Accepts sums/differences of terms, ``*`` products, ``^`` non-negative
    integer powers, rationals ``a/b``, the imaginary unit ``i`` and the
    variables ``q``, ``p``, ``hbar``.  Unknown names and trailing input
    raise :class:`PolyParseError` with a position.
    """
    sc = _Scanner(text)
    poly = _parse_sum(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise PolyParseError("unexpected trailing input", sc.pos)
    return poly


def _parse_sum(sc: _Scanner) -> PhasePolynomial:
    negate = False
    if sc.take("-"):
        negate = True
    else:
        sc.take("+")
    acc = _parse_product(sc)
    if negate:
        acc = -acc
    while True:
        ch = sc.peek()
        if ch == "+":
            sc.take("+")
            acc = acc + _parse_product(sc)
        elif ch == "-":
            sc.take("-")
            acc = acc - _parse_product(sc)
        else:
            return acc


def _degree(f: PhasePolynomial) -> int:
    """Total degree in q, p and hbar; 0 for constants and zero."""
    return max((a + b + h for (a, b, h) in f.terms), default=0)


def _parse_product(sc: _Scanner) -> PhasePolynomial:
    acc = _parse_power(sc)
    while sc.peek() == "*":
        pos = sc.pos
        sc.take("*")
        factor = _parse_power(sc)
        if _degree(acc) + _degree(factor) > MAX_DEGREE:
            raise PolyParseError(f"product of degree above {MAX_DEGREE}", pos)
        acc = acc * factor
    return acc


def _parse_power(sc: _Scanner) -> PhasePolynomial:
    base = _parse_atom(sc)
    if sc.peek() == "^":
        pos = sc.pos
        sc.take("^")
        exp = sc.integer()
        if _degree(base) * exp > MAX_DEGREE:
            raise PolyParseError(f"power of degree above {MAX_DEGREE}", pos)
        return base ** exp
    return base


def _parse_atom(sc: _Scanner) -> PhasePolynomial:
    ch = sc.peek()
    if ch == "(":
        sc.take("(")
        sc.depth += 1
        if sc.depth > MAX_NESTING:
            raise PolyParseError(f"nesting deeper than {MAX_NESTING}", sc.pos)
        inner = _parse_sum(sc)
        sc.expect(")")
        sc.depth -= 1
        return inner
    if ch.isdigit():
        num = sc.integer()
        if sc.peek() == "/":
            sc.take("/")
            den = sc.integer()
            if den == 0:
                raise PolyParseError("zero denominator", sc.pos)
            return PhasePolynomial.constant(Fraction(num, den))
        return PhasePolynomial.constant(num)
    if ch.isalpha():
        pos = sc.pos
        name = sc.name()
        if name == "q":
            return Q
        if name == "p":
            return P
        if name == "hbar":
            return HBAR
        if name == "i":
            return PhasePolynomial.constant(I)
        raise PolyParseError(f"unknown name '{name}'", pos)
    raise PolyParseError("expected a term", sc.pos)
