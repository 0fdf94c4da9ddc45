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
from typing import Mapping

from .scalars import ExactScalar, HALF_I, I

__all__ = [
    "PhasePolynomial",
    "EvalPoint",
    "Q",
    "P",
    "HBAR",
    "bidifferential",
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
            n >>= 1
            if n:
                base = base * base
        return out

    def scale(self, c) -> "PhasePolynomial":
        if c == 1:
            return self
        if c == -1:
            return -self
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

    def derivative(self, a: int, b: int) -> "PhasePolynomial":
        """d_q^a d_p^b of the polynomial."""
        return self._diff(0, a)._diff(1, b)

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


def bidifferential(df, dg, k: int, zero, weight=1):
    """k-th power of the mixed bidifferential operator, times ``weight``:

        sum_j  weight C(k,j) (-1)^j  df(k-j, j) dg(j, k-j)

    where ``df(a, b)`` and ``dg(a, b)`` return d_q^a d_p^b of the left and
    the right factor.  Works on any values that add and multiply
    (polynomials, expressions, floats); terms are added to ``zero`` in j
    order, and a term stops at its first factor equal to ``zero``, so the
    second is never computed.
    """
    acc = zero
    for j in range(k + 1):
        left = df(k - j, j)
        if left == zero:
            continue
        right = dg(j, k - j)
        if right == zero:
            continue
        acc = acc + weight * (math.comb(k, j) * (-1 if j & 1 else 1)) * left * right
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
    return bidifferential(f.derivative, g.derivative, n, PhasePolynomial.zero(), star_weight(n))


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
    return bidifferential(f.derivative, g.derivative, 1, PhasePolynomial.zero())


def bracket_2n(f: PhasePolynomial, g: PhasePolynomial, n: int) -> PhasePolynomial:
    """Grade-2n piece of the odd-sine bracket ladder.

    Applies the (2n+1)-th power of the bidifferential operator with the
    sine-series weight (-1)^n / ((2n+1)! 4^n); grade 0 recovers the Poisson
    bracket.  The full bracket is sum_n hbar^{2n} bracket_2n(f, g).
    """
    if n < 0:
        raise ValueError("grade must be non-negative")
    return bidifferential(
        f.derivative, g.derivative, 2 * n + 1, PhasePolynomial.zero(), bracket_weight(n)
    )


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


def _term_factors(key: _Key) -> list[str]:
    a, b, h = key
    mono: list[str] = []
    for name, e in (("hbar", h), ("q", a), ("p", b)):
        if e == 1:
            mono.append(name)
        elif e >= 2:
            mono.append(f"{name}^{e}")
    return mono


def format_poly(f: PhasePolynomial) -> str:
    """Canonical text: terms in descending (deg_q, deg_p, deg_hbar) order."""
    if not f.terms:
        return "0"
    parts = []
    for key in sorted(f.terms, reverse=True):
        c, mono = f.terms[key], _term_factors(key)
        parts.append("*".join(mono if c == 1 and mono else [str(c), *mono]))
    return " + ".join(parts)


# both parsers refuse parentheses nested deeper than this
MAX_NESTING = 100
# and a digit run longer than this (Python's limit for turning text into an int)
MAX_DIGITS = 4300
# parsed polynomials refuse a term whose total degree in q, p and hbar
# would exceed this
MAX_DEGREE = 64
# and coefficients that need more bits than this (see coeff_bits), checked
# after every sum and product and, from the base's bits times the exponent,
# before every power; constant powers in parsed expressions obey it too
MAX_COEFF_BITS = 4096


def coeff_bits(*coeffs: ExactScalar) -> int:
    """Bit length of the common denominator of ``coeffs``, or of the longest
    numerator over that denominator if it is longer.

    Bounding it bounds every coefficient of a product or star product of two
    such polynomials by about twice as many bits.
    """
    parts = [r for c in coeffs for r in (c.re, c.im)]
    den = math.lcm(*(r.denominator for r in parts))
    return max([den.bit_length()] + [(r.numerator * (den // r.denominator)).bit_length() for r in parts])


class _Parser:
    """The one text grammar, read by recursive descent:

        sum     := ['+' | '-'] product (('+' | '-') product)*
        product := power (('*' | '/') power)*
        power   := atom ['^' ['-'] digits]
        atom    := digits | name | function '(' sum ')' | '(' sum ')'

    so ``a/b^n`` is a/(b^n).  Sums, differences, products and negation use
    the values' own ``+``, ``-``, ``*`` and unary ``-``; a builder subclass
    supplies the hooks ``number(n)``, ``symbol(name, pos)``,
    ``call(fn, arg)``, ``power(base, exp, pos)``, ``product(acc, factor,
    pos)`` and ``checked_sum(acc, pos)``, where ``pos`` is the position of
    the operator, or of the start of the sum.  ``a/b`` is built as
    ``product(a, power(b, -1, pos), pos)``.  Names in ``FUNCTIONS`` are
    function calls.  Errors are raised as ``error(message, position)``.
    """

    FUNCTIONS: tuple[str, ...] = ()

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def parse(self):
        """The value of the whole text."""
        value = self.parse_sum()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("unexpected trailing input", self.pos)
        return value

    # -- grammar ---------------------------------------------------------

    def parse_sum(self):
        self.skip_ws()
        start = self.pos
        if self.take("-"):
            acc = -self.parse_product()
        else:
            self.take("+")
            acc = self.parse_product()
        while True:
            if self.take("+"):
                acc = acc + self.parse_product()
            elif self.take("-"):
                acc = acc - self.parse_product()
            else:
                return self.checked_sum(acc, start)

    def parse_product(self):
        acc = self.parse_power()
        while True:
            self.skip_ws()
            pos = self.pos
            if self.take("*"):
                acc = self.product(acc, self.parse_power(), pos)
            elif self.take("/"):
                acc = self.product(acc, self.power(self.parse_power(), -1, pos), pos)
            else:
                return acc

    def parse_power(self):
        base = self.parse_atom()
        self.skip_ws()
        pos = self.pos
        if self.take("^"):
            return self.power(base, self.integer(signed=True), pos)
        return base

    def parse_atom(self):
        ch = self.peek()
        start = self.pos
        if self.take("("):
            return self.group()
        if ch.isdecimal():
            return self.number(self.integer())
        if ch.isalpha():
            name = self.name()
            if name not in self.FUNCTIONS:
                return self.symbol(name, start)
            if not self.take("("):
                raise self.error(f"function '{name}' requires an argument", self.pos)
            return self.call(name, self.group())
        raise self.error("expected a term", start)

    def group(self):
        """The sum inside a group whose '(' was just taken, and its ')'."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING}", self.pos)
        inner = self.parse_sum()
        if not self.take(")"):
            raise self.error("expected ')'", self.pos)
        self.depth -= 1
        return inner

    # -- characters ------------------------------------------------------

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

    def integer(self, signed: bool = False) -> int:
        """A run of decimal digits, with a leading '-' if ``signed``."""
        self.skip_ws()
        neg = signed and self.text.startswith("-", self.pos)
        self.pos += neg
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected digits", start)
        if self.pos - start > MAX_DIGITS:
            raise self.error(f"integer of more than {MAX_DIGITS} digits", start)
        v = int(self.text[start:self.pos])
        return -v if neg else v

    def name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalpha() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start:self.pos]


def _degree(f: PhasePolynomial) -> int:
    """Total degree in q, p and hbar; 0 for constants and zero."""
    return max((a + b + h for (a, b, h) in f.terms), default=0)


class _PolyParser(_Parser):
    """Builds a :class:`PhasePolynomial` under the degree and coefficient
    budgets.  It knows the names q, p, hbar and i and no functions; only a
    constant can be divided by or raised to a negative power."""

    error = PolyParseError
    _NAMES = {"q": Q, "p": P, "hbar": HBAR, "i": PhasePolynomial.constant(I)}

    def number(self, n: int) -> PhasePolynomial:
        return PhasePolynomial.constant(n)

    def symbol(self, name: str, pos: int) -> PhasePolynomial:
        if name not in self._NAMES:
            raise self.error(f"unknown name '{name}'", pos)
        return self._NAMES[name]

    def power(self, base: PhasePolynomial, exp: int, pos: int) -> PhasePolynomial:
        if exp < 0:
            if _degree(base):
                raise self.error("division by or negative power of a non-constant", pos)
            if not base:
                raise self.error("division by zero", pos)
            base, exp = PhasePolynomial.constant(1 / base.terms[(0, 0, 0)]), -exp
        if _degree(base) * exp > MAX_DEGREE:
            raise self.error(f"power of degree above {MAX_DEGREE}", pos)
        if coeff_bits(*base.terms.values()) * exp > MAX_COEFF_BITS:
            raise self.error(f"power with coefficients above {MAX_COEFF_BITS} bits", pos)
        return base ** exp

    def product(self, acc: PhasePolynomial, factor: PhasePolynomial, pos: int) -> PhasePolynomial:
        if _degree(acc) + _degree(factor) > MAX_DEGREE:
            raise self.error(f"product of degree above {MAX_DEGREE}", pos)
        out = acc * factor
        if coeff_bits(*out.terms.values()) > MAX_COEFF_BITS:
            raise self.error(f"product with coefficients above {MAX_COEFF_BITS} bits", pos)
        return out

    def checked_sum(self, acc: PhasePolynomial, pos: int) -> PhasePolynomial:
        if coeff_bits(*acc.terms.values()) > MAX_COEFF_BITS:
            raise self.error(f"coefficients above {MAX_COEFF_BITS} bits", pos)
        return acc


def parse_poly(text: str) -> PhasePolynomial:
    """Parse the polynomial grammar back into exact form.

    Accepts sums/differences of terms, ``*`` products, ``/`` division by a
    constant, ``^`` integer powers (negative ones of constants only), the
    imaginary unit ``i`` and the variables ``q``, ``p``, ``hbar``; ``a/b^n``
    is a/(b^n).  Unknown names, trailing input and results over the degree
    or the coefficient budget raise :class:`PolyParseError` with a position.
    """
    return _PolyParser(text).parse()
