"""Reference exact arithmetic for the exact-algebra oracles, written apart
from ``moyal``.

A polynomial is a dict mapping (deg_q, deg_p, deg_hbar) to a coefficient
pair (re, im) of Fractions; zero coefficients are never stored.  The star
product and bracket are built monomial by monomial from the closed form of
the bidifferential operator on q^a p^b and q^c p^d, not by differentiating
whole polynomials as the package does.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

ZERO = Fraction(0)

# i^k as (re, im)
_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _falling(n: int, k: int) -> int:
    out = 1
    for j in range(k):
        out *= n - j
    return out


def _accumulate(acc: dict, key, re, im) -> None:
    old = acc.get(key)
    if old is not None:
        re += old[0]
        im += old[1]
    if re or im:
        acc[key] = (re, im)
    elif old is not None:
        del acc[key]


def from_program(poly) -> dict:
    """The reference form of a ``PhasePolynomial``."""
    return {key: (c.re, c.im) for key, c in poly.terms.items()}


def monomial(c, a: int, b: int, h: int = 0) -> dict:
    c = Fraction(c)
    return {(a, b, h): (c, ZERO)} if c else {}


def add(f: dict, g: dict, scale=1) -> dict:
    """f + scale * g for a rational scale."""
    out = dict(f)
    for key, (re, im) in g.items():
        _accumulate(out, key, re * scale, im * scale)
    return out


def mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (a, b, h), (fr, fi) in f.items():
        for (c, d, k), (gr, gi) in g.items():
            _accumulate(out, (a + c, b + d, h + k), fr * gr - fi * gi, fr * gi + fi * gr)
    return out


def linear(form) -> dict:
    """alpha*q + beta*p + gamma for form = (alpha, beta, gamma)."""
    alpha, beta, gamma = form
    return add(add(monomial(alpha, 1, 0), monomial(beta, 0, 1)), monomial(gamma, 0, 0))


def power(f: dict, n: int) -> dict:
    out = monomial(1, 0, 0)
    for _ in range(n):
        out = mul(out, f)
    return out


def _bidiff_monomials(a, b, c, d, k):
    """Integer coefficient of q^(a+c-k) p^(b+d-k) in the k-th power of
    (left d_q)(right d_p) - (left d_p)(right d_q) applied to q^a p^b, q^c p^d."""
    total = 0
    for j in range(k + 1):
        x = _falling(a, k - j) * _falling(b, j)
        if x:
            y = _falling(d, k - j) * _falling(c, j)
            if y:
                total += (-1) ** j * comb(k, j) * x * y
    return total


def _graded(f: dict, g: dict, grades) -> dict:
    """sum over (k, weight_re, weight_im, hbar_power) of weight * hbar^power * B^k(f, g)."""
    out: dict = {}
    for (a, b, h), (fr, fi) in f.items():
        for (c, d, hh), (gr, gi) in g.items():
            pr, pi = fr * gr - fi * gi, fr * gi + fi * gr
            for k, wr, wi, hp in grades:
                if k > a + c or k > b + d:
                    continue
                n = _bidiff_monomials(a, b, c, d, k)
                if n:
                    _accumulate(
                        out,
                        (a + c - k, b + d - k, h + hh + hp),
                        n * (pr * wr - pi * wi),
                        n * (pr * wi + pi * wr),
                    )
    return out


def _degree(f: dict) -> int:
    return max((a + b for a, b, _h in f), default=-1)


def star(f: dict, g: dict) -> dict:
    """sum_k (i hbar / 2)^k / k! B^k(f, g)."""
    top = min(_degree(f), _degree(g))
    grades = []
    for k in range(top + 1):
        w = Fraction(1, 2 ** k * factorial(k))
        ir, ii = _I_POWERS[k % 4]
        grades.append((k, w * ir, w * ii, k))
    return _graded(f, g, grades)


def bracket(f: dict, g: dict) -> dict:
    """sum_n hbar^(2n) (-1)^n / ((2n+1)! 4^n) B^(2n+1)(f, g)."""
    top = min(_degree(f), _degree(g))
    grades = [
        (2 * n + 1, Fraction((-1) ** n, factorial(2 * n + 1) * 4 ** n), ZERO, 2 * n)
        for n in range((top + 1) // 2)
    ]
    return _graded(f, g, grades)


def poisson(f: dict, g: dict) -> dict:
    return _graded(f, g, [(1, Fraction(1), ZERO, 0)])


def linear_power_star(lin_a, lin_b, m: int, n: int) -> dict:
    """a^m (*) b^n for linear forms a, b given as (alpha, beta, gamma).

    The bidifferential operator takes (F(a), G(b)) to w F'(a) G'(b) with
    w = alpha_a beta_b - beta_a alpha_b, so the product is
    sum_k (i hbar w / 2)^k / k! [m]_k [n]_k a^(m-k) b^(n-k).
    """
    a = linear(lin_a)
    b = linear(lin_b)
    w = Fraction(lin_a[0]) * Fraction(lin_b[1]) - Fraction(lin_a[1]) * Fraction(lin_b[0])
    out: dict = {}
    for k in range(min(m, n) + 1):
        c = w ** k * _falling(m, k) * _falling(n, k) / (2 ** k * factorial(k))
        ir, ii = _I_POWERS[k % 4]
        piece = mul(power(a, m - k), power(b, n - k))
        for (x, y, h), (re, im) in piece.items():
            # multiply re + i*im by c * i^k and raise hbar by k
            _accumulate(
                out, (x, y, h + k), c * (re * ir - im * ii), c * (re * ii + im * ir)
            )
    return out


def ladders(h: dict, depth: int, seed: str) -> tuple[list, list]:
    """Iterated Poisson and deformed brackets of the seed coordinate with h."""
    start = monomial(1, 1, 0) if seed == "q" else monomial(1, 0, 1)
    classical, deformed = [], []
    c = d = start
    for _ in range(depth):
        c = poisson(c, h)
        d = bracket(d, h)
        classical.append(c)
        deformed.append(d)
    return classical, deformed
