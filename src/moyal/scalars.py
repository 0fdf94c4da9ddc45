"""Exact Gaussian-rational scalars.

Coefficient field for every symbolic computation in this package: numbers
``a + b*i`` with ``a``, ``b`` arbitrary-precision rationals.  All ring and
field operations are exact; nothing here ever touches a float until the
caller asks for one.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["ExactScalar", "ZERO", "ONE", "I", "HALF_I"]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


class ExactScalar:
    """A Gaussian rational ``re + im*i``.

    Instances are immutable by convention; arithmetic returns new values.
    ``int`` and ``Fraction`` operands coerce on either side.  ``re`` and
    ``im`` are always ``Fraction``s.  Operands with a zero imaginary part
    take real-only paths: a sum or a product of two of them is one
    ``Fraction`` operation, a real times a complex two.

    Example
    -------
    >>> (ExactScalar(1, 1) * ExactScalar(1, -1)).re
    Fraction(2, 1)
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if type(other) is not ExactScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _new(self.re + other.re, self.im + other.im if other.im else self.im)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not ExactScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return _new(self.re - other.re, self.im - other.im if other.im else self.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _new(-self.re, -self.im if self.im else self.im)

    def __mul__(self, other):
        if type(other) is not ExactScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b:
            return _new(a * c, a * d if d else b)
        if not d:
            return _new(a * c, b * c)
        return _new(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not ExactScalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        if not d:
            if not c:
                raise ZeroDivisionError("division by zero ExactScalar")
            return _new(a / c, b / c if b else b)
        n = c * c + d * d
        return _new((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return ONE / (self ** (-n))
        if not self.im:
            return _new(self.re ** n, self.im)
        out = ONE
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure -------------------------------------------------------

    def conjugate(self) -> "ExactScalar":
        return _new(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if type(other) is ExactScalar:
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ExactScalar({self.re!r}, {self.im!r})"

    def __str__(self):
        """The coefficient text of both printers: ``3``, ``(-1/2)``,
        ``(2/3)*i``, ``((1/2) + i)``."""
        if self.im == 0:
            return _rational_text(self.re)
        im = "i" if self.im == 1 else f"{_rational_text(self.im)}*i"
        return im if self.re == 0 else f"({_rational_text(self.re)} + {im})"


_new_instance = object.__new__
_FRACTION_ZERO = Fraction(0)


def _new(re: Fraction, im: Fraction) -> ExactScalar:
    """An ExactScalar from two values that are already ``Fraction``s."""
    s = _new_instance(ExactScalar)
    s.re = re
    s.im = im
    return s


def _rational_text(r: Fraction) -> str:
    return str(r) if r.denominator == 1 and r >= 0 else f"({r})"


def _coerce(x):
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return _new(_as_fraction(x), _FRACTION_ZERO)
    return NotImplemented


ZERO = ExactScalar(0)
ONE = ExactScalar(1)
I = ExactScalar(0, 1)
HALF_I = ExactScalar(0, Fraction(1, 2))
