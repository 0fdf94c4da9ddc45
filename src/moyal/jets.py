"""Truncated Taylor arithmetic in two perturbation variables.

A jet carries the value of a quantity together with its mixed partial
derivatives with respect to the two initial-condition displacements, up to
a fixed total order (at most 3).  Propagating jets through the same
integrator the scalar flow uses yields the variational derivatives of the
flow map without hand-derived variational equations.

Coefficients are stored Taylor-normalized (divided by factorials) in a
flat list; multiplication runs over an index table precomputed per order.
"""

from __future__ import annotations

import math

from .expr import REAL, Expr, ExprDomainError, ValueKind, evaluate

__all__ = ["TruncatedJet", "MONOMIALS", "eval_expr_jet", "jet_function_derivatives"]

_MAX_ORDER = 3

# graded lexicographic monomial order in the two displacements
MONOMIALS: dict[int, list[tuple[int, int]]] = {}
_INDEX: dict[int, dict[tuple[int, int], int]] = {}
_MUL_TABLE: dict[int, list[tuple[int, int, int]]] = {}
for _order in range(1, _MAX_ORDER + 1):
    monos = [
        (d - b, b) for d in range(_order + 1) for b in range(d + 1)
    ]
    MONOMIALS[_order] = monos
    _INDEX[_order] = {mk: i for i, mk in enumerate(monos)}
    table = []
    for i, (a1, b1) in enumerate(monos):
        for j, (a2, b2) in enumerate(monos):
            a, b = a1 + a2, b1 + b2
            if a + b <= _order:
                table.append((i, j, _INDEX[_order][(a, b)]))
    _MUL_TABLE[_order] = table


class TruncatedJet:
    """Value plus normalized mixed partials in two displacement variables."""

    __slots__ = ("order", "c")

    def __init__(self, order: int, coeffs: list[float]):
        self.order = order
        self.c = coeffs

    @classmethod
    def constant(cls, x: float, order: int) -> "TruncatedJet":
        if order not in MONOMIALS:
            raise ValueError("jet order must be 1, 2 or 3")
        c = [0.0] * len(MONOMIALS[order])
        c[0] = x
        return cls(order, c)

    @classmethod
    def seed(cls, x: float, which: int, order: int) -> "TruncatedJet":
        """Jet of the initial coordinate itself: value x plus unit slope in
        displacement 0 (the q direction) or 1 (the p direction)."""
        if order not in MONOMIALS:
            raise ValueError("jet order must be 1, 2 or 3")
        if which not in (0, 1):
            raise ValueError("seed direction must be 0 or 1")
        c = [0.0] * len(MONOMIALS[order])
        c[0] = x
        c[1 + which] = 1.0
        return cls(order, c)

    @property
    def value(self) -> float:
        return self.c[0]

    def derivative(self, a: int, b: int) -> float:
        """Mixed partial d^{a+b} / dq0^a dp0^b (factorials restored)."""
        idx = _INDEX[self.order].get((a, b))
        if idx is None:
            raise ValueError(f"derivative ({a},{b}) beyond jet order {self.order}")
        return self.c[idx] * math.factorial(a) * math.factorial(b)

    def _match(self, other: "TruncatedJet"):
        if self.order != other.order:
            raise ValueError("jet orders differ")

    def __add__(self, other):
        if isinstance(other, TruncatedJet):
            self._match(other)
            return TruncatedJet(
                self.order, [x + y for x, y in zip(self.c, other.c)]
            )
        out = list(self.c)
        out[0] += other
        return TruncatedJet(self.order, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, TruncatedJet):
            self._match(other)
            return TruncatedJet(
                self.order, [x - y for x, y in zip(self.c, other.c)]
            )
        out = list(self.c)
        out[0] -= other
        return TruncatedJet(self.order, out)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return TruncatedJet(self.order, [-x for x in self.c])

    def __mul__(self, other):
        if not isinstance(other, TruncatedJet):
            return self.__rmul__(other)
        self._match(other)
        a, b = self.c, other.c
        out = [0.0] * len(a)
        for i, j, k in _MUL_TABLE[self.order]:
            out[k] += a[i] * b[j]
        return TruncatedJet(self.order, out)

    def __rmul__(self, s):
        return TruncatedJet(self.order, [s * x for x in self.c])

    def __pow__(self, n: int) -> "TruncatedJet":
        """Integer power: repeated products for n >= 2, otherwise the
        falling-factorial chain of u^n composed at the value."""
        if n >= 2:
            out = self
            for _ in range(n - 1):
                out = out * self
            return out
        u = self.value
        if n < 0 and u == 0.0:
            raise ZeroDivisionError("zero raised to a negative power")
        derivs = []
        coeff = 1.0
        for r in range(self.order + 1):
            derivs.append(coeff * u ** (n - r) if coeff != 0.0 else 0.0)
            coeff *= n - r
        return self.compose(derivs)

    def compose(self, derivs: list[float]) -> "TruncatedJet":
        """Apply a scalar function given its derivatives at self.value.

        derivs[r] is the r-th derivative; the constant part of the result
        is derivs[0] and higher parts come from powers of the nilpotent
        displacement part.
        """
        delta = TruncatedJet(self.order, [0.0, *self.c[1:]])
        acc = TruncatedJet.constant(derivs[0], self.order)
        power = None
        for r in range(1, self.order + 1):
            power = delta if power is None else power * delta
            acc = acc + (derivs[r] / math.factorial(r)) * power
        return acc

    def __repr__(self):
        return f"TruncatedJet(order={self.order}, c={self.c})"


def jet_function_derivatives(fn: str, u: float) -> list[float]:
    """Derivatives [f, f', f'', f'''] of a supported scalar function at u."""
    if fn == "exp":
        v = math.exp(u)
        return [v, v, v, v]
    if fn == "sin":
        s, c = math.sin(u), math.cos(u)
        return [s, c, -s, -c]
    if fn == "cos":
        s, c = math.sin(u), math.cos(u)
        return [c, -s, -c, s]
    if fn == "sinh":
        s, c = math.sinh(u), math.cosh(u)
        return [s, c, s, c]
    if fn == "cosh":
        s, c = math.sinh(u), math.cosh(u)
        return [c, s, c, s]
    c = math.cos(u)
    if abs(c) < 1e-12:
        raise ExprDomainError(f"{fn} evaluated too close to an odd multiple of pi/2")
    if fn == "tan":
        t = math.tan(u)
        d1 = 1.0 + t * t
        return [t, d1, 2.0 * t * d1, 2.0 * d1 * (1.0 + 3.0 * t * t)]
    if fn == "sec":
        s = 1.0 / c
        t = math.tan(u)
        return [
            s,
            s * t,
            s * t * t + s ** 3,
            s * t ** 3 + 5.0 * s ** 3 * t,
        ]
    raise ValueError(f"unsupported function '{fn}'")


def _jet_kind(order: int) -> ValueKind:
    return ValueKind(
        const=lambda v: TruncatedJet.constant(REAL.const(v), order),
        pi=TruncatedJet.constant(math.pi, order),
        bind=lambda v: v if isinstance(v, TruncatedJet) else TruncatedJet.constant(float(v), order),
        call=lambda fn, u: u.compose(jet_function_derivatives(fn, u.value)),
    )


_JET_KINDS = {order: _jet_kind(order) for order in MONOMIALS}


def eval_expr_jet(e: Expr, bindings, order: int) -> TruncatedJet:
    """Evaluate an expression with some symbols bound to jets.

    Constants must be real (the flow toolkit works over the reals); floats
    in the bindings are promoted to constant jets.
    """
    kind = _JET_KINDS.get(order)
    if kind is None:
        raise ValueError("jet order must be 1, 2 or 3")
    return evaluate((e,), bindings, kind)[0]
