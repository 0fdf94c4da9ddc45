"""Reference evaluation of an expression tree, for the tests of the
generated complex, real and jet code.

A plain recursive walk over ``Expr``: floats through ``math`` and ``**``,
jets through a small jet arithmetic of its own over coefficient lists
(:func:`product`, :func:`plus`, :func:`scale`, :func:`series`), whose
product is built from the exponent sums of ``MONOMIALS``, so it shares no
table with the code generator.  It keeps the evaluator's rules: constants,
``pi`` and float bindings stay floats, every sum and product folds from its
first operand once its operands are evaluated, tan and sec refuse a cosine
below 1e-12 in magnitude, and a root that depends on no jet comes back as a
constant jet of the requested order.  :func:`walk_complex` keeps the same
fold, pole and power rules over complexes, through ``cmath``.
"""

import cmath
import math

from moyal.expr import Add, Call, Const, ExprDomainError, ExprEvalError, Mul, Pi, Pow, Sym
from moyal.jets import MONOMIALS, TruncatedJet, jet_function_derivatives

_PLAIN = {"exp": math.exp, "sin": math.sin, "cos": math.cos, "sinh": math.sinh, "cosh": math.cosh}


def product(order, x, y):
    """Truncated product of coefficient lists: coefficient k sums from 0.0
    the terms x[i] * y[j] whose monomials' exponents add up to monomial k,
    in (i, j) order."""
    monos = MONOMIALS[order]
    out = [0.0] * len(monos)
    for i, (a1, b1) in enumerate(monos):
        for j, (a2, b2) in enumerate(monos):
            if a1 + a2 + b1 + b2 <= order:
                k = monos.index((a1 + a2, b1 + b2))
                out[k] = out[k] + x[i] * y[j]
    return out


def plus(x, y):
    return [u + v for u, v in zip(x, y, strict=True)]


def scale(s, x):
    return [s * u for u in x]


def series(order, x, derivs):
    """The scalar function with derivatives ``derivs`` at x[0], applied to
    the jet x: derivs[0] plus derivs[r] / r! times the r-th power of the
    displacement part, summed in r order."""
    delta = [0.0, *x[1:]]
    acc = [derivs[0]] + [0.0] * (len(x) - 1)
    power = delta
    for r in range(1, order + 1):
        if r > 1:
            power = product(order, power, delta)
        acc = plus(acc, scale(derivs[r] / math.factorial(r), power))
    return acc


def power_derivatives(u, n, order):
    """Derivatives of x^n at u, by the falling-factorial chain."""
    if n < 0 and u == 0.0:
        raise ExprDomainError("zero raised to a negative power")
    derivs, coeff = [], 1.0
    for r in range(order + 1):
        derivs.append(coeff * u ** (n - r) if coeff != 0.0 else 0.0)
        coeff *= n - r
    return derivs


def _jet_power(u, n):
    if 2 <= n <= 4:
        out = u.c
        for _ in range(n - 1):
            out = product(u.order, out, u.c)
        return TruncatedJet(u.order, out)
    return TruncatedJet(u.order, series(u.order, u.c, power_derivatives(u.value, n, u.order)))


def _combine(x, y, add):
    """x + y or x * y over floats and jets of one order: a float meets a
    jet at its value (a sum) or at every coefficient (a product)."""
    jx, jy = isinstance(x, TruncatedJet), isinstance(y, TruncatedJet)
    if not (jx or jy):
        return x + y if add else x * y
    if jx and jy:
        if x.order != y.order:
            raise ValueError("jet orders differ")
        return TruncatedJet(x.order, plus(x.c, y.c) if add else product(x.order, x.c, y.c))
    jet, s = (x, y) if jx else (y, x)
    return TruncatedJet(jet.order, [jet.c[0] + s, *jet.c[1:]] if add else scale(s, jet.c))


def _float_call(fn, u):
    if fn in _PLAIN:
        return _PLAIN[fn](u)
    c = math.cos(u)
    if abs(c) < 1e-12:
        raise ExprDomainError(f"{fn} evaluated too close to an odd multiple of pi/2")
    return math.tan(u) if fn == "tan" else 1.0 / c


def walk(e, bindings):
    """Value of ``e`` with symbols bound to floats or jets."""
    te = type(e)
    if te is Const:
        if e.value.im != 0:
            raise ExprDomainError("real evaluation needs real constants")
        return float(e.value.re)
    if te is Sym:
        try:
            return bindings[e.name]
        except KeyError:
            raise ExprEvalError(f"unbound symbol '{e.name}'") from None
    if te is Pi:
        return math.pi
    if te is Pow:
        base = walk(e.base, bindings)
        if isinstance(base, TruncatedJet):
            return _jet_power(base, e.exp)
        try:
            return base ** e.exp
        except ZeroDivisionError:
            raise ExprDomainError("zero raised to a negative power") from None
    if te is Call:
        u = walk(e.arg, bindings)
        if isinstance(u, TruncatedJet):
            return TruncatedJet(u.order, series(u.order, u.c, jet_function_derivatives(e.fn, u.value)))
        return _float_call(e.fn, u)
    vals = [walk(x, bindings) for x in (e.terms if te is Add else e.factors)]
    acc = vals[0]
    for v in vals[1:]:
        acc = _combine(acc, v, te is Add)
    return acc


def _complex_call(fn, u):
    if fn in _PLAIN:
        return getattr(cmath, fn)(u)
    c = cmath.cos(u)
    if abs(c) < 1e-12:
        raise ExprDomainError(f"{fn} evaluated too close to an odd multiple of pi/2")
    return cmath.sin(u) / c if fn == "tan" else 1.0 / c


def walk_complex(e, bindings):
    """Complex value of ``e``: constants, ``pi`` and every binding made
    complex, calls through ``cmath``."""
    te = type(e)
    if te is Const:
        return complex(e.value)
    if te is Sym:
        try:
            return complex(bindings[e.name])
        except KeyError:
            raise ExprEvalError(f"unbound symbol '{e.name}'") from None
    if te is Pi:
        return complex(math.pi)
    if te is Pow:
        base = walk_complex(e.base, bindings)
        try:
            return base ** e.exp
        except ZeroDivisionError:
            raise ExprDomainError("zero raised to a negative power") from None
    if te is Call:
        return _complex_call(e.fn, walk_complex(e.arg, bindings))
    vals = [walk_complex(x, bindings) for x in (e.terms if te is Add else e.factors)]
    acc = vals[0]
    for v in vals[1:]:
        acc = acc + v if te is Add else acc * v
    return acc


def walk_jet(e, bindings, order):
    """:func:`walk` with a jet-free result lifted to a constant jet."""
    v = walk(e, bindings)
    return v if isinstance(v, TruncatedJet) else TruncatedJet.constant(v, order)


def outcome(f):
    """A result in ``float.hex`` form (jets by coefficient, complexes by
    both parts), or the error's class and text."""
    try:
        v = f()
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)
    vs = v if isinstance(v, (list, tuple)) else [v]
    return [_hex(x) for x in vs]


def _hex(x):
    if isinstance(x, TruncatedJet):
        return x.order, [c.hex() for c in x.c]
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    return x.hex()
