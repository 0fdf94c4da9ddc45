"""Reference evaluation of an expression tree, for the tests of the
generated real and jet code.

A plain recursive walk over ``Expr``: floats through ``math`` and ``**``,
jets through the ``TruncatedJet`` operators.  It keeps the evaluator's
rules: constants, ``pi`` and float bindings stay floats, every sum and
product folds from its first operand once its operands are evaluated,
tan and sec refuse a cosine below 1e-12 in magnitude, and a root that
depends on no jet comes back as a constant jet of the requested order.
"""

import math

from moyal.expr import Add, Call, Const, ExprDomainError, ExprEvalError, Mul, Pi, Pow, Sym
from moyal.jets import TruncatedJet, jet_function_derivatives

_PLAIN = {"exp": math.exp, "sin": math.sin, "cos": math.cos, "sinh": math.sinh, "cosh": math.cosh}


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
        try:
            return base ** e.exp
        except ZeroDivisionError:
            raise ExprDomainError("zero raised to a negative power") from None
    if te is Call:
        u = walk(e.arg, bindings)
        if isinstance(u, TruncatedJet):
            return u.compose(jet_function_derivatives(e.fn, u.value))
        return _float_call(e.fn, u)
    vals = [walk(x, bindings) for x in (e.terms if te is Add else e.factors)]
    acc = vals[0]
    for v in vals[1:]:
        acc = acc + v if te is Add else acc * v
    return acc


def walk_jet(e, bindings, order):
    """:func:`walk` with a jet-free result lifted to a constant jet."""
    v = walk(e, bindings)
    return v if isinstance(v, TruncatedJet) else TruncatedJet.constant(v, order)


def outcome(f):
    """A result in ``float.hex`` form (jets by coefficient), or the error's
    class and text."""
    try:
        v = f()
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)
    vs = v if isinstance(v, (list, tuple)) else [v]
    return [(x.order, [c.hex() for c in x.c]) if isinstance(x, TruncatedJet) else x.hex() for x in vs]
