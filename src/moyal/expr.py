"""Closed-form expression trees with exact rational constants.

Carrier for everything the polynomial algebra cannot hold: exponentials,
trigonometric and hyperbolic factors, named parameters, and the time
variable.  Trees are built through normalizing constructors (constants fold
exactly, sums collect like terms, products collect like bases, factor and
term order is canonical), so structurally equal means equal as written
formulas and the printer is deterministic.

Differentiation is rule-based and exact; one memoised walk evaluates a tree
over floats, complexes or truncated jets, with symbols bound to values of
that type.  There is no general simplifier: normalization is
limited to the constructor rules above, and identities beyond them are the
test suite's job to check numerically.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .poly import MAX_COEFF_BITS, _Parser, coeff_bits
from .scalars import ExactScalar

__all__ = [
    "Expr",
    "Const",
    "Sym",
    "Pi",
    "Add",
    "Mul",
    "Pow",
    "Call",
    "const",
    "sym",
    "add",
    "mul",
    "pow_int",
    "call",
    "differentiate",
    "nth_derivative",
    "DerivTable",
    "ValueKind",
    "REAL",
    "evaluate",
    "eval_expr",
    "eval_real",
    "free_symbols",
    "parse_expr",
    "print_expr",
    "ExprParseError",
    "ExprEvalError",
    "ExprDomainError",
    "FUNCTION_NAMES",
    "SYMBOL_NAMES",
]

FUNCTION_NAMES = ("exp", "sin", "cos", "tan", "sec", "sinh", "cosh")
SYMBOL_NAMES = ("q", "p", "t", "m", "l", "lambda", "omega", "beta", "gamma", "hbar")

_COS_EPS = 1e-12


class ExprEvalError(ValueError):
    pass


class ExprDomainError(ExprEvalError):
    pass


class Expr:
    """Base node.  Instances are immutable and compared structurally."""

    __slots__ = ("_hash", "_free", "_skey")

    def __hash__(self):
        return self._hash

    # arithmetic sugar; everything routes through the normalizing constructors

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return add(self, mul(_MINUS_ONE, other))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return add(other, mul(_MINUS_ONE, self))

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return mul(self, pow_int(other, -1))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return mul(other, pow_int(self, -1))

    def __neg__(self):
        return mul(_MINUS_ONE, self)

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return pow_int(self, n)

    def __str__(self):
        return print_expr(self)

    def __repr__(self):
        return f"<Expr {print_expr(self)}>"


def _coerce(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction, ExactScalar)):
        return const(x)
    return NotImplemented


_EMPTY: frozenset = frozenset()


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: ExactScalar):
        self.value = value
        self._free = _EMPTY
        self._hash = hash((0, value.re, value.im))
        self._skey = None

    def __eq__(self, other):
        if self is other:
            return True
        return type(other) is Const and self.value == other.value

    __hash__ = Expr.__hash__


class Sym(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._free = frozenset((name,))
        self._hash = hash((1, name))
        self._skey = None

    def __eq__(self, other):
        if self is other:
            return True
        return type(other) is Sym and self.name == other.name

    __hash__ = Expr.__hash__


class Pi(Expr):
    __slots__ = ()

    def __init__(self):
        self._free = _EMPTY
        self._hash = hash((2, "pi"))
        self._skey = None

    def __eq__(self, other):
        return self is other or type(other) is Pi

    __hash__ = Expr.__hash__


class Call(Expr):
    __slots__ = ("fn", "arg")

    def __init__(self, fn: str, arg: Expr):
        self.fn = fn
        self.arg = arg
        self._free = arg._free
        self._hash = hash((3, fn, arg._hash))
        self._skey = None

    def __eq__(self, other):
        if self is other:
            return True
        return type(other) is Call and self.fn == other.fn and self.arg == other.arg

    __hash__ = Expr.__hash__


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base: Expr, exp: int):
        self.base = base
        self.exp = exp
        self._free = base._free
        self._hash = hash((4, base._hash, exp))
        self._skey = None

    def __eq__(self, other):
        if self is other:
            return True
        return type(other) is Pow and self.exp == other.exp and self.base == other.base

    __hash__ = Expr.__hash__


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Expr, ...]):
        self.factors = factors
        self._free = frozenset().union(*(f._free for f in factors))
        self._hash = hash((5,) + tuple(f._hash for f in factors))
        self._skey = None

    def __eq__(self, other):
        if self is other:
            return True
        return type(other) is Mul and self.factors == other.factors

    __hash__ = Expr.__hash__


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Expr, ...]):
        self.terms = terms
        self._free = frozenset().union(*(t._free for t in terms))
        self._hash = hash((6,) + tuple(t._hash for t in terms))
        self._skey = None

    def __eq__(self, other):
        if self is other:
            return True
        return type(other) is Add and self.terms == other.terms

    __hash__ = Expr.__hash__


def _sort_key(e: Expr):
    k = e._skey
    if k is not None:
        return k
    if type(e) is Const:
        v = e.value
        k = (0, v.re.numerator, v.re.denominator, v.im.numerator, v.im.denominator)
    elif type(e) is Sym:
        k = (1, e.name)
    elif type(e) is Pi:
        k = (2,)
    elif type(e) is Call:
        k = (3, e.fn, _sort_key(e.arg))
    elif type(e) is Pow:
        k = (4, _sort_key(e.base), e.exp)
    elif type(e) is Mul:
        k = (5, tuple(_sort_key(f) for f in e.factors))
    else:
        k = (6, tuple(_sort_key(t) for t in e.terms))
    e._skey = k
    return k


# -- normalizing constructors -------------------------------------------


def const(x) -> Const:
    if isinstance(x, ExactScalar):
        v = x
    else:
        v = ExactScalar(x)
    if not v:
        return ZERO
    if v == 1:
        return ONE
    return Const(v)


def sym(name: str) -> Sym:
    return Sym(name)


def add(*terms) -> Expr:
    """Sum with exact folding and like-term collection; canonical order."""
    const_acc = ExactScalar(0)
    parts: dict[Expr, ExactScalar] = {}
    stack = list(terms)
    stack.reverse()
    while stack:
        t = stack.pop()
        tt = type(t)
        if tt is Add:
            stack.extend(reversed(t.terms))
        elif tt is Const:
            const_acc = const_acc + t.value
        else:
            if tt is Mul and type(t.factors[0]) is Const:
                coeff = t.factors[0].value
                rest = t.factors[1:]
                part = rest[0] if len(rest) == 1 else Mul(rest)
            else:
                coeff = ExactScalar(1)
                part = t
            got = parts.get(part)
            parts[part] = coeff if got is None else got + coeff
    out: list[Expr] = []
    for part, coeff in parts.items():
        if not coeff:
            continue
        if coeff == 1:
            out.append(part)
        elif type(part) is Mul:
            out.append(Mul((Const(coeff),) + part.factors))
        else:
            out.append(Mul((Const(coeff), part)))
    if const_acc:
        out.append(const(const_acc))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=_sort_key)
    return Add(tuple(out))


def mul(*factors) -> Expr:
    """Product with exact folding and like-base power collection."""
    coeff = ExactScalar(1)
    powers: dict[Expr, int] = {}
    stack = list(factors)
    stack.reverse()
    while stack:
        f = stack.pop()
        tf = type(f)
        if tf is Mul:
            stack.extend(reversed(f.factors))
        elif tf is Const:
            coeff = coeff * f.value
            if not coeff:
                return ZERO
        elif tf is Pow:
            powers[f.base] = powers.get(f.base, 0) + f.exp
        else:
            powers[f] = powers.get(f, 0) + 1
    parts: list[Expr] = []
    for base, k in powers.items():
        if k == 0:
            continue
        parts.append(pow_int(base, k))
    # pow_int may fold to a Const (only for Const bases, which cannot occur
    # here) or return the base itself; re-sort for canonical order
    parts.sort(key=_sort_key)
    if not parts:
        return const(coeff)
    if coeff == 1:
        return parts[0] if len(parts) == 1 else Mul(tuple(parts))
    return Mul((Const(coeff),) + tuple(parts))


def pow_int(base: Expr, exp: int) -> Expr:
    if not isinstance(exp, int):
        raise TypeError("exponents must be integers")
    if exp == 0:
        return ONE
    if exp == 1:
        return base
    tb = type(base)
    if tb is Const:
        return const(base.value ** exp)
    if tb is Pow:
        return pow_int(base.base, base.exp * exp)
    if tb is Mul:
        return mul(*(pow_int(f, exp) for f in base.factors))
    return Pow(base, exp)


_FOLD_AT_ZERO = {
    "exp": 1,
    "sin": 0,
    "cos": 1,
    "tan": 0,
    "sec": 1,
    "sinh": 0,
    "cosh": 1,
}


def call(fn: str, arg: Expr) -> Expr:
    if fn not in FUNCTION_NAMES:
        raise ValueError(f"unknown function '{fn}'")
    if type(arg) is Const and not arg.value:
        return const(_FOLD_AT_ZERO[fn])
    return Call(fn, arg)


ZERO = Const(ExactScalar(0))
ONE = Const(ExactScalar(1))
_MINUS_ONE = Const(ExactScalar(-1))
PI = Pi()
I_UNIT = Const(ExactScalar(0, 1))


def free_symbols(e: Expr) -> frozenset[str]:
    return e._free


# -- differentiation -----------------------------------------------------

_CHAIN = {
    "exp": lambda u: Call("exp", u),
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: mul(_MINUS_ONE, Call("sin", u)),
    "tan": lambda u: pow_int(Call("sec", u), 2),
    "sec": lambda u: mul(Call("sec", u), Call("tan", u)),
    "sinh": lambda u: Call("cosh", u),
    "cosh": lambda u: Call("sinh", u),
}


def differentiate(e: Expr, var: str) -> Expr:
    """Exact partial derivative; subtrees free of ``var`` prune to zero."""
    memo: dict[int, Expr] = {}

    def d(n: Expr) -> Expr:
        if var not in n._free:
            return ZERO
        got = memo.get(id(n))
        if got is not None:
            return got
        tn = type(n)
        if tn is Sym:
            r = ONE
        elif tn is Add:
            r = add(*(d(t) for t in n.terms))
        elif tn is Mul:
            pieces = []
            fs = n.factors
            for k, f in enumerate(fs):
                if var not in f._free:
                    continue
                df = d(f)
                pieces.append(mul(*fs[:k], df, *fs[k + 1:]))
            r = add(*pieces)
        elif tn is Pow:
            r = mul(const(n.exp), pow_int(n.base, n.exp - 1), d(n.base))
        elif tn is Call:
            r = mul(_CHAIN[n.fn](n.arg), d(n.arg))
        else:
            raise TypeError(f"cannot differentiate {tn.__name__}")
        memo[id(n)] = r
        return r

    return d(e)


def nth_derivative(e: Expr, var: str, n: int) -> Expr:
    for _ in range(n):
        e = differentiate(e, var)
    return e


class DerivTable:
    """Mixed partial derivatives d_q^a d_p^b f, filled on demand.

    Rows are built from the previous row, so each derivative is taken
    once; zero entries short-circuit.
    """

    def __init__(self, f: Expr):
        self.cache: dict[tuple[int, int], Expr] = {(0, 0): f}

    def get(self, a: int, b: int) -> Expr:
        got = self.cache.get((a, b))
        if got is not None:
            return got
        if b > 0:
            prev = self.get(a, b - 1)
            out = ZERO if prev is ZERO else differentiate(prev, "p")
        else:
            prev = self.get(a - 1, 0)
            out = ZERO if prev is ZERO else differentiate(prev, "q")
        self.cache[(a, b)] = out
        return out


# -- evaluation ----------------------------------------------------------


class ValueKind(NamedTuple):
    """How one value type enters the walk in :func:`evaluate`.

    ``const`` maps an exact constant, ``bind`` a bound symbol value (None
    takes it as bound) and ``call(fn, u)`` a function call; powers use the
    type's own ``**``.  Sums and products fold from ``zero`` and ``one``,
    or from their first operand when those are None.
    """

    const: Callable
    pi: object
    bind: Callable | None
    call: Callable
    zero: object = None
    one: object = None


def evaluate(roots, bindings, kind: ValueKind) -> list:
    """The numeric walk: values of the expressions ``roots`` at one point.

    Sums, products and calls are memoised per node across all roots, so
    shared subtrees are evaluated once; leaves and powers are cheaper to
    redo than to look up.  Raises :class:`ExprEvalError` for unbound
    symbols and :class:`ExprDomainError` where the kind refuses a point or
    a zero is raised to a negative power.
    """
    const, pi, bind, call, zero, one = kind
    memo: dict[int, object] = {}

    def ev(n: Expr):
        tn = type(n)
        if tn is Sym:
            try:
                v = bindings[n.name]
            except KeyError:
                raise ExprEvalError(f"unbound symbol '{n.name}'") from None
            return v if bind is None else bind(v)
        if tn is Const:
            return const(n.value)
        if tn is Pow:
            b = ev(n.base)
            try:
                return b ** n.exp
            except ZeroDivisionError:
                raise ExprDomainError("zero raised to a negative power") from None
        if tn is Pi:
            return pi
        key = id(n)
        got = memo.get(key)
        if got is not None:
            return got
        if tn is Add:
            r = zero
            for t in n.terms:
                r = ev(t) if r is None else r + ev(t)
        elif tn is Mul:
            r = one
            for f in n.factors:
                r = ev(f) if r is None else r * ev(f)
        else:
            r = call(n.fn, ev(n.arg))
        memo[key] = r
        return r

    return list(map(ev, roots))


def _function_table(lib, tan) -> Callable:
    """Function calls through ``lib`` (math or cmath); tan and sec refuse
    arguments whose cosine is below 1e-12 in magnitude."""
    plain = {fn: getattr(lib, fn) for fn in ("exp", "sin", "cos", "sinh", "cosh")}

    def call(fn: str, u):
        f = plain.get(fn)
        if f is not None:
            return f(u)
        c = lib.cos(u)
        if abs(c) < _COS_EPS:
            raise ExprDomainError(f"{fn} evaluated too close to an odd multiple of pi/2")
        return tan(u, c) if fn == "tan" else 1.0 / c

    return call


def _real_const(v: ExactScalar) -> float:
    if v.im != 0:
        raise ExprDomainError("real evaluation needs real constants")
    return float(v.re)


REAL = ValueKind(
    _real_const, math.pi, None, _function_table(math, lambda u, c: math.tan(u)), 0.0, 1.0
)
_COMPLEX = ValueKind(
    complex, complex(math.pi), complex, _function_table(cmath, lambda u, c: cmath.sin(u) / c), 0j, 1 + 0j
)


def eval_expr(e: Expr, bindings) -> complex:
    """Evaluate with symbols bound to numbers.  Returns a complex.

    Raises :class:`ExprEvalError` for unbound symbols and
    :class:`ExprDomainError` where sec or tan blow up (cosine of the
    argument below 1e-12 in magnitude) or a zero is raised to a negative
    power.
    """
    return evaluate((e,), bindings, _COMPLEX)[0]


def eval_real(e: Expr, bindings) -> float:
    """Float evaluation for real expressions; complex constants raise
    :class:`ExprDomainError`."""
    return evaluate((e,), bindings, REAL)[0]


# -- text form -----------------------------------------------------------


class ExprParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def print_expr(e: Expr) -> str:
    """Deterministic text form; parses back to a structurally equal tree."""
    te = type(e)
    if te is Const:
        return str(e.value)
    if te is Sym:
        return e.name
    if te is Pi:
        return "pi"
    if te is Call:
        return f"{e.fn}({print_expr(e.arg)})"
    if te is Pow:
        base = print_expr(e.base)
        if type(e.base) in (Add, Mul):
            base = f"({base})"
        return f"{base}^{e.exp}"
    if te is Mul:
        parts = []
        for f in e.factors:
            txt = print_expr(f)
            if type(f) is Add:
                txt = f"({txt})"
            parts.append(txt)
        return "*".join(parts)
    return " + ".join(print_expr(t) for t in e.terms)


def parse_expr(text: str) -> Expr:
    """Parse the expression grammar: the polynomial grammar plus function
    calls, the parameter names, ``t``, ``pi`` and division by, or negative
    powers of, any expression.  Division by a zero constant and constant
    powers over the coefficient budget raise :class:`ExprParseError`."""
    return _ExprParser(text).parse()


class _ExprParser(_Parser):
    """Builds an :class:`Expr` through the normalizing constructors."""

    error = ExprParseError
    FUNCTIONS = FUNCTION_NAMES
    number = staticmethod(const)
    call = staticmethod(call)

    def symbol(self, name: str, pos: int) -> Expr:
        if name == "i":
            return I_UNIT
        if name == "pi":
            return PI
        if name in SYMBOL_NAMES:
            return sym(name)
        raise self.error(f"unknown name '{name}'", pos)

    def power(self, base: Expr, exp: int, pos: int) -> Expr:
        """``base^exp``, refusing a zero constant to a negative power and a
        constant coefficient raised past the coefficient budget."""
        # a product keeps its constant coefficient first
        lead = base.factors[0] if type(base) is Mul else base
        if type(lead) is Const:
            if not lead.value and exp < 0:
                raise self.error("division by zero", pos)
            if coeff_bits(lead.value) * abs(exp) > MAX_COEFF_BITS:
                raise self.error(f"constant power above {MAX_COEFF_BITS} bits", pos)
        return pow_int(base, exp)

    def product(self, acc: Expr, factor: Expr, pos: int) -> Expr:
        return acc * factor

    def checked_sum(self, acc: Expr, pos: int) -> Expr:
        return acc
