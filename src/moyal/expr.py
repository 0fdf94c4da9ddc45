"""Closed-form expression trees with exact rational constants.

Carrier for everything the polynomial algebra cannot hold: exponentials,
trigonometric and hyperbolic factors, named parameters, and the time
variable.  Trees are built through normalizing constructors (constants fold
exactly, sums collect like terms, products collect like bases, factor and
term order is canonical), so structurally equal means equal as written
formulas and the printer is deterministic.

Differentiation is exact and has one rule: the chain rule over a sparse
polynomial in atoms (symbols, pi, calls and unexpanded sums) with integer
coefficients over one denominator, the form a derivative table holds its
entries in.  The one evaluator, a :class:`Program`, compiles trees once
into a flat tape and runs it over floats, complexes or truncated jets, with
symbols bound to values of that type; a jet run keeps its constants and
parameters as floats.  Every run calls straight-line code generated from
the tape on first use.  There is no general simplifier: normalization is limited to
the constructor rules above, and identities beyond them are the test
suite's job to check numerically.
"""

from __future__ import annotations

import cmath
import math
from array import array
from fractions import Fraction
from typing import Callable

from . import scalars
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
    "Sparse",
    "Atoms",
    "DerivTable",
    "Program",
    "FloatEmitter",
    "ComplexEmitter",
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

    # _ladders: compiled bracket ladders with this node as the left factor,
    # keyed by the right factor (see brackets.moyal_bracket_truncated)
    __slots__ = ("_hash", "_free", "_skey", "_ladders")

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
        re, im = value.re, value.im
        self._hash = hash((0, re.numerator, re.denominator, im.numerator, im.denominator))
        self._skey = None
        self._ladders = None

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
        self._ladders = None

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
        self._ladders = None

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
        self._ladders = None

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
        self._ladders = None

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
        self._ladders = None

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
        self._ladders = None

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
    const_acc = scalars.ZERO
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
                coeff = scalars.ONE
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
    coeff = scalars.ONE
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
    """Exact partial derivative, by :meth:`Atoms.chain` over ``e``'s atoms;
    zero when ``var`` is not free in ``e``."""
    if var not in e._free:
        return ZERO
    atoms = Atoms()
    return atoms.expr(atoms.derivative(atoms.sparse(e), var))


def _mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The product of two monomials: exponents added, trailing zeros cut."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, e in enumerate(b):
        out[i] += e
    while out and not out[-1]:
        out.pop()
    return tuple(out)


class Sparse:
    """A polynomial over the atoms of one :class:`Atoms` table.

    A monomial is a tuple of integer exponents, negative ones included,
    indexed by atom and without trailing zeros, so equal monomials are
    equal tuples.  Coefficients are Gaussian rationals held as integers
    over one common denominator ``den`` >= 1: ``re`` and ``im`` map a
    monomial to the nonzero numerators of the real and imaginary parts
    (``im`` is usually empty), and gcd(den, every numerator) is 1, so
    equal polynomials are equal.  Sums and products collect like terms,
    and a product by a number scales: all that :func:`poly.bidifferential`
    asks of values.
    """

    __slots__ = ("re", "im", "den")

    def __init__(self, re: dict[tuple[int, ...], int], im: dict[tuple[int, ...], int], den: int):
        self.re = re
        self.im = im
        self.den = den

    def __eq__(self, other):
        return type(other) is Sparse and self.den == other.den and self.re == other.re and self.im == other.im

    __hash__ = None

    def items(self) -> list[tuple[tuple[int, ...], int, int]]:
        """(monomial, real numerator, imaginary numerator) of each term."""
        re, im = self.re, self.im
        if not im:
            return [(m, c, 0) for m, c in re.items()]
        return [(m, c, im.get(m, 0)) for m, c in re.items()] + [(m, 0, c) for m, c in im.items() if m not in re]

    def __add__(self, other: Sparse) -> Sparse:
        return _combine(((1, 0, (), self), (1, 0, (), other)))

    def __mul__(self, other) -> Sparse:
        if type(other) is not Sparse:
            return _of_scalars([((), other if type(other) is ExactScalar else ExactScalar(other))]) * self
        return _combine([(cr, ci, m, other) for m, cr, ci in self.items()], self.den)

    __rmul__ = __mul__


def _into(out: dict, part: dict, k: int, mono: tuple[int, ...]) -> None:
    """Add k times ``mono`` times each term of ``part`` to ``out``."""
    get = out.get
    if mono:
        for m, c in part.items():
            m = _mono_mul(mono, m)
            out[m] = get(m, 0) + k * c
    else:
        for m, c in part.items():
            out[m] = get(m, 0) + k * c


def _combine(terms, den: int = 1) -> Sparse:
    """The sum of (cr + ci*i) * mono * s over ``den``, for each (cr, ci,
    mono, s) of ``terms``: every s scaled to the lcm of their denominators,
    like terms collected, then one gcd reduction to lowest terms."""
    lcm = math.lcm(*{s.den for *_, s in terms})
    re: dict = {}
    im: dict = {}
    for cr, ci, mono, s in terms:
        k = lcm // s.den
        if cr:
            _into(re, s.re, cr * k, mono)
            if s.im:
                _into(im, s.im, cr * k, mono)
        if ci:
            _into(im, s.re, ci * k, mono)
            if s.im:
                _into(re, s.im, -ci * k, mono)
    g = math.gcd(den * lcm, *re.values(), *im.values())
    return Sparse(
        {m: c // g for m, c in re.items() if c},
        {m: c // g for m, c in im.items() if c} if im else _REAL,
        den * lcm // g,
    )


def _of_scalars(terms) -> Sparse:
    """A :class:`Sparse` from (monomial, ``ExactScalar``) pairs."""
    terms = list(terms)
    den = math.lcm(*(x.denominator for _, c in terms for x in (c.re, c.im)))
    return _combine([
        (c.re.numerator * den // c.re.denominator, c.im.numerator * den // c.im.denominator, m, _ONE_SPARSE)
        for m, c in terms
    ], den)


# the imaginary part of every real Sparse; no Sparse's dicts are written after it is built
_REAL: dict = {}
SPARSE_ZERO = Sparse({}, _REAL, 1)
_ONE_SPARSE = Sparse({(): 1}, _REAL, 1)


class Atoms:
    """The atoms that the :class:`Sparse` entries of derivative tables are
    polynomials in, with the derivatives taken so far.

    An atom is a symbol, pi or a call, or a sum that is a factor of a
    product or the base of a power (never expanded).  Each atom's
    derivative is taken once: a symbol's is 1, a call's is its function's
    derivative (``_CHAIN``) times :func:`differentiate` of its argument, a
    sum's is the derivative of its terms, and that of an atom free of the
    variable is 0.  Each monomial's is taken once, by the chain rule.
    Tables whose entries are multiplied together share one ``Atoms``;
    nothing else keeps it.
    """

    def __init__(self):
        self.exprs: list[Expr] = []
        self.index: dict[Expr, int] = {}
        # (monomial, variable) -> the monomial's derivative
        self.derivs: dict[tuple[tuple[int, ...], str], Sparse] = {}

    def monomial(self, e: Expr, k: int) -> tuple[int, ...]:
        """The monomial of the atom ``e`` to the power ``k``."""
        i = self.index.get(e)
        if i is None:
            i = self.index[e] = len(self.exprs)
            self.exprs.append(e)
        return (0,) * i + (k,)

    def term(self, e: Expr) -> tuple[tuple[int, ...], ExactScalar]:
        """A product of constants, atoms and atom powers as (monomial, coefficient)."""
        coeff, mono = scalars.ONE, ()
        for f in e.factors if type(e) is Mul else (e,):
            if type(f) is Const:
                coeff = coeff * f.value
            else:
                mono = _mono_mul(mono, self.monomial(f.base, f.exp) if type(f) is Pow else self.monomial(f, 1))
        return mono, coeff

    def sparse(self, e: Expr) -> Sparse:
        """``e`` as a polynomial in atoms, like terms collected."""
        return _of_scalars(map(self.term, e.terms if type(e) is Add else (e,)))

    def derivative(self, s: Sparse, var: str) -> Sparse:
        """d ``s`` / d ``var``, one monomial at a time."""
        return _combine([(cr, ci, (), self.chain(m, var)) for m, cr, ci in s.items()], s.den)

    def chain(self, mono: tuple[int, ...], var: str) -> Sparse:
        """d ``mono`` / d ``var``, by the chain rule on first use: each
        atom's derivative times the exponent and the other powers, summed
        into one pair of numerator dicts; an atom's own derivative, by the
        atom rule above, is kept under its first power."""
        key = (mono, var)
        got = self.derivs.get(key)
        if got is None:
            if mono and mono[-1] == 1 and not any(mono[:-1]):
                atom = self.exprs[len(mono) - 1]
                if var not in atom._free:
                    got = SPARSE_ZERO
                elif type(atom) is Sym:
                    got = _ONE_SPARSE
                elif type(atom) is Call:
                    got = self.sparse(mul(_CHAIN[atom.fn](atom.arg), differentiate(atom.arg, var)))
                else:
                    got = self.derivative(self.sparse(atom), var)
            else:
                got = _combine([
                    (e, 0, mono[:i] + (e - 1,) + mono[i + 1:], self.chain((0,) * i + (1,), var))
                    for i, e in enumerate(mono) if e
                ])
            self.derivs[key] = got
        return got

    def expr(self, s: Sparse) -> Expr:
        """``s`` as an expression, through the normalizing constructors; each
        coefficient becomes one exact ``Const``."""
        atoms, den = self.exprs, s.den
        return add(*(
            mul(Const(ExactScalar(Fraction(cr, den), Fraction(ci, den))),
                *(pow_int(atoms[i], e) for i, e in enumerate(m) if e))
            for m, cr, ci in s.items()
        ))


class DerivTable:
    """Mixed partial derivatives d_q^a d_p^b f, filled on demand.

    Each entry is a :class:`Sparse` polynomial over ``atoms`` (the table's
    own, or one shared with the tables its entries meet), taken from the
    entry before it in its row (column 0's from the one before it in the
    column), so each derivative is taken once; a deep entry fills its row
    and column in a loop.  :meth:`get` builds an entry's expression on
    first use.
    """

    def __init__(self, f: Expr, atoms: Atoms | None = None):
        self.atoms = Atoms() if atoms is None else atoms
        self.entries: dict[tuple[int, int], Sparse] = {(0, 0): self.atoms.sparse(f)}
        self.exprs: dict[tuple[int, int], Expr] = {(0, 0): f}

    def sparse(self, a: int, b: int) -> Sparse:
        got = self.entries.get((a, b))
        if got is None:
            if a < 0 or b < 0:
                raise ValueError("derivative order must be non-negative")
            # back along row a, then down column 0, to the nearest entry held;
            # then forward from it, one derivative per entry
            path, key = [], (a, b)
            while key not in self.entries:
                path.append(key)
                key = (key[0], key[1] - 1) if key[1] else (key[0] - 1, 0)
            got = self.entries[key]
            for key in reversed(path):
                got = self.entries[key] = self.atoms.derivative(got, "p" if key[1] else "q")
        return got

    def get(self, a: int, b: int) -> Expr:
        got = self.exprs.get((a, b))
        if got is None:
            got = self.exprs[(a, b)] = self.atoms.expr(self.sparse(a, b))
        return got


# -- evaluation ----------------------------------------------------------

# tape opcodes; instruction j of a tape writes value slot j
_CONST, _SYM, _PI, _POW, _CALL, _ADD, _MUL = range(7)


class Program:
    """Expressions compiled once into a flat tape, then run at many points.

    ``roots`` is one :class:`Expr` or a sequence of them.  The compile
    step walks them in post-order and records each structurally distinct
    node once, as an opcode and its operands in an integer ``array``:

    - ``_CONST k``: the exact constant ``consts[k]``;
    - ``_SYM k``: the binding of ``names[k]``;
    - ``_PI``: pi;
    - ``_POW i k``: slot i to the integer power ``consts[k]``;
    - ``_CALL k i``: function ``names[k]`` of slot i;
    - ``_ADD n i1 ... in`` and ``_MUL n i1 ... in``: fold n slots in order.

    A run applies the operations a direct evaluation of each node would,
    in the same order: sums and products fold from their first operand and
    powers use the value type's own ``**``.  So a value does not depend on
    which roots were compiled together.  Complex, real and jet runs
    (:meth:`run`, :meth:`real`, ``jets.eval_expr_jet``) call straight-line
    code generated from the tape on first use and kept (:meth:`kernel`,
    the only code that reads the tape).  A Program keeps no ``Expr``: it
    does not keep the tree it was compiled from alive.
    """

    __slots__ = ("code", "consts", "names", "roots", "single", "_kernels")

    def __init__(self, roots):
        self.single = isinstance(roots, Expr)
        roots = (roots,) if self.single else tuple(roots)
        code = array("q")
        consts: list = []
        names: list[str] = []
        slot: dict[Expr, int] = {}
        for root in roots:
            stack = [root]
            while stack:
                n = stack[-1]
                if n in slot:
                    stack.pop()
                    continue
                tn = type(n)
                kids = n.terms if tn is Add else n.factors if tn is Mul else (
                    (n.base,) if tn is Pow else (n.arg,) if tn is Call else ())
                todo = [k for k in kids if k not in slot]
                if todo:
                    stack.extend(reversed(todo))
                    continue
                stack.pop()
                slot[n] = len(slot)
                if tn is Const:
                    code.extend((_CONST, len(consts)))
                    consts.append(n.value)
                elif tn is Sym:
                    code.extend((_SYM, len(names)))
                    names.append(n.name)
                elif tn is Pi:
                    code.append(_PI)
                elif tn is Pow:
                    code.extend((_POW, slot[n.base], len(consts)))
                    consts.append(n.exp)
                elif tn is Call:
                    code.extend((_CALL, len(names), slot[n.arg]))
                    names.append(n.fn)
                else:
                    code.extend((_ADD if tn is Add else _MUL, len(kids)))
                    code.extend(slot[k] for k in kids)
        self.code = code
        self.consts = tuple(consts)
        self.names = tuple(names)
        self.roots = tuple(slot[r] for r in roots)
        self._kernels: dict = {}

    def run(self, bindings):
        """Complex values of the roots with symbols bound by ``bindings``:
        one value for a single root, else a list.  Raises
        :class:`ExprEvalError` for unbound symbols and
        :class:`ExprDomainError` where tan or sec meet a pole or a zero is
        raised to a negative power."""
        return (self._kernels.get(complex) or self.kernel(complex, ComplexEmitter))(bindings)

    def real(self, bindings):
        """Float values of the roots, with the errors of :meth:`run`; a
        complex constant raises :class:`ExprDomainError` before any node
        runs."""
        return (self._kernels.get(None) or self.kernel(None, FloatEmitter))(bindings)

    def kernel(self, key, emitter):
        """The function of the bindings generated for ``key`` on first use:
        the tape, walked once in order, with every slot handed to
        ``emitter(self, key)`` (see :class:`FloatEmitter`)."""
        fn = self._kernels.get(key)
        if fn is None:
            emit = emitter(self, key)
            code, refs = self.code, []
            i, end = 0, len(code)
            while i < end:
                op = code[i]
                if op == _ADD or op == _MUL:
                    stop = i + 2 + code[i + 1]
                    xs = [refs[j] for j in code[i + 2:stop]]
                    ref = emit.add(xs) if op == _ADD else emit.mul(xs)
                    i = stop
                elif op == _POW:
                    ref = emit.pow(refs[code[i + 1]], code[i + 2])
                    i += 3
                elif op == _CONST:
                    ref = emit.const(code[i + 1])
                    i += 2
                elif op == _SYM:
                    ref = emit.sym(code[i + 1])
                    i += 2
                elif op == _CALL:
                    ref = emit.call(code[i + 1], refs[code[i + 2]])
                    i += 3
                else:
                    ref = emit.pi()
                    i += 1
                refs.append(ref)
            fn = self._kernels[key] = emit.function([refs[k] for k in self.roots], self.single)
        return fn


def _function_table(lib, tan) -> dict[str, Callable]:
    """Function calls through ``lib`` (math or cmath), by name; tan and sec
    refuse arguments whose cosine is below 1e-12 in magnitude, naming the
    function."""
    table = {fn: getattr(lib, fn) for fn in ("exp", "sin", "cos", "sinh", "cosh")}

    def near_pole(fn: str, f: Callable) -> Callable:
        def call(u):
            c = lib.cos(u)
            if abs(c) < _COS_EPS:
                raise ExprDomainError(f"{fn} evaluated too close to an odd multiple of pi/2")
            return f(u, c)

        return call

    table["tan"] = near_pole("tan", tan)
    table["sec"] = near_pole("sec", lambda u, c: 1.0 / c)
    return table


def _real_const(v: ExactScalar) -> float:
    if v.im != 0:
        raise ExprDomainError("real evaluation needs real constants")
    return float(v.re)


_REAL_CALLS = _function_table(math, lambda u, c: math.tan(u))
_COMPLEX_CALLS = _function_table(cmath, lambda u, c: cmath.sin(u) / c)


# the most operands one generated statement folds: longer sums and products
# continue in a second statement, so the compiler's recursion stays shallow
_FOLD_MAX = 64

# in generated code only a symbol lookup raises KeyError and only a power
# raises ZeroDivisionError, so one handler of each serves the whole body
_HANDLERS = """\
    except KeyError as e:
        raise ExprEvalError(f"unbound symbol '{e.args[0]}'") from None
    except ZeroDivisionError:
        raise ExprDomainError("zero raised to a negative power") from None
"""


class FloatEmitter:
    """Writes a :class:`Program` run over floats as straight-line Python.

    Each slot becomes one assignment to a fresh local, and its reference is
    that local's name.  Sums and products are Python's left-associative
    ``+`` and ``*`` chains, which fold from the first operand as a direct
    evaluation does.  Constants, names and functions reach the code through
    its globals, by table position (``K[k]``, ``N[k]``, ``F[k]``), so no
    constant or symbol name becomes source text.  The class attributes hold
    a run's conventions (see :class:`ComplexEmitter`); a subclass that holds
    other value types overrides the slot methods and :meth:`result`.
    """

    # an exact constant's value (a complex one is refused here, before any
    # node runs), the source that reads symbol k's binding, the functions
    # and pi
    constant = staticmethod(_real_const)
    binding = "b[N[{}]]"
    calls, pi_value = _REAL_CALLS, math.pi
    # the generated function's parameters
    args = "b"

    def __init__(self, program: Program, key):
        # integer constants are power exponents and stay as they are
        self.env = {
            "K": [c if type(c) is int else self.constant(c) for c in program.consts],
            "N": program.names,
            "F": tuple(map(self.calls.get, program.names)),
            "PI": self.pi_value,
            "ExprEvalError": ExprEvalError,
            "ExprDomainError": ExprDomainError,
        }
        self.lines: list[str] = []
        self.count = 0

    def local(self, rhs: str) -> str:
        """A fresh local assigned ``rhs``."""
        name = f"v{self.count}"
        self.count += 1
        self.lines.append(f"{name} = {rhs}")
        return name

    def const(self, k):
        return self.local(f"K[{k}]")

    def sym(self, k):
        return self.local(self.binding.format(k))

    def pi(self):
        return self.local("PI")

    def pow(self, x, k):
        return self.local(f"{x} ** K[{k}]")

    def call(self, k, x):
        return self.local(f"F[{k}]({x})")

    def chain(self, xs, op: str) -> str:
        acc = xs[0]
        for i in range(1, len(xs), _FOLD_MAX - 1):
            acc = self.local(op.join([acc, *xs[i:i + _FOLD_MAX - 1]]))
        return acc

    def add(self, xs):
        return self.chain(xs, " + ")

    def mul(self, xs):
        return self.chain(xs, " * ")

    def result(self, ref) -> str:
        return ref

    def output(self, roots, single: bool) -> str:
        """The returned value's source: one root's, or the list of them."""
        return self.result(roots[0]) if single else f"[{', '.join(map(self.result, roots))}]"

    def function(self, roots, single: bool):
        """The generated function of the bindings; it raises
        :class:`ExprEvalError` for an unbound symbol and
        :class:`ExprDomainError` for a zero raised to a negative power."""
        out = self.output(roots, single)
        body = "".join(f"        {row}\n" for line in self.lines for row in line.split("\n"))
        exec(f"def kernel({self.args}):\n    try:\n{body}        return {out}\n{_HANDLERS}", self.env)
        return self.env["kernel"]


class ComplexEmitter(FloatEmitter):
    """Writes a complex run (:meth:`Program.run`): the float emitter with
    complex constants, bindings read through ``complex``, the ``cmath``
    functions and a complex pi."""

    constant = staticmethod(complex)
    binding = "complex(b[N[{}]])"
    calls, pi_value = _COMPLEX_CALLS, complex(math.pi)


def eval_expr(e, bindings) -> complex:
    """Evaluate a :class:`Program`, or an :class:`Expr` compiled and its
    code generated for this one call, with symbols bound to numbers, as
    complexes; compile once to run one expression at many points.

    Raises :class:`ExprEvalError` for unbound symbols and
    :class:`ExprDomainError` where sec or tan blow up (cosine of the
    argument below 1e-12 in magnitude) or a zero is raised to a negative
    power.
    """
    return (e if type(e) is Program else Program(e)).run(bindings)


def eval_real(e, bindings) -> float:
    """Float evaluation for real expressions (see :meth:`Program.real`); an
    :class:`Expr` is compiled and its code generated for this one call.
    Complex constants raise :class:`ExprDomainError`."""
    return (e if type(e) is Program else Program(e)).real(bindings)


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
