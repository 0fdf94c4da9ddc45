"""Reference evaluation of an expression tree, for the tests of the
generated complex, real and jet code.

A plain recursive walk over ``Expr``: floats through ``math`` and ``**``,
jets (lists of coefficients) through a small jet arithmetic of its own
(:func:`product`, :func:`plus`, :func:`scale`, :func:`series`), whose
product is built from the exponent sums of ``MONOMIALS``, so it shares no
table with the code generator.  A call of a jet takes its derivatives by
walking the expressions :func:`walk_differentiate` gives (:func:`call_derivatives`),
and a power outside 2 to 4 from its own falling-factorial chain
(:func:`power_derivatives`), an independent reference.  It keeps the evaluator's rules: constants,
``pi`` and float bindings stay floats, every sum and product folds from its
first operand once its operands are evaluated, tan and sec refuse a cosine
below 1e-12 in magnitude, and a root that depends on no jet comes back as a
constant jet of the requested order.  :func:`walk_complex` keeps the same
fold, pole and power rules over complexes, through ``cmath``.
:func:`walk_differentiate` is the product rule down the tree, a
second algorithm for ``expr.differentiate``, and :func:`partials` the
derivative table by repeating it.  :func:`reference_invert` inverts a
truncated map by fixed-point sweeps, a second algorithm for
``jets.invert``.
:class:`RefSparse` is the exact reference for ``expr.Sparse``: coefficients
as ``ExactScalar``s, one per monomial, and the chain rule taken monomial by
monomial and atom by atom (:func:`ref_derivative`, :func:`ref_table`), with
no common denominator;
:func:`check_exact_tables_and_bodies` holds tables and ladder bodies to it.
"""

import cmath
import contextlib
import functools
import itertools
import math
from fractions import Fraction
from unittest import mock

from moyal.brackets import _bodies
from moyal.expr import (
    ONE, SPARSE_ZERO, ZERO, Add, Atoms, Call, Const, DerivTable, ExprDomainError, ExprEvalError, Mul, Pi, Pow,
    Sparse, Sym, add, const, mul, pow_int,
)
from moyal.jets import MONOMIALS, jet_order
from moyal.poly import bidifferential
from moyal.scalars import ExactScalar

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


_CALL_RULE = {
    "exp": lambda u: Call("exp", u),
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: mul(const(-1), Call("sin", u)),
    "tan": lambda u: pow_int(Call("sec", u), 2),
    "sec": lambda u: mul(Call("sec", u), Call("tan", u)),
    "sinh": lambda u: Call("cosh", u),
    "cosh": lambda u: Call("sinh", u),
}


def walk_differentiate(e, var):
    """Exact partial derivative by the product rule down the tree, through
    the normalizing constructors: a second algorithm for
    ``expr.differentiate``, which takes the chain rule over atoms.  Each
    node is differentiated once; subtrees free of ``var`` give zero."""
    memo = {}

    def d(n):
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
            fs = n.factors
            r = add(*(mul(*fs[:k], d(f), *fs[k + 1:]) for k, f in enumerate(fs) if var in f._free))
        elif tn is Pow:
            r = mul(const(n.exp), pow_int(n.base, n.exp - 1), d(n.base))
        else:
            r = mul(_CALL_RULE[n.fn](n.arg), d(n.arg))
        memo[id(n)] = r
        return r

    return d(e)


@functools.cache
def _chain_rule(fn, order):
    """f(x), f'(x), ..., f^(order)(x) as expressions, by :func:`walk_differentiate`."""
    ds = [Call(fn, Sym("x"))]
    for _ in range(order):
        ds.append(walk_differentiate(ds[-1], "x"))
    return tuple(ds)


def call_derivatives(fn, u, order):
    """Derivatives of the function ``fn`` at u up to ``order``, each walked
    in turn, so tan and sec refuse a point near a pole first by name."""
    return [walk(d, {"x": u}) for d in _chain_rule(fn, order)]


def partials(e, order):
    """Every d_q^a d_p^b e with a + b <= order, keyed by (a, b), each by
    :func:`walk_differentiate` on the entry before it in its row: the
    reference for ``expr.DerivTable``."""
    out = {(0, 0): e}
    for a in range(order + 1):
        if a:
            out[(a, 0)] = walk_differentiate(out[(a - 1, 0)], "q")
        for b in range(1, order + 1 - a):
            out[(a, b)] = walk_differentiate(out[(a, b - 1)], "p")
    return out


def _collect(terms):
    out = {}
    for m, c in terms:
        out[m] = out[m] + c if m in out else c
    return {m: c for m, c in out.items() if c}


def _mono_mul(a, b):
    out = [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


class RefSparse:
    """A dict from monomial (atom exponents, no trailing zeros) to nonzero
    ``ExactScalar``, with the sum, product and scaling that
    ``poly.bidifferential`` asks of values."""

    def __init__(self, terms):
        self.terms = terms

    def __eq__(self, other):
        return self.terms == other.terms

    def __add__(self, other):
        return RefSparse(_collect([*self.terms.items(), *other.terms.items()]))

    def __mul__(self, other):
        if type(other) is not RefSparse:
            return RefSparse(_collect((m, c * other) for m, c in self.terms.items()))
        return RefSparse(_collect(
            (_mono_mul(m1, m2), c1 * c2) for m1, c1 in self.terms.items() for m2, c2 in other.terms.items()
        ))

    __rmul__ = __mul__


def ref_sparse(atoms, e):
    """``e`` as a :class:`RefSparse` over the ``expr.Atoms`` table ``atoms``."""
    return RefSparse(_collect(map(atoms.term, e.terms if type(e) is Add else (e,))))


def ref_derivative(atoms, s, var, memo):
    """d ``s`` / d ``var`` for a :class:`RefSparse` over ``atoms``: every
    term c * prod(atom_i^e_i) gives c * e_i * atom_i^(e_i - 1) * d(atom_i) *
    (the other powers) for each i, with each d(atom_i) kept in ``memo``."""

    def d_atom(i):
        got = memo.get((i, var))
        if got is None:
            got = memo[(i, var)] = _ref_atom_derivative(atoms, atoms.exprs[i], var, memo)
        return got

    return RefSparse(_collect(
        (_mono_mul(m[:i] + (e - 1,) + m[i + 1:], dm), c * e * dc)
        for m, c in s.terms.items() for i, e in enumerate(m) if e
        for dm, dc in d_atom(i).terms.items()
    ))


def _ref_atom_derivative(atoms, a, var, memo):
    """0 for an atom free of ``var``, 1 for a symbol, the derivative of its
    terms for a sum, and for a call ``_CALL_RULE`` at the argument times the
    argument's derivative, built by this same rule over a fresh table: that
    derivative is one atom of the call's, so it has to be the expression
    ``expr.differentiate`` gives, which :func:`walk_differentiate` need not
    print alike (its values are held to the walk's elsewhere)."""
    if var not in a._free:
        return RefSparse({})
    if type(a) is Sym:
        return RefSparse({(): ExactScalar(1)})
    if type(a) is Call:
        fresh = Atoms()
        d_arg = ref_expr(fresh, ref_derivative(fresh, ref_sparse(fresh, a.arg), var, {}))
        return ref_sparse(atoms, mul(_CALL_RULE[a.fn](a.arg), d_arg))
    return ref_derivative(atoms, ref_sparse(atoms, a), var, memo)


def ref_table(atoms, e, order):
    """Every d_q^a d_p^b e with a + b <= order as a :class:`RefSparse`, keyed
    by (a, b), each entry by :func:`ref_derivative` of the one before it in
    its row."""
    memo = {}
    out = {(0, 0): ref_sparse(atoms, e)}
    for a in range(order + 1):
        if a:
            out[(a, 0)] = ref_derivative(atoms, out[(a - 1, 0)], "q", memo)
        for b in range(1, order + 1 - a):
            out[(a, b)] = ref_derivative(atoms, out[(a, b - 1)], "p", memo)
    return out


def ref_expr(atoms, s):
    """A :class:`RefSparse` as an expression, one ``Const`` per term."""
    return add(*(
        mul(const(c), *(pow_int(atoms.exprs[i], e) for i, e in enumerate(m) if e)) for m, c in s.terms.items()
    ))


def exact_terms(s):
    """An ``expr.Sparse``'s coefficients as ``ExactScalar``s, by monomial."""
    return {m: ExactScalar(Fraction(cr, s.den), Fraction(ci, s.den)) for m, cr, ci in s.items()}


def in_lowest_terms(s):
    """Whether an ``expr.Sparse`` is in its normal form: a positive
    denominator sharing no factor with every numerator, no zero numerator,
    and an empty one equal to ``SPARSE_ZERO``."""
    nums = [*s.re.values(), *s.im.values()]
    return s.den >= 1 and math.gcd(s.den, *nums) == 1 and all(nums) and (bool(nums) or s == SPARSE_ZERO)


@contextlib.contextmanager
def built_sparses():
    """Every ``expr.Sparse`` built inside the block, in a list."""
    built, init = [], Sparse.__init__

    def record(self, *args):
        init(self, *args)
        built.append(self)

    with mock.patch.object(Sparse, "__init__", record):
        yield built


def check_exact_tables_and_bodies(f, g, order):
    """Every derivative-table entry of f and g to ``order``, as a sparse
    polynomial and as an expression, and every bidifferential body of
    orders 1..order, as one and as ``_bodies`` builds it, has exactly the
    coefficients of the ExactScalar reference; every polynomial built on
    the way is in lowest terms."""
    with built_sparses() as built:
        tf = DerivTable(f)
        tg = DerivTable(g, tf.atoms)
        got = {(a, b): (tf.get(a, b), tg.get(a, b)) for a in range(order + 1) for b in range(order + 1 - a)}
        bodies = [bidifferential(tf.sparse, tg.sparse, k, SPARSE_ZERO) for k in range(1, order + 1)]
        exprs = _bodies(f, g, range(1, order + 1))
    assert all(map(in_lowest_terms, built))
    # the reference reads the atom indices the tables gave
    rf, rg = ref_table(tf.atoms, f, order), ref_table(tf.atoms, g, order)
    for key, exprs_at in got.items():
        for table, ref, e in zip((tf, tg), (rf, rg), exprs_at):
            assert exact_terms(table.sparse(*key)) == ref[key].terms, key
            assert e == ref_expr(tf.atoms, ref[key]), key
    for k, body, e in zip(range(1, order + 1), bodies, exprs):
        want = bidifferential(lambda a, b: rf[(a, b)], lambda a, b: rg[(a, b)], k, RefSparse({}))
        assert exact_terms(body) == want.terms, k
        assert e == ref_expr(tf.atoms, want), k


def _jet_power(u, n):
    order = jet_order(u)
    if 2 <= n <= 4:
        out = u
        for _ in range(n - 1):
            out = product(order, out, u)
        return out
    return series(order, u, power_derivatives(u[0], n, order))


def _combine(x, y, add):
    """x + y or x * y over floats and jets of one order: a float meets a
    jet at its value (a sum) or at every coefficient (a product)."""
    jx, jy = type(x) is list, type(y) is list
    if not (jx or jy):
        return x + y if add else x * y
    if jx and jy:
        if len(x) != len(y):
            raise ValueError("jet orders differ")
        return plus(x, y) if add else product(jet_order(x), x, y)
    jet, s = (x, y) if jx else (y, x)
    return [jet[0] + s, *jet[1:]] if add else scale(s, jet)


def _float_call(fn, u):
    if fn in _PLAIN:
        return _PLAIN[fn](u)
    c = math.cos(u)
    if abs(c) < 1e-12:
        raise ExprDomainError(f"{fn} evaluated too close to an odd multiple of pi/2")
    return math.tan(u) if fn == "tan" else 1.0 / c


def walk(e, bindings):
    """Value of ``e`` with symbols bound to floats or jets (lists)."""
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
        if type(base) is list:
            return _jet_power(base, e.exp)
        try:
            return base ** e.exp
        except ZeroDivisionError:
            raise ExprDomainError("zero raised to a negative power") from None
    if te is Call:
        u = walk(e.arg, bindings)
        if type(u) is list:
            order = jet_order(u)
            return series(order, u, call_derivatives(e.fn, u[0], order))
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


def reference_invert(gq, gp):
    """The truncated inverse of the map (gq, gp) by fixed-point sweeps over
    the test arithmetic, a second algorithm for ``jets.invert``:
    d <- L^-1 (e - N(d)), with L^-1 as two scales and a difference."""
    order, n = jet_order(gq), len(gq)
    (a, b), (c, d) = gq[1:3], gp[1:3]
    det = a * d - b * c
    one, eq, ep = ([1.0 if m == k else 0.0 for m in range(n)] for k in range(3))
    minus = lambda x, y: [u - v for u, v in zip(x, y)]

    def solve(rq, rp):
        return (
            minus(scale(d / det, rq), scale(b / det, rp)),
            minus(scale(a / det, rp), scale(c / det, rq)),
        )

    dq, dp = solve(eq, ep)
    for _ in range(order - 1):
        pq, pp = [one, dq], [one, dp]
        for _n in range(2, order + 1):
            pq.append(product(order, pq[-1], dq))
            pp.append(product(order, pp[-1], dp))
        terms = [(k, product(order, pq[i], pp[j])) for k, (i, j) in enumerate(MONOMIALS[order]) if i + j >= 2]
        nq = np_ = [0.0] * n
        for k, t in terms:
            nq = plus(nq, scale(gq[k], t))
            np_ = plus(np_, scale(gp[k], t))
        dq, dp = solve(minus(eq, nq), minus(ep, np_))
    return dq, dp


def walk_jet(e, bindings, order):
    """:func:`walk` with a jet-free result lifted to a constant jet."""
    v = walk(e, bindings)
    return v if type(v) is list else [v, *[0.0] * (len(MONOMIALS[order]) - 1)]


def outcome(f):
    """A result in ``float.hex`` form (a jet, or a list of values, by item;
    complexes by both parts), or the error's class and text."""
    try:
        v = f()
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)
    vs = v if isinstance(v, (list, tuple)) else [v]
    return [_hex(x) for x in vs]


def _hex(x):
    if type(x) is list:
        return [c.hex() for c in x]
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    return x.hex()
