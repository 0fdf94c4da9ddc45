"""Truncated Taylor arithmetic in two perturbation variables.

A jet carries the value of a quantity together with its mixed partial
derivatives with respect to the two initial-condition displacements, up to
a fixed total order (at most 3).  Propagating jets through the same
integrator the scalar flow uses yields the variational derivatives of the
flow map without hand-derived variational equations.

Coefficients are stored Taylor-normalized (divided by factorials) in a
flat list.  A jet is a record; the one jet arithmetic is the straight-line
code the jet emitter writes from the multiplication table precomputed per
order, for expression runs (``eval_expr_jet``) and the truncated inverse
(``invert``).
"""

from __future__ import annotations

import functools
import math

from .expr import REAL_CALLS, FloatEmitter, Program

__all__ = ["TruncatedJet", "MONOMIALS", "eval_expr_jet", "invert", "jet_function_derivatives"]

_MAX_ORDER = 3

# graded lexicographic monomial order in the two displacements
MONOMIALS: dict[int, list[tuple[int, int]]] = {}
_INDEX: dict[int, dict[tuple[int, int], int]] = {}
# the (i, j) terms of each product coefficient k, in (i, j) order
_MUL_TABLE: dict[int, list[list[tuple[int, int]]]] = {}
for _order in range(1, _MAX_ORDER + 1):
    monos = [(d - b, b) for d in range(_order + 1) for b in range(d + 1)]
    MONOMIALS[_order] = monos
    _INDEX[_order] = {mk: i for i, mk in enumerate(monos)}
    _MUL_TABLE[_order] = table = [[] for _ in monos]
    for i, (a1, b1) in enumerate(monos):
        for j, (a2, b2) in enumerate(monos):
            if a1 + a2 + b1 + b2 <= _order:
                table[_INDEX[_order][a1 + a2, b1 + b2]].append((i, j))


class TruncatedJet:
    """Value plus normalized mixed partials in two displacement variables:
    a record, with no arithmetic of its own."""

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

    def __repr__(self):
        return f"TruncatedJet(order={self.order}, c={self.c})"


def _power_derivatives(u: float, n: int, order: int) -> list[float]:
    """Derivatives of x^n at x = u up to ``order``, by the falling-factorial
    chain, whose work does not grow with n; a zero u with a negative n
    raises ZeroDivisionError."""
    if n < 0 and u == 0.0:
        raise ZeroDivisionError("zero raised to a negative power")
    derivs, coeff = [], 1.0
    for r in range(order + 1):
        derivs.append(coeff * u ** (n - r) if coeff != 0.0 else 0.0)
        coeff *= n - r
    return derivs


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
    if fn not in ("tan", "sec"):
        raise ValueError(f"unsupported function '{fn}'")
    # the scalar call owns the value and the refusal near a pole
    v = REAL_CALLS[fn](u)
    if fn == "tan":
        d1 = 1.0 + v * v
        return [v, d1, 2.0 * v * d1, 2.0 * d1 * (1.0 + 3.0 * v * v)]
    t = math.tan(u)
    return [v, v * t, v * t * t + v ** 3, v * t ** 3 + 5.0 * v ** 3 * t]


class _JetEmitter(FloatEmitter):
    """Writes a :class:`Program` run over jets of one order as straight-line
    Python; the key is the order and the names bound to jets.

    A slot that holds a jet has a list of coefficient locals as its
    reference, a float slot the name of one local, so constants, ``pi`` and
    bound parameters stay floats.  This is the one jet arithmetic: a float
    meets a jet through the scalar add (``c0 + s``) and the scale
    (``s * x`` per coefficient); a product of jets sums each coefficient
    from ``0.0`` in the multiplication table's term order; powers 2 to 4
    are repeated products.  A call or another power unpacks the scalar
    function's derivatives at the value and sums its Taylor series in the
    displacement part (:meth:`series`).  Each bound jet is unpacked into
    as many locals as its order has coefficients, and one of another order
    is refused there.
    """

    def __init__(self, program: Program, key):
        super().__init__(program, key)
        self.order, self.jet_names = key
        self.names, self.exps = program.names, program.consts
        self.width = len(MONOMIALS[self.order])
        self.env.update(J=TruncatedJet, O=self.order, D=jet_function_derivatives, P=_power_derivatives)

    def unpack(self, rhs: str, count: int = 0, check: bool = False) -> list[str]:
        """``count`` fresh locals (a jet's coefficients by default) assigned
        the items of ``rhs``."""
        count = count or self.width
        names = [f"v{self.count + m}" for m in range(count)]
        self.count += count
        line = f"{', '.join(names)} = {rhs}"
        if check:
            line = f"try:\n    {line}\nexcept ValueError:\n    raise ValueError('jet orders differ') from None"
        self.lines.append(line)
        return names

    def sym(self, k):
        if self.names[k] in self.jet_names:
            return self.unpack(f"b[N[{k}]].c", check=True)
        return super().sym(k)

    def pow(self, x, k):
        if type(x) is str:
            return super().pow(x, k)
        n = self.exps[k]
        if 2 <= n <= 4:
            out = x
            for _ in range(n - 1):
                out = self.mul2(out, x)
            return out
        return self.series(x, self.unpack(f"P({x[0]}, K[{k}], O)", self.order + 1))

    def call(self, k, x):
        if type(x) is str:
            return super().call(k, x)
        return self.series(x, self.unpack(f"D(N[{k}], {x[0]})[:{self.order + 1}]", self.order + 1))

    def series(self, x, derivs):
        """The scalar function with derivatives ``derivs`` at the value of
        jet ``x``, applied to it: ``derivs[0]`` plus ``derivs[r] / r!``
        times the r-th power of the displacement part, summed in r order."""
        delta = ["0.0", *x[1:]]
        acc = [derivs[0], *["0.0"] * (self.width - 1)]
        power = delta
        for r in range(1, self.order + 1):
            if r > 1:
                power = self.mul2(power, delta)
            acc = self.add2(acc, self.mul2(self.local(f"{derivs[r]} / {math.factorial(r)}"), power))
        return acc

    def fold(self, xs, op: str, step):
        if all(type(x) is str for x in xs):
            return self.chain(xs, op)
        acc = xs[0]
        for y in xs[1:]:
            acc = step(acc, y)
        return acc

    def add(self, xs):
        return self.fold(xs, " + ", self.add2)

    def mul(self, xs):
        return self.fold(xs, " * ", self.mul2)

    def add2(self, x, y):
        if type(x) is str and type(y) is str:
            return self.local(f"{x} + {y}")
        if type(y) is str:
            return [self.local(f"{x[0]} + {y}"), *x[1:]]
        if type(x) is str:
            return [self.local(f"{y[0]} + {x}"), *y[1:]]
        return [self.local(f"{a} + {b}") for a, b in zip(x, y)]

    def mul2(self, x, y):
        if type(x) is str and type(y) is str:
            return self.local(f"{x} * {y}")
        if type(y) is str:
            return [self.local(f"{y} * {a}") for a in x]
        if type(x) is str:
            return [self.local(f"{x} * {b}") for b in y]
        return [
            self.local(" + ".join(["0.0", *(f"{x[i]} * {y[j]}" for i, j in terms)]))
            for terms in _MUL_TABLE[self.order]
        ]

    def result(self, ref) -> str:
        if type(ref) is str:
            return f"J.constant({ref}, O)"
        return f"J(O, [{', '.join(ref)}])"


def eval_expr_jet(e, bindings, order: int) -> TruncatedJet:
    """Evaluate a :class:`Program`, or an :class:`Expr` compiled and its
    code generated for this one call, with some symbols bound to jets of the
    given order (a Program of several roots gives a list).

    Constants must be real (the flow toolkit works over the reals).  A root
    that depends on no jet comes back as a constant jet of that order; a
    bound jet of another order raises ``ValueError("jet orders differ")``.
    """
    if order not in MONOMIALS:
        raise ValueError("jet order must be 1, 2 or 3")
    program = e if type(e) is Program else Program(e)
    jets = tuple([n for n in program.names if isinstance(bindings.get(n), TruncatedJet)])
    return program.kernel((order, jets), _JetEmitter)(bindings)


def invert(gq: TruncatedJet, gp: TruncatedJet) -> tuple[TruncatedJet, TruncatedJet]:
    """Truncated inverse of the two-variable map (gq, gp) about its value.

    Returns displacement jets (dq, dp), with zero value, such that
    (gq, gp) evaluated at (dq, dp) is the value plus the identity
    displacement to the jets' order.  With L the linear part of the map
    and N its part of order 2 and above, each sweep of
    d <- L^-1 (e - N(d)) gains one order, starting from d = L^-1 e.
    A singular linear part raises ValueError.  The sweeps run in code
    generated per jet order on first use (:func:`_inverse`).
    """
    if gq.order != gp.order:
        raise ValueError("jet orders differ")
    (a, b), (c, d) = gq.c[1:3], gp.c[1:3]
    det = a * d - b * c
    if det == 0.0:
        raise ValueError("the jet's linear part is singular")
    return tuple(_inverse(gq.order)((gq.c, gp.c, (d / det, b / det, a / det, c / det))))


@functools.cache
def _inverse(order: int):
    """The sweeps of :func:`invert` at one jet order, written out by the jet
    emitter (of the empty tape) over the coefficients of (gq, gp) and the
    entries of L^-1 scaled by the determinant.  The unit jets e and the constant one are
    literal; L^-1 applies as two scales and a difference per component."""
    emit = _JetEmitter(Program(()), (order, ()))
    gq, gp = emit.unpack("b[0]"), emit.unpack("b[1]")
    sd, sb, sa, sc = emit.unpack("b[2]", 4)
    one, eq, ep = (["1.0" if m == k else "0.0" for m in range(emit.width)] for k in range(3))
    sub = lambda x, y: [emit.local(f"{u} - {v}") for u, v in zip(x, y)]

    def solve(rq, rp):  # L^-1 (rq, rp)
        return sub(emit.mul2(sd, rq), emit.mul2(sb, rp)), sub(emit.mul2(sa, rp), emit.mul2(sc, rq))

    dq, dp = solve(eq, ep)
    # one sweep, written once and run order - 1 times by a loop in the code
    # (a function twice as long takes twice the memory to compile)
    head = len(emit.lines)
    pq, pp = [one, dq], [one, dp]
    for _n in range(2, order + 1):
        pq.append(emit.mul2(pq[-1], dq))
        pp.append(emit.mul2(pp[-1], dp))
    terms = [(k, emit.mul2(pq[i], pp[j])) for k, (i, j) in enumerate(MONOMIALS[order]) if i + j >= 2]
    nq = np_ = ["0.0"] * emit.width
    for k, t in terms:
        nq, np_ = emit.add2(nq, emit.mul2(gq[k], t)), emit.add2(np_, emit.mul2(gp[k], t))
    nq, np_ = solve(sub(eq, nq), sub(ep, np_))
    emit.lines.append(f"{', '.join(dq + dp)} = {', '.join(nq + np_)}")
    sweep = "\n".join(emit.lines[head:]).replace("\n", "\n    ")
    emit.lines[head:] = [f"for _ in range({order - 1}):\n    {sweep}"]
    return emit.function([dq, dp], False)
