"""Truncated Taylor arithmetic in two perturbation variables.

A jet carries the value of a quantity together with its mixed partial
derivatives with respect to the two initial-condition displacements, up to
a fixed total order (at most 3).  Propagating jets through the same
integrator the scalar flow uses yields the variational derivatives of the
flow map without hand-derived variational equations.

A jet is its list of Taylor-normalized coefficients (divided by
factorials) in ``MONOMIALS[order]`` order, so its order is read from the
list's length; :func:`seed` and :func:`derivative` keep that layout here.
The one jet arithmetic is the straight-line code the jet emitter writes
from the multiplication table precomputed per order, for expression runs
(``eval_expr_jet``), the stages of the jet flows' RK4 loops (``FlowJets``)
and the truncated inverse (``invert``).  A call, or a
power outside 2 to 4, takes its derivatives from ``expr.differentiate``,
the one derivative table, so this module holds no derivative formula.
"""

from __future__ import annotations

import functools
import math

from .expr import FloatEmitter, Program, call, differentiate, pow_int, sym

__all__ = ["MONOMIALS", "seed", "derivative", "jet_order", "eval_expr_jet", "invert"]

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


# the order of a jet with this many coefficients
_ORDERS = {len(monos): order for order, monos in MONOMIALS.items()}


def jet_order(c: list[float]) -> int:
    """The order of the jet with coefficients ``c``."""
    order = _ORDERS.get(len(c))
    if order is None:
        raise ValueError(f"a jet has 3, 6 or 10 coefficients, not {len(c)}")
    return order


def seed(x: float, which: int, order: int) -> list[float]:
    """Jet of the initial coordinate itself: value x plus unit slope in
    displacement 0 (the q direction) or 1 (the p direction)."""
    if order not in MONOMIALS:
        raise ValueError("jet order must be 1, 2 or 3")
    if which not in (0, 1):
        raise ValueError("seed direction must be 0 or 1")
    c = [0.0] * len(MONOMIALS[order])
    c[0] = x
    c[1 + which] = 1.0
    return c


def derivative(c: list[float], a: int, b: int) -> float:
    """Mixed partial d^{a+b} / dq0^a dp0^b of the jet ``c`` (factorials
    restored)."""
    order = jet_order(c)
    idx = _INDEX[order].get((a, b))
    if idx is None:
        raise ValueError(f"derivative ({a},{b}) beyond jet order {order}")
    return c[idx] * math.factorial(a) * math.factorial(b)


class _ArgEmitter(FloatEmitter):
    """Writes a real run whose one symbol is the argument itself."""

    binding = "b"


@functools.cache
def _derivatives(f: str | int, order: int):
    """The function of u that returns [f(u), f'(u), ..., f^(order)(u)] for
    a function name, or for an integer exponent n as f(x) = x^n: the real
    run of the derivatives ``differentiate`` gives, generated once per
    (f, order).  tan and sec refuse a point near a pole through their float
    call, and a zero raised to a negative power raises ``ExprDomainError``."""
    x = sym("x")
    roots = [call(f, x) if type(f) is str else pow_int(x, f)]
    for _ in range(order):
        roots.append(differentiate(roots[-1], "x"))
    return Program(roots).kernel(None, _ArgEmitter)


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
    function's derivatives at the value (:func:`_derivatives`, appended to
    the function table ``F``) and sums its Taylor series in the
    displacement part (:meth:`series`).  Each bound jet is unpacked into
    as many locals as its order has coefficients, and one of another order
    is refused there.
    """

    def __init__(self, program: Program, key):
        super().__init__(program, key)
        self.order, self.jet_names = key
        self.names, self.exps = program.names, program.consts
        self.width = len(MONOMIALS[self.order])
        self.env["F"] = list(self.env["F"])

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
            return self.unpack(f"b[N[{k}]]", check=True)
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
        return self.series(x, n)

    def call(self, k, x):
        if type(x) is str:
            return super().call(k, x)
        return self.series(x, self.names[k])

    def series(self, x, f):
        """The function ``f`` (see :func:`_derivatives`) of jet ``x``: its
        derivatives at the value, ``derivs[0]`` plus ``derivs[r] / r!``
        times the r-th power of the displacement part, summed in r order."""
        fs = self.env["F"]
        fs.append(_derivatives(f, self.order))
        derivs = self.unpack(f"F[{len(fs) - 1}]({x[0]})", self.order + 1)
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

    def coefficients(self, ref) -> list[str]:
        if type(ref) is str:  # a root that depends on no jet
            return [ref, *["0.0"] * (self.width - 1)]
        return ref

    def result(self, ref) -> str:
        return f"[{', '.join(self.coefficients(ref))}]"


class FlatState:
    """Mixed into an emitter: a run over a Hamiltonian flow's flat state,
    generated as ``kernel(s, b)`` that returns the rates at ``s``
    (:meth:`generate`), or written inline as one stage of an RK4 loop
    (:meth:`stage`).

    The symbols q and p read their values from the state, q's from
    component 0 on and p's from component ``stride`` on, one local per
    coefficient (``read``), and a run reads each component once
    (:meth:`state`); every other symbol is read from the bindings ``b``.
    The two roots (dH/dp, dH/dq) give the flow's rates, flat: the first
    root's coefficients, then the second root's negated (:meth:`rates`).
    """

    args = "s, b"
    stride = 1

    @property
    def size(self) -> int:  # the state's length
        return 2 * self.stride

    def state(self, i: int) -> str:
        """The local that holds component i of the state the run reads,
        assigned its source on first read."""
        if i not in self.held:
            self.held[i] = self.local(self.sources[i])
        return self.held[i]

    def sym(self, k):
        name = self.env["N"][k]
        if name not in ("q", "p"):
            return super().sym(k)
        return self.read(self.stride if name == "p" else 0)

    def rates(self, program) -> list[str]:
        """The sources of the rates: ``program``'s tape walked once."""
        first, second = map(self.coefficients, program.walk(self))
        return [*first, *(f"-{x}" for x in second)]

    def generate(self, program):
        self.held, self.sources = {}, [f"s[{i}]" for i in range(self.size)]
        return self.function(self.rates(program), False)

    def output(self, rates, single: bool) -> str:
        return f"[{', '.join(rates)}]"

    def stage(self, program, sources: list[str], targets: list[str]) -> list[str]:
        """The lines of an RK4 stage: the rates at the state whose
        components are the expressions ``sources``, assigned to
        ``targets``; a component the rates do not read is not computed."""
        self.held, self.sources, self.lines = {}, sources, []
        rates = self.rates(program)
        return [*self.lines, *(f"{t} = {r}" for t, r in zip(targets, rates))]


class FlowJets(FlatState, _JetEmitter):
    """The jet field of a flow over its flat state, two jets of the order
    ``key[0]`` end to end."""

    def __init__(self, program: Program, key):
        super().__init__(program, (key[0], ()))
        self.stride = self.width

    def read(self, start: int) -> list[str]:
        return [self.state(start + m) for m in range(self.width)]


def jet_field(program: Program, order: int):
    """The generated jet field of the Hamiltonian flow whose ``program``
    holds (dH/dp, dH/dq), at one jet order: ``kernel(s, b)`` of the flat
    state and the other symbols' bindings (see :class:`FlatState`)."""
    return program.kernel((order, "flat"), FlowJets)


def eval_expr_jet(e, bindings, order: int, state=None) -> list[float]:
    """Evaluate a :class:`Program`, or an :class:`Expr` compiled and its
    code generated for this one call, with some symbols bound to jets of the
    given order (a Program of several roots gives a list of them).  A
    binding that is a list is a jet; any other binding is a float.

    Constants must be real (the flow toolkit works over the reals).  A root
    that depends on no jet comes back as a constant jet of that order; a
    bound jet of another order raises ``ValueError("jet orders differ")``.

    With a flow's flat ``state``, two jets of the order end to end, q and
    p are read from it instead, and the run is the flow's jet field: ``e``
    holds (dH/dp, dH/dq) and the rates come back flat (:func:`jet_field`).
    """
    if order not in MONOMIALS:
        raise ValueError("jet order must be 1, 2 or 3")
    program = e if type(e) is Program else Program(e)
    if state is not None:
        return jet_field(program, order)(state, bindings)
    jets = tuple([n for n in program.names if type(bindings.get(n)) is list])
    return program.kernel((order, jets), _JetEmitter)(bindings)


def invert(gq: list[float], gp: list[float]) -> tuple[list[float], list[float]]:
    """Truncated inverse of the two-variable map (gq, gp) about its value.

    Returns displacement jets (dq, dp), with zero value, such that
    (gq, gp) evaluated at (dq, dp) is the value plus the identity
    displacement to the jets' order.  With L the linear part of the map
    and N its part of order 2 and above, the inverse is found order by
    order (Berz, *Modern Map Methods in Particle Beam Physics*, 1999): its
    degree 1 is L^-1, and its degree n is -L^-1 times the degree-n part of
    N at the inverse below degree n.  A singular linear part raises
    ValueError.  The code is generated per jet order on first use
    (:func:`_inverse`).
    """
    if len(gq) != len(gp):
        raise ValueError("jet orders differ")
    (a, b), (c, d) = gq[1:3], gp[1:3]
    det = a * d - b * c
    if det == 0.0:
        raise ValueError("the jet's linear part is singular")
    return tuple(_inverse(jet_order(gq))((gq, gp, (d / det, -b / det, -c / det, a / det))))


@functools.cache
def _inverse(order: int):
    """:func:`invert` at one jet order, written out degree by degree by the
    jet emitter over the coefficients of (gq, gp) and the rows of L^-1.
    ``powers[i, j]`` holds the coefficients of dq^i dp^j found so far:
    dq^i times dp^j, or a pure power as the one below it times dq or dp.
    Each coefficient sums only its terms of its degree, so no literal 0 or
    1 is multiplied: a product's in the multiplication table's order, N's
    in ``MONOMIALS`` order."""
    emit = _JetEmitter(Program(()), (order, ()))
    monos, table = MONOMIALS[order], _MUL_TABLE[order]
    gs, m = (emit.unpack("b[0]"), emit.unpack("b[1]")), emit.unpack("b[2]", 4)
    d = [["0.0", *row, *["0.0"] * (emit.width - 3)] for row in (m[:2], m[2:])]
    powers = {(1, 0): d[0], (0, 1): d[1]}
    for n in range(2, order + 1):
        part = [k for k, mono in enumerate(monos) if sum(mono) == n]
        for i, j in (mono for mono in monos if 2 <= sum(mono) <= n):
            x, y = ((powers[i, 0], powers[0, j]) if i and j
                    else (powers[i - 1, 0], d[0]) if i else (powers[0, j - 1], d[1]))
            got = powers.setdefault((i, j), ["0.0"] * emit.width)
            for k in part:
                terms = [f"{x[u]} * {y[v]}" for u, v in table[k] if "0.0" not in (x[u], y[v])]
                got[k] = emit.local(" + ".join(terms))
        for k in part:
            terms = [(c, powers[mono][k]) for c, mono in enumerate(monos) if 2 <= sum(mono) <= n]
            rq, rp = (emit.local(" + ".join(f"{g[c]} * {t}" for c, t in terms)) for g in gs)
            d[0][k] = emit.local(f"-({m[0]} * {rq} + {m[1]} * {rp})")
            d[1][k] = emit.local(f"-({m[2]} * {rq} + {m[3]} * {rp})")
    return emit.function(d, False)
