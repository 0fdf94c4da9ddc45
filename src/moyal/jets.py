"""Truncated Taylor arithmetic in two perturbation variables.

A jet carries the value of a quantity together with its mixed partial
derivatives with respect to the two initial-condition displacements, up to
a fixed total order (at most 3).  Propagating jets through the same
integrator the scalar flow uses yields the variational derivatives of the
flow map without hand-derived variational equations.

A jet is its list of Taylor-normalized coefficients (divided by
factorials) in ``MONOMIALS[order]`` order, so its order is read from the
list's length.  This module owns that layout: :func:`seed` writes it, and
other modules read partials through ``PARTIALS`` or :func:`derivative`.
The one jet arithmetic is the straight-line code the jet emitter writes
from the multiplication table precomputed per order (a square's pairs
of distinct coefficients once, doubled), for expression runs
(``eval_expr_jet``, the jet flows' field too), the stages of their RK4
loops (``FlowJets``) and the truncated inverse (``invert``), whose
degree-by-degree code :func:`write_inverse` also writes into the transport
route's node loop.  A stage holds only the float work that changes a state
(:class:`FlatState`).  A call, or a power outside 2 to 4, takes its
derivatives from ``expr.differentiate``, the one derivative table, so this
module holds no derivative formula.
"""

from __future__ import annotations

import functools
import math

from .expr import FloatEmitter, Program, call, differentiate, pow_int, sym

__all__ = ["MONOMIALS", "PARTIALS", "seed", "derivative", "jet_order", "eval_expr_jet", "invert"]

_MAX_ORDER = 3

# graded lexicographic monomial order in the two displacements
MONOMIALS: dict[int, list[tuple[int, int]]] = {}
_INDEX: dict[int, dict[tuple[int, int], int]] = {}
# PARTIALS[order][n]: (coefficient index, a! * b!) of each partial
# d_q^a d_p^b of degree n = a + b, in b order; the partial is the
# coefficient times the product
PARTIALS: dict[int, list[list[tuple[int, int]]]] = {}
# the (i, j) terms of each product coefficient k, in (i, j) order
_MUL_TABLE: dict[int, list[list[tuple[int, int]]]] = {}
for _order in range(1, _MAX_ORDER + 1):
    monos = [(d - b, b) for d in range(_order + 1) for b in range(d + 1)]
    MONOMIALS[_order] = monos
    _INDEX[_order] = index = {mk: i for i, mk in enumerate(monos)}
    PARTIALS[_order] = [[(index[d - b, b], math.factorial(d - b) * math.factorial(b)) for b in range(d + 1)]
                        for d in range(_order + 1)]
    _MUL_TABLE[_order] = table = [[] for _ in monos]
    for i, (a1, b1) in enumerate(monos):
        for j, (a2, b2) in enumerate(monos):
            if a1 + a2 + b1 + b2 <= _order:
                table[index[a1 + a2, b1 + b2]].append((i, j))


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
    from ``0.0`` in the multiplication table's term order, and a square
    (a jet times itself: x^2, the first product of a power, and the square
    of a series' displacement part) sums the products of each pair of
    distinct coefficients once, in that order, doubles the sum and adds
    the coefficients' own squares, which at order 3 is 38 operations in
    place of 61 in a stage; powers 2 to 4 are repeated products.  A call
    or another power unpacks the scalar function's derivatives at the
    value (:func:`_derivatives`, appended to the function table ``F``)
    and sums its Taylor series in the displacement part (:meth:`series`;
    x / 1 is x, so the first term is not divided).  Each bound jet is unpacked into as many locals as its
    order has coefficients, and one of another order is refused there.

    ``inline`` is set while the emitter writes a stage of an RK4 loop
    (:meth:`FlatState.stage`).  Two rules read it, the only ones that
    would change the sign of a zero in a public kernel's result: in every
    coefficient but the value (coefficient 0), a literal ``0.0`` operand
    writes no sum or product, and a jet product's sum starts from its
    first term (:meth:`dropped`, :meth:`mul2`); a value's operation on
    literal 0.0s alone is the literal, +0.0.
    """

    inline = False

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
            scale = derivs[1] if r == 1 else self.local(f"{derivs[r]} / {math.factorial(r)}")
            acc = self.add2(acc, self.mul2(scale, power))
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

    def dropped(self, k: int, *operands: str) -> bool:
        """Whether a stage writes no operation on coefficient k of these
        operands: one is the literal 0.0 and k > 0, or all are."""
        return self.inline and "0.0" in operands and (k > 0 or all(x == "0.0" for x in operands))

    def plus(self, k: int, a: str, b: str) -> str:
        """Coefficient k of a sum of jets."""
        if self.dropped(k, a, b):
            return b if a == "0.0" else a
        return self.local(f"{a} + {b}")

    def times(self, k: int, c: str, a: str) -> str:
        """Coefficient k of the float c times a jet whose coefficient k is
        a."""
        if self.dropped(k, c, a):
            return "0.0"
        return self.local(f"{c} * {a}")

    def add2(self, x, y):
        if type(x) is str and type(y) is str:
            return self.local(f"{x} + {y}")
        if type(y) is str:
            return [self.local(f"{x[0]} + {y}"), *x[1:]]
        if type(x) is str:
            return [self.local(f"{y[0]} + {x}"), *y[1:]]
        return [self.plus(k, a, b) for k, (a, b) in enumerate(zip(x, y))]

    def mul2(self, x, y):
        if type(x) is str and type(y) is str:
            return self.local(f"{x} * {y}")
        if type(y) is str:
            return [self.times(k, y, a) for k, a in enumerate(x)]
        if type(x) is str:
            return [self.times(k, x, b) for k, b in enumerate(y)]
        sums = []
        for k, terms in enumerate(_MUL_TABLE[self.order]):
            if x == y:  # a square: each pair i < j once, doubled, then i = j
                pairs = [f"{x[i]} * {x[j]}" for i, j in terms if i < j and not self.dropped(k, x[i], x[j])]
                products = [f"2.0 * ({' + '.join(pairs)})"] * bool(pairs) + [
                    f"{x[i]} * {x[i]}" for i, j in terms if i == j and not self.dropped(k, x[i], x[i])]
            else:
                products = [f"{x[i]} * {y[j]}" for i, j in terms if not self.dropped(k, x[i], y[j])]
            if products and not (k and self.inline):
                products.insert(0, "0.0")
            sums.append(self.local(" + ".join(products)) if products else "0.0")
        return sums

    def coefficients(self, ref) -> list[str]:
        if type(ref) is str:  # a root that depends on no jet
            return [ref, *["0.0"] * (self.width - 1)]
        return ref

    def result(self, ref) -> str:
        return f"[{', '.join(self.coefficients(ref))}]"


# the characters around the names an expression reads
_PUNCTUATION = str.maketrans("()[],+-*/", " " * 9)


class FlatState:
    """Mixed into an emitter: a run over a Hamiltonian flow's flat state,
    written inline as one stage of an RK4 loop (:meth:`stage`).

    The symbols q and p read their values from the state, q's from
    component 0 on and p's from component ``stride`` on, one local per
    coefficient (``read``), and a run reads each component once
    (:meth:`state`); every other symbol is read from the bindings ``b``,
    and it and a constant are read as they are (``b[N[k]]``, ``K[k]``),
    with no local.  The two roots (dH/dp, dH/dq) give the flow's rates,
    flat: the first root's coefficients, then the second root's, which a
    stage leaves for the loop to subtract (:meth:`rates`).

    A stage writes only float work that changes a state, and gives the
    states the public field gives, bit for bit.  A jet's derivative
    coefficients start at +0.0 or 1.0 and are never -0.0 after, since
    x + y is -0.0 only when both are; so the sign of a zero in their rates
    reaches no state, and their sums and products may drop a literal 0.0
    operand (:class:`_JetEmitter`'s ``inline``).  A value (coefficient 0)
    may start at -0.0 and reads only values, so its operations are written
    as a public kernel writes them.  A negated rate is carried as a sign:
    x - c * r is x + c * (-r), and the loop's update negates the first
    rate and subtracts the other three, which is the sum of the negated
    rates, exactly.  A stage writes each rate's last operation straight
    into its target.
    """

    stride = 1

    @property
    def size(self) -> int:  # the state's length
        return 2 * self.stride

    def state(self, i: int) -> str:
        """The local that holds component i of the state the run reads,
        assigned its source on first read; a source that is a name is read
        as it is."""
        if i not in self.held:
            source = self.sources[i]
            self.held[i] = source if source.isidentifier() else self.local(source)
        return self.held[i]

    def const(self, k):
        return f"K[{k}]"

    def sym(self, k):
        name = self.env["N"][k]
        if name not in ("q", "p"):
            return self.binding.format(k)
        return self.read(self.stride if name == "p" else 0)

    def rates(self, program) -> tuple[list[str], list[bool]]:
        """The sources of the rates, ``program``'s tape walked once, and
        which of them are negated."""
        first, second = map(self.coefficients, program.walk(self))
        return [*first, *second], [False] * len(first) + [True] * len(second)

    def stage(self, program, sources: list[str], targets: list[str]) -> tuple[list[str], list[bool]]:
        """The lines of an RK4 stage, which assign the rates at the state
        whose components are the expressions ``sources`` to ``targets``, a
        rate that :meth:`rates` negates without its sign; and which rates
        are negated.  A component the rates do not read is not computed."""
        self.held, self.sources, self.lines, self.inline = {}, sources, [], True
        rates, negated = self.rates(program)
        lines = self.lines
        # a local that one rate holds and no line reads is assigned to the
        # rate's target itself
        defined = {line.partition(" = ")[0]: i for i, line in enumerate(lines)}
        reads = set(" ".join(line.partition(" = ")[2] for line in lines).translate(_PUNCTUATION).split())
        moved = {}
        for t, r in zip(targets, rates):
            if r in moved:
                lines.append(f"{t} = {moved[r]}")
            elif r in defined and r not in reads:
                moved[r] = t
                lines[defined[r]] = t + lines[defined[r]][len(r):]
            else:
                lines.append(f"{t} = {r}")
        return lines, negated


class FlowJets(FlatState, _JetEmitter):
    """Writes the jet field of a flow as a stage of its RK4 loop, over the
    flat state of two jets of the order ``key[0]`` end to end."""

    def __init__(self, program: Program, key):
        super().__init__(program, (key[0], ()))
        self.stride = self.width

    def read(self, start: int) -> list[str]:
        return [self.state(start + m) for m in range(self.width)]


def eval_expr_jet(e, bindings, order: int) -> list[float]:
    """Evaluate a :class:`Program`, or an :class:`Expr` compiled and its
    code generated for this one call, with some symbols bound to jets of the
    given order (a Program of several roots gives a list of them).  A
    binding that is a list is a jet; any other binding is a float.

    Constants must be real (the flow toolkit works over the reals).  A root
    that depends on no jet comes back as a constant jet of that order; a
    bound jet of another order raises ``ValueError("jet orders differ")``.
    """
    if order not in MONOMIALS:
        raise ValueError("jet order must be 1, 2 or 3")
    program = e if type(e) is Program else Program(e)
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
    """:func:`invert` at one jet order: :func:`write_inverse` over the
    coefficients of (gq, gp) and the rows of L^-1."""
    emit = _JetEmitter(Program(()), (order, ()))
    gs, m = (emit.unpack("b[0]"), emit.unpack("b[1]")), emit.unpack("b[2]", 4)
    return emit.function(write_inverse(emit, order, gs, m), False)


def write_inverse(emit, order: int, gs, m: list[str], top=None) -> list[list[str]]:
    """The coefficients of :func:`invert`'s inverse, written out degree by
    degree as ``emit``'s locals (:meth:`expr.FloatEmitter.local`) from the
    coefficient names ``gs`` of (gq, gp) and the entries ``m`` of L^-1 by
    rows; of the top degree, only the coefficients ``top`` holds, if it is
    given, and the others are left 0.0.  ``powers[i, j]`` holds the
    coefficients of dq^i dp^j found so far: dq^i times dp^j, or a pure
    power as the one below it times dq or dp.  Each coefficient sums only its terms of its degree, so no literal
    0 or 1 is multiplied: a product's in the multiplication table's order,
    N's in ``MONOMIALS`` order."""
    monos, table = MONOMIALS[order], _MUL_TABLE[order]
    width = len(monos)
    d = [["0.0", *row, *["0.0"] * (width - 3)] for row in (m[:2], m[2:])]
    powers = {(1, 0): d[0], (0, 1): d[1]}
    for n in range(2, order + 1):
        part = [k for k, mono in enumerate(monos)
                if sum(mono) == n and (n < order or top is None or k in top)]
        for i, j in (mono for mono in monos if 2 <= sum(mono) <= n):
            x, y = ((powers[i, 0], powers[0, j]) if i and j
                    else (powers[i - 1, 0], d[0]) if i else (powers[0, j - 1], d[1]))
            got = powers.setdefault((i, j), ["0.0"] * width)
            for k in part:
                terms = [f"{x[u]} * {y[v]}" for u, v in table[k] if "0.0" not in (x[u], y[v])]
                got[k] = emit.local(" + ".join(terms))
        for k in part:
            terms = [(c, powers[mono][k]) for c, mono in enumerate(monos) if 2 <= sum(mono) <= n]
            rq, rp = (emit.local(" + ".join(f"{g[c]} * {t}" for c, t in terms)) for g in gs)
            d[0][k] = emit.local(f"-({m[0]} * {rq} + {m[1]} * {rp})")
            d[1][k] = emit.local(f"-({m[2]} * {rq} + {m[3]} * {rp})")
    return d


def table_locals(env: dict, source: str) -> tuple[str, list[str]]:
    """``source``, code generated over the tables of ``env``, with each
    entry of the constants ``K``, the functions ``F`` and the bindings
    ``b[N[k]]`` it reads replaced by a local, and the lines that assign
    those locals: a generated loop reads each entry once, before it
    starts."""
    tables = [(f"{t}[{i}]", f"{t}{i}") for t in "KF" for i in range(len(env[t]))]
    tables += [(f"b[N[{i}]]", f"B{i}") for i in range(len(env["N"]))]
    tables = [(read, name) for read, name in tables if read in source]
    for read, name in tables:
        source = source.replace(read, name)
    return source, [f"{name} = {read}" for read, name in tables]
