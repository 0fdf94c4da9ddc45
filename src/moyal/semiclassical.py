"""Semiclassical trajectory hierarchy: where deformed flows leave classical ones.

Exact side: iterate the classical and the deformed bracket on a polynomial
Hamiltonian to build the two time-Taylor flows coefficient by coefficient,
and locate the first order at which they part ways.  The series convention
is state(t) = sum_n t^n / n! * coeff_n with coeff_0 the seed symbol.

Numeric side: two routes to the hbar^2 trajectory correction at one time.
The transport route integrates the grade-one bracket of the flow map
against the Hamiltonian along the classical trajectory.  The flow is a
group, so the map it needs at each quadrature node (duration s, based at
z(T - s)) is the inverse of the duration -s map based at z(T): one
backward pass of order-3 jets from z(T) holds every node's map, and a
truncated jet inversion per node, order by order (``jets.invert``), turns
it around, so the work grows linearly with T.  The ode route propagates
the correction through a linear inhomogeneous equation driven by order-2
jets, with one right-hand side generated per Hamiltonian: the jet field,
H's partials and the drive, grouped by its symmetries and with the terms
of H's partials that are 0 left out, written out as straight-line code.
Both run on the RK4 loops of ``flow.rk4_loop``, whose stages are their
flows' right-hand sides written inline, and share H's table of partials
(the transport route reads it through ``HamiltonianSpec.partials_at``); the
formulas stay independent: the C1/C2 contraction of the map's first and
second derivatives on the ode side, the cubed bidifferential under Boole's
rule on the transport side.  So agreement is evidence the formulas are
right, and both are compared against closed forms where one exists.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import partial

from .expr import ZERO, DerivTable, Expr, add
from .flow import (
    PARTIAL_KEYS,
    STEPS_PER_UNIT_TIME,
    FlowBlowupError,
    HamiltonianSpec,
    integrate_flow,
    integrate_flow_jets,
    rk4_loop,
)
from .jets import FlowJets, invert, seed
from .poly import (
    P,
    PhasePolynomial,
    Q,
    bidifferential,
    format_poly,
    hbar_component,
    moyal_bracket,
    poisson_bracket,
    require_hbar_free,
)

__all__ = [
    "MAX_LADDER_DEPTH",
    "QUAD_PANELS_PER_UNIT",
    "HierarchyLadders",
    "iterated_brackets",
    "TimeTaylorFlow",
    "taylor_flow",
    "DivergenceReport",
    "divergence_order",
    "Hbar2Result",
    "hbar2_transport",
    "hbar2_ode",
    "star_exp_A2",
    "cubic_order7_report",
    "CubicOrder7Report",
]

# bracket ladders are built to at most this depth
MAX_LADDER_DEPTH = 10
# default quadrature panels per unit time of the transport route
QUAD_PANELS_PER_UNIT = 256

_SEEDS = {"q": Q, "p": P}


@dataclass(frozen=True)
class HierarchyLadders:
    """Iterated brackets of a seed coordinate with the Hamiltonian.

    classical[n] and deformed[n] hold the (n+1)-fold ladder entries, i.e.
    index 0 is the single bracket of the seed.
    """

    classical: tuple[PhasePolynomial, ...]
    deformed: tuple[PhasePolynomial, ...]


def iterated_brackets(h: PhasePolynomial, depth: int, seed: str) -> HierarchyLadders:
    """Build both bracket ladders exactly, to the given depth."""
    require_hbar_free(h, "the Hamiltonian")
    if seed not in _SEEDS:
        raise ValueError("seed must be 'q' or 'p'")
    if not 1 <= depth <= MAX_LADDER_DEPTH:
        raise ValueError(f"depth must be within [1, {MAX_LADDER_DEPTH}]")
    classical, deformed = [_SEEDS[seed]], [_SEEDS[seed]]
    for _ in range(depth):
        classical.append(poisson_bracket(classical[-1], h))
        deformed.append(moyal_bracket(deformed[-1], h))
    return HierarchyLadders(classical=tuple(classical[1:]), deformed=tuple(deformed[1:]))


@dataclass(frozen=True)
class TimeTaylorFlow:
    """Truncated flow series: state(t) = sum_n t^n/n! coeffs[n].

    coeffs[0] is the seed symbol itself, so the depth is len(coeffs) - 1.
    """

    coeffs: tuple[PhasePolynomial, ...]

    def evaluate(self, q: float, p: float, hbar: float, t: float) -> complex:
        acc = 0j
        tn = 1.0
        for n, c in enumerate(self.coeffs):
            if n:
                tn *= t / n
            acc += tn * c.evaluate(q, p, hbar)
        return acc

    def hbar2_grade_series(self) -> tuple[PhasePolynomial, ...]:
        return tuple(hbar_component(c, 2) for c in self.coeffs)

    def hbar2_coefficient(self, q: float, p: float, t: float) -> float:
        """Real part of the hbar^2 coefficient of the series at (q, p), time t."""
        return replace(self, coeffs=self.hbar2_grade_series()).evaluate(q, p, 1.0, t).real


def taylor_flow(h: PhasePolynomial, depth: int, seed: str) -> TimeTaylorFlow:
    """Time-Taylor coefficients of the deformed flow of a seed."""
    return TimeTaylorFlow(coeffs=(_SEEDS[seed],) + iterated_brackets(h, depth, seed).deformed)


@dataclass(frozen=True)
class DivergenceReport:
    """First Taylor order at which the deformed flow leaves the classical one."""

    seed: str
    first_divergent_order: int | None
    difference: PhasePolynomial
    per_order_equal: tuple[bool, ...]

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "first_divergent_order": self.first_divergent_order,
            "difference_polynomial": format_poly(self.difference),
            "per_order_equal": list(self.per_order_equal),
        }


def divergence_order(h: PhasePolynomial, depth: int) -> dict[str, DivergenceReport]:
    """Compare the two ladders exactly for both seeds.

    The reported difference is the ladder entry Omega_n - Lambda_n at the
    first divergent order n; dividing by n! gives the Taylor-series
    coefficient of t^n.
    """
    out = {}
    for seed in ("q", "p"):
        ladders = iterated_brackets(h, depth, seed)
        equal = tuple(c == d for c, d in zip(ladders.classical, ladders.deformed))
        first = equal.index(False) + 1 if False in equal else None
        diff = ladders.deformed[first - 1] - ladders.classical[first - 1] if first else PhasePolynomial.zero()
        out[seed] = DivergenceReport(
            seed=seed, first_divergent_order=first, difference=diff, per_order_equal=equal
        )
    return out


# -- hbar^2 corrections, numeric ----------------------------------------


@dataclass(frozen=True)
class Hbar2Result:
    """Coefficients of hbar^2 in the trajectory correction at one time
    (multiply by hbar^2 to get the correction itself); each field holds
    one element."""

    q2: tuple[float, ...]
    p2: tuple[float, ...]


def hbar2_transport(
    ham: HamiltonianSpec,
    z0: tuple[float, float],
    t_final: float,
    quad_panels_per_unit: int = QUAD_PANELS_PER_UNIT,
    steps_per_unit: int = STEPS_PER_UNIT_TIME,
) -> Hbar2Result:
    """hbar^2 correction at time T = t_final > 0 by quadrature along the
    classical trajectory.

    The correction is the integral over s in [0, T] of the grade-one
    bracket of the duration-s flow map with H, the bracket taken at the
    point z(T - s).  The flow is a group, so that map, based at z(T - s),
    is the inverse of the duration -s map based at z(T).  One scalar pass
    gives z(T); one backward pass of order-3 jets from z(T) gives the
    duration -s maps at every node, and :func:`jets.invert` turns each
    into the map the bracket needs.  The work grows linearly with T.
    Boole's rule (Romberg's first step on Simpson's rule, panel count a
    multiple of 4) assembles the integral.  Deterministic: panel counts
    and step counts are derived, not adaptive.
    """
    if not t_final > 0:
        raise ValueError("the transport route needs t_final > 0")
    panels = max(8, math.ceil(quad_panels_per_unit * t_final))
    panels += -panels % 4
    steps = max(panels, math.ceil(steps_per_unit * t_final))
    steps = ((steps + panels - 1) // panels) * panels
    stride = steps // panels
    z_t = integrate_flow(ham, z0, t_final, steps).states[-1]
    # jets[k * stride]: the duration -s map based at z(T), s = k * T / panels
    try:
        jets = integrate_flow_jets(ham, z_t, -t_final, steps, order=3).jets
    except FlowBlowupError as err:
        # the backward pass's time -s is the user's time T - s
        raise FlowBlowupError(t_final + err.time) from None
    fq_vals = [0.0]
    fp_vals = [0.0]
    for gq, gp in jets[stride::stride]:
        # the inverse: the duration-s map's jets at the node, less their
        # value z(T), which the order-3 derivatives below do not read
        dq, dp = invert(gq, gp)
        h = ham.partials_at(gq[0], gp[0])
        h3 = lambda a, b: h[a, b]
        for d, vals in ((dq, fq_vals), (dp, fp_vals)):
            # d_q^(3-b) d_p^b of the component: its last four coefficients
            # times jets.derivative's factorial products
            d3 = [c * f * g for c, (f, g) in zip(d[-4:], _THIRD_FACTORIALS)]
            # [map component, H]_2: the cubed bidifferential, weight -1/24
            vals.append(-bidifferential(lambda a, b: d3[b], h3, 3, 0.0) / 24.0)
    h_node = t_final / panels
    return Hbar2Result(q2=(_boole(fq_vals, h_node),), p2=(_boole(fp_vals, h_node),))


# a! and b! of the third-order partials d_q^a d_p^b, in MONOMIALS order
_THIRD_FACTORIALS = ((6, 1), (2, 1), (1, 2), (1, 6))


def _boole(values: list[float], h: float) -> float:
    """Boole's rule on an even node spacing h (panel count a multiple of 4),
    written as Simpson's rule S_n extrapolated against S_n/2 on every
    second node: S_n + (S_n - S_n/2) / 15."""

    def simpson(v: list[float], step: float) -> float:
        n = len(v) - 1
        acc = v[0] + v[n]
        for i in range(1, n):
            acc += v[i] * (4.0 if i % 2 else 2.0)
        return acc * step / 3.0

    s_n = simpson(values, h)
    return s_n + (s_n - simpson(values[::2], 2.0 * h)) / 15.0


# the ode route's RK4 steps at least this many times, whatever t_final: a
# correction that starts at t^5 is below the error of fewer steps
_MIN_ODE_STEPS = 32


class _Hbar2Emitter(FlowJets):
    """Writes the ode route's right-hand side over its flat state ``s`` of
    14 floats: the order-2 jets of q and p (six coefficients each), then the
    correction pair (z2q, z2p).  It walks the jet field's tape as the jet
    emitter does (``key`` is that Program), then H's partials' tape, whose
    tables start with the field's, as float code at the jets' value, then
    writes out the drive and the Jacobian term; the rates come back flat,
    the jets' then the pair's.

    The drive contracts the map's first and second derivatives with the
    second and third derivatives of the Hamiltonian vector field
    F = (dH/dp, -dH/dq):

        drive_r = -(1/16) sum_{ab} C1_ab d2F_r/dZa dZb
                  -(1/24) sum_{abc} C2_abc d3F_r/dZa dZb dZc

    with C1 and C2 the symplectic contractions of the map derivatives.
    C1 is symmetric in (a, b), C2 in (b, c), and a partial of F depends
    only on the number j of its slots that are p.  So each component is
    (sum_j c1_j F_j) / 8 + (sum_j c2_j F_j) / 24 in j order, with c1_j half
    the C1 terms and c2_j the C2 terms of j p slots, and each (b, c) pair's
    products are formed once.  A partial of H that is identically 0 is the
    literal 0.0 in the code, and the drive terms it would multiply are not
    written.
    """

    size = 14

    def __init__(self, program, key):
        super().__init__(program, (2,))
        self.field, self.floats = key, False

    def const(self, k):
        return "0.0" if self.env["K"][k] == 0.0 else super().const(k)

    def read(self, start: int):
        return self.state(start) if self.floats else super().read(start)

    def rates(self, program) -> list[str]:
        self.floats = False
        jets = super().rates(self.field)
        self.floats = True
        h = dict(zip(PARTIAL_KEYS, program.walk(self)))
        # the jets' coefficients past the value, keyed by index
        jq, jp = ({m: self.state(start + m) for m in range(1, 6)} for start in (0, 6))
        # map component a: d1[a] = (d_q, d_p), d2[a] = (d_qq, d_qp, d_pp),
        # read from the normalized coefficients with jets.derivative's exact
        # factorial products
        d1 = ((jq[1], jq[2]), (jp[1], jp[2]))
        d2 = [(self.local(f"{m[3]} * 2"), m[4], self.local(f"{m[5]} * 2")) for m in (jq, jp)]
        # the partial of order n with j p slots of F_0, and of F_1 negated;
        # c1_j and c2_j are written where one of them is not 0
        fs = (lambda n, j: h[n - j, j + 1]), (lambda n, j: h[n + 1 - j, j])
        read = lambda n, j: any(f(n, j) != "0.0" for f in fs)
        (xqq, xqp, xpp), (yqq, yqp, ypp) = d2
        c1 = (
            f"{xqq} * {xpp} - {xqp} * {xqp}",
            f"{xqq} * {ypp} - 2.0 * {xqp} * {yqp} + {xpp} * {yqq}",
            f"{yqq} * {ypp} - {yqp} * {yqp}",
        )
        c1 = {j: self.local(rhs) for j, rhs in enumerate(c1) if read(2, j)}
        c2 = {j: [] for j in range(4) if read(3, j)}
        for b, c in ((0, 0), (0, 1), (1, 1)):
            if not c2.keys() & {b + c, b + c + 1}:
                continue
            (yq, yp), (zq, zp) = d1[b], d1[c]
            pp, pm, qq = map(self.local, (f"{yp} * {zp}", f"{yp} * {zq} + {yq} * {zp}", f"{yq} * {zq}"))
            for a, (xqq, xqp, xpp) in enumerate(d2):
                if a + b + c in c2:
                    term = f"({xqq} * {pp} - {xqp} * {pm} + {xpp} * {qq})"
                    c2[a + b + c].append(f"2.0 * {term}" if b != c else term)
        c2 = {j: self.local(" + ".join(terms)) for j, terms in c2.items()}

        def drive(f):
            sums = [(" + ".join(f"{cs[j]} * {f(n, j)}" for j in cs if f(n, j) != "0.0"), w)
                    for cs, n, w in ((c1, 2, "8.0"), (c2, 3, "24.0"))]
            return " + ".join(f"({terms}) / {w}" for terms, w in sums if terms)

        # the Jacobian of F applied to the correction, plus the drive
        z2q, z2p = self.state(12), self.state(13)
        dq, dp = map(drive, fs)
        rate_q = f"{h[1, 1]} * {z2q} + {h[0, 2]} * {z2p}" + (dq and f" - ({dq})")
        rate_p = f"-{h[2, 0]} * {z2q} - {h[1, 1]} * {z2p}" + (dp and f" + {dp}")
        return [*jets, rate_q, rate_p]


def _hbar2_rates(ham: HamiltonianSpec):
    """The ode route's right-hand side for ``ham``, ``kernel(s, b)`` with
    ``b`` the parameters' bindings: generated on first use and kept with
    H's partials."""
    return ham._partials.kernel(ham._field, _Hbar2Emitter)


def hbar2_ode(
    ham: HamiltonianSpec,
    z0: tuple[float, float],
    t_final: float,
    steps_per_unit: int = STEPS_PER_UNIT_TIME,
) -> Hbar2Result:
    """hbar^2 correction at time t_final >= 0 by direct integration of its
    evolution equation.

    The correction pair rides along order-2 jets of the classical flow:
    its rate is the Jacobian of the Hamiltonian vector field applied to
    the current correction plus the jet-driven inhomogeneity
    (:class:`_Hbar2Emitter`).  Starts from zero correction and the
    identity jets, and takes at least 32 RK4 steps.
    """
    if t_final < 0:
        raise ValueError("the ode route needs t_final >= 0")
    rhs = partial(_hbar2_rates(ham), b=ham.params)
    loop = rk4_loop(ham._partials, ham._field, _Hbar2Emitter)
    # the order-2 jets' six coefficients each, then the correction pair
    state = [*seed(z0[0], 0, 2), *seed(z0[1], 1, 2), 0.0, 0.0]
    for state in loop(state, ham.params, t_final, max(_MIN_ODE_STEPS, round(steps_per_unit * t_final)), rhs):
        pass
    return Hbar2Result(q2=(state[12],), p2=(state[13],))


# -- star-exponential second-order kernel --------------------------------


def star_exp_A2(b_expr: Expr) -> Expr:
    """Second deformation coefficient of the star exponential of B.

    Index form, with J the symplectic matrix on (q, p) and all indices
    summed:

        A2 = -J_ik J_jl (d_i d_j B) [ (1/16) d_k d_l B
                                      + (1/24) (d_k B)(d_l B) ]

    that is, the squared bidifferential operator applied to (B, B) with
    weight -1/16 and to (B, first derivatives of B) with weight -1/24.
    Built fully distributed so that structural comparison against an
    expected polynomial is exact after collection.
    """
    t = DerivTable(b_expr)

    def grad(a: int, b: int) -> Expr:
        return t.get(1, 0) ** a * t.get(0, 1) ** b

    return add(
        bidifferential(t.get, t.get, 2, ZERO, Fraction(-1, 16)),
        bidifferential(t.get, grad, 2, ZERO, Fraction(-1, 24)),
    )


# -- cubic-potential order-7 comparison ----------------------------------


@dataclass(frozen=True)
class CubicOrder7Report:
    """Exact order-7 ladder difference for V = q^3/6 against the quoted
    closed form 5 hbar^2 (V''')^3 / (4 m^4) (the t^7/7! coefficient scaled
    back to a ladder entry)."""

    agrees_through_order_6: dict[str, bool]
    difference_order_7: dict[str, str]
    quoted_order_7: str
    matches_quoted: dict[str, bool]

    def to_json_dict(self) -> dict:
        return asdict(self)


def cubic_order7_report(m=1) -> CubicOrder7Report:
    """Compare ladders at depth 7 for the cubic potential, both seeds."""
    m = Fraction(m)
    h = PhasePolynomial.monomial(Fraction(1, 2) / m, 0, 2, 0) + PhasePolynomial.monomial(
        Fraction(1, 6), 3, 0, 0
    )
    quoted = PhasePolynomial.monomial(Fraction(5, 4) / m ** 4, 0, 0, 2)
    agrees, diffs, matches = {}, {}, {}
    for seed in ("q", "p"):
        ladders = iterated_brackets(h, 7, seed)
        agrees[seed] = all(c == d for c, d in zip(ladders.classical[:6], ladders.deformed[:6]))
        diff7 = ladders.deformed[6] - ladders.classical[6]
        diffs[seed] = format_poly(diff7)
        matches[seed] = diff7 == quoted
    return CubicOrder7Report(
        agrees_through_order_6=agrees,
        difference_order_7=diffs,
        quoted_order_7=format_poly(quoted),
        matches_quoted=matches,
    )
