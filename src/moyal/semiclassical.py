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
truncated jet inversion per node, order by order (``jets.invert``'s rule),
turns it around, so the work grows linearly with T.  It keeps z(T) alone of
its scalar pass and the nodes' values alone of its backward pass, and one
loop generated per Hamiltonian runs every node's inversion, H's third
partials and the bracket as straight-line code.  The ode route
propagates the correction through a linear inhomogeneous equation driven
by order-2 jets, with one right-hand side generated per Hamiltonian: the
jet field, H's partials and the drive, grouped by its symmetries and with
the terms of H's partials that are 0 left out, written out as
straight-line code; it keeps only its last state.
Each route runs on a two-column Richardson table (:func:`_richardson`): at
exact doublings from a 64th of its finest step count, stopping at the first
level whose estimate of the first extrapolate's error, over the correction
and z(T), is at most 1e-8 relative, with the second extrapolate, and giving
its top level's own value, or error, where none is.  Transport's quadrature
nodes are its RK4 steps, so the table refines and extrapolates both at
once.
Both run on the RK4 loops of ``flow.rk4_loop``, read the jets' partials
through ``jets.PARTIALS`` and share H's table of partials; the formulas stay
independent: the C1/C2 contraction of the map's first and second
derivatives on the ode side, the cubed bidifferential under Simpson's
rule on the transport side.  So agreement, judged in one place by
:func:`route_gap`'s rule (:func:`hbar2_routes`), is evidence the formulas
are right, and both are compared against closed forms where one exists.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import partial

from .expr import ZERO, DerivTable, Expr, FloatEmitter, Program, add
from .flow import (
    PARTIAL_KEYS,
    STEPS_PER_UNIT_TIME,
    FlowBlowupError,
    HamiltonianSpec,
    integrate_flow,
    integrate_flow_jets,
    rk4_loop,
)
from .jets import MONOMIALS, PARTIALS, FlowJets, seed, table_locals, write_inverse
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
    "HierarchyLadders",
    "iterated_brackets",
    "TimeTaylorFlow",
    "taylor_flow",
    "DivergenceReport",
    "divergence_order",
    "Hbar2Result",
    "ROUTE_GAP_TOL",
    "route_gap",
    "hbar2_transport",
    "hbar2_ode",
    "hbar2_routes",
    "star_exp_A2",
    "cubic_order7_report",
    "CubicOrder7Report",
]

# bracket ladders are built to at most this depth
MAX_LADDER_DEPTH = 10

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


# the largest relative gap between the ode and transport routes that is
# accepted: the tolerance the benchmark's and criterion 06's checks of the
# two routes use
ROUTE_GAP_TOL = 1e-6


def route_gap(x: float, y: float) -> float:
    """The gap between two routes' values: |x - y| over max(|x|, |y|), 0
    when both are 0, infinite when either is not finite."""
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


# a route stops at the first level whose Richardson estimate of its first
# extrapolate, in every component, is at most this
_RICHARDSON_TOL = 1e-8
# steps per chunk of transport's backward pass, at most: a power of 2
_CHUNK = 4096


def _levels(top: int) -> list[int]:
    """The step counts a route runs, coarse to fine: ``top`` / 64, then each
    exact doubling up to ``top``, a multiple of 64."""
    return [top >> k for k in range(6, -1, -1)]


def _richardson(run, steps: int, unit: int = 64) -> tuple[float, float]:
    """A route's (Q2, P2) by a two-column Richardson table on RK4's h^4,
    h^5, ... error expansion (Hairer, Norsett & Wanner, *Solving ODEs I*,
    section II.4).  ``run(n)`` gives (Q2, P2, q(T), p(T)) at n steps, for
    each of :func:`_levels` of the top: ``steps`` rounded up to a multiple
    of ``unit``, itself a multiple of 64.  R1(n) = a_n + (a_n - a_{n/2}) /
    15 removes the h^4 term, RK4's and, on transport, that of its Simpson
    quadrature along with it; the route stops at the first level n where
    ``route_gap(R1(n/2), R1(n)) / 31``, the estimate of R1's error, is at
    most ``_RICHARDSON_TOL`` in all four components, and returns R2 =
    R1(n) + (R1(n) - R1(n/2)) / 31.  An error below the top counts as not
    met; where no level meets it, the route gives the top's own value or
    error."""
    levels = _levels(max(1, -(-steps // unit)) * unit)
    a = r1 = None
    for n in levels:
        try:
            fine = run(n)
        except (ArithmeticError, ValueError, FlowBlowupError):
            if n == levels[-1]:
                raise
            a = r1 = None
            continue
        r = a and [y + (y - x) / 15.0 for x, y in zip(a, fine)]
        if r1 and max(map(route_gap, r1, r)) / 31.0 <= _RICHARDSON_TOL:
            return tuple(y + (y - x) / 31.0 for x, y in zip(r1[:2], r[:2]))
        a, r1 = fine, r
    return fine[:2]


def hbar2_transport(
    ham: HamiltonianSpec,
    z0: tuple[float, float],
    t_final: float,
    steps_per_unit: int = STEPS_PER_UNIT_TIME,
) -> Hbar2Result:
    """hbar^2 correction at time T = t_final > 0 by quadrature along the
    classical trajectory.

    The correction is the integral over s in [0, T] of the grade-one
    bracket of the duration-s flow map with H, the bracket taken at the
    point z(T - s).  The flow is a group, so that map, based at z(T - s),
    is the inverse of the duration -s map based at z(T).  One scalar pass
    gives z(T), the one state it keeps; one backward pass of order-3 jets
    from z(T) gives the duration -s maps at every RK4 step, each a
    quadrature node, and the node loop (:class:`_NodeEmitter`) inverts
    each, by :func:`jets.invert`'s rule, into the map the bracket needs.
    The work grows linearly with T, and the jets held, a chunk of the pass
    (``_CHUNK``), do not.  Composite Simpson's rule assembles the integral
    on the steps, so the step count is even, and the step doublings of
    :func:`_richardson` refine the quadrature with the flow: its table
    extrapolates both errors.  ``steps_per_unit`` sets the finest step
    count, rounded up to a multiple of 128, so that the coarsest level is
    one Simpson panel of 2 steps or more.  Deterministic: step-doubling
    levels, not a step-size controller.
    """
    if not t_final > 0:
        raise ValueError("the transport route needs t_final > 0")
    nodes = _transport_nodes(ham)

    def run(steps: int) -> tuple[float, ...]:
        z_t = integrate_flow(ham, z0, t_final, steps, every=steps).states[-1]
        # the backward pass from z(T), in chunks that carry on each other's
        # jets (a power of 2 of steps if more than one, so the step is the
        # whole pass's, bit for bit); jets[k]: the duration -s map based at
        # z(T), s = k * T / steps, and states[k] its value, the node z(T - s)
        chunk = steps if steps <= _CHUNK else math.gcd(steps, _CHUNK)
        h = -t_final / steps
        vals, z, jets = ([0.0], [0.0]), z_t, None
        for k in range(0, steps, chunk):
            try:
                back = integrate_flow_jets(ham, z, chunk * h if chunk < steps else -t_final, chunk, 3, start=jets)
            except FlowBlowupError as err:
                # the backward pass's time -s is the user's time T - s
                raise FlowBlowupError(t_final + k * h + err.time) from None
            for f, got in zip(vals, nodes(back.jets[1:], ham.params)):
                f += got[1:]
            z, jets = back.states[-1], back.jets[-1]
        return _simpson(vals[0], t_final / steps), _simpson(vals[1], t_final / steps), *z_t

    q2, p2 = _richardson(run, round(steps_per_unit * t_final), 128)
    return Hbar2Result(q2=(q2,), p2=(p2,))


class _NodeEmitter(FloatEmitter):
    """Writes the transport route's integrand at every quadrature node as
    one loop, ``kernel(jets, b)``: from the order-3 jets (gq, gp) of each
    node's duration -s map, whose values are the node z(T - s), the lists
    [0.0, f(s_1), ...] of the map's two components, the 0.0 at s = 0.

    Per node, as straight-line code over the jets' coefficient locals: the
    inverse map's jets (dq, dp), by :func:`jets.invert`'s rule, refusal of
    a singular linear part first, then H's third partials at the node
    (``key``, H's table of partials, gives them), then for each component
    d the cubed bidifferential [d, H]_2 with weight -1/24, whose left factor
    is d's third partial (``jets.PARTIALS``): its terms summed onto 0.0 in j
    order, each skipped where its left or right factor is 0.0, as
    ``poly.bidifferential`` skips them, and not written where H's partial
    is identically 0.  So each value is bit for bit the one ``invert``,
    ``HamiltonianSpec.partials_at`` and ``bidifferential`` give, in fewer
    operations: a term whose weight is -1 or -3 is subtracted, which is the
    sum of its negation exactly.  Constants and parameters are read once,
    before the loop (:func:`jets.table_locals`).
    """

    args = "jets, b"

    def __init__(self, program, key):
        self.third = Program([key.get(j, 3 - j) for j in range(4)])
        super().__init__(self.third, key)

    def const(self, k):
        return "0.0" if self.env["K"][k] == 0.0 else f"K[{k}]"

    def sym(self, k):
        return {"q": "u0", "p": "w0"}.get(self.env["N"][k]) or self.binding.format(k)

    def generate(self, program):
        u, w = ([f"{c}{i}" for i in range(len(MONOMIALS[3]))] for c in "uw")
        self.lines = [
            "det = u1 * w2 - u2 * w1",
            "if det == 0.0:\n    raise ValueError(\"the jet's linear part is singular\")",
        ]
        m = [self.local(f"{x} / det") for x in ("w2", "-u2", "-w1", "u1")]
        h = self.third.walk(self)
        values = []
        # the third partials of the map that meet one of H's that is not 0
        top = {i for (i, _), hj in zip(PARTIALS[3][3], h) if hj != "0.0"}
        for d in write_inverse(self, 3, (u, w), m, top):
            acc = self.local("0.0")
            for j, (i, f) in enumerate(PARTIALS[3][3]):
                if h[j] == "0.0":
                    continue
                left = self.local(f"{d[i]} * {f}")
                # the weight C(3, j) (-1)^j is 1, -3, 3, -1
                term = f"{'3.0 * ' if j in (1, 2) else ''}{left} * {h[j]}"
                self.lines.append(f"if {left} and {h[j]}:\n    {acc} = {acc} {'-' if j % 2 else '+'} {term}")
            values.append(f"-{acc} / 24.0")
        body, reads = table_locals(self.env, "\n".join(self.lines))
        self.lines = [*reads, "fq, fp = [0.0], [0.0]", f"for ({', '.join(u)}), ({', '.join(w)}) in jets:",
                      *(f"    {row}" for row in body.split("\n")),
                      *(f"    {f}.append({v})" for f, v in zip(("fq", "fp"), values))]
        return self.function(["fq", "fp"], False)


def _transport_nodes(ham: HamiltonianSpec):
    """The transport route's node loop for ``ham`` (:class:`_NodeEmitter`):
    generated on first use and kept with H's partials."""
    return ham._partials.kernel(ham.partials, _NodeEmitter)


def _simpson(values: list[float], h: float) -> float:
    """Composite Simpson's rule on nodes a spacing h apart, an even number
    of intervals."""
    return (values[0] + values[-1] + 4.0 * sum(values[1::2]) + 2.0 * sum(values[2:-1:2])) * h / 3.0


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
    literal 0.0 in the code, and no drive or Jacobian term of it is
    written; a map derivative times 2 is written only where a C1 or C2
    term reads it.  A rate whose first term would be negated is carried as
    a negated rate, which a stage (see :class:`jets.FlatState`) leaves for
    the loop to subtract and the kernel returns as ``-(...)``.  The
    correction starts at +0.0, so the signs of zeros this form changes
    reach none of its states.
    """

    args = "s, b"
    size = 14

    def __init__(self, program, key):
        super().__init__(program, (2,))
        self.field, self.floats = key, False

    def const(self, k):
        return "0.0" if self.env["K"][k] == 0.0 else super().const(k)

    def read(self, start: int):
        return self.state(start) if self.floats else super().read(start)

    def generate(self, program):
        """The rates as ``kernel(s, b)``, a negated one as ``-(...)``."""
        self.held, self.sources = {}, [f"s[{i}]" for i in range(self.size)]
        rates, negated = self.rates(program)
        return self.function([f"-({r})" if n else r for r, n in zip(rates, negated)], False)

    def output(self, rates, single: bool) -> str:
        return f"[{', '.join(rates)}]"

    def rates(self, program) -> tuple[list[str], list[bool]]:
        self.floats = False
        rates, negated = super().rates(self.field)
        self.floats = True
        h = dict(zip(PARTIAL_KEYS, program.walk(self)))
        held = {}

        def d(n, a):
            """The partials of degree n of map component a, whose jet starts
            at component a * width: (d_q, d_p) or (d_qq, d_qp, d_pp), with
            a local for each one that is not its coefficient, on first
            read."""
            if (n, a) not in held:
                held[n, a] = [self.state(a * self.width + i) if f == 1
                              else self.local(f"{self.state(a * self.width + i)} * {f}")
                              for i, f in PARTIALS[2][n]]
            return held[n, a]

        # the partial of order n with j p slots of F_0, and of F_1 negated;
        # c1_j and c2_j are written where one of them is not 0
        fs = (lambda n, j: h[n - j, j + 1]), (lambda n, j: h[n + 1 - j, j])
        read = lambda n, j: any(f(n, j) != "0.0" for f in fs)

        def c1(j):
            if j != 1:
                xqq, xqp, xpp = d(2, j // 2)
                return f"{xqq} * {xpp} - {xqp} * {xqp}"
            (xqq, xqp, xpp), (yqq, yqp, ypp) = d(2, 0), d(2, 1)
            return f"{xqq} * {ypp} - 2.0 * {xqp} * {yqp} + {xpp} * {yqq}"

        c1 = {j: self.local(c1(j)) for j in range(3) if read(2, j)}
        c2 = {j: [] for j in range(4) if read(3, j)}
        for b, c in ((0, 0), (0, 1), (1, 1)):
            if not c2.keys() & {b + c, b + c + 1}:
                continue
            (yq, yp), (zq, zp) = d(1, b), d(1, c)
            # a symmetric pair's mixed product is one product doubled
            mixed = f"{yp} * {zq} + {yq} * {zp}" if b != c else f"2.0 * ({yp} * {zq})"
            pp, pm, qq = map(self.local, (f"{yp} * {zp}", mixed, f"{yq} * {zq}"))
            for a in (0, 1):
                if a + b + c in c2:
                    xqq, xqp, xpp = d(2, a)
                    term = f"({xqq} * {pp} - {xqp} * {pm} + {xpp} * {qq})"
                    c2[a + b + c].append(f"2.0 * {term}" if b != c else term)
        c2 = {j: self.local(" + ".join(terms)) for j, terms in c2.items()}

        def drive(f):
            sums = [(" + ".join(f"{cs[j]} * {f(n, j)}" for j in cs if f(n, j) != "0.0"), w)
                    for cs, n, w in ((c1, 2, "8.0"), (c2, 3, "24.0"))]
            return [f"({terms}) / {w}" for terms, w in sums if terms]

        # the Jacobian of F applied to the correction, with no term of a
        # partial that is 0, plus the drive
        z2q, z2p = self.state(2 * self.width), self.state(2 * self.width + 1)
        dq, dp = map(drive, fs)
        jq, jp = ([f"{c} * {z}" for c, z in terms if c != "0.0"]
                  for terms in (((h[1, 1], z2q), (h[0, 2], z2p)), ((h[2, 0], z2q), (h[1, 1], z2p))))
        minus_dq = f" - ({' + '.join(dq)})" if dq else ""
        # a rate whose first term would be negated is carried as a sign
        rate_q = (" + ".join(jq) + minus_dq, False) if jq else (" + ".join(dq) or "0.0", True)
        rate_p = (" - ".join([" + ".join(jp), *dp]), True) if jp else (" + ".join(dp) or "0.0", False)
        return [*rates, rate_q[0], rate_p[0]], [*negated, rate_q[1], rate_p[1]]


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
    identity jets and keeps only the last state.  ``steps_per_unit`` sets
    the finest RK4 step count, rounded up to a multiple of 64 for the
    doublings of :func:`_richardson`.
    """
    if t_final < 0:
        raise ValueError("the ode route needs t_final >= 0")
    rhs = partial(_hbar2_rates(ham), b=ham.params)
    loop = rk4_loop(ham._partials, ham._field, _Hbar2Emitter)

    def run(steps: int) -> tuple[float, ...]:
        # the order-2 jets' six coefficients each, then the correction pair;
        # only the last state is kept, and read with z(T), its jets' values
        state = [*seed(z0[0], 0, 2), *seed(z0[1], 1, 2), 0.0, 0.0]
        (state,) = loop(state, ham.params, t_final, steps, rhs, steps)
        return state[-2], state[-1], state[0], state[6]

    q2, p2 = _richardson(run, round(steps_per_unit * t_final))
    return Hbar2Result(q2=(q2,), p2=(p2,))


def hbar2_routes(
    ham: HamiltonianSpec,
    z0: tuple[float, float],
    times: list[float],
    steps_per_unit: int = STEPS_PER_UNIT_TIME,
) -> tuple[list[tuple[float, tuple[float, float], tuple[float, float]]], float, str | None]:
    """Both hbar^2 routes at each of ``times`` and their verdict: the rows
    (t, ode (Q2, P2), transport (Q2, P2)), the worst :func:`route_gap` (a tie
    goes to the later time, then to Q2), and the refusal text naming it where
    it exceeds ``ROUTE_GAP_TOL``, else None.  A negative time is refused
    before any route runs; at t = 0 neither runs and both give 0.0, and a
    repeated time reuses its first row's values."""
    if min(times) < 0:
        raise ValueError("the hbar^2 routes need times >= 0")
    rows = []
    worst = (0.0,)
    runs = {0.0: ((0.0, 0.0), (0.0, 0.0))}
    for t in times:
        if t not in runs:
            ode = hbar2_ode(ham, z0, t, steps_per_unit)
            tra = hbar2_transport(ham, z0, t, steps_per_unit)
            runs[t] = (ode.q2[0], ode.p2[0]), (tra.q2[0], tra.p2[0])
        by_ode, by_transport = runs[t]
        rows.append((t, by_ode, by_transport))
        for name, a, b in zip(("Q2", "P2"), by_ode, by_transport):
            worst = max(worst, (route_gap(a, b), t, name, a, b))
    gap, t, name, a, b = worst
    refusal = None if gap <= ROUTE_GAP_TOL else (
        f"at t = {t:.12g} the ode and transport routes differ in {name}: {a:.12g} (ode) "
        f"against {b:.12g} (transport), relative gap {gap:.3g} > {ROUTE_GAP_TOL:g}"
    )
    return rows, gap, refusal


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
