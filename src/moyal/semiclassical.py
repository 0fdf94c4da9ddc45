"""Semiclassical trajectory hierarchy: where deformed flows leave classical ones.

Exact side: iterate the classical and the deformed bracket on a polynomial
Hamiltonian to build the two time-Taylor flows coefficient by coefficient,
and locate the first order at which they part ways.  The series convention
is state(t) = sum_n t^n / n! * coeff_n with coeff_0 the seed symbol.

Numeric side: two independent routes to the hbar^2 trajectory correction.
The transport route integrates the grade-one bracket of the flow map
against the Hamiltonian along the classical trajectory (order-3 jets give
the map's third derivatives at each quadrature node); the ode route
propagates the correction through a linear inhomogeneous equation driven
by order-2 jets.  They share no code beyond the integrator, so agreement
is evidence the formulas are right, and both are compared against closed
forms where one exists.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product

from .expr import REAL, ZERO, DerivTable, Expr, add, const, eval_real, evaluate, mul
from .flow import (
    STEPS_PER_UNIT_TIME,
    HamiltonianSpec,
    default_steps,
    integrate_flow,
    integrate_flow_jets,
    rk4,
    step_times,
)
from .jets import TruncatedJet
from .poly import (
    P,
    PhasePolynomial,
    Q,
    bidifferential,
    format_poly,
    hbar_component,
    moyal_bracket,
    poisson_bracket,
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
    "hbar2_transport",
    "hbar2_ode",
    "hbar2_inhomogeneity",
    "star_exp_A2",
    "cubic_order7_report",
    "CubicOrder7Report",
]

# bracket ladders are built to at most this depth
MAX_LADDER_DEPTH = 10

_SEEDS = {"q": Q, "p": P}


def _check_hamiltonian_poly(h: PhasePolynomial):
    if any(hh for (_a, _b, hh) in h.terms):
        raise ValueError("the polynomial Hamiltonian must be hbar-free")


@dataclass(frozen=True)
class HierarchyLadders:
    """Iterated brackets of a seed coordinate with the Hamiltonian.

    classical[n] and deformed[n] hold the (n+1)-fold ladder entries, i.e.
    index 0 is the single bracket of the seed.
    """

    seed: str
    classical: tuple[PhasePolynomial, ...]
    deformed: tuple[PhasePolynomial, ...]


def iterated_brackets(h: PhasePolynomial, depth: int, seed: str) -> HierarchyLadders:
    """Build both bracket ladders exactly, to the given depth."""
    _check_hamiltonian_poly(h)
    if seed not in _SEEDS:
        raise ValueError("seed must be 'q' or 'p'")
    if not 1 <= depth <= MAX_LADDER_DEPTH:
        raise ValueError(f"depth must be within [1, {MAX_LADDER_DEPTH}]")
    classical = []
    deformed = []
    c = _SEEDS[seed]
    d = _SEEDS[seed]
    for _ in range(depth):
        c = poisson_bracket(c, h)
        d = moyal_bracket(d, h)
        classical.append(c)
        deformed.append(d)
    return HierarchyLadders(seed=seed, classical=tuple(classical), deformed=tuple(deformed))


@dataclass(frozen=True)
class TimeTaylorFlow:
    """Truncated flow series: state(t) = sum_n t^n/n! coeffs[n].

    coeffs[0] is the seed symbol itself; kind records which bracket built
    the ladder.
    """

    kind: str
    seed: str
    depth: int
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


def taylor_flow(h: PhasePolynomial, depth: int, kind: str, seed: str) -> TimeTaylorFlow:
    """Time-Taylor coefficients of the classical or deformed flow of a seed."""
    if kind not in ("classical", "deformed"):
        raise ValueError("kind must be 'classical' or 'deformed'")
    ladders = iterated_brackets(h, depth, seed)
    ladder = ladders.classical if kind == "classical" else ladders.deformed
    return TimeTaylorFlow(
        kind=kind,
        seed=seed,
        depth=depth,
        coeffs=(_SEEDS[seed],) + ladder,
    )


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
        equal = []
        first = None
        diff = PhasePolynomial.zero()
        for n0, (c, d) in enumerate(zip(ladders.classical, ladders.deformed)):
            same = c == d
            equal.append(same)
            if not same and first is None:
                first = n0 + 1
                diff = d - c
        out[seed] = DivergenceReport(
            seed=seed,
            first_divergent_order=first,
            difference=diff,
            per_order_equal=tuple(equal),
        )
    return out


# -- hbar^2 corrections, numeric ----------------------------------------


@dataclass(frozen=True)
class Hbar2Result:
    """Coefficients of hbar^2 in the trajectory correction at the sampled
    times (multiply by hbar^2 to get the correction itself)."""

    times: tuple[float, ...]
    q2: tuple[float, ...]
    p2: tuple[float, ...]
    method: str

    def to_csv(self) -> str:
        lines = ["t,Q2,P2,method"]
        for t, a, b in zip(self.times, self.q2, self.p2):
            lines.append(f"{t:.17g},{a:.17g},{b:.17g},{self.method}")
        return "\n".join(lines) + "\n"


def hbar2_transport(
    ham: HamiltonianSpec,
    z0: tuple[float, float],
    t_final: float,
    times: list[float] | None = None,
    quad_panels_per_unit: int = 64,
    steps_per_unit: int | None = None,
) -> Hbar2Result:
    """hbar^2 correction by quadrature along the classical trajectory.

    The correction at time T is the integral over s in [0, T] of the
    grade-one bracket of the duration-s flow map with H, the bracket taken
    at the point reached after time T - s.  Per quadrature node this
    integrates order-3 jets from that point for duration s; Simpson's rule
    assembles the integral.  Deterministic: panel counts and step counts
    are derived, not adaptive.
    """
    if times is None:
        times = [t_final]
    if any(t <= 0 or t > t_final + 1e-12 for t in times):
        raise ValueError("requested times must lie in (0, t_final]")
    per_unit = steps_per_unit if steps_per_unit is not None else STEPS_PER_UNIT_TIME
    out_q = []
    out_p = []
    for T in times:
        panels = max(8, math.ceil(quad_panels_per_unit * T))
        if panels % 2:
            panels += 1
        steps = max(panels, math.ceil(per_unit * T))
        steps = ((steps + panels - 1) // panels) * panels
        stride = steps // panels
        base = integrate_flow(ham, z0, T, steps)
        h_node = T / panels
        fq_vals = [0.0]
        fp_vals = [0.0]
        for k in range(1, panels + 1):
            w = base.states[steps - k * stride]
            jet_traj = integrate_flow_jets(ham, w, k * h_node, k * stride, order=3)
            # the final jets hold the duration-s map's derivatives, based at w
            jq, jp = jet_traj.jets[-1]
            point = {"q": w[0], "p": w[1], **ham.params}

            def h3(a: int, b: int) -> float:
                return eval_real(ham.partials.get(a, b), point)

            # [map component, H]_2: the cubed bidifferential, weight -1/24
            fq_vals.append(-bidifferential(jq.derivative, h3, 3, 0.0) / 24.0)
            fp_vals.append(-bidifferential(jp.derivative, h3, 3, 0.0) / 24.0)
        out_q.append(_simpson(fq_vals, h_node))
        out_p.append(_simpson(fp_vals, h_node))
    return Hbar2Result(
        times=tuple(times), q2=tuple(out_q), p2=tuple(out_p), method="transport"
    )


def _simpson(values: list[float], h: float) -> float:
    n = len(values) - 1
    acc = values[0] + values[n]
    for i in range(1, n):
        acc += values[i] * (4.0 if i % 2 else 2.0)
    return acc * h / 3.0


def hbar2_inhomogeneity(ham: HamiltonianSpec):
    """Builder for the inhomogeneous part of the hbar^2 correction equation.

    Returns a function of (jq, jp) order-2 jets producing the pair of
    driving terms.  The contraction couples the map's first and second
    derivatives (from the jets) to the second and third derivatives of the
    Hamiltonian vector field at the jets' value point:

        drive_r = -(1/16) sum_{ab} C1_ab d2F_r/dZa dZb
                  -(1/24) sum_{abc} C2_abc d3F_r/dZa dZb dZc

    with C1 and C2 the symplectic contractions of the map derivatives.
    """
    h_parts = ham.partials

    # F = (dH/dp, -dH/dq); partials of F_r with respect to (q, p)
    def f_partial(r: int, a: int, b: int) -> Expr:
        if r == 0:
            return h_parts.get(a, b + 1)
        return mul(const(-1), h_parts.get(a + 1, b))

    # orders 2 and 3 of both components, evaluated together at each point
    f_keys = [(a, total - a) for total in (2, 3) for a in range(total + 1)]
    f_roots = [f_partial(r, a, b) for r in (0, 1) for a, b in f_keys]

    def drive(jq: TruncatedJet, jp: TruncatedJet) -> tuple[float, float]:
        values = evaluate(f_roots, {"q": jq.value, "p": jp.value, **ham.params}, REAL)
        # map component a: d1[a] = (d_q, d_p), d2[a] = (d_qq, d_qp, d_pp)
        d1 = [(m.derivative(1, 0), m.derivative(0, 1)) for m in (jq, jp)]
        d2 = [(m.derivative(2, 0), m.derivative(1, 1), m.derivative(0, 2)) for m in (jq, jp)]
        c1 = {
            (a, b): d2[a][0] * d2[b][2] - 2.0 * d2[a][1] * d2[b][1] + d2[a][2] * d2[b][0]
            for a, b in product((0, 1), repeat=2)
        }
        c2 = {
            (a, b, c): d2[a][0] * d1[b][1] * d1[c][1]
            - d2[a][1] * (d1[b][1] * d1[c][0] + d1[b][0] * d1[c][1])
            + d2[a][2] * d1[b][0] * d1[c][0]
            for a, b, c in product((0, 1), repeat=3)
        }
        out = []
        for r in (0, 1):
            # a partial of F_r depends only on how many of its slots are p
            f = dict(zip(f_keys, values[r * len(f_keys):]))
            acc = 0.0
            for (a, b), c1_ab in c1.items():
                acc -= c1_ab * f[2 - a - b, a + b] / 16.0
            for (a, b, c), c2_abc in c2.items():
                acc -= c2_abc * f[3 - a - b - c, a + b + c] / 24.0
            out.append(acc)
        return out[0], out[1]

    return drive


def hbar2_ode(
    ham: HamiltonianSpec,
    z0: tuple[float, float],
    t_final: float,
    times: list[float] | None = None,
    steps: int | None = None,
) -> Hbar2Result:
    """hbar^2 correction by direct integration of its evolution equation.

    The correction pair rides along order-2 jets of the classical flow:
    its rate is the Jacobian of the Hamiltonian vector field applied to
    the current correction plus the jet-driven inhomogeneity.  Starts from
    zero correction and the identity jets.
    """
    if times is None:
        times = [t_final]
    if any(t < 0 or t > t_final + 1e-12 for t in times):
        raise ValueError("requested times must lie in [0, t_final]")
    if steps is None:
        steps = default_steps(t_final)
    # the step that ends on each requested time, checked before stepping
    grid = step_times(t_final, steps)
    slot = {}
    for t in sorted(times):
        k = 0 if t <= 1e-15 else bisect.bisect_left(grid, t - 1e-9, 1)
        if k == len(grid) or abs(t - grid[k]) > 1e-9:
            raise ValueError(f"requested time {t} does not land on the step grid")
        slot[t] = k
    drive = hbar2_inhomogeneity(ham)
    h_parts = ham.partials
    jac = (
        h_parts.get(1, 1),       # dF_q/dq = H_qp
        h_parts.get(0, 2),       # dF_q/dp = H_pp
        mul(const(-1), h_parts.get(2, 0)),
        mul(const(-1), h_parts.get(1, 1)),
    )

    def rhs(state):
        jq, jp, z2q, z2p = state
        fq, fp = ham.field_jets(jq, jp, 2)
        j00, j01, j10, j11 = evaluate(jac, {"q": jq.value, "p": jp.value, **ham.params}, REAL)
        dq_drive, dp_drive = drive(jq, jp)
        return (
            fq,
            fp,
            j00 * z2q + j01 * z2p + dq_drive,
            j10 * z2q + j11 * z2p + dp_drive,
        )

    state = (
        TruncatedJet.seed(z0[0], 0, 2),
        TruncatedJet.seed(z0[1], 1, 2),
        0.0,
        0.0,
    )
    z2 = [(0.0, 0.0)] + [(z2q, z2p) for _jq, _jp, z2q, z2p in rk4(rhs, state, t_final, steps)]
    return Hbar2Result(
        times=tuple(times),
        q2=tuple(z2[slot[t]][0] for t in times),
        p2=tuple(z2[slot[t]][1] for t in times),
        method="ode",
    )


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
        return {
            "agrees_through_order_6": self.agrees_through_order_6,
            "difference_order_7": self.difference_order_7,
            "quoted_order_7": self.quoted_order_7,
            "matches_quoted": self.matches_quoted,
        }


def cubic_order7_report(m=1) -> CubicOrder7Report:
    """Compare ladders at depth 7 for the cubic potential, both seeds."""
    m = Fraction(m)
    h = PhasePolynomial.monomial(Fraction(1, 2) / m, 0, 2, 0) + PhasePolynomial.monomial(
        Fraction(1, 6), 3, 0, 0
    )
    quoted = PhasePolynomial.monomial(Fraction(5, 4) / m ** 4, 0, 0, 2)
    agrees = {}
    diffs = {}
    matches = {}
    for seed in ("q", "p"):
        ladders = iterated_brackets(h, 7, seed)
        agrees[seed] = all(
            c == d
            for c, d in zip(ladders.classical[:6], ladders.deformed[:6])
        )
        diff7 = ladders.deformed[6] - ladders.classical[6]
        diffs[seed] = format_poly(diff7)
        matches[seed] = diff7 == quoted
    return CubicOrder7Report(
        agrees_through_order_6=agrees,
        difference_order_7=diffs,
        quoted_order_7=format_poly(quoted),
        matches_quoted=matches,
    )
