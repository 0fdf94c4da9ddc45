"""Acceptance gate: one test per shipped claim, at pinned tolerances.

Each test prints a single bracketed pass/fail line (visible under -s) and
enforces its runtime budget.  Random sweeps are seeded and byte-stable.
"""

import json
import math
import random
import time
from fractions import Fraction

from moyal.brackets import bracket_2n_expr, moyal_bracket_truncated, poisson_expr
from moyal.checks import prefactor_consistency_report, run_checks
from moyal.closed_forms import builtin_example1, builtin_unitary_pair
from moyal.expr import Program, eval_expr, parse_expr
from moyal.flow import HamiltonianSpec
from moyal.poly import EvalPoint, PhasePolynomial
from moyal.semiclassical import (
    cubic_order7_report,
    divergence_order,
    hbar2_ode,
    hbar2_transport,
    iterated_brackets,
    star_exp_A2,
)

mono = PhasePolynomial.monomial


def _report(num, ok, detail, started, budget):
    elapsed = time.perf_counter() - started
    mark = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num:02d}] {mark}: {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.2f}s over budget {budget}s"


def _quartic_h(m, omega, lam):
    m, omega, lam = Fraction(m), Fraction(omega), Fraction(lam)
    return (
        mono(Fraction(1, 2) / m, 0, 2)
        + mono(m * omega**2 / 2, 2, 0)
        + mono(lam / 24, 4, 0)
    )


def _cubic_h(m):
    m = Fraction(m)
    return mono(Fraction(1, 2) / m, 0, 2) + mono(Fraction(1, 6), 3, 0)


PARAM_SETS = [(1, 1, 1), (Fraction(3, 2), Fraction(2, 3), Fraction(5, 7))]


def test_criterion_01_position_ladder_agreement():
    # seed q: ladders agree through depth 5; the depth-6 difference is the
    # exact third-times-fourth potential-derivative term
    started = time.perf_counter()
    ok = True
    for m, omega, lam in PARAM_SETS:
        m, lam = Fraction(m), Fraction(lam)
        ladders = iterated_brackets(_quartic_h(m, omega, lam), 6, "q")
        ok &= all(
            ladders.classical[i] == ladders.deformed[i] for i in range(5)
        )
        want = mono(-lam * lam / (4 * m**4), 1, 0, 2)
        ok &= (ladders.deformed[5] - ladders.classical[5]) == want
        cub = iterated_brackets(_cubic_h(m), 6, "q")
        ok &= all(cub.classical[i] == cub.deformed[i] for i in range(6))
    _report(1, ok, "seed-q ladders: equal to depth 5, exact depth-6 gap", started, 10.0)


def test_criterion_02_momentum_ladder_agreement():
    started = time.perf_counter()
    ok = True
    for m, omega, lam in PARAM_SETS:
        m, lam = Fraction(m), Fraction(lam)
        ladders = iterated_brackets(_quartic_h(m, omega, lam), 5, "p")
        ok &= all(
            ladders.classical[i] == ladders.deformed[i] for i in range(4)
        )
        want = mono(-lam * lam / (4 * m**3), 1, 0, 2)
        ok &= (ladders.deformed[4] - ladders.classical[4]) == want
        cub = iterated_brackets(_cubic_h(m), 5, "p")
        ok &= all(cub.classical[i] == cub.deformed[i] for i in range(5))
    _report(2, ok, "seed-p ladders: equal to depth 4, exact depth-5 gap", started, 10.0)


def test_criterion_03_quartic_taylor_coefficients():
    started = time.perf_counter()
    ok = True
    for m, omega, lam in PARAM_SETS:
        m, lam = Fraction(m), Fraction(lam)
        reps = divergence_order(_quartic_h(m, omega, lam), 7)
        ok &= reps["q"].first_divergent_order == 6
        ok &= reps["p"].first_divergent_order == 5
        coeff_q = reps["q"].difference.scale(Fraction(1, math.factorial(6)))
        coeff_p = reps["p"].difference.scale(Fraction(1, math.factorial(5)))
        ok &= coeff_q == mono(-lam * lam / (4 * 720 * m**4), 1, 0, 2)
        ok &= coeff_p == mono(-lam * lam / (4 * 120 * m**3), 1, 0, 2)
    _report(3, ok, "quartic divergence Taylor coefficients exact", started, 10.0)


def test_criterion_04_cubic_order7_comparison():
    started = time.perf_counter()
    ok = True
    outcomes = []
    for m in (1, Fraction(3, 2)):
        rep = cubic_order7_report(m)
        ok &= rep.agrees_through_order_6 == {"q": True, "p": True}
        outcomes.append({"m": str(m), **rep.to_json_dict()})
        # the exactly computed difference is authoritative; the quoted
        # term matches the momentum seed and not the position seed
        ok &= rep.matches_quoted == {"q": False, "p": True}
        ok &= rep.difference_order_7["q"] == "0"
    print("cubic order-7 comparison:", json.dumps(outcomes, sort_keys=True))
    _report(
        4,
        ok,
        "cubic order-7 gap computed both seeds; quoted term matches seed p only",
        started,
        30.0,
    )


def test_criterion_05_closed_form_sweep():
    started = time.perf_counter()
    ex = builtin_example1()
    # compiled once for the 40 points
    pb_m = Program(poisson_expr(ex.deformed_position.expr, ex.deformed_momentum.expr))
    g1 = Program(bracket_2n_expr(ex.classical_position, ex.classical_momentum, 1))
    rng = random.Random(0)
    points = []
    while len(points) < 20:
        q0 = rng.uniform(-1.2, 1.2)
        p0 = rng.uniform(-1.2, 1.2)
        if abs(q0 * p0) < 0.05:
            continue
        points.append((q0, p0, rng.uniform(-1.0, 1.0)))
    worst_pb = worst_g1 = worst_tr = 0.0
    for q0, p0, t in points:
        for hbar in (0.05, 0.1):
            b = {"q": q0, "p": p0, "t": t, "hbar": hbar, "m": 1.0, "l": 1.0}
            want = 1.0 / math.cos(hbar * t / 4.0) ** 4
            worst_pb = max(worst_pb, abs(eval_expr(pb_m, b).real / want - 1.0))
            worst_g1 = max(
                worst_g1, abs(eval_expr(g1, b).real - (-t * t / 8.0))
            )
            point = EvalPoint(
                q=q0, p=p0, hbar=hbar, params={"t": t, "m": 1.0, "l": 1.0}
            )
            rep = moyal_bracket_truncated(
                ex.classical_position, ex.classical_momentum, 8, point
            )
            closed = (1.0 + (hbar * t / 4.0) ** 2) ** -2
            worst_tr = max(worst_tr, abs(rep.partial_sums[-1].real - closed))
    ok = worst_pb < 1e-9 and worst_g1 < 1e-9 and worst_tr < 1e-6
    _report(
        5,
        ok,
        f"20-point sweep: secant-quartic rel {worst_pb:.2g}, "
        f"grade-1 abs {worst_g1:.2g}, truncated-vs-closed {worst_tr:.2g}",
        started,
        60.0,
    )


def test_criterion_06_hbar2_routes_vs_closed_form():
    started = time.perf_counter()
    ham = HamiltonianSpec(parse_expr("q^2*p^2/4"))
    z0 = (1.0, 1.0)
    worst_closed = worst_pair = 0.0
    for t in (0.1, 0.2, 0.3):
        qc = math.exp(t / 2.0)
        want_q = qc * (t * t / 16.0) * (1.0 + t / 6.0)
        ode = hbar2_ode(ham, z0, t)
        tra = hbar2_transport(ham, z0, t)
        worst_closed = max(
            worst_closed,
            abs(ode.q2[0] / want_q - 1.0),
            abs(tra.q2[0] / want_q - 1.0),
        )
        worst_pair = max(
            worst_pair,
            abs(ode.q2[0] / tra.q2[0] - 1.0),
            abs(ode.p2[0] / tra.p2[0] - 1.0),
        )
    ok = worst_closed < 1e-6 and worst_pair < 1e-6
    _report(
        6,
        ok,
        f"hbar^2 routes: closed-form rel {worst_closed:.2g}, route gap {worst_pair:.2g}",
        started,
        120.0,
    )


def test_criterion_07_quartic_small_time_limit():
    started = time.perf_counter()
    ham = HamiltonianSpec(parse_expr("p^2/2 + q^2/2 + q^4/24"))
    t = 0.05
    res = hbar2_ode(ham, (1.0, 0.0), t)
    ratio = res.p2[0] / t**5 / (-1.0 / 480.0)
    ok = abs(ratio - 1.0) < 0.01
    _report(
        7,
        ok,
        f"quartic momentum correction / t^5 within {abs(ratio-1.0):.2%} of -1/480",
        started,
        30.0,
    )


def test_criterion_08_property_suites():
    started = time.perf_counter()
    names = [
        "star-associativity",
        "bracket-jacobi",
        "deformation-limits",
        "symmetrization",
        "sas-identity",
        "bch",
        "odd-grades",
        "quadratic-coincidence",
    ]
    outcomes = run_checks(only=names)
    ok = all(o.passed for o in outcomes)
    failed = [o.name for o in outcomes if not o.passed]
    _report(
        8,
        ok,
        "all eight property suites pass" if ok else f"failing: {failed}",
        started,
        120.0,
    )


def test_criterion_09_unitary_not_canonical_pair():
    started = time.perf_counter()
    uq, up = builtin_unitary_pair()
    pb = Program(poisson_expr(uq, up))
    worst_pb = worst_tr = 0.0
    all_converged = True
    for p0 in (0.05, 0.1, 0.2):
        b = {"q": 0.3, "p": p0, "beta": 1.0, "gamma": 1.0, "hbar": 1.0}
        want = 1.0 + 2.0 * math.pi * math.cosh(2.0 * math.pi * p0)
        worst_pb = max(worst_pb, abs(eval_expr(pb, b).real / want - 1.0))
        rep = moyal_bracket_truncated(
            uq,
            up,
            20,
            EvalPoint(q=0.3, p=p0, hbar=1.0, params={"beta": 1.0, "gamma": 1.0}),
        )
        worst_tr = max(worst_tr, abs(rep.partial_sums[-1].real - 1.0))
        all_converged &= rep.converged
    ok = worst_pb < 1e-9 and worst_tr < 1e-6 and all_converged
    _report(
        9,
        ok,
        f"deformed bracket -> 1 by grade 20 (gap {worst_tr:.2g}) while "
        f"Poisson bracket = 1 + 2*pi*cosh(2*pi*p) (rel {worst_pb:.2g})",
        started,
        30.0,
    )


def test_criterion_10_classical_invariant_suite():
    started = time.perf_counter()
    outcomes = run_checks(only=["classical-flow"])
    ok = outcomes[0].passed
    _report(
        10,
        ok,
        f"classical invariants on four systems: {outcomes[0].detail}",
        started,
        60.0,
    )


def test_criterion_11_second_coefficient_oracle():
    started = time.perf_counter()
    a2 = star_exp_A2(parse_expr("(3/5)*q*p"))
    ok = a2 == parse_expr("9/200 + (9/500)*q*p")
    rep = prefactor_consistency_report()
    print("prefactor consistency report:", json.dumps(rep, sort_keys=True))
    ok &= rep["matches_first_power"] and not rep["matches_squared"]
    _report(
        11,
        ok,
        "second deformation coefficient exact; prefactor report emitted",
        started,
        5.0,
    )
