import functools
import importlib
import inspect
import itertools
import json
import math
import operator
import pkgutil
import random
from fractions import Fraction
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expr_walk import outcome, reference_invert

import moyal.expr
import moyal.flow
import moyal.jets
import moyal.semiclassical
from moyal.closed_forms import builtin_example1
from moyal.expr import ZERO, Program, parse_expr
from moyal.flow import (
    STEPS_PER_UNIT_TIME,
    FlowBlowupError,
    HamiltonianSpec,
    integrate_flow,
    integrate_flow_jets,
    rk4,
)
from moyal.jets import PARTIALS, derivative, invert, seed
from moyal.poly import PhasePolynomial, bidifferential, format_poly, poisson_bracket
from moyal.semiclassical import (
    TimeTaylorFlow,
    _simpson,
    cubic_order7_report,
    divergence_order,
    hbar2_ode,
    hbar2_routes,
    hbar2_transport,
    iterated_brackets,
    route_gap,
    star_exp_A2,
    taylor_flow,
)

mono = PhasePolynomial.monomial


def quartic(m=1, omega=1, lam=1):
    m, omega, lam = Fraction(m), Fraction(omega), Fraction(lam)
    return (
        mono(Fraction(1, 2) / m, 0, 2)
        + mono(m * omega**2 / 2, 2, 0)
        + mono(lam / 24, 4, 0)
    )


def squeeze():
    return mono(Fraction(1, 4), 2, 2)


# -- exact ladders ------------------------------------------------------


def test_ladder_entry_zero_is_single_bracket():
    h = quartic()
    ladders = iterated_brackets(h, 3, "q")
    assert ladders.classical[0] == poisson_bracket(mono(1, 1, 0), h)
    assert ladders.deformed[0] == ladders.classical[0]  # first bracket agrees


def test_ladder_validation():
    with pytest.raises(ValueError):
        iterated_brackets(quartic(), 11, "q")
    with pytest.raises(ValueError):
        iterated_brackets(quartic(), 3, "z")
    hbar_ham = quartic() + mono(1, 2, 0, 1)
    for route in (
        lambda: iterated_brackets(mono(1, 0, 0, 1), 3, "q"),
        lambda: taylor_flow(hbar_ham, 3, "p"),
        lambda: divergence_order(hbar_ham, 3),
    ):
        with pytest.raises(ValueError, match="^the Hamiltonian must be hbar-free$"):
            route()


def test_quartic_divergence_orders():
    reps = divergence_order(quartic(), 7)
    assert reps["q"].first_divergent_order == 6
    assert reps["p"].first_divergent_order == 5
    want = mono(Fraction(-1, 4), 1, 0, 2)
    assert reps["q"].difference == want
    assert reps["p"].difference == want
    assert reps["q"].per_order_equal[:5] == (True,) * 5
    assert reps["p"].per_order_equal[:4] == (True,) * 4


def test_divergence_report_json_layout():
    reps = divergence_order(quartic(), 6)
    d = reps["p"].to_json_dict()
    assert sorted(d) == [
        "difference_polynomial",
        "first_divergent_order",
        "per_order_equal",
        "seed",
    ]
    assert d["difference_polynomial"] == "(-1/4)*hbar^2*q"
    assert d["first_divergent_order"] == 5


def test_harmonic_never_diverges():
    h = mono(Fraction(1, 2), 0, 2) + mono(Fraction(1, 2), 2, 0)
    reps = divergence_order(h, 10)
    assert reps["q"].first_divergent_order is None
    assert reps["p"].first_divergent_order is None
    assert not reps["q"].difference


def test_quartic_divergence_scales_with_parameters():
    # difference carries lambda^2 / m^(order-dependent power)
    reps = divergence_order(quartic(m=2, omega=1, lam=3), 6)
    assert reps["p"].difference == mono(Fraction(-9, 4) / 8, 1, 0, 2)
    assert reps["q"].difference == mono(Fraction(-9, 4) / 16, 1, 0, 2)


# -- Taylor flows -------------------------------------------------------


def test_taylor_flow_evaluate():
    h = squeeze()
    fl = TimeTaylorFlow(coeffs=(mono(1, 1, 0),) + iterated_brackets(h, 4, "q").classical)
    # classical series of q e^{qpt/2} at (1,1): sum (t/2)^n / n!
    t = 0.3
    got = fl.evaluate(1.0, 1.0, 0.1, t).real
    want = sum((t / 2) ** n / [1, 1, 2, 6, 24][n] for n in range(5))
    assert got == pytest.approx(want, rel=1e-12)


def test_squeeze_hbar2_grades():
    grades = taylor_flow(squeeze(), 3, "q").hbar2_grade_series()
    assert not grades[0]
    assert not grades[1]
    assert grades[2] == mono(Fraction(1, 8), 1, 0)
    assert grades[3] == mono(Fraction(1, 4), 2, 1)


# -- numeric hbar^2 routes ---------------------------------------------


@pytest.fixture(scope="module")
def squeeze_ham():
    return HamiltonianSpec(parse_expr("q^2*p^2/4"))


def closed_form_q2(q, p, t):
    import math

    return q * math.exp(q * p * t / 2.0) * (t * t / 16.0) * (1.0 + t * q * p / 6.0)


def test_hbar2_ode_against_closed_form(squeeze_ham):
    res = hbar2_ode(squeeze_ham, (1.0, 1.0), 0.2)
    assert res.q2[0] == pytest.approx(closed_form_q2(1.0, 1.0, 0.2), rel=1e-9)


def test_hbar2_transport_against_closed_form(squeeze_ham):
    res = hbar2_transport(squeeze_ham, (1.0, 1.0), 0.2)
    assert res.q2[0] == pytest.approx(closed_form_q2(1.0, 1.0, 0.2), rel=1e-9)


def test_hbar2_ode_blowup_raises():
    ham = HamiltonianSpec(parse_expr("q^2*p"))
    with pytest.raises(FlowBlowupError) as err:
        hbar2_ode(ham, (1.0, 1.0), 2.0)
    assert 0.9 < err.value.time < 1.1


def test_hbar2_routes_refuse_times_outside_their_domain(squeeze_ham):
    for t in (0.0, -0.1):
        with pytest.raises(ValueError):
            hbar2_transport(squeeze_ham, (1.0, 1.0), t)
    with pytest.raises(ValueError):
        hbar2_ode(squeeze_ham, (1.0, 1.0), -0.1)


def test_hbar2_ode_at_time_zero_is_zero(squeeze_ham):
    res = hbar2_ode(squeeze_ham, (1.0, 1.0), 0.0)
    assert (res.q2[0], res.p2[0]) == (0.0, 0.0)


def at_cap(shift=0):
    """The hbar^2 routes with no step doubling: each runs its top level
    alone, or the level ``shift`` doublings below it."""
    return mock.patch.object(moyal.semiclassical, "_levels", lambda top: [top >> shift])


@pytest.fixture()
def levels_run(monkeypatch):
    """The step counts each route's Richardson table ran, in call order; a
    route's top is 64 times its first."""
    runs = []
    table = moyal.semiclassical._richardson

    def recording(run, steps, unit=64):
        ran = []
        runs.append(ran)
        return table(lambda n: ran.append(n) or run(n), steps, unit)

    monkeypatch.setattr(moyal.semiclassical, "_richardson", recording)
    return runs


# a correction that is exactly 0, the stiff input and a turn near tan's
# pole, whose routes meet no Richardson estimate
NO_ESTIMATE = (
    ("(q+p)^4", (1.0, 1.0), 0.2),
    ("p^2/2 + exp(10*q)", (1.0, 0.0), 1.0),
    ("p^2/2+tan(q)", (1.5, 2.0), 0.2),
)


def test_hbar2_ode_default_steps_per_unit(squeeze_ham, levels_run):
    # steps_per_unit is the finest resolution a route may use: on an input
    # that meets no estimate, the default runs up to 2000 steps per unit
    # time, rounded up to a multiple of 64
    default = hbar2_ode(squeeze_ham, (1.0, 1.0), 0.2)
    assert hbar2_ode(squeeze_ham, (1.0, 1.0), 0.2, steps_per_unit=2000) == default
    assert hbar2_ode(squeeze_ham, (1.0, 1.0), 0.2, steps_per_unit=500) != default
    stiff = HamiltonianSpec(parse_expr("p^2/2 + exp(10*q)"))
    levels_run.clear()
    hbar2_ode(stiff, (1.0, 0.0), 1.0)
    hbar2_ode(stiff, (1.0, 0.0), 1.0, steps_per_unit=500)
    assert [ran[-1] for ran in levels_run] == [2048, 512]


def test_the_levels_are_exact_doublings_ending_at_the_cap(levels_run):
    levels = moyal.semiclassical._levels
    assert levels(2048) == [32, 64, 128, 256, 512, 1024, 2048]
    assert levels(64) == [1, 2, 4, 8, 16, 32, 64]
    stiff = HamiltonianSpec(parse_expr("p^2/2 + exp(10*q)"))
    hbar2_ode(stiff, (1.0, 0.0), 1.0)
    hbar2_transport(stiff, (1.0, 0.0), 1.0)
    # 2000 steps, the top of both routes rounded up to 2048
    assert levels_run == [levels(2048)] * 2
    # the ode route's top is a multiple of 64, transport's of 128: its
    # coarsest level is a Simpson panel of 2 steps
    levels_run.clear()
    for t in (0.0995, 0.3):
        hbar2_ode(stiff, (1.0, 0.0), t)
        hbar2_transport(stiff, (1.0, 0.0), t)
    assert [ran[0] for ran in levels_run] == [4, 4, 10, 10]
    # a tiny time runs the smallest top, not none
    levels_run.clear()
    hbar2_ode(stiff, (1.0, 0.0), 1e-6)
    hbar2_transport(stiff, (1.0, 0.0), 1e-6)
    assert [ran[0] for ran in levels_run] == [1, 2]


@pytest.mark.parametrize("text, z0, t", NO_ESTIMATE)
def test_inputs_that_meet_no_estimate_keep_their_bits(text, z0, t, levels_run):
    # each route runs every level and gives its top's own value, bit for bit
    ham = HamiltonianSpec(parse_expr(text))
    for route in (hbar2_ode, hbar2_transport):
        levels_run.clear()
        got = route(ham, z0, t)
        with at_cap():
            want = route(ham, z0, t)
        ran = levels_run[0]
        assert ran == moyal.semiclassical._levels(ran[-1]) and got == want


def test_a_coarse_level_error_does_not_escape(levels_run):
    # q^16 from (2, 0): the five coarsest levels of both routes blow up; the
    # stiff input from (1.5, 1): transport's coarsest levels blow up or give
    # a jet whose linear part is singular.  Neither meets an estimate, and
    # each gives its top's value
    for text, z0, routes in (
        ("p^2/2 + q^16", (2.0, 0.0), (hbar2_ode, hbar2_transport)),
        ("p^2/2 + exp(10*q)", (1.5, 1.0), (hbar2_transport,)),
    ):
        ham = HamiltonianSpec(parse_expr(text))
        for route in routes:
            with at_cap(6), pytest.raises((FlowBlowupError, ValueError)):
                route(ham, z0, 0.1)
            with at_cap():
                want = route(ham, z0, 0.1)
            levels_run.clear()
            got = route(ham, z0, 0.1)
            (ran,) = levels_run
            assert ran == moyal.semiclassical._levels(ran[-1]) and got == want


# the blowup times of q^2 p from (1, 1) at T = 2, at the routes' top of
# 4032 steps (ode) and 4096 (transport)
TOP_BLOWUP_ODE = "0x1.0061861861861p+0"
TOP_BLOWUP_TRANSPORT = "0x1.0060000000000p+0"


def test_at_the_cap_a_blowup_is_raised_at_its_time():
    # every level blows up; the top's error is the route's
    ham = HamiltonianSpec(parse_expr("q^2*p"))
    for route, time in ((hbar2_ode, TOP_BLOWUP_ODE), (hbar2_transport, TOP_BLOWUP_TRANSPORT)):
        with pytest.raises(FlowBlowupError) as err:
            route(ham, (1.0, 1.0), 2.0)
        assert err.value.time.hex() == time


def test_an_overflowing_flow_is_refused_whatever_its_correction():
    # H = 800 q p: q(t) = e^{800 t} leaves the float range near t = 0.89,
    # and the exact correction is 0; the coarse levels' flows stay finite,
    # and their z(T), in the estimate, never meets it
    ham = HamiltonianSpec(parse_expr("800*q*p"))
    for steps_per_unit in (STEPS_PER_UNIT_TIME, 200):
        with pytest.raises(FlowBlowupError):
            hbar2_ode(ham, (1.0, 1.0), 1.0, steps_per_unit=steps_per_unit)


def test_no_benchmark_route_reaches_its_cap(levels_run):
    # each route of the five benchmark Hamiltonians meets an estimate below
    # its top level, so it never runs the top for want of one
    for name, make in BENCH_HAMILTONIANS.items():
        ham = make()
        for z0, t in itertools.product(((0.9, -0.7), (-1.1, 0.6)), (0.1, 0.3, 0.5)):
            for route in (hbar2_ode, hbar2_transport):
                levels_run.clear()
                got = route(ham, z0, t)
                with at_cap():
                    top = route(ham, z0, t)
                ran = levels_run[0]
                assert got != top and ran == moyal.semiclassical._levels(64 * ran[0])[:len(ran)], (name, z0, t)
                assert 3 <= len(ran) < 7, (name, z0, t)


FINE_REFERENCE = Path(__file__).parent / "golden" / "fine_reference.json"
# the fine reference's step count over [0, T], and the largest gap between
# the two routes there at which it is written
FINE_STEPS = 32000
FINE_AGREEMENT = 1e-10


def fine_reference_records(golden):
    """``fine_reference.json``'s content with each record's (Q2, P2) as
    float.hex computed again: the ode route at FINE_STEPS steps run alone.
    Raises ValueError unless transport at the same steps is within
    FINE_AGREEMENT of it in every component."""
    records, gaps = [], []
    for rec in golden["records"]:
        ham, z0, t = BENCH_HAMILTONIANS[rec["hamiltonian"]](), tuple(rec["z0"]), rec["t"]
        with at_cap():
            ode, transport = [route(ham, z0, t, steps_per_unit=FINE_STEPS / t) for route in (hbar2_ode, hbar2_transport)]
        gaps.append(max(map(route_gap, ode.q2 + ode.p2, transport.q2 + transport.p2)))
        records.append({**rec, "q2": ode.q2[0].hex(), "p2": ode.p2[0].hex()})
    if max(gaps) > FINE_AGREEMENT:
        raise ValueError(f"transport is {max(gaps):.2g} from the ode route, over {FINE_AGREEMENT:g}")
    return {**golden, "records": records}


def test_both_routes_are_within_1e_8_of_a_fine_reference():
    # the benchmark's Hamiltonians and times: each value of both routes
    # against the frozen ode route at 32,000 steps (fine_reference_records)
    records = json.loads(FINE_REFERENCE.read_text())["records"]
    cases = itertools.product(BENCH_HAMILTONIANS, ((0.9, -0.7), (-1.1, 0.6)), (0.1, 0.3, 0.5))
    assert [(rec["hamiltonian"], tuple(rec["z0"]), rec["t"]) for rec in records] == list(cases)
    for rec in records:
        name, z0, t = rec["hamiltonian"], tuple(rec["z0"]), rec["t"]
        ham, want = BENCH_HAMILTONIANS[name](), [float.fromhex(rec[k]) for k in ("q2", "p2")]
        for route in (hbar2_ode, hbar2_transport):
            got = route(ham, z0, t)
            assert max(map(route_gap, got.q2 + got.p2, want)) <= 1e-8, (name, z0, t, route)


@pytest.fixture()
def route_calls(monkeypatch):
    """The times at which hbar2_routes runs each route."""
    calls = {"ode": [], "transport": []}
    for name, route in (("ode", hbar2_ode), ("transport", hbar2_transport)):

        def counting(ham, z0, t, *args, route=route, name=name):
            calls[name].append(t)
            return route(ham, z0, t, *args)

        monkeypatch.setattr(moyal.semiclassical, f"hbar2_{name}", counting)
    return calls


def test_hbar2_routes_at_time_zero_run_no_route(squeeze_ham, route_calls):
    assert hbar2_routes(squeeze_ham, (1.0, 1.0), [0.0]) == ([(0.0, (0.0, 0.0), (0.0, 0.0))], 0.0, None)
    assert route_calls == {"ode": [], "transport": []}
    rows, gap, refusal = hbar2_routes(squeeze_ham, (1.0, 1.0), [0.0, 0.2, 0.0])
    assert route_calls == {"ode": [0.2], "transport": [0.2]}
    assert [row[0] for row in rows] == [0.0, 0.2, 0.0]
    for row in (rows[0], rows[2]):
        assert row[1:] == ((0.0, 0.0), (0.0, 0.0))
        assert all(math.copysign(1.0, x) == 1.0 for pair in row[1:] for x in pair)
    assert rows[1][1][0] == pytest.approx(closed_form_q2(1.0, 1.0, 0.2), rel=1e-9)
    assert refusal is None and gap < 1e-6


def test_hbar2_routes_run_each_distinct_time_once(squeeze_ham, route_calls):
    rows, gap, refusal = hbar2_routes(squeeze_ham, (1.0, 1.0), [0.2, 0.1, 0.2, 0.2, 0.1])
    assert route_calls == {"ode": [0.2, 0.1], "transport": [0.2, 0.1]}
    assert [row[0] for row in rows] == [0.2, 0.1, 0.2, 0.2, 0.1]
    assert rows[0] == rows[2] == rows[3] and rows[1] == rows[4]
    assert (rows[:2], gap, refusal) == hbar2_routes(squeeze_ham, (1.0, 1.0), [0.2, 0.1])


def test_hbar2_routes_refuse_a_negative_time_before_any_route_runs(squeeze_ham, route_calls):
    with pytest.raises(ValueError) as err:
        hbar2_routes(squeeze_ham, (1.0, 1.0), [0.1, 0.2, -0.1])
    assert str(err.value) == "the hbar^2 routes need times >= 0"
    assert route_calls == {"ode": [], "transport": []}


def test_hbar2_routes_name_the_worst_gap_as_a_running_max():
    # the exact correction is 0, so every gap is about 1: the largest is at
    # t = 0.2 in Q2
    ham = HamiltonianSpec(parse_expr("(q+p)^4"))
    rows, gap, refusal = hbar2_routes(ham, (1.0, 1.0), [0.1, 0.2, 0.3])
    gaps = [(route_gap(a, b), t, name) for t, *pairs in rows for name, a, b in zip(("Q2", "P2"), *pairs)]
    assert gap == max(gaps)[0] > 1e-6
    assert refusal.startswith("at t = 0.2 the ode and transport routes differ in Q2: ")
    assert refusal.endswith(f", relative gap {gap:.3g} > 1e-06")


def test_hbar2_transport_compiles_per_call_not_per_node(monkeypatch):
    built = []
    init = Program.__init__

    def counting_init(self, roots, *tables):
        built.append(roots)
        init(self, roots, *tables)

    monkeypatch.setattr(Program, "__init__", counting_init)
    counts = []
    for steps_per_unit in (64, 1024):
        ham = HamiltonianSpec(parse_expr("p^2/2 + q^2/2 + q^4/24"))
        built.clear()
        hbar2_transport(ham, (0.9, -0.7), 0.5, steps_per_unit=steps_per_unit)
        counts.append(len(built))
    assert counts[0] == counts[1]


# the five Hamiltonians of the hbar2-routes benchmark workload
BENCH_HAMILTONIANS = {
    "squeeze": lambda: HamiltonianSpec(parse_expr("q^2*p^2/4")),
    "quartic": lambda: HamiltonianSpec(parse_expr("p^2/2 + q^2/2 + q^4/24")),
    "cubic": lambda: HamiltonianSpec(parse_expr("p^2/2 + q^3/6")),
    "cosh": lambda: HamiltonianSpec(parse_expr("p^2/2 + cosh(q)/4")),
    "example1": lambda: HamiltonianSpec(builtin_example1().hamiltonian, {"m": 1.5, "l": 0.8}),
}


def per_node_transport_values(ham, z0, t_final, steps):
    """Reference: the transport integrand at every node by a fresh forward
    order-3 jet integration from z(T - s) for duration s (quadratic in T),
    on the grid of hbar2_transport at ``steps`` steps: a node per step."""
    base = integrate_flow(ham, z0, t_final, steps)
    h_node = t_final / steps
    fq_vals, fp_vals = [0.0], [0.0]
    for k in range(1, steps + 1):
        w = base.states[steps - k]
        jq, jp = integrate_flow_jets(ham, w, k * h_node, k, order=3).jets[-1]
        h = ham.partials_at(*w)
        h3 = lambda a, b: h[a, b]
        fq_vals.append(-bidifferential(partial(derivative, jq), h3, 3, 0.0) / 24.0)
        fp_vals.append(-bidifferential(partial(derivative, jp), h3, 3, 0.0) / 24.0)
    return fq_vals, fp_vals, h_node


def reference_nodes(ham, jets, b, inverse=invert):
    """The transport integrand at each node's jets (gq, gp), after the
    0.0 at s = 0, by the per-node path the node loop replaces: ``inverse``,
    ``partials_at`` at the jets' value and ``bidifferential``."""
    fq, fp = [0.0], [0.0]
    for gq, gp in jets:
        dq, dp = inverse(gq, gp)
        h = ham.partials_at(gq[0], gp[0])
        for d, vals in ((dq, fq), (dp, fp)):
            d3 = [d[i] * f for i, f in PARTIALS[3][3]]
            vals.append(-bidifferential(lambda a, b: d3[b], lambda a, b: h[a, b], 3, 0.0) / 24.0)
    return [fq, fp]


NODE_HAMILTONIANS = {
    **BENCH_HAMILTONIANS,
    "calls": lambda: HamiltonianSpec(parse_expr("p^2/2 + q^6/30 + sec(q/4) + q*tan(p/5)")),
    # no third partial but d_q^3 H: three that are identically 0
    "zero-partials": lambda: HamiltonianSpec(parse_expr("p^2/2 + q^5/20 + q*p^2")),
}


def node_bits(ham, jets):
    """The node loop's values and the per-node reference's, as float.hex,
    or the class and text of the refusal."""
    return [outcome(lambda: nodes(ham, jets, ham.params)) for nodes in (_transport_nodes, reference_nodes)]


def _transport_nodes(ham, jets, b):
    return moyal.semiclassical._transport_nodes(ham)(jets, b)


@pytest.mark.parametrize("name", sorted(NODE_HAMILTONIANS))
def test_the_node_loop_matches_the_per_node_path_bit_for_bit(name):
    ham = NODE_HAMILTONIANS[name]()
    for z0, t in (((0.9, -0.7), 0.3), ((-0.4, 1.1), 0.5), ((0.6, -0.4), 0.2)):
        jets = integrate_flow_jets(ham, z0, -t, 200, order=3, every=5).jets[1:]
        got, want = node_bits(ham, jets)
        assert got == want and type(got) is list, (name, z0, t)


def test_the_node_loop_skips_the_terms_bidifferential_skips():
    # a left factor 0.0 (a linear map's inverse has no third partial) facing
    # a right factor that is inf, and a right factor 0.0 (d_q^3 H = 24 m q at
    # q = 0) facing a left factor that is not finite: every term is skipped,
    # where writing it would give nan
    ham = HamiltonianSpec(parse_expr("p^2/2 + m*q^4 + q*p^3"), {"m": 1e300})
    linear = [([1e10, 1.0, 0.5, *[0.0] * 7], [-2.0, 0.25, 1.0, *[0.0] * 7])]
    steep = [([0.0, 1.0, 0.0, 1e300, *[0.0] * 6], [0.0, 0.0, 1.0, *[0.0] * 7])]
    assert ham.partials_at(1e10, -2.0)[3, 0] == math.inf
    assert not all(map(math.isfinite, invert(*steep[0])[0]))
    for jets in (linear, steep, linear + steep):
        got, want = node_bits(ham, jets)
        assert got == want, jets
    assert got == [[x.hex() for x in (0.0, -0.0, -0.0)]] * 2


def test_the_node_loop_refuses_a_singular_linear_part_as_invert_does():
    ham = BENCH_HAMILTONIANS["quartic"]()
    regular = ([0.3, 1.0, 0.0, *[0.0] * 7], [0.2, 0.0, 1.0, *[0.0] * 7])
    singular = ([0.3, 1.0, 2.0, *[0.1] * 7], [0.2, 0.5, 1.0, *[0.0] * 7])
    got, want = node_bits(ham, [regular, singular])
    assert got == want == (ValueError, "the jet's linear part is singular")


@pytest.mark.parametrize("name", sorted(BENCH_HAMILTONIANS))
def test_hbar2_transport_matches_per_node_reference(name):
    ham = BENCH_HAMILTONIANS[name]()
    for t, steps in ((0.1, 16), (0.3, 40)):
        fq_vals, fp_vals, h_node = per_node_transport_values(ham, (0.9, -0.7), t, steps)
        # the level 16 times below the top: 256 and 640 steps
        with at_cap(4):
            res = hbar2_transport(ham, (0.9, -0.7), t)
        # composite Simpson's rule: weights 1, 4, 2, 4, ..., 2, 4, 1 over 3
        weights = [1, *[4, 2] * (steps // 2 - 1), 4, 1]
        assert res.q2[0] == pytest.approx(sum(map(operator.mul, weights, fq_vals)) * h_node / 3, rel=1e-9)
        assert res.p2[0] == pytest.approx(sum(map(operator.mul, weights, fp_vals)) * h_node / 3, rel=1e-9)


def test_hbar2_transport_runs_one_jet_pass_per_level(monkeypatch, levels_run):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return integrate_flow_jets(*args, **kwargs)

    monkeypatch.setattr(moyal.semiclassical, "integrate_flow_jets", counting)
    ham = HamiltonianSpec(parse_expr("p^2/2 + q^2/2 + q^4/24"))
    for t in (0.5, 1.0, 2.0):
        calls.clear()
        levels_run.clear()
        hbar2_transport(ham, (0.9, -0.7), t, steps_per_unit=500)
        (ran,) = levels_run
        assert calls == [-t] * len(ran)


def test_hbar2_transport_runs_a_long_pass_in_chunks_bit_for_bit(monkeypatch):
    # a pass longer than _CHUNK steps runs in chunks of a power of 2 steps,
    # each carrying on the last one's jets: none holds more than _CHUNK
    # after its start, and the value is the one pass's, bit for bit
    ham = BENCH_HAMILTONIANS["cubic"]()
    with at_cap():  # 640 steps, 5 times 128
        whole = hbar2_transport(ham, (0.9, -0.7), 0.3)
    held = []

    def counting(*args, **kwargs):
        traj = integrate_flow_jets(*args, **kwargs)
        held.append(len(traj.jets))
        return traj

    monkeypatch.setattr(moyal.semiclassical, "integrate_flow_jets", counting)
    monkeypatch.setattr(moyal.semiclassical, "_CHUNK", 64)
    with at_cap():
        assert hbar2_transport(ham, (0.9, -0.7), 0.3) == whole
    assert held == [1 + 64] * 10


def test_hbar2_transport_names_the_time_a_chunk_blows_up_at(monkeypatch):
    # a blow-up in a later chunk of the backward pass is named at the
    # user's time T - s, counting the chunks before it
    def failing(ham, z, t, steps, order, start=None):
        if start is not None:
            raise FlowBlowupError(5 * t / steps)
        return integrate_flow_jets(ham, z, t, steps, order)

    monkeypatch.setattr(moyal.semiclassical, "integrate_flow_jets", failing)
    monkeypatch.setattr(moyal.semiclassical, "_CHUNK", 256)
    with at_cap(), pytest.raises(FlowBlowupError) as err:
        hbar2_transport(BENCH_HAMILTONIANS["cubic"](), (0.9, -0.7), 0.3)
    # 640 steps run as chunks of gcd(640, 256) = 128: the second blows up
    # at its fifth step
    assert err.value.time == pytest.approx(0.3 - 133 * 0.3 / 640)


# the symplectic matrix J on (q, p), and the slots 0 = q, 1 = p
J = ((0, 1), (-1, 0))
SLOTS = (0, 1)


def reference_inhomogeneity(h, jq, jp):
    """The ode route's drive (``semiclassical._Hbar2Emitter``) transcribed index by index:
    drive_r = -(1/16) sum_ab C1_ab d2F_r/dZa dZb
              -(1/24) sum_abc C2_abc d3F_r/dZa dZb dZc,
    C1_ab = J_ik J_jl (d_i d_j Z_a)(d_k d_l Z_b) and
    C2_abc = J_ik J_jl (d_i d_j Z_a)(d_k Z_b)(d_l Z_c), F = (H_p, -H_q)."""
    z = (jq, jp)

    def dz(a, *slots):  # a partial of map component a along the slots
        return derivative(z[a], slots.count(0), slots.count(1))

    def df(r, *slots):  # a partial of F_r along the slots
        nq, np_ = slots.count(0), slots.count(1)
        return h[nq, np_ + 1] if r == 0 else -h[nq + 1, np_]

    four = list(itertools.product(SLOTS, repeat=4))
    drive = []
    for r in SLOTS:
        acc = 0.0
        for a, b in itertools.product(SLOTS, repeat=2):
            c1 = sum(J[i][k] * J[j][l] * dz(a, i, j) * dz(b, k, l) for i, j, k, l in four)
            acc -= c1 * df(r, a, b) / 16.0
        for a, b, c in itertools.product(SLOTS, repeat=3):
            c2 = sum(J[i][k] * J[j][l] * dz(a, i, j) * dz(b, k) * dz(c, l) for i, j, k, l in four)
            acc -= c2 * df(r, a, b, c) / 24.0
        drive.append(acc)
    return drive


def loop_inhomogeneity(h, jq, jp):
    """The ode route's drive as a loop over the map's derivatives, in the
    term order of the generated code: each component sums the C1 terms,
    then the C2 terms, over (a, b) and (a, b, c) in lexicographic order."""
    d1 = ((jq[1], jq[2]), (jp[1], jp[2]))
    d2 = ((jq[3] * 2, jq[4], jq[5] * 2), (jp[3] * 2, jp[4], jp[5] * 2))
    f2 = [(h[2 - j, j + 1], -h[3 - j, j]) for j in range(3)]
    f3 = [(h[3 - j, j + 1], -h[4 - j, j]) for j in range(4)]
    acc0 = acc1 = 0.0
    for a, (xqq, xqp, xpp) in enumerate(d2):
        for b, (yqq, yqp, ypp) in enumerate(d2):
            c1 = xqq * ypp - 2.0 * xqp * yqp + xpp * yqq
            g0, g1 = f2[a + b]
            acc0 -= c1 * g0 / 16.0
            acc1 -= c1 * g1 / 16.0
    for a, (xqq, xqp, xpp) in enumerate(d2):
        for b, (yq, yp) in enumerate(d1):
            for c, (zq, zp) in enumerate(d1):
                c2 = xqq * yp * zp - xqp * (yp * zq + yq * zp) + xpp * yq * zq
                g0, g1 = f3[a + b + c]
                acc0 -= c2 * g0 / 24.0
                acc1 -= c2 * g1 / 24.0
    return [acc0, acc1]


def folded_rates(h, jq, jp, z2):
    """The correction pair's rates as the generated code forms them: the
    drive grouped by its symmetries (C1 symmetric in (a, b), C2 in (b, c),
    a partial of F fixed by its number j of p slots), so each component is
    (sum_j c1_j F_j) / 8 + (sum_j c2_j F_j) / 24, with c1 the halved C1
    sums and c2 the C2 sums, each (b, c) product formed once, and a term
    whose partial of H is 0 left out; then the Jacobian term, with no term
    of a partial that is 0, and the drive, in the code's order.  A rate
    whose first term would be negated is formed without its sign and then
    negated, as the code's ``-(...)``."""
    fold = lambda terms: functools.reduce(operator.add, terms)
    d1 = ((jq[1], jq[2]), (jp[1], jp[2]))
    d2 = ((jq[3] * 2, jq[4], jq[5] * 2), (jp[3] * 2, jp[4], jp[5] * 2))
    (xqq, xqp, xpp), (yqq, yqp, ypp) = d2
    c1 = [
        xqq * xpp - xqp * xqp,
        xqq * ypp - 2.0 * xqp * yqp + xpp * yqq,
        yqq * ypp - yqp * yqp,
    ]
    c2 = [[] for _ in range(4)]
    for b, c in ((0, 0), (0, 1), (1, 1)):
        (yq, yp), (zq, zp) = d1[b], d1[c]
        pp, pm, qq = yp * zp, yp * zq + yq * zp, yq * zq
        for a, (xqq, xqp, xpp) in enumerate(d2):
            term = xqq * pp - xqp * pm + xpp * qq
            c2[a + b + c].append(2.0 * term if b != c else term)
    c2 = [fold(terms) for terms in c2]
    drive = []
    for f in (lambda n, j: h[n - j, j + 1]), (lambda n, j: h[n + 1 - j, j]):
        sums = [[c[j] * f(n, j) for j in range(n + 1) if f(n, j) != 0.0] for c, n in ((c1, 2), (c2, 3))]
        drive.append([fold(terms) / w for terms, w in zip(sums, (8.0, 24.0)) if terms])
    z2q, z2p = z2
    jq = [c * z for c, z in ((h[1, 1], z2q), (h[0, 2], z2p)) if c != 0.0]
    jp = [c * z for c, z in ((h[2, 0], z2q), (h[1, 1], z2p)) if c != 0.0]
    if jq:
        rate_q = fold(jq) - fold(drive[0]) if drive[0] else fold(jq)
    else:
        rate_q = -fold(drive[0] or [0.0])
    if jp:
        rate_p = -functools.reduce(operator.sub, [fold(jp), *drive[1]])
    else:
        rate_p = fold(drive[1] or [0.0])
    return [rate_q, rate_p]


def random_drives(seed, hamiltonians, points):
    """(H, jq, jp) for seeded polynomial Hamiltonians with every partial of
    orders 2 to 4, and seeded order-2 jets at seeded points."""
    rng = random.Random(seed)
    for _ in range(hamiltonians):
        terms = [f"({rng.randint(-40, 40)}/{rng.randint(1, 9)})*q^{a + 1}*p^{b + 1}"
                 for a in range(3) for b in range(3) if a + b <= 2]
        terms += [f"({rng.randint(-40, 40)}/{rng.randint(1, 9)})*{x}^{n}" for x in "qp" for n in (2, 3, 4)]
        ham = HamiltonianSpec(parse_expr(" + ".join(terms)))
        for _ in range(points):
            yield ham, *([rng.uniform(-2.0, 2.0) for _ in range(6)] for _ in range(2))


def bench_drives(seed, points):
    """(H, jq, jp) for the benchmark Hamiltonians, some of whose partials
    are 0, and seeded order-2 jets at seeded points."""
    rng = random.Random(seed)
    for make in BENCH_HAMILTONIANS.values():
        ham = make()
        for _ in range(points):
            yield ham, *([rng.uniform(-2.0, 2.0) for _ in range(6)] for _ in range(2))


def generated_drive(ham, jq, jp, z2=(0.0, 0.0)):
    """The generated ode right-hand side: the jets' rates, and the
    correction pair's, which at zero correction are the drive alone."""
    rates = moyal.semiclassical._hbar2_rates(ham)([*jq, *jp, *z2], ham.params)
    return rates[:12], rates[12:]


def test_hbar2_inhomogeneity_matches_its_index_sums():
    for ham, jq, jp in random_drives(7, 10, 5):
        _jets, got = generated_drive(ham, jq, jp)
        want = reference_inhomogeneity(ham.partials_at(jq[0], jp[0]), jq, jp)
        assert got == pytest.approx(want, rel=1e-12)


def test_generated_drive_is_the_loop_bit_for_bit():
    # the loop is now the symmetry-folded sum of folded_rates;
    # loop_inhomogeneity, the term-by-term loop, is kept as the oracle below.
    # The benchmark Hamiltonians have partials that are 0, whose terms drop
    rng = random.Random(3)
    cases = [(*drive, (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
             for drive in [*random_drives(11, 6, 5), *bench_drives(3, 5)]]
    # a correction of signed zeros, where the sign of a zero term shows,
    # on the benchmark Hamiltonians with a partial of H that is 0: at
    # seeded jets, and at the identity map's jets, whose drive is a zero
    rng = random.Random(5)
    signed_zeros = 0
    for make in BENCH_HAMILTONIANS.values():
        ham = make()
        if all(ham.partials.get(*k) != ZERO for k in moyal.flow.PARTIAL_KEYS):
            continue
        z0 = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        jets = [[rng.uniform(-2.0, 2.0) for _ in range(6)] for _ in range(2)]
        for jq, jp in (jets, (seed(z0[0], 0, 2), seed(z0[1], 1, 2))):
            cases += [(ham, jq, jp, z2) for z2 in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0))]
            signed_zeros += 3
    assert signed_zeros
    for ham, jq, jp, z2 in cases:
        jets, got = generated_drive(ham, jq, jp, z2)
        assert [x.hex() for x in jets] == [x.hex() for x in ham.field_jets(jq + jp)]
        want = folded_rates(ham.partials_at(jq[0], jp[0]), jq, jp, z2)
        assert [x.hex() for x in got] == [x.hex() for x in want]


def test_generated_drive_agrees_with_the_term_by_term_loop():
    for ham, jq, jp in [*random_drives(13, 10, 5), *bench_drives(5, 5)]:
        _jets, got = generated_drive(ham, jq, jp)
        assert got == pytest.approx(loop_inhomogeneity(ham.partials_at(jq[0], jp[0]), jq, jp), rel=1e-13)


def parent_ode(ham, z0, t_final, steps):
    """The ode route with the term-by-term drive of ``loop_inhomogeneity``:
    the same jets, Jacobian term, RK4 and step count as ``hbar2_ode``."""

    def rhs(s):
        h = ham.partials_at(s[0], s[6])
        drive = loop_inhomogeneity(h, s[:6], s[6:12])
        z2q, z2p = s[12], s[13]
        return [
            *ham.field_jets(s[:12]),
            h[1, 1] * z2q + h[0, 2] * z2p + drive[0],
            -h[2, 0] * z2q - h[1, 1] * z2p + drive[1],
        ]

    state = [*seed(z0[0], 0, 2), *seed(z0[1], 1, 2), 0.0, 0.0]
    for state in rk4(rhs, state, t_final, steps):
        pass
    return state[12], state[13]


# a polynomial Hamiltonian of degree at most 6: p^2/2 plus (a, b, n)
# terms (n/4) q^a p^b, one with q in it and of degree 3 or more, which
# gives the routes a nonzero drive, and up to five more
def polynomial_term(low_q, low):
    return st.tuples(st.integers(low_q, 6), st.integers(0, 6), st.integers(-4, 4).filter(bool)).filter(
        lambda t: low <= t[0] + t[1] <= 6
    )


polynomial_terms = st.tuples(polynomial_term(1, 3), st.lists(polynomial_term(0, 1), max_size=5)).map(
    lambda drawn: [drawn[0], *drawn[1]]
)


def route_values(run):
    """A route's (Q2, P2), or the class and text of its refusal."""
    try:
        res = run()
    except (ArithmeticError, ValueError, FlowBlowupError) as err:
        return type(err), str(err)
    return res if type(res) is tuple else (res.q2[0], res.p2[0])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    terms=polynomial_terms,
    z0=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    t=st.floats(0.01, 0.5),
)
def test_both_routes_agree_with_the_parent_formulas(terms, z0, t):
    # the ode route against the term-by-term drive, the transport route
    # against the fixed-point sweep inverse; each pair (Q2, P2) within
    # 1e-12 of the larger of its two parent values
    ham = HamiltonianSpec(parse_expr(" + ".join(["p^2/2", *(f"({n}/4)*q^{a}*p^{b}" for a, b, n in terms)])))
    transport = lambda: hbar2_transport(ham, z0, t, steps_per_unit=256 / t)
    sweep_nodes = lambda ham: partial(reference_nodes, ham, inverse=reference_invert)
    # each route at a top of 256 steps run at its level of 64, the parent
    # formulas' step count
    with at_cap(2), mock.patch.object(moyal.semiclassical, "_transport_nodes", sweep_nodes):
        want = [route_values(lambda: parent_ode(ham, z0, t, 64)), route_values(transport)]
    with at_cap(2):
        got = [route_values(lambda: hbar2_ode(ham, z0, t, steps_per_unit=256 / t)), route_values(transport)]
    for x, y in zip(got, want):
        if type(y[0]) is type:  # both refuse the flow alike
            assert x == y
        else:
            assert max(abs(u - v) for u, v in zip(x, y)) <= 1e-12 * max(map(abs, y))


# the round-off of a component far below the other, relative to the larger
# of Q2 and P2: on the examples below Q2 is 8e-9 to 3e-5 of P2, a route's
# value where it stops is 2.6e-8 to 3.1e-8 of Q2 from the reference, 2e-16
# to 1e-12 of P2, and transport's own values at 4,096 to 32,768 steps spread
# by up to 1.2e-11 of P2; a bound of 1e-8 of the component alone is below
# what floats resolve there, so each is also met within ten times that spread
ROUND_OFF_FLOOR = 1e-10


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    terms=polynomial_terms,
    z0=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    t=st.floats(0.01, 0.5),
)
@example(terms=[(2, 2, 1)], z0=(0.0, 0.03125), t=0.0625)
@example(terms=[(4, 1, 1)], z0=(0.0, 1.0), t=0.25)
@example(terms=[(5, 1, 1)], z0=(0.0, -0.545), t=0.4746)
def test_a_route_that_stops_below_its_top_is_within_1e_8_of_the_route_at_16_times_the_top(terms, z0, t):
    # each route's value where it meets an estimate below its top, against
    # the ode route at 16 times the top run alone, in every component:
    # within 1e-8 of it, or within ROUND_OFF_FLOOR of the pair
    ham = HamiltonianSpec(parse_expr(" + ".join(["p^2/2", *(f"({n}/4)*q^{a}*p^{b}" for a, b, n in terms)])))
    table = moyal.semiclassical._richardson
    fine = None
    for route in (hbar2_ode, hbar2_transport):
        ran = []
        recording = lambda run, steps, unit=64: table(lambda n: ran.append(n) or run(n), steps, unit)
        with mock.patch.object(moyal.semiclassical, "_richardson", recording):
            got = route_values(lambda: route(ham, z0, t))
        if type(got[0]) is type or ran[-1] == 64 * ran[0]:
            continue
        if not fine:
            with at_cap():
                fine = route_values(lambda: hbar2_ode(ham, z0, t, steps_per_unit=16 * 64 * ran[0] / t))
            # a flow that a coarser run carried through is carried at 16 times the top
            assert type(fine[0]) is not type, fine
        floor = ROUND_OFF_FLOOR * max(map(abs, fine))
        for x, want in zip(got, fine):
            assert route_gap(x, want) <= 1e-8 or abs(x - want) <= floor, (route, got, fine)


# the modules whose code calls exec: the emitters' kernels (expr, which the
# jet field, the ode right-hand side and jets.invert's inverse go through)
# and the RK4 loops (flow)
GENERATING_MODULES = (moyal.expr, moyal.flow)


def test_a_warm_spec_generates_no_code(monkeypatch):
    # each route's right-hand side and each flow's RK4 loop is generated by
    # the first flow that needs it; a second flow runs the kept code
    ham = HamiltonianSpec(parse_expr("q^2*p^2/(4*m*l^2) + q^7/50"), {"m": 1.3, "l": 0.7})
    z0, t = (0.9, 0.4), 0.05
    runs = [
        lambda: hbar2_ode(ham, z0, t),
        lambda: hbar2_transport(ham, z0, t),
        lambda: integrate_flow(ham, z0, t).states[-1],
        *(lambda order=order: integrate_flow_jets(ham, z0, t, order=order).jets[-1] for order in (1, 2, 3)),
    ]
    first = [run() for run in runs]
    compiled = []
    for module in GENERATING_MODULES:
        monkeypatch.setattr(module, "exec", lambda *args: compiled.append(args), raising=False)
    assert [run() for run in runs] == first
    assert compiled == []


def test_every_module_that_generates_code_is_watched():
    # a module that calls exec must be in GENERATING_MODULES, so that the
    # warm-run test above sees the code it generates
    modules = [importlib.import_module(f"moyal.{info.name}") for info in pkgutil.iter_modules(moyal.__path__)]
    assert {m for m in modules if "exec(" in inspect.getsource(m)} == set(GENERATING_MODULES)


def test_simpson_is_exact_for_cubics():
    h = 0.25
    values = [(k * h) ** 3 - 3.0 * (k * h) ** 2 for k in range(9)]
    assert _simpson(values, h) == pytest.approx(2.0 ** 4 / 4 - 2.0 ** 3, rel=1e-14)
    # and not for quartics: its error on [0, 2] is 2 h^4 f'''' / 180, no
    # Richardson step inside the rule
    quartic = [(k * h) ** 4 for k in range(9)]
    assert _simpson(quartic, h) == pytest.approx(2.0 ** 5 / 5 + 2.0 * h ** 4 * 24.0 / 180.0, rel=1e-14)


# -- second deformation coefficient ------------------------------------


def test_a2_kernel_scaled_products():
    got = star_exp_A2(parse_expr("(3/5)*q*p"))
    assert got == parse_expr("9/200 + (9/500)*q*p")
    got = star_exp_A2(parse_expr("q*p/3"))
    assert got == parse_expr("1/72 + q*p/324")


def test_a2_kernel_vanishes_for_linear():
    assert star_exp_A2(parse_expr("q")) is ZERO
    assert star_exp_A2(parse_expr("2*p")) is ZERO


def test_a2_kernel_harmonic():
    got = star_exp_A2(parse_expr("(q^2 + p^2)/2"))
    assert got == parse_expr("-1/8 - q^2/24 - p^2/24")


# -- cubic order-7 comparison ------------------------------------------


def test_cubic_order7_momentum_matches_quoted():
    rep = cubic_order7_report()
    assert rep.agrees_through_order_6 == {"q": True, "p": True}
    assert rep.quoted_order_7 == "(5/4)*hbar^2"
    assert rep.difference_order_7 == {"q": "0", "p": "(5/4)*hbar^2"}
    assert rep.matches_quoted == {"q": False, "p": True}


def test_cubic_order7_mass_dependence():
    rep = cubic_order7_report(m=Fraction(3, 2))
    assert rep.quoted_order_7 == "(20/81)*hbar^2"
    assert rep.matches_quoted["p"]


def test_cubic_position_first_diverges_at_order_8():
    h = mono(Fraction(1, 2), 0, 2) + mono(Fraction(1, 6), 3, 0)
    reps = divergence_order(h, 8)
    assert reps["q"].first_divergent_order == 8
    assert reps["p"].first_divergent_order == 7


def test_json_layout_of_cubic_report():
    d = cubic_order7_report().to_json_dict()
    assert sorted(d) == [
        "agrees_through_order_6",
        "difference_order_7",
        "matches_quoted",
        "quoted_order_7",
    ]
