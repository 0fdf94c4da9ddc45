import functools
import importlib
import inspect
import itertools
import math
import operator
import pkgutil
import random
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expr_walk import reference_invert

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
from moyal.jets import derivative, seed
from moyal.poly import PhasePolynomial, bidifferential, format_poly, poisson_bracket
from moyal.semiclassical import (
    TimeTaylorFlow,
    _boole,
    cubic_order7_report,
    divergence_order,
    hbar2_ode,
    hbar2_transport,
    iterated_brackets,
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


def test_hbar2_ode_default_steps_per_unit(squeeze_ham):
    default = hbar2_ode(squeeze_ham, (1.0, 1.0), 0.2)
    assert hbar2_ode(squeeze_ham, (1.0, 1.0), 0.2, steps_per_unit=2000) == default
    assert hbar2_ode(squeeze_ham, (1.0, 1.0), 0.2, steps_per_unit=500) != default


def test_hbar2_transport_compiles_per_call_not_per_node(monkeypatch):
    built = []
    init = Program.__init__

    def counting_init(self, roots, *tables):
        built.append(roots)
        init(self, roots, *tables)

    monkeypatch.setattr(Program, "__init__", counting_init)
    counts = []
    for panels_per_unit in (8, 64):
        ham = HamiltonianSpec(parse_expr("p^2/2 + q^2/2 + q^4/24"))
        built.clear()
        hbar2_transport(ham, (0.9, -0.7), 0.5, quad_panels_per_unit=panels_per_unit, steps_per_unit=64)
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


def per_node_transport_values(ham, z0, t_final, quad_panels_per_unit):
    """Reference: the transport integrand at every node by a fresh forward
    order-3 jet integration from z(T - s) for duration s (quadratic in T),
    on the node and step grid of hbar2_transport."""
    panels = max(8, math.ceil(quad_panels_per_unit * t_final))
    panels += -panels % 4
    steps = max(panels, math.ceil(STEPS_PER_UNIT_TIME * t_final))
    steps = ((steps + panels - 1) // panels) * panels
    stride = steps // panels
    base = integrate_flow(ham, z0, t_final, steps)
    h_node = t_final / panels
    fq_vals, fp_vals = [0.0], [0.0]
    for k in range(1, panels + 1):
        w = base.states[steps - k * stride]
        jq, jp = integrate_flow_jets(ham, w, k * h_node, k * stride, order=3).jets[-1]
        h = ham.partials_at(*w)
        h3 = lambda a, b: h[a, b]
        fq_vals.append(-bidifferential(partial(derivative, jq), h3, 3, 0.0) / 24.0)
        fp_vals.append(-bidifferential(partial(derivative, jp), h3, 3, 0.0) / 24.0)
    return fq_vals, fp_vals, h_node


@pytest.mark.parametrize("name", sorted(BENCH_HAMILTONIANS))
def test_hbar2_transport_matches_per_node_reference(name):
    ham = BENCH_HAMILTONIANS[name]()
    for t in (0.1, 0.3):
        fq_vals, fp_vals, h_node = per_node_transport_values(ham, (0.9, -0.7), t, 32)
        res = hbar2_transport(ham, (0.9, -0.7), t, quad_panels_per_unit=32)
        assert res.q2[0] == pytest.approx(_boole(fq_vals, h_node), rel=1e-9)
        assert res.p2[0] == pytest.approx(_boole(fp_vals, h_node), rel=1e-9)


def test_hbar2_transport_runs_one_jet_pass_per_call(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return integrate_flow_jets(*args, **kwargs)

    monkeypatch.setattr(moyal.semiclassical, "integrate_flow_jets", counting)
    ham = HamiltonianSpec(parse_expr("p^2/2 + q^2/2 + q^4/24"))
    for t in (0.5, 1.0, 2.0):
        calls.clear()
        hbar2_transport(ham, (0.9, -0.7), t, steps_per_unit=500)
        assert calls == [-t]


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
    whose partial of H is 0 left out; then the Jacobian term and the
    drive, in the code's order."""
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
    rate_q = h[1, 1] * z2q + h[0, 2] * z2p
    rate_p = -h[2, 0] * z2q - h[1, 1] * z2p
    return [
        rate_q - fold(drive[0]) if drive[0] else rate_q,
        fold([rate_p, *drive[1]]),
    ]


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
    for ham, jq, jp in [*random_drives(11, 6, 5), *bench_drives(3, 5)]:
        z2 = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        jets, got = generated_drive(ham, jq, jp, z2)
        assert [x.hex() for x in jets] == [x.hex() for x in ham.field_jets(jq + jp)]
        want = folded_rates(ham.partials_at(jq[0], jp[0]), jq, jp, z2)
        assert [x.hex() for x in got] == [x.hex() for x in want]


def test_generated_drive_agrees_with_the_term_by_term_loop():
    for ham, jq, jp in [*random_drives(13, 10, 5), *bench_drives(5, 5)]:
        _jets, got = generated_drive(ham, jq, jp)
        assert got == pytest.approx(loop_inhomogeneity(ham.partials_at(jq[0], jp[0]), jq, jp), rel=1e-13)


def parent_ode(ham, z0, t_final, steps_per_unit):
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
    steps = max(moyal.semiclassical._MIN_ODE_STEPS, round(steps_per_unit * t_final))
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
    transport = lambda: hbar2_transport(ham, z0, t, quad_panels_per_unit=16, steps_per_unit=200)
    with mock.patch.object(moyal.semiclassical, "invert", reference_invert):
        want = [route_values(lambda: parent_ode(ham, z0, t, 200)), route_values(transport)]
    got = [route_values(lambda: hbar2_ode(ham, z0, t, steps_per_unit=200)), route_values(transport)]
    for x, y in zip(got, want):
        if type(y[0]) is type:  # both refuse the flow alike
            assert x == y
        else:
            assert max(abs(u - v) for u, v in zip(x, y)) <= 1e-12 * max(map(abs, y))


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
    # the transport route's inverse is generated by its first run too
    moyal.jets._inverse.cache_clear()
    first = [run() for run in runs]
    assert moyal.jets._inverse.cache_info().currsize == 1
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


def test_boole_is_exact_for_quintics():
    h = 0.25
    values = [(k * h) ** 5 - 3.0 * (k * h) ** 2 for k in range(9)]
    assert _boole(values, h) == pytest.approx(2.0 ** 6 / 6 - 2.0 ** 3, rel=1e-14)


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
