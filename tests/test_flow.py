import math
import re
from fractions import Fraction

import pytest

from moyal.checks import _flow_hamiltonians
from moyal.expr import FloatEmitter, Program, parse_expr
from moyal.flow import (
    FlowBlowupError,
    HamiltonianSpec,
    Trajectory,
    check_energy,
    check_symplectic,
    check_transport,
    default_steps,
    integrate_flow,
    integrate_flow_jets,
    rk4,
)
from moyal.jets import derivative, eval_expr_jet, seed


def harmonic():
    return HamiltonianSpec(parse_expr("p^2/2 + q^2/2"))


def test_spec_validation():
    with pytest.raises(ValueError):
        HamiltonianSpec(parse_expr("q*t"))
    with pytest.raises(ValueError):
        HamiltonianSpec(parse_expr("hbar*q^2"))
    with pytest.raises(ValueError):
        HamiltonianSpec(parse_expr("i*q*p"))
    with pytest.raises(ValueError):
        HamiltonianSpec(parse_expr("omega*q^2"))
    with pytest.raises(ValueError, match="^q and p are the coordinates, not parameters$"):
        HamiltonianSpec(parse_expr("p^2/2 + q^2/2"), {"q": 2.0})
    # bound parameters are fine
    HamiltonianSpec(parse_expr("omega^2*q^2/2"), {"omega": 2.0})
    # powers up to the polynomial degree budget
    HamiltonianSpec(parse_expr("p^2/2+q^64"))
    with pytest.raises(ValueError, match="exponent above 64"):
        HamiltonianSpec(parse_expr("p^2/2+q^65"))


def test_field_and_energy():
    ham = HamiltonianSpec(parse_expr("p^2/2 + q^4/24"))
    fq, fp = ham.field([2.0, 3.0])
    assert fq == pytest.approx(3.0)
    assert fp == pytest.approx(-8.0 / 6.0)
    assert ham.energy(2.0, 3.0) == pytest.approx(4.5 + 16.0 / 24.0)


def test_field_refuses_a_state_that_is_not_two_floats():
    ham = HamiltonianSpec(parse_expr("p^2/2 + q^4/24"))
    for state in ([1.0], [1.0, 2.0, 3.0]):
        with pytest.raises(ValueError, match=f"^a flow's state holds 2 floats, not {len(state)}$"):
            ham.field(state)


def test_default_steps():
    assert default_steps(2.5) == 5000
    assert default_steps(-0.4) == 800
    assert default_steps(1e-4) == 1


def test_harmonic_endpoint():
    traj = integrate_flow(harmonic(), (1.0, 0.0), 2.0)
    q, p = traj.states[-1]
    assert q == pytest.approx(math.cos(2.0), abs=1e-12)
    assert p == pytest.approx(-math.sin(2.0), abs=1e-12)


def test_backward_integration():
    traj = integrate_flow(harmonic(), (1.0, 0.0), -1.5)
    q, _ = traj.states[-1]
    assert q == pytest.approx(math.cos(1.5), abs=1e-12)


def test_rk4_convergence_order():
    errs = []
    for steps in (200, 400):
        traj = integrate_flow(harmonic(), (1.0, 0.0), 2.0, steps)
        errs.append(abs(traj.states[-1][0] - math.cos(2.0)))
    assert 12.0 < errs[0] / errs[1] < 20.0


def test_energy_conservation_quartic():
    ham = HamiltonianSpec(parse_expr("p^2/2 + q^2/2 + q^4/24"))
    traj = integrate_flow(ham, (0.9, 0.4), 5.0)
    assert check_energy(traj, ham) < 1e-8


def test_jets_ride_along_without_changing_state():
    ham = harmonic()
    plain = integrate_flow(ham, (0.7, -0.3), 1.0, 500)
    jetted = integrate_flow_jets(ham, (0.7, -0.3), 1.0, steps=500, order=2)
    assert plain.states[-1] == pytest.approx(jetted.states[-1])


def test_harmonic_jets_are_rotation():
    # the flow map of the harmonic oscillator is a rigid rotation
    traj = integrate_flow_jets(harmonic(), (1.0, 0.0), 1.3, order=1)
    jq, jp = traj.jets[-1]
    assert derivative(jq, 1, 0) == pytest.approx(math.cos(1.3), abs=1e-10)
    assert derivative(jq, 0, 1) == pytest.approx(math.sin(1.3), abs=1e-10)
    assert derivative(jp, 1, 0) == pytest.approx(-math.sin(1.3), abs=1e-10)
    assert derivative(jp, 0, 1) == pytest.approx(math.cos(1.3), abs=1e-10)


def matmul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


def rk4_step_map(h):
    """The RK4 step of the harmonic oscillator, z' = A z with A = [[0, 1],
    [-1, 0]], exactly: M = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24."""
    m = term = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for n in range(1, 5):
        term = [[c * h / n for c in row] for row in matmul(term, [[0, 1], [-1, 0]])]
        m = [[a + b for a, b in zip(r, t)] for r, t in zip(m, term)]
    return m


def test_rk4_matches_the_exact_step_map_of_the_harmonic_oscillator():
    # dyadic h = 1/16: the generated loops, the plain reference and the
    # order-1 jets' first derivatives against M^n, computed in Fractions
    z0, steps = (0.9, -0.7), 8
    step = rk4_step_map(Fraction(1, 16))
    powers = [[[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]]
    for _ in range(steps):
        powers.append(matmul(step, powers[-1]))
    want = [[float(r[0] * Fraction(z0[0]) + r[1] * Fraction(z0[1])) for r in mn] for mn in powers]
    ham = harmonic()
    states = [list(z0), *rk4(lambda s: [s[1], -s[0]], z0, steps / 16, steps)]
    traj = integrate_flow_jets(ham, z0, steps / 16, steps, order=1)
    for got in (states, integrate_flow(ham, z0, steps / 16, steps).states, traj.states):
        assert len(got) == steps + 1
        for z, w in zip(got, want):
            assert max(abs(x - y) for x, y in zip(z, w)) < 1e-15
    for (jq, jp), mn in zip(traj.jets, powers):
        firsts = [derivative(c, 1, 0) for c in (jq, jp)] + [derivative(c, 0, 1) for c in (jq, jp)]
        assert max(abs(x - float(y)) for x, y in zip(firsts, [mn[0][0], mn[1][0], mn[0][1], mn[1][1]])) < 1e-15


@pytest.mark.parametrize("steps", [0, -5])
def test_fewer_than_one_step_is_refused(steps):
    ham = harmonic()
    with pytest.raises(ValueError, match=f"^RK4 needs at least one step, not {steps}$"):
        integrate_flow(ham, (0.9, -0.7), 0.5, steps)
    for order in (1, 2, 3):
        with pytest.raises(ValueError, match=f"^RK4 needs at least one step, not {steps}$"):
            integrate_flow_jets(ham, (0.9, -0.7), 0.5, steps, order)
    with pytest.raises(ValueError, match=f"^RK4 needs at least one step, not {steps}$"):
        list(rk4(lambda s: [s[1], -s[0]], [0.9, -0.7], 0.5, steps))


def test_symplectic_determinant():
    ham = HamiltonianSpec(parse_expr("p^2/2 + q^2/2 + q^4/24"))
    traj = integrate_flow_jets(ham, (0.9, 0.4), 5.0, order=1)
    assert check_symplectic(traj) < 1e-8


def test_symplectic_needs_jets():
    traj = integrate_flow(harmonic(), (1.0, 0.0), 0.5)
    with pytest.raises(ValueError):
        check_symplectic(traj)


def test_a_determinant_that_is_not_finite_makes_the_deviation_inf():
    # the state stays finite, but in the last 3,713 of 54,001 steps both
    # products of the determinant overflow, and inf - inf is nan
    ham = HamiltonianSpec(parse_expr("p^2/2 - 100*q^2"))
    traj = integrate_flow_jets(ham, (1e-170, 1e-170), 27.0, order=1)
    assert all(map(math.isfinite, traj.jets[-1][0] + traj.jets[-1][1]))
    assert check_symplectic(traj) == math.inf


def test_an_energy_that_is_not_finite_makes_the_drift_inf():
    # H = q p (p - q) at (1e200, 1e200) is inf times 0
    ham = HamiltonianSpec(parse_expr("q*p*(p - q)"))
    assert check_energy(Trajectory(states=[(0.0, 0.0), (0.5, 0.25), (1e200, 1e200)]), ham) == math.inf
    assert check_energy(Trajectory(states=[(0.0, 0.0), (0.5, 0.25)]), ham) == 0.03125


def test_transport_residual():
    ham = HamiltonianSpec(parse_expr("p^2/2 + q^2/2 + q^4/24"))
    res = check_transport(parse_expr("q*p"), ham, integrate_flow(ham, (0.9, 0.4), 5.0), 5.0)
    assert res < 1e-6


def test_transport_refuses_a_trajectory_that_kept_every_nth_state():
    ham = HamiltonianSpec(parse_expr("p^2/2 + q^2/2 + q^4/24"))
    traj = integrate_flow(ham, (0.9, 0.4), 5.0, every=2)
    with pytest.raises(ValueError, match="^check_transport needs every step's state, not one in 2$"):
        check_transport(parse_expr("q*p"), ham, traj, 5.0)


def every_run(ham, z0, t, steps, order, every):
    """float.hex of the states and jets the flow keeps, or the class, text
    and float.hex time of its blowup."""
    try:
        if order:
            traj = integrate_flow_jets(ham, z0, t, steps, order, every)
            kept = [jq + jp for jq, jp in traj.jets]
        else:
            traj = integrate_flow(ham, z0, t, steps, every)
            kept = traj.states
    except FlowBlowupError as err:
        return type(err), str(err), err.time.hex()
    assert traj.every == every
    assert len(traj.states) == len(kept) == steps // every + 1
    return [[x.hex() for x in s] for s in kept], [[x.hex() for x in s] for s in traj.states]


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_every_keeps_the_initial_state_and_every_nth_state(order):
    ham = HamiltonianSpec(parse_expr("p^2/2 + q^2/2 + q^4/24"))
    for t in (0.3, -0.3):
        kept, states = every_run(ham, (0.9, -0.7), t, 24, order, 1)
        for every in (2, 3, 8, 24):
            assert every_run(ham, (0.9, -0.7), t, 24, order, every) == (kept[::every], states[::every])


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_every_that_is_not_a_positive_divisor_of_the_steps_is_refused(order):
    ham = harmonic()
    for every in (0, -2, 5, 25):
        with pytest.raises(ValueError, match=f"^every must be a positive divisor of the 24 steps, not {every}$"):
            every_run(ham, (0.9, -0.7), 0.3, 24, order, every)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_every_keeps_the_time_of_a_blowup(order):
    # the 800*q*p blowups: the scalar flow from q0 = 1, a jet flow from
    # q0 = 1e-300, whose derivative overflows at the same step; the test
    # of finiteness still runs after every step
    ham = HamiltonianSpec(parse_expr("800*q*p"))
    z0 = (1e-300, 1.0) if order else (1.0, 1.0)
    blowup = every_run(ham, z0, 1.0, 2000, order, 1)
    assert blowup[0] is FlowBlowupError
    for every in (8, 400, 2000):
        assert every_run(ham, z0, 1.0, 2000, order, every) == blowup


def test_blowup_raises():
    ham = HamiltonianSpec(parse_expr("q^2*p"))
    with pytest.raises(FlowBlowupError) as err:
        integrate_flow(ham, (1.0, 1.0), 2.0)
    assert 0.9 < err.value.time < 1.1
    with pytest.raises(FlowBlowupError):
        integrate_flow_jets(ham, (1.0, 1.0), 2.0, order=1)


def test_partials_at_matches_the_derivative_table():
    hams = [ham for _name, ham in _flow_hamiltonians()]
    hams += [HamiltonianSpec(parse_expr(t)) for t in ("p^2/2 + q^3/6", "p^2/2 + cosh(q)/4")]
    keys = [(a, n - a) for n in (2, 3, 4) for a in range(n + 1)]
    for ham in hams:
        # one Program per partial, compiled once for every point
        each = {k: Program(ham.partials.get(*k)) for k in keys}
        for q, p in ((0.9, -0.7), (-1.1, 0.6), (0.0, 1.3), (2.5, 0.25)):
            table = ham.partials_at(q, p)
            assert sorted(table) == sorted(keys)
            for key, value in table.items():
                assert value.hex() == each[key].real({"q": q, "p": p, **ham.params}).hex()


def test_jet_order_validation():
    with pytest.raises(ValueError):
        integrate_flow_jets(harmonic(), (0.0, 0.0), 1.0, order=5)


def scaled_quartic():
    return HamiltonianSpec(parse_expr("q^2*p^2/(4*m*l^2)"), {"m": 1.3, "l": 0.7})


def test_warm_field_jets_makes_no_constant_jets(monkeypatch):
    # bound parameters stay floats in a jet run: the field's jet code reads
    # each into one float local, unpacks q and p once each as jets, and a
    # warm call generates nothing; one jet kernel per order serves
    # field_jets and eval_expr_jet of the field alike
    sources = []
    function = FloatEmitter.function

    def recorded(self, roots, single):
        sources.append("\n".join(self.lines))
        return function(self, roots, single)

    monkeypatch.setattr(FloatEmitter, "function", recorded)
    ham = scaled_quartic()
    jq, jp = seed(0.9, 0, 3), seed(0.4, 1, 3)
    want = ham.field_jets(jq + jp)
    assert ham.field_jets(jq + jp) == want
    # the spec's realness probe, then the order-3 field
    assert len(sources) == 2
    names = ham._field.names
    floats = re.findall(r"^v\d+ = b\[N\[(\d+)\]\]$", sources[1], re.M)
    assert sorted(names[int(k)] for k in floats) == ["l", "m"]
    # q's ten coefficients and p's ten, one local each
    jets = re.findall(r"^ +((?:v\d+, )+v\d+) = b\[N\[(\d+)\]\]$", sources[1], re.M)
    assert sorted(names[int(k)] for _, k in jets) == ["p", "q"]
    assert [len(locals_.split(", ")) for locals_, _ in jets] == [10, 10]
    dp, dq = eval_expr_jet(ham._field, {"q": jq, "p": jp, **ham.params}, 3)
    assert len(sources) == 2
    assert dp + [-x for x in dq] == want


def test_field_jets_reads_the_order_from_the_jets():
    # dH/dq = 1 depends on no jet and comes back at the jets' order
    ham = HamiltonianSpec(parse_expr("p^2/2 + q"))
    for order in (1, 2, 3):
        rates = ham.field_jets(seed(0.9, 0, order) + seed(0.4, 1, order))
        n = len(seed(0.0, 0, order))
        assert len(rates) == 2 * n
        assert [x.hex() for x in rates[n:]] == [x.hex() for x in [-1.0] + [-0.0] * (n - 1)]


def test_field_jets_refuses_mixed_orders():
    with pytest.raises(ValueError, match="^a jet flow's state holds 6, 12 or 20 floats, not 16$"):
        scaled_quartic().field_jets(seed(0.9, 0, 2) + seed(0.4, 1, 3))


def test_field_jets_refuses_a_momentum_jet_of_another_order():
    # the second field reads no p
    for text in ("p^2/2+q^2/2", "q^2/2 + p"):
        ham = HamiltonianSpec(parse_expr(text))
        for jq, jp in ((1, 2), (2, 3), (3, 2), (3, 1)):
            with pytest.raises(ValueError, match="^a jet flow's state holds 6, 12 or 20 floats, not"):
                ham.field_jets(seed(0.9, 0, jq) + seed(0.4, 1, jp))


def test_rk4_refuses_rates_of_another_length():
    # an order-2 jet's rates for an order-3 jet, then one rate too many
    state = [*seed(0.9, 0, 3), 0.5]
    for rates in ([*seed(1.0, 0, 2), 1.0], [*seed(1.0, 0, 3), 1.0, 2.0]):
        with pytest.raises(ValueError):
            next(rk4(lambda s: rates, state, 1.0, 10))


def test_a_derivative_that_overflows_is_a_blowup():
    # from q0 = 1e-300, q = q0 exp(800 t) stays finite to t = 1 while
    # dq/dq0 = exp(800 t) overflows: it obeys the recurrence of q itself
    # from q0 = 1, so the jet run is refused at the step the scalar run is
    ham = HamiltonianSpec(parse_expr("800*q*p"))
    assert math.isfinite(integrate_flow(ham, (1e-300, 1.0), 1.0).states[-1][0])
    with pytest.raises(FlowBlowupError) as scalar:
        integrate_flow(ham, (1.0, 1.0), 1.0)
    assert 0.8 < scalar.value.time < 0.9
    with pytest.raises(FlowBlowupError) as jet:
        integrate_flow_jets(ham, (1e-300, 1.0), 1.0, order=1)
    assert jet.value.time == scalar.value.time
