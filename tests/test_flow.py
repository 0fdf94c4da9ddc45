import math

import pytest

from moyal.expr import parse_expr
from moyal.flow import (
    FlowBlowupError,
    HamiltonianSpec,
    check_energy,
    check_symplectic,
    check_transport,
    default_steps,
    integrate_flow,
    integrate_flow_jets,
)


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
    # bound parameters are fine
    HamiltonianSpec(parse_expr("omega^2*q^2/2"), {"omega": 2.0})


def test_field_and_energy():
    ham = HamiltonianSpec(parse_expr("p^2/2 + q^4/24"))
    fq, fp = ham.field(2.0, 3.0)
    assert fq == pytest.approx(3.0)
    assert fp == pytest.approx(-8.0 / 6.0)
    assert ham.energy(2.0, 3.0) == pytest.approx(4.5 + 16.0 / 24.0)


def test_default_steps():
    assert default_steps(2.5) == 5000
    assert default_steps(-0.4) == 800
    assert default_steps(1e-4) == 1


def test_harmonic_endpoint():
    traj = integrate_flow(harmonic(), (1.0, 0.0), 2.0)
    q, p = traj.states[-1]
    assert q == pytest.approx(math.cos(2.0), abs=1e-12)
    assert p == pytest.approx(-math.sin(2.0), abs=1e-12)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(2.0)


def test_backward_integration():
    traj = integrate_flow(harmonic(), (1.0, 0.0), -1.5)
    q, _ = traj.states[-1]
    assert q == pytest.approx(math.cos(1.5), abs=1e-12)
    assert math.copysign(1.0, traj.times[0]) == 1.0


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
    assert jq.derivative(1, 0) == pytest.approx(math.cos(1.3), abs=1e-10)
    assert jq.derivative(0, 1) == pytest.approx(math.sin(1.3), abs=1e-10)
    assert jp.derivative(1, 0) == pytest.approx(-math.sin(1.3), abs=1e-10)
    assert jp.derivative(0, 1) == pytest.approx(math.cos(1.3), abs=1e-10)


def test_symplectic_determinant():
    ham = HamiltonianSpec(parse_expr("p^2/2 + q^2/2 + q^4/24"))
    traj = integrate_flow_jets(ham, (0.9, 0.4), 5.0, order=1)
    assert check_symplectic(traj) < 1e-8


def test_symplectic_needs_jets():
    traj = integrate_flow(harmonic(), (1.0, 0.0), 0.5)
    with pytest.raises(ValueError):
        check_symplectic(traj)


def test_transport_residual():
    ham = HamiltonianSpec(parse_expr("p^2/2 + q^2/2 + q^4/24"))
    res = check_transport(parse_expr("q*p"), ham, (0.9, 0.4), 5.0)
    assert res < 1e-6


def test_blowup_raises():
    ham = HamiltonianSpec(parse_expr("q^2*p"))
    with pytest.raises(FlowBlowupError) as err:
        integrate_flow(ham, (1.0, 1.0), 2.0)
    assert 0.9 < err.value.time < 1.1
    with pytest.raises(FlowBlowupError):
        integrate_flow_jets(ham, (1.0, 1.0), 2.0, order=1)


def test_csv_layout():
    traj = integrate_flow_jets(harmonic(), (1.0, 0.0), 0.002, steps=2, order=2)
    lines = traj.to_csv().splitlines()
    assert lines[0] == (
        "t,Q,P,dQdq,dQdp,d2Qdq2,d2Qdqdp,d2Qdp2,"
        "dPdq,dPdp,d2Pdq2,d2Pdqdp,d2Pdp2"
    )
    assert len(lines) == 4
    assert lines[1].startswith("0,1,0,")
    plain = integrate_flow(harmonic(), (1.0, 0.0), 0.002, 2)
    assert plain.to_csv().splitlines()[0] == "t,Q,P"


def test_jet_order_validation():
    with pytest.raises(ValueError):
        integrate_flow_jets(harmonic(), (0.0, 0.0), 1.0, order=5)
