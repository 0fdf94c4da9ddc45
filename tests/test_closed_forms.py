import math

import pytest

from moyal.brackets import bracket_2n_expr, poisson_expr
from moyal.closed_forms import (
    ValidityError,
    builtin_example1,
    builtin_unitary_pair,
)
from moyal.expr import Program, eval_expr, free_symbols, parse_expr, print_expr


@pytest.fixture(scope="module")
def ex():
    return builtin_example1()


def binds(q=1.0, p=1.0, t=1.0, hbar=0.1, m=1.0, l=1.0):
    return {"q": q, "p": p, "t": t, "hbar": hbar, "m": m, "l": l}


def test_hamiltonian_text(ex):
    assert print_expr(ex.hamiltonian) == "(1/4)*l^-2*m^-1*p^2*q^2"


def test_classical_pair_solves_hamilton(ex):
    # d/dt Q_C = dH/dp evaluated along the flow, and the p-analogue
    dq_dt = eval_expr(parse_expr("q^2*p/2"), binds())  # field at t=0
    h = 1e-6
    qc = Program(ex.classical_position)
    fd = (eval_expr(qc, binds(t=h)) - eval_expr(qc, binds(t=-h))).real / (2 * h)
    assert fd == pytest.approx(dq_dt.real, rel=1e-8)


def test_product_is_conserved_classically(ex):
    pair = Program([ex.classical_position, ex.classical_momentum])
    for t in (0.0, 0.7, -1.3):
        qc, pc = eval_expr(pair, binds(q=1.1, p=0.8, t=t))
        prod = (qc * pc).real
        assert prod == pytest.approx(1.1 * 0.8, rel=1e-12)


def test_deformed_pair_poisson_bracket_is_quartic_secant(ex):
    pb = Program(poisson_expr(ex.deformed_position.expr, ex.deformed_momentum.expr))
    for t, hbar in [(0.5, 0.1), (1.0, 0.1), (0.9, 0.05), (-0.8, 0.1)]:
        b = binds(q=0.7, p=-0.4, t=t, hbar=hbar)
        want = 1.0 / math.cos(hbar * t / 4.0) ** 4
        assert eval_expr(pb, b).real == pytest.approx(want, rel=1e-12)


def test_classical_pair_poisson_bracket_is_one(ex):
    pb = Program(poisson_expr(ex.classical_position, ex.classical_momentum))
    for t in (0.0, 0.6, -1.0):
        assert eval_expr(pb, binds(q=0.9, p=1.2, t=t)).real == pytest.approx(1.0)


def test_classical_grade_one_bracket(ex):
    # hbar^2 coefficient of the deformed bracket of the classical pair
    g1 = Program(bracket_2n_expr(ex.classical_position, ex.classical_momentum, 1))
    for t in (0.3, 1.0, -0.7):
        got = eval_expr(g1, binds(q=1.1, p=0.6, t=t)).real
        assert got == pytest.approx(-t * t / 8.0, abs=1e-12)


def test_validity_bound_value(ex):
    assert ex.deformed_position.t_bound(1.0, 1.0, 0.1) == pytest.approx(20 * math.pi)
    assert ex.smoothing_plus.t_bound(1.0, 1.0, 0.1) == pytest.approx(40 * math.pi)


def test_validity_guard_raises(ex):
    with pytest.raises(ValidityError):
        ex.deformed_position.eval(binds(t=70.0))
    # interior points evaluate fine
    ex.deformed_position.eval(binds(t=60.0))


def test_smoothing_pair_multiplies_to_identity_exponent(ex):
    # the two half-angle factors are reciprocal up to the secant prefactor
    b = binds(t=0.8)
    plus = ex.smoothing_plus.eval(b)
    minus = ex.smoothing_minus.eval(b)
    sec2 = 1.0 / math.cos(0.1 * 0.8 / 8.0) ** 2
    assert (plus * minus).real == pytest.approx(sec2 * sec2, rel=1e-12)


def test_inverse_maps_undo_deformed_flow(ex):
    inverse = Program([ex.inverse_position, ex.inverse_momentum])
    for q0, p0, t in [(1.0, 1.0, 0.9), (0.6, -1.1, 0.4), (-0.8, 0.5, -1.2)]:
        b = binds(q=q0, p=p0, t=t)
        qm = ex.deformed_position.eval(b).real
        pm = ex.deformed_momentum.eval(b).real
        q_back, p_back = eval_expr(inverse, dict(b, q=qm, p=pm))
        assert q_back.real == pytest.approx(q0, rel=1e-10)
        assert p_back.real == pytest.approx(p0, rel=1e-10)


def test_evolved_product_is_constant_of_motion(ex):
    product = Program(ex.evolved_product)
    for t in (0.2, 0.9, -0.6):
        b = binds(q=1.2, p=0.7, t=t)
        qm = ex.deformed_position.eval(b).real
        pm = ex.deformed_momentum.eval(b).real
        got = eval_expr(product, dict(b, q=qm, p=pm))
        want = complex(1.2 * 0.7, 0.05)
        assert abs(got - want) < 1e-12


def test_evolved_product_differs_from_coordinate_image(ex):
    b = binds(t=1.0)
    qm = ex.deformed_position.eval(b).real
    pm = ex.deformed_momentum.eval(b).real
    got = eval_expr(ex.evolved_product, dict(b, q=qm, p=pm))
    coordinate_image = complex(qm * pm, 0.05)
    assert abs(got - coordinate_image) > 1e-4


def test_unitary_pair_bracket_formula():
    uq, up = builtin_unitary_pair()
    pb = Program(poisson_expr(uq, up))
    for p0 in (0.05, 0.1, 0.2):
        b = {"q": 0.3, "p": p0, "beta": 1.0, "gamma": 1.0, "hbar": 1.0}
        want = 1.0 + 2.0 * math.pi * math.cosh(2.0 * math.pi * p0)
        assert eval_expr(pb, b).real == pytest.approx(want, rel=1e-12)


def test_unitary_pair_free_symbols():
    uq, up = builtin_unitary_pair()
    assert free_symbols(uq) == frozenset({"q", "beta"})
    assert free_symbols(up) == frozenset({"q", "p", "beta", "gamma", "hbar"})
