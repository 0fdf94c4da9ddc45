from fractions import Fraction

import pytest

from moyal.expr import ZERO, parse_expr
from moyal.flow import FlowBlowupError, HamiltonianSpec
from moyal.poly import PhasePolynomial, format_poly, poisson_bracket
from moyal.semiclassical import (
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
    with pytest.raises(ValueError):
        iterated_brackets(mono(1, 0, 0, 1), 3, "q")


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
    assert reps["q"].difference.is_zero


def test_quartic_divergence_scales_with_parameters():
    # difference carries lambda^2 / m^(order-dependent power)
    reps = divergence_order(quartic(m=2, omega=1, lam=3), 6)
    assert reps["p"].difference == mono(Fraction(-9, 4) / 8, 1, 0, 2)
    assert reps["q"].difference == mono(Fraction(-9, 4) / 16, 1, 0, 2)


# -- Taylor flows -------------------------------------------------------


def test_taylor_flow_evaluate():
    h = squeeze()
    fl = taylor_flow(h, 4, "classical", "q")
    assert fl.coeffs[0] == mono(1, 1, 0)
    # classical series of q e^{qpt/2} at (1,1): sum (t/2)^n / n!
    t = 0.3
    got = fl.evaluate(1.0, 1.0, 0.1, t).real
    want = sum((t / 2) ** n / [1, 1, 2, 6, 24][n] for n in range(5))
    assert got == pytest.approx(want, rel=1e-12)


def test_taylor_flow_kind_validation():
    with pytest.raises(ValueError):
        taylor_flow(squeeze(), 3, "quantum", "q")


def test_squeeze_hbar2_grades():
    grades = taylor_flow(squeeze(), 3, "deformed", "q").hbar2_grade_series()
    assert grades[0].is_zero
    assert grades[1].is_zero
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
    assert res.method == "ode"
    assert res.times == (0.2,)
    assert res.q2[0] == pytest.approx(closed_form_q2(1.0, 1.0, 0.2), rel=1e-9)


def test_hbar2_transport_against_closed_form(squeeze_ham):
    res = hbar2_transport(squeeze_ham, (1.0, 1.0), 0.2)
    assert res.method == "transport"
    assert res.q2[0] == pytest.approx(closed_form_q2(1.0, 1.0, 0.2), rel=1e-9)


def test_hbar2_ode_multiple_times(squeeze_ham):
    res = hbar2_ode(squeeze_ham, (1.0, 1.0), 0.2, times=[0.1, 0.2])
    assert res.times == (0.1, 0.2)
    assert res.q2[0] == pytest.approx(closed_form_q2(1.0, 1.0, 0.1), rel=1e-9)


def test_hbar2_ode_unsorted_times_get_their_own_values(squeeze_ham):
    res = hbar2_ode(squeeze_ham, (1.0, 1.0), 0.2, times=[0.0, 0.2, 0.1])
    assert res.times == (0.0, 0.2, 0.1)
    assert (res.q2[0], res.p2[0]) == (0.0, 0.0)
    sorted_run = hbar2_ode(squeeze_ham, (1.0, 1.0), 0.2, times=[0.1, 0.2])
    assert res.q2[1:] == sorted_run.q2[::-1]
    assert res.p2[1:] == sorted_run.p2[::-1]
    assert res.q2[1] != res.q2[2]


def test_hbar2_ode_blowup_raises():
    ham = HamiltonianSpec(parse_expr("q^2*p"))
    with pytest.raises(FlowBlowupError) as err:
        hbar2_ode(ham, (1.0, 1.0), 2.0)
    assert 0.9 < err.value.time < 1.1


def test_hbar2_ode_rejects_off_grid_times(squeeze_ham):
    with pytest.raises(ValueError):
        hbar2_ode(squeeze_ham, (1.0, 1.0), 0.2, times=[0.1234567])


def test_hbar2_csv_layout(squeeze_ham):
    res = hbar2_ode(squeeze_ham, (1.0, 1.0), 0.1)
    lines = res.to_csv().splitlines()
    assert lines[0] == "t,Q2,P2,method"
    assert lines[1].endswith(",ode")
    assert len(lines) == 2


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
