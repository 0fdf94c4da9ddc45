import math

import pytest

from moyal.expr import ExprDomainError, parse_expr
from moyal.jets import (
    MONOMIALS,
    TruncatedJet,
    eval_expr_jet,
    jet_function_derivatives,
)


def seed_pair(order, q, p):
    return (
        TruncatedJet.seed(q, 0, order),
        TruncatedJet.seed(p, 1, order),
    )


def test_monomial_tables():
    assert MONOMIALS[1] == [(0, 0), (1, 0), (0, 1)]
    assert MONOMIALS[2] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(MONOMIALS[3]) == 10


def test_seed_value_and_first_derivatives():
    jq, jp = seed_pair(2, 1.5, -0.5)
    assert jq.value == 1.5
    assert jq.derivative(1, 0) == 1.0
    assert jq.derivative(0, 1) == 0.0
    assert jp.derivative(0, 1) == 1.0
    assert jp.derivative(2, 0) == 0.0


def test_product_derivatives():
    jq, jp = seed_pair(2, 2.0, 3.0)
    prod = jq * jp
    assert prod.value == 6.0
    assert prod.derivative(1, 0) == 3.0
    assert prod.derivative(0, 1) == 2.0
    assert prod.derivative(1, 1) == 1.0
    assert prod.derivative(2, 0) == 0.0


def test_square_restores_factorial():
    jq, _ = seed_pair(2, 4.0, 0.0)
    sq = jq * jq
    # d^2/dq^2 q^2 = 2, stored Taylor coefficient is 1
    assert sq.derivative(2, 0) == 2.0


def test_compose_sin():
    jq, jp = seed_pair(3, 0.7, 0.2)
    arg = jq * jp
    derivs = jet_function_derivatives("sin", arg.value)
    out = arg.compose(derivs)
    assert out.value == pytest.approx(math.sin(0.14))
    # d/dq sin(qp) = p cos(qp)
    assert out.derivative(1, 0) == pytest.approx(0.2 * math.cos(0.14))
    # d^2/dqdp = cos(qp) - qp sin(qp)
    want = math.cos(0.14) - 0.14 * math.sin(0.14)
    assert out.derivative(1, 1) == pytest.approx(want)


def test_function_derivative_quadruples():
    u = 0.3
    s, t = 1.0 / math.cos(u), math.tan(u)
    ds = jet_function_derivatives("sec", u)
    assert ds[0] == pytest.approx(s)
    assert ds[1] == pytest.approx(s * t)
    assert ds[2] == pytest.approx(s * t * t + s**3)
    assert ds[3] == pytest.approx(s * t**3 + 5 * s**3 * t)
    dt = jet_function_derivatives("tan", u)
    assert dt[0] == pytest.approx(t)
    assert dt[1] == pytest.approx(1 + t * t)
    assert dt[2] == pytest.approx(2 * t * (1 + t * t))
    assert dt[3] == pytest.approx(2 * (1 + t * t) * (1 + 3 * t * t))


def test_eval_expr_jet_matches_finite_differences():
    e = parse_expr("q^2*exp(q*p)/2 + sin(p)")
    q0, p0 = 0.8, -0.4

    def f(q, p):
        return 0.5 * q * q * math.exp(q * p) + math.sin(p)

    jq, jp = seed_pair(3, q0, p0)
    jet = eval_expr_jet(e, {"q": jq, "p": jp}, 3)
    assert jet.value == pytest.approx(f(q0, p0))
    h = 1e-5
    fd_q = (f(q0 + h, p0) - f(q0 - h, p0)) / (2 * h)
    assert jet.derivative(1, 0) == pytest.approx(fd_q, rel=1e-8)
    h = 1e-4
    fd_qq = (f(q0 + h, p0) - 2 * f(q0, p0) + f(q0 - h, p0)) / h**2
    assert jet.derivative(2, 0) == pytest.approx(fd_qq, rel=1e-5)
    fd_qp = (
        f(q0 + h, p0 + h) - f(q0 + h, p0 - h) - f(q0 - h, p0 + h) + f(q0 - h, p0 - h)
    ) / (4 * h * h)
    assert jet.derivative(1, 1) == pytest.approx(fd_qp, rel=1e-5)


@pytest.mark.parametrize(
    "text, f",
    [
        ("q^-2*p", lambda q, p: p / (q * q)),
        ("sec(q)*p", lambda q, p: p / math.cos(q)),
    ],
)
def test_eval_expr_jet_negative_powers_match_finite_differences(text, f):
    q0, p0 = 0.7, -1.3
    jq, jp = seed_pair(3, q0, p0)
    jet = eval_expr_jet(parse_expr(text), {"q": jq, "p": jp}, 3)
    assert jet.value == pytest.approx(f(q0, p0), rel=1e-15)
    h = 1e-5
    fd_q = (f(q0 + h, p0) - f(q0 - h, p0)) / (2 * h)
    assert jet.derivative(1, 0) == pytest.approx(fd_q, rel=1e-8)
    h = 1e-4
    fd_qq = (f(q0 + h, p0) - 2 * f(q0, p0) + f(q0 - h, p0)) / h**2
    assert jet.derivative(2, 0) == pytest.approx(fd_qq, rel=1e-5)
    fd_qp = (
        f(q0 + h, p0 + h) - f(q0 + h, p0 - h) - f(q0 - h, p0 + h) + f(q0 - h, p0 - h)
    ) / (4 * h * h)
    assert jet.derivative(1, 1) == pytest.approx(fd_qp, rel=1e-5)
    h = 1e-3
    fd_qqq = (
        f(q0 + 2 * h, p0) - 2 * f(q0 + h, p0) + 2 * f(q0 - h, p0) - f(q0 - 2 * h, p0)
    ) / (2 * h**3)
    assert jet.derivative(3, 0) == pytest.approx(fd_qqq, rel=1e-4)


def test_negative_power_of_zero_jet_is_a_domain_error():
    jq, jp = seed_pair(2, 0.0, 1.0)
    with pytest.raises(ExprDomainError):
        eval_expr_jet(parse_expr("q^-1"), {"q": jq, "p": jp}, 2)


def test_eval_expr_jet_handles_zero_base_power():
    # 0^k coefficients must not divide by zero internally
    e = parse_expr("q^3")
    jq, jp = seed_pair(3, 0.0, 1.0)
    jet = eval_expr_jet(e, {"q": jq, "p": jp}, 3)
    assert jet.value == 0.0
    assert jet.derivative(3, 0) == pytest.approx(6.0)


def test_constant_jet():
    c = TruncatedJet.constant(5.0, 2)
    assert c.value == 5.0
    assert c.derivative(1, 0) == 0.0


def test_order_validation():
    with pytest.raises(ValueError):
        TruncatedJet.seed(0.0, 0, 4)
    with pytest.raises(ValueError):
        TruncatedJet.seed(0.0, 0, 0)
    with pytest.raises(ValueError):
        TruncatedJet.seed(0.0, 2, 1)


def test_mixed_order_arithmetic_rejected():
    a = TruncatedJet.seed(1.0, 0, 2)
    b = TruncatedJet.seed(1.0, 0, 3)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + b
