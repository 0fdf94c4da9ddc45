import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expr_walk import outcome, plus, product, scale
from moyal import jets
from moyal.expr import ComplexEmitter, ExprDomainError, FloatEmitter, Program, parse_expr
from moyal.flow import HamiltonianSpec
from moyal.jets import (
    MONOMIALS,
    TruncatedJet,
    eval_expr_jet,
    invert,
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


def run(text, jq, jp):
    """eval_expr_jet of ``text`` with q and p bound to the jets."""
    return eval_expr_jet(parse_expr(text), {"q": jq, "p": jp}, jq.order)


def test_product_derivatives():
    jq, jp = seed_pair(2, 2.0, 3.0)
    prod = run("q*p", jq, jp)
    assert prod.value == 6.0
    assert prod.derivative(1, 0) == 3.0
    assert prod.derivative(0, 1) == 2.0
    assert prod.derivative(1, 1) == 1.0
    assert prod.derivative(2, 0) == 0.0


def test_square_restores_factorial():
    jq, jp = seed_pair(2, 4.0, 0.0)
    sq = run("q*q", jq, jp)
    # d^2/dq^2 q^2 = 2, stored Taylor coefficient is 1
    assert sq.derivative(2, 0) == 2.0


def test_compose_sin():
    jq, jp = seed_pair(3, 0.7, 0.2)
    out = run("sin(q*p)", jq, jp)
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


_JET_FREE = {"3": 3.0, "2*m": 2.6, "pi": math.pi, "cosh(m)": math.cosh(1.3)}


@pytest.mark.parametrize("order", [1, 2, 3])
def test_jet_free_roots_come_back_as_constant_jets(order):
    jq, jp = seed_pair(order, 0.9, 0.4)
    b = {"q": jq, "p": jp, "m": 1.3}
    zeros = [0.0] * (len(MONOMIALS[order]) - 1)
    for text, value in _JET_FREE.items():
        got = eval_expr_jet(parse_expr(text), b, order)
        assert type(got) is TruncatedJet
        assert (got.order, got.c) == (order, [value, *zeros])
    # mixed with roots that do depend on the jets, in one tape
    got = eval_expr_jet(Program([parse_expr(t) for t in ("q*p", *_JET_FREE, "m*q")]), b, order)
    assert [j.order for j in got] == [order] * (len(_JET_FREE) + 2)
    assert [j.c for j in got[1:-1]] == [[v, *zeros] for v in _JET_FREE.values()]
    assert got[0].c == product(order, jq.c, jp.c)
    assert got[-1].c == scale(1.3, jq.c)


@pytest.mark.parametrize("fn", ["sec", "tan"])
def test_a_parameter_at_a_pole_is_refused_by_name(fn):
    jq, jp = seed_pair(2, 0.9, 0.4)
    with pytest.raises(ExprDomainError, match=f"^{fn} evaluated too close to an odd multiple of pi/2"):
        eval_expr_jet(parse_expr(f"q*{fn}(m)"), {"q": jq, "p": jp, "m": math.pi / 2}, 2)


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
    for order in (0, 4):
        with pytest.raises(ValueError, match="jet order must be 1, 2 or 3"):
            eval_expr_jet(parse_expr("3"), {}, order)


def test_a_bound_jet_of_another_order_is_refused():
    with pytest.raises(ValueError, match="^jet orders differ$"):
        eval_expr_jet(parse_expr("q"), {"q": TruncatedJet.seed(0.9, 0, 2)}, 3)
    with pytest.raises(ValueError, match="^jet orders differ$"):
        eval_expr_jet(parse_expr("m*p"), {"p": TruncatedJet.seed(0.9, 1, 3), "m": 2.0}, 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_low_powers_are_repeated_products(n):
    for order in (1, 2, 3):
        jq, jp = seed_pair(order, 0.7, -1.3)
        u = plus(product(order, jq.c, jp.c), jq.c)
        want = u
        for _ in range(n - 1):
            want = product(order, want, u)
        assert eval_expr_jet(parse_expr(f"m^{n}"), {"m": TruncatedJet(order, u)}, order).c == want


@pytest.mark.parametrize("n", [5, 7, 64])
def test_high_powers_match_finite_differences(n):
    q0, p0 = 0.9, -0.4

    def f(q, p):
        return (q * (1.0 + 0.25 * p)) ** n

    jq, jp = seed_pair(3, q0, p0)
    jet = run(f"(q*(1 + p/4))^{n}", jq, jp)
    scale = abs(f(q0, p0))
    assert jet.value == pytest.approx(f(q0, p0), rel=1e-14)
    h = 1e-5
    fd_q = (f(q0 + h, p0) - f(q0 - h, p0)) / (2 * h)
    assert jet.derivative(1, 0) == pytest.approx(fd_q, rel=1e-7)
    fd_p = (f(q0, p0 + h) - f(q0, p0 - h)) / (2 * h)
    assert jet.derivative(0, 1) == pytest.approx(fd_p, rel=1e-7, abs=1e-9 * scale)
    h = 1e-4
    fd_qp = (
        f(q0 + h, p0 + h) - f(q0 + h, p0 - h) - f(q0 - h, p0 + h) + f(q0 - h, p0 - h)
    ) / (4 * h * h)
    assert jet.derivative(1, 1) == pytest.approx(fd_qp, rel=1e-5)
    # the truncation error of the third difference grows like n^2 h^2
    h = 1e-2 / n
    fd_qqq = (
        f(q0 + 2 * h, p0) - 2 * f(q0 + h, p0) + 2 * f(q0 - h, p0) - f(q0 - 2 * h, p0)
    ) / (2 * h**3)
    assert jet.derivative(3, 0) == pytest.approx(fd_qqq, rel=1e-4)


def test_high_power_of_a_zero_jet():
    jq, jp = seed_pair(3, 0.0, 1.0)
    assert run("q^9", jq, jp).c == [0.0] * len(MONOMIALS[3])
    with pytest.raises(ExprDomainError, match="^zero raised to a negative power$"):
        run("q^-7", jq, jp)


def apply_map(g, dq, dp):
    """The polynomial with g's Taylor coefficients, evaluated at jets (dq, dp)."""
    order = g.order
    out = [0.0] * len(g.c)
    for k, (i, j) in enumerate(MONOMIALS[order]):
        term = TruncatedJet.constant(g.c[k], order).c
        for _ in range(i):
            term = product(order, term, dq.c)
        for _ in range(j):
            term = product(order, term, dp.c)
        out = plus(out, term)
    return out


@pytest.mark.parametrize("order", [1, 2, 3])
def test_invert_composes_to_the_identity(order):
    rng = random.Random(order)
    eq, ep = TruncatedJet.seed(0.0, 0, order), TruncatedJet.seed(0.0, 1, order)
    n = len(MONOMIALS[order])
    for _ in range(20):
        u = lambda: rng.uniform(-0.3, 0.3)
        # a well-conditioned linear part: the identity plus at most 0.3 per entry
        gq = TruncatedJet(order, [rng.uniform(-2, 2), 1.0 + u(), u()] + [rng.uniform(-1, 1) for _ in range(n - 3)])
        gp = TruncatedJet(order, [rng.uniform(-2, 2), u(), 1.0 + u()] + [rng.uniform(-1, 1) for _ in range(n - 3)])
        dq, dp = invert(gq, gp)
        assert dq.value == dp.value == 0.0
        for g, e in ((gq, eq), (gp, ep)):
            got = apply_map(g, dq, dp)
            got[0] -= g.value
            assert max(abs(x - y) for x, y in zip(got, e.c)) < 1e-13


def reference_invert(gq, gp):
    """The sweeps of :func:`invert`, transcribed over the test arithmetic:
    d <- L^-1 (e - N(d)), with L^-1 as two scales and a difference."""
    order, n = gq.order, len(gq.c)
    (a, b), (c, d) = gq.c[1:3], gp.c[1:3]
    det = a * d - b * c
    one, eq, ep = ([1.0 if m == k else 0.0 for m in range(n)] for k in range(3))
    minus = lambda x, y: [u - v for u, v in zip(x, y)]

    def solve(rq, rp):
        return (
            minus(scale(d / det, rq), scale(b / det, rp)),
            minus(scale(a / det, rp), scale(c / det, rq)),
        )

    dq, dp = solve(eq, ep)
    for _ in range(order - 1):
        pq, pp = [one, dq], [one, dp]
        for _n in range(2, order + 1):
            pq.append(product(order, pq[-1], dq))
            pp.append(product(order, pp[-1], dp))
        terms = [(k, product(order, pq[i], pp[j])) for k, (i, j) in enumerate(MONOMIALS[order]) if i + j >= 2]
        nq = np_ = [0.0] * n
        for k, t in terms:
            nq = plus(nq, scale(gq.c[k], t))
            np_ = plus(np_, scale(gp.c[k], t))
        dq, dp = solve(minus(eq, nq), minus(ep, np_))
    return TruncatedJet(order, dq), TruncatedJet(order, dp)


coefficients = st.one_of(st.floats(-3, 3), st.sampled_from((0.0, -0.0, 1.0, -1.0)))


@pytest.mark.parametrize("order", [1, 2, 3])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_invert_matches_the_sweep_bit_for_bit(order, data):
    n = len(MONOMIALS[order])
    gq, gp = (TruncatedJet(order, data.draw(st.lists(coefficients, min_size=n, max_size=n))) for _ in range(2))
    (a, b), (c, d) = gq.c[1:3], gp.c[1:3]
    assume(a * d - b * c != 0.0)
    assert outcome(lambda: invert(gq, gp)) == outcome(lambda: reference_invert(gq, gp))


@pytest.fixture
def generated(monkeypatch):
    """Source text of every function generated while the test runs, with
    the per-order inverse code forgotten first."""
    sources = []
    function = FloatEmitter.function

    def recorded(self, roots, single):
        sources.append("\n".join(self.lines))
        return function(self, roots, single)

    monkeypatch.setattr(FloatEmitter, "function", recorded)
    jets._inverse.cache_clear()
    return sources


def test_invert_code_is_generated_once_per_order_on_first_use(generated):
    h = parse_expr("p^2/2 + q^4/4 + sec(q)")
    Program(h).kernel(complex, ComplexEmitter)
    HamiltonianSpec(h)
    # building a spec generates one function: the realness probe's complex run of H
    assert len(generated) == 2 and generated[1] == generated[0]
    generated.clear()
    for order in (1, 2, 3):
        gq, gp = seed_pair(order, 0.3, -0.2)
        gq.c[-1] = 0.5
        first = outcome(lambda: invert(gq, gp))
        assert len(generated) == order
        assert outcome(lambda: invert(gq, gp)) == first
        assert len(generated) == order


def test_invert_refuses_a_singular_linear_part(generated):
    gq = TruncatedJet(3, [0.5, 1.0, 2.0] + [0.1] * 7)
    gp = TruncatedJet(3, [0.2, 2.0, 4.0] + [0.3] * 7)
    with pytest.raises(ValueError, match="^the jet's linear part is singular$"):
        invert(gq, gp)
    # refused before any sweep: no code was generated for it
    assert generated == []


def test_invert_refuses_mixed_orders():
    with pytest.raises(ValueError, match="^jet orders differ$"):
        invert(TruncatedJet.seed(0.0, 0, 2), TruncatedJet.seed(0.0, 1, 3))
