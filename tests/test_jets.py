import functools
import math
import operator
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expr_walk import outcome, plus, product, reference_invert, scale
from moyal import jets
from moyal.expr import FUNCTION_NAMES, ComplexEmitter, ExprDomainError, FloatEmitter, Program, eval_real, parse_expr
from moyal.flow import HamiltonianSpec
from moyal.jets import (
    MONOMIALS,
    PARTIALS,
    derivative,
    eval_expr_jet,
    invert,
    jet_order,
    seed,
)


def seed_pair(order, q, p):
    return seed(q, 0, order), seed(p, 1, order)


def test_monomial_tables():
    assert MONOMIALS[1] == [(0, 0), (1, 0), (0, 1)]
    assert MONOMIALS[2] == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(MONOMIALS[3]) == 10


def test_partials_table_agrees_with_derivative():
    # every order, degree and coefficient, on seeded random jets
    rng = random.Random(7)
    for order, monos in MONOMIALS.items():
        assert [len(row) for row in PARTIALS[order]] == list(range(1, order + 2))
        assert sorted(i for row in PARTIALS[order] for i, _ in row) == list(range(len(monos)))
        for _ in range(20):
            c = [rng.uniform(-2.0, 2.0) for _ in monos]
            for n, row in enumerate(PARTIALS[order]):
                assert [c[i] * f for i, f in row] == [derivative(c, n - b, b) for b in range(n + 1)]


def test_seed_value_and_first_derivatives():
    jq, jp = seed_pair(2, 1.5, -0.5)
    assert jq[0] == 1.5
    assert derivative(jq, 1, 0) == 1.0
    assert derivative(jq, 0, 1) == 0.0
    assert derivative(jp, 0, 1) == 1.0
    assert derivative(jp, 2, 0) == 0.0


def run(text, jq, jp):
    """eval_expr_jet of ``text`` with q and p bound to the jets."""
    return eval_expr_jet(parse_expr(text), {"q": jq, "p": jp}, jet_order(jq))


def test_product_derivatives():
    jq, jp = seed_pair(2, 2.0, 3.0)
    prod = run("q*p", jq, jp)
    assert prod[0] == 6.0
    assert derivative(prod, 1, 0) == 3.0
    assert derivative(prod, 0, 1) == 2.0
    assert derivative(prod, 1, 1) == 1.0
    assert derivative(prod, 2, 0) == 0.0


def test_square_restores_factorial():
    jq, jp = seed_pair(2, 4.0, 0.0)
    sq = run("q*q", jq, jp)
    # d^2/dq^2 q^2 = 2, stored Taylor coefficient is 1
    assert derivative(sq, 2, 0) == 2.0


def test_compose_sin():
    jq, jp = seed_pair(3, 0.7, 0.2)
    out = run("sin(q*p)", jq, jp)
    assert out[0] == pytest.approx(math.sin(0.14))
    # d/dq sin(qp) = p cos(qp)
    assert derivative(out, 1, 0) == pytest.approx(0.2 * math.cos(0.14))
    # d^2/dqdp = cos(qp) - qp sin(qp)
    want = math.cos(0.14) - 0.14 * math.sin(0.14)
    assert derivative(out, 1, 1) == pytest.approx(want)


def test_function_derivative_quadruples():
    u = 0.3
    s, t = 1.0 / math.cos(u), math.tan(u)
    ds = jets._derivatives("sec", 3)(u)
    assert ds[0] == pytest.approx(s)
    assert ds[1] == pytest.approx(s * t)
    assert ds[2] == pytest.approx(s * t * t + s**3)
    assert ds[3] == pytest.approx(s * t**3 + 5 * s**3 * t)
    dt = jets._derivatives("tan", 3)(u)
    assert dt[0] == pytest.approx(t)
    assert dt[1] == pytest.approx(1 + t * t)
    assert dt[2] == pytest.approx(2 * t * (1 + t * t))
    assert dt[3] == pytest.approx(2 * (1 + t * t) * (1 + 3 * t * t))


# weights of the central differences of orders 0 to 3, by offset in steps
_STENCILS = {0: {0: 1.0}, 1: {1: 0.5, -1: -0.5}, 2: {1: 1.0, 0: -2.0, -1: 1.0}, 3: {2: 0.5, 1: -1.0, -1: 1.0, -2: -0.5}}
# step and relative tolerance of the differences, by total order
_FD = {1: (1e-5, 1e-8), 2: (1e-4, 1e-5), 3: (1e-3, 1e-4)}


def central_difference(f, q0, p0, a, b, h):
    """d^{a+b} f / dq^a dp^b at (q0, p0), by the product of the central
    differences in q and in p with step h."""
    return sum(
        wi * wj * f(q0 + i * h, p0 + j * h) for i, wi in _STENCILS[a].items() for j, wj in _STENCILS[b].items()
    ) / h ** (a + b)


# every function, and two powers outside 2 to 4, of a linear argument near 1;
# the truncation error of a difference of x^64 grows like 64^2 h^2 and its
# rounding error like 64 eps / h^k, so its steps are 8 times shorter
@pytest.mark.parametrize(
    "text, shorter",
    [(f"{fn}(3*q/5 - 7*p/20)", 1) for fn in FUNCTION_NAMES]
    + [("(3*q/5 - 7*p/20)^-2", 1), ("(3*q/5 - 7*p/20)^64", 8)],
)
def test_calls_and_powers_match_finite_differences(text, shorter):
    program = Program(parse_expr(text))
    q0, p0 = 1.9, 0.4

    def f(q, p):
        return eval_real(program, {"q": q, "p": p})

    for order in (1, 2, 3):
        jet = eval_expr_jet(program, dict(zip("qp", seed_pair(order, q0, p0))), order)
        assert jet[0] == f(q0, p0)
        for a, b in MONOMIALS[order][1:]:
            h, rel = _FD[a + b]
            want = central_difference(f, q0, p0, a, b, h / shorter)
            assert derivative(jet, a, b) == pytest.approx(want, rel=rel), (order, a, b)


@pytest.fixture
def derivative_code(monkeypatch):
    """Source text of every derivative function (``jets._derivatives``)
    generated while the test runs, with the cached ones forgotten first."""
    sources = []
    function = FloatEmitter.function

    def recorded(self, roots, single):
        sources.append("\n".join(self.lines))
        return function(self, roots, single)

    monkeypatch.setattr(jets._ArgEmitter, "function", recorded)
    jets._derivatives.cache_clear()
    return sources


def test_derivative_code_is_generated_once_per_function_and_order(derivative_code):
    # both fields call sin, exp, sinh and cos and take powers 6 and -3 of q
    first = HamiltonianSpec(parse_expr("p^2/2 + cosh(q)/4 + sin(q)*exp(p) + q^7/50 + q^-2/10"))
    second = HamiltonianSpec(parse_expr("p^2/3 + 2*cosh(q) + sin(q)*exp(p)/5 + q^7 - q^-2"))
    for order in (1, 2, 3):
        first.field_jets(sum(seed_pair(order, 0.8, 0.3), []))
    assert len(derivative_code) == jets._derivatives.cache_info().currsize == 6 * 3
    for order in (1, 2, 3):
        first.field_jets(sum(seed_pair(order, -0.5, 1.1), []))
        second.field_jets(sum(seed_pair(order, 0.8, 0.3), []))
    assert len(derivative_code) == 6 * 3


def test_eval_expr_jet_matches_finite_differences():
    e = parse_expr("q^2*exp(q*p)/2 + sin(p)")
    q0, p0 = 0.8, -0.4

    def f(q, p):
        return 0.5 * q * q * math.exp(q * p) + math.sin(p)

    jq, jp = seed_pair(3, q0, p0)
    jet = eval_expr_jet(e, {"q": jq, "p": jp}, 3)
    assert jet[0] == pytest.approx(f(q0, p0))
    h = 1e-5
    fd_q = (f(q0 + h, p0) - f(q0 - h, p0)) / (2 * h)
    assert derivative(jet, 1, 0) == pytest.approx(fd_q, rel=1e-8)
    h = 1e-4
    fd_qq = (f(q0 + h, p0) - 2 * f(q0, p0) + f(q0 - h, p0)) / h**2
    assert derivative(jet, 2, 0) == pytest.approx(fd_qq, rel=1e-5)
    fd_qp = (
        f(q0 + h, p0 + h) - f(q0 + h, p0 - h) - f(q0 - h, p0 + h) + f(q0 - h, p0 - h)
    ) / (4 * h * h)
    assert derivative(jet, 1, 1) == pytest.approx(fd_qp, rel=1e-5)


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
    assert jet[0] == pytest.approx(f(q0, p0), rel=1e-15)
    h = 1e-5
    fd_q = (f(q0 + h, p0) - f(q0 - h, p0)) / (2 * h)
    assert derivative(jet, 1, 0) == pytest.approx(fd_q, rel=1e-8)
    h = 1e-4
    fd_qq = (f(q0 + h, p0) - 2 * f(q0, p0) + f(q0 - h, p0)) / h**2
    assert derivative(jet, 2, 0) == pytest.approx(fd_qq, rel=1e-5)
    fd_qp = (
        f(q0 + h, p0 + h) - f(q0 + h, p0 - h) - f(q0 - h, p0 + h) + f(q0 - h, p0 - h)
    ) / (4 * h * h)
    assert derivative(jet, 1, 1) == pytest.approx(fd_qp, rel=1e-5)
    h = 1e-3
    fd_qqq = (
        f(q0 + 2 * h, p0) - 2 * f(q0 + h, p0) + 2 * f(q0 - h, p0) - f(q0 - 2 * h, p0)
    ) / (2 * h**3)
    assert derivative(jet, 3, 0) == pytest.approx(fd_qqq, rel=1e-4)


def test_negative_power_of_zero_jet_is_a_domain_error():
    jq, jp = seed_pair(2, 0.0, 1.0)
    with pytest.raises(ExprDomainError):
        eval_expr_jet(parse_expr("q^-1"), {"q": jq, "p": jp}, 2)


def test_eval_expr_jet_handles_zero_base_power():
    # 0^k coefficients must not divide by zero internally
    e = parse_expr("q^3")
    jq, jp = seed_pair(3, 0.0, 1.0)
    jet = eval_expr_jet(e, {"q": jq, "p": jp}, 3)
    assert jet[0] == 0.0
    assert derivative(jet, 3, 0) == pytest.approx(6.0)


_JET_FREE = {"3": 3.0, "2*m": 2.6, "pi": math.pi, "cosh(m)": math.cosh(1.3)}


@pytest.mark.parametrize("order", [1, 2, 3])
def test_jet_free_roots_come_back_as_constant_jets(order):
    jq, jp = seed_pair(order, 0.9, 0.4)
    b = {"q": jq, "p": jp, "m": 1.3}
    zeros = [0.0] * (len(MONOMIALS[order]) - 1)
    for text, value in _JET_FREE.items():
        got = eval_expr_jet(parse_expr(text), b, order)
        assert got == [value, *zeros] and type(got[0]) is float
    # mixed with roots that do depend on the jets, in one tape
    got = eval_expr_jet(Program([parse_expr(t) for t in ("q*p", *_JET_FREE, "m*q")]), b, order)
    assert got[1:-1] == [[v, *zeros] for v in _JET_FREE.values()]
    assert got[0] == product(order, jq, jp)
    assert got[-1] == scale(1.3, jq)


@pytest.mark.parametrize("fn", ["sec", "tan"])
def test_a_parameter_at_a_pole_is_refused_by_name(fn):
    jq, jp = seed_pair(2, 0.9, 0.4)
    with pytest.raises(ExprDomainError, match=f"^{fn} evaluated too close to an odd multiple of pi/2"):
        eval_expr_jet(parse_expr(f"q*{fn}(m)"), {"q": jq, "p": jp, "m": math.pi / 2}, 2)


def test_constant_jet():
    c = eval_expr_jet(parse_expr("5"), {}, 2)
    assert c[0] == 5.0
    assert derivative(c, 1, 0) == 0.0
    assert derivative(c, 0, 2) == 0.0


def test_order_validation():
    with pytest.raises(ValueError, match="^jet order must be 1, 2 or 3$"):
        seed(0.0, 0, 4)
    with pytest.raises(ValueError, match="^jet order must be 1, 2 or 3$"):
        seed(0.0, 0, 0)
    with pytest.raises(ValueError, match="^seed direction must be 0 or 1$"):
        seed(0.0, 2, 1)
    for order in (0, 4):
        with pytest.raises(ValueError, match="jet order must be 1, 2 or 3"):
            eval_expr_jet(parse_expr("3"), {}, order)
    # the order is read from the number of coefficients
    assert [jet_order(seed(0.0, 0, order)) for order in (1, 2, 3)] == [1, 2, 3]
    with pytest.raises(ValueError, match="^a jet has 3, 6 or 10 coefficients, not 4$"):
        jet_order([0.0] * 4)
    with pytest.raises(ValueError, match=r"^derivative \(2,0\) beyond jet order 1$"):
        derivative(seed(0.0, 0, 1), 2, 0)
    assert derivative([0.0] * 9 + [0.5], 0, 3) == 3.0


def test_a_bound_jet_of_another_order_is_refused():
    with pytest.raises(ValueError, match="^jet orders differ$"):
        eval_expr_jet(parse_expr("q"), {"q": seed(0.9, 0, 2)}, 3)
    with pytest.raises(ValueError, match="^jet orders differ$"):
        eval_expr_jet(parse_expr("m*p"), {"p": seed(0.9, 1, 3), "m": 2.0}, 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_low_powers_are_repeated_products(n):
    for order in (1, 2, 3):
        jq, jp = seed_pair(order, 0.7, -1.3)
        u = plus(product(order, jq, jp), jq)
        want = u
        for _ in range(n - 1):
            want = product(order, want, u)
        assert eval_expr_jet(parse_expr(f"m^{n}"), {"m": u}, order) == want


@pytest.mark.parametrize("n", [5, 7, 64])
def test_high_powers_match_finite_differences(n):
    q0, p0 = 0.9, -0.4

    def f(q, p):
        return (q * (1.0 + 0.25 * p)) ** n

    jq, jp = seed_pair(3, q0, p0)
    jet = run(f"(q*(1 + p/4))^{n}", jq, jp)
    scale = abs(f(q0, p0))
    assert jet[0] == pytest.approx(f(q0, p0), rel=1e-14)
    h = 1e-5
    fd_q = (f(q0 + h, p0) - f(q0 - h, p0)) / (2 * h)
    assert derivative(jet, 1, 0) == pytest.approx(fd_q, rel=1e-7)
    fd_p = (f(q0, p0 + h) - f(q0, p0 - h)) / (2 * h)
    assert derivative(jet, 0, 1) == pytest.approx(fd_p, rel=1e-7, abs=1e-9 * scale)
    h = 1e-4
    fd_qp = (
        f(q0 + h, p0 + h) - f(q0 + h, p0 - h) - f(q0 - h, p0 + h) + f(q0 - h, p0 - h)
    ) / (4 * h * h)
    assert derivative(jet, 1, 1) == pytest.approx(fd_qp, rel=1e-5)
    # the truncation error of the third difference grows like n^2 h^2
    h = 1e-2 / n
    fd_qqq = (
        f(q0 + 2 * h, p0) - 2 * f(q0 + h, p0) + 2 * f(q0 - h, p0) - f(q0 - 2 * h, p0)
    ) / (2 * h**3)
    assert derivative(jet, 3, 0) == pytest.approx(fd_qqq, rel=1e-4)


def test_high_power_of_a_zero_jet():
    jq, jp = seed_pair(3, 0.0, 1.0)
    assert run("q^9", jq, jp) == [0.0] * len(MONOMIALS[3])
    with pytest.raises(ExprDomainError, match="^zero raised to a negative power$"):
        run("q^-7", jq, jp)


def apply_map(g, dq, dp):
    """The polynomial with g's Taylor coefficients, evaluated at jets (dq, dp)."""
    order = jet_order(g)
    out = [0.0] * len(g)
    for k, (i, j) in enumerate(MONOMIALS[order]):
        term = [g[k]] + [0.0] * (len(g) - 1)
        for _ in range(i):
            term = product(order, term, dq)
        for _ in range(j):
            term = product(order, term, dp)
        out = plus(out, term)
    return out


@pytest.mark.parametrize("order", [1, 2, 3])
def test_invert_composes_to_the_identity(order):
    rng = random.Random(order)
    eq, ep = seed(0.0, 0, order), seed(0.0, 1, order)
    n = len(MONOMIALS[order])
    for _ in range(20):
        u = lambda: rng.uniform(-0.3, 0.3)
        # a well-conditioned linear part: the identity plus at most 0.3 per entry
        gq = [rng.uniform(-2, 2), 1.0 + u(), u()] + [rng.uniform(-1, 1) for _ in range(n - 3)]
        gp = [rng.uniform(-2, 2), u(), 1.0 + u()] + [rng.uniform(-1, 1) for _ in range(n - 3)]
        dq, dp = invert(gq, gp)
        assert dq[0] == dp[0] == 0.0
        for g, e in ((gq, eq), (gp, ep)):
            got = apply_map(g, dq, dp)
            got[0] -= g[0]
            assert max(abs(x - y) for x, y in zip(got, e, strict=True)) < 1e-13


def order_by_order_invert(gq, gp):
    """:func:`invert`'s rule, transcribed over floats: degree 1 of the
    inverse is L^-1, and degree n is -L^-1 times the degree-n part of N at
    the inverse below degree n.  A coefficient is a dict entry once found;
    dq^i dp^j is dq^i times dp^j, and dq^i (dp^j) is dq^(i-1) (dp^(j-1))
    times dq (dp); a product's or a sum's coefficient of degree n folds,
    from its first term, only the terms whose factors are both found, in
    the multiplication table's order, and N sums over g's monomials in
    ``MONOMIALS`` order."""
    order = jet_order(gq)
    monos = MONOMIALS[order]
    (a, b), (c, d) = gq[1:3], gp[1:3]
    det = a * d - b * c
    m = (d / det, -b / det, -c / det, a / det)
    fold = lambda terms: functools.reduce(operator.add, terms)
    dq, dp = {1: m[0], 2: m[1]}, {1: m[2], 2: m[3]}
    powers = {(1, 0): dq, (0, 1): dp}
    for n in range(2, order + 1):
        part = [k for k, (i, j) in enumerate(monos) if i + j == n]
        for i, j in monos:
            if 2 <= i + j <= n:
                x, y = ((powers[i, 0], powers[0, j]) if i and j
                        else (powers[i - 1, 0], dq) if i else (powers[0, j - 1], dp))
                got = powers.setdefault((i, j), {})
                for k in part:
                    pairs = [
                        (u, v) for u, (i1, j1) in enumerate(monos) for v, (i2, j2) in enumerate(monos)
                        if (i1 + i2, j1 + j2) == monos[k]
                    ]
                    got[k] = fold([x[u] * y[v] for u, v in pairs if u in x and v in y])
        for k in part:
            terms = [(e, powers[mono][k]) for e, mono in enumerate(monos) if 2 <= sum(mono) <= n]
            rq, rp = (fold([g[e] * t for e, t in terms]) for g in (gq, gp))
            dq[k] = -(m[0] * rq + m[1] * rp)
            dp[k] = -(m[2] * rq + m[3] * rp)
    return tuple([x.get(k, 0.0) for k in range(len(monos))] for x in (dq, dp))


coefficients = st.one_of(st.floats(-3, 3), st.sampled_from((0.0, -0.0, 1.0, -1.0)))


@pytest.mark.parametrize("order", [1, 2, 3])
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_invert_matches_the_sweep_bit_for_bit(order, data):
    # the sweep is now the order-by-order rule; reference_invert is the
    # fixed-point sweep, kept as the oracle below
    n = len(MONOMIALS[order])
    gq, gp = (data.draw(st.lists(coefficients, min_size=n, max_size=n)) for _ in range(2))
    (a, b), (c, d) = gq[1:3], gp[1:3]
    assume(a * d - b * c != 0.0)
    assert outcome(lambda: invert(gq, gp)) == outcome(lambda: order_by_order_invert(gq, gp))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_invert_agrees_with_the_fixed_point_sweep(order):
    # within 1e-13 of each jet's largest coefficient: a small coefficient
    # that comes from cancelling terms carries the round-off of the large ones
    rng = random.Random(10 + order)
    n = len(MONOMIALS[order])
    for _ in range(200):
        u = lambda: rng.uniform(-0.5, 0.5)
        gq = [rng.uniform(-2, 2), 1.0 + u(), u()] + [rng.uniform(-2, 2) for _ in range(n - 3)]
        gp = [rng.uniform(-2, 2), u(), 1.0 + u()] + [rng.uniform(-2, 2) for _ in range(n - 3)]
        for got, want in zip(invert(gq, gp), reference_invert(gq, gp), strict=True):
            size = max(map(abs, want))
            assert max(abs(x - y) for x, y in zip(got, want, strict=True)) <= 1e-13 * size


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
        gq[-1] = 0.5
        first = outcome(lambda: invert(gq, gp))
        assert len(generated) == order
        assert outcome(lambda: invert(gq, gp)) == first
        assert len(generated) == order


def test_the_order_3_inverse_is_written_out_in_few_lines(generated):
    # the fixed-point sweeps' function took 538 lines at order 3 (535 in
    # its body); solving order by order writes only the terms of the degree
    # being solved
    invert(*seed_pair(3, 0.3, -0.2))
    assert len(generated) == 1 and len(generated[0].splitlines()) <= 538 // 3


def test_invert_refuses_a_singular_linear_part(generated):
    gq = [0.5, 1.0, 2.0] + [0.1] * 7
    gp = [0.2, 2.0, 4.0] + [0.3] * 7
    with pytest.raises(ValueError, match="^the jet's linear part is singular$"):
        invert(gq, gp)
    # refused before any sweep: no code was generated for it
    assert generated == []


def test_invert_refuses_mixed_orders():
    with pytest.raises(ValueError, match="^jet orders differ$"):
        invert(seed(0.0, 0, 2), seed(0.0, 1, 3))
