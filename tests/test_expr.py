import cmath
import math
import random

import pytest

from moyal.expr import (
    ExprDomainError,
    ExprEvalError,
    ExprParseError,
    PI,
    ZERO,
    call,
    differentiate,
    eval_expr,
    eval_real,
    free_symbols,
    nth_derivative,
    parse_expr,
    pow_int,
    print_expr,
    sym,
)
from moyal.checks import _flow_hamiltonians
from moyal.closed_forms import builtin_example1, builtin_unitary_pair
from moyal.jets import TruncatedJet, eval_expr_jet


def roundtrip(text):
    e = parse_expr(text)
    printed = print_expr(e)
    assert parse_expr(printed) == e
    assert print_expr(parse_expr(printed)) == printed
    return printed


# -- normalizing constructors ------------------------------------------


def test_like_terms_collect():
    assert parse_expr("q + q") == parse_expr("2*q")
    assert parse_expr("q - q") == ZERO
    assert parse_expr("3*q*p - 2*p*q") == parse_expr("q*p")


def test_power_collection():
    assert parse_expr("q*q*q") == parse_expr("q^3")
    assert parse_expr("q^2*q^-2") == parse_expr("1")
    assert pow_int(parse_expr("q*p"), 2) == parse_expr("q^2*p^2")


def test_constant_folding():
    assert parse_expr("2*3") == parse_expr("6")
    assert parse_expr("(1/2)*q*4") == parse_expr("2*q")
    assert parse_expr("0*sec(q)") == ZERO


def test_zero_argument_folds():
    assert parse_expr("sin(0)") == ZERO
    assert parse_expr("exp(0)") == parse_expr("1")
    assert parse_expr("cos(0)") == parse_expr("1")
    assert parse_expr("sec(0)") == parse_expr("1")


def test_unknown_function_rejected():
    with pytest.raises(ValueError):
        call("argh", sym("q"))


# -- printing and parsing ----------------------------------------------


def test_canonical_prints():
    assert roundtrip("q^2/2 + p^2/2") == "(1/2)*p^2 + (1/2)*q^2"
    assert roundtrip("q*p") == "p*q"
    assert roundtrip("sec(hbar*t/4)^2") == "sec((1/4)*hbar*t)^2"
    assert roundtrip("exp(-q/beta)") == "exp((-1)*q*beta^-1)"
    assert roundtrip("pi") == "pi"
    assert roundtrip("(1/3)*i*hbar") == "(1/3)*i*hbar"


def test_negative_exponent():
    assert roundtrip("2*q^-2") == "2*q^-2"
    assert eval_expr(parse_expr("q^-2"), {"q": 2.0}) == pytest.approx(0.25)


def test_parse_errors_carry_position():
    for text, pos in [("q +", 3), ("sin()", 4), ("q^x", 2), ("(q", 2)]:
        with pytest.raises(ExprParseError) as err:
            parse_expr(text)
        assert err.value.position == pos, text


def test_parse_nesting_budget():
    assert parse_expr("(" * 100 + "q" + ")" * 100) == sym("q")
    for text, pos in [
        ("(" * 3000 + "q" + ")" * 3000, 101),
        ("exp(" * 3000 + "q" + ")" * 3000, 404),
    ]:
        with pytest.raises(ExprParseError) as err:
            parse_expr(text)
        assert err.value.position == pos


def test_unknown_symbol_rejected():
    with pytest.raises(ExprParseError):
        parse_expr("zeta + 1")


# -- differentiation ---------------------------------------------------


def test_power_rule():
    assert print_expr(differentiate(parse_expr("q^3"), "q")) == "3*q^2"
    assert differentiate(parse_expr("q^3"), "p") is ZERO


def test_chain_rule():
    assert print_expr(differentiate(parse_expr("exp(2*q)"), "q")) == "2*exp(2*q)"
    assert print_expr(differentiate(parse_expr("sec(q)"), "q")) == "sec(q)*tan(q)"
    got = differentiate(parse_expr("q*tan(q*p)"), "p")
    assert print_expr(got) == "q^2*sec(p*q)^2"


def test_product_rule_numeric():
    e = parse_expr("q^2*sin(q)*exp(p*q)")
    de = differentiate(e, "q")
    rng = random.Random(1)
    for _ in range(20):
        q, p = rng.uniform(0.2, 1.5), rng.uniform(-1.0, 1.0)
        h = 1e-6
        fd = (
            eval_expr(e, {"q": q + h, "p": p}) - eval_expr(e, {"q": q - h, "p": p})
        ) / (2 * h)
        assert eval_expr(de, {"q": q, "p": p}) == pytest.approx(fd, rel=1e-8)


def test_nth_derivative():
    e = parse_expr("q^4")
    assert print_expr(nth_derivative(e, "q", 2)) == "12*q^2"
    assert nth_derivative(e, "q", 5) is ZERO


def test_derivative_of_pi_is_zero():
    assert differentiate(PI, "q") is ZERO


# -- evaluation --------------------------------------------------------


def test_eval_basic():
    e = parse_expr("q^2/2 + p^2/2")
    assert eval_expr(e, {"q": 3.0, "p": 4.0}) == pytest.approx(12.5)
    assert eval_expr(parse_expr("pi"), {}) == pytest.approx(math.pi)
    assert eval_expr(parse_expr("i"), {}) == 1j


def test_eval_functions_complex():
    e = parse_expr("exp(i*q)")
    got = eval_expr(e, {"q": 0.7})
    assert got == pytest.approx(cmath.exp(0.7j))


def test_eval_unbound_symbol():
    with pytest.raises(ExprEvalError):
        eval_expr(parse_expr("q + omega"), {"q": 1.0})


def test_eval_sec_pole_guard():
    with pytest.raises(ExprDomainError):
        eval_expr(parse_expr("sec(q)"), {"q": math.pi / 2})
    with pytest.raises(ExprDomainError):
        eval_expr(parse_expr("tan(q)"), {"q": math.pi / 2})


def test_free_symbols():
    assert sorted(free_symbols(parse_expr("q*exp(p*t/m)"))) == [
        "m",
        "p",
        "q",
        "t",
    ]
    assert free_symbols(parse_expr("3*pi")) == frozenset()


def test_no_global_simplification_of_exponentials():
    # the engine deliberately leaves exp(a)*exp(-a) unfused; numeric
    # evaluation must still see 1
    e = parse_expr("exp(q*p)*exp(-q*p)")
    assert e != parse_expr("1")
    assert eval_expr(e, {"q": 0.9, "p": 1.3}) == pytest.approx(1.0)


# -- one walker, three value types -------------------------------------


def _value_type_cases():
    ex = builtin_example1()
    cases = {f"example1.{k}": getattr(v, "expr", v) for k, v in vars(ex).items()}
    cases["unitary.position"], cases["unitary.momentum"] = builtin_unitary_pair()
    for name, ham in _flow_hamiltonians():
        cases.update({f"{name}.H": ham.expr, f"{name}.dq": ham.dq, f"{name}.dp": ham.dp})
    return cases


_VALUE_TYPE_CASES = _value_type_cases()
_REAL_POINTS = [
    {"q": q, "p": p, "t": t, "hbar": 0.1, "m": 1.3, "l": 0.8, "beta": 1.1, "gamma": 0.7}
    for q, p, t in ((0.3, 0.7, 0.4), (-1.1, 0.4, -0.9), (0.9, -1.3, 1.7))
]


@pytest.mark.parametrize("name", sorted(_VALUE_TYPE_CASES))
def test_float_complex_and_jet_values_agree(name):
    # the value types share the walk but keep their own power and tan
    # primitives (libm pow, repeated products for jets, repeated squaring
    # and sin/cos for complex), so they agree to rounding, not bit for bit
    e = _VALUE_TYPE_CASES[name]
    for b in _REAL_POINTS:
        jets = dict(b, q=TruncatedJet.seed(b["q"], 0, 3), p=TruncatedJet.seed(b["p"], 1, 3))
        c = eval_expr(e, b)
        if c.imag:
            with pytest.raises(ExprDomainError):
                eval_real(e, b)
            with pytest.raises(ExprDomainError):
                eval_expr_jet(e, jets, 3)
            continue
        x = eval_real(e, b)
        assert type(x) is float
        assert c.real == pytest.approx(x, rel=1e-13, abs=1e-300)
        assert eval_expr_jet(e, jets, 3).value == pytest.approx(x, rel=1e-13, abs=1e-300)
