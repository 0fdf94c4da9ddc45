import cmath
import gc
import math
import random
from fractions import Fraction

import pytest

from expr_walk import built_sparses, check_exact_tables_and_bodies, exact_terms, in_lowest_terms, partials, walk

from moyal.expr import (
    SPARSE_ZERO,
    Atoms,
    DerivTable,
    Expr,
    ExprDomainError,
    ExprEvalError,
    ExprParseError,
    PI,
    Program,
    ZERO,
    call,
    const,
    differentiate,
    eval_expr,
    eval_real,
    free_symbols,
    parse_expr,
    pow_int,
    print_expr,
    sym,
)
from moyal.checks import _flow_hamiltonians
from moyal.closed_forms import builtin_example1, builtin_unitary_pair
from moyal.jets import eval_expr_jet, seed
from moyal.scalars import ExactScalar


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


def test_parse_refuses_division_by_zero():
    for text, pos in [("1/0", 1), ("q/0", 1), ("(q-q)^-1", 5), ("p*(2 - 2)^-3", 9)]:
        with pytest.raises(ExprParseError) as err:
            parse_expr(text)
        assert err.value.position == pos, text
        assert "division by zero" in str(err.value)
    assert print_expr(parse_expr("0^0 + (q-q)^2")) == "1"


def test_parse_constant_power_budget():
    assert print_expr(parse_expr("2^2048/2^2047")) == "2"
    for text, pos in [("2^10000000", 1), ("(3*q)^5000", 5), ("q/2^-5000", 3), ("q^-" + "9" * 5000, 3)]:
        with pytest.raises(ExprParseError) as err:
            parse_expr(text)
        assert err.value.position == pos, text
    # a variable raised to a large power builds no large constant
    assert print_expr(parse_expr("q^100000")) == "q^100000"


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
    # compiled once for every point
    de = Program(differentiate(e, "q"))
    e = Program(e)
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
    assert print_expr(DerivTable(e).get(2, 0)) == "12*q^2"
    assert DerivTable(e).get(5, 0) is ZERO


def test_a_deep_entry_is_filled_without_recursion():
    table = DerivTable(parse_expr("q*p"))
    assert table.get(1500, 0) is ZERO
    assert table.get(1, 1500) is ZERO


def test_entries_are_filled_from_the_nearest_one_held_in_row_then_column_order():
    table = DerivTable(parse_expr("exp(q)*sin(p)"))
    table.sparse(3, 2)
    table.sparse(1, 2)
    table.sparse(3, 3)
    assert list(table.entries) == [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (1, 1), (1, 2), (3, 3)]
    assert table.get(3, 3) == differentiate(table.get(3, 2), "p")


@pytest.mark.parametrize("a, b", [(-1, 0), (0, -1), (2, -3)])
def test_negative_derivative_orders_are_refused(a, b):
    table = DerivTable(parse_expr("q*p"))
    with pytest.raises(ValueError, match="derivative order must be non-negative"):
        table.get(a, b)
    with pytest.raises(ValueError, match="derivative order must be non-negative"):
        table.sparse(a, b)


def _short_example1(e):
    """The print of ``e`` with example 1's recurring calls named: C and S
    for cos and sin of hbar*t/(4*m*l^2), C2 and S2 at twice that argument,
    and E for the exponential of the inverse maps."""
    s = print_expr(e)
    w = "hbar*t*l^-2*m^-1"
    for text, name in ((f"cos((1/4)*{w})", "C"), (f"sin((1/4)*{w})", "S"),
                       (f"cos((1/2)*{w})", "C2"), (f"sin((1/2)*{w})", "S2")):
        s = s.replace(text, name)
    return s.replace("exp((-1)*p*q*S2*hbar^-1*C^2)", "E").replace("exp(p*q*S2*hbar^-1*C^2)", "E")


def test_a_sum_atoms_derivative_is_expanded():
    # the derivatives of the sum p + gamma*sinh(...) and of the inverse maps'
    # exponent are sums; the chain rule over atoms multiplies them out
    # where a product-rule walk keeps them as factors
    momentum = builtin_unitary_pair()[1]
    assert print_expr(differentiate(momentum, "p")) == (
        "exp((-1)*q*beta^-1) + 2*beta*gamma*pi*cosh(2*beta*p*pi*hbar^-1)*exp((-1)*q*beta^-1)*hbar^-1"
    )
    ex = builtin_example1()
    position = differentiate(differentiate(ex.inverse_position, "t"), "t")
    assert _short_example1(position) == (
        "(-1)*hbar*q*C*E*S*l^-2*m^-1*((-1/2)*p*q*C2*l^-2*m^-1*C^2 + (1/2)*p*q*C*S2*S*l^-2*m^-1)"
        " + (-1/8)*hbar*p*E*S2*l^-4*m^-2*q^2*C^2*S^2 + (-1/8)*q*E*hbar^2*l^-4*m^-2*C^2"
        " + (1/2)*hbar*p*C2*E*S*l^-4*m^-2*q^2*C^3 + (1/8)*q*E*hbar^2*l^-4*m^-2*S^2"
        " + (3/8)*hbar*p*E*S2*l^-4*m^-2*q^2*C^4"
        " + q*E*C^2*((-1/2)*p*q*C2*l^-2*m^-1*C^2 + (1/2)*p*q*C*S2*S*l^-2*m^-1)^2"
    )
    momentum = differentiate(differentiate(ex.inverse_momentum, "t"), "t")
    assert _short_example1(momentum) == (
        "(-3/8)*hbar*q*E*S2*l^-4*m^-2*p^2*C^4"
        " + (-1)*hbar*p*C*E*S*l^-2*m^-1*((-1/2)*p*q*C*S2*S*l^-2*m^-1 + (1/2)*p*q*C2*l^-2*m^-1*C^2)"
        " + (-1/2)*hbar*q*C2*E*S*l^-4*m^-2*p^2*C^3 + (-1/8)*p*E*hbar^2*l^-4*m^-2*C^2"
        " + (1/8)*hbar*q*E*S2*l^-4*m^-2*p^2*C^2*S^2 + (1/8)*p*E*hbar^2*l^-4*m^-2*S^2"
        " + p*E*C^2*((-1/2)*p*q*C*S2*S*l^-2*m^-1 + (1/2)*p*q*C2*l^-2*m^-1*C^2)^2"
    )


# Hamiltonians whose partials the flows and both hbar^2 routes read
_FLOW_TEXTS = (
    "q^2*p^2/4", "p^2/2 + q^2/2 + q^4/24", "p^2/2 + q^3/6", "p^2/2 + cosh(q)/4",
    "q^2*p^2/(4*m*l^2)", "p^2/2+tan(q)", "p^2/2+sec(q)*sin(q)", "p^2/2 + exp(10*q)",
    "exp(p/3)*cos(q)", "q^-2 + q^7", "p^2/(2*m) + m*omega^2*q^2/2 + lambda*q^4",
    "p^2/2 + q^6/30 + sec(q/4) + q*tan(p/5)",
)


@pytest.mark.parametrize(
    "h", [parse_expr(t) for t in _FLOW_TEXTS] + [ham.expr for _, ham in _flow_hamiltonians()]
)
def test_hamiltonian_partials_print_as_repeated_differentiation_does(h):
    # the generated field and partial kernels, and so every flow's bits,
    # follow from these trees
    table = DerivTable(h)
    for key, want in partials(h, 3).items():
        assert print_expr(table.get(*key)) == print_expr(want), key


def _sweep_exprs():
    ex = builtin_example1()
    fresh = []
    for rate in (Fraction(37, 100), Fraction(-613, 1000), Fraction(91, 100)):
        arg = const(rate) * parse_expr("q*p*t")
        fresh += [parse_expr("q") * call("exp", arg), parse_expr("p") * call("exp", -arg)]
    return [
        ex.classical_position, ex.classical_momentum,
        ex.deformed_position.expr, ex.deformed_momentum.expr,
        *builtin_unitary_pair(), *fresh,
    ]


@pytest.mark.parametrize("e", _sweep_exprs())
def test_derivative_table_of_the_sweep_pairs_to_order_17(e):
    point = {"q": 0.43, "p": -0.71, "t": 0.37, "m": 1.1, "l": 0.9, "hbar": 0.1, "beta": 1.0, "gamma": 1.0}
    table = DerivTable(e)
    for key, want in partials(e, 17).items():
        x, y = walk(want, point), walk(table.get(*key), point)
        assert abs(x - y) <= 1e-13 * max(abs(x), abs(y)), key


@pytest.mark.parametrize("f, g", list(zip(_sweep_exprs()[::2], _sweep_exprs()[1::2])))
def test_sweep_pairs_to_order_17_have_the_reference_coefficients(f, g):
    check_exact_tables_and_bodies(f, g, 17)


def test_sums_that_cancel_across_denominators_stay_in_lowest_terms():
    atoms = Atoms()
    a = atoms.sparse(parse_expr("q/6 + p/4 + i*q/10"))
    b = atoms.sparse(parse_expr("-q/6 + p/12 - i*q/10"))
    with built_sparses() as built:
        third, zero, scaled = a + b, a + -1 * a, Fraction(3, 5) * a
    assert all(map(in_lowest_terms, built))
    assert exact_terms(third) == {atoms.monomial(sym("p"), 1): ExactScalar(Fraction(1, 3))}
    assert third.den == 3 and zero == SPARSE_ZERO
    assert atoms.sparse(parse_expr("p/3")) == third != atoms.sparse(parse_expr("p/2"))
    assert exact_terms(scaled) == {m: c * Fraction(3, 5) for m, c in exact_terms(a).items()}


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


# -- one evaluator, three value types -----------------------------------


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
    # the value types share the evaluator but keep their own power and tan
    # primitives (libm pow, repeated products for jets, repeated squaring
    # and sin/cos for complex), so they agree to rounding, not bit for bit
    e = Program(_VALUE_TYPE_CASES[name])
    for b in _REAL_POINTS:
        jets = dict(b, q=seed(b["q"], 0, 3), p=seed(b["p"], 1, 3))
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
        assert eval_expr_jet(e, jets, 3)[0] == pytest.approx(x, rel=1e-13, abs=1e-300)


# -- the compiled tape ---------------------------------------------------


def _referents(obj):
    """Everything reachable from obj through containers and exact numbers."""
    seen, stack = set(), [obj]
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(x, type):
            continue
        seen.add(id(x))
        yield x
        stack.extend(gc.get_referents(x))


def test_program_references_no_expr():
    e = builtin_example1().deformed_position.expr
    prog = Program([e, differentiate(e, "q")])
    fields = [getattr(prog, name) for name in Program.__slots__]
    reached = [x for field in fields for x in _referents(field)]
    assert len(reached) > len(fields)
    assert not any(isinstance(x, Expr) for x in reached)


def test_program_shares_equal_subtrees():
    # two separately parsed copies of one tree compile to one set of slots
    text = "exp(q*p)*sec(q) + q^3"
    one = Program(parse_expr(text))
    two = Program([parse_expr(text), parse_expr(text)])
    assert two.code == one.code
    assert two.roots == one.roots * 2


@pytest.mark.parametrize(
    "text, bindings, error, message",
    [
        ("q + omega", {"q": 1.0}, ExprEvalError, "unbound symbol 'omega'"),
        ("q^-1", {"q": 0.0}, ExprDomainError, "zero raised to a negative power"),
        ("tan(q)", {"q": math.pi / 2}, ExprDomainError, "tan evaluated too close to an odd multiple of pi/2"),
        ("p*sec(q)", {"q": math.pi / 2, "p": 1.0}, ExprDomainError, "sec evaluated too close"),
        ("q*tan(p)", {"q": 1.0, "p": math.pi / 2}, ExprDomainError, "^tan evaluated too close"),
        ("q*p^-2", {"q": 1.0, "p": -0.0}, ExprDomainError, "zero raised to a negative power"),
    ],
)
def test_program_raises_the_entry_point_errors(text, bindings, error, message):
    prog = Program(parse_expr(text))
    jets = {k: seed(v, 0, 2) for k, v in bindings.items()}
    # the generated jet code with q a jet and the other names floats
    mixed = dict(bindings, q=seed(bindings["q"], 0, 3))
    for run in (
        lambda: eval_expr(prog, bindings),
        lambda: eval_real(prog, bindings),
        lambda: eval_expr_jet(prog, jets, 2),
        lambda: eval_expr_jet(prog, mixed, 3),
        lambda: prog.real(bindings),
    ):
        with pytest.raises(error, match=message) as got:
            run()
        assert type(got.value) is error


@pytest.mark.parametrize("name, ham", _flow_hamiltonians())
def test_compiled_field_equals_one_shot_evaluation(name, ham):
    prog = Program((ham.dp, ham.dq))
    # each root alone, compiled once for every point
    one_dp, one_dq = Program(ham.dp), Program(ham.dq)
    for b in _REAL_POINTS:
        b = dict(b, m=1.0, l=1.0)
        assert prog.real(b) == [eval_real(one_dp, b), eval_real(one_dq, b)]
        assert eval_expr(prog, b) == [eval_expr(one_dp, b), eval_expr(one_dq, b)]
        jets = dict(b, q=seed(b["q"], 0, 3), p=seed(b["p"], 1, 3))
        got = eval_expr_jet(prog, jets, 3)
        assert got == [eval_expr_jet(one_dp, jets, 3), eval_expr_jet(one_dq, jets, 3)]
        dp, dq = prog.real(b)
        assert ham.field([b["q"], b["p"]]) == [dp, -dq]
        assert ham.field_jets(jets["q"] + jets["p"]) == got[0] + [-x for x in got[1]]
