import gc
import math
import types
from fractions import Fraction

import pytest

from moyal.brackets import (
    DepthCapError,
    bracket_2n_expr,
    moyal_bracket_truncated,
    poisson_expr,
    star_n_expr,
)
from moyal import brackets, expr
from moyal.closed_forms import builtin_example1, builtin_unitary_pair
from moyal.expr import (
    ZERO, Atoms, DerivTable, Expr, Program, Sparse, call, const, eval_expr, parse_expr, print_expr,
)
from moyal.poly import EvalPoint, bracket_2n, parse_poly, star_n
from moyal.poly import PhasePolynomial as PP


def test_poisson_canonical_pair():
    assert print_expr(poisson_expr(parse_expr("q"), parse_expr("p"))) == "1"
    assert poisson_expr(parse_expr("q"), parse_expr("q")) is ZERO


def test_poisson_generates_hamilton_field():
    h = parse_expr("p^2/2 + q^4/24")
    assert print_expr(poisson_expr(parse_expr("q"), h)) == "p"
    assert print_expr(poisson_expr(parse_expr("p"), h)) == "(-1/6)*q^3"


def test_star_n_expr_matches_polynomial_kernel():
    # same grade pieces as the exact polynomial route, checked at a point
    fe, ge = parse_expr("q^2"), parse_expr("p^2")
    fp, gp = PP.monomial(1, 2, 0), PP.monomial(1, 0, 2)
    point = {"q": 1.3, "p": -0.7}
    for n in range(4):
        got = eval_expr(star_n_expr(fe, ge, n), point)
        want = star_n(fp, gp, n).evaluate(1.3, -0.7, 1.0)
        assert got == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("n", range(4))
def test_bracket_2n_expr_on_polynomials_is_the_exact_grade(n):
    f, g = "q^4 + q*p^3 - 2*q^2*p", "q^3*p^2 + p^5/3"
    got = bracket_2n_expr(parse_expr(f), parse_expr(g), n)
    assert parse_poly(print_expr(got)) == bracket_2n(parse_poly(f), parse_poly(g), n)


def test_star_n_expr_on_transcendental():
    # grade 1 of exp(q) with p is (i/2) d_q exp(q) = (i/2) exp(q)
    got = star_n_expr(parse_expr("exp(q)"), parse_expr("p"), 1)
    val = eval_expr(got, {"q": 0.4, "p": 2.0})
    assert val == pytest.approx(0.5j * math.exp(0.4))


def test_bracket_2n_expr_grade_zero_is_poisson():
    f, g = parse_expr("q^2*p"), parse_expr("q*p^2")
    b0 = bracket_2n_expr(f, g, 0)
    pb = poisson_expr(f, g)
    point = {"q": 0.9, "p": 1.1}
    assert eval_expr(b0, point) == pytest.approx(eval_expr(pb, point))


def test_depth_cap():
    f, g = parse_expr("exp(q*p)"), parse_expr("q")
    with pytest.raises(DepthCapError):
        star_n_expr(f, g, 13)
    with pytest.raises(DepthCapError):
        bracket_2n_expr(f, g, 13)
    with pytest.raises(ValueError):
        star_n_expr(f, g, -1)


def test_truncated_bracket_report_shape():
    f, g = parse_expr("q^2"), parse_expr("p^2")
    rep = moyal_bracket_truncated(
        f, g, 3, EvalPoint(q=1.0, p=1.0, hbar=0.1, params={})
    )
    assert len(rep.partial_sums) - 1 == 3
    assert len(rep.partial_sums) == 4
    # the polynomial pair truncates exactly: {q^2,p^2} = 4qp = 4 at (1,1)
    assert rep.partial_sums[-1].real == pytest.approx(4.0)
    assert rep.converged
    assert rep.last_term_magnitude == 0.0


def test_truncated_bracket_requested_grade_never_refused():
    f, g = parse_expr("q^2"), parse_expr("p^2")
    rep = moyal_bracket_truncated(
        f, g, 15, EvalPoint(q=1.0, p=1.0, hbar=0.1, params={})
    )
    assert len(rep.partial_sums) - 1 == 15


def test_truncated_bracket_converges_to_closed_form():
    # classical squeeze pair at a fixed time, against remark-level closed form
    f = parse_expr("q*exp(q*p*t/2)")
    g = parse_expr("p*exp(-q*p*t/2)")
    point = EvalPoint(q=1.0, p=1.0, hbar=0.1, params={"t": 0.8})
    rep = moyal_bracket_truncated(f, g, 8, point)
    want = (1.0 + (0.1 * 0.8 / 4.0) ** 2) ** -2
    assert rep.converged
    assert rep.partial_sums[-1].real == pytest.approx(want, rel=1e-10)


def test_truncated_bracket_validates_grade():
    f, g = parse_expr("q"), parse_expr("p")
    with pytest.raises(ValueError):
        moyal_bracket_truncated(f, g, -1, EvalPoint(q=0.0, p=0.0, hbar=1.0, params={}))


def test_eval_point_requires_positive_hbar():
    with pytest.raises(ValueError):
        EvalPoint(q=0.0, p=0.0, hbar=0.0, params={})


def _sweep_pairs():
    ex = builtin_example1()
    return [
        (ex.classical_position, ex.classical_momentum, EvalPoint(q=0.7, p=-0.4, hbar=0.1, params={"t": 0.8, "m": 1.0, "l": 1.0})),
        (ex.deformed_position.expr, ex.deformed_momentum.expr, EvalPoint(q=-0.3, p=0.9, hbar=0.05, params={"t": -0.5, "m": 1.0, "l": 1.0})),
        (*builtin_unitary_pair(), EvalPoint(q=0.2, p=0.1, hbar=1.0, params={"beta": 1.0, "gamma": 1.0})),
    ]


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("f, g, point", _sweep_pairs())
def test_repeated_truncated_bracket_differentiates_nothing(monkeypatch, f, g, point):
    first = moyal_bracket_truncated(f, g, 6, point)
    calls = _count_calls(monkeypatch, expr, "differentiate")
    again = moyal_bracket_truncated(f, g, 6, point)
    lower = moyal_bracket_truncated(f, g, 3, point)
    assert calls == []
    assert again == first
    assert lower.partial_sums == first.partial_sums[:4]


def test_higher_grade_builds_only_the_missing_grades(monkeypatch):
    f, g, point = _sweep_pairs()[0]
    bodies = _count_calls(monkeypatch, brackets, "bidifferential")
    moyal_bracket_truncated(f, g, 3, point)
    assert [k for _df, _dg, k, _zero in bodies] == [1, 3, 5, 7]
    del bodies[:]
    moyal_bracket_truncated(f, g, 5, point)
    assert [k for _df, _dg, k, _zero in bodies] == [9, 11]


@pytest.mark.parametrize("f, g, point", _sweep_pairs())
def test_reports_equal_those_of_a_fresh_equal_pair(f, g, point):
    kept = moyal_bracket_truncated(f, g, 4, point)
    kept = moyal_bracket_truncated(f, g, 8, point)
    fresh_f, fresh_g = parse_expr(print_expr(f)), parse_expr(print_expr(g))
    assert fresh_f == f and fresh_f is not f
    assert moyal_bracket_truncated(fresh_f, fresh_g, 8, point) == kept


def test_ladder_is_kept_on_the_left_factor_only_while_it_is_not_constant():
    point = EvalPoint(q=0.5, p=0.5)
    f, g = parse_expr("q*exp(p)"), parse_expr("p")
    moyal_bracket_truncated(f, g, 2, point)
    assert len(f._ladders[g]) == 3
    assert g._ladders is None
    one = parse_expr("1")
    assert moyal_bracket_truncated(one, g, 2, point).partial_sums == (0j, 0j, 0j)
    assert one._ladders is None


def _fresh_pair(rate):
    arg = const(rate) * parse_expr("q*p*t")
    return parse_expr("q") * call("exp", arg), parse_expr("p") * call("exp", -arg)


FRESH_POINT = EvalPoint(q=0.6, p=-0.9, hbar=0.1, params={"t": 0.7})


def test_fresh_pair_ladder_bodies_collapse():
    # each grade body of the pair is c_n t^2n exp(u) exp(-u) once like terms
    # are collected; built from uncollected products the nine tapes held
    # 8,146 entries
    f, g = _fresh_pair(Fraction(-613, 1000))
    rep = moyal_bracket_truncated(f, g, 8, FRESH_POINT)
    assert rep.partial_sums[-1].real == pytest.approx((1 + (0.1 * -0.613 * 0.7 / 2) ** 2) ** -2, rel=1e-14)
    assert sum(len(prog.code) for prog in f._ladders[g]) < 1000


def _reachable(prog):
    """What a kept ladder Program holds: its fields and its generated
    kernels' globals, followed through containers and numbers but not into
    functions, modules or classes."""
    stack = [getattr(prog, name) for name in Program.__slots__]
    stack += [fn.__globals__ for fn in prog._kernels.values()]
    seen = set()
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(x, (type, types.FunctionType, types.ModuleType)):
            continue
        seen.add(id(x))
        yield x
        stack.extend(gc.get_referents(x))


def test_kept_ladders_hold_no_derivative_table():
    f, g = _fresh_pair(Fraction(37, 100))
    moyal_bracket_truncated(f, g, 8, FRESH_POINT)
    reached = [x for prog in f._ladders[g] for x in _reachable(prog)]
    assert any(type(x) is complex for x in reached)
    assert not any(isinstance(x, (Expr, Sparse, Atoms, DerivTable)) for x in reached)
