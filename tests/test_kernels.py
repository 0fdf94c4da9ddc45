"""The straight-line code generated from a Program's tape, against the
reference walk in ``expr_walk``: bit-identical values, the same errors,
code generated once and on first use, and no name or constant as text."""

import math
from fractions import Fraction

import pytest

from expr_walk import outcome, plus, product, scale, walk, walk_complex, walk_jet
from moyal.brackets import moyal_bracket_truncated
from moyal.checks import _flow_hamiltonians
from moyal.expr import (
    ComplexEmitter,
    ExprEvalError,
    FloatEmitter,
    Program,
    add,
    const,
    eval_expr,
    mul,
    parse_expr,
    pow_int,
    sym,
)
from moyal.flow import HamiltonianSpec
from moyal.jets import eval_expr_jet, seed
from moyal.poly import EvalPoint

HAMILTONIANS = [ham for _name, ham in _flow_hamiltonians()] + [
    HamiltonianSpec(parse_expr("p^2/2 + q^3/6")),
    HamiltonianSpec(parse_expr("p^2/2 + cosh(q)/4")),
    HamiltonianSpec(parse_expr("p^2/2 + sec(q)/3 + tan(q)*p/5")),
    HamiltonianSpec(
        parse_expr("p^2/(2*m) + omega^2*q^2/2 + lambda*q^4"), {"m": 1.3, "omega": 0.7, "lambda": 0.1}
    ),
    HamiltonianSpec(parse_expr("p^2/2 + q^-2/50 + q^7/50")),
]
POINTS = [(0.9, -0.7), (0.0, -0.0), (-0.0, 0.0), (-1.1, 0.6), (1.5, 0.25)]


def jet_points(order):
    """Seed jets at every point, and jets with higher parts."""
    for q, p in POINTS:
        jq, jp = seed(q, 0, order), seed(p, 1, order)
        yield jq, jp
        yield plus(product(order, jq, jp), jq), plus(jp, scale(-0.5, product(order, jq, jq)))


@pytest.mark.parametrize("ham", HAMILTONIANS, ids=lambda h: str(h.expr))
def test_real_runs_match_the_reference_walk(ham):
    for q, p in POINTS:
        b = {"q": q, "p": p, **ham.params}
        want = outcome(lambda: (walk(ham.dp, b), -walk(ham.dq, b)))
        assert outcome(lambda: ham.field([q, p])) == want
        assert outcome(lambda: ham.energy(q, p)) == outcome(lambda: walk(ham.expr, b))
        want = outcome(lambda: [walk(ham.partials.get(*k), b) for k in ham.partials_at(0.3, 0.2)])
        assert outcome(lambda: list(ham.partials_at(q, p).values())) == want


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("ham", HAMILTONIANS, ids=lambda h: str(h.expr))
def test_jet_runs_match_the_reference_walk(ham, order):
    for jq, jp in jet_points(order):
        b = {"q": jq, "p": jp, **ham.params}
        neg = lambda x: [-c for c in x]
        want = outcome(lambda: walk_jet(ham.dp, b, order) + neg(walk_jet(ham.dq, b, order)))
        assert outcome(lambda: ham.field_jets(jq + jp)) == want


COMPLEX_TEXTS = [
    "i", "i*q^2 - i*p^2 + 1/3", "exp(i*q)*p", "(1+i)^3*q^-1", "sin(q) + i*cos(p)*pi",
    "tan(q)*sec(p)", "tan(q) + i*p", "sec(pi*q/2)", "q^-2 + p^-3", "(q-p)^-4", "sinh(q*p)^5 - cosh(m)/q",
    "exp(700*q)*exp(700*p)", "q^7*i + m",
]
COMPLEX_POINTS = [
    {"q": 0.9, "p": -0.7, "m": 1.3},
    {"q": 0.0, "p": -0.0, "m": -0.0},
    {"q": -0.0, "p": 0.0, "m": 0.0},
    {"q": math.pi / 2, "p": -math.pi / 2, "m": 1.0},
    {"q": 1.0, "p": 1.0, "m": 1e-200},
    {"q": 0.5 + 0.25j, "p": -1j, "m": 2.0},
    {"p": 1.0, "m": 1.0},
    {"q": 1.0, "p": 1.0},
]


@pytest.mark.parametrize("text", COMPLEX_TEXTS)
def test_complex_runs_match_the_reference_walk(text):
    e = parse_expr(text)
    e2 = pow_int(e, 2)
    prog, pair = Program(e), Program([e, e2])
    for b in COMPLEX_POINTS:
        want = outcome(lambda: walk_complex(e, b))
        assert outcome(lambda: prog.run(b)) == want
        assert outcome(lambda: pair.run(b)) == outcome(lambda: [walk_complex(e, b), walk_complex(e2, b)])
    # an expression is compiled for the one call
    b = COMPLEX_POINTS[0]
    assert outcome(lambda: eval_expr(e, b)) == outcome(lambda: walk_complex(e, b))


@pytest.fixture
def generated(monkeypatch):
    """Source text of every function generated while the test runs."""
    sources = []
    function = FloatEmitter.function

    def recorded(self, roots, single):
        sources.append("\n".join(self.lines))
        return function(self, roots, single)

    monkeypatch.setattr(FloatEmitter, "function", recorded)
    return sources


def test_code_is_generated_on_first_use_only(generated):
    h = parse_expr("q^2*p^2/(4*m*l^2) + sec(q)")
    Program(h).kernel(complex, ComplexEmitter)
    ham = HamiltonianSpec(h, {"m": 1.3, "l": 0.7})
    # building a spec generates one function: the realness probe's complex run of H
    assert len(generated) == 2 and generated[1] == generated[0]
    generated.clear()
    jq, jp = seed(0.9, 0, 2), seed(0.4, 1, 2)
    for run in (
        lambda: ham.field([0.9, 0.4]),
        lambda: ham.field_jets(jq + jp),
        lambda: list(ham.partials_at(0.9, 0.4).values()),
        lambda: ham.energy(0.9, 0.4),
    ):
        before = len(generated)
        first = outcome(run)
        assert len(generated) == before + 1
        assert outcome(run) == first
        assert len(generated) == before + 1
    # each jet order has its own code
    ham.field_jets(seed(0.9, 0, 3) + seed(0.4, 1, 3))
    assert len(generated) == 5


def test_names_and_constants_never_become_source_text(generated):
    odd = sym("x'] or 1 #")
    e = odd * sym("lambda") + const(12345) * pow_int(odd, 3) + const(Fraction(3, 8))
    prog = Program(e)
    b = {"x'] or 1 #": 0.5, "lambda": -2.0}
    assert outcome(lambda: prog.real(b)) == outcome(lambda: walk(e, b))
    assert prog.real(b) == pytest.approx(-1.0 + 12345 / 8 + 0.375)
    for order in (1, 2, 3):
        jb = dict(b, **{"x'] or 1 #": seed(0.5, 0, order)})
        assert outcome(lambda: eval_expr_jet(prog, jb, order)) == outcome(lambda: walk_jet(e, jb, order))
        jb = dict(b, **{"lambda": seed(-2.0, 1, order)})
        assert outcome(lambda: eval_expr_jet(prog, jb, order)) == outcome(lambda: walk_jet(e, jb, order))
    with pytest.raises(ExprEvalError, match=r"^unbound symbol 'x'\] or 1 #'$"):
        prog.real({"lambda": 1.0})
    assert len(generated) == 7
    for text in generated:
        assert "x'" not in text and "lambda" not in text
        assert "12345" not in text and "3/8" not in text and "0.375" not in text


def test_long_sums_and_products_fold_in_order():
    # more operands than one generated statement folds
    q = sym("q")
    long_sum = add(*(pow_int(q, k) * const(Fraction(1, k)) for k in range(1, 200)))
    long_product = mul(*(q * const(Fraction(1, k)) + const(1) for k in range(1, 200)))
    b = {"q": 0.999}
    jb = {"q": seed(0.999, 0, 2)}
    for e in (long_sum, long_product):
        assert outcome(lambda: Program(e).real(b)) == outcome(lambda: walk(e, b))
        assert outcome(lambda: eval_expr_jet(e, jb, 2)) == outcome(lambda: walk_jet(e, jb, 2))


def test_bracket_ladders_generate_code_once_per_grade(generated):
    f, g = parse_expr("q^3*sin(p)"), parse_expr("exp(q)*p^2 + sec(q*p)")
    at = EvalPoint(q=0.3, p=-0.4, hbar=0.1)
    first = moyal_bracket_truncated(f, g, 3, at)
    assert len(generated) == 4
    assert moyal_bracket_truncated(f, g, 3, at) == first
    assert len(generated) == 4
    # a higher grade generates code for the grades it adds only
    higher = moyal_bracket_truncated(f, g, 5, at)
    assert len(generated) == 6
    assert higher.partial_sums[:4] == first.partial_sums
