"""Both parsers and the CLI commands on texts built from grammar tokens.

Every text either parses or is refused with the parser's own error, a text
that parses as a polynomial means the same polynomial when read as an
expression, and the ``star``, ``hierarchy`` and ``example2`` commands exit
0 or 2 without an exception.  Random expression trees evaluate over
complexes, floats and jets exactly as the reference walk does.  Examples
are derandomized, so every run tries the same texts and trees.
"""

import math
from fractions import Fraction

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expr_walk import outcome, walk, walk_complex, walk_jet
from moyal.cli import main
from moyal.expr import (
    FUNCTION_NAMES,
    I_UNIT,
    PI,
    Expr,
    ExprParseError,
    add,
    call,
    const,
    eval_expr,
    eval_real,
    mul,
    parse_expr,
    pow_int,
    print_expr,
    sym,
)
from moyal.jets import TruncatedJet, eval_expr_jet
from moyal.poly import PhasePolynomial, PolyParseError, parse_poly

TOKENS = (
    *"0123456789",
    "q", "p", "hbar", "i", "t", "m", "pi", "exp", "sin", "sec",
    "+", "-", "*", "/", "^", "(", ")", " ",
)
texts = st.lists(st.sampled_from(TOKENS), max_size=24).map("".join)

FUZZ = settings(derandomize=True, max_examples=300, deadline=1000)


@FUZZ
@given(texts)
@example("q^²")
@example("2^10000000")
def test_parse_poly_returns_or_refuses(text):
    try:
        assert isinstance(parse_poly(text), PhasePolynomial)
    except PolyParseError:
        pass


@FUZZ
@given(texts)
@example("1/0")
@example("q^²")
def test_parse_expr_returns_or_refuses(text):
    try:
        assert isinstance(parse_expr(text), Expr)
    except ExprParseError:
        pass


@FUZZ
@given(texts)
@example("3/4^2")
def test_both_grammars_agree_on_polynomial_texts(text):
    try:
        f = parse_poly(text)
    except PolyParseError:
        return
    assert parse_poly(print_expr(parse_expr(text))) == f


@settings(FUZZ, max_examples=200)
@given(texts, texts)
@example("2^10000000", "p")
def test_star_command_exits_0_or_2(left, right):
    res = CliRunner().invoke(main, ["star", "--", left, right])
    assert res.exit_code in (0, 2), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


# initial points: the origin, generic values, a pole of sec and tan, and
# one far enough out for powers and exponentials to overflow
points = st.sampled_from((0.0, 0.7, -1.3, math.pi / 2, 40.0))


@settings(FUZZ, max_examples=150)
@given(texts, points, points, points)
@example("p^2/2+sec(q)", math.pi / 2, 0.0, 1.0)
@example("1/q", 0.0, 1.0, 1.0)
@example("p^2/2+i*q^2", 1.0, 1.0, 1.0)
@example("p^2/2+sec(m)*q", 0.7, 0.7, math.pi / 2)
@example("p^2/m+q^2", 0.7, 0.7, 0.0)
def test_numeric_commands_exit_0_or_2(text, q0, p0, m):
    point = ["--q0", repr(q0), "--p0", repr(p0)]
    for args in (
        # a bound m reaches the jet runs as a float parameter
        ["hierarchy", "--hamiltonian", text, *point, "--m", repr(m), "--t0", "0.05",
         "--t1", "0.05", "--t-steps", "1", "--steps", "200", "--quad-nodes", "8", "--depth", "1"],
        ["example2", "--hamiltonian", text, *point, "--t1", "0.05", "--depth", "1"],
    ):
        res = CliRunner().invoke(main, args)
        assert res.exit_code in (0, 2), (args, res.output)
        assert res.exception is None or isinstance(res.exception, SystemExit), args


# trees from the normalizing constructors: q, p, a parameter, pi and
# nonzero constants, under sums, products, powers -2..7 and every function
leaves = st.one_of(
    st.sampled_from((sym("q"), sym("p"), sym("m"), PI)),
    st.sampled_from((1, 2, 3, -1, -3)).flatmap(lambda n: st.sampled_from((n, Fraction(n, 4)))).map(const),
)


def tree_strategy(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(lambda ab: add(*ab)),
            st.tuples(kids, kids).map(lambda ab: mul(*ab)),
            st.tuples(kids, st.integers(-2, 7)).map(lambda bk: pow_int(*bk)),
            st.tuples(st.sampled_from(FUNCTION_NAMES), kids).map(lambda fu: call(*fu)),
        ),
        max_leaves=10,
    )


trees = tree_strategy(leaves)
# the same trees with i among their leaves, for complex runs only
complex_trees = tree_strategy(st.one_of(leaves, st.just(I_UNIT)))
values = st.sampled_from((0.0, -0.0, 0.7, -1.3, math.pi / 2, 3.0))


@settings(FUZZ, max_examples=200)
@given(trees, complex_trees, values, values, values)
@example(pow_int(sym("q"), -2) + sym("p"), I_UNIT * pow_int(sym("q"), -1), 0.0, 1.0, 1.0)
@example(call("sec", sym("m")) * sym("q"), call("tan", I_UNIT + sym("m")), 0.7, 0.7, math.pi / 2)
def test_generated_code_matches_the_reference_walk(e, z, q, p, m):
    b = {"q": q, "p": p, "m": m}
    assert outcome(lambda: eval_real(e, b)) == outcome(lambda: walk(e, b))
    # complex runs, with m unbound in the second
    for x, xb in ((e, b), (z, b), (z, {"q": q, "p": p})):
        assert outcome(lambda: eval_expr(x, xb)) == outcome(lambda: walk_complex(x, xb))
    for order in (1, 2, 3):
        jets = dict(b, q=TruncatedJet.seed(q, 0, order), p=TruncatedJet.seed(p, 1, order))
        assert outcome(lambda: eval_expr_jet(e, jets, order)) == outcome(lambda: walk_jet(e, jets, order))
