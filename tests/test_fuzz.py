"""Both parsers and the CLI commands on texts built from grammar tokens.

Every text either parses or is refused with the parser's own error, a text
that parses as a polynomial means the same polynomial when read as an
expression, and the ``star``, ``hierarchy`` and ``example2`` commands exit
0 or 2 without an exception.  Random expression trees evaluate over
complexes, floats and jets exactly as the reference walk does, their
derivatives agree with the product-rule walk, their derivative tables
agree with repeated differentiation, and the tables and
ladder bodies of pairs of them hold exactly the coefficients of the
``ExactScalar`` reference.  Examples are derandomized, so every run tries
the same texts and trees.
"""

import math
import random
from fractions import Fraction

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expr_walk import (
    check_exact_tables_and_bodies, outcome, partials, walk, walk_complex, walk_differentiate, walk_jet,
)
from moyal.cli import main
from moyal.expr import (
    FUNCTION_NAMES,
    DerivTable,
    I_UNIT,
    PI,
    Expr,
    ExprParseError,
    Program,
    add,
    call,
    const,
    differentiate,
    eval_expr,
    eval_real,
    mul,
    parse_expr,
    pow_int,
    print_expr,
    sym,
)
from moyal.jets import eval_expr_jet, seed
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
         "--t1", "0.05", "--t-steps", "1", "--steps", "200", "--depth", "1"],
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
    # each tree compiled once for all of its runs
    prog, zprog = Program(e), Program(z)
    assert outcome(lambda: eval_real(prog, b)) == outcome(lambda: walk(e, b))
    # complex runs, with m unbound in the second
    for x, xp, xb in ((e, prog, b), (z, zprog, b), (z, zprog, {"q": q, "p": p})):
        assert outcome(lambda: eval_expr(xp, xb)) == outcome(lambda: walk_complex(x, xb))
    for order in (1, 2, 3):
        jets = dict(b, q=seed(q, 0, order), p=seed(p, 1, order))
        assert outcome(lambda: eval_expr_jet(prog, jets, order)) == outcome(lambda: walk_jet(e, jets, order))


def _value(e, point):
    try:
        return walk(e, point)
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)


# seeded generic points, with the time t among the symbols
_rng = random.Random(25)
DERIVATIVE_POINTS = [{v: _rng.uniform(-1.5, 1.5) for v in ("q", "p", "m", "t")} for _ in range(3)]


@FUZZ
@given(tree_strategy(st.one_of(leaves, st.just(sym("t")))))
@example(call("exp", -sym("q") / sym("m")) * (sym("p") + call("sinh", 2 * PI * sym("p"))))
@example(sym("q") * call("exp", sym("p") * sym("q") * call("sin", sym("t") / 2)) * call("cos", sym("t") / 4))
def test_differentiate_matches_the_product_rule_walk(e):
    for var in ("q", "p", "t"):
        got, want = differentiate(e, var), walk_differentiate(e, var)
        if var != "t":
            assert got == DerivTable(e).get(*((1, 0) if var == "q" else (0, 1))), var
        for point in DERIVATIVE_POINTS:
            x, y = _value(want, point), _value(got, point)
            if type(x) is tuple or type(y) is tuple:
                assert x == y, (var, print_expr(want))
            else:
                assert x == y or abs(x - y) <= 1e-13 * max(abs(x), abs(y)), (var, print_expr(want))


# a generic point; entries the reference cannot evaluate there are skipped
TABLE_POINT = {"q": 0.43, "p": -0.71, "m": 1.13}


@FUZZ
@given(trees)
@example(call("tan", sym("q") * sym("p")) * pow_int(sym("m") + sym("q"), -2))
@example(call("exp", pow_int(sym("q"), 2) + sym("p")) * call("sec", PI * sym("p")))
def test_derivative_table_matches_repeated_differentiation(e):
    ref = partials(e, 5)
    table = DerivTable(e)
    for key, want in ref.items():
        try:
            x = walk(want, TABLE_POINT)
        except (ArithmeticError, ValueError):
            continue
        y = walk(table.get(*key), TABLE_POINT)
        assert abs(x - y) <= 1e-13 * max(abs(x), abs(y)), (key, print_expr(want))


@settings(FUZZ, max_examples=150, deadline=None)
@given(complex_trees, complex_trees)
@example(
    I_UNIT * call("exp", I_UNIT * sym("q") / 3) + sym("p") / 6,
    call("sec", sym("q") / 4) - sym("q") * sym("p") / 10,
)
@example(pow_int(sym("q") + sym("m"), -2) * call("tan", sym("p")), I_UNIT * pow_int(sym("q"), 7) + PI)
# a sum atom, and a call's argument, whose derivatives are sums
@example(
    call("exp", sym("q")) * (sym("m") * (pow_int(sym("q"), 2) + sym("q") * sym("p")) + 1),
    call("exp", sym("m") * (pow_int(sym("q"), 2) + sym("q") * sym("p"))),
)
def test_derivative_tables_and_bodies_have_the_reference_coefficients(f, g):
    check_exact_tables_and_bodies(f, g, 5)
