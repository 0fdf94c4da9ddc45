"""Both parsers and the ``star`` command on texts built from grammar tokens.

Every text either parses or is refused with the parser's own error, and
the command exits 0 or 2 without an exception.  Examples are derandomized,
so every run tries the same texts.
"""

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moyal.cli import main
from moyal.expr import Expr, ExprParseError, parse_expr
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


@settings(FUZZ, max_examples=200)
@given(texts, texts)
@example("2^10000000", "p")
def test_star_command_exits_0_or_2(left, right):
    res = CliRunner().invoke(main, ["star", "--", left, right])
    assert res.exit_code in (0, 2), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
