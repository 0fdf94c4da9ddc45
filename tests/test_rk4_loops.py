"""The loops that run the flows (``flow.rk4_loop``: every stage but the
first of the first step is the right-hand side's code inline) against
per-stage oracles that call the right-hand side once per stage, over
``ham.field``, ``ham.field_jets`` or the ode route's kernel: the RK4 loops
against ``flow.rk4``, the modified midpoint loops against
:func:`midpoint`, bit for bit (float.hex), and with the same errors at the
same times."""

import dis
import itertools
import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import moyal.semiclassical
from moyal.expr import ExprDomainError, parse_expr
from moyal.flow import (
    FlatFloats,
    FlowBlowupError,
    HamiltonianSpec,
    integrate_flow,
    integrate_flow_jets,
    rk4,
    rk4_loop,
)
from moyal.jets import FlowJets, seed
from moyal.semiclassical import _Hbar2Emitter
from test_semiclassical import BENCH_HAMILTONIANS, ode_rk4, polynomial_terms, recording_tables


def outcome(run):
    """float.hex of every state ``run()`` returns, or the class and text of
    its refusal, and the time of a blowup."""
    try:
        states = run()
    except FlowBlowupError as err:
        return type(err), str(err), err.time.hex()
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)
    return [[x.hex() for x in s] for s in states]


def oracle(rhs, state, t, steps):
    """The initial state and every state ``flow.rk4`` yields."""
    return [list(state), *rk4(rhs, state, t, steps)]


def ode_state(z0):
    return [*seed(z0[0], 0, 2), *seed(z0[1], 1, 2), 0.0, 0.0]


def loops_and_oracles(ham, z0, t, steps):
    """(loop, oracle) run pairs: the scalar flow, the jet flows of orders 1
    to 3 and the ode route's rates, its correction pair at the last step."""
    yield lambda: integrate_flow(ham, z0, t, steps).states, lambda: oracle(ham.field, list(z0), t, steps)
    for order in (1, 2, 3):
        state = seed(z0[0], 0, order) + seed(z0[1], 1, order)
        yield (
            lambda order=order: [jq + jp for jq, jp in integrate_flow_jets(ham, z0, t, steps, order).jets],
            lambda state=state: oracle(ham.field_jets, state, t, steps),
        )
    rates = partial(moyal.semiclassical._hbar2_rates(ham), b=ham.params)
    yield lambda: [list(ode_rk4(ham, z0, t, steps))], lambda: [oracle(rates, ode_state(z0), t, steps)[-1][12:]]


def check_loops(ham, z0, t, steps=40):
    """Each loop's outcome equals its oracle's; the outcomes."""
    got = []
    for loop, want in loops_and_oracles(ham, z0, t, steps):
        got.append(outcome(loop))
        assert got[-1] == outcome(want), (str(ham.expr), z0, t, len(got))
    return got


def failing_stage(rhs, state, t, steps, error):
    """(step, stage) of the oracle's call of ``rhs`` that raised ``error``."""
    calls = []

    def counted(s):
        calls.append(s)
        return rhs(s)

    # an overflow is refused as a blowup
    with pytest.raises((error, FlowBlowupError)):
        for _ in rk4(counted, state, t, steps):
            pass
    with pytest.raises(error):
        rhs(calls[-1])
    n = len(calls) - 1
    return n // 4 + 1, n % 4 + 1


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    terms=polynomial_terms,
    z0=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    t=st.floats(0.01, 0.5),
    backward=st.booleans(),
)
def test_loops_match_the_per_stage_oracle_on_polynomials(terms, z0, t, backward):
    ham = HamiltonianSpec(parse_expr(" + ".join(["p^2/2", *(f"({n}/4)*q^{a}*p^{b}" for a, b, n in terms)])))
    check_loops(ham, z0, -t if backward else t)


def test_loops_match_the_per_stage_oracle_on_the_benchmark_hamiltonians():
    hams = [make() for make in BENCH_HAMILTONIANS.values()]
    hams.append(HamiltonianSpec(parse_expr("cosh(q)*p^2/2 + cosh(q/3 - p/5) + q^7/50")))
    for ham in hams:
        for z0, t in (((0.9, -0.7), 0.3), ((-0.4, 1.1), -0.25), ((0.0, -0.0), 0.1)):
            for got in check_loops(ham, z0, t):
                assert type(got) is list


def test_blowup_times_match_the_oracle():
    # 800*q*p: the scalar flow, and the jet flow from q0 = 1e-300, whose
    # derivative overflows at the step the scalar run does
    ham = HamiltonianSpec(parse_expr("800*q*p"))
    scalar, *_jets = check_loops(ham, (1.0, 1.0), 1.0, 2000)
    jets = check_loops(ham, (1e-300, 1.0), 1.0, 2000)[1:4]
    assert scalar[0] is FlowBlowupError
    assert [got[2] for got in jets] == [scalar[2]] * 3


def test_an_overflow_inside_stage_2_or_3_matches_the_oracle():
    # q^3*p overflows its power in stage 3 of step 12 of the scalar flow,
    # q^5*p in stage 2 of step 5 of the scalar and the jet flows
    for text, steps, stage in (("q^3*p", 20, (12, 3)), ("q^5*p", 13, (5, 2))):
        ham = HamiltonianSpec(parse_expr(text))
        assert failing_stage(ham.field, [1.0, 1.0], 1.0, steps, OverflowError) == stage
        if text == "q^5*p":
            for order in (1, 2, 3):
                state = seed(1.0, 0, order) + seed(1.0, 1, order)
                assert failing_stage(ham.field_jets, state, 1.0, steps, OverflowError) == stage
        scalar, *others = check_loops(ham, (1.0, 1.0), 1.0, steps)
        # refused at the end of the step the stage belongs to
        assert scalar == (FlowBlowupError, f"flow became non-finite near t = {stage[0] * (1.0 / steps)}",
                          (stage[0] * (1.0 / steps)).hex())
        assert all(got[0] is FlowBlowupError for got in others)


def test_a_pole_inside_stage_2_matches_the_oracle():
    # q moves at unit speed, so stage 2 of step 3 reads q = pi/2, or q = 0
    # exactly (the steps are dyadic)
    t, steps = 0.25, 8
    for text, pole, text_of_error in (
        ("p + tan(q)", math.pi / 2, "sec evaluated too close to an odd multiple of pi/2"),
        ("p + q^-1", 0.0, "zero raised to a negative power"),
    ):
        ham = HamiltonianSpec(parse_expr(text))
        z0 = (pole - 2.5 * t / steps, 0.3)
        assert failing_stage(ham.field, list(z0), t, steps, ExprDomainError) == (3, 2)
        for got in check_loops(ham, z0, t, steps):
            assert got == (ExprDomainError, text_of_error)


def test_parameter_work_that_fails_fails_as_the_oracle_does():
    # each loop runs the stages' parameter powers once, after the public
    # field's call: a zero to a negative power and an overflowing power
    # are refused as the oracle refuses them, in its first stage
    for params, want in (({"l": 0.0, "m": 1.0}, ExprDomainError), ({"l": 1.0, "m": 1e200}, FlowBlowupError)):
        ham = HamiltonianSpec(parse_expr("p^2/2 + q^3*l^-1 + m^2*q*p"), params)
        for got in check_loops(ham, (0.9, -0.7), 0.3):
            assert got[0] is want, params


def test_each_integration_calls_the_public_field_once(monkeypatch):
    # the first stage of the first step is the public method, which checks
    # the state; every other stage is the field's code inline
    ham = BENCH_HAMILTONIANS["example1"]()
    calls = []
    for name in ("field", "field_jets"):

        def counted(self, s, method=getattr(HamiltonianSpec, name), name=name):
            calls.append(name)
            return method(self, s)

        monkeypatch.setattr(HamiltonianSpec, name, counted)
    integrate_flow(ham, (0.9, -0.7), 0.3)
    assert calls == ["field"]
    for order in (1, 2, 3):
        integrate_flow_jets(ham, (0.9, -0.7), -0.3, order=order)
    assert calls == ["field", "field_jets", "field_jets", "field_jets"]
    # the transport route's rows: one field per row of its scalar pass,
    # then one field_jets per row of its backward pass; the ode route none,
    # as it calls its own kernel
    calls.clear()
    with recording_tables() as runs:
        moyal.semiclassical.hbar2_transport(ham, (0.9, -0.7), 0.3)
        moyal.semiclassical.hbar2_ode(ham, (0.9, -0.7), 0.3)
    forward, backward, _ode = runs
    assert calls == ["field"] * len(forward["rows"]) + ["field_jets"] * len(backward["rows"])
    assert forward["rows"] and backward["rows"]


def test_loops_match_the_oracle_from_signed_zeros():
    # a value may start at -0.0, so the stages keep the text of the values'
    # sums and products, whose zeros' signs a -0.0 state reads
    texts = ("q^2*p/3 + p^2/2", "-q^2*p + p^3/5", "sin(q)*p + p^2/2", "-q^3*p^2 + q*p", "sinh(q)*sin(p)")
    hams = [make() for make in BENCH_HAMILTONIANS.values()]
    hams += [HamiltonianSpec(parse_expr(text)) for text in texts]
    for ham in hams:
        for z0 in itertools.product((0.0, -0.0), repeat=2):
            for t in (0.1, -0.1):
                check_loops(ham, z0, t, 12)


def midpoint(rhs, state, t, n):
    """Gragg's modified midpoint rule as a plain loop, the oracle of the
    "midpoint" loops: the initial state, then the state after each of
    ``n`` substeps of h = t / n, x_1 = x_0 + h f(x_0) and x_{k+1} =
    x_{k-1} + 2h f(x_k).  Fewer than one substep raises ValueError, and
    float overflow or a component that is not finite raises
    FlowBlowupError at the end of its substep."""
    if n < 1:
        raise ValueError(f"the modified midpoint rule needs at least one substep, not {n}")
    h = t / n
    states = [list(state)]
    for k in range(n):
        base, c = (states[-1], h) if k == 0 else (states[-2], 2.0 * h)
        try:
            states.append([x + c * r for x, r in zip(base, rhs(states[-1]), strict=True)])
        except OverflowError:
            raise FlowBlowupError((k + 1) * h) from None
        if not all(map(math.isfinite, states[-1])):
            raise FlowBlowupError((k + 1) * h)
    return states


def carried_jets(z0):
    """Order-3 jets (gq, gp) of a map with value z0 that is not the
    identity's, as the transport route's backward rows carry on."""
    return ([z0[0], 1.25, 0.5, *(0.125 * k for k in range(1, 8))],
            [z0[1], -0.25, 0.75, *(-0.0625 * k for k in range(1, 8))])


def midpoint_loops_and_oracles(ham, z0, t, n):
    """(loop, oracle) run pairs of the "midpoint" loops at ``n`` substeps:
    the scalar flow, the jet flows of orders 1 to 3 and the ode route's
    rates, every state; then the scalar flow and the order-3 jet flow from
    ``carried_jets`` through the flow API, the transport route's rows."""
    rates = partial(moyal.semiclassical._hbar2_rates(ham), b=ham.params)
    flows = [
        (ham._field, "flat", FlatFloats, ham.field, list(z0)),
        *((ham._field, (order, "flat"), FlowJets, ham.field_jets, seed(z0[0], 0, order) + seed(z0[1], 1, order))
          for order in (1, 2, 3)),
        (ham._partials, ham._field, _Hbar2Emitter, rates, ode_state(z0)),
    ]
    for program, key, emitter, rhs, state in flows:
        loop = rk4_loop(program, key, emitter, "midpoint")
        yield (
            lambda loop=loop, rhs=rhs, state=state: [list(state), *loop(state, ham.params, t, n, rhs)],
            lambda rhs=rhs, state=state: midpoint(rhs, state, t, n),
        )
    yield lambda: integrate_flow(ham, z0, t, n, scheme="midpoint").states, lambda: midpoint(ham.field, list(z0), t, n)
    jq, jp = carried_jets(z0)
    yield (
        lambda: [gq + gp for gq, gp in integrate_flow_jets(ham, z0, t, n, 3, start=(jq, jp), scheme="midpoint").jets],
        lambda: midpoint(ham.field_jets, jq + jp, t, n),
    )


def check_midpoint_loops(ham, z0, t, n=20):
    """Each midpoint loop's outcome equals its oracle's; the outcomes."""
    got = []
    for loop, want in midpoint_loops_and_oracles(ham, z0, t, n):
        got.append(outcome(loop))
        assert got[-1] == outcome(want), (str(ham.expr), z0, t, len(got))
    return got


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    terms=polynomial_terms,
    z0=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    t=st.floats(0.01, 0.5),
    n=st.integers(1, 20),
)
def test_midpoint_loops_match_their_oracle_on_polynomials(terms, z0, t, n):
    ham = HamiltonianSpec(parse_expr(" + ".join(["p^2/2", *(f"({n}/4)*q^{a}*p^{b}" for a, b, n in terms)])))
    check_midpoint_loops(ham, z0, t, n)


def test_midpoint_loops_match_their_oracle_on_the_benchmark_hamiltonians():
    for make in BENCH_HAMILTONIANS.values():
        ham = make()
        for z0, t, n in (((0.9, -0.7), 0.5, 20), ((-0.4, 1.1), -0.25, 7), ((0.0, -0.0), 0.1, 1)):
            for got in check_midpoint_loops(ham, z0, t, n):
                assert type(got) is list and len(got) == n + 1


def test_midpoint_blowup_times_match_the_oracle():
    # 800*q*p leaves the float range near t = 0.89 in every flow
    ham = HamiltonianSpec(parse_expr("800*q*p"))
    got = check_midpoint_loops(ham, (1.0, 1.0), 1.0, 2000)
    assert [g[0] for g in got] == [FlowBlowupError] * 7
    assert 0.85 < float.fromhex(got[0][2]) < 0.95


def test_an_overflow_inside_a_substep_matches_the_oracle():
    # q^5*p at 10 substeps of 0.1: its power overflows inside the rates of
    # the eighth substep, read at a state that is finite
    ham = HamiltonianSpec(parse_expr("q^5*p"))
    calls = []

    def counted(s):
        calls.append(s)
        return ham.field(s)

    with pytest.raises(FlowBlowupError):
        midpoint(counted, [1.0, 1.0], 1.0, 10)
    assert len(calls) == 8 and all(map(math.isfinite, calls[-1]))
    with pytest.raises(OverflowError):
        ham.field(calls[-1])
    scalar, *others = check_midpoint_loops(ham, (1.0, 1.0), 1.0, 10)
    assert scalar == (FlowBlowupError, "flow became non-finite near t = 0.8", (8 * 0.1).hex())
    assert all(got[0] is FlowBlowupError for got in others)


def test_fewer_than_one_substep_is_refused():
    ham = BENCH_HAMILTONIANS["quartic"]()
    for got in check_midpoint_loops(ham, (0.9, -0.7), 0.3, 0):
        assert got == (ValueError, "the modified midpoint rule needs at least one substep, not 0")


def float_ops(fn) -> int:
    """The arithmetic instructions of ``fn``'s code: binary operators and
    negations (Python 3.10 names each binary operator)."""
    return sum(
        i.opname in ("BINARY_OP", "UNARY_NEGATIVE")
        or i.opname.startswith(("BINARY_", "INPLACE_")) and not i.opname.endswith(("SUBSCR", "SLICE"))
        for i in dis.get_instructions(fn)
    )


# the arithmetic instructions of every loop: the scalar flow's, the jet
# flows' of orders 1 to 3 and the ode route's.  The order-3 jet and ode
# loops took 1,546 / 1,100, 986 / 660, 666 / 452, 1,190 / 608 and
# 1,714 / 1,256 before the stages left out the work that changes no state.
# Before a jet's square summed each pair of distinct coefficients once and
# doubled it, and before example1's parameter powers ran once per loop, the
# loops took (67, 263, 661, 1405, 1023), (55, 199, 461, 917, 599),
# (51, 155, 337, 633, 411), (47, 139, 321, 677, 455) and
# (91, 319, 765, 1573, 1179).  Before a symmetric pair's mixed product in the
# ode route's drive was one doubled product, the ode loops took 967, 571,
# 383, 451 and 1,108
LOOP_FLOAT_OPS = {
    "squeeze": (67, 247, 605, 1221, 959),
    "quartic": (55, 191, 433, 825, 567),
    "cubic": (51, 147, 309, 541, 383),
    "cosh": (47, 139, 317, 641, 447),
    "example1": (85, 297, 703, 1383, 1100),
}


def stores(fn) -> int:
    """The locals ``fn``'s code stores to: STORE_FAST instructions, and the
    names of the super-instructions that fold two of them into one."""
    return sum(i.opname.count("STORE_FAST") for i in dis.get_instructions(fn))


# the locals every loop stores to, in LOOP_FLOAT_OPS's order: a local read
# once and assigned a sum, difference or product is written into its reader
# (squeeze's were 41, 121, 232, 380, 349 before), and a first-stage rate that
# is a state component is read from it, not copied (quartic's were 33, 68,
# 130, 214, 160, cubic's 30, 58, 109, 178, 134 and cosh's 30, 67, 126, 215,
# 177 before)
LOOP_STORES = {
    "squeeze": (41, 89, 184, 316, 253),
    "quartic": (32, 65, 124, 204, 154),
    "cubic": (29, 55, 103, 168, 128),
    "cosh": (29, 64, 120, 205, 171),
    "example1": (47, 95, 190, 322, 273),
}

def test_the_loops_write_no_more_float_work():
    for name, make in BENCH_HAMILTONIANS.items():
        ham = make()
        loops = [
            rk4_loop(ham._field, "flat", FlatFloats),
            *(rk4_loop(ham._field, (order, "flat"), FlowJets) for order in (1, 2, 3)),
            rk4_loop(ham._partials, ham._field, _Hbar2Emitter),
        ]
        assert tuple(map(float_ops, loops)) == LOOP_FLOAT_OPS[name], name
        assert tuple(map(stores, loops)) == LOOP_STORES[name], name


# the arithmetic instructions and stored locals of the modified midpoint
# loops: the scalar flow's and the order-3 jet flow's, transport's rows, and
# the ode route's; one rate evaluation per substep, about a quarter of the
# RK4 loops' float work per step (LOOP_FLOAT_OPS's first, fourth and last
# columns)
MIDPOINT_LOOP_WORK = {
    "squeeze": ((25, 28), (336, 165), (263, 129)),
    "quartic": ((22, 25), (237, 137), (165, 105)),
    "cubic": ((21, 25), (166, 131), (119, 97)),
    "cosh": ((20, 25), (191, 141), (135, 110)),
    "example1": ((31, 34), (378, 171), (302, 143)),
}


def test_the_midpoint_loops_write_no_more_float_work():
    for name, make in BENCH_HAMILTONIANS.items():
        ham = make()
        loops = [
            rk4_loop(ham._field, "flat", FlatFloats, "midpoint"),
            rk4_loop(ham._field, (3, "flat"), FlowJets, "midpoint"),
            rk4_loop(ham._partials, ham._field, _Hbar2Emitter, "midpoint"),
        ]
        assert tuple((float_ops(loop), stores(loop)) for loop in loops) == MIDPOINT_LOOP_WORK[name], name
