import json
import time

import pytest
from click.testing import CliRunner

from moyal import checks
from moyal.cli import main
from moyal.poly import PhasePolynomial, moyal_bracket
from moyal.semiclassical import route_gap


@pytest.fixture()
def runner():
    return CliRunner()


def test_star_canonical_pair(runner):
    res = runner.invoke(main, ["star", "q", "p"])
    assert res.exit_code == 0
    assert res.output == "q*p + (1/2)*i*hbar\n"


def test_star_squares(runner):
    res = runner.invoke(main, ["star", "q^2", "p^2"])
    assert res.output == "q^2*p^2 + 2*i*hbar*q*p + (-1/2)*hbar^2\n"


def test_star_with_unit(runner):
    res = runner.invoke(main, ["star", "1", "q^3"])
    assert res.output == "q^3\n"


def test_star_single_grade(runner):
    res = runner.invoke(main, ["star", "q^2", "p^2", "--grade", "2"])
    assert res.output == "(-1/2)\n"


def test_star_grade_cap(runner):
    res = runner.invoke(main, ["star", "q", "p", "--grade", "100"])
    assert res.exit_code == 2
    assert "--grade" in res.output


def test_star_parse_error_position(runner):
    res = runner.invoke(main, ["star", "q +* p", "p"])
    assert res.exit_code == 2
    assert "position 3" in res.output


def test_bracket_cubes(runner):
    res = runner.invoke(main, ["bracket", "q^3", "p^3"])
    assert res.output == "9*q^2*p^2 + (-3/2)*hbar^2\n"


def test_bracket_json(runner):
    res = runner.invoke(main, ["bracket", "q^3", "p^3", "--grade", "1", "--format", "json"])
    payload = json.loads(res.output)
    assert payload == {"command": "bracket", "grade": 1, "result": "(-3/2)"}


def test_example2_quartic_default(runner):
    res = runner.invoke(main, ["example2"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    by_seed = {rep["seed"]: rep for rep in payload["reports"]}
    assert by_seed["q"]["first_divergent_order"] == 6
    assert by_seed["p"]["first_divergent_order"] == 5
    assert by_seed["q"]["difference_polynomial"] == "(-1/4)*hbar^2*q"


def test_example2_harmonic_null(runner):
    res = runner.invoke(
        main, ["example2", "--hamiltonian", "(1/2)*p^2 + (1/2)*q^2"]
    )
    payload = json.loads(res.output)
    assert all(rep["first_divergent_order"] is None for rep in payload["reports"])


def test_example2_ratio_check(runner):
    res = runner.invoke(main, ["example2", "--q0", "1", "--p0", "0"])
    payload = json.loads(res.output)
    checks = {c["seed"]: c for c in payload["hbar2_ratio_checks"]}
    assert checks["p"]["within_tolerance"]
    assert checks["p"]["ratio"] == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("t1", ["1e-8", "1e-4", "1e-3", "1e-2"])
def test_example2_small_times_agree_with_taylor(runner, t1):
    # the corrections start at t^6 (seed q) and t^5 (seed p); the ode
    # route's floor of 32 steps keeps its error below them
    res = runner.invoke(main, ["example2", "--q0", "1", "--p0", "1", "--t1", t1])
    assert res.exit_code == 0
    for chk in json.loads(res.output)["hbar2_ratio_checks"]:
        assert chk["within_tolerance"] is True
        assert chk["ratio"] == pytest.approx(1.0, abs=1e-5)


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "args",
    [
        ["--hamiltonian", "(1/2)*p^2 + (1/2)*q^2", "--q0", "1", "--p0", "1"],
        ["--q0", "1", "--p0", "1", "--t1", "0"],
    ],
)
def test_example2_zero_taylor_value_has_no_ratio(runner, args):
    # both routes give exactly 0 here, so the check holds without a ratio
    res = runner.invoke(main, ["example2", *args])
    assert res.exit_code == 0
    for chk in _strict_json(res.output)["hbar2_ratio_checks"]:
        assert chk["taylor"] == 0.0 and chk["ode"] == 0.0
        assert chk["ratio"] is None
        assert chk["within_tolerance"] is True
    res = runner.invoke(main, ["example2", *args, "--format", "text"])
    assert res.output.count("ode/taylor = undefined (ok)") == 2


def test_example2_rejects_hbar_hamiltonian(runner):
    for text in ("hbar*q", "p^2/2 + hbar*q^2"):
        res = runner.invoke(main, ["example2", "--hamiltonian", text])
        assert res.exit_code == 2
        assert res.output == "error: the Hamiltonian must be hbar-free\n"


def test_example1_initial_time_row_is_trivial(runner):
    res = runner.invoke(
        main,
        ["example1", "--t0", "0", "--t1", "0", "--t-steps", "1", "--skip-hbar2", "--format", "json"],
    )
    assert res.exit_code == 0
    row = json.loads(res.output)[0]
    assert row["pb_classical"] == pytest.approx(1.0)
    assert row["pb_deformed"] == pytest.approx(1.0)
    assert row["bracket_classical"] == pytest.approx(1.0)
    assert row["bracket_deformed"] == pytest.approx(1.0)
    assert row["coord_residual"] == pytest.approx(0.0, abs=1e-15)
    assert row["product_drift"] == pytest.approx(0.0, abs=1e-15)


def test_example1_known_row(runner):
    res = runner.invoke(
        main,
        ["example1", "--t0", "1", "--t1", "1", "--t-steps", "1", "--skip-hbar2", "--format", "json"],
    )
    row = json.loads(res.output)[0]
    import math

    assert row["pb_deformed"] == pytest.approx(1.0 / math.cos(0.025) ** 4, rel=1e-9)
    assert row["bracket_classical"] == pytest.approx((1 + 0.025**2) ** -2, rel=1e-9)
    assert row["bracket_classical_converged"] is True
    assert row["product_drift"] < 1e-12
    assert row["coord_residual"] > 1e-4


def test_example1_validity_guard(runner):
    res = runner.invoke(main, ["example1", "--t1", "70"])
    assert res.exit_code == 2
    assert "validity" in res.output


@pytest.mark.parametrize(
    "q0, column", [("-6", "hbar2_position_rel"), ("6", "hbar2_momentum_rel")]
)
def test_example1_zero_closed_form_coefficient_exits_0(runner, q0, column):
    # at t = 1 the closed-form coefficient (1 +- t q0 p0 / 6) of this column is 0
    res = runner.invoke(
        main, ["example1", "--q0", q0, "--p0", "1", "--t-steps", "1", "--format", "json"]
    )
    assert res.exit_code == 0
    assert json.loads(res.output)[0][column] == 1.0


def test_hierarchy_long_time_finishes(runner):
    start = time.perf_counter()
    res = runner.invoke(main, ["hierarchy", "--t0", "2", "--t1", "2", "--t-steps", "1"])
    assert res.exit_code == 0
    assert time.perf_counter() - start < 20.0


@pytest.mark.parametrize(
    "args, where",
    [
        # a stiff potential: the routes have not converged at the top
        (["--hamiltonian", "p^2/2 + exp(10*q)", "--q0", "1", "--p0", "0", "--t-steps", "1", "--t1", "1"],
         "at t = 1 the ode and transport routes differ in P2: -0.0148432757035 (ode) against "
         "-0.0153089922181 (transport)"),
        # the flow turns just short of the pole of tan near q = 1.533, which
        # neither route resolves at the top
        (["--hamiltonian", "p^2/2+tan(q)", "--q0", "1.5", "--p0", "5", "--t0", "0.2", "--t1", "0.2",
          "--t-steps", "1"],
         "at t = 0.2 the ode and transport routes differ in P2: -0.667541691333 (ode) against "
         "-0.667587539043 (transport)"),
    ],
)
def test_hierarchy_route_gap_exits_1(runner, args, where):
    res = runner.invoke(main, ["hierarchy", *args, "--format", "csv"])
    assert res.exit_code == 1
    assert res.output.startswith("t,Q2,P2,method\n")
    assert f"error: {where}, relative gap " in res.output
    assert res.output.endswith(" > 1e-06\n")


def test_hierarchy_route_gap_is_relative_to_the_larger_value():
    assert route_gap(0.0, 0.0) == 0.0
    assert route_gap(-2.0, 1.0) == 1.5
    assert route_gap(1e-300, 0.0) == 1.0
    assert route_gap(float("nan"), 1.0) == route_gap(1.0, float("inf")) == float("inf")


def test_example1_csv_header(runner):
    res = runner.invoke(
        main,
        ["example1", "--t0", "0", "--t1", "0", "--t-steps", "1", "--skip-hbar2", "--format", "csv"],
    )
    header = res.output.splitlines()[0]
    assert header.startswith("t,q_classical,p_classical,q_deformed,p_deformed,")


def test_hierarchy_csv(runner):
    res = runner.invoke(
        main,
        ["hierarchy", "--t0", "0.1", "--t1", "0.1", "--t-steps", "1", "--format", "csv"],
    )
    lines = res.output.splitlines()
    assert lines[0] == "t,Q2,P2,method"
    methods = sorted(line.rsplit(",", 1)[1] for line in lines[1:])
    assert methods == ["ode", "taylor", "transport"]
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert max(vals) == pytest.approx(min(vals), rel=1e-6)


def test_check_subset_passes(runner):
    res = runner.invoke(main, ["check", "--only", "poly-roundtrip", "--cases", "10"])
    assert res.exit_code == 0
    assert "PASS" in res.output
    assert "1/1 suites passed" in res.output


def test_check_unknown_suite(runner):
    res = runner.invoke(main, ["check", "--only", "nonesuch"])
    assert res.exit_code == 2


def test_check_json_format(runner):
    res = runner.invoke(
        main, ["check", "--only", "bch", "--order", "2", "--format", "json"]
    )
    payload = json.loads(res.output)
    assert payload[0]["name"] == "bch"
    assert payload[0]["passed"] is True


def test_check_deterministic_output(runner):
    args = ["check", "--only", "star-associativity", "--cases", "15", "--seed", "7"]
    first = runner.invoke(main, args).output
    second = runner.invoke(main, args).output
    assert first == second


def test_check_failure_prints_fail_and_exits_1(runner, monkeypatch):
    one = PhasePolynomial.monomial(1, 0, 0, 0)
    monkeypatch.setattr(checks, "moyal_bracket", lambda f, g: moyal_bracket(f, g) + one)
    res = runner.invoke(main, ["check", "--only", "bracket-antisymmetry"])
    assert res.exit_code == 1
    assert res.output == "FAIL  bracket-antisymmetry  [1 cases]  (mismatch)\n0/1 suites passed\n"


@pytest.mark.parametrize(
    "args, option",
    [
        (["example1", "--hbar", "nan"], "--hbar"),
        (["example1", "--q0", "nan", "--skip-hbar2"], "--q0"),
        (["hierarchy", "--q0", "nan"], "--q0"),
        (["check", "--cases", "0"], "--cases"),
        (["check", "--order", "20"], "--order"),
    ],
)
def test_bad_numeric_input_exits_2(runner, args, option):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert f"Invalid value for '{option}'" in res.output


DEEP = "(" * 3000 + "q" + ")" * 3000


@pytest.mark.parametrize(
    "args", [["star", DEEP, "p"], ["hierarchy", "--hamiltonian", DEEP]]
)
def test_deep_nesting_exits_2_with_position(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "nesting deeper than 100 (at position 101)" in res.output


@pytest.mark.parametrize(
    "args",
    [
        ["hierarchy", "--q0", "1e200"],
        ["hierarchy", "--hamiltonian", "exp(exp(exp(exp(q))))"],
        ["hierarchy", "--hamiltonian", "q^2*p", "--t1", "2", "--t-steps", "1"],
        ["example1", "--q0", "1e200", "--t1", "0.1", "--t-steps", "1"],
        ["example1", "--q0", "1e200", "--t1", "0.1", "--t-steps", "1", "--skip-hbar2"],
        ["example2", "--hamiltonian", "q^2*p", "--q0", "1", "--p0", "1", "--t1", "2"],
        ["hierarchy", "--hamiltonian", "p^2/2+sec(q)", "--q0", "1.5707963267948966", "--p0", "0", "--t-steps", "1"],
        ["hierarchy", "--hamiltonian", "1/q", "--q0", "0", "--t-steps", "1"],
        ["example2", "--hamiltonian", "p^2/2+i*q^2", "--q0", "1", "--p0", "1"],
    ],
)
def test_blowup_and_overflow_exit_2(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: ")


@pytest.mark.parametrize("name", ["hbar", "t"])
def test_a_hamiltonian_in_t_or_hbar_is_refused_as_such(runner, name):
    # no flag binds t or hbar, and binding either is refused too, so the
    # error names the rule rather than an unbound symbol
    res = runner.invoke(main, ["hierarchy", "--hamiltonian", f"p^2/2 + {name}*q^2"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.output == "error: the Hamiltonian must not depend on t or hbar\n"


@pytest.mark.parametrize("t1", ["0.3", "0.05", "1"])
def test_a_backward_pass_blowup_reports_a_time_the_user_asked_for(runner, t1):
    # the forward flow stays finite; the transport route's backward jet pass
    # from z(T) overflows, at a time that must lie in [0, T]
    args = ["hierarchy", "--hamiltonian", "p^2/2 + exp(10*q)", "--q0", "5", "--p0", "0", "--t-steps", "1"]
    res = runner.invoke(main, [*args, "--t1", t1])
    assert res.exit_code == 2
    prefix = "error: flow became non-finite near t = "
    assert res.output.startswith(prefix)
    assert 0.0 <= float(res.output[len(prefix):]) <= float(t1)


@pytest.mark.parametrize(
    "args, message",
    [
        (["hierarchy", "--depth", "0"], "Invalid value for '--depth'"),
        (["hierarchy", "--depth", "11"], "Invalid value for '--depth'"),
        (["example2", "--depth", "0"], "Invalid value for '--depth'"),
        (["example2", "--depth", "11"], "Invalid value for '--depth'"),
        (["hierarchy", "--t0", "-0.1", "--t-steps", "2"], "times >= 0"),
        (["example1", "--t0", "-0.5", "--t1", "0.5", "--t-steps", "2"], "times >= 0"),
        (["example2", "--q0", "1", "--p0", "1", "--t1", "-0.1"], "--t1 must be >= 0"),
        (["example1", "--grade", "-1"], "Invalid value for '--grade'"),
        (["example1", "--grade", "40"], "Invalid value for '--grade'"),
    ],
)
def test_out_of_range_input_exits_2(runner, args, message):
    start = time.perf_counter()
    res = runner.invoke(main, args)
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert message in res.output


def test_degree_budget_exits_2_quickly(runner):
    start = time.perf_counter()
    res = runner.invoke(main, ["star", "q^100000000", "p^100000000"])
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 2
    assert "degree above 64 (at position 1)" in res.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["star", "9" * 5000, "p"], "integer of more than 4300 digits (at position 0)"),
        (["star", "q^" + "9" * 5000, "p"], "integer of more than 4300 digits (at position 2)"),
        (["hierarchy", "--hamiltonian", "q^" + "9" * 5000], "integer of more than 4300 digits (at position 2)"),
        (["star", "2^10000000", "p"], "power with coefficients above 4096 bits (at position 1)"),
        (["star", "9" * 3000 + "*" + "9" * 3000, "p"], "product with coefficients above 4096 bits (at position 3000)"),
        (["hierarchy", "--hamiltonian", "1/0"], "division by zero (at position 1)"),
    ],
)
def test_oversized_constants_and_division_by_zero_exit_2_quickly(runner, args, message):
    start = time.perf_counter()
    res = runner.invoke(main, args)
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert message in res.output


def test_star_of_inputs_at_the_coefficient_budget_prints(runner):
    # numerators and common denominators of 4096 bits, the budget
    top, den_f, den_g = 2 ** 4096 - 1, 2 ** 4095 + 1, 2 ** 4095 + 3
    left = f"({top}/{den_f})*q^3*p + (1/{den_f})*q*p^2 + p^3"
    right = f"({top}/{den_g})*p^3*q + (1/{den_g})*i*q^2 + p"
    res = runner.invoke(main, ["star", left, right])
    assert res.exit_code == 0
    longest = max(len(part) for part in res.output.replace("/", " ").replace("*", " ").split())
    assert 2400 < longest < 4300


def test_hierarchy_reads_division_by_constants_as_polynomial(runner):
    args = ["hierarchy", "--t0", "0.1", "--t1", "0.1", "--t-steps", "1", "--format", "csv"]
    divided = runner.invoke(main, args + ["--hamiltonian", "p^2/2 + q^4/24"])
    multiplied = runner.invoke(main, args + ["--hamiltonian", "(1/2)*p^2 + (1/24)*q^4"])
    assert divided.exit_code == multiplied.exit_code == 0
    assert divided.output == multiplied.output
    assert divided.output.count(",taylor") == 1


def test_hamiltonian_power_above_the_degree_budget_exits_2_quickly(runner):
    start = time.perf_counter()
    res = runner.invoke(
        main, ["hierarchy", "--hamiltonian", "p^2/2+q^100000", "--q0", "0.5", "--t-steps", "1"]
    )
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "exponent above 64" in res.output


@pytest.mark.parametrize(
    "option, value",
    [
        ("--steps", "0"),
        ("--steps", "-3"),
        ("--steps", "20001"),
        # no such option: the transport route's nodes are its RK4 steps
        ("--quad-nodes", "8"),
    ],
)
def test_hierarchy_work_options_out_of_range_exit_2_quickly(runner, option, value):
    start = time.perf_counter()
    res = runner.invoke(main, ["hierarchy", option, value])
    assert time.perf_counter() - start < 1.0
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert (f"Invalid value for '{option}'" if option == "--steps" else f"No such option '{option}'") in res.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["star", "(q+p+1)^32", "(q-p+1)^32"], "star product of 561 by 561 terms is above the budget of 200000 term products"),
        (["bracket", "(q+p)^64", "(q-p)^64"], "bracket of 65 by 65 terms is above the budget of 200000 term products"),
        (["star", "(q+p+hbar+1)^32*(q+p+hbar+1)^32", "p"], "power of more than 200000 term products (at position 12)"),
        (["star", "p", "(q+p+hbar+1)^32"], "cannot parse second symbol: power of more than 200000 term products (at position 12)"),
        (["star", "--grade", "16", "(q+p+1)^16", "(q-p+1)^16"], "star grade of 153 by 153 terms is above the budget"),
    ],
)
def test_term_product_budget_exits_2_quickly(runner, args, message):
    start = time.perf_counter()
    res = runner.invoke(main, args)
    assert time.perf_counter() - start < 2.0
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert message in res.output
