import json
import time

import pytest
from click.testing import CliRunner

from moyal.cli import main


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


def test_example2_rejects_hbar_hamiltonian(runner):
    res = runner.invoke(main, ["example2", "--hamiltonian", "hbar*q"])
    assert res.exit_code == 2


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
    ],
)
def test_blowup_and_overflow_exit_2(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("error: ")


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
    ],
)
def test_out_of_range_input_exits_2(runner, args, message):
    res = runner.invoke(main, args)
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
