"""Byte-for-byte CLI output against the files in tests/golden, and the
bits of the numeric flow against ``flow_bits.json`` and of jet calls and
powers against ``call_jets.json``.

Each text file holds the stdout of one command, which prints nothing to
stderr; ``refusals.json`` holds the stdout, stderr and exit code of the
commands that refuse or exit 1.  A change that alters any of them must say
why and regenerate the file.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from moyal.cli import main
from moyal.expr import Program, parse_expr
from moyal.flow import FlowBlowupError, HamiltonianSpec, integrate_flow_jets
from moyal.jets import eval_expr_jet, seed
from moyal.semiclassical import hbar2_ode, hbar2_transport

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "hierarchy_default.csv": ["hierarchy", "--format", "csv"],
    "hierarchy_cosh_steps.csv": [
        "hierarchy", "--hamiltonian", "p^2/2+cosh(q)/4", "--format", "csv", "--steps", "777",
    ],
    "example1.csv": ["example1", "--format", "csv", "--t-steps", "2"],
    # complex runs of the grade-12 bracket ladders, off the default point
    "example1_grade12.csv": [
        "example1", "--format", "csv", "--skip-hbar2", "--q0", "-0.7", "--p0", "1.1", "--hbar", "0.05",
        "--grade", "12", "--t-steps", "3",
    ],
    "example2.json": ["example2", "--q0", "1", "--p0", "1"],
    "star.txt": ["star", "(q+2*p)^3", "q^2*p - hbar*q"],
    "bracket.txt": ["bracket", "q^4 + q*p^3", "q^3*p^2"],
    "hierarchy_default.json": ["hierarchy", "--format", "json"],
    "hierarchy_params.csv": [
        "hierarchy", "--hamiltonian", "q^2*p^2/(4*m*l^2)", "--m", "1.3", "--l", "0.7",
        "--format", "csv",
    ],
    # calls, a power above 4 and the transport route's inverse, written out
    "hierarchy_calls.csv": [
        "hierarchy", "--hamiltonian", "p^2/2 + q^6/30 + sec(q/4) + q*tan(p/5)", "--q0", "0.6",
        "--p0", "-0.4", "--t1", "0.2", "--t-steps", "2", "--format", "csv",
    ],
    "check_bch_roundtrip.json": [
        "check", "--only", "bch", "--only", "poly-roundtrip", "--cases", "7", "--seed", "3",
        "--format", "json",
    ],
    # every suite that draws or lists its cases through the shared runner,
    # plus the two randomized tolerance suites
    "check_randomized.json": [
        "check", "--seed", "5", "--cases", "8", "--order", "3", "--format", "json",
        *(
            arg
            for name in (
                "star-associativity", "bracket-jacobi", "bracket-antisymmetry",
                "star-bracket-identity", "deformation-limits", "conjugation",
                "bracket-reality", "symmetrization", "sas-identity", "bch",
                "poly-roundtrip", "expr-roundtrip", "expr-derivatives", "odd-grades",
                "quadratic-coincidence", "example1-closed-forms",
            )
            for arg in ("--only", name)
        ),
    ],
}


def command_output(name):
    """The exit code and output, stdout and stderr together, of the command
    whose stdout the text file ``name`` holds."""
    res = CliRunner().invoke(main, COMMANDS[name])
    return res.exit_code, res.output


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_stdout_matches_golden(name):
    # output is stdout and stderr together, so a stray warning fails too
    assert command_output(name) == (0, (GOLDEN / name).read_text())


def test_refusals_match_golden():
    """stdout, stderr and exit code of the numeric commands that refuse (exit
    2) or reject their own result (exit 1), and of two that exit 0.

    Some of these record wrong verdicts that still stand: the (q+p)^4 and
    cosh(q+p) runs, whose exact hbar^2 correction is 0, exit 1 on round-off
    (the route gap has no absolute floor), and both q^16 runs exit 0 while
    their depth-8 Taylor values are far off.  A change to the route verdict
    regenerates those entries and says why.
    """
    golden = json.loads((GOLDEN / "refusals.json").read_text())
    assert refusals(golden) == golden


def refusals(golden):
    """``refusals.json``'s content with each record's outcome run again."""
    records = []
    for rec in golden["records"]:
        res = CliRunner().invoke(main, rec["args"])
        records.append({"args": rec["args"], "exit_code": res.exit_code, "stdout": res.stdout, "stderr": res.stderr})
    return {**golden, "records": records}


def flow_bits(ham, z0, t, spu):
    """float.hex of both hbar^2 routes and of the final order-1 to 3 jets at
    ``spu`` steps per unit time; a part that blows up gives the error's
    class, text and time instead."""

    def bits(run):
        try:
            return run()
        except FlowBlowupError as err:
            return {"error": [type(err).__name__, str(err), err.time.hex()]}

    def routes(route):
        res = route(ham, z0, t, steps_per_unit=spu)
        return [x.hex() for x in res.q2 + res.p2]

    def jets(order):
        final = integrate_flow_jets(ham, z0, t, round(spu * t), order).jets[-1]
        return [[x.hex() for x in jet] for jet in final]

    return {
        "ode": bits(lambda: routes(hbar2_ode)),
        "transport": bits(lambda: routes(hbar2_transport)),
        "jets": {str(order): bits(lambda: jets(order)) for order in (1, 2, 3)},
    }


def test_flow_bits_match_golden():
    # float.hex of both hbar^2 routes and of the final order-1 to 3 jets, at
    # a reduced resolution, with bound parameters, a power outside 2 to 4
    # and a blowup, and for four of the benchmark's Hamiltonians at the
    # default resolution (a record's own steps_per_unit); the Hamiltonians
    # are polynomials, so no exp or trig call, whose last bits differ
    # between C libraries, reaches them
    golden = json.loads((GOLDEN / "flow_bits.json").read_text())
    for rec, want in zip(flow_bits_records(golden)["records"], golden["records"]):
        assert rec == want, (rec["hamiltonian"], rec["z0"], rec["t"])


def flow_bits_records(golden):
    """``flow_bits.json``'s content with each record's bits computed again."""
    hams, records = {}, []
    for rec in golden["records"]:
        text, params, z0, t = rec["hamiltonian"], rec.get("params", {}), tuple(rec["z0"]), rec["t"]
        spu = rec.get("steps_per_unit", golden["steps_per_unit"])
        ham = hams.setdefault((text, tuple(params.items())), HamiltonianSpec(parse_expr(text), params))
        records.append({**rec, **flow_bits(ham, z0, t, spu)})
    return {**golden, "records": records}


def test_call_jets_match_golden():
    # float.hex of eval_expr_jet at orders 1 to 3 where calls (other than tan
    # and sec) and powers outside 2 to 4 meet jets, alone and in composites,
    # at points with signed zeros, and the class and text of each refusal;
    # the calls' last bits come from the C library (the file was written on
    # Linux x86-64 with glibc)
    golden = json.loads((GOLDEN / "call_jets.json").read_text())
    for rec, want in zip(call_jets_records(golden)["records"], golden["records"]):
        assert rec == want


def call_jets_records(golden):
    """``call_jets.json``'s content with each record's jet computed again."""
    programs, records = {}, []
    for rec in golden["records"]:
        text, order = rec["expr"], rec["order"]
        q, p = (float.fromhex(x) for x in rec["z0"])
        program = programs.setdefault(text, Program(parse_expr(text)))
        got = {k: rec[k] for k in ("expr", "z0", "order")}
        try:
            jet = eval_expr_jet(program, {"q": seed(q, 0, order), "p": seed(p, 1, order)}, order)
        except (ArithmeticError, ValueError) as err:
            got["error"] = [type(err).__name__, str(err)]
        else:
            got["jet"] = [x.hex() for x in jet]
        records.append(got)
    return {**golden, "records": records}


# the JSON golden files and the function that computes each one's content
# again from the records it holds
JSON_FILES = {
    "refusals.json": refusals,
    "flow_bits.json": flow_bits_records,
    "call_jets.json": call_jets_records,
}
