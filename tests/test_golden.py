"""Byte-for-byte CLI output against the files in tests/golden.

Each file holds the stdout of one command, which prints nothing to
stderr; a change that alters any of them must say why and regenerate the
file.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from moyal.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "hierarchy_default.csv": ["hierarchy", "--format", "csv"],
    "hierarchy_cosh_steps.csv": [
        "hierarchy", "--hamiltonian", "p^2/2+cosh(q)/4", "--format", "csv", "--steps", "777",
    ],
    "example1.csv": ["example1", "--format", "csv", "--t-steps", "2"],
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
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_stdout_matches_golden(name):
    res = CliRunner().invoke(main, COMMANDS[name])
    assert res.exit_code == 0
    # output is stdout and stderr together, so a stray warning fails too
    assert res.output == (GOLDEN / name).read_text()
