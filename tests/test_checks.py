import inspect
from dataclasses import replace

import pytest

from moyal import semiclassical
from moyal.checks import (
    SUITES,
    prefactor_consistency_report,
    resolve_suites,
    run_checks,
)


def test_resolve_exact_and_substring():
    assert resolve_suites(["bch"]) == ["bch"]
    assert resolve_suites(["associativity"]) == ["star-associativity"]
    got = resolve_suites(["bracket"])
    assert "bracket-jacobi" in got and "star-bracket-identity" in got


def test_resolve_unknown_raises():
    with pytest.raises(KeyError):
        resolve_suites(["nonesuch"])


def test_resolve_deduplicates():
    got = resolve_suites(["bch", "bch"])
    assert got == ["bch"]


def test_hbar2_routes_suite_checks_the_route_gap_beyond_squeeze():
    # quartic, cubic and cosh from two (z0, t) cases each, at a 1e-6 gap
    (outcome,) = run_checks(only=["hbar2-routes"])
    assert outcome.passed
    assert outcome.cases == 7
    assert "route gap" in outcome.detail


def scale_p2(route, factor):
    """``route`` with its P2 scaled by ``factor`` where the Hamiltonian binds
    parameters, which of the suite's cases only squeeze does."""

    def scaled(ham, z0, t, *args):
        res = route(ham, z0, t, *args)
        return replace(res, p2=(res.p2[0] * factor,)) if ham.params else res

    return scaled


@pytest.mark.parametrize(
    "ode_factor, transport_factor, detail",
    [
        # both routes off squeeze's P2 closed form by 2e-6, with no gap
        (1 + 2e-6, 1 + 2e-6, "squeeze worst rel 2e-06, route gap 7.76e-10"),
        # each within 1e-6 of it, and 1.8e-6 apart
        (1 + 9e-7, 1 - 9e-7, "squeeze worst rel 9e-07, route gap 1.8e-06"),
    ],
)
def test_hbar2_routes_suite_checks_squeeze_p2(monkeypatch, ode_factor, transport_factor, detail):
    monkeypatch.setattr(semiclassical, "hbar2_ode", scale_p2(semiclassical.hbar2_ode, ode_factor))
    monkeypatch.setattr(
        semiclassical, "hbar2_transport", scale_p2(semiclassical.hbar2_transport, transport_factor)
    )
    (outcome,) = run_checks(only=["hbar2-routes"])
    assert not outcome.passed
    assert outcome.detail == detail


def test_run_named_subset():
    outcomes = run_checks(only=["poly-roundtrip"], cases=10)
    assert len(outcomes) == 1
    assert outcomes[0].passed
    assert outcomes[0].cases == 10


def test_case_override_reaches_randomized_suites():
    outcomes = run_checks(only=["star-associativity"], cases=5)
    assert outcomes[0].cases == 5


@pytest.mark.parametrize(
    "name", [name for name, fn in SUITES.items() if "cases" in inspect.signature(fn).parameters]
)
def test_one_case_is_never_zero_cases(name):
    (outcome,) = run_checks(only=[name], cases=1)
    assert outcome.passed
    assert outcome.cases >= 1


def test_order_override_reaches_composition_suite():
    outcomes = run_checks(only=["bch"], order=3)
    assert outcomes[0].cases == 3
    assert outcomes[0].passed


def test_all_suites_have_callables():
    for name, fn in SUITES.items():
        assert callable(fn), name


def test_prefactor_report_shape():
    rep = prefactor_consistency_report()
    assert rep["matches_first_power"] is True
    assert rep["matches_squared"] is False
    assert rep["a2"] == rep["sec_first_power"]
