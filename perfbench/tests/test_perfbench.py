"""Self-tests of the benchmark: seeded inputs, tracing that changes nothing,
and per-layer counts that repeat.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
from fractions import Fraction

import pytest

import fixed
import oracle
import run
import tracing
import workloads

# jobs per traced pass: the first schedule block of exact-algebra, the first
# four sweep slots, the first hbar2 slot
SMALL = {"exact-algebra": 20, "closed-form-sweep": 4, "hbar2-routes": 1}

# span names each workload must drive; a missed rebinding reads 0
DRIVEN = {
    "exact-algebra": [f"poly.{n}" for n in tracing.WRAPPED["poly"]]
    + [f"words.{n}" for n in tracing.WRAPPED["words"]]
    + ["semiclassical.divergence_order", "semiclassical.iterated_brackets"],
    "hbar2-routes": [
        "semiclassical.hbar2_ode", "semiclassical.hbar2_transport",
        "flow.integrate_flow", "flow.integrate_flow_jets", "flow.field", "flow.field_jets",
        "jets.eval_expr_jet", "expr.differentiate", "expr.eval_expr", "expr.parse_expr",
        "closed_forms.builtin_example1",
    ],
    "closed-form-sweep": [
        "brackets.moyal_bracket_truncated", "expr.differentiate", "expr.eval_expr",
        "expr.parse_expr", "closed_forms.builtin_example1",
    ],
}


@pytest.fixture(scope="module")
def traced():
    """Two traced runs per workload, with the same seed."""
    return {w: [run.traced_passes(w, 3, n) for _ in range(2)] for w, n in SMALL.items()}


@pytest.mark.parametrize("workload", fixed.WORKLOADS)
def test_one_seed_gives_one_job_list(workload):
    fx = fixed.build(workload)
    n = 2 * SMALL[workload]
    first = [repr(j) for j in workloads.first_jobs(workload, 5, fx, n)]
    again = [repr(j) for j in workloads.first_jobs(workload, 5, fx, n)]
    other = [repr(j) for j in workloads.first_jobs(workload, 6, fx, n)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", fixed.WORKLOADS)
def test_traced_outputs_are_bit_identical(traced, workload):
    for _tracer, (plain, _v, _b), (digests, _v2, _b2) in traced[workload]:
        assert digests == plain


@pytest.mark.parametrize("workload", fixed.WORKLOADS)
def test_wrappers_are_restored(traced, workload):
    for tracer, _plain, _traced in traced[workload]:
        assert tracer.bound_wrappers() == []
    import moyal
    from moyal import brackets, flow, poly, semiclassical

    for fn in (moyal.star_product, poly.star_n, semiclassical.moyal_bracket,
               brackets.differentiate, flow.eval_expr_jet, moyal.hbar2_transport,
               flow.HamiltonianSpec.field, flow.HamiltonianSpec.field_jets):
        assert not hasattr(fn, "__wrapped__"), fn


@pytest.mark.parametrize("workload", fixed.WORKLOADS)
def test_driven_calls_are_non_zero(traced, workload):
    tracer = traced[workload][0][0]
    metrics = tracer.metrics()
    missing = [name for name in DRIVEN[workload] if metrics[f"{name}.calls"][0] == 0]
    assert missing == []
    if workload != "closed-form-sweep":
        assert metrics["brackets.pair_repeat_share"][0] == 0


@pytest.mark.parametrize("workload", fixed.WORKLOADS)
def test_per_layer_counts_repeat(traced, workload):
    (a, _pa, _ta), (b, _pb, _tb) = traced[workload]
    assert a.calls == b.calls
    assert a.counts == b.counts
    assert list(a.span_name) == list(b.span_name)
    assert list(a.span_parent) == list(b.span_parent)
    assert list(a.span_job) == list(b.span_job)


def test_install_twice_is_refused():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.bound_wrappers() == []


def test_reference_star_product():
    q, p = oracle.monomial(1, 1, 0), oracle.monomial(1, 0, 1)
    half = Fraction(1, 2)
    assert oracle.star(q, p) == {(1, 1, 0): (1, 0), (0, 0, 1): (0, half)}
    assert oracle.bracket(q, p) == {(0, 0, 0): (1, 0)}


def test_linear_power_closed_form_matches_reference_star():
    a, b = (Fraction(3, 2), Fraction(-2, 3), Fraction(1, 5)), (1, Fraction(5, 7), -2)
    for m, n in ((1, 1), (2, 3), (3, 2)):
        want = oracle.star(oracle.power(oracle.linear(a), m), oracle.power(oracle.linear(b), n))
        assert oracle.linear_power_star(a, b, m, n) == want


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.percentile(values, 0.5) == 3.0
    assert run.percentile(values, 0.9) == 5.0
    assert run.percentile(values * 3, 0.5) == run.percentile(values, 0.5)


def test_timed_run_reports_every_end_to_end_metric():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    result = run.timed_run("exact-algebra", 1, 0.001)
    assert result["correct"] and result["attempted"] == 20 and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_squeeze_closed_form_matches_criterion_06():
    # criterion 06 pins Q2 at z0 = (1, 1), m = l = 1
    for t in (0.1, 0.2, 0.3):
        want_q = math.exp(t / 2.0) * (t * t / 16.0) * (1.0 + t / 6.0)
        q2, _p2 = workloads.squeeze_closed_form((1.0, 1.0), t)
        assert abs(q2 / want_q - 1.0) < 1e-12


def test_missing_package_source_exits_without_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.HERE / "no-such-src")
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "exact-algebra", "--seed", "1", "--seconds", "1"])
    assert exc.value.code not in (0, None)
    assert capsys.readouterr().out == ""
