"""Command-line front end.

Six subcommands: ``star`` and ``bracket`` for exact polynomial calculus,
``hierarchy`` for the numeric hbar^2 routes, ``example1`` and ``example2``
for the two bundled worked systems, and ``check`` for the invariant
suites.  Output is deterministic for a fixed set of flags: floats print as
``%.17g`` in CSV, JSON is dumped with sorted keys, and every random draw
comes from ``random.Random(seed)``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import click

from .brackets import MAX_EXPR_GRADE, moyal_bracket_truncated, poisson_expr
from .checks import SUITES, run_checks
from .closed_forms import builtin_example1
from .expr import ExprParseError, Program, eval_expr, parse_expr
from .flow import STEPS_PER_UNIT_TIME, FlowBlowupError, HamiltonianSpec
from .poly import (
    MAX_DEGREE,
    EvalPoint,
    PolyParseError,
    bracket_2n,
    format_poly,
    moyal_bracket,
    parse_poly,
    star_n,
    star_product,
)
from .semiclassical import (
    MAX_LADDER_DEPTH,
    divergence_order,
    hbar2_ode,
    hbar2_routes,
    taylor_flow,
)
from .words import MAX_BCH_ORDER


class _FiniteFloat(click.types.FloatParamType):
    """A float option that refuses nan and infinities (exit 2)."""

    def convert(self, value, param, ctx):
        x = super().convert(value, param, ctx)
        if not math.isfinite(x):
            self.fail(f"{value!r} is not a finite number", param, ctx)
        return x


FLOAT = _FiniteFloat()


def _fail(message: str, code: int = 2) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _parse_poly_arg(text: str, what: str):
    try:
        return parse_poly(text)
    except PolyParseError as exc:
        _fail(f"cannot parse {what}: {exc}")


def _parse_expr_arg(text: str, what: str):
    try:
        return parse_expr(text)
    except ExprParseError as exc:
        _fail(f"cannot parse {what}: {exc}")


def _emit_json(payload) -> None:
    # nan and infinities are not JSON; refusing them keeps every output parseable
    click.echo(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


def _g(x: float) -> str:
    return f"{x:.17g}"


def _time_grid(t0: float, t1: float, t_steps: int) -> list[float]:
    if t_steps == 1:
        return [t1]
    return [t0 + (t1 - t0) * k / (t_steps - 1) for k in range(t_steps)]


class _Main(click.Group):
    """The one place where bad input becomes ``error: <message>`` and exit 2:
    ``ValueError`` (the package's bad-input family), ``FlowBlowupError`` and
    ``OverflowError``.  Anything else is a bug and keeps its traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, FlowBlowupError) as exc:
            _fail(str(exc))
        except OverflowError as exc:
            _fail(f"float overflow: {exc}")


@click.group(cls=_Main)
def main() -> None:
    """Exact star-product calculus and semiclassical trajectory tools."""


# -- exact polynomial commands ------------------------------------------


def _graded_op(command: str, left: str, right: str, grade: int | None, fmt: str, piece, full) -> None:
    f = _parse_poly_arg(left, "first symbol")
    g = _parse_poly_arg(right, "second symbol")
    text = format_poly(full(f, g) if grade is None else piece(f, g, grade))
    if fmt == "json":
        _emit_json({"command": command, "grade": grade, "result": text})
    else:
        click.echo(text)


@main.command()
@click.argument("left")
@click.argument("right")
@click.option("--grade", type=click.IntRange(0, MAX_DEGREE), default=None, help="Print a single hbar grade instead of the full product.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def star(left: str, right: str, grade: int | None, fmt: str) -> None:
    """Exact star product of two polynomial symbols."""
    _graded_op("star", left, right, grade, fmt, star_n, star_product)


@main.command()
@click.argument("left")
@click.argument("right")
@click.option("--grade", type=click.IntRange(0, MAX_DEGREE), default=None, help="Print bracket grade 2n for the given n instead of the full sum.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def bracket(left: str, right: str, grade: int | None, fmt: str) -> None:
    """Exact deformed bracket of two polynomial symbols."""
    _graded_op("bracket", left, right, grade, fmt, bracket_2n, moyal_bracket)


# -- numeric hbar^2 routes ----------------------------------------------


@main.command()
@click.option("--hamiltonian", "ham_text", default="(1/4)*q^2*p^2", show_default=True, help="Hamiltonian, expression grammar; polynomial texts also enable the exact Taylor route.")
@click.option("--q0", type=FLOAT, default=1.0, show_default=True)
@click.option("--p0", type=FLOAT, default=1.0, show_default=True)
@click.option("--t0", type=FLOAT, default=0.1, show_default=True)
@click.option("--t1", type=FLOAT, default=0.3, show_default=True)
@click.option("--t-steps", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--m", type=FLOAT, default=None, help="Bind the symbol m.")
@click.option("--l", type=FLOAT, default=None, help="Bind the symbol l.")
@click.option("--lambda", "lam", type=FLOAT, default=None, help="Bind the symbol lambda.")
@click.option("--omega", type=FLOAT, default=None, help="Bind the symbol omega.")
@click.option("--beta", type=FLOAT, default=None, help="Bind the symbol beta.")
@click.option("--gamma", type=FLOAT, default=None, help="Bind the symbol gamma.")
@click.option("--depth", type=click.IntRange(1, MAX_LADDER_DEPTH), default=8, show_default=True, help="Taylor depth for the exact route.")
@click.option("--steps", type=click.IntRange(1, 20000), default=STEPS_PER_UNIT_TIME, show_default=True, help="Transport: RK4 steps per unit time at the finest level, rounded up to a multiple of 128 steps. The ode route: a budget of 4 rate evaluations, one RK4 step's, per step per unit time, not rounded.")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
def hierarchy(ham_text, q0, p0, t0, t1, t_steps, m, l, lam, omega, beta, gamma, depth, steps, fmt) -> None:
    """hbar^2 trajectory corrections by every available route.

    Runs the correction ODE and the transport quadrature at each sampled
    time; when the Hamiltonian parses in the plain polynomial grammar the
    exact bracket-ladder Taylor series is evaluated as a third route.
    Where the ode and transport routes differ by more than 1e-6 relative,
    the rows are printed and the command exits 1, naming the worst gap.
    """
    expr = _parse_expr_arg(ham_text, "Hamiltonian")
    params = {
        name: val
        for name, val in (
            ("m", m), ("l", l), ("lambda", lam), ("omega", omega),
            ("beta", beta), ("gamma", gamma),
        )
        if val is not None
    }
    ham = HamiltonianSpec(expr, params)
    times = _time_grid(t0, t1, t_steps)
    routes, _, refusal = hbar2_routes(ham, (q0, p0), times, steps_per_unit=steps)
    rows = [(method, t, *pair) for t, *pairs in routes for method, pair in zip(("ode", "transport"), pairs)]
    try:
        h_poly = parse_poly(ham_text)
    except PolyParseError:
        h_poly = None
    if h_poly is not None:
        flows = {s: taylor_flow(h_poly, depth, s) for s in ("q", "p")}
        rows += [("taylor", t, *(flows[s].hbar2_coefficient(q0, p0, t) for s in ("q", "p"))) for t in times]
    # by method, then by time; a stable sort keeps equal times in grid order
    rows = [{"t": t, "Q2": q2, "P2": p2, "method": m} for m, t, q2, p2 in sorted(rows, key=lambda r: r[:2])]
    if fmt != "text":
        _emit_rows(rows, fmt)
    else:
        click.echo(f"{'t':>10} {'Q2':>22} {'P2':>22} method")
        for r in rows:
            click.echo(f"{r['t']:>10.4g} {r['Q2']:>22.12g} {r['P2']:>22.12g} {r['method']}")
    if refusal is not None:
        _fail(refusal, 1)


# -- worked examples ----------------------------------------------------


@main.command()
@click.option("--q0", type=FLOAT, default=1.0, show_default=True)
@click.option("--p0", type=FLOAT, default=1.0, show_default=True)
@click.option("--t0", type=FLOAT, default=0.0, show_default=True)
@click.option("--t1", type=FLOAT, default=1.0, show_default=True)
@click.option("--t-steps", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--hbar", type=FLOAT, default=0.1, show_default=True)
@click.option("--m", type=FLOAT, default=1.0, show_default=True)
@click.option("--l", type=FLOAT, default=1.0, show_default=True)
@click.option("--grade", type=click.IntRange(0, MAX_EXPR_GRADE), default=8, show_default=True, help="Truncation grade for the numeric deformed brackets.")
@click.option("--tol", type=FLOAT, default=1e-6, show_default=True, help="Convergence tolerance for the truncated brackets.")
@click.option("--skip-hbar2", is_flag=True, help="Skip the numeric hbar^2 columns (faster).")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
def example1(q0, p0, t0, t1, t_steps, hbar, m, l, grade, tol, skip_hbar2, fmt) -> None:
    """Exactly solvable position-dependent-mass system, full report.

    Per sampled time: both closed-form trajectory pairs, their Poisson
    brackets, truncated deformed brackets with convergence flags, the
    coordinate-transformation residual of the evolved product, and the
    numeric hbar^2 coefficients against their closed forms.
    """
    if hbar <= 0:
        _fail("--hbar must be positive")
    ex = builtin_example1()
    bound = ex.deformed_position.t_bound(m, l, hbar)
    times = _time_grid(t0, t1, t_steps)
    if not skip_hbar2 and min(times) < 0:
        _fail("the hbar^2 columns need times >= 0 (or pass --skip-hbar2)")
    for t in times:
        if abs(t) >= bound:
            _fail(
                f"t = {t:g} is outside the validity interval |t| < {bound:g} "
                f"for hbar = {hbar:g}, m = {m:g}, l = {l:g}"
            )
    classical = Program([ex.classical_position, ex.classical_momentum])
    pb_c = poisson_expr(ex.classical_position, ex.classical_momentum)
    pb_m = poisson_expr(ex.deformed_position.expr, ex.deformed_momentum.expr)
    brackets = Program([pb_c, pb_m])
    evolved_product = Program(ex.evolved_product)
    ham = HamiltonianSpec(ex.hamiltonian, {"m": m, "l": l})
    ml2 = m * l * l
    rows = []
    for t in times:
        binds = {"q": q0, "p": p0, "t": t, "m": m, "l": l, "hbar": hbar}
        point = EvalPoint(q=q0, p=p0, hbar=hbar, params={"t": t, "m": m, "l": l})
        qc, pc = (v.real for v in eval_expr(classical, binds))
        qm = ex.deformed_position.eval(binds).real
        pm = ex.deformed_momentum.eval(binds).real
        rep_c = moyal_bracket_truncated(
            ex.classical_position, ex.classical_momentum, grade, point, tolerance=tol
        )
        rep_m = moyal_bracket_truncated(
            ex.deformed_position.expr, ex.deformed_momentum.expr, grade, point, tolerance=tol
        )
        evolved = eval_expr(evolved_product, dict(binds, q=qm, p=pm))
        pb = eval_expr(brackets, binds)
        coord_form = complex(qm * pm, hbar / 2.0)
        initial_form = complex(q0 * p0, hbar / 2.0)
        row = {
            "t": t,
            "q_classical": qc,
            "p_classical": pc,
            "q_deformed": qm,
            "p_deformed": pm,
            "pb_classical": pb[0].real,
            "pb_deformed": pb[1].real,
            "bracket_classical": rep_c.partial_sums[-1].real,
            "bracket_classical_converged": rep_c.converged,
            "bracket_deformed": rep_m.partial_sums[-1].real,
            "bracket_deformed_converged": rep_m.converged,
            "coord_residual": abs(evolved - coord_form),
            "product_drift": abs(evolved - initial_form),
        }
        if not skip_hbar2:
            want_q = qc * (t * t / (16.0 * ml2 * ml2)) * (1.0 + t * q0 * p0 / (6.0 * ml2))
            want_p = pc * (t * t / (16.0 * ml2 * ml2)) * (1.0 - t * q0 * p0 / (6.0 * ml2))
            ode = hbar2_ode(ham, (q0, p0), t)
            got_q, got_p = ode.q2[0], ode.p2[0]
            row["hbar2_position"] = got_q
            row["hbar2_momentum"] = got_p
            row["hbar2_position_rel"] = _rel_to(got_q, want_q)
            row["hbar2_momentum_rel"] = _rel_to(got_p, want_p)
        rows.append(row)
    _emit_rows(rows, fmt)


def _rel_to(got: float, want: float) -> float:
    """|got / want - 1|; where want is 0 the symmetric relative difference
    |got - want| / max(|got|, |want|), which is 1 unless got is 0 too."""
    if want != 0.0:
        return abs(got / want - 1.0)
    return 0.0 if got == 0.0 else 1.0


def _emit_rows(rows: list[dict], fmt: str) -> None:
    if not rows:
        return
    keys = list(rows[0].keys())
    if fmt == "json":
        _emit_json(rows)
    elif fmt == "csv":
        def cell(v):
            if isinstance(v, bool):
                return "true" if v else "false"
            if isinstance(v, float):
                return _g(v)
            return str(v)
        lines = [",".join(keys)]
        lines += [",".join(cell(r[k]) for k in keys) for r in rows]
        click.echo("\n".join(lines))
    else:
        width = max(len(k) for k in keys)
        for r in rows:
            for k in keys:
                v = r[k]
                text = f"{v:.12g}" if isinstance(v, float) else str(v)
                click.echo(f"  {k:<{width}}  {text}")
            click.echo("")


@main.command()
@click.option("--hamiltonian", "ham_text", default="(1/2)*p^2 + (1/2)*q^2 + (1/24)*q^4", show_default=True, help="Polynomial Hamiltonian, exact coefficients.")
@click.option("--depth", type=click.IntRange(1, MAX_LADDER_DEPTH), default=8, show_default=True)
@click.option("--q0", type=FLOAT, default=None, help="With --p0, also run the numeric hbar^2 ratio check.")
@click.option("--p0", type=FLOAT, default=None)
@click.option("--t1", type=FLOAT, default=0.05, show_default=True, help="Time for the ratio check.")
@click.option("--tol", type=FLOAT, default=0.05, show_default=True, help="Relative tolerance for the ratio check.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="json")
def example2(ham_text, depth, q0, p0, t1, tol, fmt) -> None:
    """Where the deformed bracket ladder leaves the classical one.

    Emits the exact divergence report for both seed coordinates; with an
    initial point given, also integrates the hbar^2 correction ODE over a
    short time and compares it against the exact Taylor prediction.
    """
    h = _parse_poly_arg(ham_text, "Hamiltonian")
    reports = divergence_order(h, depth)
    payload = {"reports": [reports[s].to_json_dict() for s in ("q", "p")]}
    if (q0 is None) != (p0 is None):
        _fail("--q0 and --p0 must be given together")
    if q0 is not None:
        if t1 < 0:
            _fail("--t1 must be >= 0")
        expr = _parse_expr_arg(format_poly(h), "Hamiltonian")
        ham = HamiltonianSpec(expr)
        ode = hbar2_ode(ham, (q0, p0), t1)
        checks = []
        for s, got in (("q", ode.q2[0]), ("p", ode.p2[0])):
            acc = taylor_flow(h, depth, s).hbar2_coefficient(q0, p0, t1)
            # no ratio to a zero Taylor value; it then agrees only with a zero
            ratio = got / acc if acc != 0.0 else None
            checks.append({
                "seed": s,
                "taylor": acc,
                "ode": got,
                "ratio": ratio,
                "within_tolerance": got == 0.0 if ratio is None else abs(ratio - 1.0) < tol,
            })
        payload["hbar2_ratio_checks"] = checks
    if fmt == "json":
        _emit_json(payload)
    else:
        for rep in payload["reports"]:
            click.echo(f"seed {rep['seed']}:")
            click.echo(f"  first divergent order: {rep['first_divergent_order']}")
            click.echo(f"  difference: {rep['difference_polynomial']}")
            click.echo(f"  per-order equality: {rep['per_order_equal']}")
        for chk in payload.get("hbar2_ratio_checks", []):
            ratio = "undefined" if chk["ratio"] is None else f"{chk['ratio']:.6g}"
            click.echo(
                f"hbar^2 ratio check, seed {chk['seed']}: ode/taylor = "
                f"{ratio} ({'ok' if chk['within_tolerance'] else 'off'})"
            )


# -- invariant suites ---------------------------------------------------


@main.command()
@click.option("--only", multiple=True, help="Run only suites whose name contains this (repeatable).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cases", type=click.IntRange(min=1), default=None, help="Override the case count of randomized suites.")
@click.option("--order", type=click.IntRange(1, MAX_BCH_ORDER), default=None, help="Override the order of the composition-identity suite.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def check(only, seed, cases, order, fmt) -> None:
    """Run the invariant suites; exit 0 only if every one passes."""
    try:
        outcomes = run_checks(seed=seed, only=list(only) or None, cases=cases, order=order)
    except KeyError as exc:
        _fail(f"{exc.args[0]}; available: {', '.join(SUITES)}")
    if fmt == "json":
        _emit_json([dataclasses.asdict(o) for o in outcomes])
    else:
        for o in outcomes:
            mark = "PASS" if o.passed else "FAIL"
            tail = f"  ({o.detail})" if o.detail else ""
            click.echo(f"{mark}  {o.name}  [{o.cases} cases]{tail}")
        failed = sum(1 for o in outcomes if not o.passed)
        click.echo(f"{len(outcomes) - failed}/{len(outcomes)} suites passed")
    if any(not o.passed for o in outcomes):
        sys.exit(1)


if __name__ == "__main__":
    main()
