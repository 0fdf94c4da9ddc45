"""Named invariant suites over every layer of the package.

Each suite returns ``(passed, cases, detail)``; :func:`run_checks` names it
from :data:`SUITES`, where it is registered, and the CLI ``check``
subcommand runs them all (or a named subset) and exits nonzero if any fail.
The test suite reuses the same functions so that what CI asserts and what
the CLI reports cannot drift apart.

The exact-algebra suites are property suites: a case function
``case(rng, k)`` returns a failure detail or ``None``, and one runner draws
``cases`` of them from ``random.Random(seed)`` and stops at the first
failure.  The two ordering suites check the 45 monomials with n+m <= 8
before their random cases, and the composition-identity grades and the
expression round trips go through the same first-failure loop.  Random
cases are drawn from ``random.Random(seed)`` only, so a fixed seed
reproduces byte-identical output.
"""

from __future__ import annotations

import inspect
import math
import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction

from .brackets import moyal_bracket_truncated, poisson_expr
from .closed_forms import builtin_example1, builtin_unitary_pair
from .expr import Program, eval_expr, differentiate, parse_expr, print_expr
from .flow import (
    HamiltonianSpec,
    check_energy,
    check_symplectic,
    check_transport,
    integrate_flow,
    integrate_flow_jets,
)
from .jets import derivative
from .poly import (
    EvalPoint,
    PhasePolynomial,
    bracket_2n,
    format_poly,
    hbar_component,
    moyal_bracket,
    parse_poly,
    poisson_bracket,
    star_product,
)
from .scalars import ExactScalar
from .semiclassical import (
    divergence_order,
    hbar2_routes,
    iterated_brackets,
    star_exp_A2,
    taylor_flow,
)
from .words import bch_check, expand, sas_order, star_function_S

__all__ = [
    "CheckOutcome",
    "run_checks",
    "resolve_suites",
    "SUITES",
    "prefactor_consistency_report",
]


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    cases: int
    detail: str = ""


# what a suite returns: passed, cases run, detail
Verdict = tuple[bool, int, str]


def _first_failure(details: Iterable[str | None]) -> Verdict:
    """Run the cases in order until one returns a failure detail; the case
    count is that case's 1-based number, or all of them."""
    k = 0
    for k, detail in enumerate(details, 1):
        if detail is not None:
            return False, k, detail
    return True, k, ""


def _randomized(
    case: Callable[[random.Random, int], str | None], cases: int, listed: int = 0
) -> Callable[..., Verdict]:
    """A property suite: ``listed`` fixed cases, then ``cases`` drawn ones,
    every ``case(rng, k)`` drawing from one ``random.Random(seed)``."""

    def suite(seed: int = 0, cases: int = cases) -> Verdict:
        rng = random.Random(seed)
        return _first_failure(case(rng, k) for k in range(listed + cases))

    return suite


def _random_poly(rng: random.Random, max_degree: int, n_terms: int) -> PhasePolynomial:
    """Random hbar-free polynomial with small integer coefficients."""
    acc = PhasePolynomial.zero()
    for _ in range(n_terms):
        a = rng.randrange(0, max_degree + 1)
        b = rng.randrange(0, max_degree + 1 - a)
        c = rng.randrange(-4, 5)
        acc = acc + PhasePolynomial.monomial(c, a, b, 0)
    return acc


# -- exact algebra -------------------------------------------------------


def _star_associativity(rng: random.Random, k: int) -> str | None:
    f, g, h = (_random_poly(rng, 4, 3) for _ in range(3))
    if star_product(star_product(f, g), h) != star_product(f, star_product(g, h)):
        return "mismatch"
    return None


def _bracket_jacobi(rng: random.Random, k: int) -> str | None:
    f, g, h = (_random_poly(rng, 3, 2) for _ in range(3))
    total = (
        moyal_bracket(f, moyal_bracket(g, h))
        + moyal_bracket(g, moyal_bracket(h, f))
        + moyal_bracket(h, moyal_bracket(f, g))
    )
    return "nonzero cycle sum" if total else None


def _bracket_antisymmetry(rng: random.Random, k: int) -> str | None:
    f, g = _random_poly(rng, 4, 3), _random_poly(rng, 4, 3)
    return "mismatch" if moyal_bracket(f, g) != -moyal_bracket(g, f) else None


_I_HBAR = PhasePolynomial.monomial(ExactScalar(0, 1), 0, 0, 1)


def _star_bracket_identity(rng: random.Random, k: int) -> str | None:
    """i*hbar*[f,g] must equal the star commutator, formally in hbar."""
    f, g = _random_poly(rng, 4, 3), _random_poly(rng, 4, 3)
    comm = star_product(f, g) - star_product(g, f)
    return "mismatch" if comm != _I_HBAR * moyal_bracket(f, g) else None


def _deformation_limits(rng: random.Random, k: int) -> str | None:
    """hbar-grade 0 of the star product is the pointwise product; grade 1
    is (i/2) times the Poisson bracket; bracket grade 0 is Poisson."""
    f, g = _random_poly(rng, 4, 3), _random_poly(rng, 4, 3)
    st = star_product(f, g)
    if hbar_component(st, 0) != f * g:
        return "grade-0 product"
    if hbar_component(st, 1) != poisson_bracket(f, g).scale(ExactScalar(0, Fraction(1, 2))):
        return "grade-1 bracket"
    if bracket_2n(f, g, 0) != poisson_bracket(f, g):
        return "bracket grade 0"
    return None


def _conjugation(rng: random.Random, k: int) -> str | None:
    """Coefficient conjugation anti-commutes with the star product."""
    f = _random_poly(rng, 4, 3) + _random_poly(rng, 2, 1) * _I_HBAR
    g = _random_poly(rng, 4, 3)
    if star_product(f, g).conjugate() != star_product(g.conjugate(), f.conjugate()):
        return "mismatch"
    return None


def _bracket_reality(rng: random.Random, k: int) -> str | None:
    """The deformed bracket of real symbols stays real, grade by grade."""
    mb = moyal_bracket(_random_poly(rng, 4, 3), _random_poly(rng, 4, 3))
    return "imaginary part" if any(c.im != 0 for c in mb.terms.values()) else None


# the monomials q^n p^m with n+m <= 8 that an ordering suite checks first
_MONOMIALS = [(n, m) for n in range(9) for m in range(9 - n)]


def _ordering(order: Callable, degree: int, terms: int) -> Callable[..., Verdict]:
    """The ordering ``order`` of a symbol must expand back to the symbol."""

    def case(rng: random.Random, k: int) -> str | None:
        if k < len(_MONOMIALS):
            n, m = _MONOMIALS[k]
            f, detail = PhasePolynomial.monomial(1, n, m, 0), f"monomial ({n},{m})"
        else:
            f, detail = _random_poly(rng, degree, terms), "random polynomial"
        return detail if expand(order(f)) != f else None

    return _randomized(case, 50, listed=len(_MONOMIALS))


def suite_bch(order: int = 6) -> Verdict:
    reports = (bch_check(n) for n in range(1, order + 1))
    return _first_failure(
        None if rep.passed else f"failing grade {rep.first_failing_grade}" for rep in reports
    )


def _poly_roundtrip(rng: random.Random, k: int) -> str | None:
    f = _random_poly(rng, 5, 4) + _random_poly(rng, 3, 2) * _I_HBAR
    txt = format_poly(f)
    return txt if parse_poly(txt) != f or format_poly(parse_poly(txt)) != txt else None


def _expr_roundtrip(e) -> str | None:
    txt = print_expr(e)
    back = parse_expr(txt)
    return txt if back != e or print_expr(back) != txt else None


def suite_expr_roundtrip() -> Verdict:
    ex = builtin_example1()
    forms = [
        ex.hamiltonian,
        ex.classical_position,
        ex.classical_momentum,
        ex.deformed_position.expr,
        ex.deformed_momentum.expr,
        ex.smoothing_plus.expr,
        ex.smoothing_minus.expr,
        ex.inverse_position,
        ex.inverse_momentum,
        ex.evolved_product,
        *builtin_unitary_pair(),
    ]
    return _first_failure(map(_expr_roundtrip, forms))


def suite_expr_derivatives(seed: int = 0, cases: int = 40) -> Verdict:
    """Symbolic derivatives against central differences on the builtins;
    a quarter of ``cases`` points, at least one, per form and variable."""
    rng = random.Random(seed)
    ex = builtin_example1()
    forms = [ex.classical_position, ex.classical_momentum, ex.hamiltonian]
    worst = 0.0
    k = 0
    for form in forms:
        e = Program(form)
        for var in ("q", "p", "t"):
            de = Program(differentiate(form, var))
            for _ in range(max(1, cases // 4)):
                k += 1
                binds = {
                    "q": rng.uniform(-1, 1),
                    "p": rng.uniform(-1, 1),
                    "t": rng.uniform(-0.5, 0.5),
                    "m": 1.0,
                    "l": 1.0,
                    "hbar": 0.1,
                }
                h = 1e-6
                up = dict(binds, **{var: binds[var] + h})
                dn = dict(binds, **{var: binds[var] - h})
                fd = (eval_expr(e, up).real - eval_expr(e, dn).real) / (2 * h)
                got = eval_expr(de, binds).real
                scale = max(1.0, abs(fd))
                worst = max(worst, abs(got - fd) / scale)
    return worst < 1e-6, k, f"worst rel {worst:.3g}"


# -- hierarchy ----------------------------------------------------------


def _odd_grades(rng: random.Random, k: int) -> str | None:
    """Deformed ladder entries of an hbar-free Hamiltonian carry only even
    hbar grades."""
    ladders = iterated_brackets(_random_poly(rng, 4, 3), 4, "q" if k % 2 else "p")
    for entry in ladders.deformed:
        odd = [key for key in entry.terms if key[2] % 2]
        if odd:
            return str(odd[0])
    return None


def _quadratic_coincidence(rng: random.Random, k: int) -> str | None:
    """For quadratic Hamiltonians the two ladders agree to depth 10."""
    h = _random_poly(rng, 2, 3)
    for seed_var in ("q", "p"):
        ladders = iterated_brackets(h, 10, seed_var)
        if ladders.classical != ladders.deformed:
            return seed_var
    return None


def suite_hierarchy_series() -> Verdict:
    """Taylor flows of the squeeze Hamiltonian match the expansion of the
    hbar^2 closed form through t^3."""
    h = PhasePolynomial.monomial(Fraction(1, 4), 2, 2, 0)
    grades = taylor_flow(h, 3, "q").hbar2_grade_series()
    want2 = PhasePolynomial.monomial(Fraction(1, 8), 1, 0, 0)
    want3 = PhasePolynomial.monomial(Fraction(1, 4), 2, 1, 0)
    return grades[2] == want2 and grades[3] == want3, 2, "t^2 and t^3 hbar^2 grades"


# -- flows --------------------------------------------------------------


def _flow_hamiltonians() -> list[tuple[str, HamiltonianSpec]]:
    ex = builtin_example1()
    return [
        ("free", HamiltonianSpec(parse_expr("p^2/2"))),
        ("harmonic", HamiltonianSpec(parse_expr("p^2/2 + q^2/2"))),
        ("quartic", HamiltonianSpec(parse_expr("p^2/2 + q^2/2 + q^4/24"))),
        (
            "squeeze",
            HamiltonianSpec(ex.hamiltonian, {"m": 1.0, "l": 1.0}),
        ),
    ]


def suite_classical_flow() -> Verdict:
    """Energy, symplectic determinant and transport on the bundled set."""
    z0 = (0.9, 0.4)
    t_final = 5.0
    worst_e = worst_d = worst_t = 0.0
    for name, ham in _flow_hamiltonians():
        traj = integrate_flow_jets(ham, z0, t_final, order=1)
        worst_e = max(worst_e, check_energy(traj, ham))
        worst_d = max(worst_d, check_symplectic(traj))
        worst_t = max(worst_t, check_transport(parse_expr("q*p"), ham, traj, t_final))
    ok = worst_e < 1e-8 and worst_d < 1e-8 and worst_t < 1e-6
    return ok, 4, f"energy {worst_e:.3g}, det {worst_d:.3g}, transport {worst_t:.3g}"


def suite_rk4_order() -> Verdict:
    """Step halving must cut the harmonic endpoint error about 16-fold."""
    ham = HamiltonianSpec(parse_expr("p^2/2 + q^2/2"))
    e = []
    for steps in (400, 800):
        traj = integrate_flow(ham, (1.0, 0.0), 2.0, steps)
        e.append(abs(traj.states[-1][0] - math.cos(2.0)))
    ratio = e[0] / e[1]
    ok = 12.0 < ratio < 20.0
    return ok, 2, f"halving ratio {ratio:.2f}"


def suite_jet_consistency() -> Verdict:
    """Jets against central differences of the scalar flow, orders 1..3.

    The difference step grows with the order: second and third central
    differences at step 1e-5 would sit in roundoff.
    """
    ham = HamiltonianSpec(parse_expr("q^2*p^2/4"))
    z0 = (0.9, 0.7)
    t_final = 0.8
    traj = integrate_flow_jets(ham, z0, t_final, order=3)
    jq = traj.jets[-1][0]

    def endpoint(q0, p0):
        return integrate_flow(ham, (q0, p0), t_final).states[-1][0]

    checks = []
    h1 = 1e-5
    fd = (endpoint(z0[0] + h1, z0[1]) - endpoint(z0[0] - h1, z0[1])) / (2 * h1)
    checks.append((abs(derivative(jq, 1, 0) / fd - 1.0), 1e-5))
    h2 = 1e-4
    fd = (
        endpoint(z0[0] + h2, z0[1])
        - 2 * endpoint(*z0)
        + endpoint(z0[0] - h2, z0[1])
    ) / h2**2
    checks.append((abs(derivative(jq, 2, 0) / fd - 1.0), 1e-5))
    h3 = 1e-3
    fd = (
        endpoint(z0[0] + 2 * h3, z0[1])
        - 2 * endpoint(z0[0] + h3, z0[1])
        + 2 * endpoint(z0[0] - h3, z0[1])
        - endpoint(z0[0] - 2 * h3, z0[1])
    ) / (2 * h3**3)
    checks.append((abs(derivative(jq, 3, 0) / fd - 1.0), 1e-3))
    worst = max(err / tol for err, tol in checks)
    ok = worst < 1.0
    detail = ", ".join(f"{e:.2g}" for e, _ in checks)
    return ok, 3, f"rel errors {detail}"


# -- closed forms and routes --------------------------------------------


def suite_example1_closed_forms(seed: int = 0, cases: int = 20) -> Verdict:
    """Deformed-pair bracket, inverse maps and flow agreement at points."""
    rng = random.Random(seed)
    ex = builtin_example1()
    pb_m = Program(poisson_expr(ex.deformed_position.expr, ex.deformed_momentum.expr))
    pb_c = Program(poisson_expr(ex.classical_position, ex.classical_momentum))
    inverse = Program([ex.inverse_position, ex.inverse_momentum])
    classical = Program([ex.classical_position, ex.classical_momentum])
    ham = HamiltonianSpec(ex.hamiltonian, {"m": 1.0, "l": 1.0})
    worst = 0.0
    for _ in range(cases):
        q0 = rng.uniform(-1.2, 1.2)
        p0 = rng.uniform(-1.2, 1.2)
        t = rng.uniform(-1.0, 1.0)
        hb = rng.choice((0.05, 0.1))
        binds = {"q": q0, "p": p0, "t": t, "m": 1.0, "l": 1.0, "hbar": hb}
        want = (1.0 / math.cos(hb * t / 4.0)) ** 4
        worst = max(worst, abs(eval_expr(pb_m, binds).real / want - 1.0))
        worst = max(worst, abs(eval_expr(pb_c, binds).real - 1.0))
        # inverse maps undo the deformed flow
        qm = ex.deformed_position.eval(binds).real
        pm = ex.deformed_momentum.eval(binds).real
        back_q, back_p = eval_expr(inverse, dict(binds, q=qm, p=pm))
        worst = max(worst, abs(back_q.real - q0), abs(back_p.real - p0))
        # classical closed form against the integrator
        traj = integrate_flow(ham, (q0, p0), t)
        qc, pc = (v.real for v in eval_expr(classical, binds))
        worst = max(worst, abs(traj.states[-1][0] - qc), abs(traj.states[-1][1] - pc))
    ok = worst < 1e-9
    return ok, cases, f"worst {worst:.3g}"


def suite_unitary_pair() -> Verdict:
    """Poisson bracket of the exponential pair against its closed form, and
    convergence of the truncated deformed bracket to 1."""
    uq, up = builtin_unitary_pair()
    pb = Program(poisson_expr(uq, up))
    worst_pb = 0.0
    worst_tr = 0.0
    for p0 in (0.05, 0.1, 0.2):
        binds = {"q": 0.3, "p": p0, "beta": 1.0, "gamma": 1.0, "hbar": 1.0}
        want = 1.0 + 2.0 * math.pi * math.cosh(2.0 * math.pi * p0)
        worst_pb = max(worst_pb, abs(eval_expr(pb, binds).real / want - 1.0))
        rep = moyal_bracket_truncated(
            uq,
            up,
            20,
            EvalPoint(q=0.3, p=p0, hbar=1.0, params={"beta": 1.0, "gamma": 1.0}),
        )
        worst_tr = max(worst_tr, abs(rep.partial_sums[-1].real - 1.0))
    ok = worst_pb < 1e-9 and worst_tr < 1e-6
    return ok, 3, f"poisson {worst_pb:.3g}, truncated {worst_tr:.3g}"


# non-squeeze Hamiltonians and (z0, t) cases of the hbar^2 route gap
_ROUTE_GAP_HAMILTONIANS = ("p^2/2 + q^2/2 + q^4/24", "p^2/2 + q^3/6", "p^2/2 + cosh(q)/4")
_ROUTE_GAP_CASES = (((0.9, -0.7), 0.3), ((1.1, 0.6), 0.5))


def suite_hbar2_routes() -> Verdict:
    """Both hbar^2 routes against the squeeze closed forms of Q2 and P2 at
    t = 0.2, and their verdict by ``semiclassical.hbar2_routes``, as in
    ``hierarchy``, there and on the quartic, cubic and cosh Hamiltonians."""
    ex = builtin_example1()
    (q0, p0), t = (1.0, 1.0), 0.2
    squeeze = hbar2_routes(HamiltonianSpec(ex.hamiltonian, {"m": 1.0, "l": 1.0}), (q0, p0), [t])
    qc, pc = q0 * math.exp(q0 * p0 * t / 2.0), p0 * math.exp(-q0 * p0 * t / 2.0)
    want = (qc * (t * t / 16.0) * (1.0 + t * q0 * p0 / 6.0), pc * (t * t / 16.0) * (1.0 - t * q0 * p0 / 6.0))
    ((_, by_ode, by_transport),) = squeeze[0]
    worst = max(abs(got / w - 1.0) for route in (by_ode, by_transport) for got, w in zip(route, want))
    hams = [HamiltonianSpec(parse_expr(text)) for text in _ROUTE_GAP_HAMILTONIANS]
    runs = [squeeze, *(hbar2_routes(ham, z0, [t]) for ham in hams for z0, t in _ROUTE_GAP_CASES)]
    gap = max(gap for _, gap, _ in runs)
    ok = worst < 1e-6 and not any(refusal for _, _, refusal in runs)
    return ok, len(runs), f"squeeze worst rel {worst:.3g}, route gap {gap:.3g}"


def prefactor_consistency_report() -> dict:
    """Order-hbar^2 comparison of the two quoted prefactor variants.

    The second deformation coefficient of the star exponential of c*q*p is
    computed exactly; a secant-squared prefactor on the evolved exponential
    predicts twice the constant term that a first-power secant does, so
    only one variant can match.  The report records which.
    """
    c = Fraction(1, 3)
    a2 = star_exp_A2(parse_expr("q*p/3"))
    expected_sec1 = parse_expr("1/72 + q*p/324")  # c^2/8 + c^3 q p/12
    expected_sec2 = parse_expr("1/36 + q*p/324")  # doubled constant term
    return {
        "a2": print_expr(a2),
        "sec_first_power": print_expr(expected_sec1),
        "sec_squared": print_expr(expected_sec2),
        "matches_first_power": a2 == expected_sec1,
        "matches_squared": a2 == expected_sec2,
    }


def suite_a2_kernel() -> Verdict:
    """Exact second-order kernel on scaled q*p plus the prefactor report."""
    rep = prefactor_consistency_report()
    ok = rep["matches_first_power"] and not rep["matches_squared"]
    a2 = star_exp_A2(parse_expr("(3/5)*q*p"))
    want = parse_expr("9/200 + (9/500)*q*p")
    ok = ok and a2 == want
    return ok, 2, f"matches first-power variant: {ok}"


def suite_divergence_reports() -> Verdict:
    """Quartic divergence orders and coefficients, exact."""
    h = (
        PhasePolynomial.monomial(Fraction(1, 2), 0, 2, 0)
        + PhasePolynomial.monomial(Fraction(1, 2), 2, 0, 0)
        + PhasePolynomial.monomial(Fraction(1, 24), 4, 0, 0)
    )
    reps = divergence_order(h, 6)
    ok = (
        reps["q"].first_divergent_order == 6
        and reps["p"].first_divergent_order == 5
        and reps["q"].difference
        == PhasePolynomial.monomial(Fraction(-1, 4), 1, 0, 2)
        and reps["p"].difference
        == PhasePolynomial.monomial(Fraction(-1, 4), 1, 0, 2)
    )
    return ok, 2, "quartic, both seeds"


SUITES: dict[str, Callable[..., Verdict]] = {
    "star-associativity": _randomized(_star_associativity, 100),
    "bracket-jacobi": _randomized(_bracket_jacobi, 100),
    "bracket-antisymmetry": _randomized(_bracket_antisymmetry, 100),
    "star-bracket-identity": _randomized(_star_bracket_identity, 100),
    "deformation-limits": _randomized(_deformation_limits, 100),
    "conjugation": _randomized(_conjugation, 100),
    "bracket-reality": _randomized(_bracket_reality, 100),
    # symmetrized words, and the secant-corrected two-word ordering
    "symmetrization": _ordering(star_function_S, 4, 3),
    "sas-identity": _ordering(sas_order, 6, 4),
    "bch": suite_bch,
    "poly-roundtrip": _randomized(_poly_roundtrip, 100),
    "expr-roundtrip": suite_expr_roundtrip,
    "expr-derivatives": suite_expr_derivatives,
    "odd-grades": _randomized(_odd_grades, 20),
    "quadratic-coincidence": _randomized(_quadratic_coincidence, 20),
    "hierarchy-series": suite_hierarchy_series,
    "classical-flow": suite_classical_flow,
    "rk4-order": suite_rk4_order,
    "jet-consistency": suite_jet_consistency,
    "example1-closed-forms": suite_example1_closed_forms,
    "unitary-pair": suite_unitary_pair,
    "hbar2-routes": suite_hbar2_routes,
    "a2-kernel": suite_a2_kernel,
    "divergence-reports": suite_divergence_reports,
}


def resolve_suites(tokens: list[str]) -> list[str]:
    """Map name tokens to suite names; a token may be any substring."""
    out: list[str] = []
    for tok in tokens:
        if tok in SUITES:
            matched = [tok]
        else:
            matched = [name for name in SUITES if tok in name]
        if not matched:
            raise KeyError(f"no check suite matches '{tok}'")
        for name in matched:
            if name not in out:
                out.append(name)
    return out


def run_checks(
    seed: int = 0,
    only: list[str] | None = None,
    cases: int | None = None,
    order: int | None = None,
) -> list[CheckOutcome]:
    names = list(SUITES) if not only else resolve_suites(list(only))
    options = {"seed": seed, "cases": cases, "order": order}
    out = []
    for name in names:
        fn = SUITES[name]
        params = inspect.signature(fn).parameters
        kwargs = {k: v for k, v in options.items() if v is not None and k in params}
        out.append(CheckOutcome(name, *fn(**kwargs)))
    return out
