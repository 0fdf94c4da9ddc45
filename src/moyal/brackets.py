"""Graded star and bracket operators on closed-form expressions.

Mirrors the polynomial-side operators for symbols that live outside the
polynomial algebra (exponentials, secants, parameter-dependent closed
forms).  Derivatives are exact; the deformation series generally does not
terminate here, so the truncated bracket returns a numeric convergence
report at a phase-space point instead of a symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

# differentiate stays bound here for perfbench's tracer test
from .expr import DerivTable, Expr, ZERO, const, differentiate, eval_expr, mul  # noqa: F401
from .poly import EvalPoint, bidifferential, bracket_weight, star_weight

__all__ = [
    "poisson_expr",
    "star_n_expr",
    "bracket_2n_expr",
    "moyal_bracket_truncated",
    "BracketReport",
    "DepthCapError",
    "MAX_EXPR_GRADE",
]

# star_n_expr and bracket_2n_expr refuse grades above this
MAX_EXPR_GRADE = 12


class DepthCapError(ValueError):
    """Requested grade exceeds :data:`MAX_EXPR_GRADE`."""


def poisson_expr(f: Expr, g: Expr) -> Expr:
    return bidifferential(DerivTable(f).get, DerivTable(g).get, 1, ZERO)


def _check_grade(n: int):
    if n < 0:
        raise ValueError("grade must be non-negative")
    if n > MAX_EXPR_GRADE:
        raise DepthCapError(f"grade {n} exceeds depth cap {MAX_EXPR_GRADE}")


def star_n_expr(f: Expr, g: Expr, n: int) -> Expr:
    """Grade-n star piece on expressions; hbar enters only via the caller."""
    _check_grade(n)
    if n == 0:
        return mul(f, g)
    body = bidifferential(DerivTable(f).get, DerivTable(g).get, n, ZERO)
    return mul(const(star_weight(n)), body)


def bracket_2n_expr(f: Expr, g: Expr, n: int) -> Expr:
    """Grade-2n piece of the odd-sine bracket ladder on expressions."""
    _check_grade(n)
    body = bidifferential(DerivTable(f).get, DerivTable(g).get, 2 * n + 1, ZERO)
    return mul(const(bracket_weight(n)), body)


@dataclass(frozen=True)
class BracketReport:
    """Numeric record of a truncated deformed bracket at one point."""

    grade_max: int
    partial_sums: tuple[complex, ...]
    converged: bool
    last_term_magnitude: float


def moyal_bracket_truncated(
    f: Expr,
    g: Expr,
    n_max: int,
    at: EvalPoint,
    tolerance: float = 1e-6,
) -> BracketReport:
    """Partial sums of sum_n hbar^{2n} [f, g]_{2n} evaluated at a point.

    Convergence is declared when the two final increments both fall below
    the tolerance in magnitude; the caller judges what the limit should
    be.  Every requested grade is summed.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    bindings = at.bindings()
    hbar2 = at.hbar * at.hbar
    df = DerivTable(f).get
    dg = DerivTable(g).get
    sums: list[complex] = []
    increments: list[float] = []
    acc = 0j
    weight_h = 1.0
    for n in range(n_max + 1):
        body = bidifferential(df, dg, 2 * n + 1, ZERO)
        term = complex(bracket_weight(n)) * weight_h * eval_expr(body, bindings)
        acc += term
        sums.append(acc)
        increments.append(abs(term))
        weight_h *= hbar2
    if len(increments) >= 2:
        converged = increments[-1] < tolerance and increments[-2] < tolerance
    else:
        converged = increments[-1] < tolerance
    return BracketReport(
        grade_max=n_max,
        partial_sums=tuple(sums),
        converged=converged,
        last_term_magnitude=increments[-1],
    )
