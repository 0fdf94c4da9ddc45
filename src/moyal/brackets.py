"""Graded star and bracket operators on closed-form expressions.

Mirrors the polynomial-side operators for symbols that live outside the
polynomial algebra (exponentials, secants, parameter-dependent closed
forms).  Derivatives are exact; the deformation series generally does not
terminate here, so the truncated bracket returns a numeric convergence
report at a phase-space point instead of a symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .expr import DerivTable, Expr, ZERO, add, const, differentiate, eval_expr, mul
from .poly import EvalPoint, bracket_weight, star_weight

__all__ = [
    "poisson_expr",
    "star_n_expr",
    "bracket_2n_expr",
    "moyal_bracket_truncated",
    "BracketReport",
    "DepthCapError",
    "DEFAULT_DEPTH_CAP",
]

DEFAULT_DEPTH_CAP = 12


class DepthCapError(ValueError):
    """Requested grade exceeds the configured derivative-depth cap."""


def poisson_expr(f: Expr, g: Expr) -> Expr:
    return add(
        mul(differentiate(f, "q"), differentiate(g, "p")),
        mul(const(-1), differentiate(f, "p"), differentiate(g, "q")),
    )


def _bidifferential_power(
    table_f: DerivTable, table_g: DerivTable, k: int
) -> Expr:
    pieces = []
    for j in range(k + 1):
        df = table_f.get(k - j, j)
        if df is ZERO or df == ZERO:
            continue
        dg = table_g.get(j, k - j)
        if dg is ZERO or dg == ZERO:
            continue
        c = math.comb(k, j) * (-1 if j & 1 else 1)
        pieces.append(mul(const(c), df, dg))
    return add(*pieces)


def star_n_expr(f: Expr, g: Expr, n: int, depth_cap: int = DEFAULT_DEPTH_CAP) -> Expr:
    """Grade-n star piece on expressions; hbar enters only via the caller."""
    if n < 0:
        raise ValueError("grade must be non-negative")
    if n > depth_cap:
        raise DepthCapError(f"grade {n} exceeds depth cap {depth_cap}")
    if n == 0:
        return mul(f, g)
    body = _bidifferential_power(DerivTable(f), DerivTable(g), n)
    return mul(const(star_weight(n)), body)


def bracket_2n_expr(
    f: Expr, g: Expr, n: int, depth_cap: int = DEFAULT_DEPTH_CAP
) -> Expr:
    """Grade-2n piece of the odd-sine bracket ladder on expressions."""
    if n < 0:
        raise ValueError("grade must be non-negative")
    if n > depth_cap:
        raise DepthCapError(f"grade {n} exceeds depth cap {depth_cap}")
    body = _bidifferential_power(DerivTable(f), DerivTable(g), 2 * n + 1)
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
    depth_cap: int | None = None,
) -> BracketReport:
    """Partial sums of sum_n hbar^{2n} [f, g]_{2n} evaluated at a point.

    Convergence is declared when the two final increments both fall below
    the tolerance in magnitude; the caller judges what the limit should
    be.  ``depth_cap`` defaults to max(n_max, the module default) so that
    explicitly requested grades are never refused.
    """
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    cap = depth_cap if depth_cap is not None else max(n_max, DEFAULT_DEPTH_CAP)
    if n_max > cap:
        raise DepthCapError(f"grade {n_max} exceeds depth cap {cap}")
    bindings = at.bindings()
    hbar2 = at.hbar * at.hbar
    table_f = DerivTable(f)
    table_g = DerivTable(g)
    sums: list[complex] = []
    increments: list[float] = []
    acc = 0j
    weight_h = 1.0
    for n in range(n_max + 1):
        body = _bidifferential_power(table_f, table_g, 2 * n + 1)
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
