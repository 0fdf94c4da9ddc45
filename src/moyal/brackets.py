"""Graded star and bracket operators on closed-form expressions.

Mirrors the polynomial-side operators for symbols that live outside the
polynomial algebra (exponentials, secants, parameter-dependent closed
forms).  Derivatives are exact; the deformation series generally does not
terminate here, so the truncated bracket returns a numeric convergence
report at a phase-space point instead of a symbol.  Every operator runs
the one bidifferential kernel on the sparse entries of the pair's two
derivative tables, so like terms are collected before one expression per
grade body is built.  The truncated bracket's grade bodies are compiled
once per pair and reused while the left factor lives.
"""

from __future__ import annotations

from dataclasses import dataclass

# differentiate stays bound here for perfbench's tracer test
from .expr import SPARSE_ZERO, DerivTable, Expr, Program, const, differentiate, eval_expr, mul  # noqa: F401
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


def _bodies(f: Expr, g: Expr, orders) -> list[Expr]:
    """The k-th bidifferential power of (f, g) as one expression for each k
    in ``orders``, from two derivative tables over one atom table."""
    tf = DerivTable(f)
    tg = DerivTable(g, tf.atoms)
    return [tf.atoms.expr(bidifferential(tf.sparse, tg.sparse, k, SPARSE_ZERO)) for k in orders]


def poisson_expr(f: Expr, g: Expr) -> Expr:
    return _bodies(f, g, (1,))[0]


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
    return mul(const(star_weight(n)), _bodies(f, g, (n,))[0])


def bracket_2n_expr(f: Expr, g: Expr, n: int) -> Expr:
    """Grade-2n piece of the odd-sine bracket ladder on expressions."""
    _check_grade(n)
    return mul(const(bracket_weight(n)), _bodies(f, g, (2 * n + 1,))[0])


@dataclass(frozen=True)
class BracketReport:
    """Numeric record of a truncated deformed bracket at one point: one
    partial sum per grade 0..n_max."""

    partial_sums: tuple[complex, ...]
    converged: bool
    last_term_magnitude: float


def _ladder(f: Expr, g: Expr, n_max: int) -> list[Program]:
    """Compiled bodies of [f, g]_2n over their weights for n = 0..n_max.

    The ladder is kept on f, keyed by g, so it lives as long as f does
    (not on a constant f, which is a shared node); a higher grade builds
    only the grades it lacks, from derivative tables that are not kept.
    """
    memo = f._ladders
    if memo is None:
        memo = {}
        if f._free:
            f._ladders = memo
    ladder = memo.setdefault(g, [])
    if len(ladder) <= n_max:
        orders = range(2 * len(ladder) + 1, 2 * n_max + 2, 2)
        ladder.extend(map(Program, _bodies(f, g, orders)))
    return ladder


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
    ladder = _ladder(f, g, n_max)
    sums: list[complex] = []
    increments: list[float] = []
    acc = 0j
    weight_h = 1.0
    for n in range(n_max + 1):
        term = complex(bracket_weight(n)) * weight_h * eval_expr(ladder[n], bindings)
        acc += term
        sums.append(acc)
        increments.append(abs(term))
        weight_h *= hbar2
    if len(increments) >= 2:
        converged = increments[-1] < tolerance and increments[-2] < tolerance
    else:
        converged = increments[-1] < tolerance
    return BracketReport(
        partial_sums=tuple(sums),
        converged=converged,
        last_term_magnitude=increments[-1],
    )
