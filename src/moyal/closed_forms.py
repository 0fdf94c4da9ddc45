"""Built-in closed-form trajectory pairs used throughout the test suite.

Two families are provided.  The first is the exactly solvable quadratic
squeeze Hamiltonian H = q^2 p^2 / (4 m l^2): both its classical flow and
its deformed flow close in elementary functions, together with the
Gaussian smoothing factors, the inverse of the deformed flow, and the
evolved symmetrized product.  The second is the exponential pair whose
deformed bracket is canonical while its Poisson bracket is not, which
separates the two bracket notions at finite deformation strength.

Everything here is an exact :class:`~moyal.expr.Expr`; symbols q and p in
the inverse maps and the evolved product stand for the already evolved
pair, which is documented per field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .expr import (
    PI,
    Call,
    Expr,
    ExprDomainError,
    I_UNIT,
    Program,
    call,
    eval_expr,
    pow_int,
    sym,
)

__all__ = [
    "BoundedClosedForm",
    "Example1Set",
    "builtin_example1",
    "builtin_unitary_pair",
    "ValidityError",
]

_q = sym("q")
_p = sym("p")
_t = sym("t")
_m = sym("m")
_l = sym("l")
_hbar = sym("hbar")
_beta = sym("beta")
_gamma = sym("gamma")


class ValidityError(ExprDomainError):
    """Evaluation requested outside a closed form's time window."""


@dataclass(frozen=True)
class BoundedClosedForm:
    """An expression valid only for |t| < bound_multiple * m * l^2 / hbar.

    The closed forms blow up at the first secant pole; evaluation refuses
    the point rather than returning a finite-but-meaningless number.
    """

    expr: Expr
    bound_multiple: float  # 2*pi or 4*pi

    @cached_property
    def program(self) -> Program:
        """``expr`` compiled on first use, for :meth:`eval`."""
        return Program(self.expr)

    def t_bound(self, m: float, l: float, hbar: float) -> float:
        return self.bound_multiple * m * l * l / hbar

    def eval(self, bindings) -> complex:
        t = bindings.get("t", 0.0)
        bound = self.t_bound(
            bindings.get("m", 1.0), bindings.get("l", 1.0), bindings["hbar"]
        )
        if not abs(t) < bound:
            raise ValidityError(
                f"|t| = {abs(t)} is outside the validity window {bound}"
            )
        return eval_expr(self.program, bindings)


@dataclass(frozen=True)
class Example1Set:
    """Closed forms for H = q^2 p^2 / (4 m l^2).

    classical_* and the deformed pair are functions of the initial point
    (q, p) and time t.  inverse_* and evolved_product are functions of the
    already evolved pair, with symbols q, p standing for those values.
    """

    hamiltonian: Expr
    classical_position: Expr
    classical_momentum: Expr
    deformed_position: BoundedClosedForm
    deformed_momentum: BoundedClosedForm
    smoothing_plus: BoundedClosedForm
    smoothing_minus: BoundedClosedForm
    inverse_position: Expr
    inverse_momentum: Expr
    evolved_product: Expr


def builtin_example1() -> Example1Set:
    """Build the exactly solvable set; all coefficients exact rationals."""
    q, p, t, m, l, hbar = _q, _p, _t, _m, _l, _hbar
    ml2_inv = pow_int(m, -1) * pow_int(l, -2)
    # half the classical rate; the secant pole sits at u = pi/2
    u = hbar * t * ml2_inv / 4
    rate = q * p * t * ml2_inv / 2

    classical_position = q * call("exp", rate)
    classical_momentum = p * call("exp", -rate)

    sec_u2 = pow_int(Call("sec", u), 2)
    swirl = 2 * q * p * Call("tan", u) / hbar
    deformed_position = BoundedClosedForm(
        sec_u2 * q * call("exp", swirl), 2 * math.pi
    )
    deformed_momentum = BoundedClosedForm(
        sec_u2 * p * call("exp", -swirl), 2 * math.pi
    )

    v = hbar * t * ml2_inv / 8
    sec_v2 = pow_int(Call("sec", v), 2)
    swirl_half = 2 * q * p * Call("tan", v) / hbar
    smoothing_plus = BoundedClosedForm(sec_v2 * call("exp", swirl_half), 4 * math.pi)
    smoothing_minus = BoundedClosedForm(
        sec_v2 * call("exp", -swirl_half), 4 * math.pi
    )

    cos_u2 = pow_int(Call("cos", u), 2)
    unswirl = q * p * Call("sin", 2 * u) * cos_u2 / hbar
    inverse_position = cos_u2 * q * call("exp", -unswirl)
    inverse_momentum = cos_u2 * p * call("exp", unswirl)

    evolved_product = pow_int(Call("cos", u), 4) * q * p + I_UNIT * hbar / 2

    return Example1Set(
        hamiltonian=q * q * p * p * ml2_inv / 4,
        classical_position=classical_position,
        classical_momentum=classical_momentum,
        deformed_position=deformed_position,
        deformed_momentum=deformed_momentum,
        smoothing_plus=smoothing_plus,
        smoothing_minus=smoothing_minus,
        inverse_position=inverse_position,
        inverse_momentum=inverse_momentum,
        evolved_product=evolved_product,
    )


def builtin_unitary_pair() -> tuple[Expr, Expr]:
    """The exponential pair whose deformed bracket is 1 but whose Poisson
    bracket is 1 + (2 beta gamma pi / hbar) cosh(2 beta pi p / hbar).

    Returns (position_symbol, momentum_symbol) in the parameters beta,
    gamma, hbar.
    """
    q, p, hbar, beta, gamma = _q, _p, _hbar, _beta, _gamma
    position = beta * call("exp", q / beta)
    momentum = call("exp", -(q / beta)) * (
        p + gamma * call("sinh", 2 * beta * PI * p / hbar)
    )
    return position, momentum
