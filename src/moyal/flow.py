"""Classical Hamiltonian flow with optional variational jets.

Fixed-step fourth-order Runge-Kutta on Hamilton's equations.  A classic
symplectic integrator was deliberately not used: runs here are short and
the acceptance thresholds are on raw accuracy, which the fixed-step RK4
meets with margin at the default resolution; energy drift and the unit
determinant of the linearization are *checked*, not enforced, so the
integrator must not hide its own error.

Jets ride through the same integrator, which turns the flow map's mixed
partials with respect to the initial point into ordinary state components
(no hand-derived variational equations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .brackets import poisson_expr
from .expr import (
    DerivTable,
    Expr,
    ExprDomainError,
    Program,
    eval_expr,
    eval_real,
    free_symbols,
)
from .jets import TruncatedJet, eval_expr_jet
from .poly import MAX_DEGREE

__all__ = [
    "HamiltonianSpec",
    "Trajectory",
    "FlowBlowupError",
    "integrate_flow",
    "integrate_flow_jets",
    "check_energy",
    "check_symplectic",
    "check_transport",
    "default_steps",
    "rk4",
    "STEPS_PER_UNIT_TIME",
]

STEPS_PER_UNIT_TIME = 2000
_PROBE_POINTS = ((0.3, 0.7), (-1.1, 0.4), (0.9, -1.3))
_REALNESS_TOL = 1e-12
# (a, b) of the partials d_q^a d_p^b H that partials_at returns
_PARTIAL_KEYS = tuple((a, n - a) for n in (2, 3, 4) for a in range(n + 1))


class FlowBlowupError(RuntimeError):
    """The state left the representable range mid-integration."""

    def __init__(self, time: float):
        super().__init__(f"flow became non-finite near t = {time}")
        self.time = time


class HamiltonianSpec:
    """A time- and deformation-independent real Hamiltonian with numeric
    parameter values.

    The expression may mention q, p and any names bound in ``params``;
    ``t`` and ``hbar`` are rejected, and so is a power with an exponent
    above ``poly.MAX_DEGREE``, the polynomial degree budget.  Realness is
    probed at a few fixed points on construction.  ``partials`` is the one
    derivative table of H: the vector field and both hbar^2 routes read
    their partials from it.  H is compiled once, for the realness probe and
    ``energy``; the vector field (dH/dp, dH/dq) and the partials of orders
    2 to 4 (``partials_at``) on first use.  Construction generates the code
    of H's complex run only, for the probe; every other run's code is
    generated on first use.
    """

    def __init__(self, expr: Expr, params: dict[str, float] | None = None):
        self.expr = expr
        self.params = dict(params or {})
        free = free_symbols(expr)
        allowed = {"q", "p"} | set(self.params)
        extra = free - allowed
        if extra:
            raise ValueError(f"unbound Hamiltonian symbols: {sorted(extra)}")
        if "t" in free or "hbar" in free:
            raise ValueError("the Hamiltonian must not depend on t or hbar")
        self._energy = Program(expr)
        # the tape's integer constants are exactly its power exponents
        if max((c for c in self._energy.consts if type(c) is int), default=0) > MAX_DEGREE:
            raise ValueError(f"the Hamiltonian has a power with an exponent above {MAX_DEGREE}")
        for q0, p0 in _PROBE_POINTS:
            try:
                v = eval_expr(self._energy, {"q": q0, "p": p0, **self.params})
            except (ExprDomainError, OverflowError):
                continue
            if abs(v.imag) > _REALNESS_TOL:
                raise ValueError("the Hamiltonian is not real-valued")
        self.partials = DerivTable(expr)
        self.dq = self.partials.get(1, 0)
        self.dp = self.partials.get(0, 1)

    @cached_property
    def _field(self) -> Program:
        return Program((self.dp, self.dq))

    def field(self, q: float, p: float) -> tuple[float, float]:
        dp, dq = self._field.real({"q": q, "p": p, **self.params})
        return dp, -dq

    def field_jets(self, jq: TruncatedJet, jp: TruncatedJet) -> tuple[TruncatedJet, TruncatedJet]:
        # checked here too: a field that does not read p never unpacks jp
        if jp.order != jq.order:
            raise ValueError("jet orders differ")
        dp, dq = eval_expr_jet(self._field, {"q": jq, "p": jp, **self.params}, jq.order)
        return dp, TruncatedJet(dq.order, [-x for x in dq.c])

    @cached_property
    def _partials(self) -> Program:
        return Program([self.partials.get(a, b) for a, b in _PARTIAL_KEYS])

    def partials_at(self, q: float, p: float) -> dict[tuple[int, int], float]:
        """d_q^a d_p^b H at (q, p) for 2 <= a + b <= 4, keyed by (a, b)."""
        return dict(zip(_PARTIAL_KEYS, self._partials.real({"q": q, "p": p, **self.params})))

    def energy(self, q: float, p: float) -> float:
        return self._energy.real({"q": q, "p": p, **self.params})


def default_steps(t_final: float) -> int:
    return max(1, round(STEPS_PER_UNIT_TIME * abs(t_final)))


@dataclass
class Trajectory:
    """Sampled flow: the initial state, then the state after every
    integrator step; jets, when integrated, in the same layout."""

    states: list[tuple[float, float]]
    jets: list[tuple[TruncatedJet, TruncatedJet]] = field(default_factory=list)


def rk4(rhs, state, t_final: float, steps: int):
    """Classical fixed-step RK4 from t = 0 to t_final, yielding the state
    after each step.  The state is a sequence of floats and jets, and
    ``rhs(state)`` returns rates in the same layout; a jet's rate of
    another order raises ValueError.  A jet component is combined over its
    coefficient lists with the arithmetic, in the order, of the jet
    operators.  Float overflow in a stage, or a state value that is not
    finite, raises FlowBlowupError."""
    h = t_final / steps
    h6 = h / 6.0

    def stage(c, rates):  # state + c * rates
        return rhs([
            TruncatedJet(s.order, [x + c * y for x, y in zip(s.c, d.c, strict=True)])
            if type(s) is TruncatedJet else s + c * d
            for s, d in zip(state, rates)
        ])

    for k in range(steps):
        # float overflow inside a stage surfaces as OverflowError
        try:
            k1 = rhs(state)
            k2 = stage(0.5 * h, k1)
            k3 = stage(0.5 * h, k2)
            k4 = stage(h, k3)
            state = [
                TruncatedJet(s.order, [
                    x + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                    for x, a1, a2, a3, a4 in zip(s.c, r1.c, r2.c, r3.c, r4.c, strict=True)
                ])
                if type(s) is TruncatedJet else s + h6 * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
                for s, r1, r2, r3, r4 in zip(state, k1, k2, k3, k4)
            ]
        except OverflowError:
            raise FlowBlowupError((k + 1) * h) from None
        for x in state:
            if not math.isfinite(x.value if isinstance(x, TruncatedJet) else x):
                raise FlowBlowupError((k + 1) * h)
        yield state


def integrate_flow(
    ham: HamiltonianSpec,
    z0: tuple[float, float],
    t_final: float,
    steps: int | None = None,
) -> Trajectory:
    """Integrate Hamilton's equations from z0 over [0, t_final].

    Negative t_final integrates backwards.  Raises
    :class:`FlowBlowupError` when the state stops being finite.
    """
    if steps is None:
        steps = default_steps(t_final)
    states = [tuple(z0)]
    states += [(q, p) for q, p in rk4(lambda s: ham.field(*s), states[0], t_final, steps)]
    return Trajectory(states=states)


def integrate_flow_jets(
    ham: HamiltonianSpec,
    z0: tuple[float, float],
    t_final: float,
    steps: int | None = None,
    order: int = 1,
) -> Trajectory:
    """Same flow with the state widened to jets of the given order.

    The initial jets are the identity map's: unit first derivatives,
    nothing higher.
    """
    if steps is None:
        steps = default_steps(t_final)
    jets = [(TruncatedJet.seed(z0[0], 0, order), TruncatedJet.seed(z0[1], 1, order))]
    jets += [(jq, jp) for jq, jp in rk4(lambda s: ham.field_jets(*s), jets[0], t_final, steps)]
    return Trajectory(states=[(jq.value, jp.value) for jq, jp in jets], jets=jets)


def check_energy(traj: Trajectory, ham: HamiltonianSpec) -> float:
    """Largest drift of the conserved energy along the trajectory."""
    e0 = ham.energy(*traj.states[0])
    return max(abs(ham.energy(q, p) - e0) for q, p in traj.states)


def check_symplectic(traj: Trajectory) -> float:
    """Largest deviation of det(d flow / d initial) from one."""
    if not traj.jets:
        raise ValueError("check_symplectic needs a trajectory with jets")
    worst = 0.0
    for jq, jp in traj.jets:
        det = (
            jq.derivative(1, 0) * jp.derivative(0, 1)
            - jq.derivative(0, 1) * jp.derivative(1, 0)
        )
        worst = max(worst, abs(det - 1.0))
    return worst


def check_transport(a0: Expr, ham: HamiltonianSpec, traj: Trajectory, t_final: float) -> float:
    """Residual of d/dt A(flow) = {A, H}(flow) along a trajectory of ham
    over [0, t_final].

    The time derivative is a central difference on the stored grid, so the
    residual carries an O(h^2) truncation floor; at the default resolution
    that floor sits well under 1e-6 for the bundled Hamiltonians.
    """
    steps = len(traj.states) - 1
    stride = max(1, steps // 256)
    h = t_final / steps
    a, pb = Program(a0), Program(poisson_expr(a0, ham.expr))
    worst = 0.0
    for i in range(stride, steps, stride):
        qm, pm = traj.states[i - 1]
        qp_, pp_ = traj.states[i + 1]
        qc, pc = traj.states[i]
        b = lambda q, p: {"q": q, "p": p, **ham.params}
        dadt = (eval_real(a, b(qp_, pp_)) - eval_real(a, b(qm, pm))) / (2.0 * h)
        rhs = eval_real(pb, b(qc, pc))
        worst = max(worst, abs(dadt - rhs))
    return worst
