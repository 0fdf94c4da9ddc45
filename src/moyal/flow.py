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

from .expr import (
    REAL,
    Add,
    Call,
    DerivTable,
    Expr,
    ExprDomainError,
    Mul,
    Pow,
    eval_expr,
    eval_real,
    evaluate,
    free_symbols,
)
from .jets import MONOMIALS, TruncatedJet, eval_expr_jet
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
    "step_times",
    "STEPS_PER_UNIT_TIME",
]

STEPS_PER_UNIT_TIME = 2000
_PROBE_POINTS = ((0.3, 0.7), (-1.1, 0.4), (0.9, -1.3))
_REALNESS_TOL = 1e-12


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
    above ``poly.MAX_DEGREE`` (jets multiply such powers out factor by
    factor).  Realness is probed at a few fixed points on construction.
    ``partials`` is the one derivative table of H: the vector field and
    both hbar^2 routes read their partials from it.
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
        if _max_exponent(expr) > MAX_DEGREE:
            raise ValueError(f"the Hamiltonian has a power with an exponent above {MAX_DEGREE}")
        for q0, p0 in _PROBE_POINTS:
            try:
                v = eval_expr(expr, {"q": q0, "p": p0, **self.params})
            except (ExprDomainError, OverflowError):
                continue
            if abs(v.imag) > _REALNESS_TOL:
                raise ValueError("the Hamiltonian is not real-valued")
        self.partials = DerivTable(expr)
        self.dq = self.partials.get(1, 0)
        self.dp = self.partials.get(0, 1)

    def field(self, q: float, p: float) -> tuple[float, float]:
        dp, dq = evaluate((self.dp, self.dq), {"q": q, "p": p, **self.params}, REAL)
        return dp, -dq

    def field_jets(
        self, jq: TruncatedJet, jp: TruncatedJet, order: int
    ) -> tuple[TruncatedJet, TruncatedJet]:
        b = {"q": jq, "p": jp, **self.params}
        return (
            eval_expr_jet(self.dp, b, order),
            -eval_expr_jet(self.dq, b, order),
        )

    def energy(self, q: float, p: float) -> float:
        return eval_real(self.expr, {"q": q, "p": p, **self.params})


def _max_exponent(e: Expr) -> int:
    """Largest exponent of a power in ``e``; 0 if it has none."""
    top = 0
    seen = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        tn = type(n)
        if tn is Pow:
            top = max(top, n.exp)
            stack.append(n.base)
        elif tn is Call:
            stack.append(n.arg)
        elif tn is Add:
            stack.extend(n.terms)
        elif tn is Mul:
            stack.extend(n.factors)
    return top


def default_steps(t_final: float) -> int:
    return max(1, round(STEPS_PER_UNIT_TIME * abs(t_final)))


@dataclass
class Trajectory:
    """Sampled flow: states at every integrator step, jets optional.

    Jet columns in the CSV follow the graded lexicographic multi-index
    order of the displacement monomials: for order 1 that is dQdq, dQdp,
    dPdq, dPdp; order 2 appends d2Qdq2, d2Qdqdp, d2Qdp2 and the P row of
    the same, and so on.  Values are mixed partials with factorials
    restored.
    """

    times: list[float]
    states: list[tuple[float, float]]
    jet_order: int = 0
    jets: list[tuple[TruncatedJet, TruncatedJet]] = field(default_factory=list)

    def _jet_headers(self) -> list[str]:
        out = []
        for z in ("Q", "P"):
            for a, b in MONOMIALS[self.jet_order][1:]:
                total = a + b
                prefix = f"d{total if total > 1 else ''}{z}"
                tail = ""
                if a:
                    tail += f"dq{a if a > 1 else ''}"
                if b:
                    tail += f"dp{b if b > 1 else ''}"
                out.append(prefix + tail)
        return out

    def to_csv(self) -> str:
        header = ["t", "Q", "P"]
        if self.jet_order:
            header.extend(self._jet_headers())
        lines = [",".join(header)]
        for i, t in enumerate(self.times):
            row = [f"{t:.17g}", f"{self.states[i][0]:.17g}", f"{self.states[i][1]:.17g}"]
            if self.jet_order:
                jq, jp = self.jets[i]
                for jet in (jq, jp):
                    for a, b in MONOMIALS[self.jet_order][1:]:
                        row.append(f"{jet.derivative(a, b):.17g}")
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def step_times(t_final: float, steps: int) -> list[float]:
    """0.0, then the end time (k + 1) * h of each step; +0.0 even for t_final < 0."""
    h = t_final / steps
    return [0.0] + [(k + 1) * h for k in range(steps)]


def rk4(rhs, state, t_final: float, steps: int):
    """Classical fixed-step RK4 from t = 0 to t_final, yielding the state
    after each step.  The state is a sequence of floats and jets, and
    ``rhs(state)`` returns rates in the same layout.  Float overflow in a
    stage, or a state value that is not finite, raises FlowBlowupError."""
    h = t_final / steps
    for k in range(steps):
        # float overflow inside a stage surfaces as OverflowError
        try:
            k1 = rhs(state)
            k2 = rhs([s + 0.5 * h * d for s, d in zip(state, k1)])
            k3 = rhs([s + 0.5 * h * d for s, d in zip(state, k2)])
            k4 = rhs([s + h * d for s, d in zip(state, k3)])
            state = [
                s + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                for s, a, b, c, d in zip(state, k1, k2, k3, k4)
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
    return Trajectory(times=step_times(t_final, steps), states=states)


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
    jets += [(jq, jp) for jq, jp in rk4(lambda s: ham.field_jets(*s, order), jets[0], t_final, steps)]
    return Trajectory(
        times=step_times(t_final, steps),
        states=[(jq.value, jp.value) for jq, jp in jets],
        jet_order=order,
        jets=jets,
    )


def check_energy(traj: Trajectory, ham: HamiltonianSpec) -> float:
    """Largest drift of the conserved energy along the trajectory."""
    e0 = ham.energy(*traj.states[0])
    return max(abs(ham.energy(q, p) - e0) for q, p in traj.states)


def check_symplectic(traj: Trajectory) -> float:
    """Largest deviation of det(d flow / d initial) from one."""
    if traj.jet_order < 1:
        raise ValueError("check_symplectic needs a trajectory with jets")
    worst = 0.0
    for jq, jp in traj.jets:
        det = (
            jq.derivative(1, 0) * jp.derivative(0, 1)
            - jq.derivative(0, 1) * jp.derivative(1, 0)
        )
        worst = max(worst, abs(det - 1.0))
    return worst


def check_transport(
    a0: Expr,
    ham: HamiltonianSpec,
    z0: tuple[float, float],
    t_final: float,
    steps: int | None = None,
    stride: int | None = None,
) -> float:
    """Residual of d/dt A(flow) = {A, H}(flow) along the trajectory.

    The time derivative is a central difference on the stored grid, so the
    residual carries an O(h^2) truncation floor; at the default resolution
    that floor sits well under 1e-6 for the bundled Hamiltonians.
    """
    traj = integrate_flow(ham, z0, t_final, steps)
    n = len(traj.times)
    if stride is None:
        stride = max(1, (n - 1) // 256)
    h = traj.times[1] - traj.times[0]
    pb = _transport_rhs(a0, ham)
    worst = 0.0
    for i in range(stride, n - 1, stride):
        qm, pm = traj.states[i - 1]
        qp_, pp_ = traj.states[i + 1]
        qc, pc = traj.states[i]
        b = lambda q, p: {"q": q, "p": p, **ham.params}
        dadt = (eval_real(a0, b(qp_, pp_)) - eval_real(a0, b(qm, pm))) / (2.0 * h)
        rhs = eval_real(pb, b(qc, pc))
        worst = max(worst, abs(dadt - rhs))
    return worst


def _transport_rhs(a0: Expr, ham: HamiltonianSpec) -> Expr:
    from .brackets import poisson_expr

    return poisson_expr(a0, ham.expr)
