"""Classical Hamiltonian flow with optional variational jets.

Fixed-step fourth-order Runge-Kutta on Hamilton's equations.  A classic
symplectic integrator was deliberately not used: runs here are short and
the acceptance thresholds are on raw accuracy, which the fixed-step RK4
meets with margin at the default resolution; energy drift and the unit
determinant of the linearization are *checked*, not enforced, so the
integrator must not hide its own error.

Jets ride through the same integrator, which turns the flow map's mixed
partials with respect to the initial point into ordinary state components
(no hand-derived variational equations): a jet is its list of
coefficients, and the integrator steps one flat list of floats.  Each
flow's right-hand side is generated code that reads that list and returns
the flat rates (``HamiltonianSpec.field`` and ``field_jets``), and the RK4
stage arithmetic is straight-line code generated once per state width.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from functools import cached_property

from .brackets import poisson_expr
from .expr import (
    DerivTable,
    Expr,
    ExprDomainError,
    FloatEmitter,
    Program,
    eval_expr,
    eval_real,
    free_symbols,
)
from .jets import MONOMIALS, FlatState, eval_expr_jet, seed
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
PARTIAL_KEYS = tuple((a, n - a) for n in (2, 3, 4) for a in range(n + 1))
# the jet order of a jet flow's flat state, by its length
_STATE_ORDERS = {2 * len(monos): order for order, monos in MONOMIALS.items()}


class FlowBlowupError(RuntimeError):
    """The state left the representable range mid-integration."""

    def __init__(self, time: float):
        super().__init__(f"flow became non-finite near t = {time}")
        self.time = time


class HamiltonianSpec:
    """A time- and deformation-independent real Hamiltonian with numeric
    parameter values.

    The expression may mention q, p and any names bound in ``params``
    (which may not bind q or p); ``t`` and ``hbar`` are rejected, and so
    is a power with an exponent
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
        # the flows read q and p from their flat state, not from the bindings
        if {"q", "p"} & set(self.params):
            raise ValueError("q and p are the coordinates, not parameters")
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

    def field(self, state: list[float]) -> list[float]:
        """Hamilton's rates [dH/dp, -dH/dq] at the flat state [q, p]."""
        return self._field.kernel("flat", FlatFloats)(state, self.params)

    def field_jets(self, state: list[float]) -> list[float]:
        """The rates of the flat state [*jq, *jp] of two jets of one order:
        the jet field's, flat, from code generated per order."""
        order = _STATE_ORDERS.get(len(state))
        if order is None:
            raise ValueError(f"a jet flow's state holds 6, 12 or 20 floats, not {len(state)}")
        return eval_expr_jet(self._field, self.params, order, state)

    @cached_property
    def _partials(self) -> Program:
        return Program([self.partials.get(a, b) for a, b in PARTIAL_KEYS])

    def partials_at(self, q: float, p: float) -> dict[tuple[int, int], float]:
        """d_q^a d_p^b H at (q, p) for 2 <= a + b <= 4, keyed by (a, b)."""
        return dict(zip(PARTIAL_KEYS, self._partials.real({"q": q, "p": p, **self.params})))

    def energy(self, q: float, p: float) -> float:
        return self._energy.real({"q": q, "p": p, **self.params})


def default_steps(t_final: float) -> int:
    return max(1, round(STEPS_PER_UNIT_TIME * abs(t_final)))


@dataclass
class Trajectory:
    """Sampled flow: the initial state, then the state after every
    integrator step; jets, when integrated, in the same layout."""

    states: list[tuple[float, float]]
    jets: list[tuple[list[float], list[float]]] = field(default_factory=list)


class FlatFloats(FlatState, FloatEmitter):
    """A float run over a flow's flat state (see :class:`jets.FlatState`):
    q is ``s[0]`` and p is ``s[stride]``."""

    def read(self, start: int) -> str:
        return self.local(f"s[{start}]")

    def coefficients(self, ref) -> list[str]:
        return [ref]


def rk4(rhs, state, t_final: float, steps: int):
    """Classical fixed-step RK4 from t = 0 to t_final, yielding the state
    after each step.  The state is a flat sequence of floats, and
    ``rhs(state)`` returns their rates as a sequence; rates of another
    length raise ValueError.  Float overflow in a stage, or a state
    component that is not finite, raises FlowBlowupError."""
    h = t_final / steps
    h6 = h / 6.0
    step = _rk4_step(len(state))
    for k in range(steps):
        # float overflow inside a stage surfaces as OverflowError
        try:
            state = step(rhs, state, 0.5 * h, h, h6)
        except OverflowError:
            raise FlowBlowupError((k + 1) * h) from None
        if not all(map(math.isfinite, state)):
            raise FlowBlowupError((k + 1) * h)
        yield state


@functools.cache
def _rk4_step(width: int):
    """One RK4 step over a flat state of ``width`` floats, written out as
    straight-line code once per width: each stage calls ``rhs`` once on
    ``s + c * rates`` and the step returns
    ``s + h6 * (r1 + 2.0 * r2 + 2.0 * r3 + r4)``, component by component."""
    x, r1, r2, r3, r4 = ([f"{c}{i}" for i in range(width)] for c in "xabcd")

    def unpack(names):  # a trailing comma unpacks one name too
        return ", ".join(names) + ","

    def stage(c, rates):
        return f"rhs([{', '.join(f'{s} + {c} * {d}' for s, d in zip(x, rates))}])"

    new = ", ".join(
        f"{s} + h6 * ({a} + 2.0 * {b} + 2.0 * {c} + {d})" for s, a, b, c, d in zip(x, r1, r2, r3, r4)
    )
    env: dict = {}
    exec(
        f"def step(rhs, s, half, h, h6):\n"
        f"    {unpack(x)} = s\n"
        f"    {unpack(r1)} = rhs(s)\n"
        f"    {unpack(r2)} = {stage('half', r1)}\n"
        f"    {unpack(r3)} = {stage('half', r2)}\n"
        f"    {unpack(r4)} = {stage('h', r3)}\n"
        f"    return [{new}]\n",
        env,
    )
    return env["step"]


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
    states += [(q, p) for q, p in rk4(ham.field, states[0], t_final, steps)]
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
    nothing higher.  RK4 steps both jets' coefficients as one list.
    """
    if steps is None:
        steps = default_steps(t_final)
    jq, jp = seed(z0[0], 0, order), seed(z0[1], 1, order)
    n = len(jq)
    jets = [(jq, jp)] + [(s[:n], s[n:]) for s in rk4(ham.field_jets, jq + jp, t_final, steps)]
    return Trajectory(states=[(jq[0], jp[0]) for jq, jp in jets], jets=jets)


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
        # the coefficients of first order are the first derivatives
        det = jq[1] * jp[2] - jq[2] * jp[1]
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
