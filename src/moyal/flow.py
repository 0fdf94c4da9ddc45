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
the flat rates (``HamiltonianSpec.field`` and ``field_jets``).
:func:`rk4_loop` is the only code that writes an RK4 loop: once per flow
and state width, as straight-line code that calls the public field for
the first stage of its first step only and writes every other stage as
the field's code inline.  The public :func:`rk4` is the reference those
loops are tested against: a plain loop over any callable that shares no
code with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

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
from .jets import MONOMIALS, PARTIALS, FlatState, FlowJets, eval_expr_jet, jet_order, seed
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
        # the ode route's code walks both tapes over these tables
        return Program([self.partials.get(a, b) for a, b in PARTIAL_KEYS], self._field)

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
        return self.state(start)

    def coefficients(self, ref) -> list[str]:
        return [ref]


def rk4(rhs, state, t_final: float, steps: int):
    """Classical fixed-step RK4 from t = 0 to t_final, yielding the state
    after each step: the textbook step (Hairer, Norsett & Wanner, *Solving
    ODEs I*, section II.1) as a plain loop, the reference the loops of
    :func:`rk4_loop` are tested against, sharing no code with them.
    ``rhs(state)`` returns the flat state's rates; rates of another length,
    or fewer than one step, raise ValueError, and float overflow or a
    component that is not finite raises FlowBlowupError."""
    if steps < 1:
        raise ValueError(f"RK4 needs at least one step, not {steps}")
    h = t_final / steps
    try:
        for k in range(steps):
            k1 = rhs(state)
            k2 = rhs([x + 0.5 * h * r for x, r in zip(state, k1, strict=True)])
            k3 = rhs([x + 0.5 * h * r for x, r in zip(state, k2, strict=True)])
            k4 = rhs([x + h * r for x, r in zip(state, k3, strict=True)])
            state = [x + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                     for x, a, b, c, d in zip(state, k1, k2, k3, k4, strict=True)]
            if not all(map(math.isfinite, state)):
                raise FlowBlowupError((k + 1) * h)
            yield state
    except OverflowError:
        raise FlowBlowupError((k + 1) * h) from None


def rk4_loop(program: Program, key, emitter):
    """The RK4 loop ``loop(s, b, t_final, steps, rhs)`` of the flow whose
    rates ``emitter(program, key)``, a :class:`jets.FlatState` emitter,
    writes: a generator of the state after each step, as straight-line
    code, generated on first use and kept with the program's kernels.  The
    first stage of the first step calls ``rhs(s)``, the public field, which
    checks the state; every other stage is the rates' code inline.  Errors
    are :func:`rk4`'s; a component is finite when times 0.0 it is 0.0."""
    loop = program._kernels.get(("rk4", key))
    if loop is not None:
        return loop
    emit = emitter(program, key)
    x, r1, r2, r3, r4 = ([f"{c}{i}" for i in range(emit.size)] for c in "xabcd")
    stage = partial(emit.stage, program)

    def unpack(names):  # a trailing comma unpacks one name too
        return ", ".join(names) + ","

    def at(c, rates):
        return [f"{s} + {c} * {d}" for s, d in zip(x, rates)]

    body = [
        "if k:", *(f"    {row}" for line in stage(x, r1) for row in line.split("\n")),
        "else:", f"    {unpack(r1)} = rhs(s)",
        *stage(at("half", r1), r2),
        *stage(at("half", r2), r3),
        *stage(at("h", r3), r4),
        *(f"{s} = {s} + h6 * ({a} + 2.0 * {b} + 2.0 * {c} + {d})" for s, a, b, c, d in zip(x, r1, r2, r3, r4)),
        f"if not {' + '.join(f'{s} * 0.0' for s in x)} == 0.0:",
        "    raise FlowBlowupError((k + 1) * h)",
        f"yield [{', '.join(x)}]",
    ]
    rows = "".join(f"            {row}\n" for line in body for row in line.split("\n"))
    emit.env["FlowBlowupError"] = FlowBlowupError
    exec(
        f"def loop(s, b, t_final, steps, rhs):\n"
        f"    if steps < 1:\n"
        f"        raise ValueError(f'RK4 needs at least one step, not {{steps}}')\n"
        f"    {unpack(x)} = s\n"
        f"    h = t_final / steps\n"
        f"    half, h6, k = 0.5 * h, h / 6.0, 0\n"
        f"    try:\n"
        f"        for k in range(steps):\n{rows}"
        f"    except OverflowError:\n"
        f"        raise FlowBlowupError((k + 1) * h) from None\n{emit.handlers}",
        emit.env,
    )
    loop = program._kernels["rk4", key] = emit.env["loop"]
    return loop


def integrate_flow(
    ham: HamiltonianSpec,
    z0: tuple[float, float],
    t_final: float,
    steps: int | None = None,
) -> Trajectory:
    """Integrate Hamilton's equations from z0 over [0, t_final].

    Negative t_final integrates backwards.  Raises
    :class:`FlowBlowupError` when the state stops being finite, and
    ValueError for fewer than one step.  The first stage calls
    ``ham.field``, which checks the state (:func:`rk4_loop`).
    """
    if steps is None:
        steps = default_steps(t_final)
    states = [tuple(z0)]
    loop = rk4_loop(ham._field, "flat", FlatFloats)
    states += [(q, p) for q, p in loop(states[0], ham.params, t_final, steps, ham.field)]
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
    nothing higher.  RK4 steps both jets' coefficients as one list; the
    first stage calls ``ham.field_jets``.  Fewer than one step raises
    ValueError.
    """
    if steps is None:
        steps = default_steps(t_final)
    jq, jp = seed(z0[0], 0, order), seed(z0[1], 1, order)
    n = len(jq)
    loop = rk4_loop(ham._field, (order, "flat"), FlowJets)
    jets = [(jq, jp)] + [(s[:n], s[n:]) for s in loop(jq + jp, ham.params, t_final, steps, ham.field_jets)]
    (value, _), = PARTIALS[order][0]
    return Trajectory(states=[(jq[value], jp[value]) for jq, jp in jets], jets=jets)


def check_energy(traj: Trajectory, ham: HamiltonianSpec) -> float:
    """Largest drift of the conserved energy along the trajectory."""
    e0 = ham.energy(*traj.states[0])
    return max(abs(ham.energy(q, p) - e0) for q, p in traj.states)


def check_symplectic(traj: Trajectory) -> float:
    """Largest deviation of det(d flow / d initial) from one."""
    if not traj.jets:
        raise ValueError("check_symplectic needs a trajectory with jets")
    # the first partials, whose factorial products are 1
    (q, _), (p, _) = PARTIALS[jet_order(traj.jets[0][0])][1]
    worst = 0.0
    for jq, jp in traj.jets:
        worst = max(worst, abs(jq[q] * jp[p] - jq[p] * jp[q] - 1.0))
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
