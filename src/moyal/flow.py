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
flow's right-hand side (``HamiltonianSpec.field`` and ``field_jets``) is
a run of the one evaluator over H's vector field with q and p bound to
that list.  :func:`rk4_loop` is the only code that writes an RK4 loop:
once per flow and state width, as straight-line code that calls the
public field for the first stage of its first step only and writes every
other stage as the field's code inline.  A stage writes only float work
that changes a state and keeps the field's bits (see
:class:`jets.FlatState`): dH/dq's negation is carried as a sign and
subtracted.  Work that reads only constants and parameters runs once,
before the first step.  A local that one line reads and that holds a sum,
difference or product is written, in parentheses, into that line, which
keeps the operations and so the bits.  After every step the state is
tested finite by its sum times 0.0, and component by component only where
that sum is not.  A loop yields every ``every``-th state, so a flow keeps
only the states its caller reads (``integrate_flow(..., every=n)``).
The public :func:`rk4` is the reference those loops are tested against: a
plain loop over any callable that shares no code with them.
"""

from __future__ import annotations

import math
import re
from collections import Counter
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
from .jets import MONOMIALS, PARTIALS, FlatState, FlowJets, eval_expr_jet, jet_order, seed, table_locals
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
        # t and hbar are refused whether or not they are bound
        if "t" in free or "hbar" in free:
            raise ValueError("the Hamiltonian must not depend on t or hbar")
        extra = free - {"q", "p"} - set(self.params)
        if extra:
            raise ValueError(f"unbound Hamiltonian symbols: {sorted(extra)}")
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
        if len(state) != 2:
            raise ValueError(f"a flow's state holds 2 floats, not {len(state)}")
        dp, dq = self._field.real({"q": state[0], "p": state[1], **self.params})
        return [dp, -dq]

    def field_jets(self, state: list[float]) -> list[float]:
        """The rates of the flat state [*jq, *jp] of two jets of one order,
        flat: the field's jet run with q and p bound to the two jets."""
        order = _STATE_ORDERS.get(len(state))
        if order is None:
            raise ValueError(f"a jet flow's state holds 6, 12 or 20 floats, not {len(state)}")
        n = len(state) // 2
        dp, dq = eval_expr_jet(self._field, {"q": list(state[:n]), "p": list(state[n:]), **self.params}, order)
        return dp + [-x for x in dq]

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
    ``every``-th integrator step; jets, when integrated, in the same
    layout."""

    states: list[tuple[float, float]]
    jets: list[tuple[list[float], list[float]]] = field(default_factory=list)
    every: int = 1


class FlatFloats(FlatState, FloatEmitter):
    """Writes the scalar flow's field as a stage of its RK4 loop (see
    :class:`jets.FlatState`): q is component 0 and p component 1."""

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
    """The RK4 loop ``loop(s, b, t_final, steps, rhs, every=1)`` of the flow
    whose rates ``emitter(program, key)``, a :class:`jets.FlatState`
    emitter, writes: a generator of the state after every ``every``-th
    step, which must divide ``steps``, as straight-line code, generated on
    first use and kept with the program's kernels.  The first stage of the
    first step calls ``rhs(s)``, the public field, which checks the state,
    before the loop; every other stage is the rates' code inline
    (:meth:`FlatState.stage`), where a negated rate is held without its
    sign and subtracted.  The tables' entries the stages read are read
    once per loop (:func:`jets.table_locals`), the stages' work on them
    alone runs once, after ``rhs(s)`` (:func:`_hoist`), and a local read
    once is folded into its reader (:func:`_fold`).  Errors are
    :func:`rk4`'s, and ``every`` below 1 or not dividing ``steps`` raises
    ValueError.  After every step the state is finite when its sum times
    0.0 is 0.0; only where it is not, each component is tested, since a sum
    of finite components may overflow."""
    loop = program._kernels.get(("rk4", key))
    if loop is not None:
        return loop
    emit = emitter(program, key)
    x, r1, r2, r3, r4 = ([f"{c}{i}" for i in range(emit.size)] for c in "xabcd")
    stage = partial(emit.stage, program)

    def unpack(names):  # a trailing comma unpacks one name too
        return ", ".join(names) + ","

    first, negated = stage(x, r1)
    # a first-stage rate that is a state component, which the update reads
    # before it writes that component, is read from the component, with no
    # copy: in the first step too, whose rates from the public field have
    # the same bits
    copied = {}
    for line in first:
        got = re.fullmatch(r"a(\d+) = x(\d+)", line)
        if got and int(got[2]) >= int(got[1]):
            copied[f"a{got[1]}"] = f"x{got[2]}"
    first = [line for line in first if line.partition(" = ")[0] not in copied]
    read1 = [copied.get(a, a) for a in r1]

    def at(c, rates):
        return [f"{s} {'-' if n else '+'} {c} * {d}" for s, n, d in zip(x, negated, rates)]

    each_step = [
        *(["if k:"] if first else []), *(f"    {row}" for line in first for row in line.split("\n")),
        *stage(at("half", read1), r2)[0],
        *stage(at("half", r2), r3)[0],
        *stage(at("h", r3), r4)[0],
        *(f"{s} = {s} + h6 * (-{a} - 2.0 * {b} - 2.0 * {c} - {d})" if n else
          f"{s} = {s} + h6 * ({a} + 2.0 * {b} + 2.0 * {c} + {d})"
          for s, n, a, b, c, d in zip(x, negated, read1, r2, r3, r4)),
        f"if not ({' + '.join(x)}) * 0.0 == 0.0:",
        f"    if not {' + '.join(f'{s} * 0.0' for s in x)} == 0.0:",
        "        raise FlowBlowupError((k + 1) * h)",
        "if k == due:",
        "    due += every",
        f"    yield [{', '.join(x)}]",
    ]
    env = emit.env
    text, tables = table_locals(env, "\n".join(row for line in each_step for row in line.split("\n")))
    hoisted, each_step = _hoist(text.split("\n"))
    rows = _fold([
        *tables, f"{unpack(['_' if a in copied else a for a in r1])} = rhs(s)",
        *(f"{a} = -{a}" for a, n in zip(r1, negated) if n and a not in copied), *hoisted,
        "for k in range(steps):", *(f"    {row}" for row in each_step),
    ])
    env["FlowBlowupError"] = FlowBlowupError
    exec(
        f"def loop(s, b, t_final, steps, rhs, every=1):\n"
        f"    if steps < 1:\n"
        f"        raise ValueError(f'RK4 needs at least one step, not {{steps}}')\n"
        f"    if every < 1 or steps % every:\n"
        f"        raise ValueError(f'every must be a positive divisor of the {{steps}} steps, not {{every}}')\n"
        f"    {unpack(x)} = s\n"
        f"    h = t_final / steps\n"
        f"    half, h6, k, due = 0.5 * h, h / 6.0, 0, every - 1\n"
        f"    try:\n"
        + "".join(f"        {row}\n" for row in rows) +
        f"    except OverflowError:\n"
        f"        raise FlowBlowupError((k + 1) * h) from None\n{emit.handlers}",
        env,
    )
    loop = program._kernels["rk4", key] = env["loop"]
    return loop


# a local the stages write, one's assignment, what reads only constants,
# parameters, functions and pi (the loop's locals of them) or literals, and
# an assignment of a sum, difference or product of names and literals
_LOCAL = re.compile(r"\bv\d+\b")
_ASSIGNMENT = re.compile(r"( *)(v\d+) = (.+)")
_FIXED = re.compile(r"[KBF]\d+|PI|[\d.][\w.]*")
_ARITHMETIC = re.compile(r"( *)(v\d+) = ((?:[\w.]+|[ +*()-])+)")
# a folded expression holds fewer parentheses than this, so the nesting of
# any line stays far below the parser's limit of 200
_FOLD_PARENS = 64


def _hoist(rows: list[str]) -> tuple[list[str], list[str]]:
    """The assignments of the locals in ``rows`` that read only
    :data:`_FIXED` names and one another, each written once, and the rows
    without them, each such local read under its first assignment's name:
    work that every stage repeats, which a loop runs once, before its
    first step and after the public field's call, which ran the same work
    without error."""
    same: dict[str, str] = {}
    first: dict[str, str] = {}
    out = []
    for row in rows:
        row = _LOCAL.sub(lambda m: same.get(m[0], m[0]), row)
        got = _ASSIGNMENT.fullmatch(row)
        if got and all(_FIXED.fullmatch(w) or w in same for w in re.findall(r"[\w.]+", got[3])):
            same[got[2]] = first.setdefault(got[3], got[2])
        else:
            out.append(row)
    return [f"{name} = {rhs}" for rhs, name in first.items()], out


def _fold(rows: list[str]) -> list[str]:
    """The rows with each local that is read exactly once and assigned a
    sum, difference or product (:data:`_ARITHMETIC`) written, in
    parentheses, into the row that reads it: the operations and their
    order are the same, so are the bits, and no power, division or call
    moves, so no error does either.  A local's one read follows its
    assignment, in the same branch, with no operand reassigned between."""
    reads = Counter(_LOCAL.findall("\n".join(rows)))
    held: dict[str, str] = {}
    out = []
    for row in rows:
        row = _LOCAL.sub(lambda m: held.pop(m[0], m[0]), row)
        got = _ARITHMETIC.fullmatch(row)
        if got and reads[got[2]] == 2 and "**" not in got[3] and not re.search(r"\w\(", got[3]) \
                and got[3].count("(") < _FOLD_PARENS:
            held[got[2]] = f"({got[3]})"
        else:
            out.append(row)
    return out


def integrate_flow(
    ham: HamiltonianSpec,
    z0: tuple[float, float],
    t_final: float,
    steps: int | None = None,
    every: int = 1,
) -> Trajectory:
    """Integrate Hamilton's equations from z0 over [0, t_final], keeping
    the state after every ``every``-th step, a divisor of ``steps``.

    Negative t_final integrates backwards.  Raises
    :class:`FlowBlowupError` when the state stops being finite, which is
    tested after every step, and ValueError for fewer than one step or an
    ``every`` that is not a positive divisor of ``steps``.  The first stage
    calls ``ham.field``, which checks the state (:func:`rk4_loop`).
    """
    if steps is None:
        steps = default_steps(t_final)
    states = [tuple(z0)]
    loop = rk4_loop(ham._field, "flat", FlatFloats)
    states += [(q, p) for q, p in loop(states[0], ham.params, t_final, steps, ham.field, every)]
    return Trajectory(states=states, every=every)


def integrate_flow_jets(
    ham: HamiltonianSpec,
    z0: tuple[float, float],
    t_final: float,
    steps: int | None = None,
    order: int = 1,
    every: int = 1,
    start: tuple[list[float], list[float]] | None = None,
) -> Trajectory:
    """Same flow with the state widened to jets of the given order.

    The initial jets are the identity map's (unit first derivatives,
    nothing higher) or ``start``, a map's with value z0, carried on.  RK4
    steps both jets' coefficients as one list; the first stage calls
    ``ham.field_jets``.  ``every`` and the errors are :func:`integrate_flow`'s.
    """
    if steps is None:
        steps = default_steps(t_final)
    jq, jp = start or (seed(z0[0], 0, order), seed(z0[1], 1, order))
    n = len(jq)
    loop = rk4_loop(ham._field, (order, "flat"), FlowJets)
    jets = [(jq, jp)] + [(s[:n], s[n:]) for s in loop(jq + jp, ham.params, t_final, steps, ham.field_jets, every)]
    (value, _), = PARTIALS[order][0]
    return Trajectory(states=[(jq[value], jp[value]) for jq, jp in jets], jets=jets, every=every)


def _largest(deviations) -> float:
    """The largest of the deviations, 0.0 for none, and inf where one is
    not finite: ``max`` alone would pass over a nan."""
    return max(deviations, default=0.0) if all(map(math.isfinite, deviations)) else math.inf


def check_energy(traj: Trajectory, ham: HamiltonianSpec) -> float:
    """Largest drift of the conserved energy along the trajectory, inf
    where one is not finite."""
    e0 = ham.energy(*traj.states[0])
    return _largest([abs(ham.energy(q, p) - e0) for q, p in traj.states])


def check_symplectic(traj: Trajectory) -> float:
    """Largest deviation of det(d flow / d initial) from one, inf where
    one is not finite."""
    if not traj.jets:
        raise ValueError("check_symplectic needs a trajectory with jets")
    # the first partials, whose factorial products are 1
    (q, _), (p, _) = PARTIALS[jet_order(traj.jets[0][0])][1]
    return _largest([abs(jq[q] * jp[p] - jq[p] * jp[q] - 1.0) for jq, jp in traj.jets])


def check_transport(a0: Expr, ham: HamiltonianSpec, traj: Trajectory, t_final: float) -> float:
    """Residual of d/dt A(flow) = {A, H}(flow) along a trajectory of ham
    over [0, t_final], inf where one residual is not finite.

    The time derivative is a central difference on the stored grid, so the
    residual carries an O(h^2) truncation floor; at the default resolution
    that floor sits well under 1e-6 for the bundled Hamiltonians.  So the
    grid must be the integrator's: a trajectory that kept only every n-th
    state (``every`` > 1) raises ValueError.
    """
    if traj.every != 1:
        raise ValueError(f"check_transport needs every step's state, not one in {traj.every}")
    steps = len(traj.states) - 1
    stride = max(1, steps // 256)
    h = t_final / steps
    a, pb = Program(a0), Program(poisson_expr(a0, ham.expr))
    b = lambda q, p: {"q": q, "p": p, **ham.params}
    residuals = []
    for i in range(stride, steps, stride):
        qm, pm = traj.states[i - 1]
        qp_, pp_ = traj.states[i + 1]
        qc, pc = traj.states[i]
        dadt = (eval_real(a, b(qp_, pp_)) - eval_real(a, b(qm, pm))) / (2.0 * h)
        residuals.append(abs(dadt - eval_real(pb, b(qc, pc))))
    return _largest(residuals)
