"""Seeded job streams of the three workloads, how each job is run, and its oracle.

A job carries the program's inputs, already built, and what its oracle
needs.  Jobs call the package through ``moyal.<name>`` at call time, so a
traced run sees the wrapped functions.  A stream yields cycles: each cycle
holds the same fixed schedule of job classes, and the seed draws the values
inside each class.  A run measures whole cycles, so the class shares, and
with them the latency percentiles, do not move with the seed or with the
number of cycles that fit in a run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import moyal
from moyal.expr import call, const

import oracle
from fixed import HAMILTONIANS, EXAMPLE1_PARAMS

TOLERANCE = 1e-6


@dataclass(frozen=True)
class Job:
    kind: str
    args: tuple
    ref: object = None


@dataclass(frozen=True)
class Verdict:
    """solved: every oracle passed.  wrong: an oracle independent of the
    program contradicts the output (an exact identity, a closed form, or a
    raised error).  gap: relative difference of the two hbar^2 routes."""

    solved: bool
    wrong: bool
    gap: float | None = None


def cycles(workload: str, seed: int, fixed: dict):
    """Endless stream of job cycles; the same (workload, seed) gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    return _STREAMS[workload](rng, fixed)


def first_jobs(workload: str, seed: int, fixed: dict, n: int) -> list[Job]:
    """The first n jobs of the stream."""
    out: list[Job] = []
    for cycle in cycles(workload, seed, fixed):
        out += cycle
        if len(out) >= n:
            return out[:n]


def execute(job: Job):
    return _RUN[job.kind](*job.args)


def verdict(job: Job, out) -> Verdict:
    exact = _ALGEBRA_ORACLES.get(job.kind)
    if exact is not None:
        return _exact(exact(job, out))
    return _CHECK[job.kind](job, out)


def digest(out) -> str:
    """Exact text of an output; equal digests mean bit-identical outputs."""
    if isinstance(out, moyal.PhasePolynomial):
        return repr(sorted((k, c.re, c.im) for k, c in out.terms.items()))
    if isinstance(out, dict):  # divergence reports by seed
        return repr([
            (s, r.first_divergent_order, r.per_order_equal, digest(r.difference))
            for s, r in sorted(out.items())
        ])
    return repr(out)


# -- exact-algebra ------------------------------------------------------------

# one block of 20: the four dense products are the slowest 20%, so p90 sits
# mid-class; star, sas and weyl jobs fill the quantiles around p50
_ALGEBRA_BLOCK = (
    "dense", "star", "bracket", "star", "sas", "divergence", "bracket", "star",
    "weyl", "dense", "star", "bracket", "bch", "sas", "dense", "star",
    "divergence", "bracket", "weyl", "dense",
)
# powers (m, n) of the dense pairs of one block, in block order: every power
# from 5 to 8 on each side, and all four of similar cost (m + n = 13)
_DENSE_POWERS = ((5, 8), (6, 7), (7, 6), (8, 5))


def _to_program(ref: dict):
    return moyal.PhasePolynomial(
        {k: moyal.ExactScalar(re, im) for k, (re, im) in ref.items()}
    )


def _rational(rng, lo=-5, hi=5, den=4):
    num = 0
    while num == 0:
        num = rng.randint(lo, hi)
    return Fraction(num, rng.randint(1, den))


def _small_poly(rng) -> dict:
    """2-4 terms of total degree at most 4, small rational coefficients."""
    keys = set()
    n_terms = rng.randint(2, 4)
    while len(keys) < n_terms:
        a = rng.randint(0, 4)
        keys.add((a, rng.randint(0, 4 - a)))
    return {(a, b, 0): (_rational(rng), oracle.ZERO) for a, b in sorted(keys)}


def _linear_form(rng):
    """alpha*q + beta*p + gamma with every coefficient non-zero, so its
    powers are dense."""
    return tuple(_rational(rng, -4, 4, 3) for _ in range(3))


def _algebra_job(kind: str, rng, fixed, powers=None) -> Job:
    if kind in ("star", "bracket"):
        f, g = _small_poly(rng), _small_poly(rng)
        return Job(kind, (_to_program(f), _to_program(g)), (f, g))
    if kind == "dense":
        a, b = _linear_form(rng), _linear_form(rng)
        m, n = powers
        args = (
            _to_program(oracle.power(oracle.linear(a), m)),
            _to_program(oracle.power(oracle.linear(b), n)),
        )
        return Job(kind, args, (a, b, m, n))
    if kind == "sas":
        f = _small_poly(rng)
        return Job(kind, (_to_program(f),), f)
    if kind == "weyl":
        total = rng.randint(2, 4)
        n = rng.randint(0, total)
        return Job(kind, (n, total - n), (n, total - n))
    if kind == "divergence":
        potential = {}
        for deg, den in ((2, 2), (3, 6), (4, 24)):
            c = Fraction(rng.randint(1 if deg > 2 else 0, 3), den)
            if c:
                potential[(deg, 0, 0)] = (c, oracle.ZERO)
        depth = rng.randint(5, 7)
        h = fixed["kinetic"] + _to_program(potential)
        ref_h = oracle.add(oracle.monomial(Fraction(1, 2), 0, 2), potential)
        return Job(kind, (h, depth), (ref_h, depth))
    if kind == "bch":
        order = rng.randint(4, 8)
        return Job(kind, (order,), order)
    raise ValueError(kind)


def _algebra_stream(rng, fixed):
    while True:
        powers = iter(_DENSE_POWERS)
        yield [
            _algebra_job(kind, rng, fixed, next(powers) if kind == "dense" else None)
            for kind in _ALGEBRA_BLOCK
        ]


def _check_divergence(job, out) -> bool:
    h, depth = job.ref
    if sorted(out) != ["p", "q"]:
        return False
    for seed in ("q", "p"):
        classical, deformed = oracle.ladders(h, depth, seed)
        equal = tuple(c == d for c, d in zip(classical, deformed))
        first = equal.index(False) + 1 if False in equal else None
        diff = {} if first is None else oracle.add(deformed[first - 1], classical[first - 1], -1)
        rep = out[seed]
        if (rep.first_divergent_order, rep.per_order_equal) != (first, equal):
            return False
        if oracle.from_program(rep.difference) != diff:
            return False
    return True


def _exact(ok: bool) -> Verdict:
    return Verdict(solved=ok, wrong=not ok)


_ALGEBRA_ORACLES = {
    "star": lambda j, out: oracle.from_program(out) == oracle.star(*j.ref),
    "bracket": lambda j, out: oracle.from_program(out) == oracle.bracket(*j.ref),
    "dense": lambda j, out: oracle.from_program(out) == oracle.linear_power_star(*j.ref),
    "sas": lambda j, out: oracle.from_program(out) == j.ref,
    "weyl": lambda j, out: oracle.from_program(out) == oracle.monomial(1, *j.ref),
    "divergence": _check_divergence,
    "bch": lambda j, out: (
        out.order == j.ref and out.passed and out.first_failing_grade is None
    ),
}


# -- hbar2-routes -------------------------------------------------------------

# (Hamiltonian, T) slots: every Hamiltonian at the hierarchy default grid
# 0.1, 0.2, 0.3 (the low-T jobs of all five come first), except example1 at
# 0.3, which alone would take a fifth of the time; then two long-T jobs at
# 0.5, where transport's T^2 cost shows.  The long-T pair is squeeze (passes)
# and cubic (fails at ~1e-5): quartic and cosh at 0.5 sit on the 1e-6
# tolerance, so their verdict would flip with the seed.
_HBAR2_SLOTS = tuple(
    (name, t) for t in (0.1, 0.2, 0.3) for name in HAMILTONIANS if (name, t) != ("example1", 0.3)
) + (("squeeze", 0.5), ("cubic", 0.5))
# a cycle runs the slots twice: 32 latency samples, two per slot
_HBAR2_PASSES = 2


def _hbar2_stream(rng, fixed):
    """Seeded initial points with |q0|, |p0| in [0.5, 1.2]; each T sits up
    to 1% below its slot's value, which keeps a slot's cost nearly fixed."""
    while True:
        cycle = []
        for name, t in _HBAR2_SLOTS * _HBAR2_PASSES:
            z0 = tuple(rng.choice((-1, 1)) * rng.uniform(0.5, 1.2) for _ in range(2))
            t *= 1.0 - rng.uniform(0.0, 0.01)
            cycle.append(Job("hbar2", (fixed[name], z0, t), name))
        yield cycle


def _run_hbar2(ham, z0, t):
    ode = moyal.hbar2_ode(ham, z0, t)
    tra = moyal.hbar2_transport(ham, z0, t)
    return (ode.q2[0], ode.p2[0], tra.q2[0], tra.p2[0])


def _rel(x: float, y: float) -> float:
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale else 0.0


def squeeze_closed_form(z0, t, m=1.0, l=1.0):
    """hbar^2 coefficients (Q2, P2) for H = q^2 p^2 / (4 m l^2)."""
    q0, p0 = z0
    tau = t / (m * l * l)
    rate = q0 * p0 * tau / 2.0
    lead = tau * tau / 16.0
    return (
        q0 * math.exp(rate) * lead * (1.0 + tau * q0 * p0 / 6.0),
        p0 * math.exp(-rate) * lead * (1.0 - tau * q0 * p0 / 6.0),
    )


def _check_hbar2(job, out) -> Verdict:
    _ham, z0, t = job.args
    if not all(math.isfinite(x) for x in out):
        return Verdict(solved=False, wrong=True)
    oq, op, tq, tp = out
    gap = max(_rel(oq, tq), _rel(op, tp))
    closed_err = 0.0
    if job.ref in ("squeeze", "example1"):
        params = EXAMPLE1_PARAMS if job.ref == "example1" else {}
        cq, cp = squeeze_closed_form(z0, t, **params)
        closed_err = max(_rel(oq, cq), _rel(op, cp), _rel(tq, cq), _rel(tp, cp))
    wrong = closed_err > TOLERANCE
    return Verdict(solved=gap <= TOLERANCE and not wrong, wrong=wrong, gap=gap)


# -- closed-form-sweep --------------------------------------------------------

# one cycle of 20 (pair, grade) slots.  Grade 5 holds 8 slots, ranks 7-14 by
# cost, and grade 8 holds 4, ranks 17-20, so p50 and p90 each fall in the
# middle of one class rather than between two
_SWEEP_CYCLE = (
    ("unitary", 20), ("classical", 5), ("deformed", 8), ("classical", 2),
    ("deformed", 5), ("fresh", 5), ("classical", 8), ("deformed", 4),
    ("classical", 5), ("fresh", 3), ("deformed", 5), ("classical", 7),
    ("unitary", 20), ("fresh", 8), ("classical", 5), ("deformed", 6),
    ("fresh", 5), ("classical", 4), ("deformed", 5), ("deformed", 8),
)


def _fresh_rate(rng, used: set) -> Fraction:
    """A rate c with 0.1 <= |c| < 1 not used before in this stream."""
    while True:
        rate = Fraction(rng.choice((-1, 1)) * rng.randint(100, 999), 1000)
        if rate not in used:
            used.add(rate)
            return rate


def _sweep_job(pair: str, grade: int, rng, fixed, used: set) -> Job:
    if pair == "unitary":
        point = moyal.EvalPoint(
            q=rng.uniform(-0.5, 0.5), p=rng.uniform(0.05, 0.2), hbar=1.0,
            params={"beta": 1.0, "gamma": 1.0},
        )
        return Job("sweep", (*fixed["unitary"], grade, point), 1.0)
    t = rng.uniform(-1.0, 1.0)
    hbar = rng.choice((0.05, 0.1))
    point = moyal.EvalPoint(
        q=rng.uniform(-1.2, 1.2), p=rng.uniform(-1.2, 1.2), hbar=hbar,
        params={"t": t, "m": 1.0, "l": 1.0},
    )
    if pair == "deformed":
        return Job("sweep", (*fixed["deformed"], grade, point), 1.0)
    if pair == "classical":
        rate = Fraction(1, 2)  # example 1: c = 1 / (2 m l^2)
        f, g = fixed["classical"]
    else:
        rate = _fresh_rate(rng, used)
        arg = const(rate) * fixed["qpt"]
        f = fixed["q"] * call("exp", arg)
        g = fixed["p"] * call("exp", -arg)
    want = (1.0 + (hbar * float(rate) * t / 2.0) ** 2) ** -2
    return Job("sweep", (f, g, grade, point), want)


def _sweep_stream(rng, fixed):
    used: set = set()
    while True:
        yield [_sweep_job(pair, grade, rng, fixed, used) for pair, grade in _SWEEP_CYCLE]


def _run_sweep(f, g, grade, point):
    return moyal.moyal_bracket_truncated(f, g, grade, point).partial_sums[-1]


def _check_sweep(job, out) -> Verdict:
    return _exact(abs(out - job.ref) <= TOLERANCE)


_STREAMS = {
    "exact-algebra": _algebra_stream,
    "hbar2-routes": _hbar2_stream,
    "closed-form-sweep": _sweep_stream,
}

_RUN = {
    "star": lambda f, g: moyal.star_product(f, g),
    "bracket": lambda f, g: moyal.moyal_bracket(f, g),
    "dense": lambda f, g: moyal.star_product(f, g),
    "sas": lambda f: moyal.expand(moyal.sas_order(f)),
    "weyl": lambda n, m: moyal.expand(moyal.weyl_symmetrize(n, m)),
    "divergence": lambda h, depth: moyal.divergence_order(h, depth),
    "bch": lambda order: moyal.bch_check(order),
    "hbar2": _run_hbar2,
    "sweep": _run_sweep,
}

_CHECK = {"hbar2": _check_hbar2, "sweep": _check_sweep}
