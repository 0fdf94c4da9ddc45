"""Fixed inputs of each workload, built through the package's public constructors.

The module imports nothing from ``moyal`` at load time, so a fresh process
can time ``import moyal, moyal.cli`` plus :func:`build` as one workload's
set-up (see ``setup_probe.py``).
"""

WORKLOADS = ("exact-algebra", "hbar2-routes", "closed-form-sweep")

# Hamiltonians of hbar2-routes, in the order the job schedule cycles through them
HAMILTONIANS = ("squeeze", "quartic", "cubic", "cosh", "example1")

# example 1 is H = q^2 p^2 / (4 m l^2); its flow is the squeeze flow run
# for time t / (m l^2)
EXAMPLE1_PARAMS = {"m": 1.5, "l": 0.8}


def build(workload: str) -> dict:
    """Everything a workload's jobs share, keyed by name."""
    if workload == "exact-algebra":
        from moyal import parse_poly

        return {"kinetic": parse_poly("(1/2)*p^2")}
    if workload == "hbar2-routes":
        from moyal import HamiltonianSpec, builtin_example1, parse_expr

        return {
            "squeeze": HamiltonianSpec(parse_expr("q^2*p^2/4")),
            "quartic": HamiltonianSpec(parse_expr("p^2/2 + q^2/2 + q^4/24")),
            "cubic": HamiltonianSpec(parse_expr("p^2/2 + q^3/6")),
            "cosh": HamiltonianSpec(parse_expr("p^2/2 + cosh(q)/4")),
            "example1": HamiltonianSpec(
                builtin_example1().hamiltonian, dict(EXAMPLE1_PARAMS)
            ),
        }
    if workload == "closed-form-sweep":
        from moyal import builtin_example1, builtin_unitary_pair, parse_expr

        ex = builtin_example1()
        return {
            "classical": (ex.classical_position, ex.classical_momentum),
            "deformed": (ex.deformed_position.expr, ex.deformed_momentum.expr),
            "unitary": builtin_unitary_pair(),
            # building blocks of the fresh pairs q*exp(c*q*p*t), p*exp(-c*q*p*t)
            "q": parse_expr("q"),
            "p": parse_expr("p"),
            "qpt": parse_expr("q*p*t"),
        }
    raise ValueError(f"unknown workload {workload!r}")
