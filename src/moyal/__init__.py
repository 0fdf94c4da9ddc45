"""Exact star-product algebra on phase-space symbols, closed-form carriers,
and a semiclassical trajectory toolkit quantifying where deformed flows
leave classical ones."""

from .scalars import ExactScalar
from .poly import (
    EvalPoint,
    HBAR,
    P,
    PhasePolynomial,
    Q,
    bracket_2n,
    coherent_smooth,
    format_poly,
    hbar_component,
    moyal_bracket,
    parse_poly,
    poisson_bracket,
    star_n,
    star_product,
)
from .words import (
    StarExpression,
    StarWord,
    bch_check,
    expand,
    sas_order,
    star_function_S,
    weyl_symmetrize,
)
from .expr import (
    Expr,
    differentiate,
    eval_expr,
    parse_expr,
    print_expr,
)
from .brackets import (
    BracketReport,
    bracket_2n_expr,
    moyal_bracket_truncated,
    poisson_expr,
    star_n_expr,
)
from .closed_forms import builtin_example1, builtin_unitary_pair
from .flow import (
    HamiltonianSpec,
    Trajectory,
    check_energy,
    check_symplectic,
    check_transport,
    integrate_flow,
    integrate_flow_jets,
)
from .semiclassical import (
    DivergenceReport,
    Hbar2Result,
    cubic_order7_report,
    divergence_order,
    hbar2_ode,
    hbar2_transport,
    iterated_brackets,
    star_exp_A2,
    taylor_flow,
)

__version__ = "0.1.0"
