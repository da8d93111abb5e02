"""Doubly nonlinear diffusion flows and p-Laplacian ground states on grids.

The library evolves d/dt jp(v) = Delta_p v under Dirichlet, Robin, Neumann,
and nonlocal (fractional) boundary regimes with an implicit minimizing-
movement scheme, and extracts the optimal Poincare constant, its dual, and
the extremal profile from the large-time limit.
"""

from .diagnostics import (
    DiagnosticsRow,
    dual_norm_q,
    dual_quotient,
    energy_identity_residual,
    fill_dual_columns,
    lambda_decay_estimate,
    mu_lambda_consistency,
    rows_to_csv,
)
from .domain import (
    Domain,
    build_interval,
    build_masked,
    build_rectangle,
    integrate_power,
    load_mask,
    lp_norm,
)
from .elliptic import SolverConfig, implicit_step, inverse_operator, zero_pmean_shift
from .flow import (
    FlowTrajectory,
    auto_tau,
    evolve,
    evolve_until_settled,
    profile_gap,
    read_snapshot,
    rescaled_profile,
    settled_read_out,
    write_snapshot,
)
from .fractional import FractionalKernel, build_kernel
from .operators import (
    BoundaryRegime,
    EnergyParams,
    energy,
    energy_gradient,
    jp,
)
from .oracle import (
    EigenResult,
    dense_linear_reference,
    extremal_sign_normalize,
    minimize_rayleigh,
    operator_matrix,
)

__version__ = "0.1.0"
