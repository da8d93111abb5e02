"""Every monotone quantity and estimator tracked along a trajectory.

Dual norms are evaluated through inverse elliptic solves:
||f||_*^q = <f, u> with -Delta_p u = f, which also equals p E(u) at the
minimizer.  The decay-rate estimator is exact on separated solutions, so it
has zero bias at the flow's fixed point.
With the flow's relative eps the quotients are degree-0 homogeneous, so
they, like every row, are evaluated at max|u| = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Domain, integrate_power
from .elliptic import SolveContext, SolverConfig, inverse_operator, project_cperp
from .errors import DegenerateInputError
from .operators import BoundaryRegime, EnergyParams, energy, jp

__all__ = [
    "DiagnosticsRow",
    "CSV_HEADER",
    "dual_norm_q",
    "dual_quotient",
    "lambda_decay_estimate",
    "mu_lambda_consistency",
    "energy_identity_residual",
    "fill_dual_columns",
    "rows_to_csv",
]

_CSV_COLUMNS = ("k", "t", "Np", "rayleigh", "dual_q", "lambda_decay", "lambda_rayleigh",
                "mu_from_dual", "conservation", "energy_residual")
CSV_HEADER = ",".join(_CSV_COLUMNS)


@dataclass
class DiagnosticsRow:
    """One step's scalars: norms, quotients, estimators, defects."""

    k: int
    t: float
    Np: float
    rayleigh: float
    dual_q: float
    lambda_decay: float
    conservation: float
    energy_residual: float
    energy: float  # E(u^k) at eps relative to max|u^(k-1)|; not a CSV column

    # The CSV repeats the two quotients as the lambda and mu estimates.
    @property
    def lambda_rayleigh(self) -> float:
        return self.rayleigh

    @property
    def mu_from_dual(self) -> float:
        return self.dual_q

    def csv_line(self) -> str:
        return ",".join(repr(getattr(self, c)) for c in _CSV_COLUMNS)


def dual_norm_q(dom: Domain, f, params: EnergyParams, regime: BoundaryRegime,
                cfg: SolverConfig):
    """q-th power of the dual norm: <f, (-Delta_p)^{-1} f> = p E(u)."""
    f = dom.check_field(f)
    u = inverse_operator(dom, f, params, regime, cfg)
    return dom.cell_volume * float(f @ u)


def dual_quotient(dom: Domain, u, params: EnergyParams, regime: BoundaryRegime,
                  cfg: SolverConfig, warm_start=None) -> float:
    """int |u|^p divided by the dual q-norm of jp(u); equals mu at extremals.

    Read at u / max|u| (see _unit_dual_quotient); warm_start, when given,
    starts that inverse solve, whose ray start fits its size.
    """
    u = dom.check_field(u)
    if not u.any():
        raise DegenerateInputError("dual quotient of the zero field")
    return _unit_dual_quotient(dom, u, params, regime, cfg, warm_start)[0]


def _unit_dual_quotient(dom, u, params, regime, cfg, warm_start, ctx=None):
    """(dual_quotient of u, the inverse solved for it), read at x = u / max|u|
    with eps = params.epsilon; warm_start approximates (-Delta_p)^{-1} jp(x),
    and the solve runs on ctx when given (see inverse_operator).

    jp(x) is first projected off solver drift out of C-perp.  A pairing
    outside (0, inf) raises DegenerateInputError, since quotients divide by it.
    """
    x = u / float(np.abs(u).max())
    f = project_cperp(jp(x, params.p), regime)
    sol = inverse_operator(dom, f, params, regime, cfg, warm_start=warm_start, ctx=ctx)
    val = dom.cell_volume * float(f @ sol)
    if not 0.0 < val < math.inf:
        raise DegenerateInputError(
            f"dual norm of jp(u) is {val!r}: rounded to zero or not finite")
    return integrate_power(dom, x, params.p) / val, sol


def lambda_decay_estimate(traj, k: int) -> float:
    """Decay-rate estimator ((Np(k-1)/Np(k))^((p-1)/p) - 1) / tau.

    Exact on separated trajectories; returns nan when either int |u|^p is 0
    (the zero state, or one whose p-th powers underflow).
    """
    if k < 1:
        raise ValueError("estimator needs k >= 1")
    n_prev = traj.diagnostics[k - 1].Np
    n_cur = traj.diagnostics[k].Np
    if n_prev <= 0.0 or n_cur <= 0.0:
        return math.nan
    p = traj.params.p
    return ((n_prev / n_cur) ** ((p - 1.0) / p) - 1.0) / traj.tau


def mu_lambda_consistency(lam: float, mu: float, p: float) -> float:
    """Relative gap |mu - lam^(1/(p-1))| / lam^(1/(p-1))."""
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    ref = lam ** (1.0 / (p - 1.0))
    return abs(mu - ref) / ref


def energy_identity_residual(traj, k: int) -> float:
    """Defect of the discrete energy identity at step k.

    r_k = (1/p)(Np(k) - Np(k-1)) + (tau p/(p-1)) E(u^k); the scheme keeps
    r_k <= 0 up to solver slack.
    """
    if k < 1:
        raise ValueError("residual needs k >= 1")
    p = traj.params.p
    n_prev = traj.diagnostics[k - 1].Np
    n_cur = traj.diagnostics[k].Np
    e_k = traj.diagnostics[k].energy
    return (n_cur - n_prev) / p + (traj.tau / (p - 1.0)) * p * e_k


def fill_dual_columns(dom: Domain, traj, cfg: SolverConfig) -> None:
    """Compute dual_q (and so mu_from_dual) for every row with Np > 0.

    A row of the separated tail (traj.predicted) has, at max|u| = 1, the
    state of the row before it, and the quotient is degree-0 homogeneous,
    so it takes that row's dual_q.  Every other row solves its inverse at
    max|u| = 1 (see _unit_dual_quotient), warm-started from the last
    solved row's solution on the SolveContext the solves share, which hands
    that solve's evaluation on unless the Neumann shift moved the solution
    (see inverse_operator).
    """
    ctx = SolveContext(dom, traj.regime, traj.params.p)
    warm, rows, repeats = None, traj.diagnostics, set(traj.predicted)
    for k, row in enumerate(rows):
        if row.Np <= 0.0:
            continue
        if k in repeats and rows[k - 1].Np > 0.0:
            row.dual_q = rows[k - 1].dual_q
            continue
        row.dual_q, warm = _unit_dual_quotient(
            dom, traj.states[k], traj.params, traj.regime, cfg, warm, ctx)


def rows_to_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_line() for r in rows]) + "\n"


def energy_and_power(dom: Domain, x, params: EnergyParams, regime: BoundaryRegime):
    """(E(x), sum |x|^p): the evaluation a diagnostics row reads."""
    return energy(dom, x, params, regime), float((np.abs(x) ** params.p).sum())


def build_row(dom: Domain, traj, k: int, x, scale: float, evaluation=None) -> DiagnosticsRow:
    """Cheap (no inverse solve) diagnostics for step k of a trajectory, whose
    u^k = scale * x has eps relative to scale = max|u^(k-1)| (max|u^0| at
    k = 0): E and int |u|^p are read at x and scaled by scale^p.  evaluation,
    when the caller already has it, is (E(x), sum |x|^p) at traj.params
    (see energy_and_power)."""
    p = traj.params.p
    vol = dom.cell_volume
    if evaluation is None:
        evaluation = energy_and_power(dom, x, traj.params, traj.regime)
    e_x, power_sum = evaluation
    try:
        size = scale ** p
    except OverflowError:  # refused by the march (see flow._record)
        size = math.inf
    ray = p * e_x / (vol * power_sum) if power_sum > 0.0 else math.nan
    cons = vol * float(jp(traj.states[k], p).sum())
    return DiagnosticsRow(
        k=k, t=k * traj.tau, Np=vol * power_sum * size, rayleigh=ray, dual_q=math.nan,
        lambda_decay=math.nan, conservation=cons, energy_residual=math.nan, energy=e_x * size)
