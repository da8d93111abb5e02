"""Invariant battery behind the ``verify`` command.

Each check returns (name, measured, bound, ok); the suite passes only if
every row passes.  Bounds follow the solver tolerance: assertions carry
slack proportional to grad_tol wherever a quantity comes out of an inner
minimization.
"""

from __future__ import annotations

import math

import numpy as np

from .diagnostics import dual_norm_q, dual_quotient, mu_lambda_consistency
from .domain import Domain, integrate_power
from .elliptic import SolverConfig, pmean_defect, project_cperp, project_pmean
from .flow import evolve, evolve_until_settled, profile_gap, settled_read_out
from .operators import BoundaryRegime, EnergyParams, energy, energy_and_gradient
from .oracle import minimize_rayleigh

__all__ = ["run_invariant_suite", "CheckRow"]

FD_SAMPLES = 5  # random fields of the central-difference gradient check
FLOW_STEPS = 30  # steps of the suite's monotonicity run
# Largest |lambda_flow / lambda_oracle - 1| of a settled flow; eigen refuses
# a larger gap too.
LAMBDA_GAP_BOUND = 5e-3


class CheckRow(tuple):
    """(name, measured, bound, ok) with a fixed-width table line."""

    def line(self) -> str:
        name, measured, bound, ok = self
        tag = "pass" if ok else "FAIL"
        return f"{tag}  {name:<38} measured={measured:<12.4e} bound={bound:.4e}"


def _row(name, measured, bound):
    return CheckRow((name, float(measured), float(bound), bool(measured <= bound)))


def _fd_gradient_check(dom, params, regime, rng):
    worst = 0.0
    for _ in range(FD_SAMPLES):
        u = rng.standard_normal(dom.n_nodes)
        _, raw = energy_and_gradient(dom, u, params, regime)
        delta = 3e-6 * max(1.0, float(np.max(np.abs(u))))
        fd = np.empty_like(u)
        for i in range(u.size):
            up = u.copy(); up[i] += delta
            dn = u.copy(); dn[i] -= delta
            fd[i] = (energy(dom, up, params, regime)
                     - energy(dom, dn, params, regime)) / (2 * delta)
        err = np.linalg.norm(raw - fd) / max(np.linalg.norm(fd), 1e-30)
        worst = max(worst, err)
    return worst


def run_invariant_suite(dom: Domain, params: EnergyParams,
                        regime: BoundaryRegime, cfg: SolverConfig,
                        seed: int = 0) -> list[CheckRow]:
    rows: list[CheckRow] = []
    rng = np.random.default_rng(seed)
    p = params.p
    slack = 10.0 * cfg.grad_tol

    fd_params = EnergyParams(p, params.epsilon or 1e-6)
    rows.append(_row("gradient vs central differences",
                     _fd_gradient_check(dom, fd_params, regime, rng), 1e-6))

    eig = minimize_rayleigh(dom, params, regime, cfg, seed=seed)
    rows.append(_row("oracle eigen-residual", eig.residual, slack))
    if regime.kind == "neumann":
        rows.append(_row("oracle zero p-mean defect",
                         pmean_defect(dom, eig.extremal, p), 1e-10))

    # Flow from nondegenerate data; the scheme's own monotone quantities.
    if regime.kind == "neumann":
        g = rng.uniform(0.5, 1.5, dom.n_nodes)  # ones would project to zero
    else:
        g = np.ones(dom.n_nodes)
    g = project_pmean(dom, g, p, regime)
    tau = 1.0 / (2.0 * eig.lam)
    traj = evolve(dom, g, tau, FLOW_STEPS, params, regime, cfg)
    nps = np.array([r.Np for r in traj.diagnostics])
    es = np.array([r.energy for r in traj.diagnostics])
    scale = nps[0]

    rows.append(_row("L^p decay violation",
                     float(np.max(np.diff(nps))), slack * scale))
    log_factor = math.log1p(p * tau * eig.lam / (p - 1.0))
    scaled = np.log(np.maximum(nps, 1e-300)) + log_factor * np.arange(nps.size)
    rows.append(_row("scaled L^p decay violation (log)",
                     float(np.max(np.diff(scaled))), slack))
    rows.append(_row("energy monotonicity violation",
                     float(np.max(np.diff(es))), slack * p * es[0]))
    second = np.diff(nps, 2)
    rows.append(_row("convexity trend violation",
                     float(-np.min(second)), slack * scale))
    resids = np.array([r.energy_residual for r in traj.diagnostics[1:]])
    rows.append(_row("energy identity sign violation",
                     float(np.max(resids)), slack * scale))
    if regime.kind == "neumann":
        cons = max(pmean_defect(dom, u, p) for u in traj.states)
        rows.append(_row("p-mean conservation defect", cons, slack))

    # Separated solution: the extremal decays by the exact per-step factor.
    factor = (1.0 + eig.lam * tau) ** (-1.0 / (p - 1.0))
    sep = evolve(dom, eig.extremal, tau, 10, params, regime, cfg)
    dev = 0.0
    for k in range(1, 11):
        ref = factor**k * eig.extremal
        dev = max(dev, float(np.linalg.norm(sep.states[k] - ref)
                             / np.linalg.norm(ref)))
    rows.append(_row("separated-solution deviation", dev, 100.0 * slack))

    # Dual Poincare inequality with the same-grid oracle constant.
    viol = 0.0
    for _ in range(30):
        f = project_cperp(rng.standard_normal(dom.n_nodes), regime)
        lhs = eig.mu * dual_norm_q(dom, f, params, regime, cfg)
        rhs = integrate_power(dom, f, params.q)
        viol = max(viol, lhs / rhs - 1.0)
    rows.append(_row("dual Poincare violation", viol, 1e-6))

    gap = abs(dual_quotient(dom, eig.extremal, params, regime, cfg) / eig.mu - 1.0)
    rows.append(_row("dual equality gap at extremal", gap, slack))

    # Flow estimates converge to the oracle pair.
    settled = evolve_until_settled(dom, g, params, regime, cfg, tau=tau)
    lam_hat, mu_hat, prof = settled_read_out(dom, settled, cfg)
    rows.append(_row("flow/oracle lambda gap",
                     abs(lam_hat / eig.lam - 1.0), LAMBDA_GAP_BOUND))
    run_profile_check = True
    if regime.kind == "neumann":
        # Conditional on the one-ray hypothesis: two seeds must land on
        # the same extremal ray (sign flips allowed).
        other = minimize_rayleigh(dom, params, regime, cfg, seed=seed + 1)
        hyp = profile_gap(dom, eig.extremal, other.extremal, p)
        run_profile_check = hyp <= 1e-4
    if run_profile_check:
        rows.append(_row("profile gap to oracle extremal",
                         profile_gap(dom, prof, eig.extremal, p), 1e-3))
    rows.append(_row("mu-lambda consistency gap",
                     mu_lambda_consistency(lam_hat, mu_hat, p), 0.02))
    return rows
