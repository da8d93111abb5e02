#!/usr/bin/env python3
# One flow, four boundary regimes: homogeneous Dirichlet, Robin with trace
# coefficient beta, Neumann under the zero p-mean constraint, and the
# nonlocal (fractional) Dirichlet problem on the interval.  Each run
# extracts (lambda, mu) from its large-time behavior and cross-checks the
# quotient minimizer.
#
# Usage: python demos/05_four_boundary_regimes.py

import numpy as np

from dnflow import (
    BoundaryRegime,
    EnergyParams,
    SolverConfig,
    build_interval,
    evolve_until_settled,
    minimize_rayleigh,
    settled_read_out,
    zero_pmean_shift,
)

n = 63
dom = build_interval(n)
cfg = SolverConfig(grad_tol=1e-9)
p = 2.5
params = EnergyParams(p, 1e-6)
rng = np.random.default_rng(0)

print(f"p = {p} on (0,1), n = {n}")
print()
print("regime       steps   lambda (flow)   lambda (oracle)  mu (flow)       mu = lam^(1/(p-1))")
for regime in (BoundaryRegime.dirichlet(),
               BoundaryRegime.robin(1.0),
               BoundaryRegime.neumann(),
               BoundaryRegime.fractional(0.5)):
    if regime.kind == "neumann":
        g = zero_pmean_shift(dom, rng.standard_normal(n), p)
    else:
        g = np.ones(n)
    traj = evolve_until_settled(dom, g, params, regime, cfg)
    lam_hat, mu_hat, _ = settled_read_out(dom, traj, cfg)
    eig = minimize_rayleigh(dom, params, regime, cfg, seed=0)
    print(f"{regime.kind:12s} {traj.steps:4d}   {lam_hat:14.8f}  {eig.lam:14.8f}  "
          f"{mu_hat:14.8f}  {lam_hat ** (1 / (p - 1)):14.8f}")
print()
print("the last two columns agreeing is the mu = lambda^(1/(p-1)) duality;")
print("the Neumann run conserves the p-mean of the state at every step")
