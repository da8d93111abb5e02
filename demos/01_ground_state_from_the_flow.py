#!/usr/bin/env python3
# The large-time limit of the diffusion flow d/dt jp(v) = Delta_p v recovers
# the optimal Poincare constant and its extremal profile.  Starting from
# g = 1 on (0,1) with homogeneous Dirichlet values, the rescaled iterates
# converge to the p-Laplacian ground state, and the decay-rate estimator
# converges to lambda_p.
#
# Usage: python demos/01_ground_state_from_the_flow.py

import numpy as np

from dnflow import (
    BoundaryRegime,
    EnergyParams,
    SolverConfig,
    build_interval,
    dense_linear_reference,
    evolve_until_settled,
    minimize_rayleigh,
    profile_gap,
    settled_read_out,
)

n = 199
dom = build_interval(n)
cfg = SolverConfig(grad_tol=1e-9)

print(f"interval (0,1), n = {n} interior nodes, h = {dom.hx}")
print()

for p in (2.0, 3.0):
    params = EnergyParams(p, 1e-6)
    regime = BoundaryRegime.dirichlet()

    traj = evolve_until_settled(dom, np.ones(n), params, regime, cfg)
    lam_flow, _, prof = settled_read_out(dom, traj, cfg)

    # Independent ground truth: direct minimization of the Rayleigh quotient.
    eig = minimize_rayleigh(dom, params, regime, cfg, seed=0)
    gap = profile_gap(dom, prof, eig.extremal, p)

    print(f"p = {p}: flow stopped after {traj.steps} steps at tau = {traj.tau:.4f}")
    print(f"  lambda from decay rate      {lam_flow:.10f}")
    print(f"  lambda from quotient min    {eig.lam:.10f}")
    print(f"  relative difference         {abs(lam_flow / eig.lam - 1):.2e}")
    print(f"  profile gap (L^p)           {gap:.2e}")
    if p == 2.0:
        dense = dense_linear_reference(dom, regime)
        print(f"  dense eigensolve reference  {dense.lam:.10f}")
        print(f"  continuum pi^2              {np.pi**2:.10f}")
    print()
