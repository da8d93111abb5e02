#!/usr/bin/env python3
# The scheme inherits every monotone quantity of the continuous flow:
# the L^p norm decays, the exponentially rescaled L^p norm still decays,
# the gradient energy decreases, k -> |u^k|_p^p is convex, and both the
# Rayleigh quotient and its dual counterpart settle onto (lambda, mu).
#
# Usage: python demos/03_monotone_quantities.py

import numpy as np

from dnflow import (
    BoundaryRegime,
    EnergyParams,
    SolverConfig,
    build_interval,
    evolve,
    fill_dual_columns,
    minimize_rayleigh,
)

n, p = 63, 2.5
dom = build_interval(n)
params = EnergyParams(p, 1e-6)
regime = BoundaryRegime.dirichlet()
cfg = SolverConfig(grad_tol=1e-9)

eig = minimize_rayleigh(dom, params, regime, cfg, seed=0)
tau = 1.0 / (2 * eig.lam)
traj = evolve(dom, np.ones(n), tau, 30, params, regime, cfg)
fill_dual_columns(dom, traj, cfg)

print(f"p = {p}: oracle lambda = {eig.lam:.8f}, mu = {eig.mu:.8f}")
print()
print("  k        Np           scaled Np      energy       rayleigh     dual quotient")
factor = 1.0 + p * tau * eig.lam / (p - 1.0)
for row in traj.diagnostics:
    if row.k % 3:
        continue
    scaled = row.Np * factor**row.k
    print(f"{row.k:3d}  {row.Np:.6e}  {scaled:.6e}  {row.energy:.4e}  {row.rayleigh:12.6f}  "
          f"{row.dual_q:12.6f}")

nps = np.array([r.Np for r in traj.diagnostics])
print()
print("checks over the whole trajectory:")
print(f"  max L^p increase          {np.diff(nps).max():.2e}  (<= 0 up to solver slack)")
print(f"  min second difference     {np.diff(nps, 2).min():.2e}  (convexity)")
print(f"  rayleigh - lambda at end  {traj.diagnostics[-1].rayleigh - eig.lam:+.2e}")
print(f"  dual_q   - mu at end      {traj.diagnostics[-1].dual_q - eig.mu:+.2e}")
