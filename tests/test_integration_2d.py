"""Flow-level integration on 2-D domains: the trajectory machinery, oracle,
and dual norms agree on rectangles and masked bitmaps, not just intervals."""

import numpy as np
import pytest

from dnflow.diagnostics import dual_quotient, lambda_decay_estimate
from dnflow.domain import build_masked, build_rectangle, lp_norm
from dnflow.elliptic import SolverConfig, implicit_step, zero_pmean_shift
from dnflow.flow import evolve, evolve_until_settled, rescaled_profile
from dnflow.operators import BoundaryRegime, EnergyParams
from dnflow.oracle import dense_linear_reference, minimize_rayleigh

CFG = SolverConfig(grad_tol=1e-9)


def test_rectangle_dirichlet_flow_matches_dense():
    dom = build_rectangle(11, 11, 1.0, 1.0)
    params = EnergyParams(2.0, 0.0)
    regime = BoundaryRegime.dirichlet()
    traj = evolve_until_settled(dom, np.ones(dom.n_nodes), params, regime, CFG)
    lam_hat = lambda_decay_estimate(traj, traj.steps)
    dense = dense_linear_reference(dom, regime)
    assert abs(lam_hat / dense.lam - 1.0) <= 1e-6
    prof = rescaled_profile(traj, traj.steps)
    gap = min(lp_norm(dom, prof - dense.extremal, 2.0),
              lp_norm(dom, prof + dense.extremal, 2.0))
    assert gap <= 1e-3


def test_rectangle_robin_flow_vs_oracle_p25():
    dom = build_rectangle(9, 9, 1.0, 1.0)
    params = EnergyParams(2.5, 1e-6)
    regime = BoundaryRegime.robin(1.0)
    eig = minimize_rayleigh(dom, params, regime, CFG, seed=0)
    traj = evolve_until_settled(dom, np.ones(dom.n_nodes), params, regime, CFG)
    lam_hat = lambda_decay_estimate(traj, traj.steps)
    assert abs(lam_hat / eig.lam - 1.0) <= 5e-3
    mu_hat = dual_quotient(dom, traj.states[traj.steps],
                           params.with_epsilon(traj.eps_used[traj.steps]),
                           regime, CFG)
    assert abs(mu_hat / eig.mu - 1.0) <= 0.02


def test_masked_l_shape_dirichlet_flow():
    bitmap = np.ones((10, 10), dtype=bool)
    bitmap[:5, 5:] = False
    dom = build_masked(bitmap, 1.0 / 11)
    params = EnergyParams(2.0, 0.0)
    regime = BoundaryRegime.dirichlet()
    dense = dense_linear_reference(dom, regime)
    traj = evolve_until_settled(dom, np.ones(dom.n_nodes), params, regime, CFG)
    lam_hat = lambda_decay_estimate(traj, traj.steps)
    assert abs(lam_hat / dense.lam - 1.0) <= 1e-6
    prof = rescaled_profile(traj, traj.steps)
    assert np.all(prof > 0)


def test_masked_neumann_oracle_vs_dense():
    bitmap = np.ones((8, 8), dtype=bool)
    bitmap[:4, :2] = False
    dom = build_masked(bitmap, 0.1)
    regime = BoundaryRegime.neumann()
    dense = dense_linear_reference(dom, regime)
    eig = minimize_rayleigh(dom, EnergyParams(2.0, 0.0), regime, CFG, seed=0)
    assert abs(eig.lam / dense.lam - 1.0) <= 1e-7


def test_rectangle_neumann_monotone_quantities():
    dom = build_rectangle(7, 8, 1.0, 1.2)
    p = 2.5
    params = EnergyParams(p, 1e-6)
    regime = BoundaryRegime.neumann()
    rng = np.random.default_rng(0)
    g = zero_pmean_shift(dom, rng.standard_normal(dom.n_nodes), p)
    eig = minimize_rayleigh(dom, params, regime, CFG, seed=0)
    tau = 1.0 / (2 * eig.lam)
    traj = evolve(dom, g, tau, 25, params, regime, CFG)
    nps = np.array([r.Np for r in traj.diagnostics])
    assert np.all(np.diff(nps) <= 1e-8 * nps[0])
    assert np.all(np.diff(nps, 2) >= -1e-8 * nps[0])
    scaled = np.log(nps) + np.log1p(p * tau * eig.lam / (p - 1)) * np.arange(nps.size)
    assert np.all(np.diff(scaled) <= 1e-8)
    cons = np.array([abs(r.conservation) for r in traj.diagnostics])
    assert np.all(cons <= 1e-8 * np.array(
        [dom.cell_volume * np.abs(np.sign(s) * np.abs(s) ** (p - 1)).sum() + 1e-300
         for s in traj.states]))


def test_anisotropic_rectangle_dense_vs_sweeps():
    dom = build_rectangle(9, 5, 2.0, 1.0)  # hx != hy
    regime = BoundaryRegime.dirichlet()
    dense = dense_linear_reference(dom, regime)
    eig = minimize_rayleigh(dom, EnergyParams(2.0, 0.0), regime, CFG, seed=0)
    assert abs(eig.lam / dense.lam - 1.0) <= 1e-8
    # tensor closed form with distinct spacings
    lx = 2.0 / dom.hx**2 * (1 - np.cos(np.pi * dom.hx / 2.0))
    ly = 2.0 / dom.hy**2 * (1 - np.cos(np.pi * dom.hy / 1.0))
    assert dense.lam == pytest.approx(lx + ly, rel=1e-12)


def test_preconditioned_step_work_mesh_independent(evals):
    # Counted energy_and_gradient calls per implicit step, p = 3 Dirichlet:
    # doubling the grid may not raise them by more than half.
    per_step = {}
    for n in (31, 63):
        dom = build_rectangle(n, n, 1.0, 1.0)
        evals[0] = 0
        traj = evolve(dom, np.ones(dom.n_nodes), 0.05, 5, EnergyParams(3.0, 1e-6),
                      BoundaryRegime.dirichlet(), CFG)
        per_step[n] = evals[0] / traj.steps
    assert per_step[63] <= 1.5 * per_step[31], per_step


def test_first_step_from_constant_data_refreshes_preconditioner(evals):
    # At constant data the gradient vanishes inside the square, so the
    # Hessian there is eps-flat and the steps it scales are far from 1.
    # Refactoring M at such steps ends this solve in 64 evaluations; with
    # M kept for RESTART_PERIOD iterations it took 530.
    dom = build_rectangle(63, 63, 1.0, 1.0)
    implicit_step(dom, np.ones(dom.n_nodes), 0.05, EnergyParams(3.0, 1e-6),
                  BoundaryRegime.dirichlet(), CFG)
    assert evals[0] <= 150, evals[0]
