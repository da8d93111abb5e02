"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Oracle eigenpairs are cached per configuration so the criteria share
ground truth.
"""

import math
import time

import numpy as np

from dnflow.diagnostics import (
    dual_norm_q,
    dual_quotient,
    fill_dual_columns,
    lambda_decay_estimate,
    mu_lambda_consistency,
)
from dnflow.domain import build_interval, integrate_power, lp_norm
from dnflow.elliptic import SolverConfig, inverse_operator, zero_pmean_shift
from dnflow.flow import evolve, evolve_until_settled, rescaled_profile
from dnflow.operators import BoundaryRegime, EnergyParams, energy, energy_gradient
from dnflow.oracle import minimize_rayleigh, dense_linear_reference

DIRICHLET = BoundaryRegime.dirichlet()
NEUMANN = BoundaryRegime.neumann()

_eig_cache = {}


def cached_eig(n, params, regime, grad_tol=1e-9, seed=0):
    key = (n, params.p, params.epsilon, regime.kind, regime.beta, regime.s,
           grad_tol, seed)
    if key not in _eig_cache:
        dom = build_interval(n)
        _eig_cache[key] = minimize_rayleigh(
            dom, params, regime, SolverConfig(grad_tol=grad_tol), seed=seed)
    return _eig_cache[key]


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_linear_eigenvalue_anchor():
    t0 = time.monotonic()
    n = 199
    dom = build_interval(n)
    params = EnergyParams(2.0, 1e-6)
    cfg = SolverConfig(grad_tol=1e-9)
    traj = evolve_until_settled(dom, np.ones(n), params, DIRICHLET, cfg)
    lam_hat = lambda_decay_estimate(traj, traj.steps)
    dense = dense_linear_reference(dom, DIRICHLET)
    elapsed = time.monotonic() - t0
    gap_dense = abs(lam_hat / dense.lam - 1.0)
    gap_pi = abs(lam_hat / math.pi**2 - 1.0)
    ok = gap_dense <= 1e-6 and gap_pi <= 1e-4 and elapsed <= 10.0
    report(1, ok, f"flow-vs-dense {gap_dense:.2e} (<=1e-6), "
                  f"vs pi^2 {gap_pi:.2e} (<=1e-4), runtime {elapsed:.2f}s (<=10s)")


def test_criterion_02_nonlinear_eigenvalue_anchor():
    t0 = time.monotonic()
    n, p = 399, 3.0
    dom = build_interval(n)
    params = EnergyParams(p, 1e-6)
    cfg = SolverConfig(grad_tol=1e-9)
    eig = cached_eig(n, params, DIRICHLET)
    traj = evolve_until_settled(dom, np.ones(n), params, DIRICHLET, cfg)
    lam_hat = lambda_decay_estimate(traj, traj.steps)
    # Classical 1-D value: pi_p^p (see test_oracle for the shooting check).
    pi_p = 2 * math.pi * (p - 1) ** (1 / p) / (p * math.sin(math.pi / p))
    lam_classical = pi_p ** p
    elapsed = time.monotonic() - t0
    gap_oracle = abs(lam_hat / eig.lam - 1.0)
    gap_classical = abs(lam_hat / lam_classical - 1.0)
    ok = gap_oracle <= 5e-3 and gap_classical <= 1e-2 and elapsed <= 60.0
    report(2, ok, f"flow-vs-oracle {gap_oracle:.2e} (<=5e-3), vs classical "
                  f"{gap_classical:.2e} (<=1e-2), runtime {elapsed:.1f}s (<=60s)")


def _profile_gap(dom, traj, eig, p):
    prof = rescaled_profile(traj, traj.steps)
    if prof is None:
        return math.inf
    return min(lp_norm(dom, prof - eig.extremal, p),
               lp_norm(dom, prof + eig.extremal, p))


def test_criterion_03_profile_limits():
    cfg = SolverConfig(grad_tol=1e-9)
    details = []
    ok = True
    cases = [
        ("dirichlet p=3", 63, EnergyParams(3.0, 1e-6), DIRICHLET),
        ("robin beta=1 p=2", 63, EnergyParams(2.0, 1e-6), BoundaryRegime.robin(1.0)),
        ("fractional s=0.5 p=2", 64, EnergyParams(2.0, 1e-6),
         BoundaryRegime.fractional(0.5)),
    ]
    for label, n, params, regime in cases:
        dom = build_interval(n)
        eig = cached_eig(n, params, regime)
        traj = evolve_until_settled(dom, np.ones(n), params, regime, cfg)
        gap = _profile_gap(dom, traj, eig, params.p)
        details.append(f"{label}: gap {gap:.2e}")
        ok = ok and gap <= 1e-3

    # Neumann: gated on the extremal-ratio hypothesis (two seeds land on one
    # ray; a ratio of -1 is still a constant ratio, so compare modulo sign).
    n, params = 48, EnergyParams(2.5, 1e-6)
    dom = build_interval(n)
    eig_a = cached_eig(n, params, NEUMANN, seed=0)
    eig_b = cached_eig(n, params, NEUMANN, seed=1)
    hyp_gap = min(lp_norm(dom, eig_a.extremal - eig_b.extremal, params.p),
                  lp_norm(dom, eig_a.extremal + eig_b.extremal, params.p))
    if hyp_gap <= 1e-4:
        g = zero_pmean_shift(dom, np.random.default_rng(2).standard_normal(n),
                             params.p)
        traj = evolve_until_settled(dom, g, params, NEUMANN, cfg)
        gap = _profile_gap(dom, traj, eig_a, params.p)
        details.append(f"neumann (hypothesis holds, {hyp_gap:.1e}): gap {gap:.2e}")
        ok = ok and gap <= 1e-3
    else:
        details.append(f"neumann gated off (extremal-ratio gap {hyp_gap:.1e})")
    report(3, ok, "; ".join(details) + " (<=1e-3)")


def test_criterion_04_separation_of_variables():
    cfg = SolverConfig(grad_tol=1e-10)
    n, steps = 63, 100
    dom = build_interval(n)
    worst = {}
    for p in (1.5, 2.0, 3.0):
        # eps stays relative to the decaying scale inside evolve, so the
        # homogeneity defect it adds is ~(eps)^2 per step, far below 1e-6.
        params = EnergyParams(p, 1e-8 if p < 2 else (0.0 if p == 2.0 else 1e-6))
        eig = cached_eig(n, params, DIRICHLET, grad_tol=1e-10)
        tau = 0.02 / eig.lam
        traj = evolve(dom, eig.extremal, tau, steps, params, DIRICHLET, cfg)
        dev = 0.0
        for k in range(1, steps + 1):
            ref = (1.0 + eig.lam * tau) ** (-k / (p - 1.0)) * eig.extremal
            dev = max(dev, float(np.linalg.norm(traj.states[k] - ref)
                                 / np.linalg.norm(ref)))
        worst[p] = dev
    ok = all(v <= 1e-6 for v in worst.values())
    report(4, ok, "max deviation over 100 steps: " +
           ", ".join(f"p={p}: {v:.2e}" for p, v in worst.items()) + " (<=1e-6)")


def _monotonicity_violations(n, p, regime, grad_tol, steps=200):
    dom = build_interval(n)
    params = EnergyParams(p, 1e-6)
    cfg = SolverConfig(grad_tol=grad_tol)
    # The oracle constant is ground truth shared by both tolerance levels;
    # lambda is quadratically accurate in the eigen-residual, so the 1e-9
    # oracle is far more accurate than either slack level needs.
    eig = cached_eig(n, params, regime, grad_tol=1e-9)
    if regime.kind == "neumann":
        g = zero_pmean_shift(dom, np.random.default_rng(0).standard_normal(n), p)
    else:
        g = np.ones(n)
    tau = 1.0 / (2.0 * eig.lam)
    traj = evolve(dom, g, tau, steps, params, regime, cfg)
    nps = np.array([r.Np for r in traj.diagnostics])
    es = np.array([r.energy for r in traj.diagnostics])

    viol = {}
    # relative per-step growth of quantities that must not increase
    viol["lp_decay"] = float(np.max(nps[1:] / nps[:-1])) - 1.0
    log_factor = math.log1p(p * tau * eig.lam / (p - 1.0))
    scaled = np.log(nps) + log_factor * np.arange(nps.size)
    viol["scaled_decay"] = float(np.max(np.diff(scaled)))
    viol["energy"] = float(np.max(es[1:] / np.maximum(es[:-1], 1e-300))) - 1.0
    second = nps[2:] - 2 * nps[1:-1] + nps[:-2]
    viol["convexity"] = float(np.max(-second / np.maximum(nps[:-2], 1e-300)))
    if regime.kind == "neumann":
        from dnflow.elliptic import pmean_defect

        viol["conservation"] = max(
            pmean_defect(dom, traj.states[k], p) for k in range(steps + 1))
    return viol


def test_criterion_05_monotonicity_suite():
    regimes = [DIRICHLET, BoundaryRegime.robin(1.0), NEUMANN,
               BoundaryRegime.fractional(0.5)]
    ok = True
    lines = []
    for grad_tol in (1e-9, 5e-10):
        slack = 10.0 * grad_tol
        worst = 0.0
        for p in (1.5, 2.0, 3.0):
            for regime in regimes:
                viol = _monotonicity_violations(32, p, regime, grad_tol)
                for name, v in viol.items():
                    worst = max(worst, v)
                    if v > slack:
                        ok = False
                        lines.append(
                            f"VIOLATION {regime.kind} p={p} {name}: {v:.2e} > {slack:.1e}")
        lines.append(f"grad_tol={grad_tol:.0e}: worst violation {worst:.2e} "
                     f"(slack {slack:.1e})")
    report(5, ok, "; ".join(lines))


def test_criterion_06_dual_poincare_suite():
    cfg = SolverConfig(grad_tol=1e-9)
    n = 32
    dom = build_interval(n)
    ok = True
    lines = []
    cases = [
        (EnergyParams(3.0, 1e-6), DIRICHLET),
        (EnergyParams(2.0, 0.0), BoundaryRegime.robin(1.0)),
        (EnergyParams(2.5, 1e-6), NEUMANN),
        (EnergyParams(2.0, 0.0), BoundaryRegime.fractional(0.5)),
    ]
    rng = np.random.default_rng(0)
    for params, regime in cases:
        eig = cached_eig(n, params, regime)
        worst = -math.inf
        for _ in range(200):
            f = rng.standard_normal(n)
            if regime.kind == "neumann":
                f = f - f.mean()
            lhs = eig.mu * dual_norm_q(dom, f, params, regime, cfg)
            rhs = integrate_power(dom, f, params.q)
            worst = max(worst, lhs / rhs - 1.0)
        gap = abs(dual_quotient(dom, eig.extremal, params, regime, cfg)
                  / eig.mu - 1.0)
        ok = ok and worst <= 1e-6 and gap <= 10 * cfg.grad_tol
        lines.append(f"{regime.kind}: max violation {worst:.2e}, "
                     f"equality gap {gap:.2e}")

    # C-perp triangle and Minkowski-type inequalities on zero-mean pairs.
    params = EnergyParams(2.5, 1e-6)
    q = params.q
    worst_tri = worst_mink = -math.inf
    for _ in range(200):
        f = rng.standard_normal(n)
        g = rng.standard_normal(n)
        f -= f.mean()
        g -= g.mean()
        nf = dual_norm_q(dom, f, params, NEUMANN, cfg) ** (1 / q)
        ng = dual_norm_q(dom, g, params, NEUMANN, cfg) ** (1 / q)
        nfg = dual_norm_q(dom, f + g, params, NEUMANN, cfg) ** (1 / q)
        pairing = dom.cell_volume * float(
            f @ inverse_operator(dom, g, params, NEUMANN, cfg))
        worst_mink = max(worst_mink, pairing / (nf * ng ** (q - 1)) - 1.0)
        worst_tri = max(worst_tri, nfg / (nf + ng) - 1.0)
    ok = ok and worst_tri <= 1e-6 and worst_mink <= 1e-6
    lines.append(f"C-perp triangle {worst_tri:.2e}, Minkowski {worst_mink:.2e}")
    report(6, ok, "; ".join(lines) + " (bounds 1e-6 / 1e-8)")


def test_criterion_07_mu_lambda_consistency():
    cfg = SolverConfig(grad_tol=1e-9)
    n = 63
    dom = build_interval(n)
    ok = True
    parts = []
    for regime in (DIRICHLET, BoundaryRegime.robin(1.0)):
        for p in (1.5, 2.0, 3.0):
            params = EnergyParams(p, 1e-6)
            traj = evolve_until_settled(dom, np.ones(n), params, regime, cfg)
            k = traj.steps
            lam_hat = lambda_decay_estimate(traj, k)
            mu_hat = dual_quotient(dom, traj.states[k], params, regime, cfg)
            gap = mu_lambda_consistency(lam_hat, mu_hat, p)
            ok = ok and gap <= 0.02
            parts.append(f"{regime.kind} p={p}: {gap:.2e}")
    report(7, ok, ", ".join(parts) + " (<=0.02)")


def _max_positive_increment(values, floor):
    inc = np.diff(np.asarray(values))
    return max(float(np.max(inc, initial=0.0)), floor)


def test_criterion_08_quotient_refinement():
    cfg = SolverConfig(grad_tol=1e-9)
    ok = True
    lines = []
    cases = [
        (32, EnergyParams(2.5, 1e-6), DIRICHLET),
        (32, EnergyParams(2.5, 1e-6), BoundaryRegime.robin(1.0)),
        (32, EnergyParams(2.5, 1e-6), NEUMANN),
        (40, EnergyParams(2.0, 1e-6), BoundaryRegime.fractional(0.5)),
    ]
    for n, params, regime in cases:
        dom = build_interval(n)
        p = params.p
        eig = cached_eig(n, params, regime)
        rng = np.random.default_rng(1)
        g = rng.standard_normal(n) + 0.5
        if regime.kind == "neumann":
            g = zero_pmean_shift(dom, g, p)
        T = 1.6 / eig.lam
        floor_ray = 10 * cfg.grad_tol * eig.lam
        floor_dual = 10 * cfg.grad_tol * eig.mu
        m_ray, m_dual = [], []
        for steps in (12, 24, 48):
            tau = T / steps
            traj = evolve(dom, g, tau, steps, params, regime, cfg)
            fill_dual_columns(dom, traj, cfg)
            rays = [r.rayleigh for r in traj.diagnostics]
            duals = [r.dual_q for r in traj.diagnostics]
            m_ray.append(_max_positive_increment(rays, floor_ray))
            m_dual.append(_max_positive_increment(duals, floor_dual))
        ray_ok = all(m_ray[i + 1] <= max(m_ray[i] / 1.5, floor_ray)
                     for i in range(2))
        dual_ok = all(m_dual[i + 1] <= max(m_dual[i] / 1.5, floor_dual)
                      for i in range(2))
        ok = ok and ray_ok and dual_ok
        lines.append(f"{regime.kind}: rayleigh {['%.1e' % v for v in m_ray]}, "
                     f"dual {['%.1e' % v for v in m_dual]}")
    report(8, ok, "; ".join(lines) + " (>=1.5x shrink per tau halving)")


def test_criterion_09_comparison_nondegeneracy():
    cfg = SolverConfig(grad_tol=1e-9)
    n = 63
    dom = build_interval(n)
    ok = True
    parts = []
    for p in (2.0, 3.0):
        params = EnergyParams(p, 1e-6)
        eig = cached_eig(n, params, DIRICHLET)
        barrier = eig.extremal / float(np.max(eig.extremal))  # <= 1 = g
        tau = 1.0 / (2 * eig.lam)
        traj = evolve(dom, np.ones(n), tau, 40, params, DIRICHLET, cfg)
        worst = 0.0
        for k in range(1, 41):
            bound = (1 + eig.lam * tau) ** (-k / (p - 1)) * barrier
            worst = max(worst, float(np.max(bound - traj.states[k])))
        ok = ok and worst <= 10 * cfg.grad_tol
        parts.append(f"p={p}: max undershoot {worst:.2e}")
    report(9, ok, ", ".join(parts) + f" (<= {10 * cfg.grad_tol:.0e})")


def test_criterion_10_gradient_correctness():
    n = 16
    dom = build_interval(n)
    regimes = [DIRICHLET, BoundaryRegime.robin(1.0), NEUMANN,
               BoundaryRegime.fractional(0.5)]
    rng = np.random.default_rng(0)
    worst = 0.0
    for regime in regimes:
        for p in (1.5, 2.0, 2.5, 3.0):
            params = EnergyParams(p, 1e-6)
            for _ in range(50):
                u = rng.standard_normal(n)
                g = energy_gradient(dom, u, params, regime)
                delta = 3e-6 * max(1.0, float(np.max(np.abs(u))))
                fd = np.empty(n)
                for i in range(n):
                    up = u.copy(); up[i] += delta
                    dn = u.copy(); dn[i] -= delta
                    fd[i] = (energy(dom, up, params, regime)
                             - energy(dom, dn, params, regime)) / (2 * delta)
                fd /= dom.cell_volume
                err = float(np.linalg.norm(g - fd) / np.linalg.norm(fd))
                worst = max(worst, err)
    ok = worst <= 1e-6
    report(10, ok, f"worst relative error {worst:.2e} over "
                   f"4 regimes x 4 p x 50 fields (<=1e-6)")
