import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from dnflow.diagnostics import fill_dual_columns
from dnflow.domain import build_interval, integrate_power
from dnflow.elliptic import (
    SolverConfig,
    implicit_step,
    inverse_operator,
    pmean_defect,
    step_objective,
    zero_pmean_shift,
)
from dnflow.errors import CompatibilityError, NonConvergenceError
from dnflow.flow import evolve
from dnflow.operators import BoundaryRegime, EnergyParams, energy, energy_gradient, jp

DIRICHLET = BoundaryRegime.dirichlet()
NEUMANN = BoundaryRegime.neumann()
CFG = SolverConfig(grad_tol=1e-9)


def sine_mode(dom, m=1):
    return np.sin(m * np.pi * dom.nodes)


def mode_eigenvalue(dom, m=1):
    h = dom.hx
    return 2.0 / h**2 * (1.0 - np.cos(m * np.pi * h))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(grad_tol=0.0)


def test_implicit_step_linear_mode():
    d = build_interval(49)
    phi = sine_mode(d)
    lam = mode_eigenvalue(d)
    tau = 0.04
    u = implicit_step(d, phi, tau, EnergyParams(2.0, 0.0), DIRICHLET, CFG)
    ref = phi / (1.0 + lam * tau)
    assert np.linalg.norm(u - ref) / np.linalg.norm(ref) <= CFG.grad_tol * 10


def test_implicit_step_zero():
    d = build_interval(9)
    u = implicit_step(d, np.zeros(9), 0.1, EnergyParams(2.0, 0.0), DIRICHLET, CFG)
    assert np.all(u == 0.0)


def test_implicit_step_extremal_scaling_p3():
    # Substituting u = c*phi into the step equation gives c^(p-1)(1+lam*tau)=1.
    from dnflow.oracle import minimize_rayleigh

    d = build_interval(39)
    p = 3.0
    params = EnergyParams(p, 1e-7)
    eig = minimize_rayleigh(d, params, DIRICHLET, SolverConfig(grad_tol=1e-10), seed=0)
    tau = 0.05
    u = implicit_step(d, eig.extremal, tau, params, DIRICHLET, CFG)
    ref = (1.0 + eig.lam * tau) ** (-1.0 / (p - 1.0)) * eig.extremal
    assert np.linalg.norm(u - ref) / np.linalg.norm(ref) <= 10 * CFG.grad_tol


def test_implicit_step_decreases_objective_and_norms():
    d = build_interval(25)
    rng = np.random.default_rng(0)
    for p in (1.5, 2.0, 3.0):
        params = EnergyParams(p, 1e-8)
        u_prev = rng.standard_normal(25)
        tau = 0.02
        u = implicit_step(d, u_prev, tau, params, DIRICHLET, CFG)
        f_new = step_objective(d, u, u_prev, tau, params, DIRICHLET)
        f_old = step_objective(d, u_prev, u_prev, tau, params, DIRICHLET)
        assert f_new <= f_old
        scale = integrate_power(d, u_prev, p)
        assert integrate_power(d, u, p) <= scale + 1e-10 * scale
        assert energy(d, u, params, DIRICHLET) <= energy(d, u_prev, params, DIRICHLET) * (1 + 1e-10)


def test_implicit_step_comparison_1d():
    # 1-D energies are submodular, so ordered data give ordered minimizers.
    d = build_interval(19)
    rng = np.random.default_rng(1)
    for p in (1.5, 2.0, 3.0):
        params = EnergyParams(p, 1e-8)
        w_prev = rng.standard_normal(19)
        u_prev = w_prev + rng.uniform(0.1, 1.0, 19)
        tau = 0.05
        u = implicit_step(d, u_prev, tau, params, DIRICHLET, CFG)
        w = implicit_step(d, w_prev, tau, params, DIRICHLET, CFG)
        assert np.all(u >= w - 10 * CFG.grad_tol)


def test_inverse_operator_linear_mode():
    d = build_interval(49)
    phi = sine_mode(d)
    lam = mode_eigenvalue(d)
    u = inverse_operator(d, phi, EnergyParams(2.0, 0.0), DIRICHLET, CFG)
    assert np.linalg.norm(u - phi / lam) / np.linalg.norm(phi / lam) <= 1e-8


def test_inverse_operator_zero_rhs():
    d = build_interval(9)
    u = inverse_operator(d, np.zeros(9), EnergyParams(3.0, 0.0), DIRICHLET, CFG)
    assert np.all(u == 0.0)


def test_inverse_operator_right_inverse():
    d = build_interval(21)
    rng = np.random.default_rng(2)
    for p in (1.5, 2.5):
        params = EnergyParams(p, 1e-8)
        f = rng.standard_normal(21)
        u = inverse_operator(d, f, params, DIRICHLET, CFG)
        g = energy_gradient(d, u, params, DIRICHLET)
        err = np.linalg.norm(g - f) / np.linalg.norm(f)
        assert err <= 10 * CFG.grad_tol


def test_inverse_operator_homogeneity():
    # ep=0: the inverse is degree q-1 homogeneous.
    d = build_interval(21)
    p = 3.0
    params = EnergyParams(p, 0.0)
    q = p / (p - 1.0)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(21)
    u1 = inverse_operator(d, f, params, DIRICHLET, CFG)
    c = -2.5
    u2 = inverse_operator(d, c * f, params, DIRICHLET, CFG)
    ref = abs(c) ** (q - 2.0) * c * u1
    assert np.linalg.norm(u2 - ref) / np.linalg.norm(ref) <= 10 * CFG.grad_tol


def test_inverse_operator_neumann_mode_and_compat():
    d = build_interval(49)
    h = d.hx
    # First nonconstant cosine mode of the free tridiagonal operator.
    n = 49
    phi = np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n))
    lam = 2.0 / h**2 * (1.0 - np.cos(np.pi / n))
    u = inverse_operator(d, phi, EnergyParams(2.0, 0.0), NEUMANN, CFG)
    ref = phi / lam  # already mean-zero
    assert np.linalg.norm(u - ref) / np.linalg.norm(ref) <= 1e-7
    with pytest.raises(CompatibilityError):
        inverse_operator(d, np.ones(49), EnergyParams(2.0, 0.0), NEUMANN, CFG)


def test_zero_pmean_shift_p2_mean():
    d = build_interval(9)
    u = d.nodes.copy()
    v = zero_pmean_shift(d, u, 2.0)
    assert np.mean(v) == pytest.approx(0.0, abs=1e-15)
    assert v[0] == pytest.approx(u[0] - 0.5, abs=1e-12)


def test_zero_pmean_shift_noop():
    d = build_interval(8)
    u = np.tile([1.0, -1.0], 4)
    v = zero_pmean_shift(d, u, 3.0)
    np.testing.assert_allclose(v, u, atol=1e-12)


def test_zero_pmean_shift_p3_bisection():
    # Repeating the pair (-1, 2) keeps the root of the scalar equation
    # |c-1|(c-1) + |c+2|(c+2) = 0, which an independent solver locates.
    d = build_interval(4)
    u = np.array([-1.0, 2.0, -1.0, 2.0])
    v = zero_pmean_shift(d, u, 3.0)
    c = v[0] - u[0]
    c_ref = brentq(lambda t: jp(t - 1.0, 3.0) + jp(t + 2.0, 3.0), -3.0, 2.0,
                   xtol=1e-15)
    assert c == pytest.approx(c_ref, abs=1e-12)
    assert c == pytest.approx(-0.5, abs=1e-12)
    assert pmean_defect(d, v, 3.0) <= 1e-12


def test_zero_pmean_shift_defect_random():
    d = build_interval(33)
    rng = np.random.default_rng(4)
    for p in (1.5, 2.0, 2.7, 4.0):
        u = rng.standard_normal(33) * rng.uniform(0.1, 10)
        v = zero_pmean_shift(d, u, p)
        assert pmean_defect(d, v, p) <= 1e-12


def _bisection_shift(u, p):
    # The shift as bisection to float exhaustion finds it: the reference
    # for the Newton shift's accuracy.
    scale = float(np.max(np.abs(u)))
    lo = -float(np.max(u)) - 0.125 * scale
    hi = -float(np.min(u)) + 0.125 * scale
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if np.sum(jp(u + mid, p)) > 0.0:
            hi = mid
        else:
            lo = mid
    return u + 0.5 * (lo + hi)


@pytest.mark.parametrize("amp", [1.0, 1e-100, 1e50])
def test_zero_pmean_shift_as_accurate_as_bisection(amp):
    # The inputs of the random-defect test, at three amplitudes.  pmean_defect
    # is a rounded sum at this level, so "no worse" allows two units of
    # roundoff above the bisection's own defect.
    d = build_interval(33)
    rng = np.random.default_rng(4)
    eps = np.finfo(float).eps
    for p in (1.5, 2.0, 2.7, 4.0):
        u = rng.standard_normal(33) * rng.uniform(0.1, 10) * amp
        ref = pmean_defect(d, _bisection_shift(u, p), p)
        assert pmean_defect(d, zero_pmean_shift(d, u, p), p) <= max(ref, 2 * eps)


def test_zero_pmean_shift_constant_data_is_exactly_zero():
    # A multiple root for p > 2, and a rounded mean at p = 2: the shift must
    # still land on the zero field.
    d = build_interval(33)
    for p in (1.5, 2.0, 3.0, 4.0):
        for value in (0.1, -2.5e-200, 3e150):
            assert not zero_pmean_shift(d, np.full(33, value), p).any()


def test_zero_pmean_shift_zero_entries_warn_nothing():
    # At p < 2 a zero entry of u + c makes the slope inf: bisect, silently.
    d = build_interval(5)
    u = np.array([-1.0, 0.0, 0.0, 0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = zero_pmean_shift(d, u, 1.5)
        w = zero_pmean_shift(d, u + np.array([0.0, 0.0, 0.0, 0.0, 1e-3]), 1.5)
    np.testing.assert_array_equal(v, u)
    assert pmean_defect(d, w, 1.5) <= 1e-12


def test_zero_pmean_shift_work_per_call(monkeypatch):
    # After the first step the flow conserves the p-mean, so the root sits at
    # c ~ 0 and Newton from c = 0 needs a step or two; bisection to float
    # exhaustion used about 90 evaluations per call on this run.
    import dnflow.elliptic as elliptic

    counts, inner = [], elliptic._pmean_slope
    shift = elliptic.zero_pmean_shift

    def counting_slope(r, p):
        counts[-1] += 1
        return inner(r, p)

    def counting_shift(dom, u, p):
        counts.append(0)
        return shift(dom, u, p)

    monkeypatch.setattr(elliptic, "_pmean_slope", counting_slope)
    monkeypatch.setattr(elliptic, "zero_pmean_shift", counting_shift)
    d = build_interval(32)
    g = np.random.default_rng(0).standard_normal(32)
    traj = evolve(d, g, 0.01, 200, EnergyParams(3.0, 1e-6), NEUMANN, CFG)
    fill_dual_columns(d, traj, CFG)
    assert len(counts) == 402
    assert max(counts) <= 10


def test_implicit_step_work_dirichlet_p15(evals):
    # The ray-scaled start puts each step at the separated-solution size of
    # u_prev before NCG runs; from the unscaled start this run took 2,039
    # energy evaluations.
    d = build_interval(32)
    evolve(d, np.ones(32), 0.05, 200, EnergyParams(1.5, 1e-6), DIRICHLET, CFG)
    assert evals[0] <= 1400


def test_cold_inverse_solve_refreshes_preconditioner(evals):
    # A cold solve takes its first direction from the p = 2 stiffness; the
    # step that scales is far from 1 at p = 1.5, so M is refactored at the
    # iterate.  Kept for RESTART_PERIOD iterations it cost 264 evaluations.
    inverse_operator(build_interval(199), np.ones(199), EnergyParams(1.5, 1e-6), DIRICHLET, CFG)
    assert evals[0] <= 120, evals[0]


def test_failed_search_after_refresh_retries_from_step_one(monkeypatch):
    # A search that starts outside [0.5, 2] follows a refresh, which keeps
    # the last accepted step; when it fails, the solve retries from step 1
    # before giving up.
    import dnflow.elliptic as elliptic

    starts, failed, inner = [], [], elliptic._line_search

    def fail_first_after_refresh(value_grad, x, f, g, d, gd, alpha0):
        starts.append(alpha0)
        if not failed and not 0.5 <= alpha0 <= 2.0:
            failed.append(len(starts))  # the index of the next search
            return None
        return inner(value_grad, x, f, g, d, gd, alpha0)

    monkeypatch.setattr(elliptic, "_line_search", fail_first_after_refresh)
    u = inverse_operator(build_interval(199), np.ones(199), EnergyParams(1.5, 1e-6),
                         DIRICHLET, CFG)
    assert failed and starts[failed[0]] == 1.0, starts
    assert np.all(u > 0)


def test_implicit_step_amplitude_equivariant_p15():
    # The step commutes with u -> a u when eps scales with a, as in the flow;
    # the ray step must keep that to rounding.
    d = build_interval(32)
    u0 = np.random.default_rng(5).standard_normal(32)
    ref = implicit_step(d, u0, 0.05, EnergyParams(1.5, 1e-6), DIRICHLET, CFG)
    for amp in (1e-100, 1e100):
        u = implicit_step(d, amp * u0, 0.05, EnergyParams(1.5, 1e-6 * amp), DIRICHLET, CFG)
        assert np.max(np.abs(u / amp - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_nonconvergence_carries_iterate():
    d = build_interval(49)
    cfg = SolverConfig(grad_tol=1e-12, max_iters=3)
    f = np.random.default_rng(9).standard_normal(49)
    with pytest.raises(NonConvergenceError) as err:
        inverse_operator(d, f, EnergyParams(1.5, 1e-6), DIRICHLET, cfg)
    assert err.value.last_iterate is not None
    assert err.value.residual is not None


def test_unfactorable_preconditioner_raises_nonconvergence(monkeypatch):
    # A preconditioner that does not factor ends the solve with the typed
    # error, carrying the regime, p and the best iterate.
    import dnflow.elliptic as elliptic

    def indefinite(dom, u, params, regime):
        ab = np.zeros((2, dom.n_nodes), order="F")
        ab[0] = -1.0
        return ab

    monkeypatch.setattr(elliptic, "energy_hessian", indefinite)
    d = build_interval(9)
    with pytest.raises(NonConvergenceError) as err:
        inverse_operator(d, np.ones(9), EnergyParams(3.0, 1e-6), DIRICHLET, CFG)
    assert (err.value.regime, err.value.p) == ("dirichlet", 3.0)
    assert err.value.last_iterate is not None
