import math

import numpy as np
import pytest

from dnflow import elliptic, flow
from dnflow.diagnostics import energy_identity_residual, lambda_decay_estimate
from dnflow.domain import build_interval, build_rectangle, lp_norm
from dnflow.elliptic import SolverConfig, implicit_step, pmean_defect
from dnflow.errors import UnsupportedRegimeError
from dnflow.fractional import build_kernel
from dnflow.flow import (
    auto_tau,
    evolve,
    evolve_until_settled,
    interpolant_v,
    interpolant_w,
    read_snapshot,
    rescaled_profile,
    write_snapshot,
)
from dnflow.operators import BoundaryRegime, EnergyParams, jp
from dnflow.oracle import dense_linear_reference, minimize_rayleigh

DIRICHLET = BoundaryRegime.dirichlet()
NEUMANN = BoundaryRegime.neumann()
CFG = SolverConfig(grad_tol=1e-9)


def sine_mode(dom, m=1):
    return np.sin(m * np.pi * dom.nodes)


def mode_eigenvalue(dom, m=1):
    h = dom.hx
    return 2.0 / h**2 * (1.0 - np.cos(m * np.pi * h))


def test_evolve_zero_data():
    d = build_interval(9)
    traj = evolve(d, np.zeros(9), 0.1, 5, EnergyParams(2.0, 0.0), DIRICHLET, CFG)
    assert all(np.all(s == 0.0) for s in traj.states)
    assert len(traj.diagnostics) == 6


def test_evolve_separated_solution_p2():
    d = build_interval(49)
    phi = sine_mode(d)
    lam = mode_eigenvalue(d)
    tau = 0.03
    K = 12
    traj = evolve(d, phi, tau, K, EnergyParams(2.0, 0.0), DIRICHLET, CFG)
    for k in range(K + 1):
        ref = (1.0 + lam * tau) ** (-k) * phi
        err = np.linalg.norm(traj.states[k] - ref) / np.linalg.norm(ref)
        assert err <= k * 10 * CFG.grad_tol + 1e-14


def test_evolve_two_mode_superposition():
    # p = 2 steps are linear: each discrete sine mode decays by its own factor.
    d = build_interval(39)
    tau = 0.02
    K = 8
    a, b = 1.0, 0.4
    g = a * sine_mode(d, 1) + b * sine_mode(d, 3)
    lam1, lam3 = mode_eigenvalue(d, 1), mode_eigenvalue(d, 3)
    traj = evolve(d, g, tau, K, EnergyParams(2.0, 0.0), DIRICHLET, CFG)
    for k in range(K + 1):
        ref = (a * (1 + lam1 * tau) ** (-k) * sine_mode(d, 1)
               + b * (1 + lam3 * tau) ** (-k) * sine_mode(d, 3))
        err = np.linalg.norm(traj.states[k] - ref) / np.linalg.norm(ref)
        assert err <= 1e-8


def test_evolve_neumann_projects_initial():
    d = build_interval(19)
    g = np.ones(19) + 0.3 * np.cos(np.pi * d.nodes)
    traj = evolve(d, g, 0.05, 4, EnergyParams(2.0, 0.0), NEUMANN, CFG)
    assert pmean_defect(d, traj.states[0], 2.0) <= 1e-12
    for k in range(5):
        assert pmean_defect(d, traj.states[k], 2.0) <= 10 * CFG.grad_tol


def test_lp_decay_and_energy_monotone():
    d = build_interval(29)
    rng = np.random.default_rng(0)
    for p in (1.5, 3.0):
        params = EnergyParams(p, 1e-6)
        g = rng.standard_normal(29)
        traj = evolve(d, g, 0.02, 15, params, DIRICHLET, CFG)
        nps = [r.Np for r in traj.diagnostics]
        es = [r.energy for r in traj.diagnostics]
        for k in range(1, 16):
            assert nps[k] <= nps[k - 1] * (1 + 1e-10)
            assert es[k] <= es[k - 1] * (1 + 1e-9) + 1e-14 * es[0]


def test_scaled_decay_and_convexity_trend():
    d = build_interval(29)
    p = 2.0
    params = EnergyParams(p, 0.0)
    eig = minimize_rayleigh(d, params, DIRICHLET, CFG, seed=0)
    g = np.ones(29)
    tau = 1.0 / (2 * eig.lam)
    traj = evolve(d, g, tau, 25, params, DIRICHLET, CFG)
    nps = np.array([r.Np for r in traj.diagnostics])
    factor = math.log1p(p * tau * eig.lam / (p - 1.0))
    scaled_log = np.log(nps) + factor * np.arange(nps.size)
    assert np.all(np.diff(scaled_log) <= 1e-8)
    assert np.all(np.diff(nps, 2) >= -1e-10 * nps[0])


def test_decay_bound():
    # energy(u^k) * p/(p-1) <= Np(k-m) / (m tau) for all 1 <= m <= k.
    d = build_interval(29)
    for p in (2.0, 3.0):
        params = EnergyParams(p, 0.0)
        g = np.ones(29)
        tau = 0.02
        traj = evolve(d, g, tau, 12, params, DIRICHLET, CFG)
        nps = [r.Np for r in traj.diagnostics]
        for k in range(1, 13):
            e_k = traj.diagnostics[k].energy
            for m in range(1, k + 1):
                assert e_k * p / (p - 1) <= nps[k - m] / (m * tau) * (1 + 1e-9)


def test_comparison_nondegeneracy():
    # g = 1 >= eps*phi keeps u^k above the decaying extremal barrier.
    d = build_interval(29)
    for p in (2.0, 3.0):
        params = EnergyParams(p, 0.0)
        eig = minimize_rayleigh(d, params, DIRICHLET, CFG, seed=0)
        scale = 1.0 / float(np.max(eig.extremal))
        barrier = scale * eig.extremal  # below g identically
        tau = 0.05
        traj = evolve(d, np.ones(29), tau, 10, params, DIRICHLET, CFG)
        for k in range(1, 11):
            bound = (1 + eig.lam * tau) ** (-k / (p - 1)) * barrier
            assert np.all(traj.states[k] >= bound - 10 * CFG.grad_tol)


def test_settle_rejects_bad_input_like_evolve():
    d = build_interval(9)
    params = EnergyParams(2.0, 0.0)
    one_nan, one_inf = np.ones(9), np.ones(9)
    one_nan[4], one_inf[2] = np.nan, np.inf
    bad = [(np.full(9, np.nan), 5), (one_nan, 5), (one_inf, 5), (np.ones(9), 0)]
    for g, steps in bad:
        with pytest.raises(ValueError):
            evolve(d, g, 0.1, steps, params, DIRICHLET, CFG)
        with pytest.raises(ValueError):
            evolve_until_settled(d, g, params, DIRICHLET, CFG, tau=0.1,
                                 max_steps=steps)


@pytest.mark.parametrize("p, regime", [(1.5, DIRICHLET), (3.0, NEUMANN)])
def test_settle_states_equal_evolve_states(p, regime):
    # Both entry points run one loop: at a fixed tau the settled trajectory is
    # bitwise the prefix evolve computes for the same number of steps.
    d = build_interval(32)
    params = EnergyParams(p, 1e-6)
    g = np.random.default_rng(0).standard_normal(32)
    settled = evolve_until_settled(d, g, params, regime, CFG, tau=0.05,
                                   max_steps=40)
    assert settled.steps < 40  # the settle test, not the budget, stopped it
    fixed = evolve(d, g, 0.05, settled.steps, params, regime, CFG)
    assert len(settled.states) == len(fixed.states)
    for a, b in zip(settled.states, fixed.states):
        np.testing.assert_array_equal(a, b)
    assert ([(r.csv_line(), r.energy) for r in settled.diagnostics]
            == [(r.csv_line(), r.energy) for r in fixed.diagnostics])


def test_limit_profile_positive():
    d = build_interval(29)
    traj = evolve_until_settled(d, np.ones(29), EnergyParams(2.0, 0.0),
                                DIRICHLET, CFG)
    prof = rescaled_profile(traj, traj.steps)
    assert prof is not None
    assert np.all(prof > 0)


def test_interpolant_v():
    d = build_interval(9)
    g = sine_mode(d)
    traj = evolve(d, g, 0.1, 4, EnergyParams(2.0, 0.0), DIRICHLET, CFG)
    np.testing.assert_array_equal(interpolant_v(traj, 0.0), traj.states[0])
    np.testing.assert_array_equal(interpolant_v(traj, 0.15), traj.states[2])
    np.testing.assert_array_equal(interpolant_v(traj, 0.4), traj.states[4])
    with pytest.raises(ValueError):
        interpolant_v(traj, 0.5)
    with pytest.raises(ValueError):
        interpolant_v(traj, -0.01)


def test_interpolant_w_endpoints_and_midpoint():
    d = build_interval(9)
    p = 2.5
    traj = evolve(d, sine_mode(d) + 1.0, 0.1, 3, EnergyParams(p, 1e-6),
                  DIRICHLET, CFG)
    w0 = jp(traj.states[1], p)
    w1 = jp(traj.states[2], p)
    np.testing.assert_allclose(interpolant_w(traj, 0.1), w0, rtol=1e-14)
    np.testing.assert_allclose(interpolant_w(traj, 0.2), w1, rtol=1e-14)
    np.testing.assert_allclose(interpolant_w(traj, 0.15), 0.5 * (w0 + w1),
                               rtol=1e-14)


def test_rescaled_profile_normalization_and_sign():
    d = build_interval(19)
    phi = sine_mode(d)
    params = EnergyParams(2.0, 0.0)
    t1 = evolve(d, phi, 0.05, 3, params, DIRICHLET, CFG)
    t2 = evolve(d, 2 * phi, 0.05, 3, params, DIRICHLET, CFG)
    t3 = evolve(d, -phi, 0.05, 3, params, DIRICHLET, CFG)
    p1 = rescaled_profile(t1, 3)
    assert lp_norm(d, p1, 2.0) == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(rescaled_profile(t2, 3), p1, atol=1e-8)
    np.testing.assert_allclose(rescaled_profile(t3, 3), -p1, atol=1e-8)
    # constant profile along a separated trajectory
    for k in range(1, 4):
        assert lp_norm(d, rescaled_profile(t1, k) - p1, 2.0) <= 1e-7


def test_rescaled_profile_degenerate_signal():
    d = build_interval(9)
    traj = evolve(d, np.zeros(9), 0.1, 2, EnergyParams(2.0, 0.0), DIRICHLET, CFG)
    assert rescaled_profile(traj, 2) is None


def test_rescaled_profile_below_the_floor_has_unit_norm():
    # tau = 1e6 at p = 1.5 takes the march below the degenerate floor in a
    # few steps; the state is still nonzero, so its profile is read.
    d, params = build_interval(32), EnergyParams(1.5, 1e-6)
    traj = evolve(d, np.ones(32), 1e6, 4, params, DIRICHLET, CFG)
    assert flow._degenerate(traj) and traj.states[-1].any()
    assert lp_norm(d, rescaled_profile(traj, 4), 1.5) == pytest.approx(1.0, rel=1e-12)


def test_auto_tau_matches_half_rate():
    d = build_interval(29)
    params = EnergyParams(2.0, 0.0)
    tau = auto_tau(d, np.ones(29), params, DIRICHLET, CFG)
    eig = minimize_rayleigh(d, params, DIRICHLET, CFG, seed=0)
    assert tau == pytest.approx(1.0 / (2 * eig.lam), rel=0.05)


def _geometric(r, c, steps=60, lam=10.0):
    return [lam + c * r**k for k in range(steps)]


@pytest.mark.parametrize("lams, stops", [
    pytest.param(_geometric(0.3, 1e-3), True, id="geometric-r0.3"),
    pytest.param(_geometric(0.5, -2.0), True, id="geometric-from-below"),
    # Every change is below the tolerance, but the tail still to come is
    # about c = 5e-5, far above it.
    pytest.param(_geometric(0.99, 5e-5, steps=30), False, id="geometric-r0.99"),
    pytest.param([10.0 + np.spacing(10.0) * j for j in (0, 3, -4, 5, -6, 7)], True,
                 id="rounding-jitter"),
    pytest.param([10.0 + 1e-9 * k for k in range(30)], False, id="constant-drift"),
    pytest.param([10.0 + 1e-12 * 2**k for k in range(30)], False, id="growing"),
    pytest.param([math.nan] * 6, False, id="nan"),
    pytest.param([math.nan, 10.0, 10.0, 10.0], False, id="nan-oldest"),
    pytest.param([10.0, 10.0, 10.0, math.inf], False, id="inf"),
    pytest.param([0.0] * 6, False, id="zero-rate"),
])
def test_lambda_settled_is_a_tail_bound(lams, stops):
    # The stop test fires only where the change still to come is below
    # SETTLE_REL_TOL: on a geometric sequence the first stop is within the
    # tolerance of the limit, and a sequence that does not contract never stops.
    first = next((k for k in range(1, len(lams) + 1)
                  if flow._lambda_settled(lams[:k])), None)
    assert (first is not None) == stops
    if stops:
        assert abs(lams[first - 1] - lams[-1]) < flow.SETTLE_REL_TOL * lams[-1]


def test_settle_continues_from_the_bootstrap(monkeypatch):
    # The README config: the settle march starts from the bootstrap's last
    # state and stops a few steps later at the dense p = 2 eigenvalue.
    d = build_interval(199)
    params = EnergyParams(2.0, 1e-6)
    steps = []
    step = flow.implicit_step
    monkeypatch.setattr(flow, "implicit_step",
                        lambda *args: steps.append(1) or step(*args))
    traj = evolve_until_settled(d, np.ones(199), params, DIRICHLET, CFG)
    assert len(steps) <= flow.BOOTSTRAP_STEPS + 6
    assert traj.steps == len(steps) - flow.BOOTSTRAP_STEPS
    lam = dense_linear_reference(d, DIRICHLET).lam
    assert abs(traj.diagnostics[-1].lambda_decay / lam - 1.0) <= 1e-6

    boot = evolve(d, np.ones(199), flow.BOOTSTRAP_TAU, flow.BOOTSTRAP_STEPS,
                  params, DIRICHLET, CFG)
    np.testing.assert_array_equal(traj.states[0], boot.states[-1])
    assert traj.tau == auto_tau(d, np.ones(199), params, DIRICHLET, CFG)
    # max_steps counts the settle march only.
    assert evolve_until_settled(d, np.ones(199), params, DIRICHLET, CFG,
                                max_steps=2).steps == 2


@pytest.mark.parametrize("dom, p, regime", [
    (build_rectangle(31, 31, 1.0, 1.0), 3.0, DIRICHLET),
    (build_interval(199), 1.5, BoundaryRegime.robin(1.0)),
])
def test_carried_factors_match_fresh_factors(monkeypatch, record_contexts, dom, p, regime):
    # The march's steps start on the kept factor after a one-iteration step;
    # refactoring at every start instead gives the same lambda-hat, with
    # more factorizations.
    params = EnergyParams(p, 1e-6)
    g = np.ones(dom.n_nodes)
    made = record_contexts(flow)
    carried = evolve_until_settled(dom, g, params, regime, CFG)
    start = elliptic.SolveContext.start

    def fresh_start(ctx, x, precondition):
        ctx._gate = False
        return start(ctx, x, precondition)

    monkeypatch.setattr(elliptic.SolveContext, "start", fresh_start)
    fresh = evolve_until_settled(dom, g, params, regime, CFG)
    n = len(made) // 2
    assert n == 2  # the bootstrap and the settle march
    with_carry, without = made[:n], made[n:]
    assert sum(c.carried for c in with_carry) > 0 and sum(c.carried for c in without) == 0
    assert (sum(c.factorizations for c in with_carry)
            < sum(c.factorizations for c in without))
    lam_c, lam_f = carried.diagnostics[-1].lambda_decay, fresh.diagnostics[-1].lambda_decay
    assert abs(lam_c / lam_f - 1.0) <= 1e-10


def test_first_step_takes_the_linear_start(monkeypatch):
    # From constant data at p = 3 the p = 2 step is the far better start:
    # the first step needs at most 5 factorizations, the linear one
    # included (13 from u_prev), and agrees with the step started at u_prev.
    # The stop rule bounds the gradient, and at grad_tol 1e-9 either start
    # ends up to 1e-7 from the minimizer in max norm, so the agreement is
    # checked at grad_tol 1e-11.
    dom = build_rectangle(31, 31, 1.0, 1.0)
    params = EnergyParams(3.0, 1e-6)
    ones = np.ones(dom.n_nodes)
    ctx = elliptic.SolveContext(dom, DIRICHLET, 3.0, 0.1)
    implicit_step(dom, ones, 0.1, params, DIRICHLET, CFG, ctx)
    assert ctx.linear == 1 and ctx.factorizations <= 5, (ctx.fresh, ctx.refreshed)
    tight = SolverConfig(grad_tol=1e-11)
    u = implicit_step(dom, ones, 0.1, params, DIRICHLET, tight)
    monkeypatch.setattr(elliptic, "_linear_step", lambda ctx, u_prev: None)
    ref = implicit_step(dom, ones, 0.1, params, DIRICHLET, tight)
    assert np.max(np.abs(u - ref)) <= 1e-8 * np.max(np.abs(ref))
    assert not np.array_equal(u, ref)


def test_separated_first_step_keeps_u_prev(monkeypatch):
    # At an extremal the ray-scaled u_prev is the step's solution, so the
    # linear candidate loses and the solve is the one started at u_prev.
    d = build_interval(39)
    params = EnergyParams(3.0, 1e-7)
    eig = minimize_rayleigh(d, params, DIRICHLET, CFG, seed=0)
    ctx = elliptic.SolveContext(d, DIRICHLET, 3.0, 0.05)
    u = implicit_step(d, eig.extremal, 0.05, params, DIRICHLET, CFG, ctx)
    assert ctx.linear == 1
    monkeypatch.setattr(elliptic, "_linear_step", lambda ctx, u_prev: None)
    np.testing.assert_array_equal(
        u, implicit_step(d, eig.extremal, 0.05, params, DIRICHLET, CFG))


@pytest.mark.parametrize("p, regime", [(3.0, DIRICHLET), (1.5, BoundaryRegime.robin(1.0))])
def test_settle_march_skips_the_linear_start(monkeypatch, record_contexts, p, regime):
    # The settle march continues from the bootstrap's separated state, where
    # the p = 2 linear candidate loses: only the bootstrap factors it, and
    # forcing it on the settle march gives the same states.
    d = build_interval(63)
    params = EnergyParams(p, 1e-6)
    g = np.ones(63)
    made = record_contexts(flow)
    traj = evolve_until_settled(d, g, params, regime, CFG)
    assert [c.linear for c in made] == [1, 0]
    assert sum(c.factorizations for c in made[1:]) > 0
    monkeypatch.setattr(flow, "SolveContext", lambda *args, **kwargs: elliptic.SolveContext(*args))
    forced = evolve_until_settled(d, g, params, regime, CFG)
    assert len(forced.states) == len(traj.states)
    for a, b in zip(traj.states, forced.states):
        np.testing.assert_array_equal(a, b)
    # A given tau marches from g and still tries the linear start.
    made = record_contexts(flow)
    evolve_until_settled(d, g, params, regime, CFG, tau=0.01, max_steps=2)
    assert [c.linear for c in made] == [1]


@pytest.mark.parametrize("p, regime", [(2.0, DIRICHLET), (3.0, DIRICHLET), (2.0, NEUMANN)])
def test_settle_zero_data_marches_from_g(p, regime):
    # A bootstrap that decays to zero leaves nothing to continue from: the
    # march starts from g at the fallback tau and stops at the degenerate floor.
    d = build_interval(9)
    traj = evolve_until_settled(d, np.zeros(9), EnergyParams(p, 1e-6), regime, CFG)
    assert traj.steps == 1 and traj.tau == flow.BOOTSTRAP_TAU
    assert not np.any(traj.states[0]) and not np.any(traj.states[1])
    assert rescaled_profile(traj, 1) is None


def test_snapshot_roundtrip(tmp_path):
    d = build_interval(9)
    params = EnergyParams(2.0, 0.0)
    traj = evolve(d, sine_mode(d), 0.1, 2, params, DIRICHLET, CFG)
    path = tmp_path / "snap.txt"
    write_snapshot(path, d, params, DIRICHLET, traj.states[2], 2, 0.1)
    meta, values = read_snapshot(path)
    assert meta["kind"] == "interval"
    assert meta["k"] == "2"
    assert float(meta["p"]) == 2.0
    np.testing.assert_array_equal(values, traj.states[2])


def test_snapshot_roundtrip_rectangle(tmp_path):
    d = build_rectangle(5, 4, 1.0, 0.8)
    u = np.random.default_rng(0).standard_normal(d.n_nodes)
    path = tmp_path / "snap.txt"
    write_snapshot(path, d, EnergyParams(2.0), DIRICHLET, u, 3, 0.05)
    meta, values = read_snapshot(path)
    assert meta["kind"] == "rectangle"
    assert (meta["nx"], meta["ny"], meta["k"]) == ("5", "4", "3")
    assert (float(meta["hx"]), float(meta["hy"])) == (d.hx, d.hy)
    np.testing.assert_array_equal(values, u)


def _short_trajectory():
    dom = build_interval(5)
    return evolve(dom, np.ones(5), 0.01, 2, EnergyParams(2.0), DIRICHLET, CFG)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: EnergyParams(1.0), ValueError, "p must exceed 1", id="params-p1"),
    pytest.param(lambda: EnergyParams(0.5, 1e-6), ValueError, "p must exceed 1", id="params-p05"),
    pytest.param(lambda: EnergyParams(2.0, -1e-6), ValueError, "epsilon must be nonnegative",
                 id="params-eps-negative"),
    pytest.param(lambda: EnergyParams(math.inf), ValueError,
                 "p must exceed 1 and be finite, got inf", id="params-p-inf"),
    pytest.param(lambda: EnergyParams(math.nan), ValueError,
                 "p must exceed 1 and be finite, got nan", id="params-p-nan"),
    pytest.param(lambda: EnergyParams(2.0, math.inf), ValueError,
                 "epsilon must be nonnegative and finite, got inf", id="params-eps-inf"),
    pytest.param(lambda: EnergyParams(2.0, math.nan), ValueError,
                 "epsilon must be nonnegative and finite, got nan", id="params-eps-nan"),
    pytest.param(lambda: SolverConfig(0.0), ValueError,
                 "grad_tol must be positive and finite, got 0.0", id="solver-tol-zero"),
    pytest.param(lambda: SolverConfig(math.inf), ValueError,
                 "grad_tol must be positive and finite, got inf", id="solver-tol-inf"),
    pytest.param(lambda: SolverConfig(math.nan), ValueError,
                 "grad_tol must be positive and finite, got nan", id="solver-tol-nan"),
    pytest.param(lambda: BoundaryRegime.robin(math.inf), ValueError,
                 "robin regime needs beta > 0 and finite, got inf", id="robin-beta-inf"),
    pytest.param(lambda: BoundaryRegime.robin(math.nan), ValueError,
                 "robin regime needs beta > 0 and finite, got nan", id="robin-beta-nan"),
    pytest.param(lambda: BoundaryRegime("periodic"), UnsupportedRegimeError,
                 "unknown regime kind", id="regime-periodic"),
    pytest.param(lambda: implicit_step(build_interval(5), np.ones(5), 0.0, EnergyParams(2.0),
                                       DIRICHLET, CFG),
                 ValueError, "tau must be positive", id="implicit-step-tau0"),
    pytest.param(lambda: implicit_step(build_interval(5), np.ones(5), math.inf,
                                       EnergyParams(2.0), DIRICHLET, CFG),
                 ValueError, "tau must be positive and finite, got inf",
                 id="implicit-step-tau-inf"),
    pytest.param(lambda: evolve(build_interval(5), np.ones(5), -0.1, 3, EnergyParams(2.0),
                                DIRICHLET, CFG),
                 ValueError, "tau must be positive", id="evolve-tau-negative"),
    pytest.param(lambda: evolve(build_interval(5), np.ones(5), math.nan, 3, EnergyParams(2.0),
                                DIRICHLET, CFG),
                 ValueError, "tau must be positive and finite, got nan", id="evolve-tau-nan"),
    pytest.param(lambda: build_kernel(build_interval(5), 0.0, 2.0), ValueError,
                 "s must lie in", id="kernel-s0"),
    pytest.param(lambda: build_kernel(build_interval(5), 1.0, 2.0), ValueError,
                 "s must lie in", id="kernel-s1"),
    pytest.param(lambda: lambda_decay_estimate(_short_trajectory(), 0), ValueError,
                 "k >= 1", id="lambda-decay-k0"),
    pytest.param(lambda: energy_identity_residual(_short_trajectory(), 0), ValueError,
                 "k >= 1", id="energy-residual-k0"),
])
def test_library_rejections(call, error, message):
    # Each public entry point refuses input outside its domain with an
    # error that says why, instead of returning a value.
    with pytest.raises(error, match=message):
        call()


def test_read_snapshot_skips_blank_lines(tmp_path):
    path = tmp_path / "snap.txt"
    path.write_text("kind=interval n=3 k=0\n1.0\n\n2.0\n   \n3.0\n\n")
    meta, values = read_snapshot(path)
    assert meta["n"] == "3"
    np.testing.assert_array_equal(values, [1.0, 2.0, 3.0])
