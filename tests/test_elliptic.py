import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from dnflow.diagnostics import fill_dual_columns
from dnflow.domain import build_interval, build_rectangle, integrate_power
from dnflow.elliptic import (
    SolveContext,
    SolverConfig,
    _line_search,
    implicit_step,
    inverse_operator,
    pmean_defect,
    zero_pmean_shift,
)
from dnflow.errors import CompatibilityError, NonConvergenceError
from dnflow.flow import evolve
from dnflow.operators import (
    BoundaryRegime,
    EnergyParams,
    energy,
    energy_gradient,
    energy_hessian,
    jp,
)

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

        def objective(v):
            # F(v) = tau E(v) + (1/p) int |v|^p - int jp(u_prev) v
            return (tau * energy(d, v, params, DIRICHLET) + integrate_power(d, v, p) / p
                    - d.cell_volume * float(jp(u_prev, p) @ v))

        f_new, f_old = objective(u), objective(u_prev)
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


def _sweep_field(i):
    # Field i of a sweep of fields u = N(0, 1) + U(-0.5, 0.5) at n = 32 from
    # rng seed 0 (a normal vector plus one uniform offset per field).
    rng = np.random.default_rng(0)
    for _ in range(i + 1):
        u = rng.standard_normal(32) + rng.uniform(-0.5, 0.5)
    return u


@pytest.mark.parametrize("i, p, most", [(390, 3.0, 4), (4392, 1.5, 30)])
def test_zero_pmean_shift_hard_fields(monkeypatch, i, p, most):
    # Field 390: Newton reaches the root in 3 slope evaluations, where its
    # next step rounds to no change in c; taken as a bisection of the whole
    # bracket, that step cost 47 evaluations.  Field 4392: the root lies
    # 1.2e-7 from a zero of u + c, where the slope blows up at p = 1.5 and
    # Newton circles the root; unsafeguarded it stopped at the 100-iteration
    # cap with a p-mean defect of 1.1e-5.  Both must reach the defect of
    # bisection to float exhaustion, in at most `most` evaluations.
    import dnflow.elliptic as elliptic

    count, inner = [0], elliptic._pmean_slope

    def counting_slope(r, p):
        count[0] += 1
        return inner(r, p)

    monkeypatch.setattr(elliptic, "_pmean_slope", counting_slope)
    d = build_interval(32)
    u = _sweep_field(i)
    v = zero_pmean_shift(d, u, p)
    assert count[0] <= most
    ref = pmean_defect(d, _bisection_shift(u, p), p)
    assert pmean_defect(d, v, p) <= max(ref, 2 * np.finfo(float).eps)


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
    # One shift of g, one per solved step (a tail step t u_prev keeps the
    # zero p-mean of u_prev) and one per solved dual row (a tail step's row
    # takes the row before it).
    tail = len(traj.predicted)
    assert tail > 0 and traj.predicted == list(range(201 - tail, 201))
    assert len(counts) == 1 + (200 - tail) + (201 - tail)
    assert max(counts) <= 10


def test_implicit_step_work_dirichlet_p15(evals):
    # The ray-scaled start puts each step at the separated-solution size of
    # u_prev before NCG runs; from the unscaled start this run took 2,039
    # energy evaluations.
    d = build_interval(32)
    evolve(d, np.ones(32), 0.05, 200, EnergyParams(1.5, 1e-6), DIRICHLET, CFG)
    assert evals[0] <= 1400


@pytest.mark.parametrize("gap, tried", [(16 * np.finfo(float).eps, False), (1e-10, True)])
def test_ray_start_skips_rounding_level_factors(gap, tried):
    # At p = 2 the ray factor is <b, x> / <g + b, x> = 1 / (1 + gap): within
    # RAY_TOL of 1 it is rounding, and the start stays without a trial.
    from dnflow.elliptic import RAY_TOL, _ray_start

    calls = []

    def value_grad(x):
        calls.append(x)
        return -1.0, np.zeros_like(x)

    x, g = np.array([1.0]), np.array([gap])
    out = _ray_start(value_grad, np.array([1.0]), 2.0, x, 0.0, g)
    assert (abs(1.0 / (1.0 + gap) - 1.0) > RAY_TOL) == tried
    assert len(calls) == int(tried)
    assert (out[0] is x) != tried


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


def _fail_searches_on_stale_factor(monkeypatch, failures):
    # Fails `failures` line searches in a row, starting with the first one
    # that follows an accepted step inside REFRESH_STEPS, or a solve's start
    # on a carried factor, so M was not factored at x for it.  Logs every
    # Hessian build, every carried start and every search start.
    import dnflow.elliptic as elliptic

    inner, hessian = elliptic._line_search, elliptic.energy_hessian
    start = elliptic.SolveContext.start
    lo, hi = elliptic.REFRESH_STEPS
    log, prev, failed = [], [None], []

    def logged_start(ctx, x, precondition):
        solve, fresh = start(ctx, x, precondition)
        prev[0] = None  # a new solve
        if not fresh:
            log.append(("carried", x.copy(), None))
        return solve, fresh

    def search(value_grad, x, f, g, d, gd, alpha0):
        stale = (prev[0] is not None and lo <= prev[0] <= hi) or (log and log[-1][0] == "carried")
        log.append(("search", x.copy(), alpha0))
        if len(failed) < failures and (failed or stale):
            failed.append(alpha0)
            log.append(("fail", None, None))
            return None
        hit = inner(value_grad, x, f, g, d, gd, alpha0)
        prev[0] = None if hit is None else hit[0]
        return hit

    def counting_hessian(dom, u, params, regime):
        log.append(("hessian", u.copy(), None))
        return hessian(dom, u, params, regime)

    monkeypatch.setattr(elliptic, "_line_search", search)
    monkeypatch.setattr(elliptic, "energy_hessian", counting_hessian)
    monkeypatch.setattr(elliptic.SolveContext, "start", logged_start)
    return log


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_failed_search_on_stale_factor_refactors_and_restarts(monkeypatch, p):
    # A search that fails on a factor kept from an earlier iterate is retried
    # from step 1 with M refactored at the current iterate, and the solve
    # still reaches the unpatched solution.
    d = build_interval(32)
    args = (d, np.ones(32), EnergyParams(p, 1e-6), DIRICHLET, CFG)
    ref = inverse_operator(*args)
    log = _fail_searches_on_stale_factor(monkeypatch, 1)
    u = inverse_operator(*args)
    i = [e[0] for e in log].index("fail")
    (_, x_failed, _), (kind, x_factored, _), (_, x_next, alpha0) = log[i - 1], log[i + 1], log[i + 2]
    assert kind == "hessian" and np.array_equal(x_factored, x_failed)
    assert np.array_equal(x_next, x_failed) and alpha0 == 1.0
    assert np.max(np.abs(u - ref)) <= CFG.grad_tol * np.max(np.abs(ref))


def test_failed_search_from_step_one_on_fresh_factor_raises(monkeypatch):
    # After the stale-factor fallback, a second failure from step 1 on the
    # fresh factor has nothing left to try.
    log = _fail_searches_on_stale_factor(monkeypatch, 2)
    with pytest.raises(NonConvergenceError, match="line search failed at iteration 2 "):
        inverse_operator(build_interval(32), np.ones(32), EnergyParams(3.0, 1e-6),
                         DIRICHLET, CFG)
    assert [e[0] for e in log[-5:]] == ["search", "fail", "hessian", "search", "fail"]
    assert log[-2][2] == 1.0


def _carrying_context(d, f, params):
    # A context that keeps a factor with its gate open, after two inverse
    # solves of f: one from a nonzero start, whose factors are kept, then
    # one warm-started at its solution, which stops at iteration 0.
    ctx = SolveContext(d, DIRICHLET, params.p)
    u = inverse_operator(d, f, params, DIRICHLET, CFG, warm_start=np.ones(f.size), ctx=ctx)
    inverse_operator(d, f, params, DIRICHLET, CFG, warm_start=u, ctx=ctx)
    return ctx, u


def test_failed_search_on_carried_factor_refactors_and_continues(monkeypatch):
    # A solve that starts on a carried factor counts it as not fresh: when
    # its first search fails, M is factored at x and the search retried
    # from step 1, and the solve reaches the unpatched solution.
    d = build_interval(32)
    params = EnergyParams(3.0, 1e-6)
    f, f2 = np.ones(32), np.ones(32) + 0.5 * sine_mode(d, 2)
    ctx, u = _carrying_context(d, f, params)
    ref = inverse_operator(d, f2, params, DIRICHLET, CFG, warm_start=u, ctx=ctx)
    assert ctx.carried == 1

    ctx, u = _carrying_context(d, f, params)
    log = _fail_searches_on_stale_factor(monkeypatch, 1)
    got = inverse_operator(d, f2, params, DIRICHLET, CFG, warm_start=u, ctx=ctx)
    kinds = [e[0] for e in log]
    i = kinds.index("fail")
    assert kinds[i - 2:i + 3] == ["carried", "search", "fail", "hessian", "search"]
    (_, x_failed, _), (_, x_factored, _), (_, x_next, alpha0) = log[i - 1], log[i + 1], log[i + 2]
    assert np.array_equal(x_factored, x_failed) and np.array_equal(x_next, x_failed)
    assert alpha0 == 1.0
    assert np.max(np.abs(got - ref)) <= 10 * CFG.grad_tol * np.max(np.abs(ref))


def test_kept_factor_is_carried_as_it_is():
    # The solves of one context run at one scale, so while the gate is open
    # the kept factor starts the next solve unchanged, whatever its start;
    # a factor built at the zero field is not kept.
    d = build_interval(32)
    ctx, u = _carrying_context(d, np.ones(32), EnergyParams(4.0, 1e-6))
    kept, counts = ctx._solve, (ctx.fresh, ctx.carried)

    def precondition(x):
        raise AssertionError("a carried start factors nothing")

    for start in (100.0 * u, np.zeros(32)):
        assert ctx.start(start, precondition) == (kept, False)
    assert (ctx.fresh, ctx.carried) == (counts[0], counts[1] + 2)
    band = np.vstack([np.full(32, 2.0), np.full(32, -1.0)])
    ctx.factor(np.zeros(32), lambda x: band.copy(order="F"))
    assert ctx._solve is None


def test_failed_solve_closes_the_gate(monkeypatch):
    # A solve that raises says nothing about the kept factor's fit: the next
    # solve factors M afresh instead of carrying it.
    import dnflow.elliptic as elliptic

    d = build_interval(32)
    params = EnergyParams(3.0, 1e-6)
    ctx, u = _carrying_context(d, np.ones(32), params)
    f2 = np.ones(32) + 0.5 * sine_mode(d, 2)
    monkeypatch.setattr(elliptic, "MAX_ITERS", 1)
    with pytest.raises(NonConvergenceError, match="budget"):
        inverse_operator(d, 1e3 * f2, params, DIRICHLET, CFG, warm_start=u, ctx=ctx)
    assert ctx.carried == 1
    monkeypatch.undo()
    fresh = ctx.fresh
    inverse_operator(d, f2, params, DIRICHLET, CFG, warm_start=u, ctx=ctx)
    assert (ctx.carried, ctx.fresh) == (1, fresh + 1)


def _count_parts(monkeypatch):
    # Counts every energy evaluation, however it is reached.
    import dnflow.operators as operators

    calls, parts = [0], operators._parts

    def counted(*args):
        calls[0] += 1
        return parts(*args)

    monkeypatch.setattr(operators, "_parts", counted)
    return calls


def _chained_solve(d, params, second, drop, calls):
    # A cold inverse solve of f, then one of f2 under the params second,
    # warm-started at the very array the first returned; drop clears the
    # context's evaluation in between.  Returns (the second solution, its
    # evaluations, the context).
    f, f2 = np.ones(32), np.ones(32) + 0.5 * sine_mode(d, 2)
    ctx = SolveContext(d, DIRICHLET, params.p)
    u = inverse_operator(d, f, params, DIRICHLET, CFG, ctx=ctx)
    if drop:
        ctx.evaluation = None
    before = calls[0]
    got = inverse_operator(d, f2, second, DIRICHLET, CFG, warm_start=u, ctx=ctx)
    return got, calls[0] - before, ctx


def test_chained_inverse_solve_starts_from_the_held_evaluation(monkeypatch):
    # The second solve takes the evaluation the first left at its solution
    # instead of making it: one evaluation fewer, the same bits.
    d, params = build_interval(32), EnergyParams(3.0, 1e-6)
    calls = _count_parts(monkeypatch)
    kept, kept_calls, kept_ctx = _chained_solve(d, params, params, False, calls)
    dropped, dropped_calls, dropped_ctx = _chained_solve(d, params, params, True, calls)
    np.testing.assert_array_equal(kept, dropped)
    assert dropped_calls - kept_calls == 1
    assert (kept_ctx.handed_over, dropped_ctx.handed_over) == (1, 0)


def test_held_evaluation_is_not_taken_after_eps_changes(monkeypatch):
    # An evaluation made at eps = 1e-6 is not the energy at eps = 1e-3: the
    # solve under the new eps evaluates its start again, exactly as if the
    # context held nothing.
    d, params = build_interval(32), EnergyParams(3.0, 1e-6)
    other = EnergyParams(3.0, 1e-3)
    calls = _count_parts(monkeypatch)
    kept, kept_calls, kept_ctx = _chained_solve(d, params, other, False, calls)
    dropped, dropped_calls, _ = _chained_solve(d, params, other, True, calls)
    np.testing.assert_array_equal(kept, dropped)
    assert kept_calls == dropped_calls and kept_ctx.handed_over == 0
    assert kept_ctx.held(kept_ctx.evaluation[0], other) is not None
    assert kept_ctx.held(kept_ctx.evaluation[0], params) is None


def test_held_evaluation_follows_the_values_of_the_array():
    # A caller that writes new values into the array a solve returned, then
    # warm-starts the next solve at it, gets the solve from those values: the
    # evaluation held at the old values is not handed on.
    d, params = build_interval(32), EnergyParams(3.0, 1e-6)
    ones = np.ones(32)
    ctx = SolveContext(d, DIRICHLET, 3.0)
    u = inverse_operator(d, ones, params, DIRICHLET, CFG, ctx=ctx)
    u[:] = np.linspace(1.0, 0.1, 32)
    got = inverse_operator(d, ones, params, DIRICHLET, CFG, warm_start=u, ctx=ctx)
    fresh = inverse_operator(d, ones, params, DIRICHLET, CFG, warm_start=u,
                             ctx=SolveContext(d, DIRICHLET, 3.0))
    assert ctx.handed_over == 0
    np.testing.assert_array_equal(got, fresh)


def test_context_returns_no_array_it_keeps():
    # At p = 2 a sine mode is separated, so each step from it returns its
    # start moved along the ray only.  Writing into the arrays that steps
    # returned leaves the next step and its held evaluation unchanged.
    d, tau = build_interval(32), 0.1
    x = sine_mode(d) / np.abs(sine_mode(d)).max()
    params = EnergyParams(2.0, 1e-6)
    ctx = SolveContext(d, DIRICHLET, 2.0, tau, linear_start=False)
    steps = [implicit_step(d, x, tau, params, DIRICHLET, CFG, ctx) for _ in range(3)]
    assert ctx.ray is not None and ctx.iterations == 0
    expected = steps[-1].copy()
    for step in steps:
        step[:] = 0.0
    again = implicit_step(d, x, tau, params, DIRICHLET, CFG, ctx)
    np.testing.assert_array_equal(again, expected)
    assert ctx.held(again, params) is not None


def test_context_belongs_to_one_problem():
    d = build_interval(9)
    params = EnergyParams(3.0, 1e-6)
    step_ctx = SolveContext(d, DIRICHLET, 3.0, 0.1)
    with pytest.raises(ValueError, match="another problem"):
        implicit_step(d, np.ones(9), 0.2, params, DIRICHLET, CFG, step_ctx)
    with pytest.raises(ValueError, match="another problem"):
        inverse_operator(d, np.ones(9), params, DIRICHLET, CFG, ctx=step_ctx)
    with pytest.raises(ValueError, match="another problem"):
        implicit_step(build_interval(9), np.ones(9), 0.1, params, DIRICHLET, CFG, step_ctx)
    with pytest.raises(ValueError, match="tau must be positive"):
        SolveContext(d, DIRICHLET, 3.0, 0.0)


def test_implicit_step_amplitude_equivariant_p15():
    # The step commutes with u -> a u when eps scales with a, as in the flow;
    # the ray step must keep that to rounding.
    d = build_interval(32)
    u0 = np.random.default_rng(5).standard_normal(32)
    ref = implicit_step(d, u0, 0.05, EnergyParams(1.5, 1e-6), DIRICHLET, CFG)
    for amp in (1e-100, 1e100):
        u = implicit_step(d, amp * u0, 0.05, EnergyParams(1.5, 1e-6 * amp), DIRICHLET, CFG)
        assert np.max(np.abs(u / amp - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_nonconvergence_carries_iterate(monkeypatch):
    import dnflow.elliptic as elliptic

    monkeypatch.setattr(elliptic, "MAX_ITERS", 3)
    d = build_interval(49)
    cfg = SolverConfig(grad_tol=1e-12)
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


def test_lapack_fallback_gives_identical_results(monkeypatch):
    # When scipy's _flapack extension does not load from its file, the
    # routines come from scipy.linalg's public lookup: the same LAPACK, so
    # a banded solve, a 2-D implicit step and the polish match bit for bit.
    import scipy.linalg

    import dnflow.elliptic as elliptic
    from dnflow.oracle import dense_linear_reference, minimize_rayleigh

    looked_up = []
    lookup = scipy.linalg.get_lapack_funcs
    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs",
                        lambda *args, **kw: looked_up.append(args) or lookup(*args, **kw))
    line, square = build_interval(32), build_rectangle(31, 31, 1.0, 1.0)
    u = np.sin(np.pi * line.nodes) + 0.1
    xy = square.nodes
    u2 = np.sin(np.pi * xy[:, 0]) * np.sin(np.pi * xy[:, 1]) + 0.2 * xy[:, 0]

    def results():
        ab = energy_hessian(line, u, EnergyParams(3.0, 1e-6), DIRICHLET)
        ab[0] += 1.0
        params = EnergyParams(4.0, 1e-6)
        eig = minimize_rayleigh(line, params, DIRICHLET, CFG, seed=0)  # reaches the polish
        return (elliptic._factor(ab)(u),
                implicit_step(square, u2, 0.01, EnergyParams(3.0, 1e-6), DIRICHLET, CFG),
                np.append(eig.extremal, eig.lam))

    def anchor():
        # The dense p = 2 anchor's LAPACK dsyevr, fetched by the same loader.
        ref = dense_linear_reference(square, NEUMANN)
        return (np.append(ref.extremal, ref.lam),)

    try:
        elliptic._lapack_banded.cache_clear()
        direct = results()
        assert looked_up == []
        direct += anchor()
        assert looked_up == []

        def no_file():
            raise ImportError("no _flapack extension")

        monkeypatch.setattr(elliptic, "_load_flapack", no_file)
        elliptic._lapack_banded.cache_clear()
        fallback = results()
        assert looked_up == [(("pbtrf", "pbtrs", "gbtrf", "gbtrs"),)]
        fallback += anchor()
        assert looked_up[1:] == [(("syevr",),)]
    finally:
        elliptic._lapack_banded.cache_clear()
    for a, b in zip(direct, fallback):
        assert np.array_equal(a, b)


def test_pmean_defect_of_the_zero_field_is_zero():
    assert pmean_defect(build_interval(9), np.zeros(9), 3.0) == 0.0


def test_line_search_halves_a_non_finite_trial():
    # f = x^2 / 2 overflows beyond |x| = 10: the trials at steps 100, 50, 25
    # and 12.5 are halved, and the search ends at the minimizer x = 0.
    def value_grad(x):
        if abs(x[0]) > 10.0:
            return math.inf, np.array([math.inf])
        return 0.5 * float(x[0]) ** 2, x.copy()

    x = np.array([1.0])
    f, g = value_grad(x)
    a, xa, fa, ga = _line_search(value_grad, x, f, g, -g, -float(g @ g), 100.0)
    assert (a, float(xa[0]), fa, float(ga[0])) == (1.0, 0.0, 0.0, 0.0)


def test_zero_pmean_shift_gives_up_after_100_iterations(monkeypatch):
    # A NaN entry leaves no bracket and no stopping tolerance, so only the
    # iteration budget ends the search.
    import dnflow.elliptic as elliptic

    calls, slope = [], elliptic._pmean_slope
    monkeypatch.setattr(elliptic, "_pmean_slope", lambda r, p: calls.append(p) or slope(r, p))
    u = np.linspace(-1.0, 2.0, 9)
    u[3] = math.nan
    with pytest.raises(NonConvergenceError, match="100 iterations") as caught:
        zero_pmean_shift(build_interval(9), u, 3.0)
    assert len(calls) == 100 and caught.value.p == 3.0
