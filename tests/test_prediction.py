"""The separated tail steps without evaluations: once a step's solve has
returned its start moved along the ray only, by a factor t, the march
calls implicit_step no more.  The next step takes t u_prev with one
evaluation, and every later step is that step's point at a scale times t.
A dual row, solved at max|u| = 1 like the step, starts from the previous
row's solution and the evaluation made there, and on that tail that
solution is its own.

Taking the tail must leave every output within rounding, so the
comparisons here are against marches whose implicit_step is patched to
clear the context's ray factor, which then solve every step.
"""

import numpy as np
import pytest

from dnflow import diagnostics, elliptic, flow, oracle
from dnflow.domain import build_interval
from dnflow.elliptic import SolveContext, SolverConfig, implicit_step
from dnflow.flow import auto_tau, evolve
from dnflow.operators import BoundaryRegime, EnergyParams

CFG = SolverConfig(grad_tol=1e-9)
DIRICHLET = BoundaryRegime.dirichlet()
REGIMES = {
    "dirichlet": DIRICHLET,
    "robin": BoundaryRegime.robin(1.0),
    "neumann": BoundaryRegime.neumann(),
    "fractional": BoundaryRegime.fractional(0.5),
}
COLUMNS = diagnostics.CSV_HEADER.split(",")
EVALUATORS = ("energy", "energy_gradient", "energy_and_gradient")


def _count_steps(monkeypatch):
    # [calls]: the implicit_step calls of the march since _evolve_columns
    # reset it.
    step, calls = flow.implicit_step, [0]

    def counted(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(flow, "implicit_step", counted)
    return calls


def _solve_every_step(monkeypatch):
    # After each step the march's context forgets its ray factor, so the
    # march never enters its separated tail and solves every step.
    step = flow.implicit_step

    def forgetful(*args):
        x = step(*args)
        args[-1].ray = None
        return x

    monkeypatch.setattr(flow, "implicit_step", forgetful)


def _evolve_columns(regime, p, calls=None):
    # The CSV columns and the trajectory of a 200-step evolve at tau auto,
    # n = 32, from constant data as in the benchmark's evolve cases; under
    # Neumann constant data projects to zero, so that regime starts from
    # random data.  The step calls in calls are counted from the march's
    # first step, after the bootstrap.
    d = build_interval(32)
    params, regime = EnergyParams(p, 1e-6), REGIMES[regime]
    g = np.random.default_rng(0).standard_normal(32) if regime.kind == "neumann" else np.ones(32)
    tau = auto_tau(d, g, params, regime, CFG)
    if calls is not None:
        calls[0] = 0
    traj = evolve(d, g, tau, 200, params, regime, CFG)
    diagnostics.fill_dual_columns(d, traj, CFG)
    return {c: np.array([getattr(row, c) for row in traj.diagnostics]) for c in COLUMNS}, traj


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("regime", list(REGIMES))
def test_march_steps_until_its_first_prediction(monkeypatch, record_contexts, regime, p):
    # The march calls implicit_step up to the step k0 - 1 whose solve moved
    # its start along the ray only, and takes steps k0..200 as the tail
    # without it.
    calls = _count_steps(monkeypatch)
    made = record_contexts(flow)
    traj = _evolve_columns(regime, p, calls)[1]
    ctx = made[-1]  # the march's, after the bootstrap's
    assert traj.steps == 200
    if traj.predicted:
        assert calls[0] == traj.predicted[0] - 1 and ctx.ray is not None
        assert traj.predicted == list(range(traj.predicted[0], 201))
    else:
        assert calls[0] == 200 and ctx.ray is None


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("regime", list(REGIMES))
def test_predicted_run_matches_the_run_without_predictions(monkeypatch, regime, p):
    # Every case enters its separated tail, and its columns agree to
    # rounding with those of the march that solves every step.
    kept, traj = _evolve_columns(regime, p)
    assert traj.predicted
    _solve_every_step(monkeypatch)
    solved, traj = _evolve_columns(regime, p)
    assert not traj.predicted
    for name in COLUMNS:
        a, b = kept[name], solved[name]
        assert np.array_equal(np.isnan(a), np.isnan(b)), name
        a, b = a[~np.isnan(a)], b[~np.isnan(b)]
        if name == "conservation":
            assert np.max(np.abs(a - b)) <= 1e-15 * kept["Np"][0]
        else:
            assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(a), np.abs(b))), name


def _count_work(monkeypatch):
    # Evaluations through the package's bindings of the evaluators, per
    # march row (those of its step and of the row itself, in order of k),
    # and per dual row; and the march's implicit_step calls.
    calls, steps, rows = [0], [], []
    for module in (diagnostics, elliptic, oracle):
        for name in EVALUATORS:
            if hasattr(module, name):
                def counted(*args, _fn=getattr(module, name), **kwargs):
                    calls[0] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    done, record, inverse = [0], flow._record, diagnostics.inverse_operator

    def recorded(*args):
        steps.append(calls[0] - done[0])
        done[0] = calls[0]
        return record(*args)

    def solved(*args, **kwargs):
        before = calls[0]
        out = inverse(*args, **kwargs)
        rows.append(calls[0] - before)
        return out

    monkeypatch.setattr(flow, "_record", recorded)
    monkeypatch.setattr(diagnostics, "inverse_operator", solved)
    return steps, rows, _count_steps(monkeypatch)


def test_separated_tail_makes_no_evaluation_after_its_first_prediction(monkeypatch,
                                                                       record_contexts):
    # The evolve_1d Dirichlet p = 1.5 case.  After the step k0 - 1 that
    # returned its start moved along the ray only, the march calls
    # implicit_step no more: step k0 evaluates its point once, and every
    # later step takes that point and evaluation.  Every solved row after
    # row 0 starts from the evaluation the previous row's solve made at its
    # solution; row k0 - 1's unit-scale state agrees with row k0 - 2's to
    # rounding, so that solution is its own and the row stops there.  Rows
    # k0..200, of the tail, take row k0 - 1's quotient unsolved.
    d = build_interval(32)
    params, g = EnergyParams(1.5, 1e-6), np.ones(32)
    tau = auto_tau(d, g, params, DIRICHLET, CFG)
    made = record_contexts(flow)
    dual = record_contexts(diagnostics)
    steps, rows, calls = _count_work(monkeypatch)
    traj = evolve(d, g, tau, 200, params, DIRICHLET, CFG)
    diagnostics.fill_dual_columns(d, traj, CFG)
    k0 = traj.predicted[0]
    assert traj.steps == 200 and 2 <= k0 <= 41
    assert traj.predicted == list(range(k0, 201))
    assert calls[0] == k0 - 1 and made[0].ray is not None
    assert len(steps) == 201 and steps[0] == 1  # steps[k] is step k's, row included
    assert min(steps[1:k0]) >= 2
    assert steps[k0:] == [1] + [0] * (200 - k0)
    assert dual[0].solves == len(rows) == k0 and dual[0].handed_over == k0 - 1
    quotients = [row.dual_q for row in traj.diagnostics]
    assert quotients[k0:] == [quotients[k0 - 1]] * (201 - k0)
    assert rows[k0 - 1] == 0
    assert min(rows[1:k0 - 2]) >= 1


@pytest.mark.parametrize("regime", list(REGIMES))
def test_predicted_rows_take_the_quotient_of_their_own_state(monkeypatch, regime):
    # A tail step's row takes the quotient of the row before it.  A
    # fresh dual_quotient of the row's own state, warm-started where the
    # last solved row's solve ended as that row's successor would be, gives
    # the same number to rounding.
    d = build_interval(32)
    params, regime = EnergyParams(2.0, 1e-6), REGIMES[regime]
    g = np.random.default_rng(0).standard_normal(32)
    tau = auto_tau(d, g, params, regime, CFG)
    traj = evolve(d, g, tau, 200, params, regime, CFG)
    solutions, inverse = [], diagnostics.inverse_operator

    def keep(*args, **kwargs):
        solutions.append(inverse(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(diagnostics, "inverse_operator", keep)
    diagnostics.fill_dual_columns(d, traj, CFG)
    monkeypatch.undo()
    repeats = set(traj.predicted)
    assert len(repeats) > 50
    solved = [k for k in range(201) if k not in repeats]
    assert len(solutions) == len(solved)
    for k in traj.predicted:
        last = max(i for i, j in enumerate(solved) if j < k)
        copied = traj.diagnostics[k].dual_q
        assert copied == traj.diagnostics[solved[last]].dual_q
        fresh = diagnostics.dual_quotient(d, traj.states[k], params, regime, CFG,
                                          warm_start=solutions[last])
        assert abs(fresh - copied) <= 1e-15 * copied, (k, fresh, copied)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_step_after_a_ray_only_solve_is_a_fresh_solve(evals, p):
    # From the unit state before the march's separated tail, a step moves
    # its start along the ray only and leaves that factor in ctx.ray.  A
    # step on that context from unrelated data reads nothing of it: it
    # returns the bits of a step on a fresh context, with as many
    # evaluations.
    d = build_interval(32)
    params = EnergyParams(p, 1e-6)
    tau = auto_tau(d, np.ones(32), params, DIRICHLET, CFG)
    traj = evolve(d, np.ones(32), tau, 60, params, DIRICHLET, CFG)
    k0 = traj.predicted[0]
    x = traj.states[k0 - 2] / np.abs(traj.states[k0 - 2]).max()
    for u_prev in (np.random.default_rng(0).standard_normal(32), 7.0 * np.abs(d.nodes - 0.3)):
        ctx = SolveContext(d, DIRICHLET, p, tau, linear_start=False)
        implicit_step(d, x, tau, params, DIRICHLET, CFG, ctx)
        assert ctx.ray is not None and ctx.iterations == 0
        before = evals[0]
        stale = implicit_step(d, u_prev, tau, params, DIRICHLET, CFG, ctx)
        used = evals[0] - before
        fresh_ctx = SolveContext(d, DIRICHLET, p, tau, linear_start=False)
        fresh = implicit_step(d, u_prev, tau, params, DIRICHLET, CFG, fresh_ctx)
        assert evals[0] - before == 2 * used
        np.testing.assert_array_equal(stale, fresh)
