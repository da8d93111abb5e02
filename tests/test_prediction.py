"""The separated tail steps without evaluations: an implicit step first
tries the state its context's last ray factor t predicts, t u_prev, and
once a step has returned its prediction the march takes every later step
as that step's point at a scale times t, without calling implicit_step.
A dual row, solved at max|u| = 1 like the step, starts from the previous
row's solution and the evaluation made there, and on that tail that
solution is its own.

Switching the prediction off must leave every output within rounding, so
the comparisons here are against runs with elliptic._prediction patched to
reject every prediction.
"""

import numpy as np
import pytest

from dnflow import diagnostics, elliptic, flow, oracle
from dnflow.domain import build_interval
from dnflow.elliptic import SolveContext, SolverConfig, implicit_step
from dnflow.flow import auto_tau, evolve
from dnflow.operators import BoundaryRegime, EnergyParams, energy_and_gradient, jp

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


def _count_predictions(monkeypatch):
    # [tried, accepted]: the calls of _prediction and those of them that
    # returned a prediction.
    counts, inner = [0, 0], elliptic._prediction

    def spy(*args):
        predicted = inner(*args)
        counts[0] += 1
        counts[1] += predicted is not None
        return predicted

    monkeypatch.setattr(elliptic, "_prediction", spy)
    return counts


def _kick_step(monkeypatch):
    # [calls, k]: the march's implicit_step calls so far, and the step k
    # that starts from its u_prev plus a 1e-3 relative random field, as a
    # restart from a perturbed state would (none while k is 0);
    # traj.states keeps the unperturbed state.
    step, kick = flow.implicit_step, [0, 0]

    def kicked(dom, u_prev, *args):
        kick[0] += 1
        if kick[0] == kick[1]:
            noise = np.random.default_rng(1).standard_normal(u_prev.size)
            u_prev = u_prev + 1e-3 * np.abs(u_prev).max() * noise
        return step(dom, u_prev, *args)

    monkeypatch.setattr(flow, "implicit_step", kicked)
    return kick


def _evolve_columns(regime, p, kick, counts=None):
    # The CSV columns and the trajectory of a 200-step evolve at tau auto,
    # n = 32, from constant data as in the benchmark's evolve cases; under
    # Neumann constant data projects to zero, so that regime starts from
    # random data.  The step calls in kick and the predictions in counts
    # are counted from the march's first step, after the bootstrap.
    d = build_interval(32)
    params, regime = EnergyParams(p, 1e-6), REGIMES[regime]
    g = np.random.default_rng(0).standard_normal(32) if regime.kind == "neumann" else np.ones(32)
    tau = auto_tau(d, g, params, regime, CFG)
    kick[0] = 0
    if counts is not None:
        counts[:] = [0, 0]
    traj = evolve(d, g, tau, 200, params, regime, CFG)
    diagnostics.fill_dual_columns(d, traj, CFG)
    return {c: np.array([getattr(row, c) for row in traj.diagnostics]) for c in COLUMNS}, traj


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("regime", list(REGIMES))
def test_march_steps_until_its_first_prediction(monkeypatch, record_contexts, regime, p):
    # The march calls implicit_step up to the step k0 that returns its
    # prediction, and takes steps k0..200 as that tail without it.
    kick = _kick_step(monkeypatch)
    made = record_contexts(flow)
    traj = _evolve_columns(regime, p, kick)[1]
    ctx = made[-1]  # the march's, after the bootstrap's
    assert traj.steps == 200 and ctx.predicted <= 1
    if traj.predicted:
        assert kick[0] == traj.predicted[0]
        assert traj.predicted == list(range(traj.predicted[0], 201))
    else:
        assert kick[0] == 200


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("regime", list(REGIMES))
def test_predicted_run_matches_the_run_without_predictions(monkeypatch, regime, p):
    # A march rejects no prediction on its own: after a ray-only step the
    # next step's problem is that step's scaled by t.  So the march is
    # kicked off its ray once, at the step k0 where the unkicked run first
    # predicted; that prediction must be rejected.  The kicked march need
    # not separate again within 200 steps.
    counts = _count_predictions(monkeypatch)
    kick = _kick_step(monkeypatch)
    k0 = _evolve_columns(regime, p, kick, counts)[1].predicted[0]
    assert counts[1] == 1
    kick[1] = k0
    kept = _evolve_columns(regime, p, kick, counts)[0]
    assert counts[0] - counts[1] == 1
    monkeypatch.setattr(elliptic, "_prediction", lambda *args: None)
    dropped = _evolve_columns(regime, p, kick)[0]
    for name in COLUMNS:
        a, b = kept[name], dropped[name]
        assert np.array_equal(np.isnan(a), np.isnan(b)), name
        a, b = a[~np.isnan(a)], b[~np.isnan(b)]
        if name == "conservation":
            assert np.max(np.abs(a - b)) <= 1e-15 * kept["Np"][0]
        else:
            assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(np.abs(a), np.abs(b))), name


def _count_work(monkeypatch):
    # Evaluations through the package's bindings of the evaluators, per
    # implicit step of the march and per dual row, and per step whether it
    # returned its prediction (its context's predicted count rose).
    calls, steps, rows, predicted = [0], [], [], []
    for module in (diagnostics, elliptic, oracle):
        for name in EVALUATORS:
            if hasattr(module, name):
                def counted(*args, _fn=getattr(module, name), **kwargs):
                    calls[0] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)

    def per_call(module, name, into):
        inner = getattr(module, name)

        def spy(*args, **kwargs):
            before = calls[0]
            ctx = args[-1] if name == "implicit_step" else None
            was = ctx.predicted if ctx else 0
            out = inner(*args, **kwargs)
            into.append(calls[0] - before)
            if ctx:
                predicted.append(ctx.predicted > was)
            return out

        monkeypatch.setattr(module, name, spy)

    per_call(flow, "implicit_step", steps)
    per_call(diagnostics, "inverse_operator", rows)
    return steps, rows, predicted


def test_separated_tail_makes_no_evaluation_after_its_first_prediction(monkeypatch,
                                                                       record_contexts):
    # The evolve_1d Dirichlet p = 1.5 case.  After the step k0 - 1 that
    # returned its start moved along the ray only, every step is a
    # prediction: step k0 evaluates it once, and the march takes every
    # later step as that point without calling implicit_step.  Every solved
    # row after row 0 starts from the evaluation the previous row's solve
    # made at its solution; row k0 - 1's unit-scale state agrees with row
    # k0 - 2's to rounding, so that solution is its own and the row stops
    # there.  Rows k0..200, of predicted steps, take row k0 - 1's quotient
    # unsolved.
    d = build_interval(32)
    params, g = EnergyParams(1.5, 1e-6), np.ones(32)
    tau = auto_tau(d, g, params, DIRICHLET, CFG)
    made = record_contexts(flow)
    dual = record_contexts(diagnostics)
    steps, rows, predicted = _count_work(monkeypatch)
    traj = evolve(d, g, tau, 200, params, DIRICHLET, CFG)
    diagnostics.fill_dual_columns(d, traj, CFG)
    k0 = predicted.index(True) + 1  # predicted[k - 1] is step k
    assert len(steps) == k0 and traj.steps == 200
    assert k0 <= 41
    assert traj.predicted == list(range(k0, 201))
    assert made[0].predicted == 1
    assert steps[k0 - 1:] == [1]  # steps[k - 1] is step k
    assert min(steps[:k0 - 1]) >= 2
    assert dual[0].solves == len(rows) == k0 and dual[0].handed_over == k0 - 1
    quotients = [row.dual_q for row in traj.diagnostics]
    assert quotients[k0:] == [quotients[k0 - 1]] * (201 - k0)
    assert rows[k0 - 1] == 0
    assert min(rows[1:k0 - 2]) >= 1


@pytest.mark.parametrize("regime", list(REGIMES))
def test_predicted_rows_take_the_quotient_of_their_own_state(monkeypatch, regime):
    # A predicted step's row takes the quotient of the row before it.  A
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


def _step_gradient_norm(d, x, u_prev, tau, params):
    raw = energy_and_gradient(d, x, params, DIRICHLET)[1]
    vol = d.cell_volume
    return np.linalg.norm(tau * raw + vol * jp(x, params.p) - vol * jp(u_prev, params.p))


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_prediction_from_an_unrelated_state_meets_the_stopping_test(record_contexts, p):
    d = build_interval(32)
    params = EnergyParams(p, 1e-6)
    tau = auto_tau(d, np.ones(32), params, DIRICHLET, CFG)
    made = record_contexts(flow)
    traj = evolve(d, np.ones(32), tau, 60, params, DIRICHLET, CFG)
    # The march's next step would take the last state at max|u| = 1.
    ctx, u, t = made[0], traj.states[-1] / np.abs(traj.states[-1]).max(), made[0].ray
    assert t is not None and ctx.predicted > 0
    predicted = ctx.predicted
    np.testing.assert_array_equal(implicit_step(d, u, tau, params, DIRICHLET, CFG, ctx), t * u)
    assert ctx.predicted == predicted + 1
    # The true reference is ||g(u_prev)|| = tau ||grad E(u_prev)||.
    for u_prev in (np.random.default_rng(0).standard_normal(32), 7.0 * np.abs(d.nodes - 0.3)):
        ctx.ray = t
        x = implicit_step(d, u_prev, tau, params, DIRICHLET, CFG, ctx)
        ref = _step_gradient_norm(d, u_prev, u_prev, tau, params)
        assert _step_gradient_norm(d, x, u_prev, tau, params) <= CFG.grad_tol * ref
        assert ctx.predicted == predicted + 1


def test_a_step_after_an_accepted_prediction_evaluates_it_again(evals):
    # At p = 2 a sine mode is separated: the first step moves along the ray
    # only and the second returns its prediction.  The step keeps no repeat
    # of an accepted prediction (the march takes the separated tail itself),
    # so a third step from the same values evaluates the prediction once
    # more and returns the same bits.
    d, tau = build_interval(32), 0.1
    x = np.sin(np.pi * d.nodes) / np.abs(np.sin(np.pi * d.nodes)).max()
    params = EnergyParams(2.0, 1e-6)
    ctx = SolveContext(d, DIRICHLET, 2.0, tau, linear_start=False)
    implicit_step(d, x, tau, params, DIRICHLET, CFG, ctx)
    first = implicit_step(d, x, tau, params, DIRICHLET, CFG, ctx)
    assert ctx.predicted == 1
    before = evals[0]
    again = implicit_step(d, x.copy(), tau, params, DIRICHLET, CFG, ctx)
    assert evals[0] - before == 1 and ctx.predicted == 2
    np.testing.assert_array_equal(again, first)
