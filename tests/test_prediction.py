"""The separated tail steps without evaluations: an implicit step first
tries the state its context's last ray factor t predicts, t u_prev, and
the steps after an accepted prediction, which get the same u_prev, repeat
it.  A dual row, solved at max|u| = 1 like the step, starts from the
previous row's solution and the evaluation made there, and on that tail
that solution is its own.

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
    # () -> (tried, accepted) predictions over the marches' contexts.  A
    # repeated step takes the prediction before it again without calling
    # _prediction, so the tried ones are those calls plus the repeats.
    made, calls, inner = _record_contexts(monkeypatch), [0], elliptic._prediction

    def spy(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(elliptic, "_prediction", spy)
    return lambda: (calls[0] + sum(c.repeated for c in made), sum(c.predicted for c in made))


def _kick_step(monkeypatch, k):
    # Step k of a march starts from its u_prev plus a 1e-3 relative random
    # field, as a restart from a perturbed state would; traj.states keeps
    # the unperturbed state.
    step, calls = flow.implicit_step, [0]

    def kicked(dom, u_prev, *args):
        calls[0] += 1
        if calls[0] == k:
            noise = np.random.default_rng(1).standard_normal(u_prev.size)
            u_prev = u_prev + 1e-3 * np.abs(u_prev).max() * noise
        return step(dom, u_prev, *args)

    monkeypatch.setattr(flow, "implicit_step", kicked)
    return calls


def _evolve_columns(regime, p, kicks):
    # The CSV columns of a 200-step evolve at tau auto, n = 32, from
    # constant data as in the benchmark's evolve cases; under Neumann
    # constant data projects to zero, so that regime starts from random data.
    d = build_interval(32)
    params, regime = EnergyParams(p, 1e-6), REGIMES[regime]
    g = np.random.default_rng(0).standard_normal(32) if regime.kind == "neumann" else np.ones(32)
    tau = auto_tau(d, g, params, regime, CFG)
    kicks[0] = 0
    traj = evolve(d, g, tau, 200, params, regime, CFG)
    diagnostics.fill_dual_columns(d, traj, CFG)
    return {c: np.array([getattr(row, c) for row in traj.diagnostics]) for c in COLUMNS}


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("regime", list(REGIMES))
def test_predicted_run_matches_the_run_without_predictions(monkeypatch, regime, p):
    # A march rejects no prediction on its own: after a ray-only step the
    # next step's problem is that step's scaled by t.  So the march is
    # kicked off its ray once, at step 100; the first prediction after the
    # kick must be rejected, and the flow separates again before the tail
    # is predicted anew.
    counted = _count_predictions(monkeypatch)
    kicks = _kick_step(monkeypatch, 100)
    kept = _evolve_columns(regime, p, kicks)
    counts = counted()
    assert counts[1] > 50 and counts[0] - counts[1] == 1
    monkeypatch.setattr(elliptic, "_prediction", lambda *args: None)
    dropped = _evolve_columns(regime, p, kicks)
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


def _record_contexts(monkeypatch, module=flow):
    made = []

    def record(*args, **kwargs):
        made.append(SolveContext(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(module, "SolveContext", record)
    return made


def test_separated_tail_makes_no_evaluation_after_its_first_prediction(monkeypatch):
    # The evolve_1d Dirichlet p = 1.5 case.  After the step k0 - 1 that
    # returned its start moved along the ray only, every step is a
    # prediction: step k0 evaluates it once, and every later step gets the
    # same u_prev and t and repeats it.  Every solved row after row 0
    # starts from the evaluation the previous row's solve made at its
    # solution; row k0 - 1's unit-scale state agrees with row k0 - 2's to
    # rounding, so that solution is its own and the row stops there.  Rows
    # k0..200, of predicted steps, take row k0 - 1's quotient unsolved.
    d = build_interval(32)
    params, g = EnergyParams(1.5, 1e-6), np.ones(32)
    tau = auto_tau(d, g, params, DIRICHLET, CFG)
    made = _record_contexts(monkeypatch)
    dual = _record_contexts(monkeypatch, diagnostics)
    steps, rows, predicted = _count_work(monkeypatch)
    traj = evolve(d, g, tau, 200, params, DIRICHLET, CFG)
    diagnostics.fill_dual_columns(d, traj, CFG)
    assert len(steps) == 200 and traj.steps == 200
    k0 = predicted.index(True) + 1  # predicted[k - 1] is step k
    assert k0 <= 41
    assert traj.predicted == list(range(k0, 201))
    assert made[0].predicted == 201 - k0
    assert made[0].repeated == 200 - k0
    assert steps[k0 - 1:] == [1] + [0] * (200 - k0)  # steps[k - 1] is step k
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
def test_prediction_from_an_unrelated_state_meets_the_stopping_test(monkeypatch, p):
    d = build_interval(32)
    params = EnergyParams(p, 1e-6)
    tau = auto_tau(d, np.ones(32), params, DIRICHLET, CFG)
    made = _record_contexts(monkeypatch)
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
