"""Each state is evaluated once: a march's diagnostics rows reuse the
evaluation their implicit step made, the rows of its separated tail reuse
the evaluation the march made at the tail's first step, each dual row's
inverse solve reuses the evaluation the previous row's solve made at its
warm start, and each oracle sweep's inverse solve reuses the evaluation of
its warm start made for the residual.

The hand-offs must not change a bit of any output, so every comparison here
is exact against a run with the hand-offs dropped.
"""

import numpy as np
import pytest

from dnflow import diagnostics, elliptic, flow, oracle
from dnflow.cli import main
from dnflow.domain import build_interval
from dnflow.elliptic import SolverConfig
from dnflow.flow import evolve
from dnflow.operators import BoundaryRegime, EnergyParams
from dnflow.oracle import minimize_rayleigh

CFG = SolverConfig(grad_tol=1e-9)
REGIMES = {
    "dirichlet": BoundaryRegime.dirichlet(),
    "robin": BoundaryRegime.robin(1.0),
    "neumann": BoundaryRegime.neumann(),
    "fractional": BoundaryRegime.fractional(0.5),
}
EVALUATORS = ("energy", "energy_gradient", "energy_and_gradient")


def _drop_handoffs(monkeypatch):
    # Rows evaluate their state again, and dual rows and sweeps their warm
    # start.
    build_row = diagnostics.build_row
    monkeypatch.setattr(diagnostics, "build_row",
                        lambda dom, traj, k, x, scale, evaluation=None:
                        build_row(dom, traj, k, x, scale))
    for module in (diagnostics, oracle):
        def inverse_without(*args, ctx=None, _inverse=module.inverse_operator, **kwargs):
            if ctx is not None:
                ctx.evaluation = None
            return _inverse(*args, ctx=ctx, **kwargs)

        monkeypatch.setattr(module, "inverse_operator", inverse_without)


def _count_evaluations(monkeypatch):
    # Counts every call through the package's bindings of the evaluators,
    # and per build_row call the evaluations made inside it.
    calls, rows = [0], []
    for module in (diagnostics, elliptic, oracle):
        for name in EVALUATORS:
            if hasattr(module, name):
                def counted(*args, _fn=getattr(module, name), **kwargs):
                    calls[0] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
    build_row = diagnostics.build_row

    def counted_row(*args, **kwargs):
        before = calls[0]
        row = build_row(*args, **kwargs)
        rows.append(calls[0] - before)
        return row

    monkeypatch.setattr(diagnostics, "build_row", counted_row)
    return calls, rows


def _run(tmp_path, command, lines, out):
    cfg = tmp_path / f"{out}.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / out)]) == 0


def _evolve_lines(regime, p):
    return ["domain.kind = interval", "domain.n = 32", f"p = {p}", f"regime.kind = {regime}",
            "tau = auto", "steps = 200", "epsilon = 1e-6", "init.kind = random"]


@pytest.mark.parametrize("regime", list(REGIMES))
def test_evolve_csv_is_bit_identical_without_the_handoff(tmp_path, monkeypatch, record_contexts,
                                                          regime):
    # From this random data the Dirichlet and Robin p = 3 marches reach no
    # separated tail in 200 steps; the p = 2 ones do.
    made = record_contexts(diagnostics)
    marches, march = [], flow._march

    def recorded(*args, **kwargs):
        marches.append(march(*args, **kwargs))
        return marches[-1]

    monkeypatch.setattr(flow, "_march", recorded)
    for p in (2, 3):
        _run(tmp_path, "evolve", _evolve_lines(regime, p), f"kept{p}")
    # The runs reach a tail, and their dual rows take handed-over
    # evaluations except under Neumann, whose shift moves each solution.
    assert any(traj.predicted for traj in marches)
    assert (sum(c.handed_over for c in made) > 0) == (regime != "neumann")
    _drop_handoffs(monkeypatch)
    for p in (2, 3):
        _run(tmp_path, "evolve", _evolve_lines(regime, p), f"dropped{p}")
        kept = (tmp_path / f"kept{p}" / "diagnostics.csv").read_bytes()
        assert kept == (tmp_path / f"dropped{p}" / "diagnostics.csv").read_bytes()


def test_eigen_is_bit_identical_without_the_handoffs(tmp_path, monkeypatch, capsys):
    lines = ["domain.kind = rectangle", "domain.n = 31", "p = 3", "regime.kind = dirichlet",
             "epsilon = 1e-6", "tau = auto"]
    _run(tmp_path, "eigen", lines, "kept")
    kept = capsys.readouterr().out
    _drop_handoffs(monkeypatch)
    _run(tmp_path, "eigen", lines, "dropped")
    assert kept == capsys.readouterr().out and kept


@pytest.mark.parametrize("regime", ["robin", "fractional"])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_oracle_is_bit_identical_and_saves_one_evaluation_per_sweep(monkeypatch, regime, p):
    d = build_interval(32)
    params = EnergyParams(p, 1e-6)
    calls, _ = _count_evaluations(monkeypatch)
    kept = minimize_rayleigh(d, params, REGIMES[regime], CFG, seed=0)
    kept_calls = calls[0]
    _drop_handoffs(monkeypatch)
    dropped = minimize_rayleigh(d, params, REGIMES[regime], CFG, seed=0)
    dropped_calls = calls[0] - kept_calls
    assert (kept.lam, kept.residual, kept.iterations) == (
        dropped.lam, dropped.residual, dropped.iterations)
    np.testing.assert_array_equal(kept.extremal, dropped.extremal)
    assert kept.iterations > 0
    assert dropped_calls - kept_calls == kept.iterations


@pytest.mark.parametrize("regime", list(REGIMES))
def test_rows_evaluate_only_states_the_step_did_not(monkeypatch, regime):
    # Row 0 has no step behind it.  Every other row reuses its step's
    # evaluation, except under Neumann, whose shift moves the state after
    # the step evaluated it.
    d = build_interval(32)
    g = np.random.default_rng(0).standard_normal(32)
    _, rows = _count_evaluations(monkeypatch)
    traj = evolve(d, g, 0.01, 20, EnergyParams(3.0, 1e-6), REGIMES[regime], CFG)
    assert traj.steps == 20
    assert rows == ([1] * 21 if regime == "neumann" else [1] + [0] * 20)
