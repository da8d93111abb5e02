"""Degree-p homogeneity: with eps relative the scheme is exact under u -> a u,
so no result may depend on the amplitude a of the data.

Every run here either returns the a = 1 result, scaled by a where it scales,
or raises a typed DnflowError; a state or row that differs, a non-finite
row, or any other exception fails.
"""

import math

import numpy as np
import pytest

from dnflow.cli import main
from dnflow.diagnostics import dual_quotient
from dnflow.domain import build_interval
from dnflow.elliptic import SolverConfig
from dnflow.errors import DnflowError
from dnflow.flow import evolve
from dnflow.operators import BoundaryRegime, EnergyParams

CFG = SolverConfig(grad_tol=1e-9)
REGIMES = {
    "dirichlet": BoundaryRegime.dirichlet(),
    "neumann": BoundaryRegime.neumann(),
    "robin": BoundaryRegime.robin(1.0),
    "fractional": BoundaryRegime.fractional(0.5),
}
AMPLITUDES = [10.0 ** (sign * e) for e in (1, 5, 10, 20, 30, 40, 50, 60, 80, 100)
              for sign in (1, -1)]
ROW_VALUES = ("Np", "rayleigh", "lambda_decay", "conservation", "energy_residual", "energy")


def _data(d):
    return np.sin(np.pi * d.nodes) + 0.3 * np.random.default_rng(0).standard_normal(d.n_nodes)


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
@pytest.mark.parametrize("regime", list(REGIMES))
def test_evolve_and_dual_quotient_do_not_see_the_amplitude(regime, p):
    d = build_interval(32)
    params, regime = EnergyParams(p, 1e-6), REGIMES[regime]
    u0 = _data(d)
    ref = evolve(d, u0, 0.01, 3, params, regime, CFG).states[-1]
    ref_q = dual_quotient(d, u0, params, regime, CFG)
    refused = 0
    for a in AMPLITUDES:
        assert dual_quotient(d, a * u0, params, regime, CFG) == pytest.approx(ref_q, rel=1e-12), a
        try:
            traj = evolve(d, a * u0, 0.01, 3, params, regime, CFG)
        except DnflowError:
            refused += 1
            continue
        assert np.max(np.abs(traj.states[-1] / a - ref)) <= 1e-12 * np.max(np.abs(ref)), a
        for row in traj.diagnostics[1:]:
            assert all(math.isfinite(getattr(row, name)) for name in ROW_VALUES), (a, row)
    # Only int |u|^p outside the floats is refused: at p = 4 that is a = 1e+-80, 1e+-100.
    assert refused == (4 if p == 4.0 else 0)


def _eigen(tmp_path, capsys, p, a):
    data = tmp_path / "g.txt"
    data.write_text("kind=interval n=32\n" + f"{a!r}\n" * 32)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(["domain.kind = interval", "domain.n = 32", f"p = {p}",
                              "regime.kind = dirichlet", "init.kind = file",
                              f"init.path = {data}", f"out.dir = {tmp_path}"]) + "\n")
    code = main(["eigen", "--config", str(cfg)])
    out = capsys.readouterr()
    return code, out.out.split(), out.err


@pytest.mark.parametrize("p", [1.5, 4.0])
def test_eigen_prints_the_amplitude_one_numbers_or_refuses(tmp_path, capsys, p):
    code, ref, _ = _eigen(tmp_path, capsys, p, 1.0)
    assert code == 0
    lam, mu, gap = map(float, ref)
    for a in AMPLITUDES:
        code, out, err = _eigen(tmp_path, capsys, p, a)
        if code != 0:
            # A typed refusal: exit 1 (bad input) or 2 (non-convergence),
            # with one line on standard error and nothing printed.
            assert code in (1, 2) and err.startswith("dnflow: ") and not out, (a, err)
            continue
        got = [float(v) for v in out]
        assert all(map(math.isfinite, got)), (a, out)
        assert got[0] == pytest.approx(lam, rel=1e-12), a
        assert got[1] == pytest.approx(mu, rel=1e-12), a
        assert abs(got[2] - gap) <= 1e-12, a
