import math

import numpy as np
import pytest

from dnflow.diagnostics import (
    CSV_HEADER,
    dual_norm_q,
    dual_quotient,
    energy_identity_residual,
    fill_dual_columns,
    lambda_decay_estimate,
    mu_lambda_consistency,
    rows_to_csv,
)
from dnflow.domain import build_interval, integrate_power
from dnflow.elliptic import SolverConfig, zero_pmean_shift
from dnflow.errors import DegenerateInputError
from dnflow.flow import evolve
from dnflow.operators import BoundaryRegime, EnergyParams, energy, jp
from dnflow.oracle import minimize_rayleigh

DIRICHLET = BoundaryRegime.dirichlet()
NEUMANN = BoundaryRegime.neumann()
CFG = SolverConfig(grad_tol=1e-9)


def sine_mode(dom, m=1):
    return np.sin(m * np.pi * dom.nodes)


def mode_eigenvalue(dom, m=1):
    h = dom.hx
    return 2.0 / h**2 * (1.0 - np.cos(m * np.pi * h))


def test_dual_norm_linear_mode():
    # f = unit-L2 sine mode: ||f||_*^2 = 1/lambda_h.
    d = build_interval(49)
    phi = sine_mode(d)
    phi = phi / integrate_power(d, phi, 2.0) ** 0.5
    lam = mode_eigenvalue(d)
    val = dual_norm_q(d, phi, EnergyParams(2.0, 0.0), DIRICHLET, CFG)
    assert val == pytest.approx(1.0 / lam, rel=1e-8)


def test_dual_norm_zero():
    d = build_interval(9)
    assert dual_norm_q(d, np.zeros(9), EnergyParams(2.0, 0.0), DIRICHLET, CFG) == 0.0


def test_dual_norm_matches_p_energy():
    from dnflow.elliptic import inverse_operator

    d = build_interval(21)
    rng = np.random.default_rng(0)
    for p in (1.5, 2.5):
        params = EnergyParams(p, 1e-8)
        f = rng.standard_normal(21)
        val = dual_norm_q(d, f, params, DIRICHLET, CFG)
        u = inverse_operator(d, f, params, DIRICHLET, CFG)
        assert val == pytest.approx(p * energy(d, u, params, DIRICHLET),
                                    rel=10 * CFG.grad_tol)


def test_dual_quotient_extremal_equality_and_homogeneity():
    d = build_interval(31)
    p = 2.5
    params = EnergyParams(p, 0.0)
    eig = minimize_rayleigh(d, params, DIRICHLET, CFG, seed=0)
    val = dual_quotient(d, eig.extremal, params, DIRICHLET, CFG)
    assert abs(val / eig.mu - 1.0) <= 10 * CFG.grad_tol
    # zero-homogeneous in the field
    val2 = dual_quotient(d, -3.7 * eig.extremal, params, DIRICHLET, CFG)
    assert val2 == pytest.approx(val, rel=1e-8)
    with pytest.raises(DegenerateInputError):
        dual_quotient(d, np.zeros(31), params, DIRICHLET, CFG)


def test_dual_poincare_inequality_random():
    d = build_interval(31)
    p = 2.5
    params = EnergyParams(p, 0.0)
    eig = minimize_rayleigh(d, params, DIRICHLET, CFG, seed=0)
    rng = np.random.default_rng(1)
    for _ in range(25):
        f = rng.standard_normal(31)
        lhs = eig.mu * dual_norm_q(d, f, params, DIRICHLET, CFG)
        rhs = integrate_power(d, f, params.q)
        assert lhs <= rhs * (1 + 1e-6)
        # equivalently the quotient form exceeds mu
        u = np.sign(f) * np.abs(f) ** (params.q - 1.0)  # f = jp(u)
        assert dual_quotient(d, u, params, DIRICHLET, CFG) >= eig.mu * (1 - 1e-6)


def test_dual_poincare_equality_gap_separates_extremal():
    d = build_interval(31)
    p = 2.0
    params = EnergyParams(p, 0.0)
    eig = minimize_rayleigh(d, params, DIRICHLET, CFG, seed=0)
    gap_ext = abs(dual_quotient(d, eig.extremal, params, DIRICHLET, CFG) / eig.mu - 1)
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = rng.standard_normal(31)
        gap = abs(dual_quotient(d, u, params, DIRICHLET, CFG) / eig.mu - 1)
        assert gap >= 10 * max(gap_ext, 1e-12)


def test_cperp_minkowski_and_triangle():
    d = build_interval(25)
    p = 2.5
    params = EnergyParams(p, 0.0)
    q = params.q
    rng = np.random.default_rng(3)
    from dnflow.elliptic import inverse_operator

    for _ in range(15):
        f = rng.standard_normal(25)
        g = rng.standard_normal(25)
        f -= f.mean()
        g -= g.mean()
        nf = dual_norm_q(d, f, params, NEUMANN, CFG) ** (1 / q)
        ng = dual_norm_q(d, g, params, NEUMANN, CFG) ** (1 / q)
        nfg = dual_norm_q(d, f + g, params, NEUMANN, CFG) ** (1 / q)
        pairing = d.cell_volume * float(
            f @ inverse_operator(d, g, params, NEUMANN, CFG))
        assert pairing <= nf * ng ** (q - 1) * (1 + 1e-6)
        assert nfg <= (nf + ng) * (1 + 1e-6)


def test_lambda_decay_estimator_exact_on_separated():
    d = build_interval(39)
    phi = sine_mode(d)
    lam = mode_eigenvalue(d)
    tau = 0.03
    traj = evolve(d, phi, tau, 8, EnergyParams(2.0, 0.0), DIRICHLET, CFG)
    for k in range(1, 9):
        assert lambda_decay_estimate(traj, k) == pytest.approx(lam, rel=1e-8)


def test_lambda_decay_two_mode_decreases_to_ground():
    d = build_interval(39)
    g = sine_mode(d, 1) + 0.5 * sine_mode(d, 2)
    lam1 = mode_eigenvalue(d, 1)
    traj = evolve(d, g, 0.05, 20, EnergyParams(2.0, 0.0), DIRICHLET, CFG)
    lams = [lambda_decay_estimate(traj, k) for k in range(1, 21)]
    assert all(l2 <= l1 + 1e-9 for l1, l2 in zip(lams, lams[1:]))
    assert lams[-1] == pytest.approx(lam1, rel=1e-4)


def test_lambda_decay_degenerate():
    d = build_interval(9)
    traj = evolve(d, np.zeros(9), 0.1, 3, EnergyParams(2.0, 0.0), DIRICHLET, CFG)
    assert math.isnan(lambda_decay_estimate(traj, 1))


def test_mu_lambda_consistency_values():
    assert mu_lambda_consistency(math.pi**2, math.pi**2, 2.0) == 0.0
    assert mu_lambda_consistency(8.0, math.sqrt(8.0), 3.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        mu_lambda_consistency(-1.0, 1.0, 2.0)


def test_energy_identity_residual_sign_and_order():
    d = build_interval(39)
    phi = sine_mode(d)
    params = EnergyParams(2.0, 0.0)
    scale = integrate_power(d, phi, 2.0)
    residuals = {}
    for tau in (0.04, 0.02):
        traj = evolve(d, phi, tau, 6, params, DIRICHLET, CFG)
        rs = [energy_identity_residual(traj, k) for k in range(1, 7)]
        assert all(r <= 10 * CFG.grad_tol * scale for r in rs)
        residuals[tau] = max(abs(r) for r in rs)
    # |r_k| = O(tau^2): halving tau shrinks the defect by about 4
    assert residuals[0.02] <= residuals[0.04] / 2.5


def test_energy_identity_zero_trajectory():
    d = build_interval(9)
    traj = evolve(d, np.zeros(9), 0.1, 2, EnergyParams(2.0, 0.0), DIRICHLET, CFG)
    assert energy_identity_residual(traj, 1) == 0.0


def test_fill_dual_columns_and_csv():
    d = build_interval(19)
    params = EnergyParams(2.0, 0.0)
    eig = minimize_rayleigh(d, params, DIRICHLET, CFG, seed=0)
    traj = evolve(d, np.ones(19), 0.05, 4, params, DIRICHLET, CFG)
    fill_dual_columns(d, traj, CFG)
    for row in traj.diagnostics:
        # both discrete Poincare inequalities, with the same-grid constants
        assert row.rayleigh >= eig.lam * (1 - 1e-9)
        assert row.dual_q >= eig.mu * (1 - 1e-6)
        assert row.mu_from_dual == row.dual_q
    text = rows_to_csv(traj.diagnostics)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 6
    assert lines[1].startswith("0,0.0,")


def test_neumann_conservation_column():
    d = build_interval(19)
    rng = np.random.default_rng(4)
    g = zero_pmean_shift(d, rng.standard_normal(19), 2.5)
    params = EnergyParams(2.5, 1e-8)
    traj = evolve(d, g, 0.05, 6, params, NEUMANN, CFG)
    for row in traj.diagnostics:
        ju = jp(traj.states[row.k], 2.5)
        assert abs(row.conservation) <= 10 * CFG.grad_tol * (
            d.cell_volume * np.abs(ju).sum() + 1e-30)


@pytest.mark.parametrize("p, amp", [(4.0, 1e-60), (4.0, 1e-75), (4.0, 1e-80),
                                    (3.0, 1e-85), (3.0, 1e-100)])
def test_dual_quotient_is_amplitude_free(p, amp):
    # At these amplitudes the dual norm of jp(u) itself rounds to 0.  With
    # eps relative the quotient is degree-0 homogeneous and is read at
    # max|u| = 1, so it equals the amplitude-1 value, and so do a
    # trajectory's dual_q rows, unless int |u|^p itself leaves the normal
    # floats, which the march refuses with a typed error.
    d = build_interval(32)
    params = EnergyParams(p, 1e-6)
    phi = sine_mode(d)
    ref = dual_quotient(d, phi, params, DIRICHLET, CFG)
    assert dual_quotient(d, amp * phi, params, DIRICHLET, CFG) == pytest.approx(ref, rel=1e-12)
    unit = evolve(d, phi, 0.01, 2, params, DIRICHLET, CFG)
    fill_dual_columns(d, unit, CFG)
    try:
        traj = evolve(d, amp * phi, 0.01, 2, params, DIRICHLET, CFG)
    except DegenerateInputError:
        assert integrate_power(d, amp * phi, p) < np.finfo(float).tiny
        return
    fill_dual_columns(d, traj, CFG)
    for row, unit_row in zip(traj.diagnostics, unit.diagnostics):
        assert row.dual_q == pytest.approx(unit_row.dual_q, rel=1e-12)


def test_dual_pairing_outside_the_positive_floats_raises_typed_error():
    # A constant field under Neumann has jp(u) = const, which the C-perp
    # projection takes to zero: the pairing is 0 and the quotient refuses.
    d = build_interval(16)
    with pytest.raises(DegenerateInputError, match="rounded to zero or not finite"):
        dual_quotient(d, np.full(16, 2.0), EnergyParams(3.0, 1e-6), NEUMANN, CFG)


def test_zero_field_rows_keep_nan_dual_columns(monkeypatch):
    # Every row of a flow from the zero field has Np = 0: no inverse solve
    # runs, and every dual_q stays NaN.
    import dnflow.diagnostics as diagnostics

    d = build_interval(9)
    traj = evolve(d, np.zeros(9), 0.1, 3, EnergyParams(3.0, 1e-6), DIRICHLET, CFG)

    def no_solve(*args, **kwargs):
        raise AssertionError("inverse solve on a zero row")

    monkeypatch.setattr(diagnostics, "inverse_operator", no_solve)
    fill_dual_columns(d, traj, CFG)
    assert len(traj.diagnostics) == 4
    assert all(math.isnan(row.dual_q) for row in traj.diagnostics)
