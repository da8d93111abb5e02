import gc
import math
import weakref

import numpy as np
import pytest

from dnflow.domain import (
    build_interval,
    build_masked,
    build_rectangle,
    integrate_power,
    lp_norm,
)
from dnflow import fractional, operators
from dnflow.diagnostics import fill_dual_columns
from dnflow.elliptic import SolverConfig, inverse_operator, pmean_defect
from dnflow.errors import (
    BudgetError,
    DegenerateInputError,
    NonConvergenceError,
    SignViolationError,
)
from dnflow.flow import evolve, evolve_until_settled, settled_read_out
from dnflow.operators import BoundaryRegime, EnergyParams, energy, energy_gradient, jp
from dnflow.oracle import (
    _bordered_solve,
    _defect,
    _newton_polish,
    _newton_system,
    _normalize,
    _start,
    dense_linear_reference,
    eigen_residual,
    extremal_sign_normalize,
    minimize_rayleigh,
    operator_matrix,
)

DIRICHLET = BoundaryRegime.dirichlet()
NEUMANN = BoundaryRegime.neumann()
CFG = SolverConfig(grad_tol=1e-9)
TARGET = 3.0 * CFG.grad_tol  # minimize_rayleigh's sweep and start target


def classical_lambda(p):
    # First eigenvalue of the 1-D p-Laplacian on (0,1): pi_p^p with
    # pi_p = 2 pi (p-1)^(1/p) / (p sin(pi/p)).  Cross-checked against a
    # shooting integration of the ODE in test_classical_formula_shooting.
    pi_p = 2 * np.pi * (p - 1) ** (1 / p) / (p * np.sin(np.pi / p))
    return pi_p ** p


def test_dirichlet_p2_closed_form():
    d = build_interval(199)
    eig = minimize_rayleigh(d, EnergyParams(2.0, 0.0), DIRICHLET, CFG, seed=0)
    h = d.hx
    lam_h = 2.0 / h**2 * (1.0 - np.cos(np.pi * h))
    assert abs(eig.lam / lam_h - 1.0) <= 1e-8
    assert abs(eig.lam / np.pi**2 - 1.0) <= 1e-4


def test_rectangle_p2_tensor_sum():
    d = build_rectangle(15, 15, 1.0, 1.0)
    eig = minimize_rayleigh(d, EnergyParams(2.0, 0.0), DIRICHLET, CFG, seed=0)
    h = d.hx
    lam_1d = 2.0 / h**2 * (1.0 - np.cos(np.pi * h))
    assert abs(eig.lam / (2 * lam_1d) - 1.0) <= 1e-8
    dref = dense_linear_reference(d, DIRICHLET)
    assert abs(eig.lam / dref.lam - 1.0) <= 1e-8


def test_classical_formula_shooting():
    # Independent continuum oracle: shoot -(|u'|^{p-2}u')' = lam jp(u) and
    # place the first zero of u at x = 1.
    from scipy.integrate import solve_ivp

    p = 3.0

    def first_zero(lam):
        def rhs(x, y):
            u, w = y  # w = |u'|^{p-2} u'
            up = np.sign(w) * np.abs(w) ** (1.0 / (p - 1.0))
            return [up, -lam * np.abs(u) ** (p - 2.0) * u]

        ev = lambda x, y: y[0]
        ev.terminal = True
        ev.direction = -1
        sol = solve_ivp(rhs, [0, 5], [0.0, 1.0], events=ev,
                        rtol=1e-11, atol=1e-13)
        return sol.t_events[0][0] if sol.t_events[0].size else np.inf

    lo, hi = 10.0, 60.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if first_zero(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(classical_lambda(3.0), rel=1e-9)


def test_dirichlet_p3_classical_value():
    d = build_interval(399)
    eig = minimize_rayleigh(d, EnergyParams(3.0, 1e-6), DIRICHLET, CFG, seed=0)
    assert abs(eig.lam / classical_lambda(3.0) - 1.0) <= 0.01
    # refinement halves the gap at least
    d2 = build_interval(799)
    eig2 = minimize_rayleigh(d2, EnergyParams(3.0, 1e-6), DIRICHLET, CFG, seed=0)
    gap1 = abs(eig.lam / classical_lambda(3.0) - 1.0)
    gap2 = abs(eig2.lam / classical_lambda(3.0) - 1.0)
    assert gap2 <= gap1 / 2


def test_eigen_residual_invariant_all_regimes():
    cases = [
        (build_interval(49), EnergyParams(1.5, 1e-6), DIRICHLET),
        (build_interval(49), EnergyParams(3.0, 1e-6), BoundaryRegime.robin(1.0)),
        (build_interval(49), EnergyParams(2.5, 1e-6), NEUMANN),
        (build_interval(49), EnergyParams(2.0, 0.0), BoundaryRegime.fractional(0.5)),
        (build_rectangle(8, 8, 1, 1), EnergyParams(2.5, 1e-6), DIRICHLET),
        (build_masked(np.tril(np.ones((8, 8), dtype=bool)) | np.eye(8, dtype=bool),
                      0.1), EnergyParams(2.0, 0.0), DIRICHLET),
    ]
    for dom, params, regime in cases:
        eig = minimize_rayleigh(dom, params, regime, CFG, seed=0)
        g = energy_gradient(dom, eig.extremal, params, regime)
        target = eig.lam * jp(eig.extremal, params.p)
        res = np.linalg.norm(g - target) / np.linalg.norm(target)
        assert res <= 10 * CFG.grad_tol, (dom.kind, regime.kind, params.p, res)
        if regime.kind == "neumann":
            assert pmean_defect(dom, eig.extremal, params.p) <= 1e-10


def test_oracle_unit_norm_and_scale_invariance():
    d = build_interval(39)
    params = EnergyParams(2.5, 1e-6)
    a = minimize_rayleigh(d, params, DIRICHLET, CFG, seed=0)
    from dnflow.domain import integrate_power
    assert integrate_power(d, a.extremal, 2.5) == pytest.approx(1.0, rel=1e-10)
    b = minimize_rayleigh(d, params, DIRICHLET, CFG, seed=5)
    assert abs(a.lam / b.lam - 1.0) <= 10 * CFG.grad_tol
    assert lp_norm(d, a.extremal - b.extremal, 2.5) <= 1e-6


def test_oracle_determinism():
    d = build_interval(29)
    params = EnergyParams(3.0, 1e-6)
    a = minimize_rayleigh(d, params, DIRICHLET, CFG, seed=3)
    b = minimize_rayleigh(d, params, DIRICHLET, CFG, seed=3)
    assert a.lam == b.lam
    np.testing.assert_array_equal(a.extremal, b.extremal)


def test_dense_reference_matches_projected_descent():
    d = build_interval(199)
    eig = minimize_rayleigh(d, EnergyParams(2.0, 0.0), DIRICHLET, CFG, seed=0)
    dref = dense_linear_reference(d, DIRICHLET)
    assert abs(eig.lam / dref.lam - 1.0) <= 1e-8


def test_dense_reference_neumann_cosine():
    d = build_interval(199)
    dref = dense_linear_reference(d, NEUMANN)
    n, h = 199, d.hx
    lam_h = 2.0 / h**2 * (1.0 - np.cos(np.pi / n))
    assert abs(dref.lam / lam_h - 1.0) <= 1e-10
    # interior nodes span (h, 1-h): the grid-size error is O(1/n)
    assert abs(dref.lam / np.pi**2 - 1.0) <= 4.0 / n
    mode = np.cos(np.pi * (2 * np.arange(n) + 1) / (2 * n))
    mode /= lp_norm(d, mode, 2.0)
    gap = min(lp_norm(d, dref.extremal - mode, 2.0),
              lp_norm(d, dref.extremal + mode, 2.0))
    assert gap <= 1e-8


def test_dense_reference_robin_matrix_consistency():
    # E(u) = (vol/2) u^T A u must hold for the assembled local matrix.
    rng = np.random.default_rng(0)
    for dom, regime in [
        (build_interval(17), BoundaryRegime.robin(1.3)),
        (build_rectangle(5, 6, 1.0, 1.2), BoundaryRegime.robin(0.8)),
        (build_rectangle(5, 6, 1.0, 1.2), NEUMANN),
        (build_masked(np.array([[1, 1, 1], [1, 1, 0], [1, 0, 0]], dtype=bool), 0.2),
         DIRICHLET),
    ]:
        A = operator_matrix(dom, regime)
        np.testing.assert_allclose(A, A.T, atol=1e-14)
        for _ in range(3):
            u = rng.standard_normal(dom.n_nodes)
            e_matrix = 0.5 * dom.cell_volume * float(u @ (A @ u))
            e_direct = energy(dom, u, EnergyParams(2.0, 0.0), regime)
            assert e_matrix == pytest.approx(e_direct, rel=1e-12)


def test_dense_reference_budget(monkeypatch):
    import dnflow.oracle as oracle

    monkeypatch.setattr(oracle, "DENSE_MAX_NODES", 50)
    d = build_interval(99)
    with pytest.raises(BudgetError):
        dense_linear_reference(d, DIRICHLET)


def test_inner_nonconvergence_with_iterate_advances_the_sweep(monkeypatch):
    # An inner solve stopped at its rounding floor hands back its best
    # iterate, and the sweep goes on from it as from a returned solution.
    import dnflow.oracle as oracle

    d = build_interval(32)
    params = EnergyParams(3.0, 1e-6)
    ref = minimize_rayleigh(d, params, DIRICHLET, CFG, seed=0)
    solve = oracle.inverse_operator

    def floor_hit(*args, **kwargs):
        raise NonConvergenceError("rounding floor", last_iterate=solve(*args, **kwargs))

    monkeypatch.setattr(oracle, "inverse_operator", floor_hit)
    eig = minimize_rayleigh(d, params, DIRICHLET, CFG, seed=0)
    assert (eig.lam, eig.iterations, eig.residual) == (ref.lam, ref.iterations, ref.residual)
    np.testing.assert_array_equal(eig.extremal, ref.extremal)


def test_inner_nonconvergence_without_iterate_reraises(monkeypatch):
    import dnflow.oracle as oracle

    err = NonConvergenceError("no iterate to go on from")

    def fail(*args, **kwargs):
        raise err

    monkeypatch.setattr(oracle, "inverse_operator", fail)
    with pytest.raises(NonConvergenceError) as caught:
        minimize_rayleigh(build_interval(32), EnergyParams(3.0, 1e-6), DIRICHLET, CFG)
    assert caught.value is err


def test_exhausted_sweeps_raise_with_best_iterate(monkeypatch, tmp_path, capsys):
    # With one sweep and no polish the residual stays above 10*grad_tol:
    # the error carries the best iterate, and `dnflow oracle` exits 2.
    import dnflow.oracle as oracle
    from dnflow.cli import main

    monkeypatch.setattr(oracle, "MAX_SWEEPS", 1)
    monkeypatch.setattr(oracle, "POLISH_STEPS", 0)
    with pytest.raises(NonConvergenceError) as caught:
        minimize_rayleigh(build_interval(32), EnergyParams(3.0, 1e-6), DIRICHLET, CFG)
    err = caught.value
    assert err.last_iterate.shape == (32,) and err.residual > 10 * CFG.grad_tol
    assert (err.regime, err.p) == ("dirichlet", 3.0)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("domain.kind = interval\ndomain.n = 32\np = 3\nregime.kind = dirichlet\n")
    assert main(["oracle", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("dnflow: solver did not converge: "
                               "eigen-residual above 10*grad_tol after 1 sweeps")


def test_polish_finishes_sweeps_stalled_above_the_bound(monkeypatch):
    # Neumann p = 1.2, n = 199, seed 0: the sweeps stall at a residual of
    # 8.0e-8, above the 1e-8 bound, and the Newton polish takes it to 6.8e-9
    # (seeds 1 and 2: 6.7e-8 -> 5.9e-9, 1.7e-7 -> 4.4e-9).  Without polish
    # steps the same call raises.
    import dnflow.oracle as oracle

    d, params = build_interval(199), EnergyParams(1.2, 1e-6)
    polish, stalled = oracle._newton_polish, []

    def logged(dom, best, *args):
        stalled.append(best[0])
        return polish(dom, best, *args)

    monkeypatch.setattr(oracle, "_newton_polish", logged)
    result = minimize_rayleigh(d, params, NEUMANN, CFG, seed=0)
    assert len(stalled) == 1 and stalled[0] > 10 * CFG.grad_tol
    assert result.residual <= 10 * CFG.grad_tol
    monkeypatch.setattr(oracle, "POLISH_STEPS", 0)
    with pytest.raises(NonConvergenceError, match="eigen-residual above 10"):
        minimize_rayleigh(d, params, NEUMANN, CFG, seed=0)


def test_sign_normalize_flip_and_identity():
    d = build_interval(19)
    phi = np.sin(np.pi * d.nodes)
    out = extremal_sign_normalize(-phi, DIRICHLET)
    np.testing.assert_allclose(out, phi)
    out2 = extremal_sign_normalize(phi, DIRICHLET)
    np.testing.assert_allclose(out2, phi)


def test_sign_normalize_neumann_exempt():
    d = build_interval(19)
    mode = np.cos(np.pi * d.nodes)
    out = extremal_sign_normalize(mode, NEUMANN)
    np.testing.assert_allclose(out, mode)  # peak already positive; no assert


def test_neumann_extremal_sign_is_deterministic():
    # The odd Neumann extremal peaks at both ends, equal in |u| up to
    # rounding; the sign must not depend on which end rounding favours.
    d = build_interval(32)
    signs = {(p, seed): np.sign(minimize_rayleigh(d, EnergyParams(p, 1e-6), NEUMANN,
                                                   CFG, seed=seed).extremal[0])
             for p in (1.5, 4.0) for seed in range(4)}
    assert set(signs.values()) == {1.0}, signs


def test_sign_normalize_violation():
    d = build_interval(19)
    with pytest.raises(SignViolationError):
        extremal_sign_normalize(np.sin(2 * np.pi * d.nodes), DIRICHLET)


def test_fractional_dense_reference_smallest_eig():
    d = build_interval(60)
    reg = BoundaryRegime.fractional(0.5)
    dref = dense_linear_reference(d, reg)
    A = operator_matrix(d, reg)
    vals = np.linalg.eigvalsh(A)
    assert dref.lam == pytest.approx(vals[0], rel=1e-12)
    eig = minimize_rayleigh(d, EnergyParams(2.0, 0.0), reg, CFG, seed=0)
    assert abs(eig.lam / dref.lam - 1.0) <= 1e-8


MATRIX_REGIMES = {
    "dirichlet": DIRICHLET,
    "robin": BoundaryRegime.robin(1.0),
    "neumann": NEUMANN,
    "fractional": BoundaryRegime.fractional(0.5),
}


def _two_squares():
    # Two 6 x 3 blocks of nodes, cut apart by an empty middle column.
    bitmap = np.ones((6, 7), dtype=bool)
    bitmap[:, 3] = False
    return build_masked(bitmap, 1.0 / 7)


@pytest.mark.parametrize("dom, regime, constants", [
    *[(build_interval(n), MATRIX_REGIMES[kind], int(kind == "neumann"))
      for kind in MATRIX_REGIMES for n in (32, 199)],
    (build_rectangle(15, 15, 1.0, 1.0), DIRICHLET, 0),
    (build_rectangle(15, 15, 1.0, 1.0), NEUMANN, 1),
    (_two_squares(), NEUMANN, 2),
], ids=[*(f"{kind}-{n}" for kind in MATRIX_REGIMES for n in (32, 199)),
        "dirichlet-15x15", "neumann-15x15", "neumann-two-components"])
def test_dense_reference_matches_the_full_spectrum(monkeypatch, dom, regime, constants):
    # The reference is numpy's whole spectrum of the same matrix: its
    # smallest eigenvalue after the constant mode of each Neumann component.
    # The anchor itself solves for the pairs it returns, not with eigh.
    def no_eigh(*args, **kwargs):
        raise AssertionError("the anchor computed the whole spectrum")

    vals = np.linalg.eigvalsh(operator_matrix(dom, regime))
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    dref = dense_linear_reference(dom, regime)
    assert np.abs(vals[:constants]).max(initial=0.0) <= 1e-10 * vals[-1]
    assert abs(dref.lam / vals[constants] - 1.0) <= 1e-11
    assert dref.residual <= 1e-10
    assert integrate_power(dom, dref.extremal, 2.0) == pytest.approx(1.0, rel=1e-14)


def test_dense_reference_dirichlet_closed_form():
    d = build_interval(199)
    h = d.hx
    lam_h = 4.0 / h**2 * np.sin(np.pi * h / 2.0) ** 2
    assert abs(dense_linear_reference(d, DIRICHLET).lam / lam_h - 1.0) <= 1e-12


def test_dense_reference_refuses_a_failed_lapack_solve(monkeypatch):
    import dnflow.oracle as oracle

    def failed(a, **kwargs):
        n = a.shape[0]
        return np.zeros(n), np.zeros((n, 1)), 0, np.zeros(2, dtype=np.int32), 1

    monkeypatch.setattr(oracle, "_lapack_banded", lambda names: (failed,))
    with pytest.raises(np.linalg.LinAlgError, match="dsyevr"):
        dense_linear_reference(build_interval(9), DIRICHLET)


@pytest.mark.parametrize("n", [32, 199])
@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0, 4.0])
@pytest.mark.parametrize("kind", list(MATRIX_REGIMES))
def test_oracle_convergence_matrix(kind, p, n):
    # The regime x p x n matrix the CLI accepts, at the CLI's defaults.
    d = build_interval(n)
    regime = MATRIX_REGIMES[kind]
    params = EnergyParams(p, 1e-6)
    for seed in (0, 1):
        eig = minimize_rayleigh(d, params, regime, CFG, seed=seed)
        assert eig.residual <= 10 * CFG.grad_tol, (seed, eig.residual)
        assert eigen_residual(d, eig.extremal, eig.lam, params, regime) <= 10 * CFG.grad_tol
        if p == 2.0:
            dref = dense_linear_reference(d, regime)
            assert abs(eig.lam / dref.lam - 1.0) <= 1e-8, seed


def _dense(lower):
    # The symmetric matrix whose lower band is lower[d, j] = K[j + d, j].
    n = lower.shape[1]
    K = np.diag(lower[0])
    for d in range(1, len(lower)):
        K += np.diag(lower[d, :n - d], -d) + np.diag(lower[d, :n - d], d)
    return K


@pytest.mark.parametrize("dom, regime, p", [
    (build_interval(32), DIRICHLET, 3.0),  # tridiagonal K
    (build_interval(32), BoundaryRegime.fractional(0.5), 3.0),  # a full band
    (build_rectangle(15, 15, 1.0, 1.0), NEUMANN, 3.0),
], ids=["dirichlet", "fractional", "neumann-2d"])
def test_bordered_solve_matches_dense_solve_near_eigenpair(dom, regime, p):
    # At the oracle's extremal the extremal is nearly a null vector of K, so
    # K is nearly singular while the bordered Jacobian is not.  Mixed block
    # elimination keeps the step accurate there; plain block elimination
    # misses this bound by about 3e4x on the Dirichlet case.  The premise is
    # asserted: at Dirichlet p = 4, n = 32 the symmetric extremal's middle
    # link has curvature about eps^(p-2), so J is near-singular too.
    params = EnergyParams(p, 1e-6)
    eig = minimize_rayleigh(dom, params, regime, CFG, seed=0)
    lower, b, c, f, g = _newton_system(dom, eig.extremal, eig.lam, params, regime)
    K = _dense(lower)
    J = np.block([[K, b[:, None]], [c[None, :], np.zeros((1, 1))]])
    assert np.linalg.cond(K) > 1e12
    assert np.linalg.cond(J) <= 1e9
    want = np.linalg.solve(J, np.append(f, g))
    x, y = _bordered_solve(lower, b, c, f, g)
    assert np.linalg.norm(np.append(x, y) - want) <= 1e-8 * np.linalg.norm(want)


def test_unfactorable_jacobian_ends_the_polish(monkeypatch):
    # With a zero Hessian and lam = 0, K is the zero matrix: its LU reports
    # a zero pivot and the polish returns the triple it was given.
    import dnflow.oracle as oracle

    d = build_interval(32)
    params = EnergyParams(4.0, 1e-6)
    u = np.sin(np.pi * d.nodes)
    monkeypatch.setattr(oracle, "energy_hessian",
                        lambda dom, u, params, regime: np.zeros((2, u.size)))
    best = (1.0, u, 0.0)
    assert _newton_polish(d, best, params, DIRICHLET, 1e-9) is best


def test_bordered_solve_refuses_a_zero_schur_complement():
    # K = I with b = e1 and c = e2: K factors, but c^T K^-1 b = 0, so the
    # bordered matrix is singular.
    lower = np.zeros((2, 4))
    lower[0] = 1.0
    e1, e2 = np.eye(4)[0], np.eye(4)[1]
    assert _bordered_solve(lower, e1, e2, np.ones(4), 1.0) is None


def test_polish_ends_when_no_damped_step_lowers_the_residual(monkeypatch):
    # Every trial of the damped update reads a residual no lower than the
    # one it started from: the polish tries the 30 halvings of its step
    # once and returns the triple it was given.
    import dnflow.oracle as oracle

    d = build_interval(32)
    params = EnergyParams(3.0, 1e-6)
    eig = minimize_rayleigh(d, params, DIRICHLET, CFG, seed=0)
    trials, residual_lam = [], oracle._residual_lam

    def no_lower(*args):
        trials.append(args[1])
        return (1.0,) + residual_lam(*args)[1:]

    monkeypatch.setattr(oracle, "_residual_lam", no_lower)
    best = (1.0, eig.extremal, eig.lam)
    assert _newton_polish(d, best, params, DIRICHLET, 1e-9) is best
    assert len(trials) == 30


def test_defect_of_a_zero_target_is_infinite():
    assert _defect(np.ones(3), np.zeros(3)) == math.inf


def test_normalize_refuses_the_zero_field():
    with pytest.raises(DegenerateInputError, match="zero field"):
        _normalize(build_interval(9), np.zeros(9), 3.0, DIRICHLET)


def _l_shape(n):
    # An n x n mask with its upper-right quarter cut away.
    bitmap = np.ones((n, n), dtype=bool)
    bitmap[n // 2:, n // 2:] = False
    return build_masked(bitmap, 1.0 / (n + 1))


@pytest.mark.parametrize("dom, regime", [
    (build_interval(32), DIRICHLET),
    (build_interval(199), BoundaryRegime.robin(1.0)),
    (build_interval(32), BoundaryRegime.fractional(0.5)),
    (build_interval(199), BoundaryRegime.fractional(0.3)),
    (build_rectangle(15, 11, 1.0, 0.7), DIRICHLET),
    (_l_shape(12), DIRICHLET),
], ids=["dirichlet", "robin", "fractional-32", "fractional-199", "rectangle", "mask"])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_start_is_a_positive_unit_field(dom, regime, p):
    # K2 is an M-matrix for every regime but Neumann, so its inverse maps
    # the positive seeded field to a strictly positive start.
    u = _start(dom, p, regime, 0, TARGET)
    assert np.all(u > 0.0)
    assert lp_norm(dom, u, p) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("dom", [build_interval(32), build_interval(199),
                                 build_rectangle(15, 11, 1.0, 0.7)],
                         ids=["n32", "n199", "rectangle"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_neumann_start_has_zero_pmean(dom, p):
    u = _start(dom, p, NEUMANN, 0, TARGET)
    assert pmean_defect(dom, u, p) <= 1e-10
    assert lp_norm(dom, u, p) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("dom, regime", [
    *((build_interval(n), regime) for regime in MATRIX_REGIMES.values() for n in (32, 199)),
    (build_rectangle(15, 11, 1.0, 0.7), DIRICHLET),
], ids=[*(f"{kind}-{n}" for kind in MATRIX_REGIMES for n in (32, 199)), "rectangle"])
def test_p2_start_is_the_answer(dom, regime):
    # At p = 2 the start's inverse power on K2 already meets the sweeps'
    # target, so no sweep runs.  At seed 5 the Neumann n = 32 start's change
    # rises for a step while the first mode overtakes the second.
    ref = dense_linear_reference(dom, regime).lam
    for seed in (0, 5):
        eig = minimize_rayleigh(dom, EnergyParams(2.0, 1e-6), regime, CFG, seed=seed)
        assert eig.iterations == 0, seed
        assert abs(eig.lam / ref - 1.0) <= 1e-8, seed


@pytest.mark.parametrize("regime", [DIRICHLET, BoundaryRegime.robin(1.0)],
                         ids=["dirichlet", "robin"])
@pytest.mark.parametrize("p", [3.0, 4.0])
def test_even_n_extremal_is_symmetric_and_seed_free(regime, p):
    # At even n the symmetric extremal's middle link is nearly flat, so the
    # sweeps barely contract an antisymmetric error.  The start from the
    # p = 2 ground state has none to begin with; a start from one p = 2
    # step of the seeded noise left up to 9e-5 of it, seed by seed.
    d = build_interval(32)
    params = EnergyParams(p, 1e-6)
    ref = None
    for seed in range(4):
        u = minimize_rayleigh(d, params, regime, CFG, seed=seed).extremal
        ref = u if ref is None else ref
        assert np.abs(u - u[::-1]).max() <= 1e-7, seed
        assert np.abs(u - ref).max() <= 1e-7, seed


@pytest.mark.parametrize("kind", list(MATRIX_REGIMES))
def test_same_seed_gives_a_bit_identical_extremal(kind):
    d = build_interval(32)
    regime = MATRIX_REGIMES[kind]
    params = EnergyParams(3.0, 1e-6)
    np.testing.assert_array_equal(_start(d, 3.0, regime, 4, TARGET),
                                  _start(d, 3.0, regime, 4, TARGET))
    a = minimize_rayleigh(d, params, regime, CFG, seed=4)
    b = minimize_rayleigh(d, params, regime, CFG, seed=4)
    assert a.lam == b.lam and a.iterations == b.iterations
    np.testing.assert_array_equal(a.extremal, b.extremal)


# Work of minimize_rayleigh over interval n in {32, 199}, the four regimes
# and p in {1.5, 3}, seed 0: the start from the p = 2 ground state takes
# 73 factorizations (its own 16 included) and 249 NCG iterations, and its
# inverse-power steps make 218 solves on the 16 K2 factors.  The start from
# one p = 2 inverse step took 138 factorizations and 394 iterations, and the
# start from the raw seeded field 224 and 609.
WORK_FACTORIZATIONS = 84
WORK_ITERATIONS = 286
WORK_START_SOLVES = 250


def test_oracle_work_from_the_p2_start(monkeypatch):
    import dnflow.elliptic as elliptic
    import dnflow.oracle as oracle

    made = []

    def record(*args, **kwargs):
        made.append(elliptic.SolveContext(*args, **kwargs))
        return made[-1]

    starts = []
    start_solves = []
    factor = elliptic._factor

    def counted(ab):
        starts.append(ab.shape)
        solve = factor(ab)
        return lambda g: start_solves.append(1) or solve(g)

    monkeypatch.setattr(oracle, "SolveContext", record)
    monkeypatch.setattr(oracle, "_factor", counted)
    for n in (32, 199):
        for regime in MATRIX_REGIMES.values():
            for p in (1.5, 3.0):
                eig = minimize_rayleigh(build_interval(n), EnergyParams(p, 1e-6), regime,
                                        CFG, seed=0)
                assert eig.residual <= 10 * CFG.grad_tol
    assert len(made) == len(starts) == 16
    factorizations = sum(c.factorizations for c in made) + len(starts)
    iterations = sum(c.iterations for c in made)
    assert factorizations <= WORK_FACTORIZATIONS, factorizations
    assert iterations <= WORK_ITERATIONS, iterations
    assert len(start_solves) <= WORK_START_SOLVES, len(start_solves)


def test_fractional_start_leaves_only_the_run_p_tables():
    # Each run leaves the domain one block, the fold, with the weight tables
    # of its own p and of K2's p = 2 and no other: the oracle (its start), a
    # march and its dual rows (the linear step, a cold row solve), a cold
    # inverse solve, and the settle march with its read-out.  A block cached
    # before the run is the one it reads.
    regime = BoundaryRegime.fractional(0.5)
    params = EnergyParams(3.0, 1e-6)
    g = np.ones(32)
    key = ("links", regime)

    def march(d):
        fill_dual_columns(d, evolve(d, g, 0.05, 5, params, regime, CFG), CFG)

    def settle(d):
        settled_read_out(d, evolve_until_settled(d, g, params, regime, CFG), CFG)

    for run in (lambda d: minimize_rayleigh(d, params, regime, CFG, seed=0), march,
                lambda d: inverse_operator(d, g, params, regime, CFG), settle):
        for before in (False, True):
            d = build_interval(32)
            if before:
                energy(d, g, EnergyParams(2.0), regime)
                fold = d._cache[key]
            run(d)
            assert set(d._cache) == {key}
            assert set(d._cache[key].weights) == {2.0, 3.0}
            if before:
                assert d._cache[key] is fold


def test_one_fold_per_domain_freed_by_reference_counting(monkeypatch):
    # A fractional p = 3 march with its dual rows, then a settle march and
    # its read-out, on one domain build one fold layout and two weight
    # tables, p = 3 and K2's p = 2.  The fold holds no reference to its
    # domain, so with the cycle collector off the domain still dies with
    # its last name.
    folds, kernels = [], []

    def counting_fold(*args, _fold=operators._fold):
        folds.append(args)
        return _fold(*args)

    def counting_kernel(dom, s, p, _build=fractional.build_kernel):
        kernels.append(p)
        return _build(dom, s, p)

    monkeypatch.setattr(operators, "_fold", counting_fold)
    monkeypatch.setattr(fractional, "build_kernel", counting_kernel)
    regime, params = BoundaryRegime.fractional(0.5), EnergyParams(3.0, 1e-6)
    d, g = build_interval(32), np.ones(32)
    fill_dual_columns(d, evolve(d, g, 0.05, 5, params, regime, CFG), CFG)
    settled_read_out(d, evolve_until_settled(d, g, params, regime, CFG), CFG)
    assert len(folds) == 1
    assert sorted(kernels) == [2.0, 3.0]
    gc.disable()
    try:
        alive = weakref.ref(d)
        del d
        assert alive() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("n, p", [(15, 2.5), (15, 3.0), (31, 1.5)])
def test_neumann_square_seeds_agree(n, p):
    # Above a residual of 1e-4 the sweeps count no stall: they may still be
    # leaving a saddle, which the polish would converge to.  Counting a stall
    # at every residual stopped seed 0 at 15^2 (p = 2.5 and 3) and seed 2 at
    # 31^2 (p = 1.5) next to saddles, 12.7%, 27.7% and 12.5% above the other
    # seeds' lambda.  15^2 at p = 4 is left out: its seeds find two distinct
    # local minima, 56.706 and 56.523.
    d = build_rectangle(n, n, 1.0, 1.0)
    lams = [minimize_rayleigh(d, EnergyParams(p, 1e-6), NEUMANN, CFG, seed=seed).lam
            for seed in (0, 1, 2)]
    assert max(lams) / min(lams) - 1.0 <= 2e-3, lams


def test_a_polish_that_raises_lambda_is_refused(monkeypatch):
    # The polish refines the sweeps' lambda; one that raised it by 1% would
    # have found a saddle, and minimize_rayleigh raises instead of returning it.
    import dnflow.oracle as oracle

    polish = oracle._newton_polish

    def rising(*args):
        res, u, lam = polish(*args)
        return res, u, 1.01 * lam

    monkeypatch.setattr(oracle, "_newton_polish", rising)
    # One sweep leaves the polish the work; at odd n it reaches the target.
    monkeypatch.setattr(oracle, "MAX_SWEEPS", 1)
    with pytest.raises(NonConvergenceError, match="saddle") as caught:
        minimize_rayleigh(build_interval(33), EnergyParams(4.0, 1e-6), DIRICHLET, CFG)
    err = caught.value
    assert (err.regime, err.p) == ("dirichlet", 4.0)
    assert err.residual <= 3 * CFG.grad_tol


def test_sign_normalize_refuses_the_zero_field():
    with pytest.raises(DegenerateInputError):
        extremal_sign_normalize(np.zeros(5), DIRICHLET)
