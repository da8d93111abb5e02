import numpy as np
import pytest

from dnflow.domain import build_interval, build_rectangle
from dnflow.errors import UnsupportedRegimeError
from dnflow.fractional import build_kernel
from dnflow.operators import (
    BoundaryRegime,
    EnergyParams,
    energy,
    energy_and_gradient,
    energy_gradient,
    energy_hessian,
)
from dnflow.oracle import operator_matrix


def test_kernel_table_hand_check():
    # n=3, h=1/4, s=1/2, p=2: 1+ps = 2, so w_d = h^2/(d h)^2 = 1/d^2.
    d = build_interval(3)
    ker = build_kernel(d, 0.5, 2.0)
    h = 0.25
    np.testing.assert_allclose(ker.offsets, [h**2 / 0.25**2, h**2 / 0.5**2], rtol=1e-14)


def test_kernel_symmetry_and_positivity():
    # One weight per offset makes the pair weights symmetric by
    # construction; they fall with the distance, and the exterior tail is
    # reflection symmetric.
    d = build_interval(20)
    ker = build_kernel(d, 0.37, 2.6)
    assert ker.offsets.shape == (19,)
    assert np.all(ker.offsets > 0)
    assert np.all(np.diff(ker.offsets) < 0)
    assert np.all(ker.exterior > 0)
    np.testing.assert_allclose(ker.exterior, ker.exterior[::-1], rtol=1e-12)


def test_kernel_exterior_midpoint():
    # kappa at x=1/2 has the closed form 2 * (1/2)^(-ps) / (ps).
    d = build_interval(9)   # node index 4 sits at x = 0.5
    s, p = 0.45, 2.2
    ker = build_kernel(d, s, p)
    ps = p * s
    assert ker.exterior[4] == pytest.approx(2 * 0.5 ** (-ps) / ps, rel=1e-14)


def test_kernel_rescaling_with_n():
    # Doubling the resolution re-evaluates the same closed form.
    s, p = 0.5, 2.0
    for n in (10, 20):
        d = build_interval(n)
        ker = build_kernel(d, s, p)
        x, h = d.nodes, d.hx
        i, j = 1, n - 2
        assert ker.offsets[j - i - 1] == pytest.approx(
            h * h / abs(x[i] - x[j]) ** (1 + p * s), rel=1e-14)


def test_kernel_rejects_non_interval():
    with pytest.raises(UnsupportedRegimeError):
        build_kernel(build_rectangle(3, 3, 1, 1), 0.5, 2.0)


def test_fractional_energy_matches_matrix_form():
    # p=2: energy(u) = (vol/2) u^T A u with the dense reference matrix.
    d = build_interval(40)
    reg = BoundaryRegime.fractional(0.5)
    A = operator_matrix(d, reg)
    M = d.cell_volume * A  # quadratic-form matrix: energy = (1/2) u^T M u
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = rng.standard_normal(40)
        e_direct = energy(d, u, EnergyParams(2.0, 0.0), reg)
        e_matrix = 0.5 * float(u @ (M @ u))
        assert abs(e_direct - e_matrix) <= 1e-12 * max(1.0, abs(e_matrix))


def test_fractional_gradient_fd():
    d = build_interval(64)
    reg = BoundaryRegime.fractional(0.6)
    params = EnergyParams(2.5, 1e-6)
    rng = np.random.default_rng(8)
    u = rng.standard_normal(64)
    g = energy_gradient(d, u, params, reg)
    delta = 3e-6
    fd = np.empty_like(u)
    for i in range(64):
        up = u.copy(); up[i] += delta
        dn = u.copy(); dn[i] -= delta
        fd[i] = (energy(d, up, params, reg) - energy(d, dn, params, reg)) / (2 * delta)
    fd /= d.cell_volume
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) <= 1e-6


def double_loop(d, u, p, s, eps):
    """Energy, raw gradient and dense Hessian of fractional.py's formula by a
    plain loop over ordered pairs i != j, each pair weighted
    h^2 / |x_i - x_j|^(1+ps), plus the exterior term 2 h kappa_i."""
    x, h, u = d.nodes.tolist(), d.hx, u.tolist()
    n, ps = len(x), p * s

    def terms(z, w):
        # w f(z) / p, its first and its second derivative, for
        # f(z) = (z^2 + eps^2)^(p/2) - eps^p.
        base = z * z + eps * eps
        m = base ** ((p - 2) / 2)
        return w * (base ** (p / 2) - eps**p) / p, w * m * z, w * m * (1 + (p - 2) * z * z / base)

    e_ref, g_ref, H_ref = 0.0, [0.0] * n, np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                e, g, c = terms(u[i] - u[j], h * h / abs(x[i] - x[j]) ** (1 + ps))
                e_ref += e
                g_ref[i] += g
                g_ref[j] -= g
                H_ref[i, i] += c
                H_ref[j, j] += c
                H_ref[i, j] -= c
                H_ref[j, i] -= c
        kappa = (x[i] ** -ps + (1 - x[i]) ** -ps) / ps
        e, g, c = terms(u[i], 2 * h * kappa)
        e_ref += e
        g_ref[i] += g
        H_ref[i, i] += c
    return e_ref, np.array(g_ref), H_ref


def assert_matches_double_loop(n, p, s, eps, seed):
    d = build_interval(n)
    u = np.random.default_rng(seed).standard_normal(n)
    params, reg = EnergyParams(p, eps), BoundaryRegime.fractional(s)
    e_ref, g_ref, H_ref = double_loop(d, u, p, s, eps)
    e_val, raw = energy_and_gradient(d, u, params, reg)
    assert e_val == pytest.approx(e_ref, rel=1e-13)
    assert energy(d, u, params, reg) == e_val
    assert np.max(np.abs(raw - g_ref)) <= 1e-13 * np.max(np.abs(g_ref))
    ab = energy_hessian(d, u, params, reg)
    assert ab.shape == (n, n)
    H = np.zeros((n, n))
    for k in range(n):
        H[np.arange(k, n), np.arange(n - k)] = H[np.arange(n - k), np.arange(k, n)] = ab[k, :n - k]
    assert np.max(np.abs(H - H_ref)) <= 1e-13 * np.max(np.abs(H_ref))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_link_form_matches_double_loop(p):
    assert_matches_double_loop(7, p, 0.4, 1e-3, 9)


@pytest.mark.parametrize("s", [0.3, 0.5])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("n", [3, 4, 31, 32, 199])
def test_fold_matches_double_loop(n, p, s):
    # The fold reads each unordered pair once; an even n has the offset
    # n / 2 column, whose pairs it holds twice, so a pair counted twice or
    # missed shows in every quantity.
    assert_matches_double_loop(n, p, s, 1e-3, n)
