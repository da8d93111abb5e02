import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from dnflow import operators
from dnflow.domain import build_interval, build_masked, build_rectangle
from dnflow.errors import UnsupportedRegimeError
from dnflow.operators import (
    BoundaryRegime,
    EnergyParams,
    energy,
    energy_and_gradient,
    energy_gradient,
    energy_hessian,
    jp,
    trace_lp,
)

DIRICHLET = BoundaryRegime.dirichlet()
NEUMANN = BoundaryRegime.neumann()


def central_diff_gradient(dom, u, params, regime, delta=None):
    """Independent oracle: central finite differences of the energy."""
    if delta is None:
        delta = 3e-6 * max(1.0, float(np.max(np.abs(u))))
    fd = np.empty_like(u)
    for i in range(u.size):
        up = u.copy()
        up[i] += delta
        dn = u.copy()
        dn[i] -= delta
        fd[i] = (energy(dom, up, params, regime)
                 - energy(dom, dn, params, regime)) / (2 * delta)
    return fd / dom.cell_volume


# --- jp -------------------------------------------------------------------

def test_jp_values():
    assert jp(2.0, 3.0) == pytest.approx(4.0)
    assert jp(0.0, 1.5) == 0.0
    assert jp(-2.0, 3.0) == pytest.approx(-4.0)


@given(z=st.floats(-1e6, 1e6, allow_nan=False),
       p=st.floats(1.1, 5.0))
@settings(max_examples=200, deadline=None)
def test_jp_odd_and_monotone(z, p):
    assert jp(-z, p) == pytest.approx(-jp(z, p), abs=1e-300)
    assert jp(z + 1.0, p) > jp(z, p)


# --- params/regime validation ---------------------------------------------

def test_params_conjugate_exponent():
    for p in (1.5, 2.0, 3.0, 4.7):
        params = EnergyParams(p, 1e-6)
        assert abs(1.0 / params.p + 1.0 / params.q - 1.0) <= 1e-15


def test_params_epsilon_zero_needs_p_ge_2():
    EnergyParams(2.0, 0.0)
    with pytest.raises(ValueError):
        EnergyParams(1.5, 0.0)


def test_regime_validation():
    with pytest.raises(ValueError):
        BoundaryRegime.robin(0.0)
    with pytest.raises(ValueError):
        BoundaryRegime.fractional(1.0)
    d = build_masked(np.ones((4, 4), dtype=bool), 0.2)
    with pytest.raises(UnsupportedRegimeError):
        energy(d, np.ones(16), EnergyParams(2.0), BoundaryRegime.robin(1.0))
    with pytest.raises(UnsupportedRegimeError):
        energy(build_rectangle(3, 3, 1, 1), np.ones(9), EnergyParams(2.0),
               BoundaryRegime.fractional(0.5))


# --- energy ----------------------------------------------------------------

def test_energy_ramp_hand_sum():
    # n=3, h=1/4, u = x on the nodes; forward differences: 1, 1, 1, -3.
    # E = (h/2) * (1 + 1 + 1 + 9) = 1.5
    d = build_interval(3)
    u = d.nodes.copy()
    val = energy(d, u, EnergyParams(2.0, 0.0), DIRICHLET)
    assert val == pytest.approx((0.25 / 2) * 12, rel=1e-14)
    assert val == pytest.approx(1.5)


def test_energy_zero_everywhere():
    params = EnergyParams(2.5, 1e-6)
    for dom, regime in [
        (build_interval(9), DIRICHLET),
        (build_interval(9), NEUMANN),
        (build_interval(9), BoundaryRegime.robin(1.0)),
        (build_interval(9), BoundaryRegime.fractional(0.5)),
        (build_rectangle(4, 5, 1, 1), DIRICHLET),
        (build_rectangle(4, 5, 1, 1), BoundaryRegime.robin(2.0)),
        (build_masked(np.ones((4, 4), dtype=bool), 0.2), NEUMANN),
    ]:
        assert energy(dom, np.zeros(dom.n_nodes), params, regime) == 0.0


def test_energy_homogeneity_eps0():
    d = build_interval(17)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(17)
    for p in (2.0, 3.0, 2.5):
        params = EnergyParams(p, 0.0)
        for regime in (DIRICHLET, NEUMANN, BoundaryRegime.robin(1.5),
                       BoundaryRegime.fractional(0.4)):
            e1 = energy(d, u, params, regime)
            e2 = energy(d, 3.7 * u, params, regime)
            assert e2 == pytest.approx(3.7**p * e1, rel=1e-10)


def test_energy_convexity_sampled():
    d = build_rectangle(4, 4, 1, 1)
    rng = np.random.default_rng(2)
    params = EnergyParams(2.5, 1e-6)
    for _ in range(25):
        u = rng.standard_normal(16)
        v = rng.standard_normal(16)
        th = rng.uniform()
        lhs = energy(d, th * u + (1 - th) * v, params, DIRICHLET)
        rhs = th * energy(d, u, params, DIRICHLET) + (1 - th) * energy(d, v, params, DIRICHLET)
        assert lhs <= rhs + 1e-12 * max(1.0, abs(rhs))


def test_neumann_translation_invariance():
    rng = np.random.default_rng(3)
    for dom in (build_interval(11), build_rectangle(4, 5, 1, 1),
                build_masked(np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool), 0.2)):
        u = rng.standard_normal(dom.n_nodes)
        params = EnergyParams(2.5, 1e-8)
        e0 = energy(dom, u, params, NEUMANN)
        assert energy(dom, u + 17.3, params, NEUMANN) == pytest.approx(e0, rel=1e-12)
        g = energy_gradient(dom, u, params, NEUMANN)
        total = dom.cell_volume * g.sum()
        assert abs(total) <= 1e-12 * dom.cell_volume * np.abs(g).sum() + 1e-15


def test_gradient_zero_field():
    params = EnergyParams(2.5, 1e-6)
    for dom, regime in [
        (build_interval(9), DIRICHLET),
        (build_interval(9), BoundaryRegime.robin(1.0)),
        (build_interval(9), BoundaryRegime.fractional(0.5)),
        (build_rectangle(4, 4, 1, 1), NEUMANN),
    ]:
        g = energy_gradient(dom, np.zeros(dom.n_nodes), params, regime)
        assert np.all(g == 0.0)


def test_dirichlet_sine_eigenrelation():
    # Discrete sine mode is an exact eigenvector of the p=2 operator.
    d = build_interval(49)
    h = d.hx
    u = np.sin(np.pi * d.nodes)
    lam = 2.0 / h**2 * (1.0 - np.cos(np.pi * h))
    g = energy_gradient(d, u, EnergyParams(2.0, 0.0), DIRICHLET)
    assert np.linalg.norm(g - lam * u) / np.linalg.norm(lam * u) <= 1e-12


def test_gradient_vs_central_differences_all_regimes():
    rng = np.random.default_rng(4)
    cases = [
        (build_interval(13), DIRICHLET),
        (build_interval(13), NEUMANN),
        (build_interval(13), BoundaryRegime.robin(0.7)),
        (build_interval(13), BoundaryRegime.fractional(0.6)),
        (build_rectangle(4, 5, 1.0, 1.3), DIRICHLET),
        (build_rectangle(4, 5, 1.0, 1.3), NEUMANN),
        (build_rectangle(4, 5, 1.0, 1.3), BoundaryRegime.robin(1.2)),
        (build_masked(np.array([[1, 1, 0], [1, 1, 1], [1, 1, 1]], dtype=bool), 0.25), DIRICHLET),
        (build_masked(np.array([[1, 1, 0], [1, 1, 1], [1, 1, 1]], dtype=bool), 0.25), NEUMANN),
    ]
    for dom, regime in cases:
        for p in (1.5, 2.0, 2.5, 3.0):
            params = EnergyParams(p, 1e-6)
            u = rng.standard_normal(dom.n_nodes)
            g = energy_gradient(dom, u, params, regime)
            fd = central_diff_gradient(dom, u, params, regime)
            err = np.linalg.norm(g - fd) / np.linalg.norm(fd)
            assert err <= 1e-6, (dom.kind, regime.kind, p, err)


def test_gradient_fd_across_epsilon_range():
    # The FD agreement must hold for any eps >= 1e-8, not just the default.
    d = build_interval(11)
    rng = np.random.default_rng(10)
    u = rng.standard_normal(11)
    for eps in (1e-8, 1e-6, 1e-4, 1e-2):
        for p in (1.5, 3.0):
            params = EnergyParams(p, eps)
            g = energy_gradient(d, u, params, DIRICHLET)
            fd = central_diff_gradient(d, u, params, DIRICHLET)
            assert np.linalg.norm(g - fd) / np.linalg.norm(fd) <= 1e-6


def test_masked_full_bitmap_same_energy_as_rectangle():
    # Full-mask and rectangle domains must agree through their separate
    # 2-D code paths (scatter vs reshape), for both regime families.
    rect = build_rectangle(5, 4, 1.2, 1.0)  # hx = hy = 0.2 up to rounding
    assert abs(rect.hx / rect.hy - 1.0) < 1e-14
    mask = build_masked(np.ones((4, 5), dtype=bool), rect.hx)
    np.testing.assert_allclose(mask.nodes, rect.nodes, rtol=1e-13)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(20)
    for p in (1.5, 2.0, 3.0):
        params = EnergyParams(p, 1e-6)
        for regime in (DIRICHLET, NEUMANN):
            e_r = energy(rect, u, params, regime)
            e_m = energy(mask, u, params, regime)
            assert e_m == pytest.approx(e_r, rel=1e-14)
            g_r = energy_gradient(rect, u, params, regime)
            g_m = energy_gradient(mask, u, params, regime)
            np.testing.assert_allclose(g_m, g_r, rtol=1e-12,
                                       atol=1e-12 * np.abs(g_r).max())


def test_fractional_spike_energy():
    # Unit spike: only pairs with the spike node and its exterior term count.
    d = build_interval(3)
    s, p = 0.5, 2.0
    u = np.array([0.0, 1.0, 0.0])
    # Independent double-loop oracle over ordered pairs.
    x, h = d.nodes, d.hx
    pair = 0.0
    for i in range(3):
        for j in range(3):
            if i != j:
                pair += h * h * abs(u[i] - u[j])**p / abs(x[i] - x[j])**(1 + p * s)
    kappa = (x**(-p * s) + (1 - x)**(-p * s)) / (p * s)
    ext = 2 * h * float(np.sum(kappa * np.abs(u)**p))
    oracle = (pair + ext) / p
    val = energy(d, u, EnergyParams(p, 0.0), BoundaryRegime.fractional(s))
    assert val == pytest.approx(oracle, rel=1e-14)
    assert val == pytest.approx(3.0)  # hand arithmetic for n=3, s=1/2


def test_fractional_reflection_invariance():
    d = build_interval(16)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(16)
    params = EnergyParams(2.5, 1e-6)
    reg = BoundaryRegime.fractional(0.3)
    assert energy(d, u[::-1].copy(), params, reg) == pytest.approx(
        energy(d, u, params, reg), rel=1e-12)


def test_energy_matches_serial_loop():
    # Deterministic reduction: vectorized 1-D energy equals an index-order
    # loop over the Dirichlet cells (exterior zeros at both ends), the n - 1
    # Neumann links, and those links plus the Robin trace term.
    d = build_interval(11)
    rng = np.random.default_rng(6)
    u = rng.standard_normal(11)
    p, eps, beta = 2.5, 1e-6, 0.7

    def power(gsq):
        return (gsq + eps * eps) ** (p / 2) - eps**p

    padded = np.concatenate([[0.0], u, [0.0]])
    cells = {"dirichlet": [padded[c + 1] - padded[c] for c in range(12)],
             "neumann": [u[c + 1] - u[c] for c in range(10)]}
    cells["robin"] = cells["neumann"]
    for regime in (DIRICHLET, NEUMANN, BoundaryRegime.robin(beta)):
        total = 0.0
        for diff in cells[regime.kind]:
            total += d.hx / p * power((diff / d.hx) ** 2)
        if regime.kind == "robin":
            for ub in (u[0], u[-1]):
                total += beta / p * power(ub * ub)
        val = energy(d, u, EnergyParams(p, eps), regime)
        assert val == pytest.approx(total, rel=1e-13), regime.kind


def _serial_energy_2d(dom, u, p, eps, dirichlet):
    # Independent per-cell loop over the 2-D layout: Dirichlet cells run
    # from one node before the grid to its last node on each axis (exterior
    # zeros); Neumann cells sit at the nodes, and a difference to a node
    # off the grid or off the mask counts as zero.
    ny, nx = dom.shape
    on = dom.mask if dom.mask is not None else np.ones((ny, nx), dtype=bool)
    vals = np.zeros((ny, nx))
    vals[on] = u

    def value(i, j):
        inside = 0 <= i < ny and 0 <= j < nx
        return vals[i, j] if inside else 0.0

    def diff(i, j, di, dj):
        a, b = (i, j), (i + di, j + dj)
        if not dirichlet:
            for r, c in (a, b):
                if not (0 <= r < ny and 0 <= c < nx and on[r, c]):
                    return 0.0
        return value(*b) - value(*a)

    lo = -1 if dirichlet else 0
    total = 0.0
    for i in range(lo, ny):
        for j in range(lo, nx):
            gsq = (diff(i, j, 0, 1) / dom.hx) ** 2 + (diff(i, j, 1, 0) / dom.hy) ** 2
            total += dom.cell_volume / p * ((gsq + eps * eps) ** (p / 2) - eps**p)
    return total


def test_energy_matches_serial_loop_2d():
    # Pins the 2-D cell layout: the anchored Dirichlet cells and the
    # Neumann cells of the last row, last column and corner.
    rng = np.random.default_rng(12)
    p, eps = 2.5, 1e-6
    bitmap = np.array([[0, 1, 1, 1, 0], [1, 1, 1, 1, 1], [1, 1, 0, 1, 1],
                       [0, 1, 1, 1, 1]], dtype=bool)
    for dom in (build_rectangle(6, 4, 1.0, 0.7), build_masked(bitmap, 0.15)):
        u = rng.standard_normal(dom.n_nodes)
        for regime in (DIRICHLET, NEUMANN):
            total = _serial_energy_2d(dom, u, p, eps, regime is DIRICHLET)
            val = energy(dom, u, EnergyParams(p, eps), regime)
            assert val == pytest.approx(total, rel=1e-13), (dom.kind, regime.kind)


# --- hessian ----------------------------------------------------------------

def band_to_dense(ab):
    n = ab.shape[1]
    H = np.zeros((n, n))
    for d in range(ab.shape[0]):
        j = np.arange(n - d)
        H[j + d, j] = H[j, j + d] = ab[d, :n - d]
    return H


def gradient_differences(dom, u, params, regime, delta=1e-6):
    """Independent oracle: central differences of the raw gradient."""
    cols = []
    for i in range(u.size):
        e = np.zeros_like(u)
        e[i] = delta
        cols.append((energy_and_gradient(dom, u + e, params, regime)[1]
                     - energy_and_gradient(dom, u - e, params, regime)[1]) / (2 * delta))
    return np.column_stack(cols)


def test_energy_hessian_matches_gradient_differences():
    # Exact in every layout: tridiagonal and fractional bands in 1-D, and in
    # 2-D the difference links plus each cell's E-N link for the g_x g_y
    # term, on a rectangle and on masks.  In the last mask the Dirichlet cell
    # at the off-mask corner couples E and N, two nodes further apart than
    # any difference link, so that link alone sets the band's width; under
    # Neumann that cell is dead and the mask falls in two pieces.
    rng = np.random.default_rng(13)
    robin = BoundaryRegime.robin(0.7)
    line = build_interval(13)
    rect = build_rectangle(6, 4, 1.0, 0.7)
    mask = build_masked(np.array([[0, 1, 1, 1, 0], [1, 1, 1, 1, 1], [1, 1, 0, 1, 1],
                                  [0, 1, 1, 1, 1]], dtype=bool), 0.15)
    corner = build_masked(np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=bool), 0.25)
    cases = [(line, regime) for regime in (DIRICHLET, NEUMANN, robin,
                                           BoundaryRegime.fractional(0.6))]
    cases += [(rect, DIRICHLET), (rect, NEUMANN), (rect, robin), (mask, DIRICHLET),
              (mask, NEUMANN), (corner, DIRICHLET), (corner, NEUMANN)]
    for dom, regime in cases:
        for p in (1.5, 2.0, 3.0):
            params = EnergyParams(p, 1e-6)
            u = rng.standard_normal(dom.n_nodes)
            H = band_to_dense(energy_hessian(dom, u, params, regime))
            fd = gradient_differences(dom, u, params, regime)
            err = np.linalg.norm(H - fd) / np.linalg.norm(fd)
            assert err <= 1e-6, (dom.kind, regime.kind, p, err)
            if dom is line:
                continue
            # 2-D: at p = 2 there is no g_x g_y term and the band is exact to
            # rounding; at every p the cross-term links, some with negative
            # weight, must leave the matrix SPD for Cholesky.
            if p == 2.0:
                assert err <= 1e-8, (dom.kind, regime.kind, err)
            if regime is NEUMANN:  # singular on the constants of each piece only
                piece = connected_components(fd != 0)[1]
                H += piece[:, None] == piece
            assert np.linalg.eigvalsh(H).min() > 0, (dom.kind, regime.kind, p)
    # Band widths: nx + 1 on the rectangle, where the E-N links sit at
    # offset nx - 1; 3 on the corner mask, whose difference links need 2.
    assert [len(energy_hessian(dom, np.ones(dom.n_nodes), params, DIRICHLET))
            for dom in (rect, corner)] == [7, 3]


def test_cell_table_built_once_per_family(monkeypatch):
    # Repeated energy, gradient and Hessian calls on one domain, over every
    # local regime and several p and eps, build one cell table for the
    # Dirichlet family and one for Neumann and Robin, and no more.
    builds = []
    build = operators._build_cells

    def counting_build(dom, dirichlet):
        builds.append(dirichlet)
        return build(dom, dirichlet)

    monkeypatch.setattr(operators, "_build_cells", counting_build)
    rng = np.random.default_rng(14)
    bitmap = np.array([[0, 1, 1, 1], [1, 1, 0, 1], [1, 1, 1, 1]], dtype=bool)
    for dom in (build_interval(9), build_rectangle(5, 4, 1.0, 0.8), build_masked(bitmap, 0.2)):
        regimes = [DIRICHLET, NEUMANN]
        if dom.kind != "masked":
            regimes.append(BoundaryRegime.robin(0.7))
        for _ in range(2):
            for regime in regimes:
                for params in (EnergyParams(1.5, 1e-6), EnergyParams(3.0, 0.0)):
                    u = rng.standard_normal(dom.n_nodes)
                    energy_and_gradient(dom, u, params, regime)
                    energy_hessian(dom, u, params, regime)
        assert builds == [True, False], dom.kind
        builds.clear()


# --- trace ------------------------------------------------------------------

def test_trace_constant_unit_square():
    d = build_rectangle(5, 5, 1.0, 1.0)
    assert trace_lp(d, np.ones(25), 2.0) == pytest.approx(4.0, rel=1e-12)


def test_trace_zero():
    d = build_rectangle(5, 5, 1.0, 1.0)
    assert trace_lp(d, np.zeros(25), 3.0) == 0.0


def test_trace_interval_two_point():
    d = build_interval(9)
    u = np.zeros(9)
    u[0], u[-1] = -1.5, 2.0  # boundary samples a, b
    p = 2.5
    assert trace_lp(d, u, p) == pytest.approx(1.5**p + 2.0**p, rel=1e-14)


def test_trace_masked_rejected():
    d = build_masked(np.ones((4, 4), dtype=bool), 0.2)
    with pytest.raises(UnsupportedRegimeError):
        trace_lp(d, np.ones(16), 2.0)
