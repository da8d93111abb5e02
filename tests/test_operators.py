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


def _serial_1d(dom, u, p, eps, regime):
    # Independent index-order loop over the 1-D cells: the Dirichlet cells
    # (exterior zeros at both ends), the n - 1 Neumann links, and those
    # links plus the Robin trace term.  A cell's flux m g enters its head
    # node and leaves its tail, each node's sum starting at 0.0; its
    # curvature k adds to both nodes' diagonal and -k between them.
    # Returns (energy, raw partials, diagonal, subdiagonal) in floats.
    n, h = u.size, dom.hx
    padded = [0.0] + [float(v) for v in u] + [0.0]
    # (head, tail, difference, length, flux coefficient, energy scale);
    # node -1 or n is exterior.
    cells = []
    first, last = (0, n + 1) if regime.kind == "dirichlet" else (1, n)
    for c in range(first, last):
        cells.append((c, c - 1, padded[c + 1] - padded[c], h, 1.0, h))
    if regime.kind == "robin":
        beta = regime.beta
        cells += [(0, -1, padded[1], 1.0, beta, beta), (n - 1, n, padded[n], 1.0, beta, beta)]
    energy, raw, diag, sub = 0.0, [0.0] * n, [0.0] * n, [0.0] * n
    for head, tail, diff, length, coef, scale in cells:
        g = diff / length
        base = g * g + eps * eps
        m = base ** ((p - 2) / 2)  # 0 ** 0 = 1 at p = 2, 0 ** a = 0 for p > 2
        energy += scale / p * (m * base - (eps * eps) ** ((p - 2) / 2) * (eps * eps))
        k = coef * (m * (1 + (p - 2) * g * g / base) if base > 0 else m) / length
        for node, sign in ((head, 1.0), (tail, -1.0)):
            if 0 <= node < n:
                raw[node] += sign * coef * m * g
                diag[node] += k
        if 0 <= tail < n and 0 <= head < n:
            sub[tail] = -k
    return energy, np.array(raw), np.array(diag), np.array(sub)


def _assert_matches_loop(got, want):
    # Within rounding, and every exact zero of the loop an exact zero with
    # its sign.
    scale = max(float(np.abs(want).max()), np.finfo(float).tiny)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * scale)
    zero = want == 0.0
    assert np.all(got[zero] == 0.0)
    assert np.array_equal(np.signbit(got[zero]), np.signbit(want[zero]))


def test_energy_matches_serial_loop():
    # Deterministic reduction: the vectorized 1-D energy, raw partials and
    # Hessian band equal an index-order loop over the cells, at n = 3 and
    # 11, on random data, exact zeros of either sign and constant fields.
    beta = 0.7
    rng = np.random.default_rng(6)
    for n in (3, 11):
        d = build_interval(n)
        mixed = rng.standard_normal(n)
        mixed[::2], mixed[1::3] = 0.0, -0.0
        fields = (rng.standard_normal(n), np.zeros(n), -np.zeros(n), np.ones(n),
                  np.full(n, -2.5), mixed)
        for p, eps in ((2.5, 1e-6), (1.5, 1e-6), (2.0, 0.0), (3.0, 0.0)):
            for regime in (DIRICHLET, NEUMANN, BoundaryRegime.robin(beta)):
                for u in fields:
                    params, where = EnergyParams(p, eps), (n, p, eps, regime.kind, u)
                    e_loop, raw_loop, diag_loop, sub_loop = _serial_1d(d, u, p, eps, regime)
                    e_val, raw = energy_and_gradient(d, u, params, regime)
                    assert e_val == pytest.approx(e_loop, rel=1e-13, abs=1e-300), where
                    _assert_matches_loop(raw, raw_loop)
                    ab = energy_hessian(d, u, params, regime)
                    assert ab.shape == (2, n), where
                    _assert_matches_loop(ab[0], diag_loop)
                    _assert_matches_loop(ab[1], sub_loop)


def _serial_2d(dom, u, p, eps, regime):
    # Independent per-cell loop over the 2-D layout: Dirichlet cells run
    # from one node before the grid to its last node on each axis (exterior
    # zeros); Neumann and Robin cells sit at the nodes, and a difference to
    # a node off the grid or off the mask counts as zero.  Robin adds, per
    # boundary element of the domain, (beta/p) w |u_node|^p smoothed.  A
    # difference's flux (vol / h) m g enters its head node and leaves its
    # tail, each node's sum starting at 0.0.  Returns (energy, raw partials).
    ny, nx = dom.shape
    on = dom.mask if dom.mask is not None else np.ones((ny, nx), dtype=bool)
    node = np.full((ny, nx), -1)
    node[on] = np.arange(dom.n_nodes)
    dirichlet = regime.kind == "dirichlet"

    def at(i, j):
        # The node at grid point (i, j), or -1 off the grid or the mask.
        return int(node[i, j]) if 0 <= i < ny and 0 <= j < nx else -1

    def value(k):
        return float(u[k]) if k >= 0 else 0.0

    def smoothed(gsq):
        # (cell power minus its value at 0, multiplier m) as in the energy.
        base = gsq + eps * eps
        m = base ** ((p - 2) / 2)  # 0 ** 0 = 1 at p = 2, 0 ** a = 0 for p > 2
        return m * base - (eps * eps) ** ((p - 2) / 2) * (eps * eps), m

    energy, raw = 0.0, [0.0] * dom.n_nodes
    lo = -1 if dirichlet else 0
    for i in range(lo, ny):
        for j in range(lo, nx):
            diffs = []  # (head, tail, difference, length)
            for di, dj, length in ((0, 1, dom.hx), (1, 0, dom.hy)):
                tail, head = at(i, j), at(i + di, j + dj)
                if dirichlet or (tail >= 0 and head >= 0):
                    diffs.append((head, tail, (value(head) - value(tail)) / length, length))
            cell, m = smoothed(sum(g * g for _, _, g, _ in diffs))
            energy += dom.cell_volume / p * cell
            for head, tail, g, length in diffs:
                for k, sign in ((head, 1.0), (tail, -1.0)):
                    if k >= 0:
                        raw[k] += sign * (dom.cell_volume / length) * m * g
    if regime.kind == "robin":
        for k, w in zip(dom.trace_index, dom.trace_weight):
            cell, m = smoothed(value(k) ** 2)
            energy += regime.beta / p * w * cell
            raw[k] += regime.beta * w * m * value(k)
    return energy, np.array(raw)


def test_energy_matches_serial_loop_2d():
    # Pins the 2-D cell layout: the anchored Dirichlet cells, the Neumann
    # cells of the last row, last column and corner, and the Robin trace on
    # the Neumann cells; the energy and the raw partials, on random data,
    # exact zeros of either sign and constant fields.
    rng = np.random.default_rng(12)
    bitmap = np.array([[0, 1, 1, 1, 0], [1, 1, 1, 1, 1], [1, 1, 0, 1, 1],
                       [0, 1, 1, 1, 1]], dtype=bool)
    for dom in (build_rectangle(6, 4, 1.0, 0.7), build_masked(bitmap, 0.15)):
        n = dom.n_nodes
        mixed = rng.standard_normal(n)
        mixed[::2], mixed[1::3] = 0.0, -0.0
        fields = (rng.standard_normal(n), np.zeros(n), -np.zeros(n), np.full(n, -2.5), mixed)
        regimes = [DIRICHLET, NEUMANN]
        if dom.kind != "masked":
            regimes.append(BoundaryRegime.robin(0.7))
        for p, eps in ((2.5, 1e-6), (1.5, 1e-6), (2.0, 0.0), (3.0, 0.0)):
            for regime in regimes:
                for u in fields:
                    e_loop, raw_loop = _serial_2d(dom, u, p, eps, regime)
                    e_val, raw = energy_and_gradient(dom, u, EnergyParams(p, eps), regime)
                    where = (dom.kind, regime.kind, p, eps, u)
                    assert e_val == pytest.approx(e_loop, rel=1e-13, abs=1e-300), where
                    _assert_matches_loop(raw, raw_loop)


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
    # local regime and several p and eps, build one block per family and no
    # more: on an interval the Dirichlet and the Neumann line block, in 2-D
    # one cell table for Dirichlet and one for Neumann; Robin's block holds
    # the cached Neumann block in both.
    builds = []
    for name in ("_build_cells", "_line"):
        def counting_build(dom, family, _build=getattr(operators, name)):
            builds.append(family if isinstance(family, bool) else family.kind)
            return _build(dom, family)

        monkeypatch.setattr(operators, name, counting_build)
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
        if dom.dimension == 1:
            assert builds == ["dirichlet", "neumann"]
        else:
            assert builds == [True, False], dom.kind
        if dom.kind != "masked":
            for p in (1.5, 3.0):
                robin = operators._links(dom, BoundaryRegime.robin(0.7), p)
                assert robin.base is operators._links(dom, NEUMANN, p)
        builds.clear()


@pytest.mark.parametrize("dom", [build_interval(3), build_interval(4), build_interval(32),
                                 build_rectangle(5, 4, 1.0, 0.8)], ids=lambda d: str(d.shape))
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_robin_is_neumann_plus_the_trace(dom, p):
    # Robin adds the trace links to the Neumann block and nothing else: its
    # raw partials match Neumann's bit for bit off the trace nodes, its
    # energy is Neumann's plus (beta/p) sum w ((u_b^2 + eps^2)^(p/2) -
    # eps^p), and its Hessian band differs only on the trace nodes' diagonal.
    # The energy is checked to 1e-13 of itself: at n = 32 the links' energy
    # is 6e5 times the trace's, so their difference carries the rounding of
    # the sum, one ulp of which is 9e-11 of the trace.
    beta, u = 0.7, np.random.default_rng(16).standard_normal(dom.n_nodes)
    robin = BoundaryRegime.robin(beta)
    inner = np.setdiff1d(np.arange(dom.n_nodes), dom.trace_index)
    for eps in (1e-6, 0.0) if p >= 2 else (1e-6,):
        params = EnergyParams(p, eps)
        e_n, raw_n = energy_and_gradient(dom, u, params, NEUMANN)
        e_r, raw_r = energy_and_gradient(dom, u, params, robin)
        assert raw_r[inner].tobytes() == raw_n[inner].tobytes()
        ub = u[dom.trace_index]
        trace = beta / p * np.sum(dom.trace_weight * ((ub * ub + eps * eps) ** (p / 2) - eps ** p))
        assert e_r == pytest.approx(e_n + trace, rel=1e-13)
        band_n, band_r = energy_hessian(dom, u, params, NEUMANN), energy_hessian(dom, u, params, robin)
        assert np.array_equal(band_r[1:], band_n[1:])
        assert np.array_equal(band_r[0, inner], band_n[0, inner])
        assert np.all(band_r[0, dom.trace_index] > band_n[0, dom.trace_index])


def _assert_results_survive(dom, params, regime, later):
    # A result is never a cached work buffer, nor a view of one: calls on
    # other data under each regime of later leave it as it was, and a call
    # on the first data again reproduces it bit for bit.
    u1, u2 = np.random.default_rng(15).standard_normal((2, dom.n_nodes))
    e1, raw1 = energy_and_gradient(dom, u1, params, regime)
    grad1, ab1 = energy_gradient(dom, u1, params, regime), energy_hessian(dom, u1, params, regime)
    kept = raw1.copy(), grad1.copy(), ab1.copy()
    for other in later:
        e2, raw2 = energy_and_gradient(dom, u2, params, other)
        energy_gradient(dom, u2, params, other)
        energy_hessian(dom, u2, params, other)
        assert e2 != e1
    for got, was in zip((raw1, grad1, ab1), kept):
        assert np.array_equal(got, was)
    e3, raw3 = energy_and_gradient(dom, u1, params, regime)
    assert e3 == e1
    assert np.array_equal(raw3, raw1)
    assert np.array_equal(energy_hessian(dom, u1, params, regime), ab1)


@pytest.mark.parametrize("n", [32, 33])
@pytest.mark.parametrize("regime", [DIRICHLET, NEUMANN, BoundaryRegime.robin(0.7),
                                    BoundaryRegime.fractional(0.5)], ids=lambda r: r.kind)
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_results_survive_later_calls(n, regime, p):
    _assert_results_survive(build_interval(n), EnergyParams(p, 1e-6), regime, [regime])


@pytest.mark.parametrize("kind,regime", [
    ("rectangle", DIRICHLET), ("rectangle", NEUMANN), ("rectangle", BoundaryRegime.robin(0.7)),
    ("masked", DIRICHLET), ("masked", NEUMANN)], ids=lambda v: getattr(v, "kind", v))
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_results_survive_later_calls_2d(kind, regime, p):
    # The later calls run every regime the domain offers, so Robin's calls
    # also go through the cell arrays it shares with Neumann.
    if kind == "rectangle":
        dom, later = build_rectangle(7, 5, 1.0, 0.8), [DIRICHLET, NEUMANN, BoundaryRegime.robin(0.7)]
    else:
        bitmap = np.array([[0, 1, 1, 1], [1, 1, 0, 1], [1, 1, 1, 1], [1, 1, 1, 0]], dtype=bool)
        dom, later = build_masked(bitmap, 0.2), [DIRICHLET, NEUMANN]
    _assert_results_survive(dom, EnergyParams(p, 1e-6), regime, later)


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
