import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dnflow.domain import (
    build_interval,
    build_masked,
    build_rectangle,
    integrate_power,
    load_mask,
)
from dnflow.errors import (
    EmptyDomainError,
    FieldShapeError,
    InvalidMaskError,
    InvalidResolutionError,
)


def test_interval_nodes_n3():
    d = build_interval(3)
    assert d.hx == 0.25
    np.testing.assert_allclose(d.nodes, [0.25, 0.5, 0.75])


def test_interval_n199():
    d = build_interval(199)
    assert d.hx == pytest.approx(0.005)
    assert d.n_nodes == 199


def test_interval_too_small():
    with pytest.raises(InvalidResolutionError):
        build_interval(2)


def test_rectangle_3x3():
    d = build_rectangle(3, 3, 1.0, 1.0)
    assert d.n_nodes == 9
    assert d.hx == 0.25 and d.hy == 0.25
    assert d.trace_index.size > 0


@pytest.mark.parametrize("nx, ny", [(3, 3), (3, 7), (8, 5), (31, 31), (4, 129)])
def test_rectangle_trace_matches_edge_loops(nx, ny):
    # The trace arrays, edge by edge as the loops below walk them: bottom,
    # top, left, right, each node's weight its edge's Voronoi share.
    d = build_rectangle(nx, ny, 2.5, 0.3)

    def share(i, count, h):
        return (1.5 if i in (0, count - 1) else 1.0) * h

    idx, wts = [], []
    for iy in (0, ny - 1):
        for ix in range(nx):
            idx.append(iy * nx + ix)
            wts.append(share(ix, nx, d.hx))
    for ix in (0, nx - 1):
        for iy in range(ny):
            idx.append(iy * nx + ix)
            wts.append(share(iy, ny, d.hy))
    assert d.trace_index.dtype == np.array(idx).dtype
    np.testing.assert_array_equal(d.trace_index, idx)
    np.testing.assert_array_equal(d.trace_weight, wts)
    assert d.trace_weight.sum() == pytest.approx(2 * 2.5 + 2 * 0.3)


def test_rectangle_99():
    d = build_rectangle(99, 99, 1.0, 1.0)
    assert d.n_nodes == 9801


def test_rectangle_degenerate():
    with pytest.raises(InvalidResolutionError):
        build_rectangle(1, 5, 1.0, 1.0)


def test_masked_full_matches_rectangle():
    rect = build_rectangle(3, 3, 1.0, 1.0)
    mask = build_masked(np.ones((3, 3), dtype=bool), 0.25)
    np.testing.assert_allclose(mask.nodes, rect.nodes)
    assert mask.cell_volume == rect.cell_volume
    assert mask.trace_index.size == 0  # no trace on masked kind


def test_masked_l_shape_count():
    bitmap = np.ones((12, 12), dtype=bool)
    bitmap[:6, 6:] = False  # remove one quadrant
    d = build_masked(bitmap, 0.1)
    assert d.n_nodes == 144 * 3 // 4


def test_masked_empty():
    with pytest.raises(EmptyDomainError):
        build_masked(np.zeros((4, 4), dtype=bool), 0.1)


def test_masked_isolated_cell():
    bitmap = np.zeros((5, 5), dtype=bool)
    bitmap[0, 0] = True
    bitmap[3, 3] = True
    bitmap[3, 4] = True
    with pytest.raises(InvalidMaskError):
        build_masked(bitmap, 0.1)


def test_mask_file_roundtrip(tmp_path):
    path = tmp_path / "mask.txt"
    path.write_text("3 4 0.25\n1110\n1110\n1111\n")
    d = load_mask(path)
    assert d.hx == 0.25
    assert d.n_nodes == 10
    assert d.shape == (3, 4)


def test_mask_file_bad_row(tmp_path):
    path = tmp_path / "mask.txt"
    path.write_text("2 3 0.25\n111\n1x1\n")
    with pytest.raises(InvalidMaskError):
        load_mask(path)


def _mask_file(text):
    # load_mask on a file holding `text`, run inside a fresh tmp_path.
    def load(tmp_path):
        path = tmp_path / "mask.txt"
        path.write_text(text)
        return load_mask(path)
    return load


FULL = np.ones((3, 3), dtype=bool)


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda tmp: build_rectangle(3, 3, 0.0, 1.0), InvalidResolutionError,
                 "rectangle needs positive lengths", id="rect-lx-zero"),
    pytest.param(lambda tmp: build_rectangle(3, 3, 1.0, -1.0), InvalidResolutionError,
                 "rectangle needs positive lengths", id="rect-ly-negative"),
    pytest.param(lambda tmp: build_rectangle(3, 3, 1.0, np.inf), InvalidResolutionError,
                 "rectangle needs positive lengths, each finite", id="rect-ly-inf"),
    pytest.param(lambda tmp: build_rectangle(3, 3, np.nan, 1.0), InvalidResolutionError,
                 "rectangle needs positive lengths, each finite", id="rect-lx-nan"),
    pytest.param(lambda tmp: build_masked(np.ones(9, dtype=bool), 0.25), InvalidMaskError,
                 "bitmap must be 2-D, got ndim=1", id="mask-1d"),
    pytest.param(lambda tmp: build_masked(FULL, 0.0), InvalidResolutionError,
                 "spacing must be positive", id="mask-h-zero"),
    pytest.param(lambda tmp: build_masked(FULL, np.inf), InvalidResolutionError,
                 "spacing must be positive and finite, got inf", id="mask-h-inf"),
    pytest.param(lambda tmp: build_masked(FULL, np.nan), InvalidResolutionError,
                 "spacing must be positive and finite, got nan", id="mask-h-nan"),
    pytest.param(_mask_file("\n  \n"), InvalidMaskError, "empty mask file",
                 id="file-empty"),
    pytest.param(_mask_file("3 3\n111\n111\n111\n"), InvalidMaskError,
                 "header must be 'rows cols h'", id="file-bad-header"),
    pytest.param(_mask_file("a b c\n111\n111\n111\n"), InvalidMaskError,
                 "mask.txt: header must be 'rows cols h', got 'a b c'",
                 id="file-header-not-numbers"),
    pytest.param(_mask_file("3 3 0.25\n111\n111\n"), InvalidMaskError,
                 "expected 3 bitmap rows, got 2", id="file-row-count"),
    pytest.param(_mask_file("3 3 inf\n111\n111\n111\n"), InvalidResolutionError,
                 "spacing must be positive and finite, got inf", id="file-h-inf"),
])
def test_domain_rejections(tmp_path, build, error, message):
    # Each builder refuses a geometry it cannot discretize with a typed
    # error that says why.
    with pytest.raises(error) as err:
        build(tmp_path)
    assert message in str(err.value)


def test_integrate_constant_interval():
    d = build_interval(9)
    # u = 1: midpoint rule covers n/(n+1) of the unit interval
    val = integrate_power(d, np.ones(9), 2.0)
    assert val == pytest.approx(9 / 10)


def test_integrate_zero():
    d = build_interval(5)
    assert integrate_power(d, np.zeros(5), 1.5) == 0.0


def test_integrate_sine_square():
    # Oracle: the exact integral of sin(pi x)^2 over (0,1) is 1/2.
    d = build_interval(199)
    u = np.sin(np.pi * d.nodes)
    assert abs(integrate_power(d, u, 2.0) - 0.5) <= 1e-4


def test_integrate_shape_error():
    d = build_interval(5)
    with pytest.raises(FieldShapeError):
        integrate_power(d, np.ones(6), 2.0)


def test_integrate_bad_exponent():
    d = build_interval(5)
    with pytest.raises(ValueError):
        integrate_power(d, np.ones(5), 0.0)


def test_volume_weights_cover_domain():
    # Total interior measure is within one cell volume of |Omega|.
    for d, measure in [
        (build_interval(19), 1.0),
        (build_rectangle(9, 9, 1.0, 1.0), 1.0),
        (build_rectangle(9, 4, 2.0, 1.0), 2.0),
    ]:
        covered = d.n_nodes * d.cell_volume
        assert measure - covered <= (2 * d.hx + 2 * max(d.hy, d.hx)) + 1e-12
        assert covered <= measure


@given(
    c=st.floats(min_value=-100, max_value=100,
                allow_nan=False, allow_infinity=False),
    r=st.floats(min_value=0.5, max_value=4.0),
)
@settings(max_examples=100, deadline=None)
def test_integrate_power_homogeneous(c, r):
    d = build_interval(7)
    rng = np.random.default_rng(42)
    u = rng.standard_normal(7)
    # A nonzero c * u_i below the smallest normal float is rounded to a
    # subnormal before integrate_power sees it, so the identity cannot hold
    # to rel = 1e-12 there. Every other c is kept.
    assume(c == 0.0 or abs(c) * np.min(np.abs(u)) >= np.finfo(float).tiny)
    left = integrate_power(d, c * u, r)
    right = abs(c) ** r * integrate_power(d, u, r)
    assert left == pytest.approx(right, rel=1e-12, abs=1e-300)


def test_integrate_matches_serial_loop():
    # Fixed reduction order: numpy sum agrees with an explicit python loop.
    d = build_rectangle(5, 4, 1.0, 1.0)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(d.n_nodes)
    loop = 0.0
    for v in u:
        loop += d.cell_volume * abs(v) ** 2.7
    assert integrate_power(d, u, 2.7) == pytest.approx(loop, rel=1e-13)


def test_check_field_converts_a_list_to_float64():
    u = build_interval(3).check_field([1, 2, 3])
    assert type(u) is np.ndarray and u.dtype == np.float64
    np.testing.assert_array_equal(u, [1.0, 2.0, 3.0])
