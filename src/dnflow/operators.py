"""Discrete gradient energies and their first variations.

The local regimes discretize E(u) = (1/p) int (|Du|^2 + eps^2)^(p/2) with a
per-cell forward-difference gradient vector; the nonlocal regime uses the
pairwise kernel from :mod:`dnflow.fractional`.  The constant eps**p is
subtracted cell-wise so E(0) = 0; gradients are unaffected.

Cell layout.  A cell holds the forward differences from one node to its
next neighbour along each axis.  In 1-D, Dirichlet pads the field with its
two exterior zeros (n + 1 cells) and Neumann/Robin use the n - 1 links
between nodes.  In 2-D the grid sits in an extended grid P, with one cell at
every node of P except its last row and column.  Dirichlet rings the grid
with exterior zeros, giving (ny+1)(nx+1) cells anchored one node before the
grid on each axis.  Neumann and Robin repeat the last row and column, giving
one cell per node; differences that leave the grid vanish, so the last
column has no x-difference and the last row no y-difference.  On a mask, off-mask nodes hold zero: Dirichlet
differences reach those zeros, Neumann differences to them are zeroed.

``_parts`` is the one regime dispatch; ``energy``, ``energy_gradient`` and
``energy_and_gradient`` all read its (energy, raw partials) pair.
``energy_hessian`` follows the same dispatch and returns the Hessian of the
raw energy in lower-banded storage, the layout ``scipy.linalg.cholesky_banded``
factors.
``energy_gradient`` returns the gradient as a *density*: the raw partial
derivatives divided by the cell volume, which approximates -Delta_p u
pointwise for the local regimes.

Reduction order: every sum is a serial numpy reduction in node/cell index
order, so results are deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Domain
from .errors import UnsupportedRegimeError

__all__ = [
    "BoundaryRegime",
    "EnergyParams",
    "jp",
    "energy",
    "energy_gradient",
    "energy_and_gradient",
    "energy_hessian",
    "trace_lp",
    "validate_regime",
]

_LOCAL_KINDS = {"dirichlet", "robin", "neumann"}


@dataclass(frozen=True)
class BoundaryRegime:
    """Which energy form and constraint set the flow runs under.

    kind is one of ``dirichlet``, ``robin``, ``neumann``, ``fractional``;
    ``beta`` is the Robin trace coefficient (> 0) and ``s`` the nonlocal
    order in (0, 1).
    """

    kind: str
    beta: float = 0.0
    s: float = 0.0

    def __post_init__(self):
        if self.kind not in _LOCAL_KINDS | {"fractional"}:
            raise UnsupportedRegimeError(f"unknown regime kind {self.kind!r}")
        if self.kind == "robin" and not self.beta > 0:
            raise ValueError(f"robin regime needs beta > 0, got {self.beta}")
        if self.kind == "fractional" and not 0.0 < self.s < 1.0:
            raise ValueError(f"fractional regime needs s in (0,1), got {self.s}")

    @classmethod
    def dirichlet(cls):
        return cls("dirichlet")

    @classmethod
    def robin(cls, beta: float):
        return cls("robin", beta=beta)

    @classmethod
    def neumann(cls):
        return cls("neumann")

    @classmethod
    def fractional(cls, s: float):
        return cls("fractional", s=s)


@dataclass(frozen=True)
class EnergyParams:
    """Exponent p in (1, inf) and the gradient-regularization length eps >= 0.

    eps = 0 keeps the bare |Du|^p energy and is only allowed for p >= 2,
    where it stays C^1.  The conjugate exponent q = p/(p-1) is derived.
    """

    p: float
    epsilon: float = 0.0

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.epsilon == 0.0 and self.p < 2.0:
            raise ValueError("epsilon = 0 requires p >= 2")

    @property
    def q(self) -> float:
        return self.p / (self.p - 1.0)

    def with_epsilon(self, eps: float) -> "EnergyParams":
        return EnergyParams(self.p, eps)


def jp(z, p: float):
    """The odd power map |z|**(p-2) * z, computed as sign(z)*|z|**(p-1).

    Strictly increasing and odd; jp(0) = 0 for every p > 1.
    """
    z_arr = np.asarray(z, dtype=float)
    out = np.sign(z_arr) * np.abs(z_arr) ** (p - 1.0)
    return float(out) if np.isscalar(z) or z_arr.ndim == 0 else out


def validate_regime(dom: Domain, regime: BoundaryRegime) -> None:
    """Reject regime/domain pairs the discretization does not define."""
    if regime.kind == "robin" and dom.kind == "masked":
        raise UnsupportedRegimeError("robin regime needs a geometric normal; "
                                     "masked domains offer dirichlet and neumann only")
    if regime.kind == "fractional" and dom.kind != "interval":
        raise UnsupportedRegimeError("fractional regime is only offered on intervals")


def _cell_terms(r2, p, eps):
    # Shared smooth kernel: returns (energy density per cell, multiplier m)
    # where d/dg of the cell energy is m * g for gradient component g.
    # The eps offset uses the identical expression as the cell power so the
    # zero field gives exactly zero energy.
    e2 = eps * eps
    if p == 2.0:
        return r2, np.ones_like(r2)
    base = r2 + e2
    if eps == 0.0:
        # p > 2 here; 0**((p-2)/2) = 0 is the correct limit.
        m = np.where(base > 0.0, base, 1.0) ** ((p - 2.0) / 2.0)
        m = np.where(base > 0.0, m, 0.0)
        return m * base, m
    m = base ** ((p - 2.0) / 2.0)
    return m * base - e2 ** ((p - 2.0) / 2.0) * e2, m


def _cell_curvature(r2, a2, p, eps):
    # Second derivative of cell / p along one gradient component a, where
    # r2 = |g|^2 and a2 = a^2: m * (1 + (p-2) a^2 / (|g|^2 + eps^2)).  It is
    # positive for every p > 1 because a2 <= r2; zero where m is (eps = 0).
    if p == 2.0:
        return np.ones_like(r2)
    base = r2 + eps * eps
    safe = np.where(base > 0.0, base, 1.0)
    return np.where(base > 0.0,
                    safe ** ((p - 2.0) / 2.0) * (1.0 + (p - 2.0) * a2 / safe), 0.0)


def _link_band(n, a, b, k, dirichlet):
    # Lower band of sum_links k (e_a - e_b)(e_a - e_b)^T, with b > a.  Node
    # index -1 is not a variable: an exterior zero under Dirichlet, which
    # leaves k on the other end's diagonal, or a repeated or off-mask node
    # under Neumann, whose difference vanishes identically.
    a, b, k = a.ravel(), b.ravel(), k.ravel()
    both = (a >= 0) & (b >= 0)
    ia, ib = (a >= 0, b >= 0) if dirichlet else (both, both)
    off = b[both] - a[both]
    ab = np.zeros((int(off.max(initial=0)) + 1, n), order="F")
    ab[0] = np.bincount(a[ia], k[ia], n) + np.bincount(b[ib], k[ib], n)
    ab[off, a[both]] = -k[both]
    return ab


def _robin_terms(dom, u, p, eps, beta):
    ub = u[dom.trace_index]
    cell, m = _cell_terms(ub * ub, p, eps)
    e_val = (beta / p) * float(np.sum(dom.trace_weight * cell))
    raw = np.zeros_like(u)
    np.add.at(raw, dom.trace_index, beta * dom.trace_weight * m * ub)
    return e_val, raw


def _local_1d(dom, u, p, eps, dirichlet):
    h = dom.hx
    if dirichlet:
        padded = np.empty(u.size + 2)
        padded[0] = padded[-1] = 0.0
        padded[1:-1] = u
        g = np.diff(padded) / h
    else:
        # The n - 1 links only: a repeated end node as in 2-D would add a
        # zero cell, and that changes the rounding of np.sum.
        g = np.diff(u) / h
    cell, m = _cell_terms(g * g, p, eps)
    e_val = (h / p) * float(np.sum(cell))
    s = m * g  # d(cell)/d(g)
    if dirichlet:
        raw = s[:-1] - s[1:]
    else:
        raw = np.zeros_like(u)
        raw[:-1] -= s
        raw[1:] += s
    return e_val, raw


def _grid_cells(dom, u, dirichlet):
    # The grid inside the extended grid P: behind a ring of exterior zeros
    # (Dirichlet), or at its origin with the last row and column repeated
    # (Neumann).  Off-mask nodes hold zeros.  Returns P, the grid's offset
    # in P, and the differences of the cells at every node of P but its
    # last row and column.
    ny, nx = dom.shape
    mask = dom.mask
    o = 1 if dirichlet else 0
    P = np.zeros((ny + 1 + o, nx + 1 + o))
    grid = P[o:o + ny, o:o + nx]
    if mask is None:
        grid[...] = u.reshape(ny, nx)
    else:
        grid[mask] = u
    if not dirichlet:
        P[ny, :] = P[ny - 1, :]
        P[:, nx] = P[:, nx - 1]
    gx = np.diff(P, axis=1)[:-1, :] / dom.hx
    gy = np.diff(P, axis=0)[:, :-1] / dom.hy
    if mask is not None and not dirichlet:
        gx[:, :-1] = np.where(mask[:, 1:] & mask[:, :-1], gx[:, :-1], 0.0)
        gy[:-1, :] = np.where(mask[1:, :] & mask[:-1, :], gy[:-1, :], 0.0)
    return P, o, gx, gy


def _local_2d(dom, u, p, eps, dirichlet):
    hx, hy, vol = dom.hx, dom.hy, dom.cell_volume
    ny, nx = dom.shape
    P, o, gx, gy = _grid_cells(dom, u, dirichlet)
    cell, m = _cell_terms(gx * gx + gy * gy, p, eps)
    e_val = (vol / p) * float(np.sum(cell))
    sx = (vol / hx) * m * gx
    sy = (vol / hy) * m * gy
    G = np.zeros_like(P)
    G[:-1, 1:] += sx
    G[:-1, :-1] -= sx
    G[1:, :-1] += sy
    G[:-1, :-1] -= sy
    inner = G[o:o + ny, o:o + nx]
    return e_val, (inner.ravel() if dom.mask is None else inner[dom.mask])


def _fractional_parts(dom, u, p, eps, s):
    from .fractional import kernel_for

    ker = kernel_for(dom, s, p)
    h = dom.hx
    diff = u[:, None] - u[None, :]
    pair_cell, pair_m = _cell_terms(diff * diff, p, eps)
    ext_cell, ext_m = _cell_terms(u * u, p, eps)
    e_val = (float((ker.weights * pair_cell).sum())
             + 2.0 * h * float(np.sum(ker.exterior * ext_cell))) / p
    raw = (2.0 * (ker.weights * (pair_m * diff)).sum(axis=1)
           + 2.0 * h * ker.exterior * (ext_m * u))
    return e_val, raw


def _hessian_1d(dom, u, p, eps, dirichlet):
    n, h = u.size, dom.hx
    if dirichlet:
        node = np.arange(-1, n + 1)
        node[-1] = -1  # the two exterior zeros
        g = np.diff(np.concatenate(([0.0], u, [0.0]))) / h
    else:
        node = np.arange(n)
        g = np.diff(u) / h
    r2 = g * g
    return _link_band(n, node[:-1], node[1:], _cell_curvature(r2, r2, p, eps) / h,
                      dirichlet)


def _hessian_2d(dom, u, p, eps, dirichlet):
    ny, nx = dom.shape
    vol = dom.cell_volume
    P, o, gx, gy = _grid_cells(dom, u, dirichlet)
    node = np.full(P.shape, -1)
    inner = node[o:o + ny, o:o + nx]
    if dom.mask is None:
        inner[...] = np.arange(u.size).reshape(ny, nx)
    else:
        inner[dom.mask] = np.arange(u.size)  # row-major masked ordering
    r2 = gx * gx + gy * gy
    kx = (vol / (dom.hx * dom.hx)) * _cell_curvature(r2, gx * gx, p, eps)
    ky = (vol / (dom.hy * dom.hy)) * _cell_curvature(r2, gy * gy, p, eps)
    cell = node[:-1, :-1].ravel()
    return _link_band(u.size, np.concatenate((cell, cell)),
                      np.concatenate((node[:-1, 1:].ravel(), node[1:, :-1].ravel())),
                      np.concatenate((kx.ravel(), ky.ravel())), dirichlet)


def _fractional_hessian(dom, u, p, eps, s):
    from .fractional import kernel_for

    ker = kernel_for(dom, s, p)
    n = u.size
    diff = u[:, None] - u[None, :]
    d2 = diff * diff
    H = -2.0 * ker.weights * _cell_curvature(d2, d2, p, eps)
    H[np.diag_indices(n)] = (-H.sum(axis=1)
                             + 2.0 * dom.hx * ker.exterior * _cell_curvature(u * u, u * u, p, eps))
    # A full band: ab[d, j] = H[j + d, j].
    row = np.arange(n)[:, None] + np.arange(n)[None, :]
    return np.asfortranarray(np.where(row < n, H[np.minimum(row, n - 1), np.arange(n)], 0.0))


def _parts(dom, u, params, regime):
    # The one regime dispatch: (energy, raw partial derivatives) at u.
    u = dom.check_field(u)
    validate_regime(dom, regime)
    p, eps = params.p, params.epsilon
    if regime.kind == "fractional":
        return _fractional_parts(dom, u, p, eps, regime.s)
    local = _local_1d if dom.dimension == 1 else _local_2d
    e_val, raw = local(dom, u, p, eps, regime.kind == "dirichlet")
    if regime.kind == "robin":
        e_b, raw_b = _robin_terms(dom, u, p, eps, regime.beta)
        e_val += e_b
        raw = raw + raw_b
    return e_val, raw


def energy_hessian(dom: Domain, u, params: EnergyParams, regime: BoundaryRegime) -> np.ndarray:
    """Hessian of the raw energy at u, as a lower band ab with ab[d, j] = H[j + d, j].

    Exact in 1-D: tridiagonal for the local regimes, a band of width n - 1
    for the fractional kernel.  In 2-D it is the 5-point matrix of each
    cell Hessian's diagonal, the g_x g_y cross term dropped, with bandwidth
    at most nx in row-major (masked) node order.  Symmetric positive
    semidefinite; positively homogeneous of degree p - 2 in (u, eps).
    """
    u = dom.check_field(u)
    validate_regime(dom, regime)
    p, eps = params.p, params.epsilon
    if regime.kind == "fractional":
        return _fractional_hessian(dom, u, p, eps, regime.s)
    local = _hessian_1d if dom.dimension == 1 else _hessian_2d
    ab = local(dom, u, p, eps, regime.kind == "dirichlet")
    if regime.kind == "robin":
        ub2 = u[dom.trace_index] ** 2
        ab[0] += np.bincount(dom.trace_index, regime.beta * dom.trace_weight
                             * _cell_curvature(ub2, ub2, p, eps), u.size)
    return ab


def energy(dom: Domain, u, params: EnergyParams, regime: BoundaryRegime) -> float:
    """The regime's convex energy at u; zero at the zero field."""
    return _parts(dom, u, params, regime)[0]


def energy_gradient(dom: Domain, u, params: EnergyParams, regime: BoundaryRegime) -> np.ndarray:
    """Exact gradient of the implemented energy, as a pointwise density."""
    return _parts(dom, u, params, regime)[1] / dom.cell_volume


def energy_and_gradient(dom, u, params, regime):
    """(energy, raw partial derivatives) in one pass; solver hot path."""
    return _parts(dom, u, params, regime)


def trace_lp(dom: Domain, u, p: float) -> float:
    """Discrete boundary integral int |Tu|^p dsigma.

    Trace values are read at the boundary-adjacent interior nodes with the
    domain's surface weights.  Only interval and rectangle domains carry a
    boundary trace.
    """
    if dom.kind == "masked":
        raise UnsupportedRegimeError("masked domains have no boundary trace")
    u = dom.check_field(u)
    ub = u[dom.trace_index]
    return float(np.sum(dom.trace_weight * np.abs(ub) ** p))
