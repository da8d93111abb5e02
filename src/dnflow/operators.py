"""Discrete gradient energies and their first variations.

The local regimes discretize E(u) = (1/p) int (|Du|^2 + eps^2)^(p/2) with a
per-cell forward-difference gradient vector; the nonlocal regime uses the
pairwise kernel from :mod:`dnflow.fractional`.  The constant eps**p is
subtracted cell-wise so E(0) = 0; gradients are unaffected.

Cell layout.  A cell holds the forward differences from one node to its
next neighbour along each axis.  One cell table per domain and regime
family (Dirichlet, or Neumann and Robin), built on first use and cached in
``Domain._cache``, lists the tail and head node of every difference, x
first.  Node n stands for the exterior zero, and so does every off-mask
node.  Dirichlet cells start one node before the grid on each axis, so
differences reach the exterior zeros: n + 1 cells in 1-D, (ny+1)(nx+1) in
2-D.  Neumann and Robin cells sit at the nodes: one per node in 2-D, the
n - 1 links in 1-D.  A Neumann difference that leaves the grid or the mask
has head = tail, so it is exactly zero.  For the Hessian the table also
holds, in 2-D, each cell's E-N link: the g_x g_y term couples the heads of
its two differences.  ``_local`` (energy and raw partials) and
``_local_hessian`` read the table for every dimension, grid and mask; only
``_build_cells`` knows the padding.

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
_EXTERIOR = np.zeros(1)  # the value of node n in every cell table
_UNIT_2D = np.array([[1.0], [1.0], [0.0]])  # xx, yy, xy: 1 on the diagonal of d2/dg2


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


def _cell_curvature(r2, ab, p, eps, unit=1.0):
    # Second derivative of cell / p in gradient components a and b, where
    # r2 = |g|^2 and ab = a b: m * (unit + (p-2) a b / (|g|^2 + eps^2)), with
    # unit 1 when a is b and 0 across.  Along one component it is positive
    # for every p > 1 because a^2 <= r2; zero where m is (eps = 0).
    if p == 2.0:
        return np.ones_like(ab) * unit
    base = r2 + eps * eps
    safe = np.where(base > 0.0, base, 1.0)
    return np.where(base > 0.0,
                    safe ** ((p - 2.0) / 2.0) * (unit + (p - 2.0) * ab / safe), 0.0)


@dataclass(frozen=True)
class _CellTable:
    # The forward differences of every cell, axis by axis with x first:
    # ends[a, 0] and ends[a, 1] hold the head and tail node of each cell's
    # difference along axis a.  In that order the gradient scatter adds, per
    # node, +s_x, -s_x, +s_y, -s_y.
    # The Hessian is a sum of links k (e_head - e_tail)(e_head - e_tail)^T:
    # one per difference, and in 2-D a third block with the E-N link of each
    # cell's cross term, from the head of its y difference to that of its x.
    ends: np.ndarray     # (dim, 2, cells)
    h: np.ndarray        # (dim, 1) spacing of each axis
    flux: np.ndarray     # (dim, 2, 1) +vol/h and -vol/h, the head and tail signs
    diag: np.ndarray     # (2, links) head and tail of each live link, n if dead
    band: np.ndarray     # flat index of each link's -k in the (n + 1, width) transposed band
    width: int


def _cells(dom, dirichlet):
    # The cell table of the Dirichlet family or of the Neumann/Robin one,
    # built on first use; it depends on neither p nor eps.
    key = ("cells", dirichlet)
    table = dom._cache.get(key)
    if table is None:
        table = dom._cache[key] = _build_cells(dom, dirichlet)
    return table


def _build_cells(dom, dirichlet):
    n, dim = dom.n_nodes, dom.dimension
    node = np.full(dom.shape, n)  # node n is the exterior zero
    node[np.ones(dom.shape, dtype=bool) if dom.mask is None else dom.mask] = np.arange(n)
    # Exterior points after the grid on each axis, and for Dirichlet one
    # before it too; a cell sits at every point but the last on each axis.
    ext = np.pad(node, [(1 if dirichlet else 0, 1)] * dim, constant_values=n)
    at = (slice(None, -1),) * dim
    head = np.stack([ext[at[:a] + (slice(1, None),) + at[a + 1:]].ravel()
                     for a in reversed(range(dim))])
    tail = np.broadcast_to(ext[at].ravel(), head.shape).copy()
    if not dirichlet:
        # Differences that leave the grid or the mask vanish: head = tail.
        dead = (head == n) | (tail == n)
        head[dead] = tail[dead]
        if dim == 1:
            # The n - 1 links only: the last cell is dead, and its zero
            # would change the rounding of the energy sum.
            head, tail = head[:, :-1], tail[:, :-1]
    ends = np.stack((head, tail), axis=1)
    h = np.array([dom.hx, dom.hy][:dim])[:, None]
    flux = dom.cell_volume / h
    live = head != tail
    if dim == 2:
        # The E-N link, live where both differences are: N follows E in the
        # node order, nx - 1 places on from it on a grid.
        live = np.concatenate((live, live[:1] & live[1:]))
        head, tail = np.concatenate((head, head[1:])), np.concatenate((tail, head[:1]))
    head, tail, live = head.ravel(), tail.ravel(), live.ravel()
    # A link of two nodes sits at (row head - tail, column tail) of the band;
    # every other link at (0, n), a spare column cut off after assembly.
    inner = live & (head < n) & (tail < n)
    row = np.where(inner, head - tail, 0)
    width = int(row.max(initial=0)) + 1
    return _CellTable(ends=ends, h=h, flux=np.stack((flux, -flux), axis=1),
                      diag=np.where(live, np.stack((head, tail)), n),
                      band=np.where(inner, tail, n) * width + row, width=width)


def _differences(u, table):
    # One gather of every cell's forward differences, shape (dim, cells).
    x = np.concatenate((u, _EXTERIOR))[table.ends]
    return (x[:, 0] - x[:, 1]) / table.h


def _local(dom, u, p, eps, table):
    # (energy, raw partials) of the local energy: the flux s = (vol/h) m g
    # of each difference enters its head with + and its tail with -.
    g = _differences(u, table)
    cell, m = _cell_terms((g * g).sum(axis=0), p, eps)
    terms = table.flux * m * g[:, None]
    raw = np.bincount(table.ends.ravel(), terms.ravel(), u.size + 1)[:u.size]
    return (dom.cell_volume / p) * float(cell.sum()), raw


def _local_hessian(dom, u, p, eps, table):
    # The exact Hessian as a link matrix.  A difference's link has
    # k = vol c / h^2 for the curvature c of the cell along that axis; 1-D
    # divides by h, as vol / h^2 there would round differently.  In 2-D the
    # cell's cross term c_xy (a b^T + b a^T) / (hx hy), with a = e_E - e_C
    # and b = e_N - e_C, is c_xy (a a^T + b b^T - (e_E - e_N)(e_E - e_N)^T):
    # it adds k_xy = vol c_xy / (hx hy) to both difference links and -k_xy
    # to the E-N link.
    g = _differences(u, table)
    if dom.dimension == 1:
        a2 = g * g
        k = _cell_curvature(a2[0], a2, p, eps) / table.h
        return _link_band(table, k.ravel(), u.size)
    gx, gy = g
    ab = np.stack((gx * gx, gy * gy, gx * gy))
    hh = np.array([[dom.hx * dom.hx], [dom.hy * dom.hy], [dom.hx * dom.hy]])
    k = (dom.cell_volume / hh) * _cell_curvature(ab[0] + ab[1], ab, p, eps, _UNIT_2D)
    k[:2] += k[2]
    k[2] = -k[2]
    return _link_band(table, k.ravel(), u.size)


def _link_band(table, k, n):
    # Lower band of the link matrix: every live link adds k to the diagonal
    # of its nodes, and a link of two nodes adds -k off it.  Built
    # transposed, one row per band column: the band is its first n rows,
    # transposed back, which is Fortran-ordered.
    abT = np.zeros((n + 1, table.width))
    abT[:, 0] = np.bincount(table.diag[1], k, n + 1) + np.bincount(table.diag[0], k, n + 1)
    np.put(abT, table.band, -k)
    return abT[:n].T


def _robin_terms(dom, u, p, eps, beta):
    ub = u[dom.trace_index]
    cell, m = _cell_terms(ub * ub, p, eps)
    e_val = (beta / p) * float(np.sum(dom.trace_weight * cell))
    return e_val, np.bincount(dom.trace_index, beta * dom.trace_weight * m * ub, u.size)


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


def _fractional_hessian(dom, u, p, eps, s):
    from .fractional import kernel_for

    ker = kernel_for(dom, s, p)
    n = u.size
    diff = u[:, None] - u[None, :]
    d2 = diff * diff
    H = -2.0 * ker.weights * _cell_curvature(d2, d2, p, eps)
    H[np.diag_indices(n)] = (-H.sum(axis=1)
                             + 2.0 * dom.hx * ker.exterior * _cell_curvature(u * u, u * u, p, eps))
    # A full band, ab[d, j] = H[j + d, j], copied one diagonal at a time: an
    # index array of the gather would cost n^2 integers per call, or cached,
    # for the domain's lifetime.
    ab = np.zeros((n, n), order="F")
    for d in range(n):
        ab[d, :n - d] = H.diagonal(-d)
    return ab


def _parts(dom, u, params, regime):
    # The one regime dispatch: (energy, raw partial derivatives) at u.
    u = dom.check_field(u)
    validate_regime(dom, regime)
    p, eps = params.p, params.epsilon
    if regime.kind == "fractional":
        return _fractional_parts(dom, u, p, eps, regime.s)
    e_val, raw = _local(dom, u, p, eps, _cells(dom, regime.kind == "dirichlet"))
    if regime.kind == "robin":
        e_b, raw_b = _robin_terms(dom, u, p, eps, regime.beta)
        e_val += e_b
        raw = raw + raw_b
    return e_val, raw


def energy_hessian(dom: Domain, u, params: EnergyParams, regime: BoundaryRegime) -> np.ndarray:
    """Hessian of the raw energy at u, as a lower band ab with ab[d, j] = H[j + d, j].

    Exact: tridiagonal for the local regimes in 1-D, a band of width n - 1
    for the fractional kernel.  In 2-D each cell adds its x and y links and
    one E-N link for the g_x g_y term; the bandwidth is nx on a grid in
    row-major node order, and on a mask the farthest linked pair in masked
    order.  Symmetric positive semidefinite; positively homogeneous of
    degree p - 2 in (u, eps).
    """
    u = dom.check_field(u)
    validate_regime(dom, regime)
    p, eps = params.p, params.epsilon
    if regime.kind == "fractional":
        return _fractional_hessian(dom, u, p, eps, regime.s)
    ab = _local_hessian(dom, u, p, eps, _cells(dom, regime.kind == "dirichlet"))
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
