"""Discrete gradient energies and their first variations.

The local regimes discretize E(u) = (1/p) int (|Du|^2 + eps^2)^(p/2) with a
per-cell forward-difference gradient vector, plus for Robin the trace term
(beta/p) int |Tu|^p; the nonlocal regime uses the pairwise kernel from
:mod:`dnflow.fractional`.  Every power is smoothed the same way, and eps**p
is subtracted cell-wise so E(0) = 0; gradients are unaffected.

Link blocks.  Every energy term is a block of cells, each holding one
difference per axis from a tail node to a head node, with block energy
(scale/p) sum weight * ((|g|^2 + eps^2)^(p/2) - eps^p) for the differences
g over their length h.  Node n stands for the exterior zero, and so does
every off-mask node.  ``_links`` maps (domain, regime, p) to the blocks,
cached in ``Domain._cache``; it is the only code that knows the regime:

- cells (every local regime): the forward differences from each node to its
  next neighbour along each axis, x first; scale the cell volume.
  Dirichlet cells start one node before the grid on each axis, so
  differences reach the exterior zeros: n + 1 cells in 1-D, (ny+1)(nx+1)
  in 2-D.  Neumann and Robin cells sit at the nodes: one per node in 2-D,
  the n - 1 links in 1-D; a difference that leaves the grid or the mask has
  head = tail, so it is exactly zero.
- trace (Robin): a link from each boundary element's node to the exterior
  zero; h = 1, weight the surface weight, scale beta.
- pairs and exterior (fractional): a link per pair i < j with weight
  2 w_|i-j|, and one per node to the exterior zero with weight 2 h kappa_i;
  h = 1, scale 1.

``_parts`` (energy and raw partials, read by ``energy``, ``energy_gradient``
and ``energy_and_gradient``) and ``energy_hessian`` sum over the blocks.
The Hessian is a sum of links k (e_head - e_tail)(e_head - e_tail)^T, one
per difference and in 2-D one E-N link per cell for the g_x g_y term, in
the lower-banded storage ``scipy.linalg.cholesky_banded`` factors.
``energy_gradient`` returns a *density*: the raw partials over the cell
volume, which approximates -Delta_p u pointwise for the local regimes.

Reduction order: every sum is a serial numpy reduction in link order, block
after block, so results are deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Domain
from .errors import UnsupportedRegimeError
from .fractional import kernel_for

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

REGIME_KINDS = ("dirichlet", "robin", "neumann", "fractional")
_EXTERIOR = np.zeros(1)  # the value of node n in every link block
_UNIT_2D = np.array([[1.0], [1.0], [0.0]])  # xx, yy, xy: 1 on the diagonal of d2/dg2


@dataclass(frozen=True)
class BoundaryRegime:
    """Which energy form and constraint set the flow runs under.

    kind is one of ``dirichlet``, ``robin``, ``neumann``, ``fractional``;
    ``beta`` is the Robin trace coefficient in (0, inf) and ``s`` the nonlocal
    order in (0, 1).
    """

    kind: str
    beta: float = 0.0
    s: float = 0.0

    def __post_init__(self):
        if self.kind not in REGIME_KINDS:
            raise UnsupportedRegimeError(f"unknown regime kind {self.kind!r}")
        if self.kind == "robin" and not 0 < self.beta < math.inf:
            raise ValueError(f"robin regime needs beta > 0 and finite, got {self.beta}")
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
    """Exponent p in (1, inf) and the gradient-regularization length eps in [0, inf).

    eps = 0 keeps the bare |Du|^p energy and is only allowed for p >= 2,
    where it stays C^1.  The conjugate exponent q = p/(p-1) is derived.
    """

    p: float
    epsilon: float = 0.0

    def __post_init__(self):
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"p must exceed 1 and be finite, got {self.p}")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be nonnegative and finite, got {self.epsilon}")
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
    # At eps = 0 (p > 2 only), 0**((p-2)/2) = 0 is the correct limit.
    e2 = eps * eps
    if p == 2.0:
        return r2, np.ones_like(r2)
    base = r2 + e2
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
class _Links:
    # One block of cells.  ends[a, 0] and ends[a, 1] hold the head and tail
    # node of each cell's difference along axis a, x first; in that order
    # the gradient scatter adds, per node, +s_x, -s_x, +s_y, -s_y.
    # The Hessian is a sum of links k (e_head - e_tail)(e_head - e_tail)^T:
    # one per difference, and in 2-D a third set with the E-N link of each
    # cell's cross term, from the head of its y difference to that of its x.
    ends: np.ndarray     # (dim, 2, cells)
    h: np.ndarray        # (dim, 1) length of the differences along each axis
    scale: float         # the block's energy is (scale / p) sum(weight * cell)
    weight: np.ndarray | None  # one per cell, or None for 1
    flux: np.ndarray     # (dim, 2, 1 or cells) +-scale weight / h: a difference g
                         # adds flux m g to its head and to its tail
    diag: np.ndarray     # (2, links) head and tail of each live link, n if dead
    band: np.ndarray     # flat index of each link's -k in the (n + 1, width) transposed band
    width: int           # band width, shared by every block of a regime


def _links(dom, regime, p):
    # The one regime dispatch: the regime's link blocks, built on first use
    # and cached on the domain.  Only the fractional blocks depend on p.
    key = ("links", regime, p if regime.kind == "fractional" else None)
    blocks = dom._cache.get(key)
    if blocks is not None:
        return blocks
    validate_regime(dom, regime)
    n = dom.n_nodes
    if regime.kind == "fractional":
        ker = kernel_for(dom, regime.s, p)
        tail, head = np.triu_indices(n, 1)
        weight = 2.0 * np.concatenate((ker.offsets[head - tail - 1], dom.hx * ker.exterior))
        blocks = (_unit_links(n, np.concatenate((head, np.arange(n))),
                              np.concatenate((tail, np.full(n, n))), 1.0, weight, n),)
    else:
        # One cell block serves Dirichlet, and one Neumann and Robin.
        dirichlet = regime.kind == "dirichlet"
        if ("cells", dirichlet) not in dom._cache:
            dom._cache["cells", dirichlet] = _build_cells(dom, dirichlet)
        cells = dom._cache["cells", dirichlet]
        blocks = (cells,)
        if regime.kind == "robin":
            blocks += (_unit_links(n, dom.trace_index, np.full(dom.trace_index.size, n),
                                   regime.beta, dom.trace_weight, cells.width),)
    dom._cache[key] = blocks
    return blocks


def _unit_links(n, head, tail, scale, weight, width):
    # Links of one difference of length 1 each, none dead; tail n is the
    # exterior zero.  A link of two nodes sits at (row head - tail, column
    # tail) of the band, every other one at (0, n).
    ends = np.stack((head, tail))
    inner = tail < n
    coef = scale * weight
    return _Links(ends=ends[None], h=np.ones((1, 1)), scale=scale, weight=weight,
                  flux=np.stack((coef, -coef))[None], diag=ends,
                  band=np.where(inner, tail * width + head - tail, n * width), width=width)


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
    return _Links(ends=ends, h=h, scale=dom.cell_volume, weight=None,
                  flux=np.stack((dom.cell_volume / h, -dom.cell_volume / h), axis=1),
                  diag=np.where(live, np.stack((head, tail)), n),
                  band=np.where(inner, tail, n) * width + row, width=width)


def _differences(u, links):
    # One gather of every cell's differences, shape (dim, cells).
    x = np.concatenate((u, _EXTERIOR))[links.ends]
    return (x[:, 0] - x[:, 1]) / links.h


def _link_weights(u, p, eps, links):
    # The Hessian weight of every link of the block.  A difference's link
    # has k = flux c / h for the curvature c of its cell along that axis; in
    # 1-D cells the flux is vol / h = 1, so k = c / h, as vol / h^2 would
    # round differently.  In 2-D the cell's cross term c_xy (a b^T + b a^T) /
    # (hx hy), with a = e_E - e_C and b = e_N - e_C, is c_xy (a a^T + b b^T -
    # (e_E - e_N)(e_E - e_N)^T): it adds k_xy = vol c_xy / (hx hy) to both
    # difference links and -k_xy to the E-N link.
    g = _differences(u, links)
    if len(g) == 1:
        a2 = g * g
        return links.flux[:, 0] * _cell_curvature(a2[0], a2, p, eps) / links.h
    gx, gy = g
    ab = np.stack((gx * gx, gy * gy, gx * gy))
    hh = np.concatenate((links.h * links.h, links.h[:1] * links.h[1:]))
    k = (links.scale / hh) * _cell_curvature(ab[0] + ab[1], ab, p, eps, _UNIT_2D)
    k[:2] += k[2]
    k[2] = -k[2]
    return k


def _parts(dom, u, params, regime):
    # (energy, raw partial derivatives) at u, summed over the link blocks.
    u = dom.check_field(u)
    p, eps = params.p, params.epsilon
    e_val, raw = 0.0, np.zeros(u.size)
    for links in _links(dom, regime, p):
        g = _differences(u, links)
        cell, m = _cell_terms((g * g).sum(axis=0), p, eps)
        # In place, to hold one temporary of 2 x cells floats fewer: at
        # fractional n = 199 the extra one made the allocator hand pages
        # back and fault them in again on every call.
        terms = links.flux * m
        terms *= g[:, None]
        if links.weight is not None:
            cell *= links.weight
        e_val += (links.scale / p) * float(cell.sum())
        raw += np.bincount(links.ends.ravel(), terms.ravel(), u.size + 1)[:u.size]
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
    blocks = _links(dom, regime, params.p)
    # Built transposed, one row per band column: every live link adds k to
    # the diagonal of its nodes, and a link of two nodes adds -k off it
    # (no two blocks link the same pair).  The band is the first n rows,
    # transposed back, which is Fortran-ordered.
    n = u.size
    abT = np.zeros((n + 1, blocks[0].width))
    for links in blocks:
        k = _link_weights(u, params.p, params.epsilon, links).ravel()
        abT[:, 0] += np.bincount(links.diag[1], k, n + 1) + np.bincount(links.diag[0], k, n + 1)
        np.put(abT, links.band, -k)
    return abT[:n].T


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
