"""Discrete gradient energies and their first variations.

The local regimes discretize E(u) = (1/p) int (|Du|^2 + eps^2)^(p/2) with a
per-cell forward-difference gradient vector, plus for Robin the trace term
(beta/p) int |Tu|^p; the nonlocal regime uses the pairwise kernel from
:mod:`dnflow.fractional`.  Every power is smoothed the same way, and eps**p
is subtracted cell-wise so E(0) = 0; gradients are unaffected.

Link blocks.  Every energy term is a cell holding one difference per axis
from a tail node to a head node, with energy (scale/p) weight *
((|g|^2 + eps^2)^(p/2) - eps^p) for the differences g over their length h.
``_links`` maps (domain, regime) to one block of such cells, cached in
``Domain._cache``; it is the only code that knows the regime:

- line (Dirichlet and Neumann in 1-D): one block without a table.
  Dirichlet differences the padded field [0, u, 0] by slicing: n + 1
  cells, the first and last against the exterior zeros.  Neumann
  differences u: the n - 1 links.  Each node's gradient is the flux of the
  cell ending there minus that of the next, two slices of one flux array,
  and the tridiagonal Hessian band is filled from the same slices: no
  gather and no scatter.
- cells (Dirichlet and Neumann in 2-D): the forward differences from each
  node to its next neighbour along each axis, x first; scale the cell
  volume.  Node n stands for the exterior zero, and so does every
  off-mask node.  Dirichlet cells start one node before the grid on each
  axis, so differences reach the exterior zeros: (ny+1)(nx+1) cells.
  Neumann cells sit at the nodes, one per node; a difference that leaves
  the grid or the mask has head = tail, so it is exactly zero.
- robin (in 1-D and 2-D): the domain's cached Neumann block, line or
  cells, and the trace: a link from each boundary element's node to the
  exterior zero, h = 1, weight the surface weight, scale beta.  Its energy
  is added after the Neumann block's, its flux in one bincount scatter, and
  its curvature to the band's diagonal.
- pairs and exterior (fractional): one fold block.  Its n x (D + 1)
  layout pairs each node i with node (i + d) mod n for d = 1..D, D = n // 2,
  so it reads every unordered pair once (for even n the pairs at d = n / 2
  twice, and the repeats have weight 0); a pair weighs 2 w_|i-j|.  Its last
  column links each node to the exterior zero with weight 2 h kappa_i.  The
  weights depend on p: the block keeps one table per p, built from a
  kernel of :mod:`dnflow.fractional` on the first use of that p, and the
  kernel is not kept apart from it.  The differences are strided views of
  u wrapped around, and each node's gradient is a row sum minus a skewed
  row sum of the fluxes, in work buffers the block keeps: no gather and no
  scatter.

``_parts`` (energy and raw partials, read by ``energy``, ``energy_gradient``
and ``energy_and_gradient``) and ``energy_hessian`` call the block once.
``stiffness`` is K2, the Hessian at the zero field under p = 2, which the
solvers' cold starts factor; it reads the run's own block, the fractional
fold's p = 2 table.
The Hessian is a sum of links k (e_head - e_tail)(e_head - e_tail)^T, one
per difference and in 2-D one E-N link per cell for the g_x g_y term, in
the lower-banded storage ``scipy.linalg.cholesky_banded`` factors.
``energy_gradient`` returns a *density*: the raw partials over the cell
volume, which approximates -Delta_p u pointwise for the local regimes.  No
result is, or views, a block's work buffer.

Reduction order: every sum is a serial numpy reduction: in cell order for
the line block; in link order for the 2-D cells; Robin's trace links in
boundary element order, after the Neumann block's; and by fold rows for the
fractional block, so results are deterministic for fixed inputs.  The line
and fractional blocks' work buffers make their calls non-reentrant, so
threads do not share a domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import fractional
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
    "stiffness",
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


def jp(z, p: float):
    """The odd power map |z|**(p-2) * z, computed as sign(z)*|z|**(p-1).

    Strictly increasing and odd; jp(0) = 0 for every p > 1.
    """
    if type(z) is np.ndarray and z.dtype == float and z.ndim:
        return np.sign(z) * np.abs(z) ** (p - 1.0)
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
    # The 2-D cells as one block.  ends[a, 0] and ends[a, 1] hold the head
    # and tail node of each cell's difference along axis a, x first; in that
    # order the gradient scatter adds, per node, +s_x, -s_x, +s_y, -s_y.
    # The Hessian is a sum of links k (e_head - e_tail)(e_head - e_tail)^T:
    # one per difference, and a third set with the E-N link of each cell's
    # cross term, from the head of its y difference to that of its x.
    ends: np.ndarray     # (dim, 2, cells)
    h: np.ndarray        # (dim, 1) length of the differences along each axis
    scale: float         # the cells' energy is (scale / p) sum(cell)
    flux: np.ndarray     # (dim, 2, 1) +-scale / h: a difference g adds flux
                         # m g to its head and to its tail
    diag: np.ndarray     # (2, links) head and tail of each live link, n if dead
    band: np.ndarray     # flat index of each link's -k in the (n + 1, width) transposed band
    width: int           # band width

    def parts(self, u, p, eps):
        # (block energy, raw partials): one gather of the differences and
        # one bincount scatter of their fluxes.
        g = _differences(u, self)
        cell, m = _cell_terms((g * g).sum(axis=0), p, eps)
        # In place, to hold one temporary of 2 x cells floats fewer.
        terms = self.flux * m
        terms *= g[:, None]
        e = (self.scale / p) * float(cell.sum())
        return e, np.bincount(self.ends.ravel(), terms.ravel(), u.size + 1)[:u.size]

    def add_hessian(self, abT, u, p, eps):
        # Every live link adds k to the diagonal of its nodes, and a link of
        # two nodes -k off it.
        k = _link_weights(u, p, eps, self).ravel()
        n = u.size
        abT[:, 0] += np.bincount(self.diag[1], k, n + 1) + np.bincount(self.diag[0], k, n + 1)
        np.put(abT, self.band, -k)


@dataclass(frozen=True, eq=False)
class _Line:
    # The 1-D Dirichlet or Neumann cells as one block, cell j ending at node
    # j.  Dirichlet differences [0, u, 0]: n + 1 cells, the first and last
    # against the exterior zeros.  Neumann differences u: its n - 1 links,
    # padded with a zero flux at each end.  A cell's flux s = m g enters the
    # node it ends at and leaves the one before, so node j gets s_j -
    # s_(j+1), which _parts adds to 0.0: the value and zero sign of a
    # scatter from 0.0.  The buffers are work space of one call at a time:
    # their ends stay zero, the middle is written before it is read, and no
    # result is or views one.
    h: float                   # each cell's length, hx
    scale: float               # the cells' energy is (scale / p) sum(cell)
    padded: np.ndarray | None  # Dirichlet: (n + 2,) [0, u, 0]
    links: np.ndarray | None   # Neumann: (n + 1,) [0, one value per link, 0]
    width: int = 2

    def _differences(self, u):
        if self.padded is None:
            g = u[1:] - u[:-1]
        else:
            self.padded[1:-1] = u
            g = self.padded[1:] - self.padded[:-1]
        g /= self.h
        return g

    def _by_end(self, v):
        # v, one value per cell, indexed by the node the cell ends at, 0..n
        # with n the exterior: no Neumann link ends at node 0 or n, which
        # get the zero ends of the buffer.
        if self.links is None:
            return v
        self.links[1:-1] = v
        return self.links

    def parts(self, u, p, eps):
        g = self._differences(u)
        cell, m = _cell_terms(g * g, p, eps)
        m *= g
        s = self._by_end(m)
        return (self.scale / p) * float(cell.sum()), s[:-1] - s[1:]

    def add_hessian(self, abT, u, p, eps):
        # The tridiagonal band: k per cell, on the diagonal of both nodes
        # and, for a link of two nodes, -k below it.
        a2 = self._differences(u)
        a2 *= a2
        k = self._by_end(_cell_curvature(a2, a2, p, eps) / self.h)
        n = u.size
        abT[:n, 0] += k[:-1] + k[1:]
        np.negative(k[1:-1], out=abT[:n - 1, 1])


def _line(dom, regime):
    n = dom.n_nodes
    if regime.kind == "neumann":
        return _Line(h=dom.hx, scale=dom.cell_volume, padded=None, links=np.zeros(n + 1))
    return _Line(h=dom.hx, scale=dom.cell_volume, padded=np.zeros(n + 2), links=None)


@dataclass(frozen=True, eq=False)
class _Robin:
    # The Neumann block and the trace: a link of length 1 from each boundary
    # element's node to the exterior zero, with energy (beta / p) sum(weight
    # cell) and flux beta weight m g, summed after the Neumann block's.
    base: _Line | _Links  # the domain's cached Neumann block
    index: np.ndarray     # dom.trace_index: the node of each boundary element
    beta: float
    weight: np.ndarray    # dom.trace_weight: each element's surface measure

    @property
    def width(self):
        return self.base.width

    def parts(self, u, p, eps):
        e, raw = self.base.parts(u, p, eps)
        g = u[self.index]
        cell, m = _cell_terms(g * g, p, eps)
        cell *= self.weight
        e += (self.beta / p) * float(cell.sum())
        m *= self.beta * self.weight
        m *= g
        raw += np.bincount(self.index, m, u.size)
        return e, raw

    def add_hessian(self, abT, u, p, eps):
        # A trace link k = beta w c, on the diagonal of its node alone.
        self.base.add_hessian(abT, u, p, eps)
        g = u[self.index]
        a2 = g * g
        abT[:u.size, 0] += np.bincount(
            self.index, (self.beta * self.weight) * _cell_curvature(a2, a2, p, eps), u.size)


@dataclass(frozen=True, eq=False)
class _Fold:
    # The fractional pairs and exterior links as a circulant fold.  Row i
    # pairs node i with node (i + d) mod n in column d - 1, d = 1..D for
    # D = n // 2, which reads every unordered pair once; for even n column
    # D - 1 holds each of its pairs twice, and its second half has weight 0.
    # Column D links each node to the exterior zero.  A link's flux leaves
    # its row node and enters its head node, whose sums over the links are
    # the row sums of a skewed view.  The views are built once over the
    # buffers, which are work space of one call at a time: written before
    # they are read, and never returned.
    weights: dict        # p -> (n, D + 1) 2 w_|i-j| per pair and 2 h kappa_i,
                         # added by _links on the first use of p
    band: np.ndarray     # flat index of each link's -k in the (n + 1, width)
                         # transposed band; n * width, the cut-off row, if none
    width: int           # n: the band holds every offset 1..n-1
    wrapped: np.ndarray  # (n + D,) u, then u[:D] again
    heads: np.ndarray    # (n, D) view of wrapped: heads[i, d - 1] = u[(i + d) mod n]
    g: np.ndarray        # (n, D + 1) each link's head minus its row node
    work: np.ndarray     # (n, D + 1) scratch
    flux: np.ndarray     # (n + D, D + 1) rows n - D..n-1 of the fluxes, then all n
    rows: np.ndarray     # (n, D + 1) view: the fluxes, flux[D:]
    skew: np.ndarray     # (n, D) view of flux: skew[j, d - 1] = flux of the pair
                         # ((j - d) mod n, j)

    def _differences(self, u):
        n, fold = self.heads.shape
        self.wrapped[:n] = u
        self.wrapped[n:] = u[:fold]
        np.subtract(self.heads, u[:, None], out=self.g[:, :fold])
        np.negative(u, out=self.g[:, fold])
        return self.g

    def _sums(self):
        # Per node, the sums of the fluxes over the links it heads and over
        # those it is the row node of.
        n, fold = self.heads.shape
        self.flux[:fold] = self.flux[n:]
        return self.skew.sum(axis=1), self.rows.sum(axis=1)

    def parts(self, u, p, eps):
        # The smoothed power of _cell_terms, in place: the cell energies in
        # work and the fluxes m g weight in rows.
        g = self._differences(u)
        cell, m = self.work, self.rows
        np.multiply(g, g, out=cell)
        if p == 2.0:
            m[...] = g
        else:
            e2 = eps * eps
            cell += e2
            m[...] = cell
            m **= (p - 2.0) / 2.0
            cell *= m
            cell -= e2 ** ((p - 2.0) / 2.0) * e2
            m *= g
        m *= self.weights[p]
        cell *= self.weights[p]
        heads, rows = self._sums()
        # A numpy sum, not a BLAS dot with the weights: a dot this long wakes
        # the BLAS threads, which then slow the banded factorizations.
        return float(cell.sum()) / p, heads - rows

    def add_hessian(self, abT, u, p, eps):
        # The curvature of _cell_curvature, in place, times the weights: k
        # per link.  A pair's nodes each get k on the diagonal, from the
        # same two sums as the gradient, and -k at its band place.
        k = self.rows
        if p == 2.0:
            k[...] = self.weights[p]
        else:
            r2 = self._differences(u)
            r2 *= r2
            np.add(r2, eps * eps, out=k)
            np.divide(r2, k, out=r2, where=k > 0.0)  # 0 where |g|^2 + eps^2 is
            r2 *= p - 2.0
            r2 += 1.0
            k **= (p - 2.0) / 2.0
            k *= r2
            k *= self.weights[p]
        heads, rows = self._sums()
        abT[:u.size, 0] += heads + rows
        np.put(abT, self.band, np.negative(k, out=k))


def _fold(n):
    # The fold's layout on n nodes, with no weight table yet.
    fold = n // 2
    i, d = np.arange(n)[:, None], np.arange(1, fold + 1)
    j = (i + d) % n
    band = np.full((n, fold + 1), n * n)
    band[:, :fold] = np.minimum(i, j) * n + np.abs(j - i)
    if n % 2 == 0:
        band[fold:, fold - 1] = n * n
    wrapped, flux = np.zeros(n + fold), np.zeros((n + fold, fold + 1))
    step = flux.itemsize
    return _Fold(weights={}, band=band.ravel(), width=n, wrapped=wrapped,
                 heads=as_strided(wrapped[1:], (n, fold), (step, step), writeable=False),
                 g=np.zeros((n, fold + 1)), work=np.zeros((n, fold + 1)),
                 flux=flux, rows=flux[fold:],
                 skew=as_strided(flux[fold - 1:], (n, fold), (flux.strides[0], -fold * step),
                                 writeable=False))


def _links(dom, regime, p):
    # The one regime dispatch: the regime's link block, built on first use
    # and cached on the domain.  The fractional block adds its weight table
    # for p on the first use of p: the kernel's 2 w_d at each pair's band
    # place, whose offset d is the place mod n (0 at the place n * n, which
    # holds no pair), and 2 h kappa_i in the exterior column.
    key = ("links", regime)
    block = dom._cache.get(key)
    if block is None:
        validate_regime(dom, regime)
        if regime.kind == "fractional":
            block = _fold(dom.n_nodes)
        elif regime.kind == "robin":
            block = _Robin(_links(dom, BoundaryRegime.neumann(), p), dom.trace_index,
                           regime.beta, dom.trace_weight)
        elif dom.dimension == 1:
            block = _line(dom, regime)
        else:
            block = _build_cells(dom, regime.kind == "dirichlet")
        dom._cache[key] = block
    if regime.kind == "fractional" and p not in block.weights:
        ker = fractional.build_kernel(dom, regime.s, p)
        n = dom.n_nodes
        weight = np.append(0.0, 2.0 * ker.offsets)[block.band % n].reshape(n, -1)
        weight[:, -1] = 2.0 * dom.hx * ker.exterior
        block.weights[p] = weight
    return block


def _build_cells(dom, dirichlet):
    # The cells of a 2-D grid or mask.
    n = dom.n_nodes
    node = np.full(dom.shape, n)  # node n is the exterior zero
    node[np.ones(dom.shape, dtype=bool) if dom.mask is None else dom.mask] = np.arange(n)
    # Exterior points after the grid on each axis, and for Dirichlet one
    # before it too; a cell sits at every point but the last on each axis.
    ext = np.pad(node, 1 if dirichlet else (0, 1), constant_values=n)
    head = np.stack((ext[:-1, 1:].ravel(), ext[1:, :-1].ravel()))  # x, then y
    tail = np.broadcast_to(ext[:-1, :-1].ravel(), head.shape).copy()
    if not dirichlet:
        # Differences that leave the grid or the mask vanish: head = tail.
        dead = (head == n) | (tail == n)
        head[dead] = tail[dead]
    ends = np.stack((head, tail), axis=1)
    h = np.array([[dom.hx], [dom.hy]])
    live = head != tail
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
    return _Links(ends=ends, h=h, scale=dom.cell_volume,
                  flux=np.stack((dom.cell_volume / h, -dom.cell_volume / h), axis=1),
                  diag=np.where(live, np.stack((head, tail)), n),
                  band=np.where(inner, tail, n) * width + row, width=width)


def _differences(u, links):
    # One gather of every cell's differences, shape (dim, cells).
    x = np.concatenate((u, _EXTERIOR))[links.ends]
    return (x[:, 0] - x[:, 1]) / links.h


def _link_weights(u, p, eps, links):
    # The Hessian weight of every link of the 2-D cells.  A difference's
    # link has k = vol c / h^2 for the curvature c of its cell along that
    # axis.  A cell's cross term c_xy (a b^T + b a^T) / (hx hy), with
    # a = e_E - e_C and b = e_N - e_C, is c_xy (a a^T + b b^T -
    # (e_E - e_N)(e_E - e_N)^T): it adds k_xy = vol c_xy / (hx hy) to both
    # difference links and -k_xy to the E-N link.
    gx, gy = _differences(u, links)
    ab = np.stack((gx * gx, gy * gy, gx * gy))
    hh = np.concatenate((links.h * links.h, links.h[:1] * links.h[1:]))
    k = (links.scale / hh) * _cell_curvature(ab[0] + ab[1], ab, p, eps, _UNIT_2D)
    k[:2] += k[2]
    k[2] = -k[2]
    return k


def _parts(dom, u, params, regime):
    # (energy, raw partial derivatives) at u from the regime's block.  The
    # partials are the block's fresh result, their exact zeros made +0.0 in
    # place: the value and zero sign of a sum from 0.0.
    u = dom.check_field(u)
    e, raw = _links(dom, regime, params.p).parts(u, params.p, params.epsilon)
    raw += 0.0
    return e, raw


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
    block = _links(dom, regime, params.p)
    # Built transposed, one row per band column, with a spare row n for the
    # links that have no place off the diagonal.  The band is the first n
    # rows, transposed back, which is Fortran-ordered.
    abT = np.zeros((u.size + 1, block.width))
    block.add_hessian(abT, u, params.p, params.epsilon)
    return abT[:u.size].T


def stiffness(dom: Domain, regime: BoundaryRegime, p: float) -> np.ndarray:
    """K2, the p = 2 stiffness: ``energy_hessian``'s band at the zero field
    under p = 2, for a run at p.

    It is the same band for every p.  It reads the run's own link block,
    which for the fractional regime adds its p = 2 weight table once.
    """
    return energy_hessian(dom, np.zeros(dom.n_nodes), EnergyParams(2.0), regime)


def energy(dom: Domain, u, params: EnergyParams, regime: BoundaryRegime) -> float:
    """The regime's convex energy at u; zero at the zero field."""
    return _parts(dom, u, params, regime)[0]


def energy_gradient(dom: Domain, u, params: EnergyParams, regime: BoundaryRegime) -> np.ndarray:
    """Exact gradient of the implemented energy, as a pointwise density."""
    return _parts(dom, u, params, regime)[1] / dom.cell_volume


def energy_and_gradient(dom, u, params, regime):
    """(energy, raw partial derivatives) in one pass; solver hot path."""
    return _parts(dom, u, params, regime)

