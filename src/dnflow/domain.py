"""Discretized spatial domains: uniform grids with quadrature and boundary data.

Fields are plain float arrays holding one value per interior node.  Exterior
values are implied (zero for Dirichlet-type energies) and never stored.  All
integrals use the midpoint rule: every interior node carries the same cell
volume h**dim, so the discrete measure of the domain is ``n_nodes * cell_volume``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyDomainError,
    FieldShapeError,
    InvalidMaskError,
    InvalidResolutionError,
)

__all__ = [
    "Domain",
    "build_interval",
    "build_rectangle",
    "build_masked",
    "load_mask",
    "integrate_power",
    "lp_norm",
]


@dataclass
class Domain:
    """A discretized region.

    Its grid data are not changed after construction, but the link blocks in
    ``_cache`` keep work buffers, so threads must not share a domain;
    separate processes, such as the workers of ``sweep --jobs``, are fine.

    Attributes
    ----------
    kind : str
        One of ``interval``, ``rectangle``, ``masked``.
    dimension : int
        1 or 2.
    hx, hy : float
        Grid spacing per axis (``hy`` is 0.0 for 1-D domains).
    nodes : ndarray
        Interior node coordinates, shape ``(n,)`` in 1-D or ``(n, 2)`` in 2-D,
        ordered row-major.
    trace_index : ndarray of int
        For each boundary surface element, the interior node carrying its
        trace value.  Empty on masked domains.
    trace_weight : ndarray of float
        Surface measure h**(dim-1) per boundary element; Voronoi-split along
        rectangle edges so each edge integrates to its exact length.
    shape : tuple
        Grid shape: ``(n,)``, ``(ny, nx)``, or the masked bounding box.
    mask : ndarray of bool or None
        The bitmap for masked domains.
    _cache : dict
        The link blocks of :mod:`dnflow.operators`, one per regime, derived
        from the grid alone and keyed ``("links", regime, p)`` with p None
        for the local regimes; each is written once on first use and not
        changed after.  An entry may be dropped, as the oracle's start drops
        the p = 2 fractional block it built for a run at another p, and is
        then built again on its next use.
    """

    kind: str
    dimension: int
    hx: float
    hy: float
    nodes: np.ndarray
    trace_index: np.ndarray
    trace_weight: np.ndarray
    shape: tuple
    mask: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def cell_volume(self) -> float:
        return self.hx if self.dimension == 1 else self.hx * self.hy

    def check_field(self, u) -> np.ndarray:
        if type(u) is not np.ndarray or u.dtype != float:
            u = np.asarray(u, dtype=float)
        if u.shape != (self.n_nodes,):
            raise FieldShapeError(
                f"field has shape {u.shape}, domain has {self.n_nodes} nodes"
            )
        return u


def build_interval(n: int) -> Domain:
    """Uniform grid on (0, 1) with n interior nodes and h = 1/(n+1).

    Node i sits at (i+1)*h; the endpoints 0 and 1 hold implicit Dirichlet
    zeros.  The two boundary elements take their trace value from the
    adjacent interior node with unit (h**0) surface weight.
    """
    if n < 3:
        raise InvalidResolutionError(f"interval needs n >= 3 nodes, got {n}")
    h = 1.0 / (n + 1)
    nodes = h * np.arange(1, n + 1, dtype=float)
    return Domain(
        kind="interval",
        dimension=1,
        hx=h,
        hy=0.0,
        nodes=nodes,
        trace_index=np.array([0, n - 1]),
        trace_weight=np.array([1.0, 1.0]),
        shape=(n,),
    )


def _edge_voronoi_weights(count: int, h: float) -> np.ndarray:
    # Nearest-node split of an edge of length (count+1)*h among `count`
    # boundary-adjacent nodes: 1.5h at the two ends, h in between.
    w = np.full(count, h)
    w[0] += 0.5 * h
    w[-1] += 0.5 * h
    return w


def build_rectangle(nx: int, ny: int, lx: float, ly: float) -> Domain:
    """Tensor grid on (0, lx) x (0, ly) with nx*ny interior nodes.

    Spacings hx = lx/(nx+1) and hy = ly/(ny+1) are carried separately when
    anisotropic.  Boundary elements along each edge take trace values from
    the adjacent interior nodes; edge weights sum to the exact edge length.
    """
    if nx < 3 or ny < 3:
        raise InvalidResolutionError(f"rectangle needs nx,ny >= 3, got ({nx},{ny})")
    if not (0 < lx < math.inf and 0 < ly < math.inf):
        raise InvalidResolutionError(
            f"rectangle needs positive lengths, each finite, got ({lx},{ly})")
    hx = lx / (nx + 1)
    hy = ly / (ny + 1)
    xs = hx * np.arange(1, nx + 1, dtype=float)
    ys = hy * np.arange(1, ny + 1, dtype=float)
    gx, gy = np.meshgrid(xs, ys)  # row-major: iy outer, ix inner
    nodes = np.column_stack([gx.ravel(), gy.ravel()])
    # Boundary elements edge by edge: bottom (y = 0), top (y = ly), left
    # (x = 0), right (x = lx).
    flat = np.arange(nx * ny).reshape(ny, nx)
    wx = _edge_voronoi_weights(nx, hx)
    wy = _edge_voronoi_weights(ny, hy)
    return Domain(
        kind="rectangle",
        dimension=2,
        hx=hx,
        hy=hy,
        nodes=nodes,
        trace_index=np.concatenate((flat[0], flat[-1], flat[:, 0], flat[:, -1])),
        trace_weight=np.concatenate((wx, wx, wy, wy)),
        shape=(ny, nx),
    )


def build_masked(bitmap, h: float) -> Domain:
    """Domain from a 2-D boolean bitmap; true cells are the interior nodes.

    Cell (i, j) sits at ((j+1)*h, (i+1)*h) so a full bitmap reproduces
    ``build_rectangle`` node for node.  Gradients use zero extension outside
    the mask (homogeneous Dirichlet); there is no boundary trace, so Robin
    is rejected on this kind.
    """
    mask = np.asarray(bitmap, dtype=bool)
    if mask.ndim != 2:
        raise InvalidMaskError(f"bitmap must be 2-D, got ndim={mask.ndim}")
    if not 0 < h < math.inf:
        raise InvalidResolutionError(f"spacing must be positive and finite, got {h}")
    if not mask.any():
        raise EmptyDomainError("bitmap has no true cells")
    neigh = np.zeros_like(mask)
    neigh[:, 1:] |= mask[:, :-1]
    neigh[:, :-1] |= mask[:, 1:]
    neigh[1:, :] |= mask[:-1, :]
    neigh[:-1, :] |= mask[1:, :]
    isolated = mask & ~neigh
    if isolated.any():
        i, j = np.argwhere(isolated)[0]
        raise InvalidMaskError(f"isolated cell at row {i}, col {j}")

    rows, cols = np.nonzero(mask)  # row-major order over true cells
    nodes = np.column_stack([(cols + 1) * h, (rows + 1) * h])
    return Domain(
        kind="masked",
        dimension=2,
        hx=h,
        hy=h,
        nodes=nodes,
        trace_index=np.array([], dtype=int),
        trace_weight=np.array([]),
        shape=mask.shape,
        mask=mask,
    )


def load_mask(path) -> Domain:
    """Read a bitmap file: first line ``rows cols h``, then rows of 0/1 chars."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise InvalidMaskError(f"{path}: empty mask file")
    head = lines[0].split()
    if len(head) != 3:
        raise InvalidMaskError(f"{path}: header must be 'rows cols h'")
    try:
        rows, cols, h = int(head[0]), int(head[1]), float(head[2])
    except ValueError:
        raise InvalidMaskError(f"{path}: header must be 'rows cols h', got {lines[0]!r}") from None
    if len(lines) - 1 != rows:
        raise InvalidMaskError(f"{path}: expected {rows} bitmap rows, got {len(lines) - 1}")
    bitmap = np.zeros((rows, cols), dtype=bool)
    for i, ln in enumerate(lines[1:]):
        if len(ln) != cols or set(ln) - {"0", "1"}:
            raise InvalidMaskError(f"{path}: bad bitmap row {i}: {ln!r}")
        bitmap[i] = np.frombuffer(ln.encode(), dtype=np.uint8) == ord("1")
    return build_masked(bitmap, h)


def integrate_power(dom: Domain, u, r: float) -> float:
    """Midpoint-rule integral of |u|**r over the domain.

    Positively homogeneous of degree r in u; this is the discrete
    ``int |u|^r dx`` entering every norm and quotient.
    """
    if r <= 0:
        raise ValueError(f"exponent must be positive, got {r}")
    u = dom.check_field(u)
    return float(dom.cell_volume * (np.abs(u) ** r).sum())


def lp_norm(dom: Domain, u, p: float) -> float:
    """Discrete L^p norm, integrate_power(...)**(1/p)."""
    return integrate_power(dom, u, p) ** (1.0 / p)
