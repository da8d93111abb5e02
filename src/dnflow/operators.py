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


def _local_2d(dom, u, p, eps, dirichlet):
    hx, hy, vol = dom.hx, dom.hy, dom.cell_volume
    ny, nx = dom.shape
    mask = dom.mask
    # The grid inside the extended grid P: behind a ring of exterior zeros
    # (Dirichlet), or at its origin with the last row and column repeated
    # (Neumann).  Off-mask nodes hold zeros.
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
    # One cell per node of P but its last row and column.
    gx = np.diff(P, axis=1)[:-1, :] / hx
    gy = np.diff(P, axis=0)[:, :-1] / hy
    if mask is not None and not dirichlet:
        gx[:, :-1] = np.where(mask[:, 1:] & mask[:, :-1], gx[:, :-1], 0.0)
        gy[:-1, :] = np.where(mask[1:, :] & mask[:-1, :], gy[:-1, :], 0.0)
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
    return e_val, (inner.ravel() if mask is None else inner[mask])


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
