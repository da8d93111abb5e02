"""Pairwise kernel tables for the 1-D nonlocal (fractional) energy.

The energy on the interval (0, 1) with exterior value zero is

    E(u) = (1/p) [ sum_{i != j} h^2 |u_i - u_j|^p / |x_i - x_j|^(1+ps)
                   + 2 sum_i h kappa_i |u_i|^p ]

where kappa_i = (x_i^(-ps) + (1-x_i)^(-ps)) / (ps) is the closed-form tail
of the kernel over the exterior of the interval.  For p != 2 the powers are
smoothed the same way as the local energies, |z|^p -> (z^2+eps^2)^(p/2) -
eps^p; the symmetric extremal sits exactly on the p < 2 kinks of the bare
pairwise energy, so descent methods need the smoothing there.  Tables cost
O(n^2) memory and are cached on the domain, so repeated energy evaluations
only pay the matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Domain
from .errors import UnsupportedRegimeError

__all__ = ["FractionalKernel", "build_kernel", "kernel_for"]


@dataclass
class FractionalKernel:
    """Symmetric pair weights and exterior tail for one (s, p) pair.

    weights[i, j] = h^2 / |x_i - x_j|^(1+ps) for i != j, zero on the
    diagonal (the integrand vanishes there); exterior[i] = kappa_i > 0,
    symmetric under reflection of the interval.
    """

    weights: np.ndarray
    exterior: np.ndarray


def build_kernel(dom: Domain, s: float, p: float) -> FractionalKernel:
    """Assemble the pair-weight table and exterior tail on an interval domain."""
    if dom.kind != "interval":
        raise UnsupportedRegimeError("fractional kernel needs an interval domain")
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0,1), got {s}")
    x = dom.nodes
    h = dom.hx
    ps = p * s
    dist = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(dist, 1.0)  # placeholder; diagonal weight is zeroed below
    weights = h * h / dist ** (1.0 + ps)
    np.fill_diagonal(weights, 0.0)
    exterior = (x ** (-ps) + (1.0 - x) ** (-ps)) / ps
    return FractionalKernel(weights=weights, exterior=exterior)


def kernel_for(dom: Domain, s: float, p: float) -> FractionalKernel:
    """Cached kernel lookup keyed on (s, p); domains are immutable."""
    key = ("fractional_kernel", float(s), float(p))
    ker = dom._cache.get(key)
    if ker is None:
        ker = build_kernel(dom, s, p)
        dom._cache[key] = ker
    return ker
