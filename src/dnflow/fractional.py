"""Offset weights for the 1-D nonlocal (fractional) energy.

The energy on the interval (0, 1) with exterior value zero is

    E(u) = (1/p) [ sum_{i != j} h^2 |u_i - u_j|^p / |x_i - x_j|^(1+ps)
                   + 2 sum_i h kappa_i |u_i|^p ]

where kappa_i = (x_i^(-ps) + (1-x_i)^(-ps)) / (ps) is the closed-form tail
of the kernel over the exterior of the interval.  For p != 2 the powers are
smoothed the same way as the local energies, |z|^p -> (z^2+eps^2)^(p/2) -
eps^p; the symmetric extremal sits exactly on the p < 2 kinks of the bare
pairwise energy, so descent methods need the smoothing there.

On the uniform grid |x_i - x_j| = |i - j| h, so a pair's weight depends only
on its offset d = |i - j|: w_d = h^2 / (d h)^(1+ps), and the discretized
operator is Toeplitz.  A kernel holds the n - 1 offset weights and the n
exterior tails.  :mod:`dnflow.operators` builds one per (s, p) and folds it
into a circulant table that holds each unordered pair once, with one
exterior link per node; the fold is what the domain caches.  The p = 2
reference matrix of :mod:`dnflow.oracle` builds its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Domain
from .errors import UnsupportedRegimeError

__all__ = ["FractionalKernel", "build_kernel"]


@dataclass
class FractionalKernel:
    """Offset weights and exterior tail for one (s, p) pair.

    offsets[d - 1] = w_d = h^2 / (d h)^(1+ps) > 0 for offsets d = 1..n-1;
    exterior[i] = kappa_i > 0, symmetric under reflection of the interval.
    """

    offsets: np.ndarray
    exterior: np.ndarray


def build_kernel(dom: Domain, s: float, p: float) -> FractionalKernel:
    """Assemble the offset weights and exterior tail on an interval domain."""
    if dom.kind != "interval":
        raise UnsupportedRegimeError("fractional kernel needs an interval domain")
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0,1), got {s}")
    x = dom.nodes
    h = dom.hx
    ps = p * s
    offsets = h * h / (h * np.arange(1, x.size)) ** (1.0 + ps)
    exterior = (x ** (-ps) + (1.0 - x) ** (-ps)) / ps
    return FractionalKernel(offsets=offsets, exterior=exterior)

