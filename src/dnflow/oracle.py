"""Ground-truth eigenpairs (lambda_h, phi_h) for every regime.

``minimize_rayleigh`` drives the Rayleigh quotient to its minimum with
normalized inverse-power sweeps: each sweep solves the regime's elliptic
problem with data lambda*jp(u), renormalizes to unit L^p (shifting Neumann
iterates back to zero p-mean), and re-reads lambda and the eigen-residual
from one gradient, lambda being the multiplier <grad E(u), u> / sum |u_i|^p.
The sweep map's fixed points are exactly the discrete eigenfunctions, and
the contraction rate is mesh-independent, so the eigen-residual reaches
solver precision in a few dozen sweeps.  Where the sweeps stall above the
target, a damped Newton polish on the analytic Hessian finishes them, for
every regime and p.

``dense_linear_reference`` is the independent p = 2 oracle: it assembles the
operator matrix directly from the stencil (or the nonlocal kernel table) and
calls a dense symmetric eigensolver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .domain import Domain, integrate_power
from .elliptic import SolverConfig, inverse_operator, project_cperp, project_pmean
from .errors import BudgetError, DegenerateInputError, NonConvergenceError, SignViolationError
from .fractional import kernel_for
from .operators import (
    BoundaryRegime,
    EnergyParams,
    energy_gradient,
    energy_hessian,
    jp,
    validate_regime,
)

__all__ = [
    "EigenResult",
    "minimize_rayleigh",
    "dense_linear_reference",
    "operator_matrix",
    "extremal_sign_normalize",
    "eigen_residual",
]

MAX_SWEEPS = 400  # inverse-power sweep budget of minimize_rayleigh
POLISH_STEPS = 10  # Newton step budget of _newton_polish


@dataclass
class EigenResult:
    """Estimated optimal constant, its dual, and the normalized extremal."""

    lam: float
    mu: float
    extremal: np.ndarray
    iterations: int
    residual: float

    def summary(self) -> str:
        return f"{self.lam!r} {self.mu!r} {self.residual!r} {self.iterations}"


def eigen_residual(dom, u, lam, params, regime) -> float:
    """Weighted-l2 relative defect of the eigen-relation grad E = lam jp(u)."""
    return _defect(energy_gradient(dom, u, params, regime), lam * jp(u, params.p))


def _defect(g, target):
    denom = float(np.linalg.norm(target))
    if denom == 0.0:
        return math.inf
    return float(np.linalg.norm(g - target)) / denom


def _residual_lam(dom, u, params, regime):
    """(eigen-residual, lam) at u from one gradient.

    lam is the multiplier <grad E(u), u> / sum |u_i|^p of the eigen-relation;
    for eps = 0 it equals the Rayleigh quotient p E(u) / int |u|^p by Euler's
    identity.
    """
    g = energy_gradient(dom, u, params, regime)
    ju = jp(u, params.p)
    lam = float(g @ u) / float(ju @ u)
    return _defect(g, lam * ju), lam


def _normalize(dom, u, p, regime):
    # Onto the zero-p-mean set (Neumann), then to unit L^p.
    u = project_pmean(dom, u, p, regime)
    nrm = integrate_power(dom, u, p) ** (1.0 / p)
    if nrm == 0.0:
        raise DegenerateInputError("cannot normalize the zero field")
    return u / nrm


def _newton_polish(dom, best, params, regime, target):
    """Newton iteration on the eigen-system grad E(u) = lam jp(u), |u|_p = 1.

    Starts from best = (residual, u, lam) and returns the best such triple.
    The bordered Jacobian [[H_E/vol - lam (p-1) diag|u|^(p-2), -jp(u)],
    [vol jp(u)^T, 0]] takes the exact H_E from ``energy_hessian`` and is
    solved by one sparse LU per step.
    """
    from scipy.sparse import bmat, dia_matrix
    from scipy.sparse.linalg import spsolve

    p, vol = params.p, dom.cell_volume
    for _ in range(POLISH_STEPS):
        res, u, lam = best
        if res <= target:
            break
        ju = jp(u, p)
        # The lower band ab[d, j] = H[j + d, j] is scipy's dia layout at
        # offset -d; halving the diagonal makes L + L^T the whole matrix.
        ab = energy_hessian(dom, u, params, regime) / vol
        ab[0] = 0.5 * (ab[0] - lam * (p - 1.0) * np.abs(u) ** (p - 2.0))
        L = dia_matrix((ab, -np.arange(len(ab))), shape=(u.size, u.size))
        J = bmat([[L + L.T, -ju[:, None]], [vol * ju[None, :], None]], format="csc")
        rhs = np.append(lam * ju - energy_gradient(dom, u, params, regime),
                        (1.0 - integrate_power(dom, u, p)) / p)
        du = spsolve(J, rhs)[:-1]
        if not np.isfinite(du).all():
            break
        # Damped update: near the flat cell the Hessian varies on the eps
        # scale, so the full step can overshoot the linear model's validity.
        for alpha in 0.5 ** np.arange(30.0):
            u_new = _normalize(dom, u + alpha * du, p, regime)
            res_new, lam_new = _residual_lam(dom, u_new, params, regime)
            if res_new < res:  # False for nan
                best = (res_new, u_new, lam_new)
                break
        else:
            break
    return best


def minimize_rayleigh(dom: Domain, params: EnergyParams, regime: BoundaryRegime,
                      cfg: SolverConfig, seed: int = 0) -> EigenResult:
    """Minimize p*E(u) / int |u|^p over unit-L^p fields (zero p-mean for Neumann).

    Deterministic given the seed; runs at most MAX_SWEEPS = 400 sweeps and
    then the Newton polish.  lam is the eigen-relation multiplier.  The
    returned pair satisfies the eigen-relation to within 10*grad_tol in the
    weighted relative norm, or a non-convergence error carries out the best
    iterate.
    """
    validate_regime(dom, regime)
    p = params.p
    rng = np.random.default_rng(seed)
    u = _normalize(dom, rng.uniform(0.5, 1.5, dom.n_nodes), p, regime)  # positive start
    res, lam = _residual_lam(dom, u, params, regime)

    target = 3.0 * cfg.grad_tol
    best = (math.inf, u, lam)
    sweeps = 0
    stall = 0
    prev_step = None
    while sweeps < MAX_SWEEPS:
        if res <= target or stall >= 3:
            break
        inner_tol = max(min(0.05 * res, 1e-3), 0.3 * cfg.grad_tol)
        inner_cfg = replace(cfg, grad_tol=inner_tol)
        f = project_cperp(lam * jp(u, p), regime)
        u_old, res_old = u, res
        try:
            u = inverse_operator(dom, f, params, regime, inner_cfg, warm_start=u)
        except NonConvergenceError as err:
            # Inner solve hit its rounding floor; its best iterate still
            # advances the sweep.
            if err.last_iterate is None:
                raise
            u = err.last_iterate
        u = _normalize(dom, u, p, regime)
        res, lam = _residual_lam(dom, u, params, regime)

        # Aitken extrapolation of the dominant error mode: when consecutive
        # sweep steps align (slow geometric contraction, small spectral
        # gap), jump along the step direction; adopted only on improvement.
        step = u - u_old
        if prev_step is not None and res_old < 1e-3:
            den = float(prev_step @ prev_step)
            rho = float(step @ prev_step) / den if den > 0 else 0.0
            if 0.2 < rho < 0.995:
                u_try = _normalize(dom, u + (rho / (1.0 - rho)) * step, p, regime)
                res_try, lam_try = _residual_lam(dom, u_try, params, regime)
                if res_try < res:
                    u, res, lam = u_try, res_try, lam_try
                    step = u - u_old
        prev_step = step

        sweeps += 1
        # Stalled at the rounding floor of this problem: stop retrying.
        stall = stall + 1 if res >= 0.98 * best[0] else 0
        if res < best[0]:
            best = (res, u, lam)

    # Sweeps slow to a crawl when the extremal has a nearly flat curvature
    # direction, and stall at their rounding floor near p = 1.5.
    best = min((res, u, lam), best, key=lambda t: t[0])
    if best[0] > target:
        best = _newton_polish(dom, best, params, regime, target)
    res, u, lam = best
    if res > 10.0 * cfg.grad_tol:
        raise NonConvergenceError(
            f"eigen-residual above 10*grad_tol after {sweeps} sweeps",
            last_iterate=u, residual=res, regime=regime.kind, p=p)
    u = extremal_sign_normalize(u, regime, tol=10.0 * cfg.grad_tol)
    return EigenResult(lam=lam, mu=lam ** (1.0 / (p - 1.0)), extremal=u,
                       iterations=sweeps, residual=res)


def _local_link_matrix(dom: Domain, regime: BoundaryRegime) -> np.ndarray:
    """Assemble the p=2 density-form operator from the link structure."""
    n = dom.n_nodes
    if dom.dimension == 1:
        index = np.arange(n)[None, :]
    else:
        mask = np.ones(dom.shape, dtype=bool) if dom.mask is None else dom.mask
        index = np.full(mask.shape, n)
        index[mask] = np.arange(n)
    # Index n is everything outside the grid or mask.  Its row and column
    # are cut off at the end, so under Dirichlet a link to it only adds to
    # the inside node's diagonal (the implicit zero boundary); Neumann
    # drops such links.
    node = np.pad(index, 1, constant_values=n)
    links = [(node[1:-1, :-1], node[1:-1, 1:], dom.hx)]
    if dom.dimension == 2:
        links.append((node[:-1, 1:-1], node[1:, 1:-1], dom.hy))
    A = np.zeros((n + 1, n + 1))
    for a, b, h in links:
        a, b = a.ravel(), b.ravel()
        if regime.kind != "dirichlet":
            inside = (a < n) & (b < n)
            a, b = a[inside], b[inside]
        for i, j, w in ((a, a, 1.0), (b, b, 1.0), (a, b, -1.0), (b, a, -1.0)):
            np.add.at(A, (i, j), w / (h * h))
    A = A[:n, :n]
    if regime.kind == "robin":
        vol = dom.cell_volume
        for t, w in zip(dom.trace_index, dom.trace_weight):
            A[t, t] += regime.beta * w / vol
    return A


def operator_matrix(dom: Domain, regime: BoundaryRegime) -> np.ndarray:
    """The symmetric matrix A with energy(u) = (vol/2) u^T A u at p = 2.

    Local regimes come from the finite-difference link structure; the
    nonlocal regime reuses the kernel table so the matrix is exactly the
    operator the flow evolves under.
    """
    validate_regime(dom, regime)
    if regime.kind == "fractional":
        ker = kernel_for(dom, regime.s, 2.0)
        h = dom.hx
        A = -(2.0 / h) * ker.weights
        np.fill_diagonal(A, (2.0 / h) * ker.weights.sum(axis=1) + 2.0 * ker.exterior)
        return A
    return _local_link_matrix(dom, regime)


def dense_linear_reference(dom: Domain, regime: BoundaryRegime,
                           max_nodes: int = 2000) -> EigenResult:
    """Smallest eigenpair of the p = 2 operator via a dense symmetric solve.

    For the Neumann regime the constant nullspace is skipped and the
    smallest nonzero eigenvalue is returned.
    """
    if dom.n_nodes > max_nodes:
        raise BudgetError(f"dense reference capped at {max_nodes} nodes, "
                          f"domain has {dom.n_nodes}")
    A = operator_matrix(dom, regime)
    vals, vecs = scipy.linalg.eigh(A)
    idx = 0
    if regime.kind == "neumann":
        floor = 1e-8 * max(abs(vals[0]), abs(vals[-1]))
        while idx < vals.size and abs(vals[idx]) <= floor:
            idx += 1
    lam = float(vals[idx])
    u = vecs[:, idx]
    u = u / integrate_power(dom, u, 2.0) ** 0.5
    u = extremal_sign_normalize(u, regime, tol=1e-8)
    res = eigen_residual(dom, u, lam, EnergyParams(2.0), regime)
    return EigenResult(lam=lam, mu=lam, extremal=u, iterations=0, residual=res)


def extremal_sign_normalize(u, regime: BoundaryRegime | None = None,
                            tol: float = 1e-8) -> np.ndarray:
    """Flip sign so the first node within a relative 1e-6 of max |u| is positive.

    The window keeps the sign deterministic where |u| ties up to rounding,
    as at both ends of an odd Neumann extremal.  Dirichlet, Robin, and
    nonlocal extremals must then be single-signed up to `tol`; Neumann
    extremals are exempt (they change sign by the zero p-mean constraint).
    """
    u = np.asarray(u, dtype=float)
    if not u.any():
        raise DegenerateInputError("cannot sign-normalize the zero field")
    size = np.abs(u)
    peak = int(np.argmax(size >= (1.0 - 1e-6) * size.max()))
    if u[peak] < 0:
        u = -u
    if regime is not None and regime.kind != "neumann":
        if float(np.min(u)) < -tol * float(u[peak]):
            raise SignViolationError(
                f"profile changes sign: min {np.min(u):.3e} at tolerance {tol:.1e}")
    return u
