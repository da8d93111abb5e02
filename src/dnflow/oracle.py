"""Ground-truth eigenpairs (lambda_h, phi_h) for every regime.

``minimize_rayleigh`` drives the Rayleigh quotient to its minimum with
normalized inverse-power sweeps: each sweep solves the regime's elliptic
problem with data lambda*jp(u), renormalizes to unit L^p (shifting Neumann
iterates back to zero p-mean), and re-reads the quotient.  The sweep map's
fixed points are exactly the discrete eigenfunctions, and the contraction
rate is mesh-independent, so the eigen-residual reaches solver precision in
a few dozen sweeps.

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
    energy,
    energy_gradient,
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
    g = energy_gradient(dom, u, params, regime)
    target = lam * jp(u, params.p)
    denom = float(np.linalg.norm(target))
    if denom == 0.0:
        return math.inf
    return float(np.linalg.norm(g - target)) / denom


def _unit_lp(dom, u, p):
    nrm = integrate_power(dom, u, p) ** (1.0 / p)
    if nrm == 0.0:
        raise DegenerateInputError("cannot normalize the zero field")
    return u / nrm


def _newton_polish(dom, u, lam, params, regime, target, max_steps=10):
    """Newton iteration on the eigen-system grad E(u) = lam jp(u), |u|_p = 1.

    The Jacobian columns come from central differences of energy_gradient,
    which keeps the polish regime-agnostic.  Inverse-power sweeps slow to an
    algebraic crawl when the discrete extremal has a nearly flat curvature
    direction (p > 2 with the profile peak between nodes); Newton restores
    fast terminal convergence there.  Returns the best (residual, u, lam).
    """
    p = params.p
    n = dom.n_nodes
    best = (eigen_residual(dom, u, lam, params, regime), u, lam)
    for _ in range(max_steps):
        res, u, lam = best
        if res <= target:
            break
        ju = jp(u, p)
        g = energy_gradient(dom, u, params, regime)
        delta = 1e-5 * max(1.0, float(np.max(np.abs(u))))
        J = np.empty((n + 1, n + 1))
        for i in range(n):
            up = u.copy(); up[i] += delta
            dn = u.copy(); dn[i] -= delta
            J[:n, i] = (energy_gradient(dom, up, params, regime)
                        - energy_gradient(dom, dn, params, regime)) / (2 * delta)
        J[:n, :n] -= lam * (p - 1.0) * np.diag(np.abs(u) ** (p - 2.0))
        J[:n, n] = -ju
        J[n, :n] = dom.cell_volume * ju
        J[n, n] = 0.0
        rhs = np.empty(n + 1)
        rhs[:n] = -(g - lam * ju)
        rhs[n] = -(integrate_power(dom, u, p) - 1.0) / p
        try:
            step = np.linalg.solve(J, rhs)
        except np.linalg.LinAlgError:
            break
        # Damped update: near the flat cell the Hessian varies on the eps
        # scale, so the full step can overshoot the linear model's validity.
        improved = False
        alpha = 1.0
        for _ in range(30):
            u_new = _unit_lp(dom, u + alpha * step[:n], p)
            lam_new = p * energy(dom, u_new, params, regime)
            res_new = eigen_residual(dom, u_new, lam_new, params, regime)
            if np.isfinite(res_new) and res_new < res:
                best = (res_new, u_new, lam_new)
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
    return best


def minimize_rayleigh(dom: Domain, params: EnergyParams, regime: BoundaryRegime,
                      cfg: SolverConfig, seed: int = 0) -> EigenResult:
    """Minimize p*E(u) / int |u|^p over unit-L^p fields (zero p-mean for Neumann).

    Deterministic given the seed; runs at most MAX_SWEEPS = 400 sweeps.  The
    returned pair satisfies the eigen-relation to within 10*grad_tol in the
    weighted relative norm, or a non-convergence error carries out the best
    iterate.
    """
    validate_regime(dom, regime)
    p = params.p
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.5, 1.5, dom.n_nodes)  # positive start
    u = _unit_lp(dom, project_pmean(dom, u, p, regime), p)
    lam = p * energy(dom, u, params, regime)

    target = 3.0 * cfg.grad_tol
    best = (math.inf, u, lam)
    sweeps = 0
    stall = 0
    prev_step = None
    res = eigen_residual(dom, u, lam, params, regime)
    while sweeps < MAX_SWEEPS:
        if res <= target or stall >= 3:
            break
        inner_tol = max(min(0.05 * res, 1e-3), 0.3 * cfg.grad_tol)
        inner_cfg = replace(cfg, grad_tol=inner_tol)
        f = project_cperp(lam * jp(u, p), regime)
        u_old = u
        try:
            u = inverse_operator(dom, f, params, regime, inner_cfg, warm_start=u)
        except NonConvergenceError as err:
            # Inner solve hit its rounding floor; its best iterate still
            # advances the sweep.
            if err.last_iterate is None:
                raise
            u = err.last_iterate
        u = _unit_lp(dom, project_pmean(dom, u, p, regime), p)

        # Aitken extrapolation of the dominant error mode: when consecutive
        # sweep steps align (slow geometric contraction, small spectral
        # gap), jump along the step direction; adopted only on improvement.
        step = u - u_old
        if prev_step is not None and res < 1e-3:
            den = float(prev_step @ prev_step)
            rho = float(step @ prev_step) / den if den > 0 else 0.0
            if 0.2 < rho < 0.995:
                u_try = u + (rho / (1.0 - rho)) * step
                u_try = _unit_lp(dom, project_pmean(dom, u_try, p, regime), p)
                lam_try = p * energy(dom, u_try, params, regime)
                res_try = eigen_residual(dom, u_try, lam_try, params, regime)
                if res_try < eigen_residual(
                        dom, u, p * energy(dom, u, params, regime), params, regime):
                    step = u_try - u_old
                    u = u_try
        prev_step = step

        lam = p * energy(dom, u, params, regime) / integrate_power(dom, u, p)
        sweeps += 1
        res = eigen_residual(dom, u, lam, params, regime)
        # Stalled at the rounding floor of this problem: stop retrying.
        stall = stall + 1 if res >= 0.98 * best[0] else 0
        if res < best[0]:
            best = (res, u, lam)

    res, u, lam = min((res, u, lam), best, key=lambda t: t[0])
    if res > target and regime.kind != "neumann" and p >= 2.0:
        res, u, lam = _newton_polish(dom, u, lam, params, regime, target)
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
    A = np.zeros((n, n))
    if dom.dimension == 1:
        h2 = dom.hx * dom.hx
        for i in range(n):
            for j in (i - 1, i + 1):
                if 0 <= j < n:
                    A[i, i] += 1.0 / h2
                    A[i, j] -= 1.0 / h2
                elif regime.kind == "dirichlet":
                    A[i, i] += 1.0 / h2  # link to the implicit zero boundary
    else:
        if dom.kind == "masked":
            mask = dom.mask
            index = -np.ones(mask.shape, dtype=int)
            index[mask] = np.arange(n)
        else:
            ny, nx = dom.shape
            mask = np.ones((ny, nx), dtype=bool)
            index = np.arange(n).reshape(ny, nx)
        rows, cols = mask.shape
        inv = {"x": 1.0 / (dom.hx * dom.hx), "y": 1.0 / (dom.hy * dom.hy)}
        for r in range(rows):
            for c in range(cols):
                if not mask[r, c]:
                    continue
                i = index[r, c]
                for (dr, dc, axis) in ((0, 1, "x"), (0, -1, "x"), (1, 0, "y"), (-1, 0, "y")):
                    rr, cc = r + dr, c + dc
                    inside = 0 <= rr < rows and 0 <= cc < cols and mask[rr, cc]
                    if inside:
                        A[i, i] += inv[axis]
                        A[i, index[rr, cc]] -= inv[axis]
                    elif regime.kind == "dirichlet":
                        A[i, i] += inv[axis]
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
    """Flip sign so the node of maximal |value| is positive.

    Dirichlet, Robin, and nonlocal extremals must then be single-signed up
    to `tol`; Neumann extremals are exempt (they change sign by the zero
    p-mean constraint).
    """
    u = np.asarray(u, dtype=float)
    if not u.any():
        raise DegenerateInputError("cannot sign-normalize the zero field")
    peak = int(np.argmax(np.abs(u)))
    if u[peak] < 0:
        u = -u
    if regime is not None and regime.kind != "neumann":
        if float(np.min(u)) < -tol * float(u[peak]):
            raise SignViolationError(
                f"profile changes sign: min {np.min(u):.3e} at tolerance {tol:.1e}")
    return u
