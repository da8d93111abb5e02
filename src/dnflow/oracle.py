"""Ground-truth eigenpairs (lambda_h, phi_h) for every regime.

``minimize_rayleigh`` drives the Rayleigh quotient to its minimum with
normalized inverse-power sweeps: each sweep solves the regime's elliptic
problem with data lambda*jp(u), renormalizes to unit L^p (shifting Neumann
iterates back to zero p-mean), and re-reads lambda and the eigen-residual
from one gradient, lambda being the multiplier <grad E(u), u> / sum |u_i|^p.
The sweeps start from the p = 2 ground state, which linear inverse power
on one factor of K2, the p = 2 stiffness, reaches from a seeded positive
field to the sweeps' own target: at p = 2 that is the answer, and no sweep
runs.  At p != 2 the start is symmetric to rounding, so the sweeps have no
antisymmetric part of the noise to crawl on.
The sweep map's fixed points are exactly the discrete eigenfunctions, and
the contraction rate is mesh-independent, so the eigen-residual reaches
solver precision in a few dozen sweeps.  Where the sweeps stall above the
target, a damped Newton polish on the analytic Hessian finishes them, for
every regime and p, with one banded LU per step.

``dense_linear_reference`` is the independent p = 2 oracle: it assembles the
operator matrix directly from the stencil (or the nonlocal offset weights) and
asks LAPACK ``dsyevr`` for one pair, the smallest, by index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Domain, integrate_power
from .elliptic import (
    SolveContext,
    SolverConfig,
    _factor,
    _lapack_banded,
    _norm,
    inverse_operator,
    project_cperp,
    project_pmean,
)
from .errors import BudgetError, DegenerateInputError, NonConvergenceError, SignViolationError
from . import fractional
from .operators import (
    BoundaryRegime,
    EnergyParams,
    energy_and_gradient,
    energy_gradient,
    energy_hessian,
    jp,
    stiffness,
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

MAX_SWEEPS = 400  # step budget of minimize_rayleigh: its sweeps, and its start's
POLISH_STEPS = 10  # Newton step budget of _newton_polish
DENSE_MAX_NODES = 2000  # node cap of dense_linear_reference's O(n^3) solve


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
    denom = _norm(target)
    if denom == 0.0:
        return math.inf
    return _norm(g - target) / denom


def _residual_lam(dom, u, params, regime):
    """(eigen-residual, lam, evaluation) at u from one evaluation.

    lam is the multiplier <grad E(u), u> / sum |u_i|^p of the eigen-relation;
    for eps = 0 it equals the Rayleigh quotient p E(u) / int |u|^p by Euler's
    identity.  evaluation is energy_and_gradient's (E, raw partials) at u,
    which the next sweep holds on its context for its inverse solve, warm
    started at u, to take.
    """
    e_val, raw = energy_and_gradient(dom, u, params, regime)
    g = raw / dom.cell_volume
    ju = jp(u, params.p)
    lam = float(g @ u) / float(ju @ u)
    return _defect(g, lam * ju), lam, (e_val, raw)


def _normalize(dom, u, p, regime):
    # Onto the zero-p-mean set (Neumann), then to unit L^p.
    u = project_pmean(dom, u, p, regime)
    nrm = integrate_power(dom, u, p) ** (1.0 / p)
    if nrm == 0.0:
        raise DegenerateInputError("cannot normalize the zero field")
    return u / nrm


def _start(dom, p, regime, seed, target):
    """The sweeps' start: the p = 2 ground state, by inverse power on K2 from
    the seeded positive field g = U(0.5, 1.5), normalized.

    K2, the p = 2 stiffness of operators.stiffness, is factored once,
    and each step is u <- K2^-1 cperp(u) at max|u| = 1.  The steps stop when
    the max-norm change of the iterate is at most target, the sweeps' own, or
    after MAX_SWEEPS steps.  At p = 2 the start is then the oracle's answer.
    At p != 2 it is symmetric to rounding, so the sweeps have no
    antisymmetric part of the noise to crawl on.  The change is not watched
    for a floor: at Neumann it rises for up to 4 steps while the first mode
    overtakes the second, and a target below rounding stalls the sweeps
    after the start at far greater cost.
    The factor is dropped on return, so its band is not held during the
    sweeps.
    K2^-1 is positive for Dirichlet, Robin and fractional (an M-matrix
    inverse).  For Neumann each step takes the C-perp part, so the steps
    converge to the first nontrivial mode, and the start is shifted to zero
    p-mean.
    """
    g = np.random.default_rng(seed).uniform(0.5, 1.5, dom.n_nodes)
    solve = _factor(stiffness(dom, regime, p))
    u = project_cperp(g, regime)
    for _ in range(MAX_SWEEPS):
        # Neumann: the factor's FACTOR_SHIFT leaves the constant mode a tiny
        # eigenvalue, which blows its rounding up; so project again.
        w = project_cperp(solve(u), regime)
        u, u_old = w / np.abs(w).max(), u
        if float(np.abs(u - u_old).max()) <= target:
            break
    return _normalize(dom, u, p, regime)


def _bordered_solve(lower, b, c, f, g):
    """(x, y) with K x + b y = f and c^T x = g; None when K does not factor
    or the bordered matrix is singular.

    K is symmetric, given by its lower band ``lower[d, j] = K[j + d, j]``.  It
    is factored once by pivoted banded LU (LAPACK gbtrf) and the border is
    removed by mixed block elimination (Govaerts & Pryce, IMA J. Numer. Anal.
    1993): three solves on that factor, one of them transposed.  Unlike plain
    block elimination this stays accurate while K is nearly singular, as it
    is at an eigenpair, provided the bordered matrix is not.
    """
    _, _, gbtrf, gbtrs = _lapack_banded()
    bw, n = lower.shape[0] - 1, lower.shape[1]
    # The general-band layout with kl = ku = bw: K[i, j] at ab[2 bw + i - j, j],
    # below it bw rows of room for the LU's fill-in.
    ab = np.zeros((3 * bw + 1, n), order="F")
    ab[2 * bw:] = lower
    for d in range(1, bw + 1):
        ab[2 * bw - d, d:] = lower[d, :n - d]
    lu, piv, info = gbtrf(ab, bw, bw, overwrite_ab=1)
    if info != 0:
        return None

    def solve(rhs, trans=0):
        return gbtrs(lu, bw, bw, rhs, piv, trans=trans)[0]

    v = solve(c, trans=1)
    w = solve(b)
    delta_t, delta = -float(b @ v), -float(c @ w)  # the Schur complement, twice
    if delta_t == 0.0 or delta == 0.0:
        return None
    y1 = (g - float(v @ f)) / delta_t
    xi = solve(f - y1 * b)
    y2 = (g - float(c @ xi)) / delta
    return xi - y2 * w, y1 + y2


def _newton_system(dom, u, lam, params, regime):
    """The polish's bordered Newton system at (u, lam), as (lower, b, c, f, g)
    for ``_bordered_solve``: K = H_E/vol - lam (p-1) diag|u|^(p-2) with the
    exact H_E from ``energy_hessian``, b = -jp(u), c = vol jp(u), f the
    eigen-relation's defect and g the unit-L^p constraint's."""
    p, vol = params.p, dom.cell_volume
    ju = jp(u, p)
    lower = energy_hessian(dom, u, params, regime) / vol
    lower[0] -= lam * (p - 1.0) * np.abs(u) ** (p - 2.0)
    return (lower, -ju, vol * ju, lam * ju - energy_gradient(dom, u, params, regime),
            (1.0 - integrate_power(dom, u, p)) / p)


def _newton_polish(dom, best, params, regime, target):
    """Newton iteration on the eigen-system grad E(u) = lam jp(u), |u|_p = 1.

    Starts from best = (residual, u, lam) and returns the best such triple.
    Each step solves the bordered Jacobian [[K, -jp(u)], [vol jp(u)^T, 0]]
    of ``_newton_system`` by one banded LU of K (``_bordered_solve``); a K
    that does not factor, or a non-finite step, ends the polish.
    """
    p = params.p
    for _ in range(POLISH_STEPS):
        res, u, lam = best
        if res <= target:
            break
        step = _bordered_solve(*_newton_system(dom, u, lam, params, regime))
        if step is None or not np.isfinite(step[0]).all():
            break
        du = step[0]
        # Damped update: near the flat cell the Hessian varies on the eps
        # scale, so the full step can overshoot the linear model's validity.
        for alpha in 0.5 ** np.arange(30.0):
            u_new = _normalize(dom, u + alpha * du, p, regime)
            res_new, lam_new, _ = _residual_lam(dom, u_new, params, regime)
            if res_new < res:  # False for nan
                best = (res_new, u_new, lam_new)
                break
        else:
            break
    return best


def minimize_rayleigh(dom: Domain, params: EnergyParams, regime: BoundaryRegime,
                      cfg: SolverConfig, seed: int = 0) -> EigenResult:
    """Minimize p*E(u) / int |u|^p over unit-L^p fields (zero p-mean for Neumann).

    Deterministic given the seed: the sweeps start from the p = 2 ground
    state, reached by inverse power from a seeded positive field (see
    _start).  Runs at most MAX_SWEEPS = 400 sweeps, whose inverse solves
    share one SolveContext, and then the Newton polish.  lam is the
    eigen-relation multiplier.  The returned pair satisfies the
    eigen-relation to within 10*grad_tol in the weighted relative norm, or a
    non-convergence error carries out the best iterate.  A polish that
    raises lam by more than 10*grad_tol relative has found a saddle, and
    raises NonConvergenceError.
    """
    ctx = SolveContext(dom, regime, params.p)
    p = params.p
    target = 3.0 * cfg.grad_tol
    u = _start(dom, p, regime, seed, target)
    res, lam, evaluation = _residual_lam(dom, u, params, regime)

    best = (math.inf, u, lam)
    sweeps = 0
    stall = 0
    prev_step = None
    while sweeps < MAX_SWEEPS:
        if res <= target or stall >= 3:
            break
        inner_tol = max(min(0.05 * res, 1e-3), 0.3 * cfg.grad_tol)
        inner_cfg = SolverConfig(inner_tol)
        f = project_cperp(lam * jp(u, p), regime)
        u_old, res_old = u, res
        ctx.hold(u, params, *evaluation)
        try:
            u = inverse_operator(dom, f, params, regime, inner_cfg, warm_start=u, ctx=ctx)
        except NonConvergenceError as err:
            # Inner solve hit its rounding floor; its best iterate still
            # advances the sweep.
            if err.last_iterate is None:
                raise
            u = err.last_iterate
        u = _normalize(dom, u, p, regime)
        res, lam, evaluation = _residual_lam(dom, u, params, regime)

        # Aitken extrapolation of the dominant error mode: when consecutive
        # sweep steps align (slow geometric contraction, small spectral
        # gap), jump along the step direction; adopted only on improvement.
        step = u - u_old
        if prev_step is not None and res_old < 1e-3:
            den = float(prev_step @ prev_step)
            rho = float(step @ prev_step) / den if den > 0 else 0.0
            if 0.2 < rho < 0.995:
                u_try = _normalize(dom, u + (rho / (1.0 - rho)) * step, p, regime)
                res_try, lam_try, eval_try = _residual_lam(dom, u_try, params, regime)
                if res_try < res:
                    u, res, lam, evaluation = u_try, res_try, lam_try, eval_try
                    step = u - u_old
        prev_step = step

        sweeps += 1
        # Stalled at the rounding floor of this problem: stop retrying.  A
        # residual above 1e-4 is no floor: the sweeps there may still be
        # leaving a saddle, which the polish would converge to.
        stall = stall + 1 if 0.98 * best[0] <= res < 1e-4 else 0
        if res < best[0]:
            best = (res, u, lam)

    # Sweeps slow to a crawl when the extremal has a nearly flat curvature
    # direction, and stall at their rounding floor near p = 1.5.
    best = min((res, u, lam), best, key=lambda t: t[0])
    del ctx  # free the kept factor before the polish's LU
    if best[0] > target:
        lam_in = best[2]
        best = _newton_polish(dom, best, params, regime, target)
        # The polish only refines the sweeps' lambda; a rise past the
        # tolerance means it converged to a saddle above the minimum.
        if best[2] > lam_in * (1.0 + 10.0 * cfg.grad_tol):
            raise NonConvergenceError(
                f"the polish rose from lambda {lam_in!r} to {best[2]!r}: a saddle",
                residual=best[0], regime=regime.kind, p=p)
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
    nonlocal regime reuses the kernel's offset weights, as the Toeplitz
    matrix W[i, j] = w_|i-j|, so the matrix is exactly the operator the
    flow evolves under.
    """
    validate_regime(dom, regime)
    if regime.kind == "fractional":
        ker = fractional.build_kernel(dom, regime.s, 2.0)
        h = dom.hx
        w = np.concatenate(([0.0], ker.offsets))
        i = np.arange(dom.n_nodes)
        W = w[np.abs(i[:, None] - i[None, :])]
        A = -(2.0 / h) * W
        np.fill_diagonal(A, (2.0 / h) * W.sum(axis=1) + 2.0 * ker.exterior)
        return A
    return _local_link_matrix(dom, regime)


def dense_linear_reference(dom: Domain, regime: BoundaryRegime) -> EigenResult:
    """Smallest eigenpair of the p = 2 operator via a dense symmetric solve.

    LAPACK dsyevr (MRRR: Dhillon & Parlett, Linear Algebra Appl. 2004)
    computes the smallest pairs by index, not the whole spectrum.  For the
    Neumann regime the constant mode of each connected component is
    skipped: the smallest pairs are asked for until one exceeds 1e-8 times
    the largest absolute row sum of A, a bound on |lambda|, and the first
    such is returned.
    """
    if dom.n_nodes > DENSE_MAX_NODES:
        raise BudgetError(f"dense reference capped at {DENSE_MAX_NODES} nodes, "
                          f"domain has {dom.n_nodes}")
    A = operator_matrix(dom, regime)
    (syevr,) = _lapack_banded(("syevr",))
    neumann = regime.kind == "neumann"
    floor = 1e-8 * float(np.abs(A).sum(axis=1).max()) if neumann else -1.0
    count = 2 if neumann else 1
    while True:
        # A is symmetric, so A.T is A in LAPACK's column order.  Only a
        # Neumann A may be asked again, so the others are overwritten.
        vals, vecs, _, _, info = syevr(A.T, range="I", iu=count, overwrite_a=not neumann)
        if info != 0:
            raise np.linalg.LinAlgError(f"LAPACK dsyevr failed with info {info}")
        above = np.flatnonzero(np.abs(vals[:count]) > floor)
        if above.size:
            break
        count = min(2 * count, dom.n_nodes)
    idx = int(above[0])
    lam = float(vals[idx])
    u = vecs[:, idx]
    u = u / integrate_power(dom, u, 2.0) ** 0.5
    u = extremal_sign_normalize(u, regime)
    res = eigen_residual(dom, u, lam, EnergyParams(2.0), regime)
    return EigenResult(lam=lam, mu=lam, extremal=u, iterations=0, residual=res)


def extremal_sign_normalize(u, regime: BoundaryRegime, tol: float = 1e-8) -> np.ndarray:
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
    if regime.kind != "neumann" and float(np.min(u)) < -tol * float(u[peak]):
        raise SignViolationError(
            f"profile changes sign: min {np.min(u):.3e} at tolerance {tol:.1e}")
    return u
