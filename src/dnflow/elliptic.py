"""Convex minimization engine behind the implicit scheme and inverse solves.

One implicit time step minimizes the strictly convex functional

    F(u) = tau * E(u) + (1/p) int |u|^p - int jp(u_prev) u

whose Euler-Lagrange equation is the backward step
(jp(u) - jp(u_prev)) / tau = -grad E(u).  The inverse operator minimizes
E(u) - int f u, realizing u = (-Delta_p)^{-1} f for the chosen regime.

The minimizer is Polak-Ribiere+ nonlinear conjugate gradient with an Armijo
backtracking line search plus a single secant refinement of the accepted
step (exact line search on quadratics, so the p = 2 case behaves like plain
CG).  Stagnation falls back to steepest descent before giving up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Domain, integrate_power
from .errors import CompatibilityError, NonConvergenceError
from .operators import (
    BoundaryRegime,
    EnergyParams,
    energy,
    energy_and_gradient,
    jp,
    validate_regime,
)

__all__ = [
    "SolverConfig",
    "implicit_step",
    "inverse_operator",
    "project_cperp",
    "project_pmean",
    "zero_pmean_shift",
]

_TINY = 1e-300

# Line search and direction constants of the NCG minimizer.
SUFFICIENT_DECREASE = 1e-4  # Armijo c1
MAX_BACKTRACKS = 60
RESTART_PERIOD = 250  # iterations between forced steepest-descent restarts


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of the inner minimizer.

    grad_tol is the relative weighted-l2 gradient-norm threshold; every
    monotonicity assertion downstream carries slack proportional to it.
    max_iters caps the NCG iterations of one solve.
    """

    grad_tol: float = 1e-9
    max_iters: int = 100_000

    def __post_init__(self):
        if not self.grad_tol > 0:
            raise ValueError("grad_tol must be positive")


def _line_search(value_grad, x, f, g, d, gd, alpha0):
    """Step along the descent direction d with certified decrease.

    Primary acceptance is the Armijo sufficient-decrease test, backtracking
    by secant / regula-falsi updates of the trial step.  Once the predicted
    decrease falls below the evaluation noise floor, acceptance switches to
    the directional-derivative band |phi'(a)| <= 0.9 |phi'(0)|: for a convex
    objective the Hermite-Hadamard inequality turns that band into a
    guaranteed decrease, without comparing rounded values.  Every accepted
    step takes one secant refinement toward phi'(a) = 0, which is the exact
    minimizer when the objective is quadratic.

    Returns (a, xa, fa, ga) or None when no acceptable step exists.
    """
    c1 = SUFFICIENT_DECREASE
    a = alpha0
    lo_a, lo_g = 0.0, gd
    hi_a = hi_g = None
    for _ in range(MAX_BACKTRACKS):
        xa = x + a * d
        fa, ga = value_grad(xa)
        gad = float(ga @ d)
        if not (np.isfinite(fa) and np.isfinite(gad)):
            # Overflowed trial: force the bracket down and retry.
            hi_a, hi_g = a, abs(gd)
            a = 0.5 * (lo_a + a)
            continue
        noise = 1e-14 * (abs(f) + abs(fa))
        floor = -c1 * a * gd <= 10.0 * noise
        band = abs(gad) <= 0.9 * abs(gd)
        armijo = fa <= f + c1 * a * gd + noise
        if band if floor else (armijo or band):
            # One secant refinement toward the 1-D stationary point; when the
            # curvature along d is unresolvably flat (degenerate valleys for
            # p > 2), extend hard instead so alpha can grow geometrically.
            curv = gad - gd
            if curv > 1e-15 * abs(gd):
                a2 = min(a * (-gd) / curv, 50.0 * a)
            elif gad < 0.5 * gd:
                a2 = 50.0 * a
            else:
                a2 = a
            if np.isfinite(a2) and a2 > 0 and abs(a2 - a) > 1e-12 * a:
                xb = x + a2 * d
                fb, gb = value_grad(xb)
                if np.isfinite(fb) and fb <= fa + 1e-14 * (abs(fa) + abs(fb)):
                    return a2, xb, fb, gb
            return a, xa, fa, ga
        if gad > 0.0:
            hi_a, hi_g = a, gad
        else:
            lo_a, lo_g = a, gad
        if hi_a is None:
            # Still descending at a: extrapolate the secant zero of phi'.
            denom = lo_g - gd if lo_a > 0.0 else 0.0
            if lo_a > 0.0 and denom > 0.0:
                a_new = lo_a * (-gd) / denom
            else:
                a_new = 4.0 * a
            a = min(max(a_new, 1.5 * a), 100.0 * a)
        else:
            # Bracketed: regula falsi with a safeguard away from the ends.
            span = hi_a - lo_a
            denom = hi_g - lo_g
            a_new = lo_a + span * (-lo_g) / denom if denom > 0 else lo_a + 0.5 * span
            a = min(max(a_new, lo_a + 0.02 * span), hi_a - 0.02 * span)
    return None


def _ncg(value_grad, x0, ref_norm, cfg: SolverConfig):
    """Minimize a smooth convex function; returns (x, gnorm, iterations).

    Polak-Ribiere+ directions with periodic restarts; steepest-descent
    fallback when a conjugate direction stalls.  value_grad(x) -> (f, g).
    Stops when ||g||_2 <= grad_tol * R0 with R0 = max(||g(x0)||, ref_norm).
    """
    x = x0.copy()
    f, g = value_grad(x)
    gnorm = float(np.linalg.norm(g))
    ref = max(gnorm, ref_norm, _TINY)
    target = cfg.grad_tol * ref
    if gnorm <= target:
        return x, gnorm, 0

    # Best-so-far iterate, for honest reporting when the target is below the
    # rounding floor of this problem.
    best_g, best_x = gnorm, x.copy()
    last_improve = 0
    window = max(3000, 4 * x.size)

    d = -g
    gg = float(g @ g)
    alpha = 1.0
    steepest = True
    for it in range(cfg.max_iters):
        gd = float(g @ d)
        if gd >= 0.0:  # conjugacy lost to rounding
            d = -g
            gd = -gg
            steepest = True
        hit = _line_search(value_grad, x, f, g, d, gd, alpha)
        if hit is None:
            if steepest:
                raise NonConvergenceError(
                    f"line search failed at iteration {it}",
                    last_iterate=best_x, residual=best_g / ref)
            d = -g  # steepest-descent fallback on CG stagnation
            steepest = True
            alpha = 1.0
            continue
        alpha, xa, fa, ga = hit

        g_new = ga
        gnorm = float(np.linalg.norm(g_new))
        x, f = xa, fa
        if gnorm <= target:
            return x, gnorm, it + 1
        if gnorm < 0.99 * best_g:
            best_g, best_x = gnorm, x.copy()
            last_improve = it
        elif it - last_improve > window:
            raise NonConvergenceError(
                f"no residual progress over {window} iterations",
                last_iterate=best_x, residual=best_g / ref)

        gg_new = float(g_new @ g_new)
        beta = max(0.0, float(g_new @ (g_new - g)) / gg) if gg > 0 else 0.0
        if (it + 1) % RESTART_PERIOD == 0:
            beta = 0.0
        d = -g_new + beta * d
        steepest = beta == 0.0
        g, gg = g_new, gg_new

    raise NonConvergenceError(
        f"iteration budget {cfg.max_iters} exhausted",
        last_iterate=best_x, residual=best_g / ref)


def implicit_step(dom: Domain, u_prev, tau: float, params: EnergyParams,
                  regime: BoundaryRegime, cfg: SolverConfig) -> np.ndarray:
    """One backward step of the flow: the unique minimizer of F above.

    Warm-starts from u_prev and stops once the gradient norm has dropped by
    grad_tol relative to its value at the warm start.
    """
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    u_prev = dom.check_field(u_prev)
    validate_regime(dom, regime)
    if not u_prev.any():
        return np.zeros_like(u_prev)

    vol = dom.cell_volume
    p = params.p
    b = vol * jp(u_prev, p)  # linear-term coefficients

    def fg(u):
        e_val, raw = energy_and_gradient(dom, u, params, regime)
        phi = (vol / p) * float(np.sum(np.abs(u) ** p))
        return tau * e_val + phi - float(b @ u), tau * raw + vol * jp(u, p) - b

    u, _, _ = _ncg(fg, u_prev, 0.0, cfg)
    return u


def inverse_operator(dom: Domain, f, params: EnergyParams,
                     regime: BoundaryRegime, cfg: SolverConfig,
                     warm_start=None) -> np.ndarray:
    """Solve -Delta_p u = f weakly: minimize E(u) - int f u.

    For the Neumann regime f must annihilate constants (zero weighted mean);
    the minimizer is then pinned to its zero-p-mean representative by a
    post-shift.  The stopping reference is the data norm ||w f||, so a warm
    start that already satisfies the equation returns immediately.
    """
    f = dom.check_field(f)
    validate_regime(dom, regime)
    vol = dom.cell_volume
    b = vol * f
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros_like(f)
    if regime.kind == "neumann":
        mean = vol * float(np.sum(f))
        if abs(mean) > 1e-10 * vol * float(np.sum(np.abs(f))):
            raise CompatibilityError(
                f"neumann data must have zero mean; got sum {mean:.3e}")

    def fg(u):
        e_val, raw = energy_and_gradient(dom, u, params, regime)
        return e_val - float(b @ u), raw - b

    x0 = dom.check_field(warm_start) if warm_start is not None else np.zeros_like(f)
    u, _, _ = _ncg(fg, x0, bnorm, cfg)
    return project_pmean(dom, u, params.p, regime)


def project_cperp(f, regime: BoundaryRegime) -> np.ndarray:
    """Neumann data minus its mean, which puts it in C-perp; else f itself."""
    if regime.kind == "neumann":
        return f - float(np.mean(f))
    return f


def project_pmean(dom: Domain, u, p: float, regime: BoundaryRegime) -> np.ndarray:
    """Neumann fields shifted onto the zero-p-mean constraint set; else u itself."""
    if regime.kind == "neumann":
        return zero_pmean_shift(dom, u, p)
    return u


def zero_pmean_shift(dom: Domain, u, p: float) -> np.ndarray:
    """Shift u by the unique constant making int jp(u + c) vanish.

    The map c -> sum_i w jp(u_i + c) is strictly increasing and surjective,
    so bisection always lands; for p = 2 the shift is minus the mean.  The
    bracket is padded proportionally to the field amplitude and bisected to
    float exhaustion, so the shift stays resolvable however far a
    trajectory has decayed.
    """
    u = dom.check_field(u)
    if p == 2.0:
        return u - float(np.mean(u))
    scale = float(np.max(np.abs(u)))
    if scale == 0.0:
        return u.copy()

    def pmean(c):
        return float(np.sum(jp(u + c, p)))

    lo = -float(np.max(u)) - 0.125 * scale
    hi = -float(np.min(u)) + 0.125 * scale
    flo = pmean(lo)
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = pmean(mid)
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    c = 0.5 * (lo + hi)
    return u + c


def pmean_defect(dom: Domain, u, p: float) -> float:
    """Relative residual |sum w jp(u)| / sum w |jp(u)| (0 for the zero field)."""
    u = dom.check_field(u)
    ju = jp(u, p)
    denom = float(np.sum(np.abs(ju)))
    if denom == 0.0:
        return 0.0
    return abs(float(np.sum(ju))) / denom


def step_objective(dom: Domain, u, u_prev, tau: float,
                   params: EnergyParams, regime: BoundaryRegime) -> float:
    """The implicit-step functional F(u); exposed for monotonicity checks."""
    vol = dom.cell_volume
    p = params.p
    return (tau * energy(dom, u, params, regime)
            + integrate_power(dom, u, p) / p
            - vol * float(jp(dom.check_field(u_prev), p) @ dom.check_field(u)))
