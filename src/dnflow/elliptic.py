"""Convex minimization engine behind the implicit scheme and inverse solves.

One implicit time step minimizes the strictly convex functional

    F(u) = tau * E(u) + (1/p) int |u|^p - int jp(u_prev) u

whose Euler-Lagrange equation is the backward step
(jp(u) - jp(u_prev)) / tau = -grad E(u).  The inverse operator minimizes
E(u) - int f u, realizing u = (-Delta_p)^{-1} f for the chosen regime.

The minimizer is preconditioned Polak-Ribiere+ nonlinear conjugate gradient
with an Armijo backtracking line search plus a single secant refinement of
the accepted step (exact line search on quadratics, so the p = 2 case
behaves like preconditioned CG).  The preconditioner M is the functional's
banded Hessian (``energy_hessian`` plus the mass term of the step), factored
by banded Cholesky (LAPACK pbtrf/pbtrs) at the start of each solve.  It is
refactored at the current iterate, and the direction restarted, only when
the accepted step length falls outside REFRESH_STEPS (a step far from 1
says M no longer matches the curvature along the direction), and at the
latest every RESTART_PERIOD iterations.  The rule reads only the iterates
and does not bound how often it fires; on the benchmark workloads it gives
0.4 to 0.7 factorizations per iteration, most of them at the start of short
solves.  M only shapes the search directions of a line search, so the
method stays first order and its stopping test is the plain gradient norm.
A failed line search falls back to preconditioned steepest descent from
step 1, with M factored at the current iterate, before giving up.

Every solve first moves its start along the ray {s x0 : s > 0} to the
minimizer there, which the degree-p homogeneity gives in closed form.  A
warm start then keeps its shape and gains the right size: for an implicit
step from u_prev the factor is that of the separated solution,
s^(p-1) = 1 / (1 + tau lambda-hat) with lambda-hat the Rayleigh quotient of
u_prev.  The stopping reference is still taken at the unscaled start.

The Neumann zero-p-mean shift is a safeguarded Newton iteration on the
p-mean, started at c = 0, with bisection as its fallback.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .domain import Domain, integrate_power
from .errors import CompatibilityError, NonConvergenceError
from .operators import (
    BoundaryRegime,
    EnergyParams,
    energy,
    energy_and_gradient,
    energy_hessian,
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
MAX_ITERS = 100_000  # NCG iterations of one solve
RESTART_PERIOD = 250  # iterations between forced refactors and restarts
REFRESH_STEPS = (0.5, 2.0)  # accepted steps outside this range refactor M
# The preconditioner's mass term of an implicit step is (p-1)(x^2 + delta^2)^((p-2)/2)
# with delta = MASS_DELTA * max|x|, finite at zeros of x for p < 2.
MASS_DELTA = 1e-3
# Relative diagonal shift so that a singular Hessian (Neumann) factors.
FACTOR_SHIFT = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of the inner minimizer.

    grad_tol, in (0, inf), is the relative weighted-l2 gradient-norm
    threshold; every monotonicity assertion downstream carries slack
    proportional to it.
    """

    grad_tol: float = 1e-9

    def __post_init__(self):
        if not 0 < self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be positive and finite, got {self.grad_tol}")


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
            # One secant refinement toward the 1-D stationary point, capped
            # at 50 a; skipped when the curvature along d is unresolvably flat.
            curv = gad - gd
            a2 = min(a * (-gd) / curv, 50.0 * a) if curv > 1e-15 * abs(gd) else a
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


@functools.cache
def _lapack_banded():
    """LAPACK's banded Cholesky pair (pbtrf, pbtrs) for float64, fetched once."""
    # Imported here, not at the top: dnflow.oracle loads scipy.linalg
    # anyway, and loading it from this module, earlier in the package
    # import, made `import dnflow.cli` about 10 ms slower (2-vCPU x86_64 VM).
    import scipy.linalg

    return scipy.linalg.get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)


def _factor(ab):
    """Banded Cholesky of the lower band ab (overwritten); returns z -> M^-1 g.

    The same LAPACK calls as ``scipy.linalg.cholesky_banded`` and
    ``cho_solve_banded``, without their per-call lookup and checks.
    """
    pbtrf, pbtrs = _lapack_banded()
    ab[0] += FACTOR_SHIFT * float(np.max(ab[0]))
    c, info = pbtrf(ab, lower=1, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    return lambda g: pbtrs(c, g, lower=1)[0]


def _ray_start(value_grad, b, p, x, f, g):
    """Move x to the minimizer of the objective along its ray {s x : s > 0}.

    For a degree-p energy the objective along the ray is s^p A - s <b, x>,
    and Euler's identity gives <g(x) + b, x> = p A, so the minimizer is
    s^(p-1) = <b, x> / <g(x) + b, x>.  For an implicit step started at
    u_prev this is the separated-solution factor 1 / (1 + tau lambda-hat).
    Returns (x, f, g), moved only when s is finite and positive and the
    objective does not rise there (eps > 0 breaks exact homogeneity).
    """
    num = float(b @ x)
    den = float((g + b) @ x)
    # A zero x, or dot products that overflowed or underflowed, give no ray.
    if not (0.0 < num < np.inf and 0.0 < den < np.inf):
        return x, f, g
    s = (num / den) ** (1.0 / (p - 1.0))
    if not (0.0 < s < np.inf) or s == 1.0:
        return x, f, g
    xs = s * x
    fs, gs = value_grad(xs)
    if fs <= f:
        return xs, fs, gs
    return x, f, g


def _ncg(value_grad, b, p, x0, ref_norm, cfg: SolverConfig, precondition):
    """Minimize a smooth convex function; returns (x, gnorm, iterations).

    The objective is a degree-p energy minus the linear term <b, x>.
    Preconditioned Polak-Ribiere+ directions; preconditioned
    steepest-descent fallback when a conjugate direction stalls.
    value_grad(x) -> (f, g); precondition(x) -> the lower band of an SPD
    approximation M of the Hessian at x.  M is factored at the start and
    refactored, with a restart (beta = 0), after an accepted step outside
    REFRESH_STEPS and every RESTART_PERIOD iterations; the next line search
    still starts from the last accepted step.  A failed line search falls
    back to d = -M^-1 g from step 1, refactoring M unless it was just
    refactored; only a failed search from step 1 with a fresh M raises.
    Stops when ||g||_2 <= grad_tol * R0 with
    R0 = max(||g(x0)||, ref_norm); the iteration starts from x0 moved along
    its ray (see _ray_start).
    """
    x = x0.copy()
    f, g = value_grad(x)
    gnorm = float(np.linalg.norm(g))
    ref = max(gnorm, ref_norm, _TINY)
    target = cfg.grad_tol * ref
    if gnorm <= target:
        return x, gnorm, 0
    x, f, g = _ray_start(value_grad, b, p, x, f, g)
    gnorm = float(np.linalg.norm(g))
    if gnorm <= target:
        return x, gnorm, 0

    # Best-so-far iterate, for honest reporting when the target is below the
    # rounding floor of this problem.
    best_g, best_x = gnorm, x.copy()
    last_improve = 0
    window = max(3000, 4 * x.size)

    def refactor(x):
        try:
            return _factor(precondition(x))
        except np.linalg.LinAlgError as err:
            raise NonConvergenceError(f"preconditioner did not factor: {err}",
                                      last_iterate=best_x, residual=best_g / ref)

    solve = refactor(x)
    z = solve(g)
    gz = float(g @ z)
    d = -z
    alpha = 1.0
    fresh = True  # d = -M^-1 g with M factored at the current x
    for it in range(MAX_ITERS):
        gd = float(g @ d)
        if gd >= 0.0:  # conjugacy lost to rounding
            d = -z
            gd = -gz
        hit = _line_search(value_grad, x, f, g, d, gd, alpha)
        if hit is None:
            if fresh and alpha == 1.0:
                raise NonConvergenceError(
                    f"line search failed at iteration {it}",
                    last_iterate=best_x, residual=best_g / ref)
            # Preconditioned steepest-descent fallback on CG stagnation, from
            # step 1; after a refresh z is already M^-1 g at this x.
            if not fresh:
                solve = None  # free the old factor before the new one is built
                solve = refactor(x)
                z = solve(g)
                gz = float(g @ z)
            d = -z
            fresh = True
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

        # Refresh M where it no longer matches the curvature along d (the
        # step it scaled was far from 1), and every RESTART_PERIOD iterations.
        lo, hi = REFRESH_STEPS
        fresh = not lo <= alpha <= hi or (it + 1) % RESTART_PERIOD == 0
        if fresh:
            solve = None
            solve = refactor(x)
        z_new = solve(g_new)
        beta = 0.0
        if not fresh and gz > 0:
            beta = max(0.0, float(g_new @ (z_new - z)) / gz)
        d = -z_new + beta * d
        g, z, gz = g_new, z_new, float(g_new @ z_new)

    raise NonConvergenceError(
        f"iteration budget {MAX_ITERS} exhausted",
        last_iterate=best_x, residual=best_g / ref)


def _solve(fg, b, x0, ref_norm, cfg, precondition, params, regime):
    # _ncg with the regime and p attached to its NonConvergenceError.
    try:
        return _ncg(fg, b, params.p, x0, ref_norm, cfg, precondition)[0]
    except NonConvergenceError as err:
        err.regime, err.p = regime.kind, params.p
        raise


def implicit_step(dom: Domain, u_prev, tau: float, params: EnergyParams,
                  regime: BoundaryRegime, cfg: SolverConfig) -> np.ndarray:
    """One backward step of the flow: the unique minimizer of F above.

    Warm-starts from u_prev and stops once the gradient norm has dropped by
    grad_tol relative to its value at the warm start.
    """
    if not 0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
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

    def precondition(x):
        ab = energy_hessian(dom, x, params, regime)
        ab *= tau
        delta2 = (MASS_DELTA * float(np.max(np.abs(x)))) ** 2
        ab[0] += vol * (p - 1.0) * (x * x + delta2) ** ((p - 2.0) / 2.0)
        return ab

    return _solve(fg, b, u_prev, 0.0, cfg, precondition, params, regime)


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

    def precondition(x):
        # At the zero field (a cold start) H_E vanishes or blows up, so the
        # first direction comes from the scale-free p = 2 stiffness.
        return energy_hessian(dom, x, params if x.any() else EnergyParams(2.0), regime)

    x0 = dom.check_field(warm_start) if warm_start is not None else np.zeros_like(f)
    u = _solve(fg, b, x0, bnorm, cfg, precondition, params, regime)
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


def _pmean_slope(r, p: float):
    """sum jp(r) and its derivative in a shift, (p-1) sum |r|^(p-2)."""
    a = np.abs(r)
    # At p < 2 a zero entry makes the slope inf; the caller bisects then.
    with np.errstate(divide="ignore"):
        slope = (p - 1.0) * float(np.sum(a ** (p - 2.0)))
    return float(np.sum(jp(r, p))), slope


def zero_pmean_shift(dom: Domain, u, p: float) -> np.ndarray:
    """Shift u by the unique constant making int jp(u + c) vanish.

    The map c -> sum_i w jp(u_i + c) is strictly increasing and surjective,
    with slope (p-1) sum_i w |u_i + c|^(p-2).  Constant data shifts exactly
    to the zero field, and for p = 2 the shift is minus the mean.  Otherwise
    a safeguarded Newton iteration runs from c = 0, which is nearly the root
    after the flow's first step (the scheme conserves the p-mean), inside a
    bracket padded proportionally to the field amplitude.  A step that
    leaves the bracket, or a slope of 0 or inf, is replaced by bisection.
    The iteration stops once the step or the bracket is a few ulps of
    max|u|, so the shift stays resolvable however far a trajectory has
    decayed.
    """
    u = dom.check_field(u)
    top, bottom = float(np.max(u)), float(np.min(u))
    if top == bottom:
        # A multiple root for p > 2, where Newton is only linear; and a
        # rounded mean would leave a nonzero field at p = 2.
        return u - top
    if p == 2.0:
        return u - float(np.mean(u))
    scale = max(top, -bottom)
    lo = -top - 0.125 * scale
    hi = -bottom + 0.125 * scale
    tol = 4.0 * float(np.spacing(scale))
    c = 0.0 if lo < 0.0 < hi else 0.5 * (lo + hi)
    for _ in range(100):
        val, slope = _pmean_slope(u + c, p)
        if val == 0.0:
            break
        if val > 0.0:
            hi = c
        else:
            lo = c
        c_new = c - val / slope if 0.0 < slope < np.inf else c
        if not lo < c_new < hi:
            c_new = 0.5 * (lo + hi)
        done = abs(c_new - c) <= tol or hi - lo <= tol
        c = c_new
        if done:
            break
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
