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
by banded Cholesky (LAPACK pbtrf/pbtrs).  A SolveContext carries one factor
from solve to solve of a problem (a march of implicit steps, the dual solves
of a trajectory, the oracle's sweeps): after a solve that converged within
one NCG iteration the next solve starts on that factor as it is (each of
those problems solves at one scale: max|u| = 1 in the flow, unit L^p in the
oracle), and any other solve starts by factoring M at its start.  M is
refactored at the current iterate, and the direction restarted, only when
the accepted step length falls outside
REFRESH_STEPS (a step far from 1 says M no longer matches the curvature
along the direction), and at the latest every RESTART_PERIOD iterations.
The rule reads only the iterates and does not bound how often it fires.
M only shapes the search directions of a line search, so the method stays
first order and its stopping test is the plain gradient norm.  A failed
line search falls back to preconditioned steepest descent from step 1,
with M factored at the current iterate, before giving up.

Every solve first moves its start along the ray {s x0 : s > 0} to the
minimizer there, which the degree-p homogeneity gives in closed form.  A
warm start then keeps its shape and gains the right size: for an implicit
step from u_prev the factor is that of the separated solution,
s^(p-1) = 1 / (1 + tau lambda-hat) with lambda-hat the Rayleigh quotient of
u_prev.  The stopping reference is still taken at the unscaled start.  The
first step of a march also tries the p = 2 linear step from u_prev, which
from flat data at p > 2 is far closer than u_prev (there H_E vanishes inside
the domain, so each direction of M reaches only about one cell further in),
and starts from whichever ray-scaled candidate has the lower objective.  A
march that continues from a separated state skips that step.  The skip
saves one factorization of K2 and two evaluations, and from the separated
states of Dirichlet at p = 3 and Robin at p = 1.5 the candidate changes no
bit of the step.  At p = 2 the linear step is the exact step, so the skip
gives up an exact start there.

A solve that returned t times its start without an NCG iteration leaves t
in its SolveContext (ray): the march (flow._march) reads it as the sign
that it has separated and takes every later step itself.

The Neumann zero-p-mean shift is a safeguarded Newton iteration on the
p-mean, started at c = 0, with bisection as its fallback.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

from .domain import Domain
from .errors import CompatibilityError, NonConvergenceError
from .operators import (
    BoundaryRegime,
    EnergyParams,
    energy_and_gradient,
    energy_hessian,
    jp,
    stiffness,
    validate_regime,
)

__all__ = [
    "SolveContext",
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
RAY_TOL = 64 * np.finfo(float).eps  # ray factors this close to 1 are not tried
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


def _norm(v) -> float:
    """Euclidean norm of a 1-D vector, sqrt(v . v): the value np.linalg.norm
    returns, without its per-call dispatch."""
    return math.sqrt(float(v @ v))


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

    value_grad(x) returns (f, g, *extra).  Returns (a, xa, fa, ga, *extra),
    with the extra items of xa's evaluation, or None when no acceptable
    step exists.
    """
    c1 = SUFFICIENT_DECREASE
    a = alpha0
    lo_a, lo_g = 0.0, gd
    hi_a = hi_g = None
    for _ in range(MAX_BACKTRACKS):
        xa = x + a * d
        fa, ga, *extra = value_grad(xa)
        gad = float(ga @ d)
        if not (math.isfinite(fa) and math.isfinite(gad)):
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
            if math.isfinite(a2) and a2 > 0 and abs(a2 - a) > 1e-12 * a:
                xb = x + a2 * d
                fb, gb, *extra_b = value_grad(xb)
                if math.isfinite(fb) and fb <= fa + 1e-14 * (abs(fa) + abs(fb)):
                    return (a2, xb, fb, gb, *extra_b)
            return (a, xa, fa, ga, *extra)
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


def _load_flapack():
    """scipy's compiled LAPACK wrappers, loaded from their file next to
    ``scipy.__file__`` without the scipy.linalg package, whose import costs
    several times more (it pulls in numpy.f2py and numpy.testing).  The module
    is registered under its package name, so an earlier or later
    ``import scipy.linalg`` in the same process shares it."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    folder = Path(scipy.__file__).parent / "linalg"
    for suffix in EXTENSION_SUFFIXES:
        path = folder / ("_flapack" + suffix)
        if path.is_file():
            break
    else:
        raise ImportError(f"no _flapack extension in {folder}")
    spec = importlib.util.spec_from_file_location(name, path)
    try:
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(name, None)
        raise
    return module


@functools.cache
def _lapack_banded(names=("pbtrf", "pbtrs", "gbtrf", "gbtrs")):
    """LAPACK's float64 routines of the given names, fetched once per tuple
    of names; through scipy.linalg's public lookup when the extension does
    not load from its file.  By default the banded Cholesky (pbtrf, pbtrs)
    and pivoted banded LU (gbtrf, gbtrs) routines."""
    try:
        flapack = _load_flapack()
        return tuple(getattr(flapack, "d" + name) for name in names)
    except (ImportError, OSError):
        import scipy.linalg

        return tuple(scipy.linalg.get_lapack_funcs(names, dtype=np.float64))


def _factor(ab):
    """Banded Cholesky of the lower band ab (overwritten); returns z -> M^-1 g.

    The same LAPACK calls as ``scipy.linalg.cholesky_banded`` and
    ``cho_solve_banded``, without their per-call lookup and checks.
    """
    pbtrf, pbtrs, _, _ = _lapack_banded()
    ab[0] += FACTOR_SHIFT * float(ab[0].max())
    c, info = pbtrf(ab, lower=1, overwrite_ab=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    return lambda g: pbtrs(c, g, lower=1)[0]


class SolveContext:
    """Solver state shared by the solves of one problem.

    One context serves the implicit steps of one march (tau given) or a run
    of inverse solves (tau None) on one domain, regime and p, with the
    regime validated once; eps still comes per call through the params.  It
    holds at most one preconditioner factor and a gate: whether the last
    solve converged within one NCG iteration.  While the gate is open the
    next solve starts on that factor as it is, since the solves of one
    problem run at one scale (see the module docstring).  A factor built at
    the zero field (a cold inverse start, on the p = 2 stiffness K2 of
    ``operators.stiffness``) is not kept, and a solve that fails closes the
    gate.

    The first step of a march tries the p = 2 linear step as its start unless
    linear_start is False, as for a march that continues from a separated
    state.  The counters record the work: solves, NCG iterations, and the
    factorizations by kind, fresh (at a solve's start), refreshed (inside a
    solve) and linear (the p = 2 step of a march's first step); carried
    counts the solves that started on a kept factor instead of a fresh one,
    and handed_over the inverse solves that started from the held
    evaluation of their warm start instead of making it.

    ray is the factor t of the last solve when that solve returned t times
    its start without an NCG iteration (1.0 when it returned the start
    itself), else None.  Only the march reads it (see flow._march); no
    solve does.

    The context holds one evaluation: that of the point x the last solve
    returned, or one its caller stored with hold, as the oracle stores its
    residual's before each sweep; None before the first.  held(x, params)
    matches by value: it hands the evaluation on only for an x with the
    same values, bit for bit, under the same params, so it crosses neither
    a change of eps nor a write into the array it was made at.  The context
    keeps its own copy of that array and returns no array it keeps.  Two
    readers unpack what it hands on: a march holds (E(x), sum |x|^p), which
    the step's diagnostics row reads (see diagnostics.build_row), and a run
    of inverse solves (E(x), raw partials of E at x), which the next
    inverse_operator solve takes when it starts at x.  x is the returned
    array unless the Neumann shift moved it.
    """

    def __init__(self, dom: Domain, regime: BoundaryRegime, p: float,
                 tau: float | None = None, linear_start: bool = True):
        if tau is not None and not 0 < tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {tau}")
        validate_regime(dom, regime)
        self.dom, self.regime, self.p, self.tau = dom, regime, p, tau
        self.linear_start = linear_start
        self._solve = None  # z -> M^-1 g of the kept factor
        self._gate = False
        self.ray = self.evaluation = None
        self.solves = self.iterations = 0
        self.fresh = self.refreshed = self.carried = self.linear = 0
        self.handed_over = 0

    @property
    def factorizations(self) -> int:
        return self.fresh + self.refreshed + self.linear

    def _check(self, dom, regime, p, tau):
        if dom is not self.dom or (regime, p, tau) != (self.regime, self.p, self.tau):
            raise ValueError("the solve context belongs to another problem")

    def hold(self, x, params, *evaluation):
        """Hold evaluation, made at x under params, with a copy of x (see held)."""
        self.evaluation = (x.copy(), params, evaluation)

    def held(self, x, params):
        """The held evaluation when it was made at x's values, bit for bit,
        under params, else None."""
        held = self.evaluation
        return (held[2] if held and held[1] == params and held[0].tobytes() == x.tobytes()
                else None)

    def factor(self, x, precondition):
        """Factor M = precondition(x), keep it unless x = 0; returns z -> M^-1 g."""
        self._solve = None  # free the kept factor before the new one is built
        solve = _factor(precondition(x))
        self._solve = solve if x.any() else None
        return solve

    def start(self, x, precondition):
        """(z -> M^-1 g, fresh) for a solve starting at x: the kept factor
        while the gate is open, else a fresh factor at x."""
        if self._gate and self._solve is not None:
            self.carried += 1
            return self._solve, False
        self.fresh += 1
        return self.factor(x, precondition), True


def _ray_start(value_grad, b, p, x, f, g, *extra):
    """Move x to the minimizer of the objective along its ray {s x : s > 0}.

    For a degree-p energy the objective along the ray is s^p A - s <b, x>,
    and Euler's identity gives <g(x) + b, x> = p A, so the minimizer is
    s^(p-1) = <b, x> / <g(x) + b, x>.  For an implicit step started at
    u_prev this is the separated-solution factor 1 / (1 + tau lambda-hat).
    (f, g, *extra) is value_grad's result at x.  Returns (x, s, f, g, *extra)
    with x moved to s x only when s is finite and positive and the objective
    falls there by more than the line search's noise floor (eps > 0 breaks
    exact homogeneity, and a last-ulp tie must not decide), and s = 1.0 when
    x is kept.  An s within RAY_TOL = 64 machine eps of 1 is rounding, not a
    move: x is kept without the trial evaluation.
    """
    num = float(b @ x)
    den = float((g + b) @ x)
    # A zero x, or dot products that overflowed or underflowed, give no ray.
    if not (0.0 < num < np.inf and 0.0 < den < np.inf):
        return (x, 1.0, f, g, *extra)
    s = (num / den) ** (1.0 / (p - 1.0))
    if not (0.0 < s < np.inf) or abs(s - 1.0) <= RAY_TOL:
        return (x, 1.0, f, g, *extra)
    xs = s * x
    trial = value_grad(xs)
    if trial[0] < f - 1e-14 * (abs(f) + abs(trial[0])):
        return (xs, s, *trial)
    return (x, 1.0, f, g, *extra)


def _ncg(value_grad, b, p, x0, ref_norm, cfg: SolverConfig, precondition,
         ctx: SolveContext, alt=None, start=None):
    """Minimize a smooth convex function; returns (x, iterations, extra).

    The objective is a degree-p energy minus the linear term <b, x>.
    Preconditioned Polak-Ribiere+ directions; preconditioned
    steepest-descent fallback when a conjugate direction stalls.
    value_grad(x) -> (f, g, *extra), where the extra items are whatever the
    caller wants kept from an evaluation: the minimizer carries them with
    its iterate and returns those of x, so the caller need not evaluate x
    again.  start, when given, is value_grad's result at x0, which is then
    not evaluated.  precondition(x) -> the lower band of an SPD
    approximation M of the Hessian at x.  The first direction uses ctx's
    kept factor when its gate is open and M factored at the
    start otherwise (see SolveContext.start).  M is refactored, with a
    restart (beta = 0), after an accepted step outside REFRESH_STEPS and
    every RESTART_PERIOD iterations; the next line search still starts from
    the last accepted step.  A failed line search falls back to d = -M^-1 g
    from step 1, refactoring M unless it was just factored at this iterate;
    only a failed search from step 1 with a fresh M raises.
    Stops when ||g||_2 <= grad_tol * R0 with
    R0 = max(||g(x0)||, ref_norm); the iteration starts from x0 moved along
    its ray (see _ray_start), or from the alternative start alt moved along
    its own ray when that has the lower objective.  A return without an
    iteration from s x0 sets ctx.ray to s.
    """
    x = x0.copy()
    f, g, *extra = value_grad(x) if start is None else start
    gnorm = _norm(g)
    ref = max(gnorm, ref_norm, _TINY)
    target = cfg.grad_tol * ref
    if gnorm <= target:
        ctx.ray = 1.0
        return x, 0, extra
    x, s, f, g, *extra = _ray_start(value_grad, b, p, x, f, g, *extra)
    if alt is not None:
        xa, _, fa, ga, *extra_a = _ray_start(value_grad, b, p, alt, *value_grad(alt))
        if fa < f:
            x, s, f, g, extra = xa, None, fa, ga, extra_a
    gnorm = _norm(g)
    if gnorm <= target:
        ctx.ray = s
        return x, 0, extra

    # Best-so-far iterate, for honest reporting when the target is below the
    # rounding floor of this problem.
    best_g, best_x = gnorm, x.copy()
    last_improve = 0
    window = max(3000, 4 * x.size)

    def factored(build, x):
        try:
            return build(x, precondition)
        except np.linalg.LinAlgError as err:
            raise NonConvergenceError(f"preconditioner did not factor: {err}",
                                      last_iterate=best_x, residual=best_g / ref)

    def refactor(x):
        ctx.refreshed += 1
        return factored(ctx.factor, x)

    # fresh: d = -M^-1 g with M factored at the current x
    solve, fresh = factored(ctx.start, x)
    z = solve(g)
    gz = float(g @ z)
    d = -z
    alpha = 1.0
    for it in range(MAX_ITERS):
        ctx.iterations += 1
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
        alpha, x, f, g_new, *extra = hit
        gnorm = _norm(g_new)
        if gnorm <= target:
            return x, it + 1, extra
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


def _solve(fg, b, x0, ref_norm, cfg, precondition, params, ctx, alt=None, start=None):
    # _ncg's (x, extra) with its work and gate recorded in ctx, and the
    # regime and p attached to its NonConvergenceError.
    ctx.solves += 1
    ctx.ray = None
    try:
        x, iterations, extra = _ncg(fg, b, params.p, x0, ref_norm, cfg, precondition, ctx,
                                    alt, start)
    except NonConvergenceError as err:
        ctx._gate = False
        err.regime, err.p = ctx.regime.kind, params.p
        raise
    ctx._gate = iterations <= 1
    return x, extra


def _linear_step(ctx: SolveContext, u_prev):
    """The p = 2 step from u_prev, (tau K2 + vol I) x = vol u_prev, with K2 the
    p = 2 stiffness (see operators.stiffness); one factorization."""
    vol = ctx.dom.cell_volume
    ab = stiffness(ctx.dom, ctx.regime, ctx.p)
    ab *= ctx.tau
    ab[0] += vol
    ctx.linear += 1
    return _factor(ab)(vol * u_prev)


def implicit_step(dom: Domain, u_prev, tau: float, params: EnergyParams,
                  regime: BoundaryRegime, cfg: SolverConfig,
                  ctx: SolveContext | None = None) -> np.ndarray:
    """One backward step of the flow: the unique minimizer of F above.

    Warm-starts from u_prev and stops once the gradient norm has dropped by
    grad_tol relative to its value at u_prev.  ctx is the march's
    SolveContext, for tau and this p; without one the call is a one-step
    march of its own.  Every call is one solve, which sets ctx.ray anew
    and reads nothing of it.  The first step of a march also tries the
    p = 2 linear step as its start, unless ctx was made with linear_start
    False (see the module docstring).  The step holds its evaluation of the
    point it returns in ctx (see SolveContext.held).
    """
    if ctx is None:
        ctx = SolveContext(dom, regime, params.p, tau)
    else:
        ctx._check(dom, regime, params.p, tau)
    u_prev = dom.check_field(u_prev)
    if not u_prev.any():
        return np.zeros_like(u_prev)

    vol = dom.cell_volume
    p = params.p
    b = vol * jp(u_prev, p)  # linear-term coefficients

    def fg(u):
        # F and its gradient, then E(u) and sum |u|^p for ctx to hold.
        e_val, raw = energy_and_gradient(dom, u, params, regime)
        power_sum = float((np.abs(u) ** p).sum())
        return (tau * e_val + (vol / p) * power_sum - float(b @ u),
                tau * raw + vol * jp(u, p) - b, e_val, power_sum)

    def precondition(x):
        ab = energy_hessian(dom, x, params, regime)
        ab *= tau
        delta2 = (MASS_DELTA * float(np.abs(x).max())) ** 2
        ab[0] += vol * (p - 1.0) * (x * x + delta2) ** ((p - 2.0) / 2.0)
        return ab

    alt = _linear_step(ctx, u_prev) if ctx.solves == 0 and ctx.linear_start else None
    x, extra = _solve(fg, b, u_prev, 0.0, cfg, precondition, params, ctx, alt)
    ctx.hold(x, params, *extra)
    return x


def inverse_operator(dom: Domain, f, params: EnergyParams,
                     regime: BoundaryRegime, cfg: SolverConfig,
                     warm_start=None, ctx: SolveContext | None = None) -> np.ndarray:
    """Solve -Delta_p u = f weakly: minimize E(u) - int f u.

    For the Neumann regime f must annihilate constants (zero weighted mean);
    the minimizer is then pinned to its zero-p-mean representative by a
    post-shift.  The stopping reference is the data norm ||w f||, so a warm
    start that already satisfies the equation returns immediately.  ctx is
    the SolveContext of a run of inverse solves for this p (tau None);
    without one the call is a run of its own.  When ctx holds
    energy_and_gradient's (E, raw partials) at warm_start's values under
    these params (see SolveContext.held), as the last solve leaves it
    at the point it returns, the solve makes no evaluation there.  The
    solve holds its own such evaluation in ctx.
    """
    if ctx is None:
        ctx = SolveContext(dom, regime, params.p)
    else:
        ctx._check(dom, regime, params.p, None)
    f = dom.check_field(f)
    vol = dom.cell_volume
    b = vol * f
    bnorm = _norm(b)
    if bnorm == 0.0:
        return np.zeros_like(f)
    if regime.kind == "neumann":
        mean = vol * float(f.sum())
        if abs(mean) > 1e-10 * vol * float(np.abs(f).sum()):
            raise CompatibilityError(
                f"neumann data must have zero mean; got sum {mean:.3e}")

    def objective(e_val, raw, u):
        # E(u) - <b, u> and its gradient from an evaluation of E at u, then
        # that evaluation for ctx to hold.
        return e_val - float(b @ u), raw - b, e_val, raw

    def fg(u):
        return objective(*energy_and_gradient(dom, u, params, regime), u)

    def precondition(x):
        # At the zero field (a cold start) H_E vanishes or blows up, so the
        # first direction comes from the scale-free K2.
        return (energy_hessian(dom, x, params, regime) if x.any()
                else stiffness(dom, regime, params.p))

    x0 = dom.check_field(warm_start) if warm_start is not None else np.zeros_like(f)
    held = ctx.held(x0, params)
    start = None if held is None else objective(*held, x0)
    ctx.handed_over += start is not None
    u, extra = _solve(fg, b, x0, bnorm, cfg, precondition, params, ctx, start=start)
    ctx.hold(u, params, *extra)
    return project_pmean(dom, u, params.p, regime)


def project_cperp(f, regime: BoundaryRegime) -> np.ndarray:
    """Neumann data minus its mean, which puts it in C-perp; else f itself."""
    if regime.kind == "neumann":
        return f - float(f.mean())
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
        slope = (p - 1.0) * float((a ** (p - 2.0)).sum())
    return float(jp(r, p).sum()), slope


def zero_pmean_shift(dom: Domain, u, p: float) -> np.ndarray:
    """Shift u by the unique constant making int jp(u + c) vanish.

    The map c -> sum_i w jp(u_i + c) is strictly increasing and surjective,
    with slope (p-1) sum_i w |u_i + c|^(p-2).  Constant data shifts exactly
    to the zero field, and for p = 2 the shift is minus the mean.  Otherwise
    a safeguarded Newton iteration runs from c = 0, which is nearly the root
    after the flow's first step (the scheme conserves the p-mean), inside a
    bracket padded proportionally to the field amplitude.  A step that
    leaves the bracket or is over half the step two iterations back (Newton
    circling a root next to a zero of u + c at p < 2), or a slope of 0 or
    inf, is replaced by bisection.  The iteration stops once a Newton step
    rounds to no change in c, or the step or the bracket is a few ulps of
    max|u|, so the shift stays resolvable however far a trajectory has
    decayed; after 100 iterations it raises NonConvergenceError.
    """
    u = dom.check_field(u)
    top, bottom = float(u.max()), float(u.min())
    if top == bottom:
        # A multiple root for p > 2, where Newton is only linear; and a
        # rounded mean would leave a nonzero field at p = 2.
        return u - top
    if p == 2.0:
        return u - float(u.mean())
    scale = max(top, -bottom)
    lo = -top - 0.125 * scale
    hi = -bottom + 0.125 * scale
    tol = 4.0 * float(np.spacing(scale))
    c = 0.0 if lo < 0.0 < hi else 0.5 * (lo + hi)
    last = before_last = hi - lo  # the last two steps taken
    for _ in range(100):
        val, slope = _pmean_slope(u + c, p)
        if val == 0.0:
            break
        if val > 0.0:
            hi = c
        else:
            lo = c
        c_new = c - val / slope if 0.0 < slope < np.inf else math.nan
        if c_new == c:
            break
        if not lo < c_new < hi or 2.0 * abs(c_new - c) > before_last:
            c_new = 0.5 * (lo + hi)
        before_last, last = last, abs(c_new - c)
        c = c_new
        if last <= tol or hi - lo <= tol:
            break
    else:
        raise NonConvergenceError("zero-p-mean shift not resolved in 100 iterations",
                                  last_iterate=u + c, p=p)
    return u + c


def pmean_defect(dom: Domain, u, p: float) -> float:
    """Relative residual |sum w jp(u)| / sum w |jp(u)| (0 for the zero field)."""
    u = dom.check_field(u)
    ju = jp(u, p)
    denom = float(np.sum(np.abs(ju)))
    if denom == 0.0:
        return 0.0
    return abs(float(np.sum(ju))) / denom
