"""Run the implicit scheme and expose its rescaled iterates.

Each step minimizes the backward functional at the regularization length
eps_k = epsilon * max|u^{k-1}|, relative, so the scheme is exactly degree-p
homogeneous and only u^{k-1} / max|u^{k-1}| carries information: the march
solves each step at that unit scale, where eps is epsilon itself, so no
solve sees the data's amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .domain import Domain, lp_norm
from .elliptic import SolveContext, SolverConfig, implicit_step, project_pmean
from .errors import DegenerateInputError, InvalidSnapshotError, NonConvergenceError
from .operators import BoundaryRegime, EnergyParams

__all__ = [
    "FlowTrajectory",
    "evolve",
    "evolve_until_settled",
    "settled_read_out",
    "auto_tau",
    "rescaled_profile",
    "profile_gap",
    "write_snapshot",
    "read_snapshot",
]

# A state whose L^p norm falls below this multiple of the initial norm has
# reached the degenerate (identically vanishing) limit: the settle march
# stops there (see _degenerate).
DEGENERATE_FLOOR = 1e3 * np.finfo(float).eps
NORMAL_MIN = np.finfo(float).tiny  # a row's int |u|^p below it has lost digits

# evolve_until_settled's stop test (see _lambda_settled) and auto_tau's
# bootstrap run.  With tau = None the settle march continues from the
# bootstrap's last state, so its states[0] is that state, not g.
SETTLE_REL_TOL = 1e-7
# lambda-hat is a ratio of two p-th power sums minus 1, so it carries a
# rounding error of some tens of ulps; changes below this relative size are
# noise, and so are their ratios.
LAMBDA_ROUNDING = 32 * np.finfo(float).eps
BOOTSTRAP_TAU = 0.1
BOOTSTRAP_STEPS = 10


@dataclass
class FlowTrajectory:
    """The scheme's state sequence u^0..u^K with per-step diagnostics.

    predicted lists, in order, the steps of the separated tail (see _march):
    the first step k after a solve that moved its start along the ray only,
    and every step after it.  Each takes t u^(k-1) / max|u^(k-1)| for the
    ray factor t, so at max|u| = 1 its state is the one before it, and its
    scale-free quotients are that row's.
    """

    dom: Domain
    tau: float
    params: EnergyParams
    regime: BoundaryRegime
    states: list
    diagnostics: list = field(default_factory=list)
    predicted: list = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.states) - 1


def _unit(x):
    """(x / max|x|, max|x|), or (x, 0.0) for the zero field."""
    scale = float(np.abs(x).max())
    return (x / scale if scale > 0.0 else x), scale


def _record(traj: FlowTrajectory, row) -> None:
    """Append row to traj.  A nonzero state whose E or int |u|^p is not
    finite, or whose int |u|^p is below the normal floats short of the
    degenerate floor, raises DegenerateInputError: its quotients would be
    rounded away."""
    traj.diagnostics.append(row)
    if math.isfinite(row.Np + row.energy) and (
            row.Np >= NORMAL_MIN or row.k and _degenerate(traj)):
        return
    if traj.states[row.k].any():
        raise DegenerateInputError(
            f"step {row.k}: int |u|^p = {row.Np!r} and E(u) = {row.energy!r} at "
            f"p = {traj.params.p}: the amplitude leaves the floating-point range")


def _march(dom: Domain, g, tau: float, max_steps: int, params: EnergyParams,
           regime: BoundaryRegime, cfg: SolverConfig, stop,
           linear_start: bool = True) -> FlowTrajectory:
    """March up to max_steps implicit steps from g, recording diagnostics.

    Neumann initial data is first shifted to its zero-p-mean representative.
    Step k takes x = u^(k-1) / max|u^(k-1)| with traj.params, and u^k is its
    result times max|u^(k-1)|, a scale carried as a product of maxima; row k
    reuses the step's evaluation of x (see diagnostics.build_row and
    _record).  The steps share one SolveContext, whose first step tries the
    p = 2 linear start when linear_start is True.  Once a step's solve has
    returned its start moved along the ray only, by t = ctx.ray, the march
    has separated and calls implicit_step no more: the next step takes
    x = t u_prev, evaluated once (see diagnostics.energy_and_power) and not
    shifted, since it keeps the zero p-mean of u_prev.  As max|u_prev| = 1,
    the max of x is t, so every later step would start from u_prev and
    return x again; each appends x at the scale times t, with that
    evaluation.  These tail steps are listed in traj.predicted.  Solver
    failures propagate with the step index attached.  After each step
    stop(traj) is asked whether to end the march early.
    """
    if max_steps < 1:
        raise ValueError(f"need at least one step, got {max_steps}")
    g = dom.check_field(g)
    if not np.isfinite(g).all():
        raise ValueError("initial data has a NaN or infinite value")
    g = project_pmean(dom, g, params.p, regime)

    traj = FlowTrajectory(dom=dom, tau=tau, params=params, regime=regime, states=[g])
    x, scale = _unit(g)
    _record(traj, diag.build_row(dom, traj, 0, x, scale))

    ctx = SolveContext(dom, regime, params.p, tau, linear_start=linear_start)
    for k in range(1, max_steps + 1):
        if ctx.ray is None:
            try:
                x = implicit_step(dom, x, tau, params, regime, cfg, ctx)
            except NonConvergenceError as err:
                err.step = k
                raise
            x = project_pmean(dom, x, params.p, regime)  # stay on the constraint set
            # The step's own evaluation of x, unless the Neumann shift moved it.
            evaluation = ctx.held(x, params)
        else:
            if not traj.predicted:  # the first step of the separated tail
                x = ctx.ray * x
                evaluation = diag.energy_and_power(dom, x, params, regime)
            traj.predicted.append(k)
        traj.states.append(scale * x)
        row = diag.build_row(dom, traj, k, x, scale, evaluation)
        _record(traj, row)
        row.lambda_decay = diag.lambda_decay_estimate(traj, k)
        row.energy_residual = diag.energy_identity_residual(traj, k)
        if stop(traj):
            break
        x, factor = (x, ctx.ray) if traj.predicted else _unit(x)
        scale *= factor
    return traj


def evolve(dom: Domain, g, tau: float, steps: int, params: EnergyParams,
           regime: BoundaryRegime, cfg: SolverConfig) -> FlowTrajectory:
    """March exactly `steps` implicit steps from g (see _march)."""
    return _march(dom, g, tau, steps, params, regime, cfg, lambda traj: False)


def _bootstrap(dom: Domain, g, params: EnergyParams, regime: BoundaryRegime,
               cfg: SolverConfig):
    """auto_tau's bootstrap run and the tau it picks: (tau, trajectory)."""
    traj = evolve(dom, g, BOOTSTRAP_TAU, BOOTSTRAP_STEPS, params, regime, cfg)
    lam = traj.diagnostics[-1].lambda_decay
    if not math.isfinite(lam) or lam <= 0.0:
        return BOOTSTRAP_TAU, traj
    return 1.0 / (2.0 * lam), traj


def auto_tau(dom: Domain, g, params: EnergyParams, regime: BoundaryRegime,
             cfg: SolverConfig) -> float:
    """Pick tau = 1/(2 lambda-hat) from a short bootstrap run.

    The bootstrap takes BOOTSTRAP_STEPS = 10 steps of size BOOTSTRAP_TAU =
    0.1, which is also the fallback when it yields no positive estimate.
    The decay estimator is scale-free, so the bootstrap step size needs no
    reference to the size of g.
    """
    return _bootstrap(dom, g, params, regime, cfg)[0]


def _degenerate(traj: FlowTrajectory) -> bool:
    """Whether the last state has decayed to the floor relative to states[0]."""
    rows = traj.diagnostics
    return rows[-1].Np <= (DEGENERATE_FLOOR ** traj.params.p) * rows[0].Np


def _lambda_settled(lams) -> bool:
    """Whether the decay-rate estimates lams (oldest first) have settled.

    With d_k = |lam_k - lam_(k-1)| and r_k = d_k / d_(k-1), each of the last
    two steps must either change lambda-hat by no more than its rounding
    floor LAMBDA_ROUNDING * lam, or contract (r_k < 1) with both d_k and
    the geometric tail bound d_k r_k / (1 - r_k) on the change still to
    come below SETTLE_REL_TOL * lam.
    """
    last = lams[-4:]
    if len(last) < 4 or not all(map(math.isfinite, last)) or last[-1] <= 0.0:
        return False
    tol = SETTLE_REL_TOL * last[-1]
    floor = LAMBDA_ROUNDING * last[-1]
    d = [abs(b - a) for a, b in zip(last, last[1:])]
    # d_k r_k / (1 - r_k) = d_k^2 / (d_(k-1) - d_k) once d_k < d_(k-1).
    return all(cur <= floor or (cur < prev and cur < tol and cur * cur / (prev - cur) < tol)
               for prev, cur in zip(d, d[1:]))


def _settled(traj: FlowTrajectory) -> bool:
    """Whether traj's lambda-hat has settled (see _lambda_settled)."""
    return _lambda_settled([row.lambda_decay for row in traj.diagnostics[1:]])


def evolve_until_settled(dom: Domain, g, params: EnergyParams,
                         regime: BoundaryRegime, cfg: SolverConfig,
                         tau: float | None = None,
                         max_steps: int = 400) -> FlowTrajectory:
    """Evolve until the decay-rate estimate lambda-hat has settled.

    With tau = None the auto_tau bootstrap runs once: tau is its choice,
    and the settle march continues from its last state, so states[0] is
    that state, not g.  That state is separated, so the march's first step
    skips the p = 2 linear start (see the elliptic module docstring for what
    the skip saves and gives up).  It starts from g
    when the bootstrap decayed to zero or to the degenerate floor.  A given
    tau marches from g.

    The march stops once lambda-hat has settled: each of the last two steps
    changed it only at its rounding floor, or contracted the change with
    both the change and its geometric tail bound below SETTLE_REL_TOL = 1e-7
    relative (see _lambda_settled).  It also stops at the degenerate floor,
    and after max_steps steps, which count the settle march only.
    """
    separated = False
    if tau is None:
        tau, boot = _bootstrap(dom, g, params, regime, cfg)
        separated = not _degenerate(boot)
        if separated:
            g = boot.states[-1]

    def stop(traj):
        # The degenerate limit leaves nothing to estimate.
        return _degenerate(traj) or _settled(traj)

    return _march(dom, g, tau, max_steps, params, regime, cfg, stop,
                  linear_start=not separated)


def settled_read_out(dom: Domain, traj: FlowTrajectory, cfg: SolverConfig):
    """(lambda-hat, mu-hat, profile) of a settled trajectory's last state.

    lambda-hat is the last row's decay-rate estimate, profile the last
    state at unit L^p (see rescaled_profile) and mu-hat that state's dual
    quotient, its inverse solve warm-started at the profile: at an extremal
    (-Delta_p)^-1 jp(u) = u / mu, so the ray start from the profile lands
    next to the solution.  A nonzero last state whose lambda-hat has not
    settled raises NonConvergenceError, whether the march stopped at the
    degenerate floor (as a large given tau makes it) or after max_steps;
    the zero state's dual quotient raises DegenerateInputError.
    """
    k = traj.steps
    if traj.states[k].any() and not _settled(traj):
        raise NonConvergenceError(f"lambda-hat did not settle in {k} steps", step=k,
                                  regime=traj.regime.kind, p=traj.params.p)
    prof = rescaled_profile(traj, k)
    mu = diag.dual_quotient(dom, traj.states[k], traj.params, traj.regime, cfg,
                            warm_start=prof)
    return traj.diagnostics[k].lambda_decay, mu, prof


def rescaled_profile(traj: FlowTrajectory, k: int):
    """u^k normalized to unit L^p norm, sign preserved; None when that norm
    is 0 (the zero state, or one whose int |u|^p underflows)."""
    u = traj.states[k]
    norm = lp_norm(traj.dom, u, traj.params.p)
    return u / norm if norm > 0.0 else None


def profile_gap(dom: Domain, a, b, p: float) -> float:
    """L^p distance between two profiles up to sign: min |a - b|, |a + b|."""
    return min(lp_norm(dom, a - b, p), lp_norm(dom, a + b, p))


def write_new_file(path: Path, text: str) -> None:
    """Write text to path as a new file, removing a file already there first.

    Truncating a file written moments before, or renaming another file over
    it, makes ext4 flush the old data first (its auto_da_alloc heuristic),
    which stalls the write for tens of milliseconds; creating the file anew
    after an unlink does not, and leaves no temporary file behind.
    """
    path.unlink(missing_ok=True)
    path.write_text(text)


def write_snapshot(path, dom: Domain, params: EnergyParams, regime: BoundaryRegime,
                   u, k: int, tau: float) -> None:
    """Plain-text state dump: one header line, then node values row-major,
    written as a new file (see write_new_file)."""
    p = params.p
    if dom.kind == "interval":
        dims = f"n={dom.shape[0]} h={dom.hx!r}"
    elif dom.kind == "rectangle":
        dims = f"nx={dom.shape[1]} ny={dom.shape[0]} hx={dom.hx!r} hy={dom.hy!r}"
    else:
        dims = f"rows={dom.shape[0]} cols={dom.shape[1]} h={dom.hx!r}"
    reg = regime.kind
    if regime.kind == "robin":
        reg += f":beta={regime.beta!r}"
    elif regime.kind == "fractional":
        reg += f":s={regime.s!r}"
    header = f"kind={dom.kind} {dims} p={p!r} regime={reg} k={k} tau={tau!r}"
    u = dom.check_field(u)
    write_new_file(Path(path), "".join([header + "\n"] + [repr(float(v)) + "\n" for v in u]))


def read_snapshot(path):
    """Parse a snapshot file back into (metadata dict, value array).

    A value that is not a finite number raises InvalidSnapshotError naming
    the file and its line.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise InvalidSnapshotError(f"{path}: empty snapshot file")
    meta = {}
    for tok in lines[0].split():
        key, _, val = tok.partition("=")
        meta[key] = val
    values = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        try:
            v = float(ln)
        except ValueError:
            v = math.nan
        if not math.isfinite(v):
            raise InvalidSnapshotError(f"{path}: line {lineno}: {ln.strip()!r} "
                                       "is not a finite number")
        values.append(v)
    return meta, np.array(values)
