"""Batch front end: ``dnflow <evolve|eigen|oracle|verify|sweep> --config FILE``.

Plain-text configs hold ``key = value`` lines with ``#`` comments.  Exit
codes: 0 success, 1 config error or bad input data, 2 solver
non-convergence, 3 invariant violation (a failed check or a sign-changing
profile), 4 I/O error.  Identical config + seed produces byte-identical
CSV output.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .domain import build_interval, build_rectangle, load_mask
from .elliptic import SolverConfig
from .errors import (
    ConfigError,
    DnflowError,
    NonConvergenceError,
    SignViolationError,
    UnsupportedRegimeError,
)
from .flow import (
    auto_tau,
    evolve,
    evolve_until_settled,
    profile_gap,
    read_snapshot,
    settled_read_out,
    write_new_file,
    write_snapshot,
)
from .operators import BoundaryRegime, EnergyParams, validate_regime
from .oracle import minimize_rayleigh
from .verify import LAMBDA_GAP_BOUND, run_invariant_suite

__all__ = ["RunConfig", "parse_config", "main"]

_INIT_KINDS = ("constant_one", "extremal", "random", "file")


@dataclass
class RunConfig:
    """One run's settings; ``parse_config`` returns them as the run's first item.

    Config key ``a.b`` sets field ``a_b``, parsed by the type of the field's
    default; ``tau`` takes a number or ``auto`` (None); ``domain_ny`` 0 means
    ``domain_n``.
    """

    domain_kind: str = "interval"
    domain_n: int = 0
    domain_ny: int = 0
    domain_lx: float = 1.0
    domain_ly: float = 1.0
    domain_mask: str = ""
    p: float = 0.0
    regime_kind: str = ""
    regime_beta: float = 1.0
    regime_s: float = 0.5
    tau: float | None = None  # None means auto
    steps: int = 200
    grad_tol: float = 1e-9
    epsilon: float = 1e-6
    seed: int = 0
    init_kind: str = "constant_one"
    init_path: str = ""
    out_dir: str = "."


_KEYS = (
    "domain.kind", "domain.n", "domain.ny", "domain.lx", "domain.ly", "domain.mask",
    "p", "regime.kind", "regime.beta", "regime.s", "tau", "steps", "grad_tol",
    "epsilon", "seed", "init.kind", "init.path", "out.dir",
)

_REQUIRED = ("domain.kind", "p", "regime.kind")


def parse_config(text: str):
    """Parse ``key = value`` lines into the run every command takes (see
    ``_build``), so every value is checked before any work."""
    cfg = RunConfig()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            _assign(cfg, key, val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {val!r}") from exc
        seen.add(key)
    missing = [k for k in _REQUIRED if k not in seen]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    if cfg.domain_kind != "masked" and cfg.domain_n <= 0 and "domain.n" not in seen:
        raise ConfigError("missing required keys: domain.n")
    return _build(cfg)


def _assign(cfg: RunConfig, key: str, text: str) -> None:
    name = key.replace(".", "_")
    if key == "tau":
        value = None if text == "auto" else float(text)
    else:
        value = type(getattr(RunConfig, name))(text)
    setattr(cfg, name, value)


def _build(cfg: RunConfig):
    """The run (cfg, domain, params, regime, solver config) of a RunConfig.

    The CLI checks its own keys; the library types check every other value,
    and a ValueError / UnsupportedRegimeError of theirs becomes a ConfigError.
    """
    if cfg.domain_kind not in ("interval", "rectangle", "masked"):
        raise ConfigError(f"unknown domain.kind {cfg.domain_kind!r}")
    if cfg.domain_kind == "masked" and not cfg.domain_mask:
        raise ConfigError("masked domain needs domain.mask = <path>")
    if cfg.init_kind not in _INIT_KINDS:
        raise ConfigError(f"unknown init.kind {cfg.init_kind!r}")
    if cfg.init_kind == "file" and not cfg.init_path:
        raise ConfigError("init.kind = file needs init.path")
    if cfg.steps < 1:
        raise ConfigError(f"steps must be >= 1, got {cfg.steps}")
    if cfg.tau is not None and not 0 < cfg.tau < math.inf:
        raise ConfigError(f"tau must be positive and finite, got {cfg.tau}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    try:
        params = EnergyParams(cfg.p, cfg.epsilon)
        if cfg.regime_kind == "robin":
            regime = BoundaryRegime.robin(cfg.regime_beta)
        elif cfg.regime_kind == "fractional":
            regime = BoundaryRegime.fractional(cfg.regime_s)
        else:
            regime = BoundaryRegime(cfg.regime_kind)
        solver = SolverConfig(grad_tol=cfg.grad_tol)
        if cfg.domain_kind == "interval":
            dom = build_interval(cfg.domain_n)
        elif cfg.domain_kind == "rectangle":
            dom = build_rectangle(cfg.domain_n, cfg.domain_ny or cfg.domain_n,
                                  cfg.domain_lx, cfg.domain_ly)
        else:
            dom = load_mask(cfg.domain_mask)
        validate_regime(dom, regime)
    except (ValueError, UnsupportedRegimeError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg, dom, params, regime, solver


def _initial_field(run) -> np.ndarray:
    cfg, dom, params, regime, solver = run
    if cfg.init_kind == "constant_one":
        return np.ones(dom.n_nodes)
    if cfg.init_kind == "random":
        return np.random.default_rng(cfg.seed).standard_normal(dom.n_nodes)
    if cfg.init_kind == "extremal":
        return minimize_rayleigh(dom, params, regime, solver, seed=cfg.seed).extremal
    _, values = read_snapshot(cfg.init_path)
    return dom.check_field(values)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_evolve(run, args) -> int:
    snapshot_steps = _snapshot_steps(args.snapshots, run[0].steps)
    cfg, dom, params, regime, solver = run
    g = _initial_field(run)
    tau = cfg.tau if cfg.tau is not None else auto_tau(dom, g, params, regime, solver)
    traj = evolve(dom, g, tau, cfg.steps, params, regime, solver)
    diag.fill_dual_columns(dom, traj, solver)
    out = _out_dir(cfg)
    write_new_file(out / "diagnostics.csv", diag.rows_to_csv(traj.diagnostics))
    for k in snapshot_steps:
        write_snapshot(out / f"snapshot_{k:06d}.txt", dom, params, regime,
                       traj.states[k], k, tau)
    return 0


def _eigen_numbers(run):
    cfg, dom, params, regime, solver = run
    g = _initial_field(run)
    traj = evolve_until_settled(dom, g, params, regime, solver, tau=cfg.tau,
                                max_steps=cfg.steps)
    lam, mu, prof = settled_read_out(dom, traj, solver)
    ref = minimize_rayleigh(dom, params, regime, solver, seed=cfg.seed)
    # A flow settled on a higher mode reads that mode's rate: refuse it.
    if not abs(lam / ref.lam - 1.0) <= LAMBDA_GAP_BOUND:
        raise NonConvergenceError(f"the flow settled at lambda {lam!r}, the oracle's lambda "
                                  f"is {ref.lam!r}", step=traj.steps, regime=regime.kind,
                                  p=params.p)
    return lam, mu, profile_gap(dom, prof, ref.extremal, params.p), traj.steps


def cmd_eigen(run, args) -> int:
    lam, mu, gap, _ = _eigen_numbers(run)
    print(f"{lam!r} {mu!r} {gap!r}")
    return 0


def cmd_oracle(run, args) -> int:
    cfg, dom, params, regime, solver = run
    result = minimize_rayleigh(dom, params, regime, solver, seed=cfg.seed)
    out = _out_dir(cfg)
    write_snapshot(out / "extremal.txt", dom, params, regime,
                   result.extremal, 0, 0.0 if cfg.tau is None else cfg.tau)
    print(result.summary())
    return 0


def cmd_verify(run, args) -> int:
    cfg, dom, params, regime, solver = run
    rows = run_invariant_suite(dom, params, regime, solver, seed=cfg.seed)
    for row in rows:
        print(row.line())
    return 0 if all(ok for *_x, ok in rows) else 3


def cmd_sweep(run, args) -> int:
    """One eigen pipeline per value; every value's run is built first."""
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value")
    cfg, param, jobs = run[0], args.param, args.jobs
    if param not in _KEYS:
        raise ConfigError(f"unknown sweep parameter {param!r}")
    if jobs is None:
        # The CPUs this process may run on: os.cpu_count() also counts those
        # outside its affinity mask or cpuset.
        jobs = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    elif jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    is_int = type(getattr(RunConfig, param.replace(".", "_"))) is int
    runs = []
    for text in values:
        swept = replace(cfg)
        try:
            _assign(swept, param, text)
        except ValueError:
            raise ConfigError(f"--values: could not convert {text!r} to "
                              f"{'an integer' if is_int else 'a number'}") from None
        runs.append(_build(swept))
    if jobs > 1 and len(runs) > 1:
        # Imported here: no other command pays for the process pool's import.
        from concurrent.futures import ProcessPoolExecutor

        # The fork start method forks every worker at the first submit.
        with ProcessPoolExecutor(max_workers=min(jobs, len(runs))) as pool:
            results = list(pool.map(_eigen_numbers, runs))
    else:
        results = [_eigen_numbers(r) for r in runs]
    out = _out_dir(cfg)
    lines = ["param,value,lambda,mu,profile_gap,steps"]
    for value, (lam, mu, gap, steps) in zip(values, results):
        lines.append(f"{param},{value!r},{lam!r},{mu!r},{gap!r},{steps}")
    write_new_file(out / "sweep.csv", "\n".join(lines) + "\n")
    return 0


def _snapshot_steps(text: str, steps: int) -> list:
    """The ``--snapshots`` step indices, each an integer in [0, steps]."""
    ks = []
    for entry in [s.strip() for s in text.split(",") if s.strip()]:
        try:
            k = int(entry)
        except ValueError:
            raise ConfigError(f"--snapshots: could not convert {entry!r} to an integer") from None
        if not 0 <= k <= steps:
            raise ConfigError(f"--snapshots: snapshot step {k} outside [0, {steps}]")
        ks.append(k)
    return ks


# The subcommands, each called as command(run, args) once the run is built.
_COMMANDS = {"evolve": cmd_evolve, "eigen": cmd_eigen, "oracle": cmd_oracle,
             "verify": cmd_verify, "sweep": cmd_sweep}

# (exception type, exit code, label of its stderr line), most specific first:
# the first type an error is an instance of decides.  A ValueError that no
# layer typed (a config file that is not UTF-8) is a config error.
_FAILURES = (
    (ConfigError, 1, "config error"),
    (NonConvergenceError, 2, "solver did not converge"),
    (SignViolationError, 3, "invariant violation"),
    (DnflowError, 1, "bad input"),
    (OSError, 4, "i/o error"),
    (ValueError, 1, "config error"),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors (exit 1)
        raise ConfigError(message)


@functools.cache
def _build_parser() -> _Parser:
    # Built once per process: parse_args keeps no state between calls.
    parser = _Parser(prog="dnflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--out", default=None)
        if name == "evolve":
            cmd.add_argument("--snapshots", default="",
                             help="comma-separated step indices to dump")
        if name == "sweep":
            cmd.add_argument("--param", required=True)
            cmd.add_argument("--values", required=True)
            cmd.add_argument("--jobs", type=int, default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            print(f"dnflow: cannot read config: {exc}", file=sys.stderr)
            return 4
        run = parse_config(text)
        if args.out is not None:
            run[0].out_dir = args.out
        return _COMMANDS[args.command](run, args)
    except (DnflowError, OSError, ValueError) as exc:
        code, label = next((code, label) for kind, code, label in _FAILURES
                           if isinstance(exc, kind))
        print(f"dnflow: {label}: {exc}", file=sys.stderr)
        return code
