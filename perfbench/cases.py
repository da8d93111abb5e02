"""The three workloads: case lists, generated configs and output checks.

Each case is one ``dnflow`` CLI command on one generated config file.  The
workload seed goes into every config's ``seed`` key, which drives the
oracle's random start and ``init.kind = random``; nothing else varies with
the seed.  Why each case is in its list is written up in NOTES.md.

The checks parse the command's output themselves.  From dnflow they use
only the domain builders and ``dense_linear_reference``, the package's
independent p = 2 anchor, so a defect in the code under measurement cannot
also hide its own wrong output.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

GRAD_TOL = 1e-9
SLACK = 10.0 * GRAD_TOL  # the README's bound for every monotone quantity
EVOLVE_STEPS = 200
CSV_HEADER = ("k,t,Np,rayleigh,dual_q,lambda_decay,lambda_rayleigh,"
              "mu_from_dual,conservation,energy_residual")
MU_LAMBDA_TOL = 0.02
PROFILE_GAP_TOL = 1e-3
# Relative agreement with the dense p = 2 eigensolve: the flow's settled
# decay rate (acceptance criterion 1) and the oracle's converged quotient,
# which is quadratically accurate in its 1e-9 eigen-residual.
DENSE_TOL = {"eigen": 1e-6, "oracle": 1e-8}


@dataclass(frozen=True)
class Case:
    id: str
    command: str
    keys: dict

    @property
    def p(self) -> float:
        return float(self.keys["p"])


def _case(command, kind, n, p, regime, **extra):
    keys = {"domain.kind": kind, "domain.n": n, "p": p, "regime.kind": regime,
            "grad_tol": GRAD_TOL, "epsilon": 1e-6, **extra}
    if regime == "neumann":
        # Constant data projects to the zero field under the Neumann
        # constraint, so Neumann cases start from random data.
        keys["init.kind"] = "random"
    grid = f"n{n}" if kind == "interval" else f"{n}x{n}"
    return Case(f"{regime}-p{p}-{grid}", command, keys)


def _evolve(regime, p):
    return _case("evolve", "interval", 32, p, regime, tau="auto", steps=EVOLVE_STEPS)


def _eigen(kind, n, p, regime):
    return _case("eigen", kind, n, p, regime, tau="auto", steps=200)


WORKLOADS = {
    "evolve_1d": [
        _evolve("dirichlet", 1.5),
        _evolve("robin", 2),
        _evolve("neumann", 3),
        _evolve("fractional", 2),
        _evolve("fractional", 3),
    ],
    "eigen": [
        _eigen("interval", 199, 2, "dirichlet"),  # the README reference config
        _eigen("rectangle", 31, 1.5, "dirichlet"),
        _eigen("rectangle", 31, 3, "dirichlet"),
        _eigen("rectangle", 63, 3, "dirichlet"),
        _eigen("interval", 199, 1.5, "robin"),
    ],
    "oracle_1d": [
        _case("oracle", "interval", n, p, regime)
        for regime in ("dirichlet", "robin", "neumann", "fractional")
        for p in (1.5, 2, 2.5, 3, 4)
        for n in (32, 199)
    ],
}


# The oracle's cost depends on its random start: over seeds, one cell's
# time varies about twofold.  So each batch of a --trace 0 run on these
# workloads draws its own starts, from config seed seed + batch *
# SEED_STRIDE, and the run averages over them.  The other workloads barely
# depend on the seed; their batches repeat the same inputs.
FRESH_STARTS = {"oracle_1d"}
SEED_STRIDE = 1_000_000


def batch_seeds(workload: str, seed: int, batches: int) -> list:
    """The config seed of each batch of a --trace 0 run; the first is the
    workload seed itself."""
    stride = SEED_STRIDE if workload in FRESH_STARTS else 0
    return [seed + b * stride for b in range(batches)]


def write_configs(workload: str, seed: int, work_dir: Path):
    """Write one config per case; returns [(case, config path, out dir)]."""
    prepared = []
    for case in WORKLOADS[workload]:
        out = work_dir / case.id
        out.mkdir(parents=True, exist_ok=True)
        keys = {**case.keys, "seed": seed, "out.dir": out}
        cfg = out / "config.txt"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        prepared.append((case, cfg, out))
    return prepared


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _floats(text: str, count: int):
    fields = text.split()
    if len(fields) != count:
        raise ValueError(f"expected {count} numbers on stdout, got {text!r}")
    return [float(x) for x in fields]


def _mu_lambda_gap(lam, mu, p):
    ref = lam ** (1.0 / (p - 1.0))
    return abs(mu - ref) / ref


class Checker:
    """Output checks per command; caches the dense p = 2 references."""

    def __init__(self):
        self._dense = {}

    def dense_lambda(self, case: Case) -> float:
        if case.id not in self._dense:
            from dnflow import BoundaryRegime, build_interval, build_rectangle
            from dnflow.oracle import dense_linear_reference

            k = case.keys
            n = k["domain.n"]
            dom = build_interval(n) if k["domain.kind"] == "interval" else build_rectangle(n, n, 1.0, 1.0)
            regime = {"dirichlet": BoundaryRegime.dirichlet(),
                      "robin": BoundaryRegime.robin(1.0),
                      "neumann": BoundaryRegime.neumann(),
                      "fractional": BoundaryRegime.fractional(0.5)}[k["regime.kind"]]
            self._dense[case.id] = dense_linear_reference(dom, regime).lam
        return self._dense[case.id]

    def check(self, case: Case, stdout: str, out: Path):
        """(error or None, sha256 of the case's output file or stdout)."""
        try:
            return getattr(self, "_" + case.command)(case, stdout, out)
        except (OSError, ValueError) as exc:
            return f"unreadable output: {exc}", None

    def _evolve(self, case, stdout, out):
        data = (out / "diagnostics.csv").read_bytes()
        lines = data.decode().splitlines()
        digest = _sha256(data)
        if lines[0] != CSV_HEADER:
            return f"CSV header is {lines[0]!r}", digest
        rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
        if len(rows) != EVOLVE_STEPS + 1 or any(len(r) != 10 for r in rows):
            return f"expected {EVOLVE_STEPS + 1} rows of 10 columns, got {len(rows)}", digest
        if [r[0] for r in rows] != list(range(EVOLVE_STEPS + 1)):
            return "step column is not 0..steps", digest
        for prev, row in zip(rows, rows[1:]):
            k, np_prev, np_k = row[0], prev[2], row[2]
            if np_k > np_prev * (1.0 + SLACK):
                return f"L^p norm grew at step {k:.0f}: {np_k!r} > {np_prev!r}", digest
            if row[9] > SLACK * np_prev:
                return f"energy identity violated at step {k:.0f}: residual {row[9]!r}", digest
        if not all(math.isfinite(r[4]) and math.isfinite(r[7]) for r in rows):
            return "dual columns not filled on every row", digest
        lam, mu = rows[-1][5], rows[-1][7]
        gap = _mu_lambda_gap(lam, mu, case.p)
        if not gap <= MU_LAMBDA_TOL:
            return f"mu-lambda consistency {gap:.3e} > {MU_LAMBDA_TOL}", digest
        return None, digest

    def _eigen(self, case, stdout, out):
        digest = _sha256(stdout.encode())
        lam, mu, gap = _floats(stdout, 3)
        if not gap <= PROFILE_GAP_TOL:
            return f"profile gap {gap!r} > {PROFILE_GAP_TOL}", digest
        consistency = _mu_lambda_gap(lam, mu, case.p)
        if not consistency <= MU_LAMBDA_TOL:
            return f"mu-lambda consistency {consistency:.3e} > {MU_LAMBDA_TOL}", digest
        return self._dense_check(case, lam, DENSE_TOL["eigen"]), digest

    def _oracle(self, case, stdout, out):
        data = (out / "extremal.txt").read_bytes()
        digest = _sha256(data)
        lines = data.decode().splitlines()
        if not lines[0].startswith("kind=interval") or len(lines) != case.keys["domain.n"] + 1:
            return f"extremal.txt has header {lines[0]!r} and {len(lines) - 1} values", digest
        lam, mu, residual, _ = _floats(stdout, 4)
        if not residual <= SLACK:
            return f"residual {residual!r} > {SLACK}", digest
        if _mu_lambda_gap(lam, mu, case.p) > 1e-12:
            return f"mu {mu!r} != lambda^(1/(p-1)) for lambda {lam!r}", digest
        return self._dense_check(case, lam, DENSE_TOL["oracle"]), digest

    def _dense_check(self, case, lam, tol):
        if case.p != 2.0:
            return None
        ref = self.dense_lambda(case)
        gap = abs(lam / ref - 1.0)
        return None if gap <= tol else f"lambda {lam!r} vs dense {ref!r}: gap {gap:.3e} > {tol}"
