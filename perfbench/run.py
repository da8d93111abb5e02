"""dnflow benchmark: one workload, run in-process through ``dnflow.cli.main``.

    python3 perfbench/run.py --workload evolve_1d --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; dnflow is imported from ``src/`` there.

--trace 0 measures the end-to-end metrics.  Set-up time is the median over
seven fresh processes that import dnflow and write the configs.  Then the
workload's fixed case list runs serially, batch after batch.  The number of
batches is fixed by --seconds and the workload's typical batch time (see
``planned_batches``), never by the clock, so the attempted and failed
counts repeat on the same seed.  ``batch_s`` is the mean batch wall time
where each batch draws its own random starts (``cases.FRESH_STARTS``), and
otherwise the sum over cases of each case's fastest time, since those
batches repeat the same inputs.  The run also reports the share of cases
that pass and peak resident memory.  The median and geometric mean of the
case wall times are printed and stored in the report, but are not gated
metrics.

--trace 1 runs the case list once untraced and once with spans recorded at
every module boundary (see tracing.py), and reports per-layer metrics plus
the median case time of the untraced batch and the tracing overhead
(traced minus untraced batch time).

Every case's output is checked after its batch, outside the timed region.
Details (per-case rows, output hashes, environment) go to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``; the last line of
standard output is the JSON summary.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = str(min(2, NPROC))
# Before numpy loads: serial workloads, at most two BLAS threads.
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
# Typical batch wall time per workload on a 2-vCPU x86_64 VM (NOTES.md).
# Only used to turn --seconds into a fixed number of batches.
TYPICAL_BATCH_S = {"evolve_1d": 14.0, "eigen": 11.0, "oracle_1d": 22.0}
MIN_BATCHES = 2


def import_dnflow():
    """Import dnflow from this checkout's src/, or exit 1 without a result."""
    if not (SRC / "dnflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dnflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dnflow
    import dnflow.cli

    if SRC not in Path(dnflow.__file__).resolve().parents:
        sys.exit(f"perfbench: imported dnflow from {dnflow.__file__}, not {SRC}")
    return dnflow


dnflow = import_dnflow()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

sys.path.insert(0, str(HERE))
from cases import FRESH_STARTS, WORKLOADS, Checker, batch_seeds, write_configs  # noqa: E402
from tracing import LAYER_METRICS, SpanTable, Tracer  # noqa: E402


def measure_setup(workload: str, seed: int, work: Path) -> list:
    """Times from spawning a fresh process until it has imported dnflow and
    written the configs (it prints time.monotonic() at that point)."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        probe = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed),
                                str(work / "probe")], check=True, capture_output=True, text=True)
        times.append(float(probe.stdout) - t0)
    return times


def planned_batches(workload: str, seconds: float) -> int:
    """Batches in a --trace 0 run: as many typical batches as fit in
    --seconds, and at least two.  It depends only on the arguments, not on
    the clock."""
    return max(MIN_BATCHES, int(seconds // TYPICAL_BATCH_S[workload]))


def run_batch(prepared) -> tuple:
    """Run every case once through dnflow.cli.main; (batch wall, case runs)."""
    runs = []
    t_batch = time.perf_counter()
    for case, cfg, _out in prepared:
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                rc = dnflow.cli.main([case.command, "--config", str(cfg)])
            except Exception as exc:  # an untyped crash is a failed case, not a stop
                rc = None
                error = "uncaught " + traceback.format_exception_only(exc)[-1].strip()
            wall = time.perf_counter() - t0
        if rc not in (0, None):
            error = f"exit {rc}: {stderr.getvalue().strip()}"
        runs.append({"case": case, "wall_s": wall, "error": error, "stdout": stdout.getvalue()})
    return time.perf_counter() - t_batch, runs


def check_batch(prepared, runs, checker: Checker, digests: dict) -> list:
    """Check outputs; fill each run's error, digest and output bytes.

    Returns the problems that make the run incorrect: output that fails its
    check although the command reported success, and output that differs
    from an earlier batch on the same inputs.
    """
    wrong = []
    for (case, _cfg, out), run in zip(prepared, runs):
        run["bytes"] = sum(f.stat().st_size for f in out.iterdir() if f.name != "config.txt")
        if run["error"] is not None:
            continue
        problem, digest = checker.check(case, run["stdout"], out)
        if problem is not None:
            run["error"] = "check failed: " + problem
            wrong.append(f"{case.id}: {run['error']}")
        if digest is not None and digests.setdefault(case.id, digest) != digest:
            wrong.append(f"{case.id}: output differs between batches on identical inputs")
    return wrong


def environment() -> dict:
    env = {"nproc": NPROC, "openblas_threads": BLAS_THREADS,
           "python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "machine": platform.machine()}
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        conf = ""
    for fields in map(str.split, conf.splitlines()):
        if len(fields) == 2 and fields[0] in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE",
                                              "LEVEL3_CACHE_SIZE"):
            env[fields[0].lower() + "_bytes"] = int(fields[1])
    return env


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def fastest_case_sum(batches) -> float:
    """Sum over cases of each case's fastest wall time in the batches."""
    fastest = {}
    for _wall, runs in batches:
        for run in runs:
            cid = run["case"].id
            fastest[cid] = min(run["wall_s"], fastest.get(cid, math.inf))
    return sum(fastest.values())


def measure(args, work: Path) -> int:
    setup = measure_setup(args.workload, args.seed, work)
    checker = Checker()
    digests = {}  # config seed -> case id -> sha256 of the case's output
    wrong = []
    all_runs = []

    def batch(config_seed):
        prepared = write_configs(args.workload, config_seed, work / f"seed{config_seed}")
        wall, runs = run_batch(prepared)
        wrong.extend(check_batch(prepared, runs, checker,
                                 digests.setdefault(str(config_seed), {})))
        all_runs.extend(runs)
        return wall, runs

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "setup_s": setup}
    if args.trace:
        untraced_s, untraced_runs = batch(args.seed)
        tracer = Tracer()
        tracer.install()
        try:
            traced_s, traced_runs = batch(args.seed)
        finally:
            tracer.uninstall()
        spans = tracer.spans()
        table = SpanTable(tracer.span_names, spans)
        layers = table.metrics()
        layers["cli.bytes_written"] = sum(r["bytes"] for r in traced_runs)
        layers["cli.case_s.p50"] = statistics.median(r["wall_s"] for r in untraced_runs)
        layers["trace.overhead_s"] = traced_s - untraced_s
        units = {**LAYER_METRICS, "cli.bytes_written": "bytes", "cli.case_s.p50": "s",
                 "trace.overhead_s": "s"}
        metrics = {k: metric(layers[k], units[k]) for k in units}
        roots = list(table.roots("cli.main")) + [len(spans["name"])]
        report["cases"] = [
            {"id": run["case"].id, "wall_s": run["wall_s"], "error": run["error"],
             "bytes": run["bytes"], **table.metrics(lo, hi)}
            for run, lo, hi in zip(traced_runs, roots, roots[1:])]
        report["batch_s"] = {"untraced": untraced_s, "traced": traced_s}
        np.savez_compressed(OUT / f"{args.workload}-seed{args.seed}-spans.npz",
                            span_names=np.array(tracer.span_names), **spans)
    else:
        seeds = batch_seeds(args.workload, args.seed, planned_batches(args.workload, args.seconds))
        batches = [batch(s) for s in seeds]
        batch_times = [wall for wall, _runs in batches]
        if args.workload in FRESH_STARTS:
            batch_s = statistics.mean(batch_times)
        else:
            batch_s = fastest_case_sum(batches)
        case_times = [r["wall_s"] for r in all_runs]
        passed = sum(r["error"] is None for r in all_runs)
        metrics = {
            "setup_s": metric(statistics.median(setup), "s"),
            "batch_s": metric(batch_s, "s"),
            "ok_frac": metric(passed / len(all_runs), "ratio"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        report["batch_s"] = batch_times
        report["batch_seeds"] = seeds
        report["case_s.p50"] = statistics.median(case_times)
        report["case_s.gmean"] = statistics.geometric_mean(case_times)
        report["cases"] = [{"id": r["case"].id, "wall_s": r["wall_s"], "error": r["error"],
                            "bytes": r["bytes"]} for r in all_runs]

    failed = [r for r in all_runs if r["error"] is not None]
    report["sha256"] = digests
    report["failures"] = [f"{r['case'].id}: {r['error']}" for r in failed]
    report["incorrect"] = wrong
    report["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))

    for line in report["failures"]:
        print(f"FAILED {args.workload}/{line}")
    for line in wrong:
        print(f"INCORRECT {args.workload}/{line}")
    print(f"{args.workload}: {len(all_runs)} case runs, {len(failed)} failed "
          f"(failed_frac {len(failed) / len(all_runs):.4f})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    if not args.trace:
        print(f"  case_s.p50 = {report['case_s.p50']!r} s, case_s.gmean = "
              f"{report['case_s.gmean']!r} s, over {len(all_runs)} case runs (not gated)")
    print(json.dumps({"correct": not wrong, "attempted": len(all_runs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
