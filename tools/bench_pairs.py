"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--seed S]
                                 [--pairs 10] [--json FILE]

PARENT and CHANGE are the roots of two checkouts.  Each pair runs the
benchmark command of CHANGE's BENCHMARK.json (``perfbench/run.py``) once in
each checkout, with ``--workload W --seed S --trace 0 --seconds
<run_seconds>``; the parent runs first in odd pairs and the change first in
even pairs, so neither side always runs on a warmer machine.  Each run's
summary is the last JSON line of its standard output, and its output hashes
come from the report it writes, ``perfbench/out/W-seedS-trace0.json``.

For each end-to-end metric of BENCHMARK.json the tool prints both sides'
medians and inclusive quartiles, how many pairs the change won and tied, and
the move of the change's median relative to the parent's, against the
metric's bound.  A metric is unresolved when either side's spread, (max -
min) / |median| over its runs, exceeds the bound: runs that spread that
wide cannot show a move of the bound's size either way.  The tool also
reports whether every run of both sides gave the same sha256 lists.

After the pairs the tool runs the benchmark once more in each checkout
with ``--trace 1`` and prints, parent against change, every per-layer
metric of BENCHMARK.json whose unit is not ``s`` or ``us``: the counts of
iterations, evaluations and bytes and their ratios, which do not depend on
the machine.  A count that differs between the sides is flagged.

It exits 1 when any run, traced or not, exits nonzero, reports itself
incorrect or has a failed case, and 0 otherwise; a move past a bound or a
changed count is printed, not an exit status.  --json FILE writes every
run, the comparison and the counts.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(root: Path, command: list, workload: str, seed: int, seconds,
             trace: int = 0) -> dict:
    """One benchmark run in the checkout at root: its summary, hashes and
    exit status."""
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--trace", str(trace), "--seconds", str(seconds)],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        summary = {}
    report = root / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    sha256 = json.loads(report.read_text()).get("sha256") if report.is_file() else None
    ok = proc.returncode == 0 and summary.get("correct") is True and summary.get("failed") == 0
    return {"exit": proc.returncode, "ok": ok, "summary": summary, "sha256": sha256,
            "stderr": proc.stderr.strip().splitlines()[-5:]}


def quartiles(values: list) -> tuple:
    """(lower quartile, median, upper quartile), inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spread(values: list) -> float:
    """(max - min) / |median| of one side's runs."""
    width, mid = max(values) - min(values), abs(statistics.median(values))
    return width / mid if mid else (math.inf if width else 0.0)


def compare(spec: dict, runs: list) -> dict:
    """The comparison of one end-to-end metric over the pairs of runs."""
    name, lower = spec["name"], spec["better"] == "lower"
    values = {side: [pair[side]["summary"]["metrics"][name]["value"] for pair in runs]
              for side in SIDES}
    wins = ties = 0
    for a, b in zip(values["parent"], values["change"]):
        ties += a == b
        wins += b < a if lower else b > a
    (p1, pm, p3), (c1, cm, c3) = (quartiles(values[side]) for side in SIDES)
    move = (cm - pm) / abs(pm) if pm else cm - pm
    worse = move > spec["bound"] if lower else -move > spec["bound"]
    widest = max(spread(values[side]) for side in SIDES)
    return {"name": name, "unit": spec["unit"], "better": spec["better"],
            "bound": spec["bound"], "values": values, "parent": [p1, pm, p3],
            "change": [c1, cm, c3], "wins": wins, "ties": ties, "move": move,
            "worse": worse, "spread": widest, "unresolved": widest > spec["bound"]}


def print_run(label: str, run: dict) -> None:
    values = " ".join(f"{k}={m['value']!r}" for k, m in run["summary"].get("metrics", {}).items())
    print(f"{label}: {'ok' if run['ok'] else 'FAILED'} {values}")
    if not run["ok"]:
        print(f"  exit {run['exit']}: " + " | ".join(run["stderr"]))


def compare_counts(specs: list, traced: dict) -> list:
    """Parent and change values of each per-layer count metric in specs."""
    counts = []
    for spec in specs:
        if spec["unit"] in ("s", "us"):  # times, which depend on the machine
            continue
        values = {side: traced[side]["summary"]["metrics"].get(spec["name"], {}).get("value")
                  for side in SIDES}
        counts.append({"name": spec["name"], "unit": spec["unit"], **values,
                       "differs": values["parent"] != values["change"]})
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs = []
    for i in range(1, args.pairs + 1):
        order = SIDES if i % 2 else SIDES[::-1]
        pair = {side: run_once(roots[side], bench["command"], args.workload, args.seed,
                               bench["run_seconds"]) for side in order}
        runs.append(pair)
        for side in order:
            print_run(f"pair {i} {side}", pair[side])
    traced = {side: run_once(roots[side], bench["command"], args.workload, args.seed,
                             bench["run_seconds"], trace=1) for side in SIDES}
    for side in SIDES:
        print_run(f"traced {side}", traced[side])

    bad = sum(not pair[side]["ok"] for pair in runs for side in SIDES)
    bad_traced = sum(not run["ok"] for run in traced.values())
    result = {"workload": args.workload, "seed": args.seed, "pairs": args.pairs,
              "runs": runs, "failed_runs": bad, "traced": traced,
              "failed_traced_runs": bad_traced}
    if not bad:
        hashes = [pair[side]["sha256"] for pair in runs for side in SIDES]
        result["sha256_match"] = all(h == hashes[0] for h in hashes) and hashes[0] is not None
        result["metrics"] = [compare(spec, runs) for spec in bench["end_to_end"]]
        print(f"{args.workload} seed {args.seed}, {args.pairs} pairs: sha256 lists "
              + ("match" if result["sha256_match"] else "DIFFER"))
        for m in result["metrics"]:
            print(f"{m['name']} ({m['unit']}, {m['better']} is better, bound {m['bound']}): "
                  f"parent {m['parent'][1]:.6g} [{m['parent'][0]:.6g}, {m['parent'][2]:.6g}], "
                  f"change {m['change'][1]:.6g} [{m['change'][0]:.6g}, {m['change'][2]:.6g}], "
                  f"change won {m['wins']}/{args.pairs} tied {m['ties']}, move {m['move']:+.2%}"
                  + (", WORSE than the bound" if m["worse"] else "")
                  + (f", UNRESOLVED (spread {m['spread']:.2%})" if m["unresolved"] else ""))
    else:
        print(f"{bad} of {2 * args.pairs} runs failed or were incorrect")
    if not bad_traced:
        result["counts"] = compare_counts(bench.get("per_layer", []), traced)
        print(f"{args.workload} seed {args.seed}, counts of one traced run per side:")
        for c in result["counts"]:
            print(f"{c['name']} ({c['unit']}): parent {c['parent']!r}, change {c['change']!r}"
                  + (", DIFFERS" if c["differs"] else ""))
    else:
        print(f"{bad_traced} of 2 traced runs failed or were incorrect")
    if args.json:
        args.json.write_text(json.dumps(result, indent=1))
    return 1 if bad or bad_traced else 0


if __name__ == "__main__":
    sys.exit(main())
