"""The benchmark's own checks: same seed, same bytes and same counts.

    python3 -m pytest perfbench/test_perfbench.py -q

Each test runs one workload twice with ``--trace 1`` on seed 0 (an untraced
and a traced batch per run) and compares the two reports: every output file
hash (the README's byte-identical contract) and every per-layer count, for
the whole batch and per case, must repeat exactly.  Takes a few minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from cases import WORKLOADS  # noqa: E402

TIMED_UNITS = {"s", "us"}


def _traced_run(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"], proc.stdout
    return json.loads((HERE / "out" / f"{workload}-seed0-trace1.json").read_text())


def _counts(report):
    units = {k: m["unit"] for k, m in report["metrics"].items()}
    counted = [k for k, u in units.items() if u not in TIMED_UNITS]
    batch = {k: report["metrics"][k]["value"] for k in counted}
    cases = [{k: row[k] for k in counted if k in row} | {"id": row["id"], "error": row["error"]}
             for row in report["cases"]]
    return batch, cases


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_repeats_exactly(workload):
    first, second = _traced_run(workload), _traced_run(workload)
    assert set(first["sha256"]["0"]) == {row["id"] for row in first["cases"] if row["error"] is None}
    assert first["sha256"] == second["sha256"]
    assert _counts(first) == _counts(second)
