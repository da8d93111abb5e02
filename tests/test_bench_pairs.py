"""tools/bench_pairs.py, the before/after benchmark harness: on two stub
checkouts whose benchmark prints fixed metrics, count metrics under
--trace 1, and logs the order it ran in (the real benchmark takes seconds
per run)."""

import importlib.util
import json
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

STUB = '''import json, sys
from pathlib import Path

args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
here = Path(__file__).resolve().parent
with open(here.parent.parent / "order.log", "a") as log:
    log.write("{side} " + args["--seconds"] + " trace" + args["--trace"] + "\\n")
out = here / "out"
out.mkdir(exist_ok=True)
name = f"{{args['--workload']}}-seed{{args['--seed']}}-trace{{args['--trace']}}.json"
(out / name).write_text(json.dumps({{"sha256": {{"0": {{"case": "{digest}"}}}}}}))
if args["--trace"] == "1":
    failed = {trace_failed}
    metrics = {{"operators.evals": {{"value": 40, "unit": "count"}},
                "operators.self_s": {{"value": 0.1, "unit": "s"}},
                "elliptic.implicit_steps": {{"value": {steps}, "unit": "count"}}}}
else:
    failed = {failed}
    metrics = {{"setup_s": {{"value": 0.2, "unit": "s"}},
                "batch_s": {{"value": {batch_s}, "unit": "s"}},
                "ok_frac": {{"value": {ok_frac}, "unit": "ratio"}}}}
print("w: 2 case runs")
print(json.dumps({{"correct": True, "attempted": 2, "failed": failed, "metrics": metrics}}))
'''

SPECS = [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
         {"name": "batch_s", "unit": "s", "better": "lower", "bound": 0.25},
         {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.1}]
LAYERS = [{"name": "operators.evals", "unit": "count", "better": "lower"},
          {"name": "operators.self_s", "unit": "s", "better": "lower"},
          {"name": "elliptic.implicit_steps", "unit": "count", "better": "lower"}]


def _checkout(root: Path, side: str, batch_s=1.0, failed=0, digest="aa", steps=100,
              trace_failed=0) -> Path:
    path = root / side
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(STUB.format(
        side=side, batch_s=batch_s, ok_frac=1.0 - 0.5 * failed, failed=failed, digest=digest,
        steps=steps, trace_failed=trace_failed))
    (path / "BENCHMARK.json").write_text(json.dumps(
        {"command": [sys.executable, "perfbench/run.py"], "paths": ["perfbench"],
         "run_seconds": 7, "end_to_end": SPECS, "per_layer": LAYERS}))
    return path


def test_pairs_alternate_and_compare_each_metric(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", batch_s=1.0)
    change = _checkout(tmp_path, "change", batch_s=0.9)
    report = tmp_path / "pairs.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "3",
                             "--json", str(report)]) == 0
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    assert order == ["parent 7 trace0", "change 7 trace0", "change 7 trace0", "parent 7 trace0",
                     "parent 7 trace0", "change 7 trace0", "parent 7 trace1", "change 7 trace1"]
    result = json.loads(report.read_text())
    assert result["sha256_match"] and result["failed_runs"] == 0 and len(result["runs"]) == 3
    got = {m["name"]: m for m in result["metrics"]}
    assert got["batch_s"]["wins"] == 3 and got["batch_s"]["ties"] == 0
    assert abs(got["batch_s"]["move"] + 0.1) < 1e-12 and not got["batch_s"]["worse"]
    assert got["setup_s"]["ties"] == 3 and got["setup_s"]["move"] == 0.0
    assert not any(m["unresolved"] for m in got.values())
    out = capsys.readouterr().out
    assert "sha256 lists match" in out and "change won 3/3 tied 0, move -10.00%" in out


def test_worse_and_unresolved_metrics_are_flagged(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", batch_s=1.0)
    change = _checkout(tmp_path, "change", batch_s=1.5, digest="bb")
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    assert "sha256 lists DIFFER" in out
    assert "move +50.00%, WORSE than the bound" in out
    # One side's runs spread 0 -> 1.5 over a median of 0.75: 200 % > 25 %.
    runs = [{side: {"summary": {"metrics": {"batch_s": {"value": v}}}}
             for side, v in zip(bench_pairs.SIDES, pair)} for pair in ((1.0, 0.0), (1.0, 1.5))]
    assert bench_pairs.compare(SPECS[1], runs)["unresolved"]


def test_a_failed_run_exits_nonzero(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent")
    change = _checkout(tmp_path, "change", failed=1)
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "1"]) == 1
    out = capsys.readouterr().out
    assert "pair 1 change: FAILED" in out and "1 of 2 runs failed or were incorrect" in out


def test_traced_counts_are_compared_and_flagged(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", steps=100)
    change = _checkout(tmp_path, "change", steps=20)
    report = tmp_path / "pairs.json"
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "1",
                             "--json", str(report)]) == 0
    counts = json.loads(report.read_text())["counts"]
    assert [(c["name"], c["parent"], c["change"], c["differs"]) for c in counts] == [
        ("operators.evals", 40, 40, False), ("elliptic.implicit_steps", 100, 20, True)]
    out = capsys.readouterr().out
    assert "operators.evals (count): parent 40, change 40\n" in out
    assert "elliptic.implicit_steps (count): parent 100, change 20, DIFFERS" in out
    assert "operators.self_s (" not in out


def test_a_failed_traced_run_exits_nonzero(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent")
    change = _checkout(tmp_path, "change", trace_failed=1)
    assert bench_pairs.main([str(parent), str(change), "--workload", "w", "--pairs", "1"]) == 1
    out = capsys.readouterr().out
    assert "traced change: FAILED" in out and "1 of 2 traced runs failed or were incorrect" in out
