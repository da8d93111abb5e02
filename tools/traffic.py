"""The traffic run: what the package's users drive, as one pytest module.

    python3 tools/untraced.py tools/traffic.py   # the statements no run reaches
    python3 -m pytest -q tools/traffic.py        # the runs alone

Every run goes through ``dnflow.cli.main`` or a demo script, in this
process, so ``tools/untraced.py`` traces it:

- every case of the three perfbench workloads at seed 0, with the case
  list, configs and output checks of ``perfbench/cases.py``;
- ``verify``, ``sweep --jobs 1`` and ``evolve --snapshots`` at n = 32 in
  each of the four regimes;
- ``eigen`` on a masked domain, and ``evolve`` from a snapshot file
  (``init.kind = file``);
- ``oracle`` on a Neumann rectangle whose sweeps stop above their target,
  so the Newton polish finishes the run;
- the five demos.

A statement that no run here reaches is one that only the tests, if
anything, reach.  Tier-1 does not collect this module: pytest's
``testpaths`` is ``tests``.  dnflow is imported from ``src/``.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from cases import WORKLOADS, Checker, write_configs  # noqa: E402

from dnflow.cli import main  # noqa: E402

REGIMES = ("dirichlet", "robin", "neumann", "fractional")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _config(out: Path, **keys) -> str:
    """Write a config of an n = 32 interval at p = 3 with keys on top;
    returns its path."""
    keys = {"domain.kind": "interval", "domain.n": 32, "p": 3, "epsilon": 1e-6,
            "out.dir": out, **keys}
    if keys.get("regime.kind") == "neumann":
        # Constant data projects to the zero field under the Neumann constraint.
        keys["init.kind"] = "random"
    path = out / "config.txt"
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return str(path)


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """(case, config path, out dir) of every perfbench case at seed 0, by
    workload and case id."""
    return {workload: {case.id: (case, cfg, out) for case, cfg, out
                       in write_configs(workload, 0, tmp_path_factory.mktemp(workload))}
            for workload in WORKLOADS}


@pytest.fixture(scope="module")
def checker():
    """perfbench's output checks, which keep their dense p = 2 references."""
    return Checker()


@pytest.mark.parametrize("workload, case_id", [
    (workload, case.id) for workload, cases in WORKLOADS.items() for case in cases])
def test_perfbench_case(prepared, checker, capsys, workload, case_id):
    case, cfg, out = prepared[workload][case_id]
    assert main([case.command, "--config", str(cfg)]) == 0
    problem, _ = checker.check(case, capsys.readouterr().out, out)
    assert problem is None, problem


@pytest.mark.parametrize("regime", REGIMES)
def test_verify(tmp_path, regime):
    assert main(["verify", "--config", _config(tmp_path, **{"regime.kind": regime})]) == 0


@pytest.mark.parametrize("regime", REGIMES)
def test_sweep(tmp_path, regime):
    cfg = _config(tmp_path, **{"regime.kind": regime})
    assert main(["sweep", "--config", cfg, "--param", "p", "--values", "1.5,2",
                 "--jobs", "1"]) == 0
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("regime", REGIMES)
def test_evolve_snapshots(tmp_path, regime):
    cfg = _config(tmp_path, **{"regime.kind": regime, "steps": 20})
    assert main(["evolve", "--config", cfg, "--snapshots", "0,20"]) == 0
    assert (tmp_path / "snapshot_000020.txt").is_file()


def test_eigen_on_a_masked_domain(tmp_path):
    # A 9 x 9 square with its corner cells and centre removed.
    rows = ["011111110"] + ["111111111"] * 3 + ["111101111"] + ["111111111"] * 3 + ["011111110"]
    mask = tmp_path / "mask.txt"
    mask.write_text("9 9 0.1\n" + "\n".join(rows) + "\n")
    cfg = _config(tmp_path, **{"domain.kind": "masked", "domain.mask": mask, "p": 2.5,
                               "regime.kind": "dirichlet"})
    assert main(["eigen", "--config", cfg]) == 0


def test_oracle_polish_on_a_neumann_rectangle(tmp_path, capsys):
    # At seed 0 the sweeps stop at a residual of 6.0e-8, above their 3e-9
    # target, and the polish takes it to 4.2e-14: the summary's third field.
    cfg = _config(tmp_path, **{"domain.kind": "rectangle", "domain.n": 31, "domain.ny": 31,
                               "domain.lx": 1, "domain.ly": 0.8, "p": 4,
                               "regime.kind": "neumann", "seed": 0})
    assert main(["oracle", "--config", cfg]) == 0
    assert float(capsys.readouterr().out.split()[2]) < 1e-12


def test_evolve_from_a_snapshot_file(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    cfg = _config(first, **{"regime.kind": "dirichlet", "steps": 5})
    assert main(["evolve", "--config", cfg, "--snapshots", "5"]) == 0
    cfg = _config(second, **{"regime.kind": "dirichlet", "steps": 5, "init.kind": "file",
                             "init.path": first / "snapshot_000005.txt"})
    assert main(["evolve", "--config", cfg]) == 0


@pytest.mark.parametrize("script", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo(capsys, script):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
