import json
import math
import subprocess
import sys

import numpy as np
import pytest

from dnflow.cli import main, parse_config
from dnflow.errors import ConfigError, InvalidResolutionError

BASE = """
domain.kind = interval
domain.n = 39
p = 2
regime.kind = dirichlet
grad_tol = 1e-9
epsilon = 0
steps = 30
seed = 1
"""


def run_cli(args):
    return main(args)


def test_parse_minimal_defaults():
    cfg = parse_config("domain.kind=interval\ndomain.n=199\np=2\nregime.kind=dirichlet")[0]
    assert cfg.domain_n == 199
    assert cfg.grad_tol == 1e-9
    assert cfg.epsilon == 1e-6
    assert cfg.tau is None  # auto
    assert cfg.steps == 200
    assert cfg.init_kind == "constant_one"


def test_parse_comments_and_spacing():
    cfg = parse_config("# run\n domain.kind = interval # inline\ndomain.n=9\np = 2.5\nregime.kind=neumann\n\n")[0]
    assert cfg.p == 2.5
    assert cfg.regime_kind == "neumann"


def test_parse_rejects_p_one():
    with pytest.raises(ConfigError):
        parse_config(BASE.replace("p = 2", "p = 1"))


def test_parse_rejects_robin_on_masked(tmp_path):
    mask = tmp_path / "m.txt"
    mask.write_text("3 3 0.25\n111\n111\n111\n")
    text = f"domain.kind=masked\ndomain.mask={mask}\np=2\nregime.kind=robin"
    with pytest.raises(ConfigError):
        parse_config(text)


def test_parse_unknown_key_names_line():
    with pytest.raises(ConfigError) as err:
        parse_config("domain.kind=interval\ndomain.n=9\nbogus=3\np=2\nregime.kind=dirichlet")
    assert "line 3" in str(err.value)
    assert "bogus" in str(err.value)


def test_parse_bad_value_names_key():
    with pytest.raises(ConfigError) as err:
        parse_config("domain.kind=interval\ndomain.n=abc\np=2\nregime.kind=dirichlet")
    assert "domain.n" in str(err.value)


def test_parse_missing_required():
    with pytest.raises(ConfigError):
        parse_config("domain.kind=interval\ndomain.n=9")


def test_evolve_writes_deterministic_csv(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE + "tau = 0.05\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["evolve", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert run_cli(["evolve", "--config", str(cfg_path), "--out", str(out2)]) == 0
    b1 = (out1 / "diagnostics.csv").read_bytes()
    b2 = (out2 / "diagnostics.csv").read_bytes()
    assert b1 == b2
    header = b1.decode().splitlines()[0]
    assert header == ("k,t,Np,rayleigh,dual_q,lambda_decay,lambda_rayleigh,"
                      "mu_from_dual,conservation,energy_residual")
    assert len(b1.decode().strip().splitlines()) == 32  # header + 31 rows


@pytest.mark.parametrize("command", ["eigen", "evolve"])
def test_repeated_runs_in_one_process_are_identical(tmp_path, capsys, command):
    # Each march, dual-column pass and oracle run has its own solve context,
    # so no solver state carries from one run into the next.
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("domain.kind = rectangle\ndomain.n = 15\np = 3\n"
                        "regime.kind = dirichlet\nsteps = 20\nseed = 2\n")
    outputs = []
    for run in ("a", "b"):
        assert run_cli([command, "--config", str(cfg_path), "--out", str(tmp_path / run)]) == 0
        printed = capsys.readouterr().out
        outputs.append(printed if command == "eigen"
                       else (tmp_path / run / "diagnostics.csv").read_text())
    assert outputs[0] == outputs[1] and outputs[0]


def test_evolve_snapshots(tmp_path):
    from dnflow.flow import read_snapshot

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE + "tau = 0.05\ninit.kind = extremal\n")
    out = tmp_path / "snaps"
    code = run_cli(["evolve", "--config", str(cfg_path), "--out", str(out),
                    "--snapshots", "0,30"])
    assert code == 0
    meta, values = read_snapshot(out / "snapshot_000030.txt")
    assert meta["kind"] == "interval"
    assert values.size == 39
    # separated solution: lambda_decay column constant across rows
    lines = (out / "diagnostics.csv").read_text().strip().splitlines()[1:]
    lams = [float(ln.split(",")[5]) for ln in lines[1:]]
    assert max(lams) - min(lams) <= 1e-8 * max(lams)


def test_evolve_bad_snapshot_step_fails_before_the_run(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE.replace("steps = 30", "steps = 3"))
    out = tmp_path / "snaps"
    code = run_cli(["evolve", "--config", str(cfg_path), "--out", str(out),
                    "--snapshots", "0,99"])
    assert code == 1
    assert "snapshot step 99 outside [0, 3]" in capsys.readouterr().err
    assert not (out / "diagnostics.csv").exists()


def test_eigen_prints_triple(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE)
    assert run_cli(["eigen", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    fields = capsys.readouterr().out.split()
    assert len(fields) == 3
    lam, mu, gap = map(float, fields)
    d_h = 1.0 / 40
    lam_h = 2.0 / d_h**2 * (1 - np.cos(np.pi * d_h))
    assert abs(lam / lam_h - 1) <= 5e-3
    assert abs(mu / lam_h - 1) <= 5e-3
    assert gap <= 1e-3


def test_eigen_matches_oracle_n199(tmp_path, capsys):
    cfg = "domain.kind=interval\ndomain.n=199\np=2\nregime.kind=dirichlet\nepsilon=0\n"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg)
    assert run_cli(["eigen", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    lam = float(capsys.readouterr().out.split()[0])
    assert abs(lam / np.pi**2 - 1.0) <= 5e-3


def test_eigen_refuses_a_higher_mode(tmp_path, capsys):
    # Data whose ground-state component is 1e-10 of the second mode settles
    # on that mode, where lambda-hat is flat to rounding.  eigen compares
    # the flow's lambda with the oracle's it already holds and exits 2,
    # naming both, instead of printing the second eigenvalue.
    from dnflow.domain import build_interval

    x = build_interval(199).nodes
    snap = tmp_path / "mode2.txt"
    snap.write_text("kind=interval n=199\n" + "".join(
        f"{float(v)!r}\n" for v in np.sin(2 * np.pi * x) + 1e-10 * np.sin(np.pi * x)))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("domain.kind = interval\ndomain.n = 199\np = 2\n"
                        f"regime.kind = dirichlet\ninit.kind = file\ninit.path = {snap}\n")
    assert main(["eigen", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    out = capsys.readouterr()
    assert not out.out and out.err.count("\n") == 1
    assert "lambda 39.475" in out.err and "lambda is 9.869" in out.err


@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "fractional"])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_eigen_prints_no_lambda_from_a_march_stopped_at_the_floor(tmp_path, capsys, kind, p):
    # A large given tau shrinks u so fast that the settle march reaches the
    # degenerate floor within a few steps, before lambda-hat settles.  eigen
    # then exits 2 saying so; whatever it prints is the oracle's lambda to
    # 1e-6.  Random data, as Neumann constant data projects to zero; the
    # fractional order is the default s = 0.5.
    from dnflow.domain import build_interval
    from dnflow.elliptic import SolverConfig
    from dnflow.operators import BoundaryRegime, EnergyParams
    from dnflow.oracle import minimize_rayleigh

    regime = BoundaryRegime(kind, s=0.5 if kind == "fractional" else 0.0)
    lam_ref = minimize_rayleigh(build_interval(32), EnergyParams(p, 1e-6), regime,
                                SolverConfig(1e-9), seed=0).lam
    outcomes = []
    for tau in ("1", "100", "1e6"):
        cfg_path = tmp_path / f"tau{tau}.cfg"
        cfg_path.write_text(f"domain.kind = interval\ndomain.n = 32\np = {p}\n"
                            f"regime.kind = {kind}\ntau = {tau}\n"
                            "init.kind = random\nseed = 0\n")
        code = main(["eigen", "--config", str(cfg_path), "--out", str(tmp_path)])
        out = capsys.readouterr()
        if code == 0:
            assert abs(float(out.out.split()[0]) / lam_ref - 1.0) <= 1e-6, (tau, out.out)
        else:
            assert code == 2 and "lambda-hat did not settle in" in out.err, (tau, out.err)
        outcomes.append(code)
    assert outcomes[-1] == 2  # tau = 1e6 reaches the floor in 2 to 4 steps


def _eigen_run(tmp_path, capsys, text):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("domain.kind = interval\ndomain.n = 32\nseed = 0\n" + text)
    code = main(["eigen", "--config", str(cfg_path), "--out", str(tmp_path)])
    return code, capsys.readouterr()


def test_eigen_refuses_a_march_that_ends_unsettled_at_max_steps(tmp_path, capsys):
    # _lambda_settled needs four lambda-hat estimates, so a settle march of
    # one to three steps has not settled when it ends: eigen exits 2 instead
    # of printing its last estimate.  Four steps settle here.
    for steps in (1, 2, 3, 4):
        code, out = _eigen_run(tmp_path, capsys,
                               f"p = 2\nregime.kind = dirichlet\nsteps = {steps}\n")
        if steps < 4:
            assert code == 2 and not out.out, steps
            assert f"lambda-hat did not settle in {steps} steps" in out.err
    assert code == 0 and out.out.split()[0] == "9.862152635821731"


def test_eigen_names_the_steps_of_an_unsettled_small_tau_march(tmp_path, capsys):
    # tau = 0.001 at p = 1.5 moves lambda-hat too slowly to settle in 20
    # steps; the refusal says so rather than comparing it with the oracle's.
    code, out = _eigen_run(tmp_path, capsys, "p = 1.5\nregime.kind = dirichlet\n"
                                             "tau = 0.001\nsteps = 20\n")
    assert code == 2 and "lambda-hat did not settle in 20 steps" in out.err


def test_eigen_prints_a_profile_gap_from_a_march_settled_at_the_floor(tmp_path, capsys):
    # Fractional p = 2 at tau = 1 settles in the same step that it reaches the
    # degenerate floor; its profile is still read, so the gap is a number.
    code, out = _eigen_run(tmp_path, capsys, "p = 2\nregime.kind = fractional\ntau = 1\n"
                                             "init.kind = random\n")
    assert code == 0
    gap = float(out.out.split()[2])
    assert math.isfinite(gap) and gap <= 1e-3


def test_oracle_prints_summary(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE)
    assert run_cli(["oracle", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    fields = capsys.readouterr().out.split()
    assert len(fields) == 4
    lam, mu, residual = map(float, fields[:3])
    assert lam > 0 and mu > 0 and residual <= 1e-8
    assert (tmp_path / "extremal.txt").exists()


def test_verify_exits_zero(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE)
    code = run_cli(["verify", "--config", str(cfg_path), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert out.count("pass") >= 8


def test_verify_n199_reference_config(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "domain.kind=interval\ndomain.n=199\np=2\nregime.kind=dirichlet\nepsilon=0\n")
    code = run_cli(["verify", "--config", str(cfg_path), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("p", ["1.5", "3"])
def test_verify_neumann(tmp_path, capsys, p):
    # The Neumann rows: the oracle's and the flow's p-mean, and the profile
    # gap, which runs only once two oracle seeds land on one extremal ray.
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"domain.kind = interval\ndomain.n = 32\np = {p}\n"
                        "regime.kind = neumann\n")
    code = run_cli(["verify", "--config", str(cfg_path), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0, out
    for name in ("oracle zero p-mean defect", "p-mean conservation defect",
                 "profile gap to oracle extremal"):
        assert out.count(f"pass  {name} ") == 1, out


def _with(*lines):
    # BASE with lines appended; a later line overrides BASE's value of its key.
    return BASE + "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("config, extra_args, message", [
    pytest.param(_with("domain.n 39"), [], "expected 'key = value'", id="no-equals"),
    pytest.param("domain.kind = masked\np = 2\nregime.kind = dirichlet\n", [],
                 "masked domain needs domain.mask", id="masked-no-mask"),
    pytest.param("domain.kind = interval\np = 2\nregime.kind = dirichlet\n", [],
                 "missing required keys: domain.n", id="interval-no-n"),
    pytest.param(_with("domain.kind = sphere"), [], "unknown domain.kind", id="domain"),
    pytest.param(_with("regime.kind = periodic"), [], "unknown regime kind", id="regime"),
    pytest.param(_with("init.kind = zeros"), [], "unknown init.kind", id="init"),
    pytest.param(_with("p = 1.5"), [], "epsilon = 0 requires p >= 2", id="eps0-p15"),
    pytest.param(_with("epsilon = -1e-6"), [], "epsilon must be nonnegative", id="eps-negative"),
    pytest.param(_with("epsilon = nan"), [], "epsilon must be nonnegative and finite, got nan",
                 id="eps-nan"),
    pytest.param(_with("p = inf"), [], "p must exceed 1 and be finite, got inf", id="p-inf"),
    pytest.param(_with("grad_tol = 0"), [], "grad_tol must be positive", id="grad-tol-zero"),
    pytest.param(_with("grad_tol = inf"), [], "grad_tol must be positive and finite, got inf",
                 id="grad-tol-inf"),
    pytest.param(_with("steps = 0"), [], "steps must be >= 1", id="steps-zero"),
    pytest.param(_with("tau = 0"), [], "tau must be positive", id="tau-zero"),
    pytest.param(_with("tau = nan"), [], "tau must be positive and finite, got nan",
                 id="tau-nan"),
    pytest.param(_with("tau = inf"), [], "tau must be positive and finite, got inf",
                 id="tau-inf"),
    pytest.param(_with("regime.kind = robin", "regime.beta = 0"), [],
                 "robin regime needs beta > 0", id="beta-zero"),
    pytest.param(_with("regime.kind = robin", "regime.beta = inf"), [],
                 "robin regime needs beta > 0 and finite, got inf", id="beta-inf"),
    pytest.param(_with("domain.kind = rectangle", "regime.kind = fractional"), [],
                 "fractional regime is only offered on intervals", id="fractional-rectangle"),
    pytest.param(_with("regime.kind = fractional", "regime.s = 1"), [],
                 "fractional regime needs s in (0,1)", id="s-outside"),
    pytest.param(_with("init.kind = file"), [], "needs init.path", id="file-no-path"),
    pytest.param(_with("seed = -1"), [], "seed must be >= 0, got -1", id="seed-negative"),
    pytest.param(BASE, ["--param", "bogus", "--values", "1"], "unknown sweep parameter",
                 id="sweep-param"),
    pytest.param(BASE, ["--param", "p", "--values", " , "], "needs at least one value",
                 id="sweep-empty-values"),
    pytest.param(BASE, ["--param", "p", "--values", "2,x"], "could not convert",
                 id="sweep-non-numeric"),
    pytest.param(BASE, ["--param", "p", "--values", "2", "--jobs", "0"],
                 "--jobs must be >= 1, got 0", id="sweep-jobs-zero"),
])
def test_config_rejections_exit_1_with_one_line(tmp_path, capsys, config, extra_args, message):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config)
    command = "sweep" if extra_args else "oracle"
    code = main([command, "--config", str(cfg_path), "--out", str(tmp_path)] + extra_args)
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("dnflow: config error: "), err
    assert message in err[0]


@pytest.mark.parametrize("lines, code, label, message", [
    pytest.param(["domain.n = 2"], 1, "bad input", "interval needs n >= 3", id="n-two"),
    pytest.param(["domain.kind = rectangle", "domain.ly = inf"], 1, "bad input",
                 "rectangle needs positive lengths, each finite, got (1.0,inf)", id="ly-inf"),
    pytest.param(["domain.kind = rectangle", "domain.ny = -3"], 1, "bad input",
                 "rectangle needs nx,ny >= 3, got (39,-3)", id="ny-negative"),
    pytest.param(["domain.kind = masked", "domain.mask = /nonexistent/mask.txt"], 4,
                 "i/o error", "/nonexistent/mask.txt", id="mask-missing"),
])
def test_unbuildable_domain_keeps_its_label(tmp_path, capsys, lines, code, label, message):
    # The domain is built at parse time, before any work, and its errors
    # keep their own label and exit code.
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_with(*lines))
    assert main(["eigen", "--config", str(cfg_path), "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"dnflow: {label}: "), err
    assert message in err[0]


@pytest.mark.parametrize("lines, error, message", [
    pytest.param(["grad_tol = inf"], ConfigError, "grad_tol must be positive", id="grad-tol"),
    pytest.param(["regime.kind = neumann", "epsilon = -1"], ConfigError,
                 "epsilon must be nonnegative", id="epsilon"),
    pytest.param(["domain.kind = rectangle", "regime.kind = fractional"], ConfigError,
                 "only offered on intervals", id="regime-on-domain"),
    pytest.param(["domain.n = 2"], InvalidResolutionError, "n >= 3", id="domain"),
])
def test_parse_config_builds_the_run(lines, error, message):
    # parse_config itself refuses what the library types refuse, before
    # any command runs.
    with pytest.raises(error, match=message):
        parse_config(_with(*lines))


def test_keys_name_every_field_once():
    from dataclasses import fields

    from dnflow.cli import _KEYS, RunConfig

    assert len(set(_KEYS)) == len(_KEYS) == 18
    assert {k.replace(".", "_") for k in _KEYS} == {f.name for f in fields(RunConfig)}


def test_sweep_in_process_matches_pool(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE.replace("domain.n = 39", "domain.n = 15")
                        .replace("epsilon = 0", "epsilon = 1e-8"))
    for jobs in ("1", "2"):
        assert run_cli(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / jobs),
                        "--param", "p", "--values", "1.5,2", "--jobs", jobs]) == 0
    serial = (tmp_path / "1" / "sweep.csv").read_bytes()
    assert serial == (tmp_path / "2" / "sweep.csv").read_bytes()
    assert len(serial.splitlines()) == 3


def test_out_naming_a_file_is_io_error(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE)
    code = main(["oracle", "--config", str(cfg_path), "--out", str(cfg_path)])
    err = capsys.readouterr().err.splitlines()
    assert code == 4
    assert len(err) == 1 and err[0].startswith("dnflow: i/o error: "), err


def test_each_command_builds_its_run_once(tmp_path, monkeypatch):
    # parse_config builds the run every command takes; a sweep builds one
    # more run per value, all in the parent before any pipeline starts.
    import dnflow.cli as cli_mod

    builds = []
    build = cli_mod._build
    monkeypatch.setattr(cli_mod, "_build", lambda cfg: builds.append(cfg) or build(cfg))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE.replace("domain.n = 39", "domain.n = 9"))
    for command in ("evolve", "eigen", "oracle", "verify"):
        builds.clear()
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        assert len(builds) == 1, command
    builds.clear()
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
                 "--param", "p", "--values", "2,3", "--jobs", "1"]) == 0
    assert len(builds) == 3
    assert [cfg.p for cfg in builds[1:]] == [2.0, 3.0]


@pytest.mark.parametrize("args, message", [
    pytest.param(["evolve", "--snapshots", "0,x"],
                 "--snapshots: could not convert 'x' to an integer", id="snapshots-text"),
    pytest.param(["sweep", "--param", "seed", "--values", "1,1.5"],
                 "--values: could not convert '1.5' to an integer", id="values-int-key"),
    pytest.param(["sweep", "--param", "p", "--values", "2,0.5"],
                 "p must exceed 1 and be finite, got 0.5", id="values-p-half"),
    pytest.param(["sweep", "--param", "steps", "--values", "5,0"],
                 "steps must be >= 1, got 0", id="values-steps-zero"),
])
def test_flag_entries_are_checked_before_any_work(tmp_path, capsys, monkeypatch, args, message):
    import dnflow.cli as cli_mod

    calls = []
    monkeypatch.setattr(cli_mod, "_eigen_numbers", calls.append)
    monkeypatch.setattr(cli_mod, "evolve", calls.append)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE)
    jobs = ["--jobs", "1"] if args[0] == "sweep" else []  # spies see every call
    code = main([args[0], "--config", str(cfg_path), "--out", str(tmp_path), *args[1:], *jobs])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert err == [f"dnflow: config error: {message}"]
    assert calls == []


def test_sweep_parses_a_string_key_by_its_type(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE.replace("domain.n = 39", "domain.n = 9"))
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
                 "--param", "regime.kind", "--values", "dirichlet,robin", "--jobs", "1"]) == 0
    rows = [ln.split(",") for ln in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    assert [row[1] for row in rows] == ["'dirichlet'", "'robin'"]
    assert float(rows[0][2]) > float(rows[1][2]) > 0  # Robin relaxes Dirichlet


@pytest.mark.parametrize("lines, regime", [
    pytest.param(["regime.kind = robin", "regime.beta = 2.5"], "robin:beta=2.5", id="robin"),
    pytest.param(["regime.kind = fractional", "regime.s = 0.25"], "fractional:s=0.25",
                 id="fractional"),
])
def test_oracle_extremal_header_names_the_regime_parameter(tmp_path, lines, regime):
    from dnflow.flow import read_snapshot

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(_with("domain.n = 9", *lines))
    assert main(["oracle", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    meta, values = read_snapshot(tmp_path / "extremal.txt")
    assert (meta["kind"], meta["n"], meta["regime"]) == ("interval", "9", regime)
    assert values.size == 9 and np.all(np.isfinite(values))


def test_random_init_is_reproducible_per_seed(tmp_path):
    csv = {}
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(_with("domain.n = 15", "regime.kind = neumann", "init.kind = random",
                                  "steps = 5", "tau = 0.05", f"seed = {seed}"))
        assert main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 0
        csv[name] = (tmp_path / name / "diagnostics.csv").read_bytes()
    assert csv["a"] == csv["b"]
    assert csv["a"] != csv["c"]
    assert len(csv["a"].splitlines()) == 7


def test_sweep_rows_in_order(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE.replace("epsilon = 0", "epsilon = 1e-8"))
    out = tmp_path / "sweep"
    code = run_cli(["sweep", "--config", str(cfg_path), "--out", str(out),
                    "--param", "p", "--values", "1.5,2,3", "--jobs", "2"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "param,value,lambda,mu,profile_gap,steps"
    assert [ln.split(",")[1] for ln in lines[1:]] == ["'1.5'", "'2'", "'3'"] or \
           [ln.split(",")[1] for ln in lines[1:]] == ["1.5", "2", "3"]


def test_sweep_forks_at_most_one_worker_per_value(tmp_path, monkeypatch):
    import concurrent.futures

    import dnflow.cli as cli_mod

    workers = []

    class SerialPool:  # records max_workers and maps in turn, forking nothing
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cli_mod.os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE.replace("domain.n = 39", "domain.n = 9"))
    for jobs in (["--jobs", "64"], []):
        assert run_cli(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
                        "--param", "p", "--values", "2,3", *jobs]) == 0
    assert workers == [2, 2]
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert [ln.split(",")[1] for ln in lines[1:]] == ["'2'", "'3'"]


def test_sweep_default_jobs_follow_the_affinity_mask(tmp_path, monkeypatch):
    # One CPU in the mask of a 64-CPU machine: the default runs the values
    # in this process and makes no pool.
    import concurrent.futures

    import dnflow.cli as cli_mod

    def no_pool(*args, **kwargs):
        raise AssertionError("sweep made a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(cli_mod.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cli_mod.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE.replace("domain.n = 39", "domain.n = 9"))
    assert run_cli(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
                    "--param", "p", "--values", "2,3"]) == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert [ln.split(",")[1] for ln in lines[1:]] == ["'2'", "'3'"]


def test_evolve_masked_domain(tmp_path):
    from dnflow.flow import read_snapshot

    mask = tmp_path / "mask.txt"
    mask.write_text("6 6 0.142857\n111111\n111111\n111100\n111100\n111111\n111111\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        f"domain.kind=masked\ndomain.mask={mask}\np=2\nregime.kind=dirichlet\n"
        "epsilon=0\nsteps=15\ntau=0.02\n")
    out = tmp_path / "out"
    assert run_cli(["evolve", "--config", str(cfg_path), "--out", str(out),
                    "--snapshots", "15"]) == 0
    meta, values = read_snapshot(out / "snapshot_000015.txt")
    assert meta["kind"] == "masked"
    assert values.size == 32  # 36 cells minus the 2x2 hole
    lines = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert len(lines) == 17


def test_exit_codes():
    assert main(["eigen", "--config", "/nonexistent/x.cfg"]) == 4
    assert main(["bogus-cmd"]) == 1


def test_one_parser_serves_a_process(tmp_path, capsys):
    # The parser is built once per process; one process still runs different
    # commands in a row, and a bad command line after them still exits 1.
    from dnflow import cli

    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE)
    assert main(["oracle", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path / "e")]) == 0
    assert (tmp_path / "o" / "extremal.txt").is_file()
    assert (tmp_path / "e" / "diagnostics.csv").is_file()
    capsys.readouterr()
    # --snapshots belongs to evolve only.
    assert main(["oracle", "--config", str(cfg_path), "--snapshots", "1"]) == 1
    assert "config error" in capsys.readouterr().err
    assert cli._build_parser() is cli._build_parser()


def test_exit_code_config_error(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("domain.kind=interval\ndomain.n=9\np=1\nregime.kind=dirichlet")
    assert main(["eigen", "--config", str(cfg_path)]) == 1


def test_exit_code_nonconvergence(tmp_path, monkeypatch):
    import dnflow.elliptic as elliptic

    monkeypatch.setattr(elliptic, "MAX_ITERS", 20)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE + "tau = 1e6\ngrad_tol = 1e-15\n")
    code = main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2


def test_nonconvergence_line_names_step_regime_p_residual(tmp_path, monkeypatch, capsys):
    import dnflow.elliptic as elliptic

    monkeypatch.setattr(elliptic, "MAX_ITERS", 1)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE.replace("p = 2", "p = 1.5").replace("epsilon = 0", "epsilon = 1e-6"))
    code = main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("dnflow: solver did not converge: iteration budget 1 exhausted")
    assert "(step 1, regime dirichlet, p 1.5, residual " in lines[0]


def test_eigen_robin_p15_n199_settles(tmp_path, capsys):
    # The auto-tau bootstrap of this config stalled with "no residual
    # progress over 3000 iterations" under unpreconditioned NCG.
    cfg_path = tmp_path / "robin.cfg"
    cfg_path.write_text("domain.kind = interval\ndomain.n = 199\np = 1.5\n"
                        "regime.kind = robin\nregime.beta = 1\nepsilon = 1e-6\n"
                        "grad_tol = 1e-9\n")
    assert main(["eigen", "--config", str(cfg_path)]) == 0
    lam, mu, gap = (float(x) for x in capsys.readouterr().out.split())
    assert lam > 0 and mu > 0 and gap <= 1e-3


def test_exit_code_bad_input_data(tmp_path, capsys):
    # Typed input errors outside the config parser exit 1 with one line.
    neumann = tmp_path / "neumann.cfg"
    neumann.write_text("domain.kind=interval\ndomain.n=32\np=3\n"
                       "regime.kind=neumann\n")  # constant_one projects to 0
    snap = tmp_path / "short.txt"
    snap.write_text("kind=interval n=3\n1.0\n2.0\n3.0\n")
    wrong_size = tmp_path / "wrong_size.cfg"
    wrong_size.write_text(BASE.replace("domain.n = 39", "domain.n = 32")
                          + f"init.kind = file\ninit.path = {snap}\n")
    empty_snap = tmp_path / "empty.txt"
    empty_snap.write_text("")
    empty = tmp_path / "empty.cfg"
    empty.write_text(BASE + f"init.kind = file\ninit.path = {empty_snap}\n")
    for cfg_path in (neumann, wrong_size, empty):
        assert main(["eigen", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("dnflow: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "-inf", "1.0x"])
def test_snapshot_value_not_finite_is_bad_input(tmp_path, capsys, value):
    # A snapshot value that is not a finite number is bad input data, not a
    # config error: the one line names the file and the line.
    snap = tmp_path / "snap.txt"
    snap.write_text("kind=interval n=39\n" + "1.0\n" * 10 + value + "\n" + "1.0\n" * 28)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE + f"init.kind = file\ninit.path = {snap}\n")
    code = main(["evolve", "--config", str(cfg_path), "--out", str(tmp_path)])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("dnflow: bad input: "), err
    assert f"{snap}: line 12: {value!r}" in err[0]


def test_sweep_non_numeric_value_names_values(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE)
    code = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
                 "--param", "p", "--values", "2, x"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "dnflow: config error: --values: could not convert 'x' to a number"]


def test_exit_code_sign_violation(tmp_path, capsys, monkeypatch):
    import dnflow.cli as cli_mod
    from dnflow.errors import SignViolationError

    def fail(*args, **kwargs):
        raise SignViolationError("profile changes sign")

    monkeypatch.setattr(cli_mod, "minimize_rayleigh", fail)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE)
    assert main(["oracle", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("dnflow: ")
    assert err.count("\n") == 1


def test_module_entrypoint_runs(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE)
    proc = subprocess.run(
        [sys.executable, "-m", "dnflow", "oracle", "--config", str(cfg_path),
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert len(proc.stdout.split()) == 4


_LOADED = """
import json, sys

def loaded(*names):
    return sorted(m for m in sys.modules if m.startswith(names))

import dnflow.cli
import dnflow.oracle
report = {"import": loaded("scipy.linalg", "scipy.sparse", "concurrent.futures.process")}
polish = dnflow.oracle._newton_polish
polished = []
dnflow.oracle._newton_polish = lambda *args: polished.append(1) or polish(*args)
codes = [dnflow.cli.main([command, "--config", sys.argv[1], "--out", sys.argv[3]])
         for command in ("evolve", "eigen")]
dnflow.oracle.MAX_SWEEPS = 1  # the start's step and one sweep, then the polish
codes.append(dnflow.cli.main(["oracle", "--config", sys.argv[2], "--out", sys.argv[3]]))
report.update(codes=codes, polished=len(polished), run=loaded("scipy.linalg", "scipy.sparse"))
print(json.dumps(report))
"""


def test_cli_import_leaves_scipy_sparse_unloaded(tmp_path):
    # No command imports scipy.linalg or scipy.sparse: the banded LAPACK
    # routines come from scipy's _flapack extension loaded by file path.
    # Nor does any command but a parallel sweep import the process pool.
    base = tmp_path / "run.cfg"
    base.write_text(BASE)
    # An oracle run held to one sweep by _LOADED, so it reaches the polish;
    # at odd n the polish converges there (to 4e-14).
    polished = tmp_path / "polish.cfg"
    polished.write_text("domain.kind = interval\ndomain.n = 33\np = 4\n"
                        "regime.kind = dirichlet\nseed = 0\n")
    proc = subprocess.run([sys.executable, "-c", _LOADED, str(base), str(polished),
                           str(tmp_path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["import"] == []
    assert report["codes"] == [0, 0, 0]
    assert report["polished"] == 1
    assert report["run"] == ["scipy.linalg._flapack"]


def test_outputs_are_replaced_by_new_files(tmp_path, monkeypatch):
    # Truncating a file written moments before stalls on ext4, so every
    # output file is removed before it is written anew.  A second run into
    # the same out.dir removes each existing file, writes the same bytes and
    # leaves no other file behind.
    import pathlib

    removed, unlink = [], pathlib.Path.unlink

    def spy(path, *args, **kwargs):
        removed.append((path.name, path.exists()))
        return unlink(path, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "unlink", spy)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(BASE.replace("domain.n = 39", "domain.n = 15")
                        .replace("steps = 30", "steps = 4"))
    out = tmp_path / "out"
    runs = (["evolve", "--snapshots", "0,3"], ["oracle"],
            ["sweep", "--param", "p", "--values", "2", "--jobs", "1"])
    names = {"diagnostics.csv", "snapshot_000000.txt", "snapshot_000003.txt", "extremal.txt",
             "sweep.csv"}
    written = []
    for _ in range(2):
        removed.clear()
        for args in runs:
            assert main([args[0], "--config", str(cfg_path), "--out", str(out), *args[1:]]) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert set(written[0]) == names
    assert written[0] == written[1]
    assert sorted(removed) == sorted((name, True) for name in names)


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    # Reading it raises UnicodeDecodeError, a ValueError that no layer types:
    # the last row of the failure table reports it.
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_bytes(BASE.encode() + b"# \xff\n")
    assert main(["eigen", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("dnflow: config error: 'utf-8' codec can't decode byte 0xff")
