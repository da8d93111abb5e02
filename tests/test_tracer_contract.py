"""The benchmark's span tracer must still find every name it wraps.

``perfbench/tracing.py`` wraps dnflow functions by module and name from
outside the package, so a rename or a deleted function breaks traced
benchmark runs only.  These tests install and uninstall the tracer on the
loaded package, and check that its spans count every operator evaluation.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import dnflow.cli  # noqa: F401  (loads every dnflow module)
from dnflow.domain import build_interval
from dnflow.elliptic import project_pmean
from dnflow import operators
from dnflow.operators import BoundaryRegime, EnergyParams

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
    originals = {key: getattr(sys.modules[key[0]], key[1]) for key in tracing.TRACED}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod_name, fn_name), original in originals.items():
            assert getattr(sys.modules[mod_name], fn_name) is not original, fn_name
        # project_pmean reaches the shift through the module global, so the
        # tracer sees it.
        dom = build_interval(5)
        project_pmean(dom, np.arange(5.0), 3.0, BoundaryRegime.neumann())
        shift = tracer.span_names.index("elliptic.shift")
        assert list(tracer.names) == [shift]
    finally:
        tracer.uninstall()
    for (mod_name, fn_name), original in originals.items():
        assert getattr(sys.modules[mod_name], fn_name) is original, fn_name


def test_fractional_energy_builds_one_kernel():
    # perfbench's fractional.kernel_builds counts these spans, so the first
    # fractional energy on a fresh interval must build its kernel once, and
    # through the traced binding.
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        operators.energy(build_interval(9), np.linspace(-1.0, 1.0, 9), EnergyParams(2.5, 1e-6),
                         BoundaryRegime.fractional(0.5))
    finally:
        tracer.uninstall()
    names = [tracer.span_names[i] for i in tracer.names]
    assert names.count("fractional.build_kernel") == 1, names


@pytest.mark.parametrize("command, lines", [
    ("oracle", ["regime.kind = robin", "p = 3"]),
    ("oracle", ["regime.kind = fractional", "p = 1.5"]),
    ("evolve", ["regime.kind = fractional", "p = 3", "tau = auto", "steps = 20"]),
    ("evolve", ["regime.kind = neumann", "p = 1.5", "tau = auto", "steps = 20",
                "init.kind = random"]),
])
def test_every_evaluation_is_one_operators_span(tmp_path, monkeypatch, command, lines):
    # perfbench's operators.evals counts the spans of the traced evaluators.
    # Each span must be exactly one evaluation, counted here independently
    # at operators._parts, so a lower count is work saved and not
    # evaluations that bypass the traced bindings.
    tracing = _load_tracing()
    parts, evaluations = operators._parts, [0]

    def counted(*args):
        evaluations[0] += 1
        return parts(*args)

    monkeypatch.setattr(operators, "_parts", counted)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(["domain.kind = interval", "domain.n = 32", "epsilon = 1e-6",
                              *lines]) + "\n")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = dnflow.cli.main([command, "--config", str(cfg), "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [tracer.span_names[i] for i in tracer.names]
    spans = sum(name.startswith("operators.") for name in names)
    assert spans == evaluations[0] > 0
