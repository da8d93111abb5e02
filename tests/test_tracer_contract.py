"""The benchmark's span tracer must still find every name it wraps.

``perfbench/tracing.py`` wraps dnflow functions by module and name from
outside the package, so a rename or a deleted function breaks traced
benchmark runs only.  This test installs and uninstalls the tracer on the
loaded package.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

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
