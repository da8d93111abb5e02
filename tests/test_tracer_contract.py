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
from dnflow.operators import BoundaryRegime

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
