"""Span tracing of dnflow's module boundaries, installed from outside the package.

The package's modules import each other's functions by name (``from .x
import y``), so a call from ``dnflow.flow`` to ``implicit_step`` goes through
the binding ``dnflow.flow.implicit_step``, not through ``dnflow.elliptic``.
``Tracer.install`` therefore replaces every binding of a traced function in
every loaded ``dnflow`` module, the defining module included (so internal
calls such as ``kernel_for -> build_kernel`` are seen too), and
``Tracer.uninstall`` puts the originals back.

A span is recorded per wrapped call: a name id, its start and end on
``time.perf_counter``, the index of the enclosing span (taken from a span
stack; -1 at the root) and whether the call returned normally.  Spans live
in flat ``array`` buffers while the batch runs and are turned into numpy
arrays and per-layer metrics afterwards.
"""

from __future__ import annotations

import functools
import pathlib
import sys
import time
from array import array

import numpy as np

# (defining module, function) -> span name.  The part before the first dot
# is the layer, which is also the package module the function belongs to;
# cli.write spans are the command's output files (see _traced_path_class).
TRACED = {
    ("dnflow.cli", "main"): "cli.main",
    ("dnflow.flow", "write_snapshot"): "cli.write",
    ("dnflow.operators", "energy"): "operators.energy",
    ("dnflow.operators", "energy_gradient"): "operators.energy_gradient",
    ("dnflow.operators", "energy_and_gradient"): "operators.energy_and_gradient",
    ("dnflow.fractional", "build_kernel"): "fractional.build_kernel",
    ("dnflow.elliptic", "implicit_step"): "elliptic.implicit_step",
    ("dnflow.elliptic", "inverse_operator"): "elliptic.inverse_operator",
    ("dnflow.elliptic", "zero_pmean_shift"): "elliptic.shift",
    ("dnflow.flow", "evolve"): "flow.evolve",
    ("dnflow.flow", "evolve_until_settled"): "flow.settle",
    ("dnflow.flow", "auto_tau"): "flow.auto_tau",
    ("dnflow.diagnostics", "build_row"): "diagnostics.row",
    ("dnflow.diagnostics", "lambda_decay_estimate"): "diagnostics.row",
    ("dnflow.diagnostics", "energy_identity_residual"): "diagnostics.row",
    ("dnflow.diagnostics", "fill_dual_columns"): "diagnostics.dual_columns",
    ("dnflow.diagnostics", "dual_quotient"): "diagnostics.dual_quotient",
    ("dnflow.oracle", "minimize_rayleigh"): "oracle.minimize",
    ("dnflow.oracle", "_newton_polish"): "oracle.polish",
}

# Per-layer metrics of one traced batch, in report order, with their units.
LAYER_METRICS = {
    "operators.evals": "count",
    "operators.self_s": "s",
    "operators.us_per_eval": "us",
    "fractional.kernel_builds": "count",
    "fractional.kernel_build_s": "s",
    "elliptic.implicit_steps": "count",
    "elliptic.evals_per_step": "evals",
    "elliptic.inverse_solves": "count",
    "elliptic.evals_per_solve": "evals",
    "elliptic.self_s": "s",
    "elliptic.solve_ok_frac": "ratio",
    "elliptic.shift_s": "s",
    "flow.settle_steps": "count",
    "flow.bootstrap_s": "s",
    "flow.self_s": "s",
    "diagnostics.dual_solves": "count",
    "diagnostics.s": "s",
    "diagnostics.evals_per_dual_solve": "evals",
    "oracle.sweeps": "count",
    "oracle.gradient_evals": "count",
    "oracle.s": "s",
    "oracle.self_s": "s",
    "cli.write_s": "s",
}


class Tracer:
    """Records one span per call of every function in TRACED."""

    def __init__(self):
        self.span_names = sorted(set(TRACED.values()))
        self._ids = {name: i for i, name in enumerate(self.span_names)}
        self.names = array("i")
        self.parents = array("i")
        self.oks = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._restore = []

    def _wrap(self, fn, span):
        nid = self._ids[span]
        names, parents, oks = self.names, self.parents, self.oks
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            oks.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
                oks[i] = 1
                return out
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _traced_path_class(self, path_cls):
        # cli writes diagnostics.csv through pathlib; a Path subclass bound
        # as dnflow.cli.Path times those writes without touching pathlib.
        write = self._wrap(path_cls.write_text, "cli.write")

        class TracedPath(path_cls):
            def write_text(self, *args, **kwargs):
                return write(self, *args, **kwargs)

        return TracedPath

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "dnflow" or name.startswith("dnflow."))]
        for (mod_name, fn_name), span in TRACED.items():
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(original, span)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))
        cli = sys.modules["dnflow.cli"]
        traced_path = self._traced_path_class(type(pathlib.Path()))
        self._restore.append((cli, "Path", cli.Path))
        cli.Path = traced_path

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def spans(self) -> dict:
        """The recorded spans as numpy arrays (index = span id)."""
        return {
            "name": np.frombuffer(self.names, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "ok": np.frombuffer(self.oks, dtype=np.int8).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }


class SpanTable:
    """Derived per-span columns used to turn spans into layer metrics."""

    def __init__(self, span_names, spans):
        self.span_names = list(span_names)
        name = spans["name"]
        parent = spans["parent"]
        self.name = name
        self.ok = spans["ok"].astype(bool)
        self.dur = spans["end"] - spans["start"]
        child = np.zeros_like(self.dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        # Name of the caller span (-1 at the root) and of the caller's caller.
        self.pname = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        self.ppname = np.where(has_parent, self.pname[np.maximum(parent, 0)], -1)

    def id(self, span):
        return self.span_names.index(span)

    def ids_in_layer(self, layer):
        return [i for i, n in enumerate(self.span_names) if n.split(".")[0] == layer]

    def metrics(self, lo: int = 0, hi: int | None = None) -> dict:
        """LAYER_METRICS over the spans with index in [lo, hi)."""
        sl = slice(lo, hi)
        name, pname, ppname = self.name[sl], self.pname[sl], self.ppname[sl]
        dur, self_t, ok = self.dur[sl], self.self_time[sl], self.ok[sl]

        def in_layer(col, layer):
            return np.isin(col, self.ids_in_layer(layer))

        def ratio(num, den):
            return float(num) / float(den) if den else 0.0

        ops = in_layer(name, "operators")
        step = name == self.id("elliptic.implicit_step")
        solve = name == self.id("elliptic.inverse_operator")
        kernel = name == self.id("fractional.build_kernel")
        dual_solve = solve & in_layer(pname, "diagnostics")
        dual_eval = (ops & (pname == self.id("elliptic.inverse_operator"))
                     & in_layer(ppname, "diagnostics"))
        n_ops, n_step, n_solve = int(ops.sum()), int(step.sum()), int(solve.sum())
        n_dual = int(dual_solve.sum())
        ops_self = float(self_t[ops].sum())
        return {
            "operators.evals": n_ops,
            "operators.self_s": ops_self,
            "operators.us_per_eval": 1e6 * ratio(ops_self, n_ops),
            "fractional.kernel_builds": int(kernel.sum()),
            "fractional.kernel_build_s": float(dur[kernel].sum()),
            "elliptic.implicit_steps": n_step,
            "elliptic.evals_per_step": ratio((ops & (pname == self.id("elliptic.implicit_step"))).sum(), n_step),
            "elliptic.inverse_solves": n_solve,
            "elliptic.evals_per_solve": ratio((ops & (pname == self.id("elliptic.inverse_operator"))).sum(), n_solve),
            "elliptic.self_s": float(self_t[in_layer(name, "elliptic")].sum()),
            "elliptic.solve_ok_frac": ratio(ok[step | solve].sum(), n_step + n_solve),
            "elliptic.shift_s": float(dur[name == self.id("elliptic.shift")].sum()),
            "flow.settle_steps": int((step & (pname == self.id("flow.settle"))).sum()),
            "flow.bootstrap_s": float(dur[name == self.id("flow.auto_tau")].sum()),
            "flow.self_s": float(self_t[in_layer(name, "flow")].sum()),
            "diagnostics.dual_solves": n_dual,
            "diagnostics.s": float(dur[in_layer(name, "diagnostics")].sum()),
            "diagnostics.evals_per_dual_solve": ratio(dual_eval.sum(), n_dual),
            "oracle.sweeps": int((solve & (pname == self.id("oracle.minimize"))).sum()),
            "oracle.gradient_evals": int(((name == self.id("operators.energy_gradient"))
                                          & in_layer(pname, "oracle")).sum()),
            "oracle.s": float(dur[name == self.id("oracle.minimize")].sum()),
            "oracle.self_s": float(self_t[in_layer(name, "oracle")].sum()),
            "cli.write_s": float(dur[name == self.id("cli.write")].sum()),
        }

    def roots(self, span: str) -> np.ndarray:
        """Indices of the top-level spans with the given name."""
        return np.flatnonzero((self.name == self.id(span)) & (self.pname == -1))
