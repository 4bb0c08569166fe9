"""Span recorder for the traced run, and the per-layer metrics derived from it.

The package is traced from outside: each public function of a layer is
replaced, at every binding in the package's modules that refers to it, by a
wrapper that records one span.  Wrapping every binding matters because the
modules import each other's functions by name (``renorm`` calls its own
``mass_shift_integral`` binding, ``cli`` its own ``full_report``), so patching
only the defining module would miss those calls.  ``FormFactor.evaluate`` is
wrapped on the class.

Spans are kept in memory as (name, start, end, parent, job, size, error) and
written out when the run ends.  ``size`` is the work a call carries: nodes
for ``FormFactor.evaluate``, grid or matrix size n for the oracle, bytes
written for ``emit``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from typing import NamedTuple

import numpy as np

import leemodel

LAYERS = ("core", "quadrature", "renorm", "oracle", "cli")

# (layer, function) pairs to wrap; the layer is also the defining module
TARGETS = (
    ("quadrature", "radial_integrate"),
    ("quadrature", "mass_shift_integral"),
    ("quadrature", "z_factor_integral"),
    ("quadrature", "norm_integral"),
    ("renorm", "solve_physical_mass"),
    ("renorm", "mass_shift"),
    ("renorm", "z_from_bare"),
    ("renorm", "dressing_strength"),
    ("renorm", "full_report"),
    ("oracle", "build_grid"),
    ("oracle", "build_arrowhead"),
    ("oracle", "lowest_eigenpair"),
    ("oracle", "all_eigenvalues"),
    ("oracle", "dense_cross_check"),
    ("oracle", "convergence_study"),
    ("cli", "load_config"),
    ("cli", "run_sweep"),
    ("cli", "emit"),
)


def _size(name: str, args, kwargs) -> int:
    if name == "core.evaluate":
        return int(np.size(args[1] if len(args) > 1 else kwargs["omega_val"]))
    if name == "oracle.build_grid":
        return int(args[1] if len(args) > 1 else kwargs["n"])
    if name in ("oracle.lowest_eigenpair", "oracle.all_eigenvalues", "oracle.dense_cross_check"):
        return int((args[0] if args else kwargs["mat"]).n)
    if name == "cli.emit":
        return os.path.getsize(args[2] if len(args) > 2 else kwargs["path"])
    return 0


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    job: int
    size: int
    error: str | None


class SpanRecorder:
    """In-memory spans; ``install`` patches the package, ``uninstall`` restores it."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        """Run ``fn()`` as a span with no package function behind it (a job)."""
        return self._wrap(name, fn)()

    def _wrap(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else -1
            rec.spans.append(None)
            rec._stack.append(idx)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                size = 0 if error else _size(name, args, kwargs)
                rec.spans[idx] = Span(name, start, end, parent, rec.job, size, error)

        return traced

    def install(self) -> None:
        modules = [leemodel] + [importlib.import_module(f"leemodel.{m}") for m in LAYERS]
        cls = leemodel.FormFactor
        self._patch(cls, "evaluate", self._wrap("core.evaluate", cls.evaluate))
        for layer, fname in TARGETS:
            original = getattr(importlib.import_module(f"leemodel.{layer}"), fname, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{layer}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s._asdict()}) + "\n")


def layer_metrics(spans: list[Span], jobs: int | None = None) -> dict[str, float]:
    """Per-layer counters and times over the spans of the first ``jobs`` jobs."""
    if jobs is not None:
        keep = [i for i, s in enumerate(spans) if s.job < jobs]
    else:
        keep = list(range(len(spans)))
    child_time: dict[int, float] = {}
    children: dict[int, list[int]] = {}
    for i in keep:
        s = spans[i]
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
            children.setdefault(s.parent, []).append(i)

    def self_time(i):
        return spans[i].end - spans[i].start - child_time.get(i, 0.0)

    def ancestor(i, name):
        p = spans[i].parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        return p

    by_name: dict[str, list[int]] = {}
    for i in keep:
        by_name.setdefault(spans[i].name, []).append(i)

    def total(name):
        return sum(spans[i].end - spans[i].start for i in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    integrals = by_name.get("quadrature.radial_integrate", [])
    evaluated = accepted = 0
    for i in integrals:
        sizes = [spans[c].size for c in children.get(i, ()) if spans[c].name == "core.evaluate"]
        evaluated += sum(sizes)
        if sizes and spans[i].error is None:
            accepted += sizes[-1]
    solves = set(by_name.get("renorm.solve_physical_mass", ()))
    residuals = sum(1 for i in by_name.get("renorm.mass_shift", ()) if spans[i].parent in solves)
    reports = count("renorm.full_report")
    in_reports = sum(1 for i in integrals if ancestor(i, "renorm.full_report") >= 0)

    metrics = {
        "core.ff_nodes": sum(spans[i].size for i in by_name.get("core.evaluate", ())),
        "core.ff_s": total("core.evaluate"),
        "quadrature.integrals": len(integrals),
        "quadrature.i1_calls": count("quadrature.mass_shift_integral"),
        "quadrature.i2_calls": count("quadrature.z_factor_integral"),
        "quadrature.nodes_per_integral": ratio(evaluated, len(integrals)),
        "quadrature.useful_node_ratio": ratio(accepted, evaluated),
        "quadrature.noconv_frac": ratio(
            sum(1 for i in integrals if spans[i].error == "NoConvergence"), len(integrals)),
        "renorm.solve_s": total("renorm.solve_physical_mass"),
        "renorm.residual_evals_per_solve": ratio(residuals, len(solves)),
        "renorm.integrals_per_point": ratio(in_reports, reports),
        "renorm.full_report_self_s": sum(self_time(i) for i in by_name.get("renorm.full_report", ())),
        "oracle.build_grid_s": total("oracle.build_grid"),
        "oracle.build_arrowhead_s": total("oracle.build_arrowhead"),
        "oracle.lowest_eigenpair_s": total("oracle.lowest_eigenpair"),
        "oracle.all_eigenvalues_s": total("oracle.all_eigenvalues"),
        "oracle.dense_cross_check_s": total("oracle.dense_cross_check"),
        "oracle.grid_nodes": sum(spans[i].size for i in by_name.get("oracle.build_grid", ())),
        "cli.load_config_s": total("cli.load_config"),
        "cli.run_sweep_self_s": sum(self_time(i) for i in by_name.get("cli.run_sweep", ())),
        "cli.emit_s": total("cli.emit"),
        "cli.bytes_out": sum(spans[i].size for i in by_name.get("cli.emit", ())),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(self_time(i) for i in keep
                                         if spans[i].name.startswith(layer + "."))
    return metrics


# counters that must repeat exactly for the same seed
DETERMINISTIC = ("core.ff_nodes", "quadrature.integrals",
                 "renorm.residual_evals_per_solve", "oracle.grid_nodes")
