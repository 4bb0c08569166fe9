import ast
import importlib
import importlib.util
import pathlib

import leemodel
from leemodel import BareCoupling, full_report
from leemodel.oracle import build_arrowhead, build_grid
from leemodel.quadrature import _moment_rule

from helpers import ALL_MODELS, SHARP_K_CUT, SPEC, sharp_model

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = BENCH / "workloads.py"


def test_benchmark_uses_only_the_public_api():
    # the benchmark runs the committed bench/ against each revision, so every
    # package name it reaches for must stay exported
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    used = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "leemodel"):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "leemodel":
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("leemodel."):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (node.module, alias.name)
    assert {"default_spec", "full_report", "solve_physical_mass", "z_from_bare"} <= used
    assert used <= set(leemodel.__all__), sorted(used - set(leemodel.__all__))


def test_traced_form_factor_spans_carry_their_node_count():
    # the benchmark's traced run sizes each FormFactor.evaluate span by the
    # node array it was passed, read positionally, so every call in the
    # package must pass it that way; rules are built cold so each family
    # evaluates its form factor, and the oracle reaches it through vertex_weight
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        for make in ALL_MODELS:
            _moment_rule.cache_clear()
            full_report(make(), BareCoupling(1.9, 1.0), SPEC)
        build_arrowhead(sharp_model(), BareCoupling(1.8, 1.0), build_grid(SHARP_K_CUT, 64))
    finally:
        recorder.uninstall()
    evaluated = [span for span in recorder.spans if span.name == "core.evaluate"]
    assert len(evaluated) > len(ALL_MODELS)
    assert all(span.error is None and span.size > 0 for span in evaluated), evaluated
