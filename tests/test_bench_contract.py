import ast
import importlib
import importlib.util
import itertools
import json
import os
import pathlib
from unittest import mock

import leemodel
from leemodel import BareCoupling, full_report
from leemodel.cli import parse_config
from leemodel.oracle import build_arrowhead, build_grid

from helpers import ALL_MODELS, SHARP_K_CUT, SPEC, forget_kept_state, sharp_model

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = BENCH / "workloads.py"


def _load_bench(name: str):
    """The benchmark module ``bench/<name>.py``, loaded as the benchmark loads it."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    recorder = _load_bench("spans").SpanRecorder()
    recorder.install()
    try:
        for make in ALL_MODELS:
            forget_kept_state()
            full_report(make(), BareCoupling(1.9, 1.0), SPEC)
        build_arrowhead(sharp_model(), BareCoupling(1.8, 1.0), build_grid(SHARP_K_CUT, 64))
    finally:
        recorder.uninstall()
    evaluated = [span for span in recorder.spans if span.name == "core.evaluate"]
    assert len(evaluated) > len(ALL_MODELS)
    assert all(span.error is None and span.size > 0 for span in evaluated), evaluated


def test_benchmark_config_documents_parse(tmp_path):
    # every sweep-bare job is a CLI run on a config file, and the setup run
    # starts the CLI on FREE_CONFIG: a refusal would fail every job, or abort
    # the benchmark before it measured anything
    with mock.patch.dict(os.environ):  # run.py pins the BLAS threads at import
        run = _load_bench("run")
    workloads = _load_bench("workloads")
    documents = [json.dumps(run.FREE_CONFIG)]
    for seed in (1, 2, 3):
        sweeps = workloads.SweepBare(seed, str(tmp_path))
        for job in itertools.islice(sweeps.jobs(), 12):
            sweeps.prepare(job)
            documents.append(pathlib.Path(sweeps._paths()[0]).read_text(encoding="utf-8"))
    for text in documents:
        parse_config(text)
