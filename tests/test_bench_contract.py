import ast
import importlib
import pathlib

import leemodel

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


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
