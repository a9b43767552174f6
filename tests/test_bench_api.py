"""The benchmark calls torsionlab only through names its modules export."""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module_attributes(path):
    """(module, attribute) for every `alias.attr` in the file whose alias
    names a `from torsionlab import module as alias` import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {
        a.asname or a.name: a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "torsionlab"
        for a in node.names
    }
    return {
        (aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }


@pytest.mark.parametrize("name", ["workloads.py", "run.py"])
def test_bench_uses_only_exported_names(name):
    used = _module_attributes(BENCH / name)
    missing = sorted(
        f"{mod}.{attr}" for mod, attr in used
        if attr not in importlib.import_module(f"torsionlab.{mod}").__all__
    )
    assert not missing, f"{name} uses names missing from __all__: {missing}"


def test_bench_attribute_scan_sees_every_module():
    mods = {mod for mod, _ in _module_attributes(BENCH / "workloads.py")}
    assert mods == {"birthdeath", "forms", "graded", "morse", "witten1d"}
