"""Acceptance suite: one test per criterion, each printing its PASS/FAIL
line with the runtime against the stated budget."""

import ast
from pathlib import Path

import pytest

from torsionlab import acceptance as A


def _run(fn):
    res = fn()
    status = "PASS" if res["passed"] else "FAIL"
    print(
        f"\n[{status}] {res['name']} ({res['seconds']:.1f}s / budget "
        f"{res['budget']:.0f}s): {res['detail']}"
    )
    assert res["functional"], res["detail"]
    assert res["seconds"] <= res["budget"], (
        f"runtime {res['seconds']:.1f}s exceeds budget {res['budget']:.0f}s"
    )


def test_criterion_1_birth_death_census():
    _run(A.criterion_1_birth_death_census)


def test_criterion_2_separation_stability():
    _run(A.criterion_2_separation_stability)


def test_criterion_3_anomaly_formula():
    _run(A.criterion_3_anomaly_formula)


def test_criterion_4_cheeger_muller():
    _run(A.criterion_4_cheeger_muller)


def test_criterion_5_spectral_gluing():
    _run(A.criterion_5_spectral_gluing)


def test_criterion_6_small_eigenvalue_decay():
    _run(A.criterion_6_small_eigenvalue_decay)


def test_criterion_7_agmon_decay():
    _run(A.criterion_7_agmon_decay)


def test_criterion_8_cubic_scaling():
    _run(A.criterion_8_cubic_scaling)


def test_criterion_9_mayer_vietoris_ranks():
    _run(A.criterion_9_mayer_vietoris_ranks)


def test_criterion_10_property_suites():
    _run(A.criterion_10_property_suites)


SRC = Path(A.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def _private_acceptance_names(source, package_module=False):
    """Underscore names that the source imports from torsionlab.acceptance,
    or reads off an alias of that module. package_module: the source is a
    module of torsionlab, so `from .acceptance import ...` counts too."""
    tree = ast.parse(source)
    names, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = "torsionlab" if node.level == 1 and package_module else ""
            module = ".".join(filter(None, [package, node.module]))
            if module == "torsionlab.acceptance":
                names |= {a.name for a in node.names}
            elif module == "torsionlab":
                aliases |= {a.asname or a.name for a in node.names if a.name == "acceptance"}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names
                        if a.name == "torsionlab.acceptance" and a.asname}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id in aliases}
    return sorted(n for n in names if n.startswith("_") and not n.endswith("__"))


@pytest.mark.parametrize("path", [SRC / "cli.py", *sorted(TESTS.glob("*.py"))],
                         ids=lambda p: p.name)
def test_no_private_names_imported_from_acceptance(path):
    assert _private_acceptance_names(path.read_text(), path.parent == SRC) == []


def test_private_acceptance_scan_sees_every_import_form():
    src = ("from torsionlab.acceptance import _a, b\nfrom torsionlab import acceptance as A\n"
           "import torsionlab.acceptance as B\nA._c, B._d, A.e, A.__file__\n")
    assert _private_acceptance_names(src) == ["_a", "_c", "_d"]
    assert _private_acceptance_names("from .acceptance import _f", package_module=True) == ["_f"]
    assert _private_acceptance_names("from . import acceptance as C\nC._g",
                                     package_module=True) == ["_g"]
    assert _private_acceptance_names("from .acceptance import _f") == []
