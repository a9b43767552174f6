"""Parameter audit: every defaulted parameter of a torsionlab function is set
by at least one call in src/, tests/ or perfbench/.

An option that no caller sets is a constant in disguise, with a code path
that nothing runs. A call sets a parameter by keyword or by position; the
benchmark's tracer `t.call(fn, *args)` (and any `call(fn, *args)`) forwards
its arguments to fn, one position on. A closure default that rebinds a
name (`j=j`) is not an option and is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "torsionlab"
CALLERS = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


def _callee(node):
    """The bare name a call target is known by: f(...) or obj.f(...)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _defaulted(source, module):
    """(function name, label, param, position or None) for every defaulted
    parameter of the functions and methods in `source`. position is the
    parameter's index among the positional arguments of a call (a method's
    self is not passed), None for a keyword-only parameter; `__init__` is
    called by its class name."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner)
                continue
            a = child.args
            positional = a.posonlyargs + a.args
            if owner is not None:
                positional = positional[1:]
            name = owner.name if owner is not None and child.name == "__init__" else child.name
            label = f"{module}.{child.name if owner is None else owner.name + '.' + child.name}"
            pos_defaults = zip(positional[len(positional) - len(a.defaults):], a.defaults)
            for i, (param, default) in enumerate(pos_defaults, len(positional) - len(a.defaults)):
                if not (isinstance(default, ast.Name) and default.id == param.arg):
                    out.append((name, label, param.arg, i))
            for param, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    out.append((name, label, param.arg, None))
            visit(child, None)

    visit(ast.parse(source), None)
    return out


def _settings(source):
    """{function name: (keywords set, positional count)} over every call in
    `source`; the positional count stops at the first *args splat, and a
    `call(fn, ...)` forwarder counts for fn, one position on."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name, args = _callee(node.func), node.args
        if name == "call" and args:
            name, args = _callee(args[0]), args[1:]
        if name is None:
            continue
        n_pos = next((i for i, x in enumerate(args) if isinstance(x, ast.Starred)), len(args))
        keywords, positions = found.setdefault(name, (set(), [0]))
        keywords.update(k.arg for k in node.keywords if k.arg)
        positions[0] = max(positions[0], n_pos)
    return found


def _unset_defaults(definitions, call_sources):
    """'module.function(param)' for each defaulted parameter of the
    definitions ({module: source}) that no call in call_sources sets."""
    calls = {}
    for source in call_sources:
        for name, (keywords, (n_pos,)) in _settings(source).items():
            kw, pos = calls.setdefault(name, (set(), [0]))
            kw |= keywords
            pos[0] = max(pos[0], n_pos)
    unset = []
    for module, source in definitions.items():
        for name, label, param, position in _defaulted(source, module):
            keywords, (n_pos,) = calls.get(name, (set(), [0]))
            if param not in keywords and (position is None or n_pos <= position):
                unset.append(f"{label}({param})")
    return unset


def test_every_defaulted_parameter_is_set_by_some_caller():
    definitions = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    call_sources = [p.read_text() for root in CALLERS for p in sorted(root.rglob("*.py"))]
    assert _unset_defaults(definitions, call_sources) == []


def test_audit_sees_every_call_form():
    definitions = {"m": (
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "class K:\n    def __init__(self, x, y=0):\n        pass\n"
        "    def meth(self, z=1):\n        pass\n"
        "def outer():\n    for j in range(3):\n        def inner(u, j=j):\n            pass\n"
    )}
    everything = ["m.f(b)", "m.f(c)", "m.f(d)", "m.K.__init__(y)", "m.K.meth(z)"]
    assert _unset_defaults(definitions, []) == everything
    # by keyword, and by position
    assert _unset_defaults(definitions, ["f(0, d=1)", "f(0, 1, 2)"]) == everything[3:]
    # positions stop at a splat; a keyword splat sets nothing
    assert _unset_defaults(definitions, ["f(0, 1, *rest)", "f(0, **opts)"]) == everything[1:]
    # a class call reaches __init__, an attribute call a method, without self
    assert _unset_defaults(definitions, ["K(0, 1)", "obj.meth(2)"]) == everything[:3]
    # the benchmark's forwarder, one position on, and a plain call(fn, ...)
    assert _unset_defaults(definitions, ["t.call(m.f, 0, 1, c=2)", "call(K, 0, 1)"]) == [
        "m.f(d)", "m.K.meth(z)"]
    # the forwarder's own first argument is the function, not a position of it
    assert _unset_defaults(definitions, ["t.call(f, 0)"]) == everything
