"""Every package name the benchmark traces or calls still exists.

``perfbench/tracing.py`` wraps the functions named in ``SPANNED`` and
``COUNTED`` (a missing one crashes ``Tracer.install``), and
``perfbench/workloads.py`` calls the package through its module attributes.
This test reads both files as text, so it neither imports nor runs them, and
resolves every such name in ``zetabf``, ``Class.method`` names included.  Each
package call in ``workloads.py`` must also still bind: its positional count
and keyword names, against the callee's signature.
"""

import ast
import functools
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("bv", "cli", "complexes", "orbits", "verification", "zeta")


def _resolve(dotted: str):
    """The object ``module.name[.attr...]`` names in ``zetabf.module``."""
    module, *attrs = dotted.split(".")
    return functools.reduce(getattr, attrs, importlib.import_module(f"zetabf.{module}"))


def _resolves(dotted: str) -> bool:
    """Whether ``module.name[.attr...]`` resolves in ``zetabf.module``."""
    try:
        _resolve(dotted)
    except AttributeError:
        return False
    return True


def _literal(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracing.py assigns no {name}")


def _dotted(node: ast.Attribute) -> str:
    """``a.b.c`` for an attribute chain on a plain name, else ''."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else ""


def test_traced_names_exist():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    names = [f"{layer}.{f}" for table in ("SPANNED", "COUNTED")
             for layer, funcs in _literal(tree, table).items() for f in funcs]
    assert "complexes.build_twisted_complex" in names
    assert [n for n in names if not _resolves(n)] == []


def test_workload_names_exist():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = {_dotted(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names = sorted(n for n in names if n.split(".")[0] in MODULES)
    assert "complexes.mapping_torus_cell_complex" in names
    assert [n for n in names if not _resolves(n)] == []


def _binds(call: ast.Call) -> bool:
    """Whether the call's arguments bind to its callee's signature.  A
    ``*args`` or ``**kwargs`` argument may fill any number of parameters, so
    such a call is checked only for the arguments it names."""
    signature = inspect.signature(_resolve(_dotted(call.func)))
    args = [a for a in call.args if not isinstance(a, ast.Starred)]
    kwargs = {k.arg: k.value for k in call.keywords if k.arg is not None}
    spread = len(args) < len(call.args) or len(kwargs) < len(call.keywords)
    try:
        (signature.bind_partial if spread else signature.bind)(*args, **kwargs)
    except TypeError:
        return False
    return True


def test_workload_calls_still_bind():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and _dotted(node.func).split(".")[0] in MODULES]
    assert "bv.random_contraction(tc, gauge_rng)" in {ast.unparse(c) for c in calls}
    assert [ast.unparse(c) for c in calls if not _binds(c)] == []
