"""Every package name the benchmark traces or calls still exists.

``perfbench/tracing.py`` wraps the functions named in ``SPANNED`` and
``COUNTED`` (a missing one crashes ``Tracer.install``), and
``perfbench/workloads.py`` calls the package through its module attributes.
This test reads both files as text, so it neither imports nor runs them, and
resolves every such name in ``zetabf``, ``Class.method`` names included.
"""

import ast
import functools
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("bv", "cli", "complexes", "orbits", "verification", "zeta")


def _resolves(dotted: str) -> bool:
    """Whether ``module.name[.attr...]`` resolves in ``zetabf.module``."""
    module, *attrs = dotted.split(".")
    try:
        functools.reduce(getattr, attrs, importlib.import_module(f"zetabf.{module}"))
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
