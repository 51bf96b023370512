"""The BV engine factorises only where a certificate or Z needs it.

The scan parses ``src/zetabf/bv.py`` and lists each call of a ``linalg``
function other than ``norm`` with the function that makes it (a nested
function as ``outer.inner``).  Every contraction hands over its kernel split,
so no constructor, validation or scan factorises iota or a kernel basis; a
site that brings a factorisation back fails the pin until ALLOWED names it
with a reason.  A method is named with its class, ``Class.method``.
"""

import ast
from pathlib import Path

BV = Path(__file__).resolve().parent.parent / "src" / "zetabf" / "bv.py"

ALLOWED = {
    ("is_lagrangian", "svd"): "the smallest singular value of each basis Gram, the "
                              "transversality certificate",
    ("_fixed_action", "svd"): "the restricted action blocks: Z and the contraction "
                              "gauges' degeneracy test",
    ("metric_gauge.jacobian", "slogdet"): "the metric parametrisation's Jacobian |sdet d*|",
}


def _linalg_calls(node, scope=()):
    """(qualified enclosing definition, linalg function) of each call under
    ``node``, ``norm`` excepted."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute):
            owner = child.func.value
            if isinstance(owner, ast.Attribute) and owner.attr == "linalg" \
                    and child.func.attr != "norm":
                yield ".".join(scope), child.func.attr
        yield from _linalg_calls(child, inner)


def test_bv_factorises_only_at_its_listed_sites():
    tree = ast.parse(BV.read_text())
    # each site once: a second call in a listed function is a new site too
    assert sorted(_linalg_calls(tree)) == sorted(ALLOWED)
    # a factorisation imported by name would escape the scan
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "")]
