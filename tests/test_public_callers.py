"""Every public name of the package has a caller in the package.

The scan parses ``src/zetabf/*.py`` and lists the public functions, classes
and methods (of public classes) that no ``Name``, ``Attribute`` or import in
``src`` refers to outside their own definition.  A public helper whose only
caller is a test fails it, unless the allowlist below names it with a reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "zetabf"

ALLOWED = {
    "bv.is_lagrangian": "perfbench traces it, and verify is to call it",
    "bv.omega": "perfbench counts it by name; the tests' reference pairing",
    "zeta.flat_trace_pairing": "perfbench calls it",
    "zeta.mellin_log_zeta": "perfbench calls it",
    "complexes.write_complex_file": "it writes the complex-file format that "
                                    "read_complex_file reads",
}


def _public_definitions(tree: ast.Module):
    """(name, node) of each public top-level function or class, and of each
    public method of a public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item


def _references(trees):
    """(referenced name, node) of every Name, Attribute and import alias."""
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id, node
            elif isinstance(node, ast.Attribute):
                yield node.attr, node
            elif isinstance(node, ast.alias):
                yield node.name, node


def uncalled_public_names():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    refs = list(_references(trees.values()))
    out = []
    for module, tree in trees.items():
        for name, node in _public_definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            if not any(r == name and id(n) not in inside for r, n in refs):
                out.append(f"{module}.{name}")
    return sorted(out)


def test_every_public_name_has_a_caller_in_the_package():
    assert uncalled_public_names() == sorted(ALLOWED)
