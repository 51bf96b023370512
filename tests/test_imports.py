"""The import graph: each route module loads only its own layer.

The three routes (orbit sums in ``zeta``, torsion in ``complexes``, gauge
fixing in ``bv``) meet only in ``verification`` and ``cli``.  Each module is
imported in a fresh interpreter, so what it loads is what it needs.  The
declared dependencies in ``pyproject.toml`` are checked against the imports
of the package (numpy alone at run time) and of the tests.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src"

LOADED = {
    "zetabf": set(),
    "zetabf.orbits": {"errors", "orbits"},
    "zetabf.zeta": {"errors", "orbits", "zeta"},
    "zetabf.complexes": {"errors", "orbits", "complexes"},
    "zetabf.bv": {"errors", "orbits", "complexes", "graded", "bv"},
    "zetabf.graded": {"errors", "graded"},
    "zetabf.observables": {"errors", "observables"},
}


@pytest.mark.parametrize("module", sorted(LOADED))
def test_module_loads_only_its_own_layer(module):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    script = (f"import json, sys, {module}\n"
              "print(json.dumps(sorted(sys.modules)))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    loaded = json.loads(done.stdout)
    assert {m.split(".", 1)[1] for m in loaded if m.startswith("zetabf.")} == LOADED[module]
    assert "scipy" not in loaded


def _third_party_imports(folder: Path):
    """Top-level modules imported anywhere in the .py files of ``folder``,
    leaving out the standard library, zetabf and the folder's own modules."""
    found = set()
    for path in folder.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    local = {path.stem for path in folder.glob("*.py")} | {"zetabf"}
    return found - local - set(sys.stdlib_module_names)


def _names(requirements):
    """Distribution names of requirement strings; each names its module."""
    return {re.split(r"[\s<>=!~;\[]", r, maxsplit=1)[0].lower() for r in requirements}


def test_declared_dependencies_are_the_imports():
    """Run time needs numpy alone; the test extras cover what the tests
    import (scipy among them, as an independent reference)."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = _names(project["dependencies"])
    assert runtime == _third_party_imports(SRC / "zetabf") == {"numpy"}
    test = _names(project["optional-dependencies"]["test"])
    assert _third_party_imports(ROOT / "tests") <= runtime | test
