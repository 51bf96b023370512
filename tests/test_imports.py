"""The import graph: each route module loads only its own layer.

The three routes (orbit sums in ``zeta``, torsion in ``complexes``, gauge
fixing in ``bv``) meet only in ``verification`` and ``cli``.  Each module is
imported in a fresh interpreter, so what it loads is what it needs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"

LOADED = {
    "zetabf": set(),
    "zetabf.orbits": {"errors", "orbits"},
    "zetabf.zeta": {"errors", "orbits", "zeta"},
    "zetabf.complexes": {"errors", "orbits", "complexes"},
    "zetabf.bv": {"errors", "orbits", "complexes", "bv"},
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
