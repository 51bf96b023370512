"""The complex layer factorises by shape, one complex or a batch alike.

The scan parses ``src/zetabf/complexes.py`` and lists each call of a
``linalg`` function other than ``norm`` with the function that makes it, as
``tests/test_bv_factorisations.py`` does for ``bv``.  Every values-only SVD
and every eigvalsh goes through ``_values_by_shape``, which stacks the
matrices of one shape, within a lone complex as across a batch; a
factorisation elsewhere fails the pin until ALLOWED names it with a reason.
"""

import ast
from pathlib import Path

from test_bv_factorisations import _linalg_calls

COMPLEXES = Path(__file__).resolve().parent.parent / "src" / "zetabf" / "complexes.py"

ALLOWED = {
    ("_values_by_shape.values", "svd"): "the singular values of the differentials, of "
                                        "d_k* (relation (1)) and of Schwarz's tower blocks",
    ("_values_by_shape.values", "eigvalsh"): "the eigenvalues of the Laplacians and of "
                                             "Schwarz's T^2 blocks",
    ("TwistedComplex.hodge_bases", "svd"): "the exact and coexact bases of the BV "
                                           "gauges, with vectors",
    ("_gram_root", "eigh"): "the square root of a Gram matrix, and its validation",
    ("TwistedComplex.__init__", "inv"): "the isometric presentation G^(1/2) d G^(-1/2)",
    ("phase_fixed_qr", "qr"): "the Haar unitaries of the random complexes",
}


def test_complexes_factorise_only_at_their_listed_sites():
    tree = ast.parse(COMPLEXES.read_text())
    assert sorted(_linalg_calls(tree)) == sorted(ALLOWED)
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "")]
