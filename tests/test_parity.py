"""Bit-for-bit parity of the acceptance suite's numbers against a stored digest.

Criteria 4-9 and 11 run on seeded inputs; this test recomputes their numbers
on those same inputs, plus the Hodge, Reeb and isotropy values that the
criteria read only through a tolerance, and compares, per group, the count
and the SHA-256 of the float.hex values with ``golden/parity.txt``.  A change
meant to be bit for bit must leave every line of that file as it is.

Regenerate the file (only for a change meant to move digits) with

    PYTHONPATH=src python tests/test_parity.py > tests/golden/parity.txt
"""

import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from zetabf import bv, complexes, orbits, zeta
from zetabf.verification import (
    CAT_MAP,
    FRIED_MATRICES,
    FRIED_THETAS,
    SEED,
    _random_complexes,
)

GOLDEN = Path(__file__).parent / "golden" / "parity.txt"

# criterion 5's (A, theta) pairs
CYCLE_CASES = ((CAT_MAP, math.pi), (CAT_MAP, 2.0), (CAT_MAP, 0.3),
               (((3, 2), (1, 1)), 0.7), (((5, 2), (2, 1)), 1.1))


def _hexes(values):
    out = []
    for v in values:
        if isinstance(v, complex):
            out += [v.real.hex(), v.imag.hex()]
        else:
            out.append(float(v).hex())
    return out


def _mapping_tori():
    cases = list(CYCLE_CASES) + [(a, t) for a in FRIED_MATRICES for t in FRIED_THETAS]
    return [complexes.mapping_torus_complex(a, t) for a, t in cases]


def _gauge_values(fs, gs, groups):
    groups["Z"].append(bv.partition_function(fs, gs))
    rep = bv.is_lagrangian(fs, gs)
    groups["is_lagrangian"] += [rep.isotropy_subspace, rep.isotropy_complement,
                                rep.cross_pairing_min_sv]


def parity_groups():
    """Group name -> the numbers of that group, in a fixed order."""
    groups = {name: [] for name in ("torsion_routes", "schwarz", "det_relations", "Z",
                                    "is_lagrangian", "scan", "log_zeta_k", "cycle_zeta")}
    tori = _mapping_tori()

    # criteria 6 and 7: torsion routes, Schwarz and the determinant relations
    for tc in _random_complexes(100, np.random.default_rng(SEED)) + tori:
        groups["torsion_routes"] += complexes.torsion_routes(tc)
        groups["schwarz"].append(complexes.schwarz_partition(tc))
    duals = [complexes.circle_complex(math.pi), complexes.circle_complex(2 * math.pi / 3),
             complexes.torus_complex(math.pi / 2, 0.0)]
    for tc in _random_complexes(100, np.random.default_rng(SEED + 1)) + duals + tori:
        rep = complexes.det_relations_report(tc)
        groups["det_relations"] += [rep.relation1, rep.relation3, *rep.coexact_logdets]
        if rep.relation2 is not None:
            groups["det_relations"].append(rep.relation2)

    # criterion 8: metric, Hodge and random gauges; the Reeb gauge on the tori
    rng = np.random.default_rng(SEED + 2)
    for tc in _random_complexes(20, rng):
        fs = bv.build_bf_fields(tc)
        _gauge_values(fs, bv.metric_gauge(fs), groups)
        _gauge_values(fs, bv.contraction_gauge(fs, bv.hodge_contraction(tc)), groups)
        for _ in range(5):
            _gauge_values(fs, bv.contraction_gauge(fs, bv.random_contraction(tc, rng)), groups)
    for tc in tori:
        fs = bv.build_bf_fields(tc)
        for c in (bv.hodge_contraction(tc), bv.suspension_contraction(tc)):
            _gauge_values(fs, bv.contraction_gauge(fs, c), groups)

    # criterion 9: homotopy scans
    rng = np.random.default_rng(SEED + 3)
    for _ in range(20):
        tc = complexes.random_twisted_complex(
            rng, top_degree=int(rng.integers(2, 5)), max_cells=4,
            rank=int(rng.integers(1, 3)))
        fs = bv.build_bf_fields(tc)
        family = bv.unitary_contraction_family(tc, bv.hodge_contraction(tc), rng)
        scan = bv.homotopy_scan(fs, family, samples=10)
        groups["scan"] += [x for row in scan.samples for x in row]
        groups["scan"] += scan.action_min_sv + [scan.max_relative_deviation]

    # criteria 4 and 11: truncated log zeta_k and the Fried residuals
    aut = orbits.ToralAutomorphism(2, 1, 1, 1)
    data = orbits.suspension_orbits(aut, 40)
    for theta in (0.0, math.pi / 2, math.pi):
        for lam in (3.0, 3.5, 4.25, 5.0):
            for k in (0, 1, 2):
                ev = zeta.log_zeta_k(data, theta, lam, k, J=40)
                groups["log_zeta_k"] += [ev.value, ev.truncation_error_bound]
    for a in FRIED_MATRICES:
        for theta in FRIED_THETAS:
            groups["log_zeta_k"].append(zeta.fried_residual(a, theta))

    # criterion 5: the cycle expansion at lambda = 0
    for a, theta in CYCLE_CASES:
        cyc = orbits.ToralAutomorphism.from_matrix(a)
        c = zeta.cycle_zeta(orbits.suspension_orbits(cyc, 12), theta, 0.0)
        groups["cycle_zeta"] += [c.zeta0, c.zeta1, c.zeta2, c.alternating,
                                 c.recurrence_residual,
                                 zeta.zeta_value_at_zero(cyc, theta)]
    return groups


def render() -> str:
    lines = []
    for name, values in parity_groups().items():
        hexes = _hexes(values)
        digest = hashlib.sha256("\n".join(hexes).encode()).hexdigest()
        lines.append(f"{name} {len(hexes)} {digest}")
    return "\n".join(lines) + "\n"


def test_parity_digest():
    want = GOLDEN.read_text().splitlines()
    got = render().splitlines()
    assert [line.split()[0] for line in got] == [line.split()[0] for line in want]
    for g, w in zip(got, want):
        assert g == w


if __name__ == "__main__":
    sys.stdout.write(render())
