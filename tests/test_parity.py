"""Bit-for-bit parity of the acceptance suite's numbers against a stored digest.

Criteria 4-9 and 11 run on seeded inputs; this test recomputes their numbers
on those same inputs, plus the Hodge, Reeb and isotropy values that the
criteria read only through a tolerance, and compares, per group, the count
and the SHA-256 of the float.hex values with ``golden/parity.txt``.  A change
meant to be bit for bit must leave every line of that file as it is.

The ``flat_trace``, ``loaded_spectrum`` and ``poincare`` groups cover the
flat-trace pairing, a written-then-loaded suspension spectrum and the exact
Poincare data; they were generated at commit 5599507, before the Poincare
weight, the suspension holonomy and the trace of A^j were each reduced to one
definition, and that change left them as they were.  The ``primitive_orbits``
and ``chart`` groups cover the primitive-orbit records at periods <= 64
(period and count as exact decimal strings, which float.hex would round) and
the gauge polarization's Darboux chart; they were generated at commit b9a6de1,
before the orbit counts became a divisor-sum recursion and the chart got one
builder.  The ``rank_cut`` group covers inputs whose smallest singular values
sit near the rank cut (cat-map twists at small theta, a cat complex and
seeded random complexes scaled by small and large factors), through every
consumer of the ranks: both torsion routes, Schwarz, the determinant
relations, the Laplacian log dets, the metric, Hodge and Reeb gauges and a
short homotopy scan; it was generated at commit ceae494, before each of those
consumers took its count from the spectral record instead of cutting again.
The ``twists`` group covers rank-1 and rank-3 cat twists built from the cell
complex with a seeded unitary on ``t`` (its image listed first, so generators
are matched by name) and the det A = -1 mapping tori, through both torsion
routes, Schwarz, relations (1) and (3), and the metric, Hodge, one random and,
on the mapping tori, the Reeb gauge; it was generated at commit 283ed5a,
before the builder paired each generator with its image once and carried the
cell complex's Reeb pairs to every twist.  The ``flat_det`` group covers
criterion 12's 50 matrices: the spectral and Mellin values and the quadrature
estimate; it was generated at commit aa28ca3, before the heat traces and the
unitary contraction family shared one matrix exponential.  The ``observables``
group covers criterion 10: its monomial basis and the Laplacian of each basis
element, its seeded products, Laplacians and antibrackets, both gauge charts'
weights, damped Laplacians and Gaussian expectations, and the criterion's own
result; each monomial is rendered by its variable names and powers, so the
group does not depend on how a key is stored.  It was generated at commit
22c10c3, before a monomial key became one sorted word of variable indices.

Regenerate the file (only for a change meant to move digits) with

    PYTHONPATH=src python tests/test_parity.py > tests/golden/parity.txt
"""

import hashlib
import math
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

from zetabf import bv, complexes, observables, orbits, verification, zeta
from zetabf.graded import flat_det
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

# the perfbench matrix pool and two matrices of negative trace, for the
# primitive-orbit counts at two roofs
ORBIT_MATRICES = ((2, 1, 1, 1), (3, 1, 2, 1), (4, 1, 3, 1), (3, 2, 1, 1), (2, 3, 1, 2),
                  (5, 2, 2, 1), (3, 1, 1, 0), (2, 1, 3, 1), (4, 1, 1, 0), (1, 2, 2, 3),
                  (-2, -1, -1, -1), (-3, 1, 1, 0))

# flat-trace test functions, inside criterion 4's complete periods
BUMPS = (zeta.BumpSpec(2.0, 0.1), zeta.BumpSpec(5.0, 0.5),
         zeta.BumpSpec(7.3, 0.8), zeta.BumpSpec(12.0, 1.5))


def _hexes(values):
    out = []
    for v in values:
        if isinstance(v, str):
            out.append(v)
        elif isinstance(v, complex):
            out += [v.real.hex(), v.imag.hex()]
        else:
            out.append(float(v).hex())
    return out


def _mapping_tori():
    cases = list(CYCLE_CASES) + [(a, t) for a in FRIED_MATRICES for t in FRIED_THETAS]
    return [complexes.mapping_torus_complex(a, t) for a, t in cases]


def _scaled(tc, s):
    """``tc`` with every differential multiplied by ``s``."""
    return complexes.TwistedComplex([s * d for d in tc.diffs],
                                    poincare_self_dual=tc.poincare_self_dual)


def _rank_cut_complexes():
    """Inputs near the rank cut: the cat map twisted by theta = 1e-3 and 1e-4,
    the theta = 2 cat complex scaled by 1e-3, and five seeded random
    complexes scaled by 1e-4 and by 1e4."""
    out = [complexes.mapping_torus_complex(CAT_MAP, t) for t in (1e-3, 1e-4)]
    out.append(_scaled(complexes.mapping_torus_complex(CAT_MAP, 2.0), 1e-3))
    rng = np.random.default_rng(SEED + 6)
    for _ in range(5):
        tc = complexes.random_twisted_complex(
            rng, top_degree=int(rng.integers(2, 5)), max_cells=4,
            rank=int(rng.integers(1, 3)))
        out += [_scaled(tc, 1e-4), _scaled(tc, 1e4)]
    return out


def _twisted_complexes():
    """(complex, whether to read its Reeb gauge): cat twists of rank 1 and 3
    by U = Q diag(e^(i theta_j)) Q^H on ``t``, built from the cell complex,
    then the det A = -1 mapping tori at theta = 0.9 and 2."""
    rng = np.random.default_rng(SEED + 8)
    cc = complexes.mapping_torus_cell_complex(CAT_MAP)
    out = []
    for r in (1, 3):
        q = complexes.phase_fixed_qr(complexes.ginibre(rng, r))
        u = (q * np.exp(1j * rng.uniform(0.0, 2 * math.pi, size=r))) @ q.conj().T
        eye = np.eye(r)
        rep = complexes.UnitaryRep(r, {"t": u, "a": eye, "b": eye})
        out.append((complexes.build_twisted_complex(cc, rep), False))
    for a in (((3, 1), (1, 0)), ((4, 1), (1, 0))):
        out += [(complexes.mapping_torus_complex(a, t), True) for t in (0.9, 2.0)]
    return out


def _gauge_values(fs, gs, groups):
    groups["Z"].append(bv.partition_function(fs, gs))
    rep = bv.is_lagrangian(fs, gs)
    # twice: once for the subspace, once for its side swap, whose isotropy it is too
    groups["is_lagrangian"] += [rep.isotropy, rep.isotropy, rep.cross_pairing_min_sv]


def _monomial(chart, key):
    """``key`` as its variable names with powers, in chart order ("1" for the
    constant)."""
    return "*".join(chart.variables[v] + (f"^{e}" if e > 1 else "")
                    for v, e in sorted(Counter(key).items())) or "1"


def _terms(p):
    """An observable's term count, then each monomial and its coefficient,
    in the order the terms are stored."""
    out = [str(len(p.terms))]
    for key, coeff in p.terms.items():
        out += [_monomial(p.chart, key), coeff]
    return out


def _observable_values():
    """Criterion 10's numbers, on its chart, seeds and gauges."""
    d, br = observables.bv_laplacian, observables.antibracket
    chart = observables.DarbouxChart(
        (("x", "xi"), ("c", "cb"), ("y", "eta")), (0, 1, -2), max_word_length=12)
    values = []
    for m in observables.monomial_basis(chart, 4):
        values += _terms(m) + _terms(d(m))
    rng = np.random.default_rng(SEED + 4)
    for _ in range(40):
        pf, pg = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        f = observables.random_observable(chart, rng, degree=3, terms=5, parity=pf)
        g = observables.random_observable(chart, rng, degree=3, terms=5, parity=pg)
        sf = (-1) ** pf
        id1 = d(f * g) - (d(f) * g + f * d(g) * sf + br(f, g) * sf)
        id2 = d(br(f, g)) - (br(d(f), g) + br(f, d(g)) * (-sf))
        for p in (f, g, f * g, d(f), d(g), br(f, g), id1, id2):
            values += _terms(p)
    tc = complexes.mapping_torus_complex(CAT_MAP, math.pi)
    fs = bv.build_bf_fields(tc)
    for gauge in (bv.metric_gauge(fs), bv.contraction_gauge(fs, bv.hodge_contraction(tc))):
        chart_g, on_vars = bv.gauge_polarization(fs, gauge, max_word_length=10)
        weight = verification._damping_weight(chart_g, on_vars, rng)
        values += _terms(weight)
        for _ in range(25):
            h = observables.random_observable(chart_g, rng, degree=3, terms=5)
            g_obs = d(h, weight=weight)
            values += _terms(h) + _terms(g_obs)
            values += list(observables.gaussian_expectation(g_obs, on_vars, weight))
    name, ok, detail = verification.criterion_10_bv_identities()
    return values + [name, str(ok), detail]


def parity_groups():
    """Group name -> the numbers of that group, in a fixed order."""
    groups = {name: [] for name in ("torsion_routes", "schwarz", "det_relations", "Z",
                                    "is_lagrangian", "scan", "log_zeta_k", "cycle_zeta",
                                    "flat_trace", "loaded_spectrum", "poincare",
                                    "primitive_orbits", "chart", "rank_cut",
                                    "twists", "flat_det", "observables")}
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
        family = bv.unitary_contraction_family(tc, rng)
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
            groups["log_zeta_k"].append(verification.fried_residual(a, theta))

    # criterion 5: the cycle expansion at lambda = 0
    for a, theta in CYCLE_CASES:
        cyc = orbits.ToralAutomorphism.from_matrix(a)
        c = zeta.cycle_zeta(orbits.suspension_orbits(cyc, 12), theta, 0.0)
        groups["cycle_zeta"] += [c.zeta0, c.zeta1, c.zeta2, c.alternating,
                                 c.recurrence_residual,
                                 zeta.zeta_value_at_zero(cyc, theta)]

    # the flat-trace pairing on criterion 4's spectrum
    for theta in (0.0, math.pi / 2, math.pi):
        for bump in BUMPS:
            for k in (0, 1, 2):
                groups["flat_trace"].append(zeta.flat_trace_pairing(data, theta, k, bump))

    # criterion 4's records written at theta = pi/2 and loaded back; J stays
    # below the repetition count at which the Poincare powers overflow
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spectrum.txt"
        orbits.write_orbit_spectrum(path, data.records, theta=math.pi / 2)
        loaded = orbits.load_orbit_spectrum(path)
    for J in (8, 16):
        for lam in (3.0, 3.5 + 1j):
            evs = [zeta.log_zeta_k(loaded, 0.0, lam, k, J) for k in (0, 1, 2)]
            for ev in evs + [zeta.log_zeta_full(loaded, 0.0, lam, J)]:
                groups["loaded_spectrum"] += [ev.value, ev.truncation_error_bound]

    # exact Poincare data
    for matrix in ((2, 1, 1, 1), (3, 1, 2, 1)):
        poincare_aut = orbits.ToralAutomorphism(*matrix)
        for j in range(13):
            for k in (0, 1, 2):
                groups["poincare"] += orbits.poincare_data(poincare_aut, j, k)

    # primitive-orbit records; period and count as exact decimal strings
    for matrix in ORBIT_MATRICES:
        for roof in (1.0, 1.3):
            aut = orbits.ToralAutomorphism(*matrix, roof=roof)
            for r in orbits.enumerate_primitive_orbits(aut, 64):
                groups["primitive_orbits"] += [str(r.period), str(r.count), r.length,
                                               r.eig_expanding, r.eig_contracting]

    # the gauge polarization's chart for the metric and Hodge gauges
    rng = np.random.default_rng(SEED + 4)
    for tc in (complexes.mapping_torus_complex(CAT_MAP, math.pi),
               complexes.circle_complex(math.pi),
               complexes.random_twisted_complex(rng, top_degree=3, max_cells=4, rank=2),
               complexes.random_twisted_complex(rng, top_degree=4, max_cells=3, rank=1)):
        fs = bv.build_bf_fields(tc)
        for gs in (bv.metric_gauge(fs), bv.contraction_gauge(fs, bv.hodge_contraction(tc))):
            chart, names = bv.gauge_polarization(fs, gs)
            groups["chart"] += [v for pair in chart.pairs for v in pair]
            groups["chart"] += list(chart.field_degrees) + [chart.max_word_length]
            groups["chart"] += list(names)

    # every rank consumer on inputs near the cut
    for tc in _rank_cut_complexes():
        values = list(complexes.torsion_routes(tc)) + [complexes.schwarz_partition(tc)]
        rep = complexes.det_relations_report(tc)
        values += [rep.relation1, rep.relation3, *rep.coexact_logdets]
        if rep.relation2 is not None:
            values.append(rep.relation2)
        values += tc.spectrum.laplacian_logdets
        fs = bv.build_bf_fields(tc)
        gauges = [bv.metric_gauge(fs), bv.contraction_gauge(fs, bv.hodge_contraction(tc))]
        if tc.suspension is not None:
            gauges.append(bv.contraction_gauge(fs, bv.suspension_contraction(tc)))
        values += [bv.partition_function(fs, gs) for gs in gauges]
        family = bv.unitary_contraction_family(tc, np.random.default_rng(SEED + 7))
        scan = bv.homotopy_scan(fs, family, samples=5)
        values += [x for _, z, r in scan.samples for x in (z, r)] + scan.action_min_sv
        groups["rank_cut"] += values

    # twists built from the cell complex, and the det A = -1 tori; relation
    # (2) is left out
    rng = np.random.default_rng(SEED + 9)
    for tc, reeb in _twisted_complexes():
        values = list(complexes.torsion_routes(tc)) + [complexes.schwarz_partition(tc)]
        rep = complexes.det_relations_report(tc)
        values += [rep.relation1, rep.relation3, *rep.coexact_logdets]
        fs = bv.build_bf_fields(tc)
        contractions = [bv.hodge_contraction(tc), bv.random_contraction(tc, rng)]
        if reeb:
            contractions.append(bv.suspension_contraction(tc))
        values.append(bv.partition_function(fs, bv.metric_gauge(fs)))
        values += [bv.partition_function(fs, bv.contraction_gauge(fs, c))
                   for c in contractions]
        groups["twists"] += values

    # criterion 12: both flat-determinant routes and the quadrature estimate
    for a in verification._criterion_12_matrices():
        r = flat_det(a)
        groups["flat_det"] += [r.value, r.mellin_value, r.quadrature_error_estimate]

    # criterion 10: the BV algebra and the damped Gaussian expectations
    groups["observables"] = _observable_values()
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
