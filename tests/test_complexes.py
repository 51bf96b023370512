"""Twisted complex assembly, torsion routes, Schwarz resolution, file format."""

import cmath
import dataclasses
import math
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import sqrtm

from zetabf.complexes import (
    CellComplex,
    TwistedComplex,
    analytic_torsion,
    build_twisted_complex,
    character_rep,
    circle_cell_complex,
    circle_complex,
    UnitaryRep,
    det_relations_report,
    det_relations_reports,
    ginibre,
    mapping_torus_cell_complex,
    mapping_torus_complex,
    phase_fixed_qr,
    random_twisted_complex,
    read_complex_file,
    schwarz_partition,
    schwarz_partitions,
    torsion_routes,
    torus_complex,
    torus_cell_complex,
    write_complex_file,
)
from zetabf import bv, complexes
from zetabf.errors import (
    DegenerateContractionError,
    NotAComplexError,
    NotAcyclicError,
    NotHyperbolicError,
    ParseError,
    RelatorViolationError,
    ZetaBFError,
)
from zetabf.verification import SEED, _random_complexes, milnor_mapping_torus_torsion

from test_bv import CAT, _cat_rank_twist, _svd_contraction


def circle_torsion_oracle(theta):
    """|det(rho(gamma) - I)| for the twisted circle, computed directly."""
    return abs(cmath.exp(1j * theta) - 1.0)


def milnor_oracle(a, theta):
    """Alternating product over H^k(T^2): |det(I - z A)| / (|1-z| |1-z det A|)."""
    a = np.asarray(a, dtype=float)
    z = cmath.exp(1j * theta)
    det_a = np.linalg.det(a)
    return abs(np.linalg.det(np.eye(2) - z * a)) / (abs(1 - z) * abs(1 - z * det_a))


def test_circle_twisted_differential():
    tc = circle_complex(math.pi)
    assert tc.diffs[0].shape == (1, 1)
    assert tc.diffs[0][0, 0] == pytest.approx(-2.0)
    assert tc.betti_numbers() == (0, 0)


def test_circle_untwisted():
    tc = circle_complex(0.0)
    assert tc.betti_numbers() == (1, 1)


def test_torus_character_acyclic():
    tc = torus_complex(math.pi / 2, 0.0)       # characters (i, 1)
    # oracle: independent rank computation of the assembled differentials
    r0 = np.linalg.matrix_rank(tc.diffs[0])
    r1 = np.linalg.matrix_rank(tc.diffs[1])
    assert (r0, r1) == (1, 1)
    assert tc.betti_numbers() == (0, 0, 0)


def test_torus_untwisted_betti():
    tc = torus_complex(0.0, 0.0)
    assert tc.betti_numbers() == (1, 2, 1)


def test_mapping_torus_betti():
    tc = mapping_torus_complex([[2, 1], [1, 1]], math.pi)
    assert tc.dims == (1, 3, 3, 1)
    assert tc.betti_numbers() == (0, 0, 0, 0)


def test_mapping_torus_not_acyclic_untwisted():
    tc = mapping_torus_complex([[2, 1], [1, 1]], 0.0)
    assert tc.betti_numbers()[0] != 0


def test_mapping_torus_rejects_non_hyperbolic():
    with pytest.raises(NotHyperbolicError):
        mapping_torus_complex([[1, 1], [0, 1]], math.pi)
    with pytest.raises(NotHyperbolicError):
        mapping_torus_complex([[2, 0], [0, 2]], math.pi)


def test_circle_torsion_values():
    assert analytic_torsion(circle_complex(math.pi)) == pytest.approx(2.0, rel=1e-12)
    theta = 2 * math.pi / 3
    assert analytic_torsion(circle_complex(theta)) == pytest.approx(
        circle_torsion_oracle(theta), rel=1e-12)


def test_mapping_torus_torsion_conventions():
    tc = mapping_torus_complex([[2, 1], [1, 1]], math.pi)
    tau = analytic_torsion(tc)
    assert tau == pytest.approx(4.0 / 5.0, rel=1e-12)
    assert analytic_torsion(tc) ** -1 == pytest.approx(5.0 / 4.0, rel=1e-12)
    # the cohomological oracle gives the reciprocal normalisation
    assert milnor_oracle([[2, 1], [1, 1]], math.pi) == pytest.approx(1.25)
    assert tau * milnor_oracle([[2, 1], [1, 1]], math.pi) == pytest.approx(1.0, rel=1e-12)


def test_mapping_torus_torsion_quarter_turn():
    a = [[2, 1], [1, 1]]
    tc = mapping_torus_complex(a, math.pi / 2)
    assert analytic_torsion(tc) ** -1 == pytest.approx(
        milnor_oracle(a, math.pi / 2), rel=1e-12)


def _rotation(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


def _split_scale_complex(big):
    """Acyclic C^2 -> C^4 -> C^2 with tau = 1 and singular values (big,
    1/big) in both differentials: Delta_1's two small eigenvalues, about
    1/big^2, sit near eigvalsh's resolution of about eps * big^2."""
    hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
    rot = np.zeros((4, 4))
    rot[:2, :2], rot[2:, 2:] = _rotation(0.3), _rotation(0.2)
    u1 = hadamard @ rot
    s = np.diag([big, 1.0 / big])
    return TwistedComplex([u1[:, :2] @ s @ _rotation(0.4).T,
                           _rotation(0.9) @ s @ u1[:, 2:].T])


def _hodge_verdicts(tc):
    """What the Hodge contraction with its split from ``hodge_bases``, and the
    same iota with its split found by SVD, say of ``tc``: "ok" or the error."""
    out = []
    for build in (bv.hodge_contraction, lambda t: _svd_contraction(bv._hodge_maps(t)[0])):
        try:
            build(tc)
            out.append("ok")
        except DegenerateContractionError as exc:
            out.append(str(exc))
    return out


def test_hodge_split_refuses_what_the_svd_path_refuses():
    ok = ["ok", "ok"]
    for big in (1.0, 10.0, 100.0):
        assert _hodge_verdicts(_split_scale_complex(big)) == ok
    # refused on both paths before any split is read: the iota^2 check holds
    # |iota_1 iota_2| to 1e-12 absolute while the error of the Hodge bases
    # grows with s_1/s_r of the differentials (the Contraction._validate
    # bullet of ROADMAP item 16, still open)
    for big in (300.0, 1e3):
        assert _hodge_verdicts(_split_scale_complex(big)) == ["iota^2 != 0 at degree 2"] * 2
    for theta in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        assert _hodge_verdicts(mapping_torus_complex([[2, 1], [1, 1]], theta)) == ok
    for n in (10, 100, 1000):
        for theta in (2.0, 0.3):
            assert _hodge_verdicts(mapping_torus_complex([[n, 1], [n - 1, 1]], theta)) == ok
    rng = np.random.default_rng(31)
    for tc in complexes.random_twisted_complexes(
            rng, 300, lambda r: (int(r.integers(2, 5)), 4, int(r.integers(1, 3)))):
        for scale in (1e-6, 1.0, 1e3, 1e6):
            assert _hodge_verdicts(TwistedComplex([scale * d for d in tc.diffs])) == ok


def test_nan_laplacian_route_fails_the_cross_check():
    # eigvalsh reads one small eigenvalue of Delta_1 as negative, so the
    # Laplacian route is NaN: the check and relation (3) must not pass it
    tc = _split_scale_complex(1e4)
    with np.errstate(invalid="ignore"):
        laplace, coexact = torsion_routes(tc)
        assert math.isnan(laplace) and coexact == pytest.approx(1.0, rel=1e-6)
        with pytest.raises(ZetaBFError, match="cross-check"):
            analytic_torsion(tc)
        assert not det_relations_report(tc).relation3 < 1e-6


def test_inaccurate_laplacian_route_fails_the_cross_check():
    # at 3000 the Laplacian route reads 1.0001258 against 1.0000000003
    with pytest.raises(ZetaBFError, match="cross-check"):
        analytic_torsion(_split_scale_complex(3000.0))


@pytest.mark.parametrize("big", [1e3, 1e4])
def test_schwarz_is_held_to_the_coexact_route(big):
    # the resolution's blocks square the split scales: at 1e4 it read 0.8785
    # for tau = 1, at 1e3 0.99997, and both passed unchecked
    tc = _split_scale_complex(big)
    with np.errstate(invalid="ignore"):
        assert torsion_routes(tc)[1] == pytest.approx(1.0, rel=1e-6)
    with pytest.raises(ZetaBFError, match="cross-check failed: schwarz route"):
        schwarz_partition(tc)


def test_cross_check_refuses_a_nan_route(monkeypatch):
    monkeypatch.setattr("zetabf.complexes.torsion_routes", lambda tc: (math.nan, 1.0))
    with pytest.raises(ZetaBFError, match="cross-check"):
        analytic_torsion(circle_complex(math.pi))


def test_torsion_requires_acyclicity():
    with pytest.raises(NotAcyclicError) as err:
        analytic_torsion(circle_complex(0.0))
    assert err.value.betti == (1, 1)


def test_torsion_unitary_invariance():
    rng = np.random.default_rng(5)
    tc = random_twisted_complex(rng, top_degree=3, max_cells=4, rank=2)
    tau = analytic_torsion(tc)

    def haar(n):
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    us = [haar(n) for n in tc.dims]
    rotated = TwistedComplex([us[k + 1] @ d @ us[k].conj().T
                              for k, d in enumerate(tc.diffs)])
    assert analytic_torsion(rotated) == pytest.approx(tau, rel=1e-10)


def test_gram_metric_dependence_probe():
    # alternative inner products change the torsion but the internal
    # cross-check between the two formulas still holds
    tc = circle_complex(math.pi)
    g1 = np.array([[4.0]])
    probed = build_twisted_complex(
        circle_cell_complex(), character_rep({"g": cmath.exp(1j * math.pi)}),
        grams=[g1, None])
    tau = analytic_torsion(probed)
    assert tau != pytest.approx(analytic_torsion(tc), rel=1e-6)


def test_schwarz_equals_torsion_models():
    for tc in (circle_complex(math.pi),
               circle_complex(2 * math.pi / 3),
               mapping_torus_complex([[2, 1], [1, 1]], math.pi),
               mapping_torus_complex([[3, 1], [2, 1]], 2 * math.pi / 3)):
        assert schwarz_partition(tc) == pytest.approx(
            analytic_torsion(tc), rel=1e-10)


def test_schwarz_equals_torsion_random():
    rng = np.random.default_rng(6)
    for _ in range(15):
        tc = random_twisted_complex(rng, top_degree=int(rng.integers(2, 6)),
                                    max_cells=6, rank=int(rng.integers(1, 3)))
        assert schwarz_partition(tc) == pytest.approx(
            analytic_torsion(tc), rel=1e-10)


def test_schwarz_requires_acyclic():
    with pytest.raises(NotAcyclicError):
        schwarz_partition(circle_complex(0.0))


def cat_torsion_oracle(theta):
    """Torsion of the cat-map mapping torus twisted by e^(i theta)."""
    q = 4.0 * math.sin(theta / 2) ** 2
    return q / (1.0 + q)


@pytest.mark.parametrize("theta", [1e-5, 1e-6, 1e-7])
def test_cat_twist_near_the_rank_cut(theta):
    # d_k keeps singular values near theta whose squares, the Laplacian
    # eigenvalues, lie below the cut: every route counts by the record's ranks
    tc = mapping_torus_complex([[2, 1], [1, 1]], theta)
    exact = cat_torsion_oracle(theta)
    for value in (*torsion_routes(tc), schwarz_partition(tc), analytic_torsion(tc)):
        assert value == pytest.approx(exact, rel=1e-12)
    assert det_relations_report(tc).relation3 < 1e-10


@pytest.mark.parametrize("scale", [1e-6, 1e-9])
def test_scaled_cat_complex_keeps_its_torsion(scale):
    # ranks (1, 2, 1): log tau moves by (1 - 2 + 1) log(scale) = 0
    tc = mapping_torus_complex([[2, 1], [1, 1]], 2.0)
    scaled = TwistedComplex([scale * d for d in tc.diffs])
    assert scaled.betti_numbers() == (0, 0, 0, 0)
    tau = analytic_torsion(tc)
    for value in (*torsion_routes(scaled), schwarz_partition(scaled)):
        assert value == pytest.approx(tau, rel=1e-12)


def test_det_relations_circle():
    rep = det_relations_report(circle_complex(math.pi))
    assert rep.relation1 == pytest.approx(0.0, abs=1e-12)
    # both determinants equal 4
    assert rep.coexact_logdets[0] == pytest.approx(math.log(4.0))


def test_det_relations_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        tc = random_twisted_complex(rng, top_degree=int(rng.integers(2, 5)),
                                    max_cells=5, rank=1)
        rep = det_relations_report(tc)
        assert rep.relation1 < 1e-10
        assert rep.relation3 < 1e-10
        assert rep.relation2 is None      # no declared dual pairing


def test_det_relations_identity_cone():
    # cone of the identity map: 0 -> C^2 -> C^2 -> 0, relation (3) degreewise
    tc = TwistedComplex([np.eye(2)])
    rep = det_relations_report(tc)
    assert rep.relation3 < 1e-14
    assert rep.relation1 < 1e-14


def test_differentials_are_read_only_copies():
    d = np.eye(2, dtype=complex)
    tc = TwistedComplex([d])
    assert tc.betti_numbers() == (0, 0)
    d[0, 0] = 0.0                  # the caller's array stays its own
    assert tc.betti_numbers() == (0, 0)
    with pytest.raises(ValueError):
        tc.diffs[0][0, 0] = 0.0


def test_gram_complex_stores_isometric_presentation():
    # diffs[k] = G_(k+1)^(1/2) d_k G_k^(-1/2), with G^(1/2) Hermitian positive
    rng = np.random.default_rng(9)
    tc = random_twisted_complex(rng, top_degree=2, max_cells=4, rank=1)
    grams = []
    for n in tc.dims:
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        grams.append(z @ z.conj().T + n * np.eye(n))
    grams[1] = None                # identity in that degree
    tcg = TwistedComplex(tc.diffs, grams=grams)
    roots = [sqrtm(g) if g is not None else np.eye(n)
             for g, n in zip(grams, tc.dims)]
    for k, d in enumerate(tc.diffs):
        want = roots[k + 1] @ d @ np.linalg.inv(roots[k])
        assert np.allclose(tcg.diffs[k], want, rtol=0, atol=1e-12 * np.linalg.norm(want))
    assert not tcg.diffs[0].flags.writeable


def test_gram_validation():
    tc = circle_complex(math.pi)
    for grams in ([np.array([[-1.0]]), None], [np.eye(2), None],
                  [np.array([[1.0, 1j], [0.0, 1.0]]), None], [None]):
        with pytest.raises(ValueError):
            TwistedComplex(tc.diffs, grams=grams)


def _cat_grams(tc, s):
    """Seeded Grams s (X X^H + I/2) on each degree of ``tc``."""
    rng = np.random.default_rng(3)
    out = []
    for n in tc.dims:
        x = ginibre(rng, n)
        out.append(s * (x @ x.conj().T + 0.5 * np.eye(n)))
    return out


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e5])
def test_gram_hermitian_check_is_relative(scale):
    # at 1e5 rounding leaves X X^H asymmetric by 5e-11, about 1e-16 of its
    # norm: an absolute 1e-12 bound refused it.  On dims (1, 3, 3, 1) the
    # metric law's exponent sum_k (-1)^(k+1) d_k is 0, so tau does not move
    tc = mapping_torus_complex([[2, 1], [1, 1]], 2.0)
    tau = analytic_torsion(TwistedComplex(tc.diffs, grams=_cat_grams(tc, 1.0)))
    scaled = TwistedComplex(tc.diffs, grams=_cat_grams(tc, scale))
    assert analytic_torsion(scaled) == pytest.approx(tau, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e5])
def test_gram_asymmetric_to_1e_6_is_refused_at_every_scale(scale):
    tc = mapping_torus_complex([[2, 1], [1, 1]], 2.0)
    grams = _cat_grams(tc, scale)
    grams[1][0, 1] += 1e-6 * np.linalg.norm(grams[1])
    with pytest.raises(ValueError, match="Hermitian"):
        TwistedComplex(tc.diffs, grams=grams)


def test_det_relations_dual_pairs():
    for tc in (circle_complex(2 * math.pi / 3),
               torus_complex(math.pi / 2, 0.0),
               mapping_torus_complex([[2, 1], [1, 1]], math.pi)):
        rep = det_relations_report(tc)
        assert rep.relation2 is not None and rep.relation2 < 1e-10


@pytest.mark.parametrize("r", [1, 3])
def test_rank_r_cat_twists_report_relation_2(r):
    # the cell complex declares self-duality, so a twist built from it at any
    # rank reports relation (2); a det A = -1 torus declares none
    rng = np.random.default_rng(r)
    q = phase_fixed_qr(ginibre(rng, r))
    u = (q * np.exp(1j * rng.uniform(0.3, 2 * math.pi - 0.3, size=r))) @ q.conj().T
    eye = np.eye(r)
    cc = mapping_torus_cell_complex([[2, 1], [1, 1]])
    assert cc.self_dual
    tc = build_twisted_complex(cc, UnitaryRep(r, {"a": eye, "b": eye, "t": u}))
    assert det_relations_report(tc).relation2 < 1e-14
    for a in ([[3, 1], [1, 0]], [[4, 1], [1, 0]]):
        assert not mapping_torus_cell_complex(a).self_dual
        assert det_relations_report(mapping_torus_complex(a, 0.9)).relation2 is None


def test_gram_blocks_are_declared_self_dual_only_by_the_caller(tmp_path):
    cc = mapping_torus_cell_complex([[2, 1], [1, 1]])
    rep = character_rep({"a": 1.0, "b": 1.0, "t": cmath.exp(2.0j)})
    rng = np.random.default_rng(5)
    grams = []
    for n in cc.counts:
        z = rng.normal(size=(n, n))
        grams.append(z @ z.T + n * np.eye(n))
    assert build_twisted_complex(cc, rep).poincare_self_dual
    assert build_twisted_complex(cc, rep, grams=[None] * 4).poincare_self_dual
    assert not build_twisted_complex(cc, rep, grams=grams).poincare_self_dual
    assert build_twisted_complex(cc, rep, grams=grams,
                                 poincare_self_dual=True).poincare_self_dual
    # a file's declaration covers its Gram blocks and survives a round trip
    path, again = tmp_path / "declared.cplx", tmp_path / "again.cplx"
    write_complex_file(path, cc, rep, grams, self_dual=True)
    cc2, rep2, grams2 = read_complex_file(path)
    assert cc2.self_dual
    write_complex_file(again, cc2, rep2, grams2, self_dual=cc2.self_dual)
    assert again.read_text() == path.read_text()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 12, 40])
def test_stacked_phase_fixed_qr_is_haar_unitary(n):
    rng = np.random.default_rng(n)
    lone = [phase_fixed_qr(ginibre(rng, n)) for _ in range(4)]
    state = rng.bit_generator.state
    rng = np.random.default_rng(n)
    stacked = phase_fixed_qr(np.stack([ginibre(rng, n) for _ in range(4)]))
    assert rng.bit_generator.state == state
    assert stacked.shape == (4, n, n)
    for got, want in zip(stacked, lone):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [SEED, SEED + 1, SEED + 2])
def test_batched_random_complexes_are_the_lone_draws(seed):
    rng = np.random.default_rng(seed)
    batch = _random_complexes(100, rng)
    state = rng.bit_generator.state
    rng = np.random.default_rng(seed)
    for tc in batch:
        top, rank = int(rng.integers(2, 6)), int(rng.integers(1, 3))
        lone = random_twisted_complex(rng, top_degree=top, max_cells=6, rank=rank)
        assert len(tc.diffs) == len(lone.diffs) == top
        for got, want in zip(tc.diffs, lone.diffs):
            assert np.array_equal(got, want)
    assert rng.bit_generator.state == state


# -- the per-matrix reference of the factorisations ---------------------------
# The complex layer as it read when a lone complex factorised each matrix on
# its own: one values-only SVD per differential, one eigvalsh per Laplacian,
# and each of Schwarz's blocks and relation (1)'s d_k* alone.  The package
# now groups the matrices of one complex, as of a batch, by shape, so these
# loops are the reference that its stacked calls must match bit for bit.


def _ref_log_sum(x):
    return float(np.sum(np.log(x)))


def _ref_top_sq(svals, count):
    s = -np.sort(-np.concatenate(svals))
    return 2.0 * _ref_log_sum(s[:count])


def _ref_record(tc):
    svals = [np.linalg.svd(d, compute_uv=False) for d in tc.diffs]
    ranks = tuple(int(np.count_nonzero(complexes.nonzero_mask(v))) for v in svals)
    coexact = tuple(2.0 * _ref_log_sum(v[:r]) for v, r in zip(svals, ranks))
    kept = [a + b for a, b in zip((0,) + ranks, ranks + (0,))]
    lap = tuple(_ref_log_sum(np.linalg.eigvalsh(tc.laplacian(k))[n - c:])
                for k, (n, c) in enumerate(zip(tc.dims, kept)))
    return ranks, coexact, lap


def _ref_schwarz(tc, ranks, coexact):
    d, n = tc.diffs, tc.top_degree
    if n == 1:
        return math.exp(0.5 * coexact[0])
    t = np.sort(np.concatenate([np.linalg.eigvalsh(d[1].conj().T @ d[1]),
                                np.linalg.eigvalsh(np.conj(d[1]) @ d[1].T)]))
    log_z = -0.25 * _ref_log_sum(t[len(t) - 2 * ranks[1]:])
    towers = [((d[0], d[2].T), ranks[0] + ranks[2]) if n >= 3 else ((d[0],), ranks[0])]
    towers += [((d[k + 1].T,), ranks[k + 1]) for k in range(2, n - 1)]
    for k, (blocks, rank) in enumerate(towers, start=1):
        log_z += 0.5 * (-1) ** (k + 1) * _ref_top_sq(
            [np.linalg.svd(b, compute_uv=False) for b in blocks], rank)
    return math.exp(log_z)


def _reference_hex(tc):
    """(record, Schwarz value, relations report) of ``tc`` in ``float.hex``,
    from the per-matrix reference."""
    ranks, ell, lap = _ref_record(tc)
    res1 = max((abs(_ref_top_sq([np.linalg.svd(d.conj().T, compute_uv=False)], r) - e)
                for d, r, e in zip(tc.diffs, ranks, ell)), default=0.0)
    ends = (0.0,) + ell + (0.0,)
    res3 = max((abs(x - (ends[k] + ends[k + 1])) for k, x in enumerate(lap)), default=0.0)
    return ((ranks, [x.hex() for x in ell + lap]),
            _ref_schwarz(tc, ranks, ell).hex(),
            [x.hex() for x in (res1, res3) + ell])


def _package_hex(tcs, batch):
    """What ``_reference_hex`` gives, from the package: as batches, or as
    lone calls, one complex at a time."""
    if batch:
        zs, reports = schwarz_partitions(tcs), det_relations_reports(tcs)
    else:
        zs = [schwarz_partition(tc) for tc in tcs]
        reports = [det_relations_report(tc) for tc in tcs]
    out = []
    for tc, z, rep in zip(tcs, zs, reports):
        spec = tc.spectrum
        out.append(((spec.ranks, [x.hex() for x in spec.coexact_logdets + spec.laplacian_logdets]),
                    z.hex(),
                    [x.hex() for x in (rep.relation1, rep.relation3) + rep.coexact_logdets]))
    return out


@pytest.mark.parametrize("seed", [SEED, SEED + 1])
def test_batches_are_the_lone_calls_bit_for_bit(seed):
    # criteria 6 and 7's batches, and lone calls on fresh copies, against the
    # per-matrix reference
    tcs = _random_complexes(100, np.random.default_rng(seed))
    assert all("spectrum" in vars(tc) for tc in tcs)      # filled by the draw
    want = [_reference_hex(tc) for tc in tcs]
    assert _package_hex(tcs, batch=True) == want
    assert _package_hex([TwistedComplex(tc.diffs) for tc in tcs], batch=False) == want
    # a batch that fills the records itself reads the same bits
    assert _package_hex([TwistedComplex(tc.diffs) for tc in tcs], batch=True) == want


@pytest.mark.parametrize("make", [
    lambda: mapping_torus_complex(CAT, 2.0),
    lambda: _cat_rank_twist(4, np.random.default_rng(4)),
], ids=["cat_theta_2", "cat_rank_4"])
def test_a_lone_complex_stacks_its_same_shape_matrices_bit_for_bit(make):
    # dims (r, 3r, 3r, r): the two 3r x 3r Laplacians, the two 3r x 3r blocks
    # of T^2, and T_1's blocks d_0 and d_2^T (both 3r x r) share stacked calls
    tc = make()
    r = tc.dims[0]
    assert tc.dims == (r, 3 * r, 3 * r, r)
    assert _package_hex([tc], batch=False) == [_reference_hex(tc)]


@pytest.mark.parametrize("batch", [schwarz_partitions, det_relations_reports])
def test_a_batch_raises_at_its_first_non_acyclic_complex(batch):
    tcs = _random_complexes(6, np.random.default_rng(3))
    middle = tcs[:3] + [circle_complex(0.0)] + tcs[3:] + [torus_complex(0.0, 0.0)]
    with pytest.raises(NotAcyclicError) as err:
        batch(middle)
    assert err.value.betti == (1, 1)


def test_a_schwarz_batch_raises_what_its_first_failing_complex_raises():
    # as the lone loop stops there: a cross-check failure before a
    # non-acyclic complex, or the NotAcyclicError before a cross-check
    tcs = _random_complexes(2, np.random.default_rng(3))
    with np.errstate(invalid="ignore"):
        with pytest.raises(ZetaBFError, match="schwarz route"):
            schwarz_partitions(tcs + [_split_scale_complex(1e4), circle_complex(0.0)])
        with pytest.raises(NotAcyclicError):
            schwarz_partitions(tcs + [circle_complex(0.0), _split_scale_complex(1e4)])


def test_a_top_degree_one_complex_in_a_batch_takes_the_one_degree_branch():
    tcs = _random_complexes(4, np.random.default_rng(4))
    circle = circle_complex(2.0)
    got = schwarz_partitions(tcs[:2] + [circle] + tcs[2:])
    assert got[2] == math.exp(0.5 * circle.spectrum.coexact_logdets[0])
    assert got[2] == pytest.approx(circle_torsion_oracle(2.0), rel=1e-14)
    assert [z.hex() for z in got] == \
        [schwarz_partition(TwistedComplex(tc.diffs)).hex() for tc in tcs[:2] + [circle] + tcs[2:]]


def test_an_empty_batch_gives_no_values():
    assert schwarz_partitions([]) == []
    assert det_relations_reports([]) == []
    assert complexes.random_twisted_complexes(
        np.random.default_rng(0), 0, lambda r: (2, 3, 1)) == []


@pytest.mark.parametrize("n", [0, 1, 2, 7, 120])
def test_ginibre_is_the_sum_of_its_two_draws(n):
    # the reference: real part plus 1j times imaginary part, drawn in that order
    rng, ref = np.random.default_rng(n), np.random.default_rng(n)
    for _ in range(3):
        assert np.array_equal(ginibre(rng, n),
                              ref.normal(size=(n, n)) + 1j * ref.normal(size=(n, n)))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_bad_labelling_raises():
    # integer incidence closes (both d0 entries augment to zero) but the
    # labelled twist does not: d1 d0 = rho(a)(rho(a)-1) + rho(b)(rho(b)-1)
    bad = CellComplex(
        counts=(1, 2, 1),
        coboundaries=(
            (
                (((1, (1,)), (-1, ())),),
                (((1, (2,)), (-1, ())),),
            ),
            (
                (((1, (1,)),), ((1, (2,)),)),
            ),
        ),
        generators=("a", "b"),
    )
    rep = character_rep({"a": 1j, "b": -1.0})
    with pytest.raises(NotAComplexError):
        build_twisted_complex(bad, rep)


# the circle's one entry g - 1 with the letter of a second generator
_OFF_LETTER_ENTRY = ((1, (2,)), (-1, ()))


@pytest.mark.parametrize("change, message", [
    ({"suspension": ((), ((5, 0),))}, "Reeb pairs"),
    ({"relators": ((3,),)}, "letter outside"),
    ({"coboundaries": (((_OFF_LETTER_ENTRY,),),)}, "letter outside"),
    ({"generators": ("g", "g")}, "repeated generator"),
], ids=["reeb-cell", "relator-letter", "entry-letter", "repeated-generator"])
def test_cell_complex_checks_its_indices(change, message):
    # each used to build, then end in a bare IndexError or KeyError, or not at all
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(circle_cell_complex(), **change)


@pytest.mark.parametrize("images", [{"h": 1j}, {"g": -1.0, "h": 1j}],
                         ids=["missing", "extra"])
def test_build_refuses_a_rep_not_matching_the_generators(images):
    # a missing image used to raise a bare KeyError, an extra one was ignored
    with pytest.raises(ValueError, match="generators"):
        build_twisted_complex(circle_cell_complex(), character_rep(images))


def test_relator_violation():
    cc = torus_cell_complex()
    rep = character_rep({"a": 1j, "b": 1.0})
    noncommuting = rep.images | {
        "a": np.array([[0, 1], [1, 0]], dtype=complex),
        "b": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    from zetabf.complexes import UnitaryRep
    bad_rep = UnitaryRep(2, {"a": noncommuting["a"], "b": noncommuting["b"]})
    with pytest.raises(RelatorViolationError):
        build_twisted_complex(cc, bad_rep)


def test_d_squared_invariant():
    rng = np.random.default_rng(8)
    for _ in range(10):
        tc = random_twisted_complex(rng, top_degree=int(rng.integers(2, 6)),
                                    max_cells=6, rank=int(rng.integers(1, 3)))
        scale = max(np.linalg.norm(d) for d in tc.diffs)
        for k in range(len(tc.diffs) - 1):
            assert np.linalg.norm(tc.diffs[k + 1] @ tc.diffs[k]) < 1e-12 * scale ** 2


def test_complex_file_roundtrip_bit_exact(tmp_path):
    cc = torus_cell_complex()
    rep = character_rep({"a": cmath.exp(0.3j), "b": cmath.exp(-1.1j)})
    path = tmp_path / "torus.cplx"
    write_complex_file(path, cc, rep)
    cc2, rep2, grams = read_complex_file(path)
    path2 = tmp_path / "torus2.cplx"
    write_complex_file(path2, cc2, rep2, grams)
    assert path.read_bytes() == path2.read_bytes()
    tc1 = build_twisted_complex(cc, rep)
    tc2 = build_twisted_complex(cc2, rep2)
    for d1, d2 in zip(tc1.diffs, tc2.diffs):
        assert np.array_equal(d1, d2)


@pytest.mark.parametrize("r", [1, 2])
def test_complex_file_keeps_the_reeb_pairs(tmp_path, r):
    # one reeb line per degree 1..N, read back into the cell complex, which
    # carries them into the twist at its rank
    cc = mapping_torus_cell_complex([[2, 1], [1, 1]])
    eye = np.eye(r)
    rep = UnitaryRep(r, {"a": eye, "b": eye, "t": np.exp(0.7j) * eye})
    path = tmp_path / "cat.cplx"
    write_complex_file(path, cc, rep)
    lines = path.read_text().splitlines()
    assert [line for line in lines if line.startswith("reeb ")] == \
        ["reeb 1 2:0", "reeb 2 1:0 2:1", "reeb 3 0:0"]
    cc2, rep2, grams = read_complex_file(path)
    assert cc2.suspension == cc.suspension
    assert build_twisted_complex(cc2, rep2).suspension == build_twisted_complex(cc, rep).suspension
    again = tmp_path / "again.cplx"
    write_complex_file(again, cc2, rep2, grams)
    assert again.read_bytes() == path.read_bytes()
    # without reeb lines there is no suspension; a missing degree holds no pairs
    del lines[lines.index("reeb 1 2:0")]
    path.write_text("\n".join(lines) + "\n")
    assert read_complex_file(path)[0].suspension == ((), (), ((1, 0), (2, 1)), ((0, 0),))
    golden = Path(__file__).parent / "golden" / "cat_gram.cplx"
    assert read_complex_file(golden)[0].suspension is None


def test_complex_file_label_lines_are_checked_and_dropped(tmp_path):
    # the generators line names the generators; label lines only repeat it
    golden = Path(__file__).parent / "golden" / "cat_gram.cplx"
    cc, rep, grams = read_complex_file(golden)
    path = tmp_path / "cat_gram.cplx"
    write_complex_file(path, cc, rep, grams)
    lines = golden.read_text().splitlines()
    assert any(line.startswith("label ") for line in lines)
    assert path.read_text().splitlines() == [line for line in lines
                                             if not line.startswith("label ")]
    tc1 = build_twisted_complex(cc, rep, grams=grams)
    tc2 = build_twisted_complex(*read_complex_file(path))
    for d1, d2 in zip(tc1.diffs, tc2.diffs, strict=True):
        assert np.array_equal(d1, d2)


def test_complex_file_with_gram_roundtrip(tmp_path):
    cc = circle_cell_complex()
    rep = character_rep({"g": cmath.exp(1j * math.pi)})
    grams = [np.array([[2.0]]), None]
    path = tmp_path / "circle.cplx"
    write_complex_file(path, cc, rep, grams)
    cc2, rep2, grams2 = read_complex_file(path)
    assert grams2[0][0, 0] == 2.0
    assert grams2[1] is None


def test_complex_file_parse_errors(tmp_path):
    path = tmp_path / "bad.cplx"
    path.write_text("complex top=1 rank=1\ncounts 1 1\ngenerators g\n"
                    "boundary 0\n  +1*h -1*1\nrep g\n  1,0\n")
    with pytest.raises(ParseError) as err:
        read_complex_file(path)
    assert "unknown generator" in str(err.value)
    path.write_text("nonsense\n")
    with pytest.raises(ParseError):
        read_complex_file(path)


# -- the linear-time walk -----------------------------------------------------


def _prefix_by_prefix(cc, rep):
    """The differentials with every term's prefix multiplied out alone from
    the identity, in the order reduce(np.matmul, ..., eye) takes."""
    letters = {}
    for i, name in enumerate(cc.generators, start=1):
        letters[i], letters[-i] = rep.images[name], rep.images[name].conj().T
    r = rep.rank
    diffs = []
    for k, block in enumerate(cc.coboundaries):
        d = np.zeros((cc.counts[k + 1] * r, cc.counts[k] * r), dtype=complex)
        for i, row in enumerate(block):
            for j, entry in enumerate(row):
                acc = np.zeros((r, r), dtype=complex)
                for coeff, word, cut in entry:
                    acc += coeff * reduce(np.matmul, (letters[x] for x in word[:cut]),
                                          np.eye(r, dtype=complex))
                d[i * r:(i + 1) * r, j * r:(j + 1) * r] = acc
        diffs.append(d)
    return diffs


def _float_hex(d):
    """Every entry's real and imaginary parts as float hex: signed zeros differ."""
    return [(float(z.real).hex(), float(z.imag).hex()) for z in np.ravel(d)]


def _rank_three_cat_twist():
    rng = np.random.default_rng(3)
    q = phase_fixed_qr(ginibre(rng, 3))
    u = (q * np.exp(1j * rng.uniform(0.3, 6.0, size=3))) @ q.conj().T
    return (mapping_torus_cell_complex([[2, 1], [1, 1]]),
            UnitaryRep(3, {"a": np.eye(3), "b": np.eye(3), "t": u}))


def _theta_twist(a, theta):
    return (mapping_torus_cell_complex(a),
            character_rep({"a": 1.0, "b": 1.0, "t": cmath.exp(1j * theta)}))


WALK_CASES = {
    "cat": lambda: _theta_twist([[2, 1], [1, 1]], 2.0),
    "det-minus-one": lambda: _theta_twist([[3, 1], [1, 0]], 0.9),
    "negative-trace": lambda: _theta_twist([[-4, -1], [-3, -1]], 1e-6),
    "rank-3": _rank_three_cat_twist,
    "n300": lambda: _theta_twist([[300, 1], [299, 1]], 1.0),
    "cat-gram-file": lambda: read_complex_file(
        Path(__file__).parent / "golden" / "cat_gram.cplx")[:2],
}


@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_walk_matches_prefix_by_prefix_products_bit_for_bit(case):
    cc, rep = WALK_CASES[case]()
    got = build_twisted_complex(cc, rep).diffs
    want = _prefix_by_prefix(cc, rep)
    assert [_float_hex(d) for d in got] == [_float_hex(d) for d in want]


class _CountingNumpy:
    """numpy, with its matmul calls counted."""

    def __init__(self):
        self.products = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b):
        self.products += 1
        return np.matmul(a, b)


def test_walk_forms_linearly_many_products(monkeypatch):
    # one r x r product per letter walked: r_a = t a t' (a^n b^(n-1))^-1 is
    # 2n + 2 letters long, so the count is 2n + const; prefix by prefix it
    # was quadratic in n
    counts = {}
    for n in (10, 100, 1000):
        cc = mapping_torus_cell_complex([[n, 1], [n - 1, 1]])
        rep = character_rep({"a": 1.0, "b": 1.0, "t": cmath.exp(1j)})
        counter = _CountingNumpy()
        monkeypatch.setattr(complexes, "np", counter)
        build_twisted_complex(cc, rep)
        monkeypatch.undo()
        counts[n] = counter.products
    assert counts[100] - counts[10] == 2 * 90
    assert counts[1000] - counts[100] == 2 * 900


def test_large_entry_torus_keeps_its_coexact_torsion():
    # the n = 1000 build took seconds prefix by prefix; the coexact route
    # meets the cohomological oracle, the Laplacian route reads 4.2e-10 off
    a = [[1000, 1], [999, 1]]
    tc = mapping_torus_complex(a, 1.0)
    coexact = torsion_routes(tc)[1]
    assert coexact * milnor_mapping_torus_torsion(a, 1.0) == pytest.approx(1.0, abs=1e-12)
    try:
        assert analytic_torsion(tc) == coexact
    except ZetaBFError as exc:
        assert "cross-check" in str(exc)


def test_mapping_torus_cells_are_shared_per_matrix():
    cc = mapping_torus_cell_complex([[2, 1], [1, 1]])
    assert mapping_torus_cell_complex(np.array([[2, 1], [1, 1]])) is cc
    assert mapping_torus_cell_complex([[3, 1], [2, 1]]) is not cc
    with pytest.raises(dataclasses.FrozenInstanceError):
        cc.name = "renamed"
    # every Fox term of a relator holds the relator itself
    r_a = cc.relators[1]
    assert all(w is r_a for entry in cc.coboundaries[1][1] for _, w, _ in entry)


def test_plain_terms_read_their_whole_word():
    entry = ((1, (1,), 1), (-1, (), 0))
    assert circle_cell_complex().coboundaries == (((entry,),),)
    for term, message in (((1, (1,), 2), "cuts its word"), ((1, (1,), 1, 0), "a term is")):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(circle_cell_complex(),
                                coboundaries=((((term, (-1, (), 0)),),),))
