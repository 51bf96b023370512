"""Twisted complex assembly, torsion routes, Schwarz resolution, file format."""

import cmath
import dataclasses
import math
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
    ginibre,
    mapping_torus_cell_complex,
    mapping_torus_complex,
    phase_fixed_qr,
    random_twisted_complex,
    read_complex_file,
    schwarz_partition,
    torsion_routes,
    torus_complex,
    torus_cell_complex,
    write_complex_file,
)
from zetabf.errors import (
    NotAComplexError,
    NotAcyclicError,
    NotHyperbolicError,
    ParseError,
    RelatorViolationError,
)
from zetabf.verification import SEED, _random_complexes


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
