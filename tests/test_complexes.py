"""Twisted complex assembly, torsion routes, Schwarz resolution, file format."""

import cmath
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
    det_relations_report,
    mapping_torus_complex,
    random_twisted_complex,
    read_complex_file,
    schwarz_partition,
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
    assert analytic_torsion(tc, sign=-1) == pytest.approx(5.0 / 4.0, rel=1e-12)
    # the cohomological oracle gives the reciprocal normalisation
    assert milnor_oracle([[2, 1], [1, 1]], math.pi) == pytest.approx(1.25)
    assert tau * milnor_oracle([[2, 1], [1, 1]], math.pi) == pytest.approx(1.0, rel=1e-12)


def test_mapping_torus_torsion_quarter_turn():
    a = [[2, 1], [1, 1]]
    tc = mapping_torus_complex(a, math.pi / 2)
    assert analytic_torsion(tc, sign=-1) == pytest.approx(
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
