"""BF field spaces, gauge fixing, partition functions, homotopy scans."""

import math
import sys
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from zetabf import bv
from zetabf.bv import (
    ISOTROPY_TOL,
    TRANSVERSALITY_TOL,
    BFField,
    Contraction,
    LagrangianReport,
    build_bf_fields,
    contraction_gauge,
    gauge_polarization,
    hodge_contraction,
    homotopy_scan,
    is_lagrangian,
    metric_gauge,
    partition_function,
    random_contraction,
    restricted_action_blocks,
    suspension_contraction,
    unitary_contraction_family,
)
from zetabf.complexes import (
    TwistedComplex,
    UnitaryRep,
    analytic_torsion,
    build_twisted_complex,
    circle_complex,
    ginibre,
    mapping_torus_cell_complex,
    mapping_torus_complex,
    nonzero_mask,
    phase_fixed_qr,
    random_twisted_complex,
    schwarz_partition,
    torus_complex,
)
from zetabf.errors import (
    DegenerateContractionError,
    DegenerateGaugeError,
    NotAcyclicError,
)
from zetabf.graded import exp_stack
from zetabf.orbits import ToralAutomorphism
from zetabf.verification import SEED, _random_complexes, milnor_mapping_torus_torsion
from zetabf.zeta import closed_form_suspension

CAT = [[2, 1], [1, 1]]


def _svd_splits(iota):
    """(orthonormal basis of ker(iota_k), of its orthogonal complement) per
    degree k, found by SVD: the reference for the splits the constructors
    hand over.  The kernel comes from one SVD of iota_k, cut by
    ``nonzero_mask``, the complement from one SVD of that kernel basis, with
    no SVD where the kernel is all of C^k or empty.  A stack's members must
    share their kernel ranks; the first that does not is refused."""
    lead = np.shape(iota[0])[:-2]
    splits = []
    for k, m in enumerate(iota):
        d = m.shape[-1]
        identity = np.broadcast_to(np.eye(d), lead + (d, d))
        if m.shape[-2] == 0:
            ker = identity
        else:
            _, s, vh = np.linalg.svd(m, full_matrices=True)
            ranks = nonzero_mask(s).sum(axis=-1)
            rank = int(np.ravel(ranks)[0])
            bv._refuse(ranks != rank, f"rank of iota changes across the stack at degree {k}")
            ker = bv._adjoint(vh[..., rank:, :])
        if ker.shape[-1] == 0:
            perp = identity
        elif ker.shape[-1] == d:
            perp = ker[..., :0]
        else:
            perp = np.linalg.svd(ker, full_matrices=True)[0][..., ker.shape[-1]:]
        splits.append((ker, perp))
    return splits


def _svd_contraction(iota):
    """The contraction of ``iota`` with its kernel splits found by SVD."""
    return Contraction(iota, _svd_splits(iota))


def _zero_field(fs):
    return BFField(tuple(np.zeros(d, dtype=complex) for d in fs.dims),
                   tuple(np.zeros(d, dtype=complex) for d in fs.dims))


def _random_field(fs, rng):
    def rand(d):
        return rng.normal(size=d) + 1j * rng.normal(size=d)
    return BFField(tuple(rand(d) for d in fs.dims), tuple(rand(d) for d in fs.dims))


def _stacked(fs, fields):
    """The fields as the columns of one stacked field."""
    return BFField(tuple(np.column_stack([f.a[k] for f in fields]) for k in range(fs.n + 1)),
                   tuple(np.column_stack([f.b[k] for f in fields]) for k in range(fs.n + 1)))


def test_field_space_degrees_circle():
    fs = build_bf_fields(circle_complex(math.pi))
    assert fs.dims == (1, 1)
    assert fs.a_degrees == (1, 0)


def test_field_space_requires_acyclic():
    with pytest.raises(NotAcyclicError):
        build_bf_fields(circle_complex(0.0))


def test_metric_gauge_circle_line():
    tc = circle_complex(math.pi)
    fs = build_bf_fields(tc)
    gs = metric_gauge(fs)
    assert gs.a_bases[0].shape == (1, 1)    # coexact line in C^0
    assert gs.b_bases[1].shape == (1, 1)
    rep = is_lagrangian(fs, gs)
    assert rep.ok and rep.isotropy < 1e-12


def test_metric_gauge_restricted_action_is_dstar_d():
    tc = mapping_torus_complex(CAT, math.pi)
    fs = build_bf_fields(tc)
    gs = metric_gauge(fs)
    blocks = restricted_action_blocks(fs, gs)
    for k, m in enumerate(blocks):
        if m.size == 0:
            continue
        coex = gs.a_bases[k]
        target = coex.conj().T @ (fs.base.diffs[k].conj().T @ (fs.base.diffs[k] @ coex))
        assert np.allclose(m, target, atol=1e-12)


def test_metric_gauge_isotropy_random():
    rng = np.random.default_rng(2)
    for _ in range(5):
        tc = random_twisted_complex(rng, top_degree=int(rng.integers(2, 5)),
                                    max_cells=4, rank=1)
        fs = build_bf_fields(tc)
        rep = is_lagrangian(fs, metric_gauge(fs))
        assert rep.ok
        assert rep.isotropy < 1e-12


def test_contraction_gauge_unit_scalar_circle():
    tc = circle_complex(math.pi)
    fs = build_bf_fields(tc)
    c = _svd_contraction([np.zeros((0, 1)), np.array([[1.0 + 0.0j]])])
    gs = contraction_gauge(fs, c)
    assert is_lagrangian(fs, gs).ok
    assert partition_function(fs, gs) == pytest.approx(2.0, rel=1e-12)


def test_hodge_contraction_structure():
    rng = np.random.default_rng(3)
    tc = random_twisted_complex(rng, top_degree=4, max_cells=4, rank=1)
    c = hodge_contraction(tc)
    scale = max(np.linalg.norm(m) for m in c.iota if m.size)
    for k in range(1, tc.top_degree):
        assert np.linalg.norm(c.iota[k] @ c.iota[k + 1]) < 1e-12 * scale ** 2
    # iota o a = id on ker iota and L = iota d is positive there
    for k in range(tc.top_degree):
        ker = c.splits[k][0]
        if ker.shape[1] == 0:
            continue
        assert np.linalg.norm(c.iota[k + 1] @ (c.a_maps[k] @ ker) - ker) < 1e-12


def test_contraction_gauge_isotropy_random():
    rng = np.random.default_rng(4)
    for _ in range(5):
        tc = random_twisted_complex(rng, top_degree=int(rng.integers(2, 5)),
                                    max_cells=4, rank=1)
        fs = build_bf_fields(tc)
        c = random_contraction(tc, rng)
        rep = is_lagrangian(fs, contraction_gauge(fs, c))
        assert rep.ok
        assert rep.isotropy < 1e-12


def _single_fields(fs, a_bases, b_bases):
    """Basis columns as separate fields, A columns first, then B."""
    out = []
    for side, bases in (("a", a_bases), ("b", b_bases)):
        for k, mat in enumerate(bases):
            for j in range(mat.shape[1]):
                f = _zero_field(fs)
                getattr(f, side)[k][:] = mat[:, j]
                out.append(f)
    return out


def _reference_report(fs, gs):
    """LagrangianReport from the single-field pairings: the basis columns as
    single fields, stacked, in one ``omega`` call per side and one across
    (each entry the dot products of its own pair of single fields)."""
    sub = _single_fields(fs, gs.a_bases, gs.b_bases)
    comp = _single_fields(fs, [np.conj(b) for b in gs.b_bases],
                          [np.conj(a) for a in gs.a_bases])
    # the declared complement is the side swap: it has as many columns
    assert len(sub) == len(comp)
    if sub:
        sub, comp = _stacked(fs, sub), _stacked(fs, comp)
        iso_sub, iso_comp = (_max_modulus_upper(fs.omega(f, f)) for f in (sub, comp))
        cross = fs.omega(sub, comp)
        min_sv = float(np.linalg.svd(cross, compute_uv=False)[-1])
    else:
        iso_sub = iso_comp = 0.0
        min_sv = np.inf
    # the side swap's isotropy is the subspace's, bit for bit
    assert iso_sub == iso_comp
    half = all(a.shape[1] + b.shape[1] == d for a, b, d in zip(gs.a_bases, gs.b_bases, fs.dims))
    ok = half and iso_sub < ISOTROPY_TOL and min_sv > TRANSVERSALITY_TOL
    return LagrangianReport(ok, iso_sub, min_sv)


# ``is_lagrangian`` reads the cross pairing's singular values off the per-slot
# Grams a_k^H a_k and b_k^H b_k, the reference off the full cross Gram matrix
# of single-field pairings: the same entries, each a length-d_k dot product
# summed in another order, so the two differ by rounding of the order of one
# such dot product of unit columns, d_k eps.  The largest difference seen on
# the gauges below is 0.5 eps max_k d_k; the bound allows twice that.
CROSS_PAIRING_ROUNDING = 1.0


def _assert_matches_reference(fs, gs):
    """ok and isotropy exactly as the reference gives them, the cross
    pairing's smallest singular value within CROSS_PAIRING_ROUNDING."""
    rep, ref = is_lagrangian(fs, gs), _reference_report(fs, gs)
    assert (rep.ok, rep.isotropy) == (ref.ok, ref.isotropy)
    bound = CROSS_PAIRING_ROUNDING * np.finfo(float).eps * max(fs.dims)
    assert abs(rep.cross_pairing_min_sv - ref.cross_pairing_min_sv) <= \
        bound * ref.cross_pairing_min_sv
    return rep


def _skewed(fs, c):
    """Contraction gauge deliberately skewed: B side set to conj(ker iota)
    instead of the annihilator."""
    gs = contraction_gauge(fs, c)
    for k in range(fs.n + 1):
        gs.b_bases[k] = np.conj(c.splits[k][0])
    return gs


def test_skewed_subspace_is_not_lagrangian():
    tc = mapping_torus_complex(CAT, math.pi)
    fs = build_bf_fields(tc)
    gs = _skewed(fs, hodge_contraction(tc))
    rep = _assert_matches_reference(fs, gs)
    assert not rep.ok


def _drop_an_a_column(gs):
    k = next(k for k, a in enumerate(gs.a_bases) if a.shape[1])
    gs.a_bases[k] = gs.a_bases[k][:, 1:]
    return k


def _empty_every_basis(gs):
    gs.a_bases = [a[:, :0] for a in gs.a_bases]
    gs.b_bases = [b[:, :0] for b in gs.b_bases]
    return 0


def _drop_the_top_slot(gs):
    gs.a_bases, gs.b_bases = gs.a_bases[:-1], gs.b_bases[:-1]
    return len(gs.a_bases)


def _repeat_a_b_column(gs):
    # d_k + 1 columns in slot k, still isotropic
    k = next(k for k, b in enumerate(gs.b_bases) if b.shape[1])
    gs.b_bases[k] = np.concatenate([gs.b_bases[k], gs.b_bases[k][:, :1]], axis=1)
    return k


@pytest.mark.parametrize("edit", [_drop_an_a_column, _empty_every_basis, _drop_the_top_slot,
                                  _repeat_a_b_column],
                         ids=["a-column-dropped", "all-bases-empty", "top-slot-missing",
                              "slot-overfull"])
def test_a_gauge_that_is_not_half_dimensional_is_not_lagrangian(edit):
    fs = build_bf_fields(mapping_torus_complex(CAT, 2.0))
    gs = metric_gauge(fs)
    k = edit(gs)
    rep = is_lagrangian(fs, gs)
    assert rep.isotropy < ISOTROPY_TOL
    assert not rep.ok
    if edit is not _repeat_a_b_column:
        # only the half-dimension rule refuses these
        assert rep.cross_pairing_min_sv > TRANSVERSALITY_TOL
    with pytest.raises(DegenerateGaugeError, match="not half-dimensional") as err:
        gauge_polarization(fs, gs)
    assert err.value.degree == k


@pytest.mark.parametrize("entry", [is_lagrangian, partition_function, gauge_polarization],
                         ids=["is_lagrangian", "partition_function", "gauge_polarization"])
def test_a_gauge_basis_of_the_wrong_height_is_refused(entry):
    fs = build_bf_fields(mapping_torus_complex(CAT, 2.0))
    gs = metric_gauge(fs)
    a = gs.a_bases[1]
    gs.a_bases[1] = np.concatenate([a, np.zeros((1, a.shape[1]))])
    with pytest.raises(DegenerateGaugeError,
                       match=r"a_bases\[1\] has 4 rows, but slot 1 has dimension 3") as err:
        entry(fs, gs)
    assert err.value.degree == 1


def _cat_rank_twist(r, rng, thetas=None):
    """Cat-map mapping torus twisted by a random rank-r unitary on t
    (dimension 8r), with eigenphases ``thetas``, by default drawn away
    from 0."""
    if thetas is None:
        thetas = rng.uniform(0.3, 2 * math.pi - 0.3, size=r)
    q = phase_fixed_qr(ginibre(rng, r))
    eye = np.eye(r)
    rep = UnitaryRep(r, {"a": eye, "b": eye, "t": (q * np.exp(1j * thetas)) @ q.conj().T})
    return build_twisted_complex(mapping_torus_cell_complex(CAT), rep)


def test_is_lagrangian_matches_single_field_pairings():
    rng = np.random.default_rng(8)
    for _ in range(20):
        tc = random_twisted_complex(rng, top_degree=int(rng.integers(2, 5)),
                                    max_cells=4, rank=int(rng.integers(1, 3)))
        fs = build_bf_fields(tc)
        hodge = hodge_contraction(tc)
        family = unitary_contraction_family(tc, rng)
        gauges = [metric_gauge(fs), contraction_gauge(fs, hodge),
                  contraction_gauge(fs, random_contraction(tc, rng)),
                  contraction_gauge(fs, family(0.6)), _skewed(fs, hodge)]
        for gs in gauges:
            _assert_matches_reference(fs, gs)
    # a rank-30 cat twist: dimension 240, many columns per slot
    tc = _cat_rank_twist(30, rng)
    fs = build_bf_fields(tc)
    assert sum(fs.dims) == 240
    for gs in (metric_gauge(fs), contraction_gauge(fs, hodge_contraction(tc))):
        rep = _assert_matches_reference(fs, gs)
        assert rep.ok


def test_stacked_gauge_is_certified_per_member():
    # each member's report is its lone gauge's, bit for bit
    rng = np.random.default_rng(24)
    for tc in (random_twisted_complex(rng, top_degree=3, max_cells=4, rank=2),
               _cat_rank_twist(3, rng)):
        fs = build_bf_fields(tc)
        state = rng.bit_generator.state
        drawn = random_contraction(tc, rng, samples=3)
        rng.bit_generator.state = state
        lone = [random_contraction(tc, rng) for _ in range(3)]
        family = unitary_contraction_family(tc, rng)
        ts = np.array([0.0, 0.5, 1.0])
        for stack, members in ((drawn, lone), (family(ts), [family(t) for t in ts])):
            rep = is_lagrangian(fs, contraction_gauge(fs, stack))
            assert rep.ok.shape == rep.isotropy.shape == rep.cross_pairing_min_sv.shape == (3,)
            assert rep.ok.all()
            for i, c in enumerate(members):
                want = is_lagrangian(fs, contraction_gauge(fs, c))
                assert rep.ok[i] == want.ok
                assert rep.isotropy[i].hex() == want.isotropy.hex()
                assert rep.cross_pairing_min_sv[i].hex() == want.cross_pairing_min_sv.hex()


def test_is_lagrangian_factorises_one_slot_basis_at_a_time(monkeypatch):
    rng = np.random.default_rng(25)
    tc = _cat_rank_twist(3, rng)
    fs = build_bf_fields(tc)
    gauges = [metric_gauge(fs), contraction_gauge(fs, hodge_contraction(tc)),
              contraction_gauge(fs, random_contraction(tc, rng))]
    shapes = []
    real_svd = np.linalg.svd

    def recording(*args, **kwargs):
        shapes.append(args[0].shape)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    for gs in gauges:
        shapes.clear()
        assert is_lagrangian(fs, gs).ok
        bases = [m for m in gs.a_bases + gs.b_bases if m.shape[1]]
        # one Gram per nonempty basis, none wider than the widest basis
        assert len(shapes) == len(bases)
        assert max(max(s) for s in shapes) <= max(m.shape[1] for m in bases) < sum(fs.dims)


def _projector(basis):
    return basis @ basis.conj().T


def test_metric_gauge_is_hodge_contraction_lagrangian():
    """The metric gauge is the Hodge contraction's Lagrangian with the d*
    parametrisation: same A side in every degree, and both pass the check."""
    rng = np.random.default_rng(10)
    complexes = [random_twisted_complex(rng, top_degree=int(rng.integers(2, 5)),
                                        max_cells=4, rank=int(rng.integers(1, 3)))
                 for _ in range(10)]
    complexes += [mapping_torus_complex(CAT, theta)
                  for theta in (math.pi, 2.0, 0.3, 1e-2, 1e-3)]
    complexes += [_cat_rank_twist(3, rng)]
    for tc in complexes:
        fs = build_bf_fields(tc)
        metric, hodge = metric_gauge(fs), contraction_gauge(fs, hodge_contraction(tc))
        for a_metric, a_hodge in zip(metric.a_bases, hodge.a_bases):
            assert np.linalg.norm(_projector(a_metric) - _projector(a_hodge)) < 1e-12
        assert is_lagrangian(fs, metric).ok
        assert is_lagrangian(fs, hodge).ok


def test_stacked_omega_equals_pairwise():
    rng = np.random.default_rng(9)
    tc = random_twisted_complex(rng, top_degree=3, max_cells=4, rank=2)
    fs = build_bf_fields(tc)
    vs = [_random_field(fs, rng) for _ in range(5)]
    ws = [_random_field(fs, rng) for _ in range(3)]
    pairwise = np.array([[fs.omega(v, w) for w in ws] for v in vs])
    stacked = fs.omega(_stacked(fs, vs), _stacked(fs, ws))
    assert stacked.shape == (5, 3)
    assert np.array_equal(stacked, pairwise)


def test_partition_functions_match_torsion_models():
    for theta in (math.pi, 2 * math.pi / 3):
        tc = mapping_torus_complex(CAT, theta)
        tau = analytic_torsion(tc)
        fs = build_bf_fields(tc)
        zm = partition_function(fs, metric_gauge(fs))
        zc = partition_function(fs, contraction_gauge(fs, hodge_contraction(tc)))
        assert zm == pytest.approx(tau, rel=1e-10)
        assert zc == pytest.approx(tau, rel=1e-10)


def test_partition_function_circle_both_gauges():
    tc = circle_complex(math.pi)
    fs = build_bf_fields(tc)
    assert partition_function(fs, metric_gauge(fs)) == pytest.approx(2.0, rel=1e-12)
    z = partition_function(fs, contraction_gauge(fs, hodge_contraction(tc)))
    assert z == pytest.approx(2.0, rel=1e-12)


def test_contraction_gauge_lagrangian_on_mapping_torus():
    tc = mapping_torus_complex(CAT, 2 * math.pi / 3)
    fs = build_bf_fields(tc)
    gs = contraction_gauge(fs, suspension_contraction(tc))
    rep = is_lagrangian(fs, gs)
    assert rep.ok
    assert rep.cross_pairing_min_sv > 1e-8


@pytest.mark.parametrize("tc", [circle_complex(math.pi),
                                torus_complex(1.0, 0.5),
                                random_twisted_complex(np.random.default_rng(3))],
                         ids=["circle", "torus", "random"])
def test_suspension_contraction_needs_a_suspension(tc):
    assert tc.suspension is None
    with pytest.raises(DegenerateContractionError, match="suspension"):
        suspension_contraction(tc)


def test_suspension_contraction_reproduces_zeta_blocks():
    tc = mapping_torus_complex(CAT, math.pi)
    fs = build_bf_fields(tc)
    c = suspension_contraction(tc)
    # the restricted action blocks are L = iota d + d iota on ker iota
    dets = [abs(np.linalg.det(m))
            for m in restricted_action_blocks(fs, contraction_gauge(fs, c))]
    zs = closed_form_suspension(ToralAutomorphism(2, 1, 1, 1), math.pi, 0.0)
    assert dets[0] == pytest.approx(abs(zs.zeta0), rel=1e-12)
    assert dets[1] == pytest.approx(abs(zs.zeta1), rel=1e-12)
    assert dets[2] == pytest.approx(abs(zs.zeta2), rel=1e-12)
    z = partition_function(fs, contraction_gauge(fs, c))
    assert z == pytest.approx(abs(zs.full) ** (-1), rel=1e-10)


# the cat complex's Reeb pairs at rank r: cell i spans indices i*r .. i*r + r - 1
REEB_PAIRS = {
    1: ((), ((2, 0),), ((1, 0), (2, 1)), ((0, 0),)),
    3: ((), ((6, 0), (7, 1), (8, 2)),
        ((3, 0), (4, 1), (5, 2), (6, 3), (7, 4), (8, 5)), ((0, 0), (1, 1), (2, 2))),
}


@pytest.mark.parametrize("r", [1, 3])
def test_rank_r_twist_has_a_reeb_gauge_with_the_zeta_factors(r):
    # a twist built from the cell complex carries its Reeb pairs at any rank:
    # Z = tau, and per degree |det L_k| = prod_j |zeta_k(theta_j)(0)|
    rng = np.random.default_rng(40 + r)
    thetas = rng.uniform(0.3, 2 * math.pi - 0.3, size=r)
    q = phase_fixed_qr(ginibre(rng, r))
    eye = np.eye(r)
    rep = UnitaryRep(r, {"t": (q * np.exp(1j * thetas)) @ q.conj().T, "a": eye, "b": eye})
    tc = build_twisted_complex(mapping_torus_cell_complex(CAT), rep)
    assert tc.suspension == REEB_PAIRS[r]
    fs = build_bf_fields(tc)
    gs = contraction_gauge(fs, suspension_contraction(tc))
    assert abs(partition_function(fs, gs) / analytic_torsion(tc) - 1.0) < 1e-12
    zs = [closed_form_suspension(ToralAutomorphism(2, 1, 1, 1), t, 0.0) for t in thetas]
    for k, m in enumerate(restricted_action_blocks(fs, gs)):
        want = math.prod(abs((z.zeta0, z.zeta1, z.zeta2)[k]) for z in zs)
        assert abs(abs(np.linalg.det(m)) / want - 1.0) < 1e-12


def test_non_coisometric_contraction_is_refused():
    # |iota| != 1: outside the unitary-normalised class the declared Jacobian 1
    # would not match the parametrisation volume (with a = iota^-1, Z on the
    # circle read 1 against the torsion 2), so iota iota^dagger = 4 on
    # ker iota_0 = C^1 is refused: iota is not isometric on ker iota_1's
    # complement, a check that runs before iota o a = id
    with pytest.raises(DegenerateContractionError, match="not isometric on the kernel complement"):
        _svd_contraction([np.zeros((0, 1)), np.array([[2.0 + 0.0j]])])


@pytest.mark.parametrize("iota", [
    [np.zeros((0, 1)), np.array([[math.sqrt(2)]])],        # iota o a = 2 on C^1
    [np.zeros((0, 2)), np.array([[1.0]])],                  # iota_1 out of C^1, not C^2
    [np.zeros((0, 1)), np.array([[1.0, 0.0]]), np.array([[1.0], [0.0]])],   # iota^2 != 0
], ids=["not-coisometric", "shapes-do-not-chain", "not-square-zero"])
def test_contraction_validates_on_construction(iota):
    with pytest.raises(DegenerateContractionError):
        _svd_contraction(iota)


def test_contraction_gauge_rejects_mismatched_dims():
    # a valid contraction of C^2 -> C^2 offered to the (1, 1) circle space:
    # the arity matches, the shapes do not
    fs = build_bf_fields(circle_complex(math.pi))
    c = _svd_contraction([np.zeros((0, 2)), np.eye(2)])
    with pytest.raises(DegenerateContractionError):
        contraction_gauge(fs, c)


def test_contraction_validated_once(monkeypatch):
    calls = []
    validate = Contraction._validate

    def counting(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(Contraction, "_validate", counting)
    tc = mapping_torus_complex(CAT, math.pi)
    fs = build_bf_fields(tc)
    z = partition_function(fs, contraction_gauge(fs, hodge_contraction(tc)))
    assert z == pytest.approx(analytic_torsion(tc), rel=1e-10)
    assert len(calls) == 1


def test_contraction_gauge_degeneracy_is_the_rank_cut():
    # at phi = 3 pi/4 + delta the rotating family's action block is
    # cos(phi) + sin(phi) = -sqrt(2) sin(delta): 5e-10 sits below
    # RANK_TOL * max(5e-10, 1), 2e-9 above it, where Z is the torsion
    fs = _rotating_fields()
    for block in (5e-10, 2e-9):
        gs = contraction_gauge(fs, _rotating_family(
            0.75 + math.asin(block / math.sqrt(2)) / math.pi))
        assert abs(restricted_action_blocks(fs, gs)[0][0, 0]) == pytest.approx(block, rel=1e-6)
        if block < 1e-9:
            with pytest.raises(DegenerateContractionError) as err:
                partition_function(fs, gs)
            assert err.value.degree == 0
        else:
            assert partition_function(fs, gs) == pytest.approx(analytic_torsion(fs.base),
                                                               rel=1e-6)


@pytest.mark.parametrize("theta", [1e-5, 1e-6, 1e-7])
def test_gauges_of_a_cat_twist_near_the_rank_cut(theta):
    tc = mapping_torus_complex(CAT, theta)
    q = 4.0 * math.sin(theta / 2) ** 2
    fs = build_bf_fields(tc)
    for gs in (metric_gauge(fs), contraction_gauge(fs, hodge_contraction(tc)),
               contraction_gauge(fs, suspension_contraction(tc))):
        assert partition_function(fs, gs) == pytest.approx(q / (1.0 + q), rel=1e-12)


@pytest.mark.parametrize("theta", [0.9, 2.0])
@pytest.mark.parametrize("a", [[[-2, -1], [-1, -1]], [[2, -1], [-1, 1]],
                               [[3, -1], [-1, 0]], [[-3, -1], [-1, 0]]],
                         ids=["-2,-1,-1,-1", "2,-1,-1,1", "3,-1,-1,0", "-3,-1,-1,0"])
def test_mapping_tori_with_negative_entries(a, theta):
    # negative entries spell the images of the generators with inverse letters
    tc = mapping_torus_complex(a, theta)
    tau = analytic_torsion(tc)
    fs = build_bf_fields(tc)
    z_reeb = partition_function(fs, contraction_gauge(fs, suspension_contraction(tc)))
    z_metric = partition_function(fs, metric_gauge(fs))
    for ratio in (tau * milnor_mapping_torus_torsion(a, theta), z_reeb / tau, z_metric / tau):
        assert abs(ratio - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), log10_s=st.floats(-8.0, 8.0))
@example(seed=0, log10_s=-8.0)
@example(seed=0, log10_s=8.0)
def test_torsion_and_gauges_are_scale_covariant(seed, log10_s):
    """log tau(s d) = log tau(d) + sum_k (-1)^k rank d_k log s, and Schwarz,
    Z_metric and Z_Hodge follow tau."""
    rng = np.random.default_rng(seed)
    tc = random_twisted_complex(rng, top_degree=int(rng.integers(2, 5)), max_cells=4,
                                rank=int(rng.integers(1, 3)))
    s = 10.0 ** log10_s
    scaled = TwistedComplex([s * d for d in tc.diffs])
    tau = analytic_torsion(scaled)
    weight = sum((-1) ** k * tc.rank(k) for k in range(tc.top_degree))
    assert abs(math.log(tau) - math.log(analytic_torsion(tc)) - weight * math.log(s)) <= 1e-12
    fs = build_bf_fields(scaled)
    for value in (schwarz_partition(scaled), partition_function(fs, metric_gauge(fs)),
                  partition_function(fs, contraction_gauge(fs, hodge_contraction(scaled)))):
        assert value / tau == pytest.approx(1.0, abs=1e-12)


NOT_ACYCLIC = [circle_complex(0.0), torus_complex(0.0, 0.0), mapping_torus_complex(CAT, 0.0)]


@pytest.mark.parametrize("tc", NOT_ACYCLIC, ids=["circle", "torus", "cat"])
def test_contractions_need_an_acyclic_complex(tc):
    with pytest.raises(NotAcyclicError):
        random_contraction(tc, np.random.default_rng(0))
    with pytest.raises(NotAcyclicError):
        hodge_contraction(tc)


def _bad_split(splits, k, how):
    """The random contraction's kernel splits with degree k's broken."""
    ker, perp = splits[k]
    if how == "kernel not killed":          # swap a kernel and a complement vector
        ker, perp = (np.hstack([perp[:, :1], ker[:, 1:]]),
                     np.hstack([ker[:, :1], perp[:, 1:]]))
    elif how == "not orthonormal":
        ker = 1.001 * ker
    else:                                   # a kernel vector moved to the complement
        ker, perp = ker[:, 1:], np.hstack([ker[:, :1], perp])
    return splits[:k] + ((ker, perp),) + splits[k + 1:]


@pytest.mark.parametrize("how, message", [
    ("kernel not killed", "not killed by iota"),
    ("not orthonormal", "not orthonormal"),
    ("complement not isometric", "not isometric"),
])
def test_bad_kernel_split_is_refused(how, message):
    tc = mapping_torus_complex(CAT, 2.0)
    c = random_contraction(tc, np.random.default_rng(3))
    k = 1                                   # kernel and complement both nonempty here
    assert 0 < c.splits[k][0].shape[1] < tc.dims[k]
    with pytest.raises(DegenerateContractionError, match=message):
        Contraction(c.iota, _bad_split(c.splits, k, how))


# Constant of the first-order rounding bound on Z below.  Forming a block M
# and its SVD leave backward errors of a few eps ||M||_2 at these dimensions,
# and each moves log|det M| by at most ||dM||_2 sum_i 1/s_i(M).  On criterion
# 8's 100 draws and the rank-40 twist the observed difference stays below
# 0.06 of the bound, at one BLAS thread and at two.
Z_ROUNDING_C = 10.0


def _log_det_condition(fs, gs):
    """sum over the restricted action blocks M of ||M||_2 sum_i 1/s_i(M)."""
    total = 0.0
    for m in restricted_action_blocks(fs, gs):
        if m.size:
            s = np.linalg.svd(m, compute_uv=False)
            total += s[0] * float(np.sum(1.0 / s))
    return total


def _assert_found_splits_pass_checks(c):
    """The splits that ``c`` found by SVD pass the product checks a given
    split must pass, at the same tolerances: [K P] orthonormal, iota K = 0 and
    iota isometric on P; and ``c``'s maps accept them as given splits."""
    tol = 1e-12

    def norm(m):
        return np.linalg.norm(m, axis=(-2, -1))

    scale = np.maximum.reduce([np.ones(c.sample_shape)] + [norm(m) for m in c.iota])
    assert len(c.splits) == len(c.iota)
    for (ker, perp), m in zip(c.splits, c.iota):
        d = m.shape[-1]
        q = np.concatenate([ker, perp], axis=-1)
        assert np.all(norm(q.conj().swapaxes(-1, -2) @ q - np.eye(d)) <= tol * max(1.0, d))
        assert np.all(norm(m @ ker) <= tol * scale)
        image = m @ perp
        gram = image.conj().swapaxes(-1, -2) @ image
        assert np.all(norm(gram - np.eye(perp.shape[-1])) <= tol * scale ** 2)
    Contraction(c.iota, c.splits)


def test_found_splits_pass_the_given_split_checks():
    rng = np.random.default_rng(17)
    for tc in (mapping_torus_complex(CAT, math.pi), mapping_torus_complex(CAT, 0.3),
               random_twisted_complex(rng, top_degree=4, max_cells=4, rank=2)):
        hodge = hodge_contraction(tc)
        _assert_found_splits_pass_checks(hodge)
        _assert_found_splits_pass_checks(_svd_contraction(random_contraction(tc, rng).iota))
        fam = unitary_contraction_family(tc, rng)
        stack = fam(np.linspace(0.0, 1.0, 10))
        assert stack.sample_shape == (10,)
        _assert_found_splits_pass_checks(stack)
        if tc.suspension is not None:
            _assert_found_splits_pass_checks(suspension_contraction(tc))


def _split_matches_svd_path(tc, c):
    """Kernel and complement projectors and Z of a random contraction against
    the same iota factorised by SVD, Z within the rounding of both gauges."""
    by_svd = _svd_contraction(c.iota)
    _assert_found_splits_pass_checks(by_svd)
    for pairs in zip(c.splits, by_svd.splits):
        for given, found in zip(*pairs):
            assert given.shape == found.shape
            assert np.linalg.norm(given @ given.conj().T - found @ found.conj().T) < 1e-12
    fs = build_bf_fields(tc)
    gauges = contraction_gauge(fs, c), contraction_gauge(fs, by_svd)
    z_given, z_found = (partition_function(fs, gs) for gs in gauges)
    bound = Z_ROUNDING_C * np.finfo(float).eps * sum(_log_det_condition(fs, gs)
                                                     for gs in gauges)
    assert abs(z_given / z_found - 1.0) < bound


def test_random_contraction_split_matches_svd_path():
    # criterion 8's complexes and draws, then a rank-40 cat twist (dimension 320)
    rng = np.random.default_rng(SEED + 2)
    for tc in _random_complexes(20, rng):
        for _ in range(5):
            _split_matches_svd_path(tc, random_contraction(tc, rng))
    rng = np.random.default_rng(40)
    tc = _cat_rank_twist(40, rng)
    assert sum(tc.dims) == 320
    _split_matches_svd_path(tc, random_contraction(tc, rng))


def test_split_contraction_gauge_takes_no_svd(monkeypatch):
    rng = np.random.default_rng(13)
    tc = random_twisted_complex(rng, top_degree=4, max_cells=4, rank=2)
    fs = build_bf_fields(tc)              # the spectral record is factorised here
    calls = []
    real_svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    gs = contraction_gauge(fs, random_contraction(tc, rng))
    assert calls == []
    assert is_lagrangian(fs, gs).ok
    # the Hodge contraction reads its split off the complex's hodge_bases:
    # C^0 whole in degree 0, an empty kernel in the top degree
    tc.hodge_bases                        # the Hodge iota's own SVDs
    calls.clear()
    hodge = hodge_contraction(tc)
    assert hodge.splits[0][1].shape == (tc.dims[0], 0)
    assert hodge.splits[-1][0].shape == (tc.dims[-1], 0)
    assert calls == []


def _relative(z, ref):
    return abs(z / ref - 1.0)


def test_reeb_split_is_coordinate_columns(monkeypatch):
    # no SVD, a kernel of base cells and a complement of (cell x I) cells,
    # isotropy exactly 0, and Z as the SVD path finds it
    rng = np.random.default_rng(41)
    real_svd = np.linalg.svd
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real_svd(*args, **kwargs)

    for r in (1, 3):
        for theta in (math.pi, 2.0, 0.3):
            tc = _cat_rank_twist(r, rng, thetas=theta + np.arange(r))
            fs = build_bf_fields(tc)
            monkeypatch.setattr(np.linalg, "svd", counting)
            reeb = suspension_contraction(tc)
            monkeypatch.setattr(np.linalg, "svd", real_svd)
            assert calls == []
            for k, ((ker, perp), d) in enumerate(zip(reeb.splits, tc.dims)):
                lifted = sorted(src for src, _ in tc.suspension[k])
                kept = sorted(set(range(d)) - set(lifted))
                assert np.array_equal(ker, np.eye(d)[:, kept])
                assert np.array_equal(perp, np.eye(d)[:, lifted])
            gs = contraction_gauge(fs, reeb)
            assert is_lagrangian(fs, gs).isotropy == 0.0
            z_ref = partition_function(fs, contraction_gauge(fs, _svd_contraction(reeb.iota)))
            assert _relative(partition_function(fs, gs), z_ref) < 1e-14


def _svd_path_hodge_z(tc):
    """Z of the Hodge iota with its kernel split found by SVD."""
    fs = build_bf_fields(tc)
    iota, _ = bv._hodge_maps(tc)
    return partition_function(fs, contraction_gauge(fs, _svd_contraction(iota)))


def _assembled_schwarz(tc):
    """Schwarz's partition function with T^2 and T_1 assembled block-diagonal
    and each factorised whole."""
    from scipy.linalg import block_diag

    d, ranks, n = tc.diffs, tc.spectrum.ranks, tc.top_degree
    if n == 1:
        return math.exp(0.5 * tc.spectrum.coexact_logdets[0])
    t_sq = block_diag(d[1].conj().T @ d[1], np.conj(d[1]) @ d[1].T)
    log_z = -0.25 * np.sum(np.log(np.linalg.eigvalsh(t_sq)[len(t_sq) - 2 * ranks[1]:]))
    towers = [(block_diag(d[0], d[2].T), ranks[0] + ranks[2]) if n >= 3 else (d[0], ranks[0])]
    towers += [(d[k + 1].T, ranks[k + 1]) for k in range(2, n - 1)]
    for k, (t_k, rank) in enumerate(towers, start=1):
        s = np.linalg.svd(t_k, compute_uv=False)[:rank]
        log_z += (-1) ** (k + 1) * np.sum(np.log(s))
    return math.exp(log_z)


def test_hodge_z_and_schwarz_match_their_factorise_whole_references():
    # criterion 6's complexes, then rank-10 and rank-30 cat twists
    rng = np.random.default_rng(44)
    inputs = _random_complexes(100, np.random.default_rng(SEED))
    inputs += [_cat_rank_twist(10, rng), _cat_rank_twist(30, rng)]
    for tc in inputs:
        fs = build_bf_fields(tc)
        z = partition_function(fs, contraction_gauge(fs, hodge_contraction(tc)))
        assert _relative(z, _svd_path_hodge_z(tc)) < 1e-13
        assert _relative(schwarz_partition(tc), _assembled_schwarz(tc)) < 1e-13


def test_gauge_independence_random():
    rng = np.random.default_rng(5)
    for _ in range(8):
        tc = random_twisted_complex(rng, top_degree=int(rng.integers(2, 6)),
                                    max_cells=5, rank=int(rng.integers(1, 3)))
        tau = analytic_torsion(tc)
        fs = build_bf_fields(tc)
        assert partition_function(fs, metric_gauge(fs)) == pytest.approx(tau, rel=1e-9)
        c = random_contraction(tc, rng)
        z = partition_function(fs, contraction_gauge(fs, c))
        assert z == pytest.approx(tau, rel=1e-9)


def test_homotopy_scan_constancy():
    rng = np.random.default_rng(6)
    tc = random_twisted_complex(rng, top_degree=3, max_cells=4, rank=1)
    fs = build_bf_fields(tc)
    fam = unitary_contraction_family(tc, rng)
    scan = homotopy_scan(fs, fam, samples=10)
    assert scan.max_relative_deviation < 1e-9
    assert len(scan.samples) == 10


def _max_modulus_upper(g):
    """max |g_ij| over i <= j (0 when empty); hypot matches scalar abs."""
    return float(np.max(np.triu(np.hypot(g.real, g.imag)), initial=0.0))


def _reference_scan(fs, family, samples):
    """The scan one sample at a time, each through its own single contraction,
    with the isotropy residual read off the full subspace Gram matrix."""
    if samples < 2:
        raise ValueError("need at least two samples")
    ts = [i / (samples - 1) for i in range(samples)]
    rows = []
    z0 = None
    worst = 0.0
    for t in ts:
        try:
            gs = contraction_gauge(fs, family(t))
            z = partition_function(fs, gs)
        except DegenerateContractionError as exc:
            raise DegenerateContractionError(str(exc), t=t)
        side = _stacked(fs, _single_fields(fs, gs.a_bases, gs.b_bases))
        residual = _max_modulus_upper(fs.omega(side, side))
        rows.append((t, z, residual))
        if z0 is None:
            z0 = z
        else:
            worst = max(worst, abs(z / z0 - 1.0))
    return rows, worst


def _assert_scan_matches_reference(tc, rng, samples):
    fs = build_bf_fields(tc)
    fam = unitary_contraction_family(tc, rng)
    scan = homotopy_scan(fs, fam, samples=samples)
    rows, worst = _reference_scan(fs, fam, samples)
    assert [tuple(x.hex() for x in row) for row in scan.samples] == \
        [tuple(x.hex() for x in row) for row in rows]
    assert scan.max_relative_deviation.hex() == worst.hex()


def _golden_bf_scans():
    """(complex, seed, samples) of every golden ``bf`` command."""
    from test_cli import GOLDEN_COMMANDS
    from zetabf.cli import _load_model, build_parser, make_config
    for argv in GOLDEN_COMMANDS.values():
        if argv[0] == "bf":
            cfg = make_config(build_parser().parse_args(argv))
            yield _load_model(cfg), cfg.seed, cfg.samples


def test_homotopy_scan_matches_per_sample_reference():
    golden = list(_golden_bf_scans())
    assert len(golden) == 5
    for tc, seed, samples in golden:
        _assert_scan_matches_reference(tc, np.random.default_rng(seed), samples)
    # criterion 9's 20 paths, drawn as it draws them
    rng = np.random.default_rng(SEED + 3)
    for _ in range(20):
        tc = random_twisted_complex(rng, top_degree=int(rng.integers(2, 5)), max_cells=4,
                                    rank=int(rng.integers(1, 3)))
        _assert_scan_matches_reference(tc, rng, 10)
    rng = np.random.default_rng(14)
    _assert_scan_matches_reference(_cat_rank_twist(4, rng), rng, 7)


def _scan_exponentials(monkeypatch):
    """(m, xs, e^(-x m) as computed) for every ``exp_stack`` call of the
    unitary families of criterion 9 and of the five golden ``bf`` scans, each
    family evaluated once on its scan's t grid."""
    calls = []

    def recording(m, xs):
        e = exp_stack(m, xs)
        calls.append((m, xs, e))
        return e

    monkeypatch.setattr(bv, "exp_stack", recording)
    rng = np.random.default_rng(SEED + 3)
    families = []
    for _ in range(20):
        tc = random_twisted_complex(rng, top_degree=int(rng.integers(2, 5)), max_cells=4,
                                    rank=int(rng.integers(1, 3)))
        families.append((unitary_contraction_family(tc, rng), 10))
    for tc, seed, samples in _golden_bf_scans():
        families.append((unitary_contraction_family(tc, np.random.default_rng(seed)), samples))
    for family, samples in families:
        family(np.array([i / (samples - 1) for i in range(samples)]))
    return calls


def _oracle_exponentials(m, xs):
    """e^(-x m) to 40 digits at each double x of xs, for a skew-Hermitian m:
    i m is Hermitian, so one 40-digit ``mpmath.eighe`` of i m = V diag(lam) V^H
    gives e^(-x m) = V diag(e^(i x lam)) V^H at every x."""
    assert np.array_equal(m, -m.conj().T)
    with mpmath.workdps(40):
        lam, v = mpmath.eighe(mpmath.matrix(m.tolist()) * 1j)
        vh = v.H
        out = [v * mpmath.diag([mpmath.expj(mpmath.mpf(float(x)) * e) for e in lam]) * vh
               for x in xs]
        return np.array([[[complex(e[r, c]) for c in range(m.shape[1])]
                          for r in range(m.shape[0])] for e in out])


def test_exp_stack_against_a_40_digit_oracle(monkeypatch):
    """The Pade kernel exponentiates the scans' skew-Hermitian generators
    as accurately as scipy's expm, against a 40-digit mpmath oracle, and
    gives unitary matrices."""
    from scipy.linalg import expm

    calls = [(m, xs, e) for m, xs, e in _scan_exponentials(monkeypatch) if m.size]
    assert len(calls) == 95      # the nonempty degrees of 25 complexes
    ours = theirs = unitarity = 0.0
    for m, xs, e in calls:
        assert np.linalg.norm(m, 2) <= 3.0
        exact = _oracle_exponentials(m, xs)
        ours = max(ours, np.max(np.abs(e - exact)))
        theirs = max(theirs, np.max(np.abs(expm(-xs[:, None, None] * m) - exact)))
        gram = e.conj().swapaxes(1, 2) @ e - np.eye(m.shape[0])
        unitarity = max(unitarity, np.max(np.linalg.norm(gram, 2, axis=(1, 2))))
    assert ours <= 2 * theirs + 1e-15
    assert unitarity <= 1e-14


def test_exp_stack_of_zero_is_the_identity():
    xs = np.array([0.0, 0.5, 3.0])
    for n in (0, 1, 3):
        e = exp_stack(np.zeros((n, n), dtype=complex), xs)
        assert e.shape == (3, n, n)
        assert np.array_equal(e, np.broadcast_to(np.eye(n), e.shape))


def test_exp_stack_of_no_parameters_is_an_empty_stack():
    # as for a zero generator
    for m in (np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex), np.zeros((2, 2))):
        assert exp_stack(m, np.array([])).shape == (0, 2, 2)


def test_homotopy_scan_isotropy_is_the_lagrangian_report():
    rng = np.random.default_rng(11)
    for tc in (random_twisted_complex(rng, top_degree=3, max_cells=4, rank=2),
               mapping_torus_complex(CAT, 2.0), _cat_rank_twist(4, rng)):
        fs = build_bf_fields(tc)
        fam = unitary_contraction_family(tc, rng)
        scan = homotopy_scan(fs, fam, samples=5)
        for t, _, residual in scan.samples:
            want = is_lagrangian(fs, contraction_gauge(fs, fam(t))).isotropy
            assert residual.hex() == want.hex()


def test_homotopy_scan_records_distance_to_degeneracy():
    # per sample, the smallest singular value over the member's action blocks
    rng = np.random.default_rng(15)
    for tc in (mapping_torus_complex(CAT, 2.0), _cat_rank_twist(3, rng)):
        fs = build_bf_fields(tc)
        fam = unitary_contraction_family(tc, rng)
        scan = homotopy_scan(fs, fam, samples=6)
        assert len(scan.action_min_sv) == 6
        for (t, _, _), smallest in zip(scan.samples, scan.action_min_sv):
            blocks = restricted_action_blocks(fs, contraction_gauge(fs, fam(t)))
            want = min(np.linalg.svd(m, compute_uv=False)[-1] for m in blocks if m.size)
            assert smallest.hex() == want.hex()


def test_stacked_contraction_is_its_members():
    rng = np.random.default_rng(16)
    tc = _cat_rank_twist(2, rng)
    fs = build_bf_fields(tc)
    fam = unitary_contraction_family(tc, rng)
    ts = np.array([0.0, 0.4, 1.0])
    stacked = fam(ts)
    assert stacked.sample_shape == (3,)
    gs = contraction_gauge(fs, stacked)
    zs = partition_function(fs, gs)
    assert zs.shape == (3,)
    for i, t in enumerate(ts):
        single = fam(float(t))
        assert single.sample_shape == ()
        for k in range(fs.n + 1):
            assert np.array_equal(stacked.iota[k][i], single.iota[k])
            for found, alone in zip(stacked.splits[k], single.splits[k]):
                assert np.array_equal(found[i], alone)
        assert zs[i].hex() == partition_function(fs, contraction_gauge(fs, single)).hex()
    # explicit kernel splits stack too
    draws = [random_contraction(tc, rng) for _ in range(2)]
    iota = [np.stack(m) for m in zip(*(c.iota for c in draws))]
    splits = [tuple(np.stack(b) for b in zip(*pairs)) for pairs in zip(*(c.splits for c in draws))]
    stacked = Contraction(iota, splits)
    zs = partition_function(fs, contraction_gauge(fs, stacked))
    for z, c in zip(zs, draws):
        assert z.hex() == partition_function(fs, contraction_gauge(fs, c)).hex()
    # a broken split in the second member only names that member
    ker, perp = splits[1]
    ker = ker * np.array([1.0, 1.001])[:, None, None]
    with pytest.raises(DegenerateContractionError, match="not orthonormal") as err:
        Contraction(iota, splits[:1] + [(ker, perp)] + splits[2:])
    assert err.value.member == 1


def _zero_middle_complex(rng):
    """(2,2,3,3) acyclic complex whose middle differential d_1 is zero."""
    return TwistedComplex([phase_fixed_qr(ginibre(rng, 2)), np.zeros((3, 2)),
                           phase_fixed_qr(ginibre(rng, 3))])


@pytest.mark.parametrize("samples", [1, 5])
def test_stacked_random_draw_is_the_lone_draws(samples):
    rng = np.random.default_rng(23)
    cases = _random_complexes(4, rng) + [_cat_rank_twist(3, rng), _zero_middle_complex(rng)]
    assert cases[-1].rank(1) == 0
    for seed, tc in enumerate(cases):
        rng = np.random.default_rng(seed)
        stacked = random_contraction(tc, rng, samples=samples)
        state = rng.bit_generator.state
        assert stacked.sample_shape == (samples,)
        rng = np.random.default_rng(seed)
        for i in range(samples):
            lone = random_contraction(tc, rng)
            assert lone.sample_shape == ()
            for got, want in zip(stacked.iota + stacked.a_maps, lone.iota + lone.a_maps):
                assert np.array_equal(got[i], want) and got[i].shape == want.shape
            for got, want in zip(stacked.splits, lone.splits):
                for g, w in zip(got, want):
                    assert np.array_equal(g[i], w) and g[i].shape == w.shape
        assert rng.bit_generator.state == state


def test_stacked_random_draw_names_its_degenerate_member():
    fs = _rotating_fields()
    drawn = random_contraction(fs.base, np.random.default_rng(8), samples=5)
    degenerate = _rotating_family(0.75)       # its one action block vanishes
    iota = [np.array(m) for m in drawn.iota]
    for m, bad in zip(iota, degenerate.iota):
        m[3] = bad
    stacked = _svd_contraction(iota)
    with pytest.raises(DegenerateContractionError) as err:
        partition_function(fs, contraction_gauge(fs, stacked))
    assert err.value.member == 3
    with pytest.raises(DegenerateContractionError):
        partition_function(fs, contraction_gauge(fs, degenerate))


def test_drawing_a_family_takes_no_svd(monkeypatch):
    # the family rotates the Hodge iota and builds no Hodge contraction
    rng = np.random.default_rng(18)
    tc = random_twisted_complex(rng, top_degree=3, max_cells=4, rank=2)
    assert tc.hodge_bases     # the complex's one factorisation, found before counting
    calls = Counter()
    real_svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls["svd"] += 1
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    unitary_contraction_family(tc, rng)
    assert calls["svd"] == 0


def test_homotopy_scan_takes_no_cross_pairing_svd(monkeypatch):
    # a stacked scan factorises as often as one gauge does, whatever the
    # sample count, and takes no cross-pairing SVD
    rng = np.random.default_rng(12)
    tc = random_twisted_complex(rng, top_degree=3, max_cells=4, rank=2)
    fs = build_bf_fields(tc)
    fam = unitary_contraction_family(tc, rng)
    calls = Counter()
    real_svd = np.linalg.svd

    def counting(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "zetabf.bv":
            calls["svd"] += 1
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    partition_function(fs, contraction_gauge(fs, fam(0.5)))
    per_gauge = calls["svd"]
    assert per_gauge > 0
    for samples in (5, 21):
        calls.clear()
        homotopy_scan(fs, fam, samples=samples)
        assert calls["svd"] == per_gauge


def test_evaluating_a_family_takes_no_svd(monkeypatch):
    # each member's kernel split is the Hodge split rotated by the member's
    # unitaries, so neither a stack nor a lone member factorises anything
    rng = np.random.default_rng(19)
    tc = random_twisted_complex(rng, top_degree=3, max_cells=4, rank=2)
    fam = unitary_contraction_family(tc, rng)
    calls = []
    real_svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert fam(np.linspace(0.0, 1.0, 10)).sample_shape == (10,)
    assert fam(0.5).sample_shape == ()
    assert calls == []


def test_homotopy_scan_factorises_only_its_action_blocks(monkeypatch):
    # one stacked SVD per nonempty restricted action block, of the shape
    # (samples, rank d_k, rank d_k): no kernel or complement is factorised
    rng = np.random.default_rng(21)
    cases = [mapping_torus_complex(CAT, 2.0), _cat_rank_twist(2, rng),
             random_twisted_complex(rng, top_degree=4, max_cells=4, rank=2)]
    shapes = []
    real_svd = np.linalg.svd

    def counting(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "zetabf.bv":
            shapes.append(args[0].shape)
        return real_svd(*args, **kwargs)

    for tc in cases:
        fs = build_bf_fields(tc)
        fam = unitary_contraction_family(tc, rng)
        shapes.clear()
        monkeypatch.setattr(np.linalg, "svd", counting)
        homotopy_scan(fs, fam, samples=7)
        monkeypatch.setattr(np.linalg, "svd", real_svd)
        ranks = [tc.rank(k) for k in range(tc.top_degree)]
        assert Counter(shapes) == Counter((7, r, r) for r in ranks if r)


def test_family_starts_at_the_hodge_split():
    # U(0) is the identity up to the Pade kernel's rounding, so the member at
    # t = 0 carries the Hodge contraction's kernel split entrywise
    rng = np.random.default_rng(22)
    cases = [mapping_torus_complex(CAT, math.pi)]
    cases += [random_twisted_complex(rng, top_degree=int(rng.integers(2, 5)), max_cells=4,
                                     rank=int(rng.integers(1, 3))) for _ in range(10)]
    for tc in cases:
        start = unitary_contraction_family(tc, rng)(0.0)
        for rotated, given in zip(start.splits, hodge_contraction(tc).splits):
            for r, g in zip(rotated, given):
                assert r.shape == g.shape
                assert np.max(np.abs(r - g), initial=0.0) <= 1e-15


def test_long_scan_runs_in_bounded_passes(monkeypatch):
    # three samples per pass: the digits and the first failing t across
    # passes stay those of the per-sample scan
    rng = np.random.default_rng(17)
    tc = mapping_torus_complex(CAT, 2.0)
    monkeypatch.setattr(bv, "SCAN_STACK_ENTRIES", 3 * sum(d * d for d in tc.dims))
    _assert_scan_matches_reference(tc, rng, 10)
    fs = _rotating_fields()
    monkeypatch.setattr(bv, "SCAN_STACK_ENTRIES", 3 * sum(d * d for d in fs.dims))
    with pytest.raises(DegenerateContractionError) as err:
        homotopy_scan(fs, _rotating_family, samples=9)     # passes 0-0.25, 0.375-0.625, 0.75-1
    assert err.value.t == 0.75


def _stack(c, ts):
    """The constant family's members at ``ts``: ``c`` repeated along a sample axis."""
    return _svd_contraction([np.broadcast_to(m, np.shape(ts) + m.shape) for m in c.iota])


def test_homotopy_scan_constant_family():
    tc = mapping_torus_complex(CAT, math.pi)
    fs = build_bf_fields(tc)
    c = hodge_contraction(tc)
    scan = homotopy_scan(fs, lambda ts: _stack(c, ts), samples=5)
    assert scan.max_relative_deviation == 0.0
    # a family that does not stack its members is refused
    with pytest.raises(ValueError, match="one member per t"):
        homotopy_scan(fs, lambda ts: c, samples=5)


def _rotating_family(ts):
    """(1,2,1) acyclic complex with a rotating contraction that crosses a
    degenerate direction: L|ker vanishes when tan(angle) = -a/b."""
    phi = np.asarray(ts) * math.pi        # crosses phi = 3*pi/4 where cos+sin = 0
    row = np.stack([np.cos(phi), np.sin(phi)], axis=-1)[..., None, :]
    ker = np.stack([-np.sin(phi), np.cos(phi)], axis=-1)[..., :, None]
    return _svd_contraction([np.zeros(phi.shape + (0, 1)), row, ker])   # iota_2 onto ker(iota_1)


def _rotating_fields():
    return build_bf_fields(TwistedComplex([np.array([[1.0], [1.0]]), np.array([[-1.0, 1.0]])]))


def test_homotopy_scan_degenerate_crossing():
    fs = _rotating_fields()
    with pytest.raises(DegenerateContractionError) as err:
        homotopy_scan(fs, _rotating_family, samples=5)
    assert err.value.t == 0.75
    with pytest.raises(DegenerateContractionError) as err:
        _reference_scan(fs, _rotating_family, 5)
    assert err.value.t == 0.75


def _scaled_from(t_bad, row_scale):
    """The rotating family with, from ``t_bad`` on, iota_1 scaled by ``row_scale``."""
    def family(ts):
        iota = list(_rotating_family(ts).iota)
        late = (np.asarray(ts) >= t_bad)[..., None, None]
        iota[1] = np.where(late, row_scale * iota[1], iota[1])
        return _svd_contraction(iota)
    return family


@pytest.mark.parametrize("t_bad, row_scale, t_named, message", [
    # invalid (iota o a = 2) after the crossing at 0.75: the crossing is named
    (1.0, math.sqrt(2), 0.75, "degenerate"),
    (0.5, math.sqrt(2), 0.5, "iota is not isometric on the kernel complement"),
    # iota_1 below the rank cut: its kernel grows, which a stack cannot hold
    (0.25, 1e-13, 0.25, "rank of iota changes"),
], ids=["invalid-after-crossing", "invalid", "rank-change"])
def test_homotopy_scan_names_the_first_failing_sample(t_bad, row_scale, t_named, message):
    fs = _rotating_fields()
    family = _scaled_from(t_bad, row_scale)
    with pytest.raises(DegenerateContractionError, match=message) as err:
        homotopy_scan(fs, family, 5)
    assert err.value.t == t_named
    # as the scan one sample at a time names it
    with pytest.raises(DegenerateContractionError) as err:
        _reference_scan(fs, family, 5)
    assert err.value.t == t_named


def test_gauge_polarization_names():
    tc = circle_complex(math.pi)
    fs = build_bf_fields(tc)
    chart, on_vars = gauge_polarization(fs, metric_gauge(fs))
    assert set(on_vars) == {"a0_0", "b1_0"}
    assert len(chart.pairs) == 2
