"""BF field spaces, gauge fixing, partition functions, homotopy scans."""

import math
import sys
from collections import Counter

import numpy as np
import pytest

from zetabf.bv import (
    ISOTROPY_TOL,
    BFField,
    Contraction,
    LagrangianReport,
    build_bf_fields,
    contraction_gauge,
    gauge_polarization,
    hodge_contraction,
    homotopy_scan,
    is_lagrangian,
    lie_operator_on_kernel,
    metric_gauge,
    partition_function,
    random_contraction,
    restricted_action_blocks,
    suspension_contraction,
    unitary_contraction_family,
)
from zetabf.complexes import (
    UnitaryRep,
    analytic_torsion,
    build_twisted_complex,
    circle_complex,
    haar_unitary,
    mapping_torus_cell_complex,
    mapping_torus_complex,
    random_twisted_complex,
    torus_complex,
)
from zetabf.errors import (
    DegenerateContractionError,
    NotAcyclicError,
)
from zetabf.orbits import ToralAutomorphism
from zetabf.zeta import closed_form_suspension

CAT = [[2, 1], [1, 1]]


def _zero_field(fs):
    return BFField(tuple(np.zeros(d, dtype=complex) for d in fs.dims),
                   tuple(np.zeros(d, dtype=complex) for d in fs.dims))


def _random_field(fs, rng):
    def rand(d):
        return rng.normal(size=d) + 1j * rng.normal(size=d)
    return BFField(tuple(rand(d) for d in fs.dims), tuple(rand(d) for d in fs.dims))


def test_field_space_degrees_circle():
    fs = build_bf_fields(circle_complex(math.pi))
    assert fs.dims == (1, 1)
    assert fs.a_degrees == (1, 0)


def test_field_space_requires_acyclic():
    with pytest.raises(NotAcyclicError):
        build_bf_fields(circle_complex(0.0))


def test_action_vanishes_on_closed_fields():
    rng = np.random.default_rng(0)
    tc = random_twisted_complex(rng, top_degree=3, max_cells=4, rank=1)
    fs = build_bf_fields(tc)
    f = _zero_field(fs)
    # exact A (hence closed, by acyclicity dA = 0 iff A is d of something... )
    prev = rng.normal(size=tc.dims[0]) + 1j * rng.normal(size=tc.dims[0])
    f.a[1][:] = tc.diffs[0] @ prev
    f.a[0][:] = 0.0
    for k in range(fs.n + 1):
        f.b[k][:] = rng.normal(size=tc.dims[k])
    # A supported in degree 1 with dA = d1 d0 prev = 0
    assert abs(fs.action(f)) < 1e-12


def test_action_shift_symmetry():
    rng = np.random.default_rng(1)
    tc = random_twisted_complex(rng, top_degree=3, max_cells=4, rank=1)
    fs = build_bf_fields(tc)
    v = _random_field(fs, rng)
    s0 = fs.action(v)

    shifted = _random_field(fs, rng)
    for k in range(fs.n + 1):
        shifted.a[k][:] = v.a[k]
        shifted.b[k][:] = v.b[k]
    # shift A by an exact form in each degree
    for k in range(1, fs.n + 1):
        xi = rng.normal(size=tc.dims[k - 1]) + 1j * rng.normal(size=tc.dims[k - 1])
        shifted.a[k][:] += tc.diffs[k - 1] @ xi
    assert fs.action(shifted) == pytest.approx(s0, rel=1e-10)

    # shift B by an exact form of the dual complex: b_(k+1) += d_(k+1)^T beta
    shifted2 = _random_field(fs, rng)
    for k in range(fs.n + 1):
        shifted2.a[k][:] = v.a[k]
        shifted2.b[k][:] = v.b[k]
    for k in range(fs.n - 1):
        beta = rng.normal(size=tc.dims[k + 2]) + 1j * rng.normal(size=tc.dims[k + 2])
        shifted2.b[k + 1][:] += tc.diffs[k + 1].T @ beta
    assert fs.action(shifted2) == pytest.approx(s0, rel=1e-10)


def test_metric_gauge_circle_line():
    tc = circle_complex(math.pi)
    fs = build_bf_fields(tc)
    gs = metric_gauge(fs)
    assert gs.a_bases[0].shape == (1, 1)    # coexact line in C^0
    assert gs.b_bases[1].shape == (1, 1)
    rep = is_lagrangian(fs, gs)
    assert rep.ok and rep.isotropy_subspace < 1e-12


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
        assert rep.isotropy_subspace < 1e-12
        assert rep.isotropy_complement < 1e-12


def test_contraction_gauge_unit_scalar_circle():
    tc = circle_complex(math.pi)
    fs = build_bf_fields(tc)
    iota = [np.zeros((0, 1)), np.array([[1.0 + 0.0j]])]
    a_maps = [np.array([[1.0 + 0.0j]]), np.zeros((0, 1))]
    c = Contraction(iota, a_maps)
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
        ker = c.kernel_basis(k)
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
        assert rep.isotropy_subspace < 1e-12


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
    """LagrangianReport from one single-field omega call per pair."""
    sub = _single_fields(fs, gs.a_bases, gs.b_bases)
    comp = _single_fields(fs, [np.conj(b) for b in gs.b_bases],
                          [np.conj(a) for a in gs.a_bases])

    def max_pairing(fields):
        worst = 0.0
        for i, v in enumerate(fields):
            for w in fields[i:]:
                worst = max(worst, abs(fs.omega(v, w)))
        return worst

    iso_sub, iso_comp = max_pairing(sub), max_pairing(comp)
    dims_match = len(sub) == len(comp)
    if dims_match and sub:
        cross = np.array([[fs.omega(v, w) for w in comp] for v in sub])
        min_sv = float(np.linalg.svd(cross, compute_uv=False)[-1])
    else:
        min_sv = 0.0 if not dims_match else np.inf
    ok = (iso_sub < ISOTROPY_TOL and iso_comp < ISOTROPY_TOL
          and dims_match and min_sv > 1e-8)
    return LagrangianReport(ok, iso_sub, iso_comp, min_sv, dims_match)


def _skewed(fs, c):
    """Contraction gauge deliberately skewed: B side set to conj(ker iota)
    instead of the annihilator."""
    gs = contraction_gauge(fs, c)
    for k in range(fs.n + 1):
        gs.b_bases[k] = np.conj(c.kernel_basis(k))
    return gs


def test_skewed_subspace_is_not_lagrangian():
    tc = mapping_torus_complex(CAT, math.pi)
    fs = build_bf_fields(tc)
    gs = _skewed(fs, hodge_contraction(tc))
    rep = is_lagrangian(fs, gs)
    assert not rep.ok
    assert rep == _reference_report(fs, gs)


def _cat_rank_twist(r, rng):
    """Cat-map mapping torus twisted by a random rank-r unitary on t
    (dimension 8r), with eigenphases kept away from 0."""
    thetas = rng.uniform(0.3, 2 * math.pi - 0.3, size=r)
    q = haar_unitary(rng, r)
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
        family = unitary_contraction_family(tc, hodge, rng)
        gauges = [metric_gauge(fs), contraction_gauge(fs, hodge),
                  contraction_gauge(fs, random_contraction(tc, rng)),
                  contraction_gauge(fs, family(0.6)), _skewed(fs, hodge)]
        for gs in gauges:
            assert is_lagrangian(fs, gs) == _reference_report(fs, gs)
    # a rank-30 cat twist: dimension 240, many columns per slot
    tc = _cat_rank_twist(30, rng)
    fs = build_bf_fields(tc)
    assert sum(fs.dims) == 240
    for gs in (metric_gauge(fs), contraction_gauge(fs, hodge_contraction(tc))):
        rep = is_lagrangian(fs, gs)
        assert rep.ok
        assert rep == _reference_report(fs, gs)


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

    def stack(fields):
        return BFField(tuple(np.column_stack([f.a[k] for f in fields]) for k in range(fs.n + 1)),
                       tuple(np.column_stack([f.b[k] for f in fields]) for k in range(fs.n + 1)))

    pairwise = np.array([[fs.omega(v, w) for w in ws] for v in vs])
    stacked = fs.omega(stack(vs), stack(ws))
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
    dets = [abs(np.linalg.det(lie_operator_on_kernel(fs, c, k)))
            for k in range(3)]
    zs = closed_form_suspension(ToralAutomorphism(2, 1, 1, 1), math.pi, 0.0)
    assert dets[0] == pytest.approx(abs(zs.zeta0), rel=1e-12)
    assert dets[1] == pytest.approx(abs(zs.zeta1), rel=1e-12)
    assert dets[2] == pytest.approx(abs(zs.zeta2), rel=1e-12)
    z = partition_function(fs, contraction_gauge(fs, c))
    assert z == pytest.approx(abs(zs.full) ** (-1), rel=1e-10)


def test_non_coisometric_normalised_contraction_deviates():
    # iota a = id holds but |iota| != 1: outside the unitary-normalised class,
    # the declared Jacobian 1 no longer matches the parametrisation volume
    tc = circle_complex(math.pi)
    fs = build_bf_fields(tc)
    iota = [np.zeros((0, 1)), np.array([[2.0 + 0.0j]])]
    a_maps = [np.array([[0.5 + 0.0j]]), np.zeros((0, 1))]
    c = Contraction(iota, a_maps)
    z = partition_function(fs, contraction_gauge(fs, c))
    assert abs(z / 2.0 - 1.0) > 0.3


@pytest.mark.parametrize("a_maps", [
    [np.array([[2.0]]), np.zeros((0, 1))],     # iota o a = 2 on ker iota_0 = C^1
    [np.array([[1.0]]), np.zeros((0, 2))],     # top zero map out of C^2, not C^1
    [np.array([[1.0]])],                        # one map short
])
def test_contraction_validates_on_construction(a_maps):
    with pytest.raises(DegenerateContractionError):
        Contraction([np.zeros((0, 1)), np.array([[1.0]])], a_maps)


def test_contraction_gauge_rejects_mismatched_dims():
    # a valid contraction of C^2 -> C^2 offered to the (1, 1) circle space:
    # the arity matches, the shapes do not
    fs = build_bf_fields(circle_complex(math.pi))
    c = Contraction([np.zeros((0, 2)), np.eye(2)], [np.eye(2), np.zeros((0, 2))])
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
    fam = unitary_contraction_family(tc, hodge_contraction(tc), rng)
    scan = homotopy_scan(fs, fam, samples=10)
    assert scan.max_relative_deviation < 1e-9
    assert len(scan.samples) == 10


def test_homotopy_scan_isotropy_is_the_lagrangian_report():
    rng = np.random.default_rng(11)
    for tc in (random_twisted_complex(rng, top_degree=3, max_cells=4, rank=2),
               mapping_torus_complex(CAT, 2.0), _cat_rank_twist(4, rng)):
        fs = build_bf_fields(tc)
        fam = unitary_contraction_family(tc, hodge_contraction(tc), rng)
        scan = homotopy_scan(fs, fam, samples=5)
        for t, _, residual in scan.samples:
            want = is_lagrangian(fs, contraction_gauge(fs, fam(t))).isotropy_subspace
            assert residual.hex() == want.hex()


def test_homotopy_scan_takes_no_cross_pairing_svd(monkeypatch):
    # a scan factorises its gauges and partition functions, and nothing more
    rng = np.random.default_rng(12)
    tc = random_twisted_complex(rng, top_degree=3, max_cells=4, rank=2)
    fs = build_bf_fields(tc)
    fam = unitary_contraction_family(tc, hodge_contraction(tc), rng)
    calls = Counter()
    real_svd = np.linalg.svd

    def counting(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "zetabf.bv":
            calls["svd"] += 1
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    ts = [i / 4 for i in range(5)]
    for t in ts:
        partition_function(fs, contraction_gauge(fs, fam(t)))
    per_gauge = calls["svd"]
    calls.clear()
    homotopy_scan(fs, fam, samples=len(ts))
    assert per_gauge > 0
    assert calls["svd"] == per_gauge


def test_homotopy_scan_constant_family():
    tc = mapping_torus_complex(CAT, math.pi)
    fs = build_bf_fields(tc)
    c = hodge_contraction(tc)
    scan = homotopy_scan(fs, lambda t: c, samples=5)
    assert scan.max_relative_deviation == 0.0


def test_homotopy_scan_degenerate_crossing():
    # (1,2,1) acyclic complex with a rotating contraction that crosses a
    # degenerate direction: L|ker vanishes when tan(angle) = -a/b
    d0 = np.array([[1.0], [1.0]])
    d1 = np.array([[-1.0, 1.0]])
    from zetabf.complexes import TwistedComplex
    tc = TwistedComplex([d0, d1])
    fs = build_bf_fields(tc)

    def family(t):
        phi = t * math.pi        # crosses phi = 3*pi/4 where cos+sin = 0
        row = np.array([[math.cos(phi), math.sin(phi)]])
        ker = np.array([[-math.sin(phi)], [math.cos(phi)]])
        iota = [np.zeros((0, 1)), row, ker]   # iota_2 maps C^2 onto ker(iota_1)
        a_maps = [iota[1].conj().T, iota[2].conj().T, np.zeros((0, 1))]
        return Contraction(iota, a_maps)

    with pytest.raises(DegenerateContractionError) as err:
        homotopy_scan(fs, family, samples=5)
    assert err.value.t is not None


def test_gauge_polarization_names():
    tc = circle_complex(math.pi)
    fs = build_bf_fields(tc)
    chart, on_vars = gauge_polarization(fs, metric_gauge(fs))
    assert set(on_vars) == {"a0_0", "b1_0"}
    assert len(chart.pairs) == 2
