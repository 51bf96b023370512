"""Ruelle zeta evaluations against closed-form resummation oracles."""

import cmath
import math

import pytest

from zetabf.errors import DivergentRegionError, NotAcyclicError, SupportTooWideError
from zetabf.orbits import OrbitData, OrbitRecord, ToralAutomorphism, suspension_orbits
from zetabf.zeta import (
    BumpSpec,
    closed_form_suspension,
    decomposition_residual,
    flat_trace_pairing,
    fried_residual,
    log_zeta_full,
    log_zeta_k,
    mellin_log_zeta,
    zeta_grid_rows,
    zeta_value_at_zero,
)

CAT = ToralAutomorphism(2, 1, 1, 1)
DATA = suspension_orbits(CAT, 40)


def resummed_log_zeta_k(theta, lam, k):
    """Oracle: scalar eigenvalue resummation of the k-form factor."""
    z = cmath.exp(1j * theta - lam)
    mu = CAT.expanding_eigenvalue
    if k == 0:
        return cmath.log(1 - z)
    if k == 1:
        return cmath.log(1 - z * mu) + cmath.log(1 - z / mu)
    return cmath.log(1 - z)          # det A = 1 for the cat map


def test_log_zeta0_matches_closed_form():
    ev = log_zeta_k(DATA, 0.0, 1.0, 0, J=40)
    assert ev.value == pytest.approx(math.log(1 - math.exp(-1.0)), abs=1e-12)
    assert abs(ev.value - resummed_log_zeta_k(0.0, 1.0, 0)) < ev.truncation_error_bound + 1e-13


def test_k2_equals_k0_for_cat_map():
    e0 = log_zeta_k(DATA, 0.4, 2.0, 0, J=30)
    e2 = log_zeta_k(DATA, 0.4, 2.0, 2, J=30)
    assert e0.value == e2.value


def test_k1_matches_closed_form():
    ev = log_zeta_k(DATA, math.pi, 3.0, 1, J=40)
    assert ev.value == pytest.approx(resummed_log_zeta_k(math.pi, 3.0, 1), abs=1e-12)


def test_full_zeta_single_orbit_toy():
    rec = OrbitRecord(length=1.7, count=1, eig_expanding=3.0,
                      eig_contracting=1 / 3.0, holonomy=1.0 + 0j)
    data = OrbitData((rec,))
    lam = 2.0
    ev = log_zeta_full(data, 0.0, lam, J=200)
    assert ev.value == pytest.approx(cmath.log(1 - cmath.exp(-lam * 1.7)), abs=1e-12)


def test_full_zeta_two_orbit_file(tmp_path):
    from zetabf.orbits import load_orbit_spectrum
    path = tmp_path / "two.txt"
    path.write_text("1.0 1 1.0 0.0 3.0 0.3333333333333333 1\n"
                    "2.0 1 -1.0 0.0 9.0 0.1111111111111111 1\n")
    data = load_orbit_spectrum(path)
    lam = 1.5
    ev = log_zeta_full(data, 0.0, lam, J=300)
    hand = cmath.log(1 - cmath.exp(-lam)) + cmath.log(1 + cmath.exp(-2 * lam))
    assert ev.value == pytest.approx(hand, abs=1e-12)


def test_decomposition_residuals():
    for lam in (2.0, 3.0, 3 + 2j):
        assert decomposition_residual(DATA, 0.9, lam, J=30) < 1e-12


def test_decomposition_from_file_data(tmp_path):
    from zetabf.orbits import load_orbit_spectrum, write_orbit_spectrum
    path = tmp_path / "cat.txt"
    write_orbit_spectrum(path, suspension_orbits(CAT, 8).records, theta=0.6)
    data = load_orbit_spectrum(path)
    assert decomposition_residual(data, 0.0, 2.5, J=8) < 1e-10


def test_divergent_region_raises():
    with pytest.raises(DivergentRegionError):
        log_zeta_full(DATA, 0.0, 0.3, J=20)    # below entropy log mu ~ 0.96
    with pytest.raises(DivergentRegionError):
        log_zeta_k(DATA, 0.0, -0.5, 0, J=20)


def test_tail_bound_certifies_truncation():
    for lam in (1.2, 2.0, 4.0):
        for k in (0, 1, 2):
            if k == 1 and lam < 1.5:
                continue
            coarse = log_zeta_k(DATA, 0.5, lam, k, J=12)
            exact = resummed_log_zeta_k(0.5, lam, k)
            assert abs(coarse.value - exact) <= coarse.truncation_error_bound + 1e-13


def test_flat_trace_bump_at_first_orbit():
    val = flat_trace_pairing(DATA, 0.0, 0, BumpSpec(1.0, 0.05))
    assert val == pytest.approx(1.0, abs=1e-12)


def test_flat_trace_between_orbit_times():
    val = flat_trace_pairing(DATA, 0.0, 0, BumpSpec(1.5, 0.05))
    assert val == 0.0


def test_flat_trace_bump_at_two():
    # (j0=1, j=2) contributes 1 * 1/5 and two primitive period-2 orbits
    # contribute 2 * (2/5) in total
    val = flat_trace_pairing(DATA, 0.0, 0, BumpSpec(2.0, 0.05))
    assert val == pytest.approx(1.0, abs=1e-12)


def test_flat_trace_support_guard():
    with pytest.raises(SupportTooWideError):
        flat_trace_pairing(DATA, 0.0, 0, BumpSpec(0.2, 0.05))


def test_mellin_route_matches_direct():
    for lam, k in ((2.0, 0), (4.0, 1), (3.0, 2)):
        direct = log_zeta_k(DATA, 0.0, lam, k, J=40).value
        mellin = mellin_log_zeta(DATA, 0.0, lam, k, J=40)
        assert abs(direct - mellin) < 1e-8
    assert mellin_log_zeta(DATA, 0.0, 2.0, 0, J=40) == pytest.approx(
        math.log(1 - math.exp(-2.0)), abs=1e-8)


def test_mellin_real_for_real_inputs():
    val = mellin_log_zeta(DATA, 0.0, 2.5, 0, J=30)
    assert abs(val.imag) < 1e-12


def test_closed_form_values():
    zs = closed_form_suspension(CAT, math.pi, 0.0)
    assert zs.zeta0 == pytest.approx(2.0)
    assert zs.zeta2 == pytest.approx(2.0)
    assert zs.zeta1 == pytest.approx(5.0)
    assert abs(zs.full) ** (-1) == pytest.approx(0.8)


def test_closed_form_degenerates_at_trivial_twist():
    zs = closed_form_suspension(CAT, 0.0, 0.0)
    assert abs(zs.zeta0) < 1e-14
    with pytest.raises(NotAcyclicError):
        zeta_value_at_zero(CAT, 0.0)


def test_closed_form_matches_truncated_products():
    for lam in (3.0, 4.0):
        for theta in (0.0, math.pi / 2):
            zs = closed_form_suspension(CAT, theta, lam)
            ev = log_zeta_full(DATA, theta, lam, J=40)
            assert cmath.exp(ev.value) == pytest.approx(zs.full, rel=1e-10)


def test_fried_residuals():
    for theta in (math.pi / 2, 2 * math.pi / 3, math.pi):
        assert fried_residual([[2, 1], [1, 1]], theta) < 1e-10
    assert fried_residual([[3, 1], [2, 1]], math.pi) < 1e-10


def test_fried_sign_convention():
    # with the frozen sign the anchor matches; flipping it breaks the match
    assert fried_residual([[2, 1], [1, 1]], math.pi, sign=-1) < 1e-10
    assert fried_residual([[2, 1], [1, 1]], math.pi, sign=+1) > 0.3


def test_fried_requires_acyclic_twist():
    with pytest.raises(NotAcyclicError):
        fried_residual([[2, 1], [1, 1]], 0.0)


def test_vanishing_zeta2_raises():
    # det A = -1, so zeta_2 = 1 - det(A) z = 1 + z vanishes at theta = pi
    flip = ToralAutomorphism.from_matrix([[3, 1], [1, 0]])
    with pytest.raises(NotAcyclicError) as err:
        zeta_value_at_zero(flip, math.pi)
    assert "zeta_2" in str(err.value)
    assert err.value.betti == (0, 0, 1, 1)
    with pytest.raises(NotAcyclicError) as err:
        fried_residual([[3, 1], [1, 0]], math.pi)
    assert "zeta_2" in str(err.value)
    # away from the zero the value stays finite and Fried's identity holds
    assert abs(zeta_value_at_zero(flip, 2.0)) < 10.0
    assert fried_residual([[3, 1], [1, 0]], 2.0) < 1e-10


def test_zeta_grid_rows_flag_divergence():
    rows = zeta_grid_rows(DATA, 0.0, [0.3 + 0j, 3.0 + 0j], [0, "full"], 20)
    assert len(rows) == 4
    statuses = [r.split(",")[-1] for r in rows]
    assert statuses == ["ok", "divergent", "ok", "ok"]
