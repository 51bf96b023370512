"""Ruelle zeta evaluations against closed-form resummation oracles."""

import cmath
import gc
import math
import time
import weakref
from collections import Counter

import numpy as np
import pytest
from scipy.special import rgamma

from zetabf import zeta
from zetabf.complexes import mapping_torus_complex
from zetabf.errors import (DivergentRegionError, NotAcyclicError, SupportTooWideError,
                           ValidationError)
from zetabf.orbits import (
    OrbitData,
    OrbitRecord,
    ToralAutomorphism,
    load_orbit_spectrum,
    g17,
    poincare_data,
    suspension_orbits,
    write_orbit_spectrum,
)
from zetabf.verification import fried_residual
from zetabf.zeta import (
    GRID_HEADER,
    BumpSpec,
    closed_form_suspension,
    decomposition_residual,
    flat_trace_pairing,
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


@pytest.mark.parametrize("k", [0, 1, 2, "full"])
@pytest.mark.parametrize("complete_to, J", [(5, 40), (5, 5), (12, 64), (1, 12)])
def test_tail_bound_covers_orbits_above_complete_to(k, complete_to, J):
    # J above complete_to sums no primitive orbit of period in (complete_to, J]:
    # the certificate bounds the windings above complete_to
    data = suspension_orbits(CAT, complete_to)
    theta, lam = 0.9, 3.0
    zs = closed_form_suspension(CAT, theta, lam)
    exact = cmath.log({0: zs.zeta0, 1: zs.zeta1, 2: zs.zeta2, "full": zs.full}[k])
    ev = log_zeta_full(data, theta, lam, J) if k == "full" else log_zeta_k(data, theta, lam, k, J)
    assert abs(ev.value - exact) <= ev.truncation_error_bound + 1e-13


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


@pytest.mark.parametrize("k", [-1, 3, 5, 1.5, "1"])
@pytest.mark.parametrize("route", [
    lambda k: flat_trace_pairing(suspension_orbits(CAT, 8), 0.3, k, BumpSpec(0.5, 0.04)),
    lambda k: log_zeta_k(DATA, 0.3, 3.0, k),
    lambda k: mellin_log_zeta(DATA, 0.3, 3.0, k),
    lambda k: poincare_data(CAT, 1, k),
], ids=["flat_trace_pairing", "log_zeta_k", "mellin_log_zeta", "poincare_data"])
def test_degree_outside_the_forms_is_refused(route, k):
    # the bump at 0.5 holds no orbit time, so no term would check k
    with pytest.raises(ValidationError, match="k: must be an integer in"):
        route(k)


def test_flat_trace_support_guard():
    with pytest.raises(SupportTooWideError):
        flat_trace_pairing(DATA, 0.0, 0, BumpSpec(0.2, 0.05))


def test_flat_trace_refuses_times_beyond_the_complete_periods(tmp_path):
    # the bump reaches t = 18: the period-8 spectrum misses the primitive
    # orbits of periods 9..18, and used to give -0.00459 - 0.00128i in silence
    bump = BumpSpec(12.0, 1.0)
    with pytest.raises(SupportTooWideError, match="complete to period 8"):
        flat_trace_pairing(suspension_orbits(CAT, 8), 0.3, 0, bump)
    val = flat_trace_pairing(suspension_orbits(CAT, 20), 0.3, 0, bump)
    assert val == pytest.approx(-2.148929420133712 - 1.0604251739217383j, abs=1e-12)
    # an ingested spectrum carries no completeness claim and is paired as it is
    path = tmp_path / "spectrum.txt"
    write_orbit_spectrum(path, suspension_orbits(CAT, 8).records, theta=0.3)
    val = flat_trace_pairing(load_orbit_spectrum(path), 0.3, 0, bump)
    assert val == pytest.approx(-0.004593896480999609 - 0.0012808678013834847j, abs=1e-15)


def reference_flat_trace(data, theta, k, bump):
    """The pairing as the walk from j = 1 that skips times below the support."""
    lo, hi = bump.support
    total = 0.0 + 0.0j
    for rec in sorted(data.records, key=lambda r: (r.length, r.count)):
        j = 1
        while j * rec.length <= hi:
            t = j * rec.length
            if t >= lo:
                total += (rec.count * rec.length * bump(t)
                          * reference_holonomy(rec, theta) ** j * reference_weight(rec, j, k))
            j += 1
    return total


def short_record(length):
    return OrbitRecord(length, 1, 1.000001, 1 / 1.000001, holonomy=cmath.exp(0.3j))


def test_flat_trace_walk_starts_inside_the_support():
    # each record's walk starts at its first repetition inside the support:
    # the same times in the same order as the walk from j = 1, bit for bit.
    # Around [1.4, 2.6], the four lengths near 1.4/35, 1.4/51, 2.6/61 and
    # 2.6/67 put a time an ulp from an end, where ceil(lo / l) or
    # floor(hi / l) is one repetition off and is corrected
    bump = BumpSpec(2.0, 0.1)
    records = tuple(map(short_record, (0.039999999999999994, 0.02745098039215686,
                                       0.042622950819672135, 0.038805970149253737,
                                       3e-4, 1e-3, 0.1, 5.0)))
    data = OrbitData(records + HAND_RECORDS)
    for k in (0, 1, 2):
        for theta in (0.0, 1.1):
            assert bits(flat_trace_pairing(data, theta, k, bump)) == bits(
                reference_flat_trace(data, theta, k, bump)), (k, theta)
    data = suspension_orbits(CAT, 20)
    for bump in (BumpSpec(2.0, 0.05), BumpSpec(7.3, 0.4), BumpSpec(12.0, 1.0)):
        assert bits(flat_trace_pairing(data, 0.3, 1, bump)) == bits(
            reference_flat_trace(data, 0.3, 1, bump))


def test_flat_trace_refuses_too_many_orbit_times():
    # a record of length 1e-6 puts 1,200,001 times in [1.4, 2.6]: its walk
    # took 2 s (0.17 s at 1e-5), and hours on shorter records
    bump = BumpSpec(2.0, 0.1)
    for length in (1e-5, 1e-6, 1e-12):
        start = time.perf_counter()
        with pytest.raises(SupportTooWideError, match="more than 100000 orbit times"):
            flat_trace_pairing(OrbitData((short_record(length),)), 0.0, 0, bump)
        assert time.perf_counter() - start < 0.05
    # the budget counts the times of every record together
    lo, hi = bump.support
    per_record = len(range(math.ceil(lo / 1e-4), math.floor(hi / 1e-4) + 1))
    fits = zeta.FLAT_TRACE_TERM_BUDGET // per_record
    records = tuple(short_record(1e-4 * (1 + 1e-12 * i)) for i in range(fits + 1))
    assert flat_trace_pairing(OrbitData(records[:1]), 0.0, 0, bump) != 0
    with pytest.raises(SupportTooWideError, match="orbit times"):
        flat_trace_pairing(OrbitData(records), 0.0, 0, bump)
    # past 2^53 repetitions the times j * length are no longer apart
    with pytest.raises(SupportTooWideError, match="2\\^53"):
        flat_trace_pairing(OrbitData((short_record(1e-300),)), 0.0, 0, bump)


def test_mellin_route_matches_direct():
    """The finite-difference Mellin route lands on the direct sum.

    F(s) = S(s)/Gamma(s), S(s) = sum amp t^(s-1), is entire.  On |s| = 1/2,
    |S| <= M = sum |amp| max(t^(-1/2), t^(-3/2)) and |1/Gamma| <= 0.62 (it
    peaks at 0.6199, by mpmath), so Cauchy's estimate gives
    |F^(m)(0)| / m! <= 0.62 M 2^m.  The Richardson step
    (4 D(h/2) - D(h)) / 3 of central differences D is F'(0) plus
    sum_(odd m >= 5) c_m F^(m)(0) h^(m-1) / m! with |c_m| <= 1/3: a
    truncation of at most 0.62 M 2^5 h^4 / (3 (1 - 4 h^2)).  Rounding: each
    term of S(+-sigma), sigma in {h, h/2}, and of the direct sum, is within
    about (2 log2 J + 10) eps of exact (hol^j by binary exponentiation, then
    a handful of products, exp, pow and a division), and a left-to-right sum
    of n terms adds n eps, relative to R = sum |amp| max(t^(h-1), t^(-h-1)).
    The classical eps |F| / h is eps R here, since |F(+-sigma)| carries
    |1/Gamma(sigma)| <= 1.0001 sigma; the weights 4/3 and 1/3 add at most
    5/3.  With the direct sum's own rounding: (5/3 + 1) (n + 2 log2 J + 12) eps R.
    """
    h, J = 1e-4, 40
    for data in (DATA, OrbitData(HAND_RECORDS)):
        for theta, lam in ((0.0, 2.0), (0.0, 4.0), (2.5, 3 + 2j)):
            for k in (0, 1, 2):
                terms = mellin_terms(data, theta, lam, k, J)
                m = sum(abs(amp) * max(t ** -0.5, t ** -1.5) for t, amp in terms)
                r = sum(abs(amp) * max(t ** (h - 1), t ** (-h - 1)) for t, amp in terms)
                bound = (0.62 * m * 2 ** 5 * h ** 4 / (3 * (1 - 4 * h ** 2))
                         + 8 / 3 * (len(terms) + 2 * math.log2(J) + 12) * 2.0 ** -52 * r)
                direct = log_zeta_k(data, theta, lam, k, J).value
                assert abs(reference_mellin(data, theta, lam, k, J) - direct) <= bound
                assert bound < 1e-12 * max(1.0, abs(direct))
                assert bits(mellin_log_zeta(data, theta, lam, k, J)) == bits(direct)
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


@pytest.mark.parametrize("matrix", [[[2, 1], [1, 1]], [[3, 1], [1, 0]]],
                         ids=["det_plus", "det_minus"])
def test_vanishing_zeta0_reports_betti_numbers(matrix):
    aut = ToralAutomorphism.from_matrix(matrix)
    for theta in (0.0, 2 * math.pi):
        with pytest.raises(NotAcyclicError) as err:
            zeta_value_at_zero(aut, theta)
        assert "zeta_0 vanishes" in str(err.value)
        assert err.value.betti == mapping_torus_complex(matrix, theta).betti_numbers()


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
    assert all(len(r) == len(GRID_HEADER) for r in rows)
    statuses = [r[-1] for r in rows]
    assert statuses == ["ok", "divergent", "ok", "ok"]


# -- the term table against a term-by-term loop -----------------------------------


def reference_terms(data, J):
    out = []
    for rec in sorted(data.records, key=lambda r: (r.length, r.count)):
        if data.is_suspension and rec.period is not None:
            reps = range(1, J // rec.period + 1)
        else:
            reps = range(1, J + 1)
        for j in reps:
            out.append((rec, j))
    return out


def reference_holonomy(rec, theta):
    """A record's holonomy under the twist theta, written out for the loops."""
    if rec.holonomy is None:
        return cmath.exp(1j * theta * rec.period)
    return rec.holonomy


def reference_weight(rec, j, k):
    """tr Lambda^k P^j / |det(I - P^j)| of one term, written out for the loops."""
    eu = rec.eig_expanding ** j
    es = rec.eig_contracting ** j
    trace = (1.0, eu + es, eu * es)[k]
    return trace / abs((1.0 - eu) * (1.0 - es))


def reference_record_tail(rec, lam, k, j_min):
    """Tail of the repetition sum j >= j_min for one record."""
    eu, es = abs(rec.eig_expanding), abs(rec.eig_contracting)
    inv_det = 1.0 / ((eu - 1.0) * (1.0 - es))
    q = math.exp(-lam.real * rec.length)
    if k == "full":
        ratio, weight = q, 1.0
    elif k == 1:
        ratio, weight = q * eu, 2.0 * inv_det
    else:
        ratio, weight = q, inv_det
    if ratio >= 1.0:
        raise DivergentRegionError(lam)
    return rec.count * weight * ratio ** j_min / (j_min * (1.0 - ratio))


def reference_log_zeta(data, theta, lam, k, J):
    """The orbit sum as a plain Python loop: value and certificate."""
    if data.is_suspension:
        tail = zeta._suspension_tail(data, lam, k, J)
    else:
        tail = sum(reference_record_tail(rec, lam, k, J + 1) for rec in data.records)
    if not math.isfinite(tail):
        raise DivergentRegionError(lam)
    total = 0.0 + 0.0j
    for rec, j in reference_terms(data, J):
        hol = reference_holonomy(rec, theta) ** j
        damp = cmath.exp(-lam * j * rec.length)
        weight = 1.0 if k == "full" else reference_weight(rec, j, k)
        total += -rec.count * hol * damp * weight / j
    return total, tail


def mellin_terms(data, theta, lam, k, J):
    """(t, amp) per orbit term of S(s) = sum amp t^(s-1), t = j l."""
    terms = []
    for rec, j in reference_terms(data, J):
        t = j * rec.length
        amp = (rec.count * rec.length * reference_holonomy(rec, theta) ** j
               * cmath.exp(-lam * t) * reference_weight(rec, j, k))
        terms.append((t, amp))
    return terms


def reference_mellin(data, theta, lam, k, J, h=1e-4):
    """-d/ds [S(s)/Gamma(s)] at s = 0 by central differences at h and h/2
    and one Richardson step: the finite-difference Mellin route."""
    terms = mellin_terms(data, theta, lam, k, J)

    def f(s):
        return rgamma(s) * sum(amp * t ** (s - 1.0) for t, amp in terms)

    def diff(step):
        return (f(step) - f(-step)) / (2 * step)

    return -(4 * diff(h / 2) - diff(h)) / 3


def bits(z):
    """Float hex of both parts, so signed zeros count too."""
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def outcome(fn, *args):
    try:
        return fn(*args)
    except (OverflowError, DivergentRegionError) as exc:
        return type(exc)


def caught(fn, *args):
    """fn's value, or the OverflowError or DivergentRegionError it raised."""
    try:
        return fn(*args)
    except (OverflowError, DivergentRegionError) as exc:
        return exc


def same_failure(got, want):
    return type(got) is type(want) and got.args == want.args


def grid_row(lam, k, J, want):
    """The zeta_grid_rows row of one reference outcome."""
    if isinstance(want, DivergentRegionError):
        fields = ("nan", "nan", "inf", str(J), "divergent")
    else:
        value, tail = want
        fields = (g17(value.real), g17(value.imag), g17(tail), str(J), "ok")
    return (g17(lam.real), g17(lam.imag), str(k), *fields)


def reference_grid(lams, ks, J, wants):
    """zeta_grid_rows from the loop's outcomes ``wants[lambda index, k]``:
    its rows, or its first OverflowError in (lambda, k) order."""
    rows = []
    for i, lam in enumerate(lams):
        for k in ks:
            want = wants[i, k]
            if isinstance(want, OverflowError):
                return want
            rows.append(grid_row(lam, k, J, want))
    return rows


def check_table_against_loop(data, thetas, lams, Js):
    """Lone calls, the Mellin route, the grid and the decomposition residual
    against the term-by-term loop, bit for bit, failures included."""
    for J in Js:
        for theta in thetas:
            wants = {}
            for i, lam in enumerate(lams):
                for k in (0, 1, 2, "full"):
                    want = wants[i, k] = caught(reference_log_zeta, data, theta, lam, k, J)
                    ev = caught(zeta._log_zeta, data, theta, lam, k, J)
                    if isinstance(want, Exception):
                        assert same_failure(ev, want), (J, theta, lam, k)
                    else:
                        assert bits(ev.value) == bits(want[0]), (J, theta, lam, k)
                        assert ev.truncation_error_bound == want[1]
                    if k == "full":
                        continue
                    got = caught(mellin_log_zeta, data, theta, lam, k, J)
                    if isinstance(want, Exception):
                        assert same_failure(got, want), (J, theta, lam, k)
                    else:
                        assert bits(got) == bits(ev.value), (J, theta, lam, k)
            for ks in ((0, 1, 2, "full"), ("full", 2, 1, 0)):
                want = reference_grid(lams, ks, J, wants)
                got = caught(zeta_grid_rows, data, theta, lams, ks, J)
                if isinstance(want, OverflowError):
                    assert same_failure(got, want), (J, theta, ks)
                else:
                    assert got == want, (J, theta, ks)
            for i, lam in enumerate(lams):
                # the first failure of full, 0, 1, 2, else the residual of
                # the loop's sums, formed as the package forms it
                failures = [wants[i, k] for k in ("full", 0, 1, 2)
                            if isinstance(wants[i, k], Exception)]
                got = caught(decomposition_residual, data, theta, lam, J)
                if failures:
                    assert same_failure(got, failures[0]), (J, theta, lam)
                else:
                    alternating = sum((-1) ** k * wants[i, k][0] for k in (0, 1, 2))
                    want = abs(-1 * wants[i, "full"][0] - alternating)
                    assert got.hex() == want.hex(), (J, theta, lam)


POOL = [(2, 1, 1, 1), (3, 1, 2, 1), (3, 1, 1, 0), (4, 1, 1, 0)]
THETAS = (0.0, math.pi / 2, math.pi)
LAMS = (2.5 + 0j, 3 + 2j, 4.0, 0.5)


@pytest.mark.parametrize("matrix", POOL, ids=[f"{m[0]}{m[1]}{m[2]}{m[3]}" for m in POOL])
def test_term_table_matches_loop_on_suspensions(matrix):
    # J = 130 runs repetitions above 100, where Python's complex ** switches
    # from binary exponentiation to exp/log
    aut = ToralAutomorphism(*matrix, roof=1.3)
    check_table_against_loop(suspension_orbits(aut, 40), THETAS, LAMS, (12, 40))
    check_table_against_loop(suspension_orbits(aut, 64), THETAS, LAMS, (64, 130))


@pytest.mark.parametrize("matrix", POOL, ids=[f"{m[0]}{m[1]}{m[2]}{m[3]}" for m in POOL])
def test_term_table_matches_loop_on_loaded_spectra(tmp_path, matrix):
    # complex holonomies and no periods: every record repeats J times, and the
    # Poincare powers overflow on the long truncations as they do term by term
    path = tmp_path / "spectrum.txt"
    write_orbit_spectrum(path, suspension_orbits(ToralAutomorphism(*matrix), 6).records,
                         theta=2.2)
    check_table_against_loop(load_orbit_spectrum(path), (0.0, 1.0), LAMS, (12, 40, 64, 130))


# real holonomies are stored as complex numbers; periods twist with theta;
# the short records keep repetitions above 100 significant in the sum
HAND_RECORDS = (
    OrbitRecord(length=1.7, count=3, eig_expanding=-3.0, eig_contracting=-1 / 3.0,
                holonomy=-1.0),
    OrbitRecord(length=0.9, count=2, eig_expanding=2.5, eig_contracting=0.4,
                holonomy=0.6 - 0.8j),
    OrbitRecord(length=2.2, count=1, eig_expanding=1.5, eig_contracting=1 / 1.5,
                period=3),
    OrbitRecord(length=0.004, count=2, eig_expanding=1.004, eig_contracting=1 / 1.004,
                holonomy=cmath.exp(0.3j)),
    OrbitRecord(length=0.005, count=1, eig_expanding=1.003, eig_contracting=1 / 1.003,
                holonomy=0.9999999995),
)


def test_term_table_matches_loop_on_hand_records():
    check_table_against_loop(OrbitData(HAND_RECORDS), (0.0, -0.0, 2.5), LAMS, (12, 130))
    check_table_against_loop(OrbitData(()), (0.0,), LAMS, (12,))


def test_record_tails_match_loop(tmp_path):
    # a 100-record spectrum; lambdas where no, some (k = 1) or all records
    # diverge, and where exp overflows beyond the first divergent record
    records = []
    for i, matrix in enumerate(POOL):
        aut = ToralAutomorphism(*matrix, roof=1.0 + 0.37 * i)
        records += suspension_orbits(aut, 25).records
    path = tmp_path / "spectrum.txt"
    write_orbit_spectrum(path, records, theta=0.7)
    data = load_orbit_spectrum(path)
    assert len(data.records) == 100
    for lam in (5.0, 2.5 + 1j, 1.2, 0.3, -300.0, -800.0):
        for k in (0, 1, 2, "full"):
            for J in (1, 12, 40):
                want = outcome(lambda: sum(reference_record_tail(rec, lam, k, J + 1)
                                           for rec in data.records))
                got = outcome(zeta._term_table(data, J).record_tails.tail, lam, k, J + 1)
                if isinstance(want, type):
                    assert got is want, (lam, k, J)
                else:
                    assert got.hex() == want.hex(), (lam, k, J)


def test_term_table_holonomy_factor_matches_scalar_power():
    # -count * holonomy ** j per term, as Python forms it: binary
    # exponentiation up to j = 100, exp/log above
    data = OrbitData(HAND_RECORDS)
    table = zeta._TermTable(data, 130)
    for theta in (0.0, 2.5):
        re, im = table._times_holonomy(table.neg_count[table.rec], slice(None), theta)
        for i, (rec, j) in enumerate(reference_terms(data, 130)):
            want = -rec.count * reference_holonomy(rec, theta) ** j
            assert bits(complex(re[i], im[i])) == bits(want), (rec, j)


def test_term_table_matches_loop_on_a_fine_grid():
    # many distinct leading exponentials: numpy's exp differs from libm's in
    # the last bit on a few percent of them
    lams = [complex(x, y) for x in (2.0, 2.3, 2.7, 3.1, 3.6, 4.2, 5.5)
            for y in (0.0, 0.7)]
    data = suspension_orbits(ToralAutomorphism(3, 1, 1, 0, roof=0.37), 12)
    check_table_against_loop(data, (0.0, 0.9, 2.0), lams, (12,))


def test_term_table_blocks_match_loop(monkeypatch):
    # a table longer than one block carries its sums across the blocks
    monkeypatch.setattr(zeta, "_BLOCK", 7)
    check_table_against_loop(suspension_orbits(CAT, 40), (1.0,), (3 + 2j, 2.0), (40,))


def test_term_table_caches_follow_any_call_order(monkeypatch):
    # one table per data across k sweeps, theta switches, float and complex
    # lambda and both signs of a zero imaginary part, in blocks of 7 terms
    monkeypatch.setattr(zeta, "_BLOCK", 7)
    lams = (3.0, 3 + 0j, complex(3.0, -0.0), 3 + 2j, 3.0, complex(3.0, -0.0), 2.5 - 1j)
    thetas = (1.0, 0.0, -0.0, 1.0)
    for data in (suspension_orbits(CAT, 40), OrbitData(HAND_RECORDS)):
        check_table_against_loop(data, thetas, lams, (40, 12, 40))
        check_table_against_loop(data, thetas[::-1], lams[::-1], (12,))
    # the kept point's sums themselves, signs of zeros included, against
    # fresh tables: a float and a complex lambda, and imaginary parts +0.0
    # and -0.0, take different amplitude paths for real holonomies
    data = OrbitData(HAND_RECORDS + (
        OrbitRecord(length=1.3, count=1, eig_expanding=3.0, eig_contracting=1 / 3.0,
                    holonomy=complex(-1.0, -0.0)),))
    table = zeta._term_table(data, 40)
    for theta in thetas:
        for lam in lams:
            for k in ("full", 0, 1, 2):
                got = table.point(theta, lam, k)
                want = zeta._TermTable(data, 40).point(theta, lam, k)
                assert bits(got) == bits(want), (theta, lam, k)


def test_term_table_computes_each_value_once(monkeypatch):
    # a k = 0, 1, 2, full sweep at one (theta, lambda) forms one amplitude,
    # which the Mellin route shares; the Poincare powers are formed once per table
    calls = Counter()
    exp_neg = zeta._exp_neg

    def counting_exp_neg(*args):
        calls["exp_neg"] += 1
        return exp_neg(*args)

    def counting_pow(*args):
        calls["pow"] += 1
        return pow(*args)

    monkeypatch.setattr(zeta, "_exp_neg", counting_exp_neg)
    monkeypatch.setattr(zeta, "pow", counting_pow, raising=False)
    data = suspension_orbits(CAT, 40)
    table = zeta._term_table(data, 40)
    assert table.size <= zeta._BLOCK
    pows = []
    for theta, lam in ((0.5, 3.0 + 0j), (1.5, 2.5 + 1j), (1.5, 2.5 + 1j)):
        calls.clear()
        for k in (0, 1, 2, "full"):
            if k == "full":
                log_zeta_full(data, theta, lam, J=40)
            else:
                log_zeta_k(data, theta, lam, k, J=40)
                mellin_log_zeta(data, theta, lam, k, J=40)
        pows.append(calls["pow"])
        assert calls["exp_neg"] == (1 if len(pows) < 3 else 0)
    # two Poincare powers per term, all in the first sweep
    assert pows == [2 * table.size, 0, 0]


def test_decomposition_sweeps_its_point_once(monkeypatch):
    # the residual certifies full, 0, 1, 2 and sums them in one sweep of
    # its point, which the Mellin route and the lone calls then read
    exponentials = []
    exp_neg = zeta._exp_neg

    def counting_exp_neg(*args):
        exponentials.append(args[0])
        return exp_neg(*args)

    monkeypatch.setattr(zeta, "_exp_neg", counting_exp_neg)
    data = suspension_orbits(CAT, 40)
    assert zeta._term_table(data, 40).size <= zeta._BLOCK
    for lam in (3.0 + 0j, 2.5 - 1j):
        exponentials.clear()
        decomposition_residual(data, 0.9, lam, J=40)
        for k in (0, 1, 2):
            mellin_log_zeta(data, 0.9, lam, k, J=40)
            log_zeta_k(data, 0.9, lam, k, J=40)
        log_zeta_full(data, 0.9, lam, J=40)
        assert exponentials == [lam]


# -- the cut-off: a sweep forms only the terms that can change a sum -------------


def recording_exp_neg(monkeypatch):
    """Record (lambda, [(j, length), ...]) of every _exp_neg call."""
    calls = []
    exp_neg = zeta._exp_neg

    def recording(lam, jf, length):
        calls.append((lam, list(zip(jf.tolist(), length.tolist()))))
        return exp_neg(lam, jf, length)

    monkeypatch.setattr(zeta, "_exp_neg", recording)
    return calls


def formed_per_lambda(calls, n):
    """The (j, length) of the terms formed for each of a chunk's n lambdas,
    whose calls alternate."""
    return [[term for _, terms in calls[i::n] for term in terms] for i in range(n)]


def check_full_sweep_against_loop(data, theta, lams, J):
    """One sweep of ``lams`` over full, each sum against the loop's in float.hex."""
    sums = zeta._TermTable(data, J).sums(theta, list(lams), ["full"])
    for lam, got in zip(lams, sums[:, 0].tolist()):
        assert bits(got) == bits(reference_log_zeta(data, theta, lam, "full", J)[0]), lam


def hyperbolic_record(length, count, holonomy):
    return OrbitRecord(length=length, count=count, eig_expanding=3.0,
                       eig_contracting=1 / 3.0, holonomy=holonomy)


# A pair of records of equal length and count with holonomies h and -h, then
# records so long that their terms lie far below the pair's
CANCELLING = (hyperbolic_record(1.0, 2, cmath.exp(0.3j)),
              hyperbolic_record(1.0, 2, -cmath.exp(0.3j))) + tuple(
    hyperbolic_record(30.0 * i, 1, cmath.exp(0.7j * i)) for i in range(1, 5))


def test_cut_off_keeps_a_record_whose_sum_cancels_to_zero(monkeypatch):
    # with J = 1 the pair's terms are exact negatives and the running sum
    # returns to +0.0, where any term would change its bits: the long
    # records, whose terms lie far below the cut, fail their checks there;
    # the first two are formed (a slice of two), and the others then lie
    # below a quarter spacing of the sum
    monkeypatch.setattr(zeta, "_BLOCK", 2)
    data = OrbitData(CANCELLING)
    calls = recording_exp_neg(monkeypatch)
    check_full_sweep_against_loop(data, 0.0, (2.0, 2.0 + 0j), 1)
    for terms in formed_per_lambda(calls, 2):
        assert terms == [(1.0, 1.0), (1.0, 1.0), (1.0, 30.0), (1.0, 60.0)]
    check_table_against_loop(data, (0.0, 1.0), LAMS, (1,))


def test_cut_off_keeps_a_record_whose_sum_cancels_near_zero(monkeypatch):
    # at J = 40 and lambda = 5 the pair's odd repetitions cancel: after the
    # second record's kept terms the sum is near e^-5 of its first term, the
    # record fails its check and every repetition of it is formed
    monkeypatch.setattr(zeta, "_BLOCK", 16)
    data = OrbitData(CANCELLING)
    calls = recording_exp_neg(monkeypatch)
    check_full_sweep_against_loop(data, 0.0, (5.0, 5.0 + 0j), 40)
    for terms in formed_per_lambda(calls, 2):
        pair = Counter(j for j, length in terms if length == 1.0)
        assert set(pair) == set(range(1, 41)) and pair[40] == 1
        assert len(terms) < zeta._TermTable(data, 40).size
    check_table_against_loop(data, (0.0, 1.0), (5.0, 5 + 3j, 4.0), (40,))


def test_cut_off_bounds_a_record_by_its_largest_weight(monkeypatch):
    # the cancelling pair with eigenvalues near 1, whose weights reach about
    # 1e4 at j = 1: a bound without them skips terms that change the bits of
    # a grid's single-degree sums (at lambda = 8)
    monkeypatch.setattr(zeta, "_BLOCK", 16)
    pair = tuple(OrbitRecord(length=1.0, count=2, eig_expanding=1.01,
                             eig_contracting=1 / 1.01, holonomy=h)
                 for h in (cmath.exp(0.3j), -cmath.exp(0.3j)))
    data = OrbitData(pair + CANCELLING[2:])
    check_table_against_loop(data, (0.0,), (5.0, 8.0, 8 + 3j), (40,))
    lams = (8.0, 8.5)
    for k in (0, 1, 2):
        wants = {(i, k): caught(reference_log_zeta, data, 0.0, lam, k, 40)
                 for i, lam in enumerate(lams)}
        assert zeta_grid_rows(data, 0.0, lams, [k], 40) == reference_grid(lams, [k], 40, wants)


def test_cut_off_skips_nothing_while_an_imaginary_sum_is_zero(monkeypatch):
    # real holonomies at a float lambda: every imaginary part is +-0.0, so
    # the imaginary running sum stays a zero whose sign any term may change
    monkeypatch.setattr(zeta, "_BLOCK", 7)
    records = tuple(hyperbolic_record(length, count, complex(sign, 0.0))
                    for length, count, sign in ((0.8, 1, 1.0), (1.1, 3, -1.0),
                                                (9.0, 2, 1.0), (17.0, 1, -1.0)))
    data = OrbitData(records)
    calls = recording_exp_neg(monkeypatch)
    check_full_sweep_against_loop(data, 0.0, (3.0, 6.5), 40)
    for terms in formed_per_lambda(calls, 2):
        assert len(terms) == zeta._TermTable(data, 40).size
    check_table_against_loop(data, (0.0,), (3.0, 6.5), (40,))


def loaded_pool_spectrum(tmp_path, periods, roofs):
    """The POOL's suspension records at the given roofs, written and read back
    at theta = 2.2; the roofs keep every (length, j) of the table apart."""
    records = []
    for i, matrix in enumerate(POOL):
        for roof in roofs:
            aut = ToralAutomorphism(*matrix, roof=roof + 0.0131 * i)
            records += suspension_orbits(aut, periods).records
    path = tmp_path / "spectrum.txt"
    write_orbit_spectrum(path, records, theta=2.2)
    return load_orbit_spectrum(path)


def test_cut_off_matches_loop_at_complex_lambdas(tmp_path, monkeypatch):
    # complex lambdas, imaginary parts +0.0 and -0.0 among them, each on its
    # own amplitude path, with terms skipped
    monkeypatch.setattr(zeta, "_BLOCK", 64)
    data = loaded_pool_spectrum(tmp_path, 6, (1.0,))
    lams = (3 + 0j, complex(3.0, -0.0), 3 + 2j, 2.5 - 1j)
    calls = recording_exp_neg(monkeypatch)
    check_full_sweep_against_loop(data, 0.4, lams, 12)
    for terms in formed_per_lambda(calls, len(lams)):
        assert 0 < len(terms) < zeta._TermTable(data, 12).size
    check_table_against_loop(data, (0.4,), lams, (12,))


def test_a_grid_chunk_keeps_the_most_repetitions_of_its_lambdas(tmp_path, monkeypatch):
    # four lambdas of four degrees fill one chunk: it keeps, per record, the
    # most repetitions any of its lambdas keeps alone, and forms the same
    # terms for each
    monkeypatch.setattr(zeta, "_BLOCK", 64)
    data = loaded_pool_spectrum(tmp_path, 6, (1.0,))
    lams, ks, J = (6.0, 2.5 + 0j, 4.0 + 1j, 3.0), (0, 1, 2, "full"), 12
    size = zeta._term_table(data, J).size
    assert size > zeta._BLOCK
    wants = {(i, k): caught(reference_log_zeta, data, 0.4, lam, k, J)
             for i, lam in enumerate(lams) for k in ks}
    calls = recording_exp_neg(monkeypatch)
    assert zeta_grid_rows(data, 0.4, lams, ks, J) == reference_grid(lams, ks, J, wants)
    assert [lam for lam, _ in calls] == list(lams) * (len(calls) // len(lams))
    formed = formed_per_lambda(calls, len(lams))
    assert all(terms == formed[0] for terms in formed) and len(formed[0]) < size
    table = zeta._term_table(data, J)
    kept, _ = table._cut(0.4, list(lams), list(ks))
    alone = [table._cut(0.4, [lam], list(ks))[0] for lam in lams]
    assert kept.tolist() == np.maximum.reduce(alone).tolist()
    assert len(set(alone[0].tolist())) > 1 and alone[1].tolist() != alone[0].tolist()


def test_full_sweep_of_a_loaded_spectrum_forms_few_terms_once(tmp_path, monkeypatch):
    # above one block a full sweep at lambda = 3.5 passes under a tenth of
    # the table's terms to _exp_neg, none twice, and sums the loop's bits
    data = loaded_pool_spectrum(tmp_path, 12, (1.0, 1.3, 1.6))
    table = zeta._term_table(data, 40)
    assert table.size > zeta._BLOCK
    positions, passed = [], []
    terms, exp_neg = zeta._TermTable._terms, zeta._exp_neg

    def recording_terms(self, p, *args):
        positions.extend(p.tolist())
        return terms(self, p, *args)

    def counting_exp_neg(lam, jf, length):
        passed.append(jf.size)
        return exp_neg(lam, jf, length)

    monkeypatch.setattr(zeta._TermTable, "_terms", recording_terms)
    monkeypatch.setattr(zeta, "_exp_neg", counting_exp_neg)
    ev = log_zeta_full(data, 0.4, 3.5 + 0j, 40)
    assert sum(passed) == len(positions) < table.size / 10
    assert len(set(positions)) == len(positions)
    assert bits(ev.value) == bits(reference_log_zeta(data, 0.4, 3.5 + 0j, "full", 40)[0])


def loaded_cat_spectrum(tmp_path):
    """The period-6 cat-map spectrum written and read back, at theta = 0.7."""
    path = tmp_path / "spectrum.txt"
    write_orbit_spectrum(path, suspension_orbits(CAT, 6).records, theta=0.7)
    return load_orbit_spectrum(path)


def test_record_tails_formed_once_per_lambda_and_degree_class(tmp_path, monkeypatch):
    # on a loaded spectrum a k = 0, 1, 2, full sweep with the Mellin route at
    # one lambda forms three record-tail sums, k = 0 and 2 sharing one; a new
    # lambda forms them again.  At J = 130 the Poincare powers overflow after
    # the tail is formed, as they do on the benchmark's ingested spectrum.
    formed = []
    real_sum = zeta.RecordTails._sum

    def counting_sum(self, lam, k, j_min):
        formed.append(k)
        return real_sum(self, lam, k, j_min)

    monkeypatch.setattr(zeta.RecordTails, "_sum", counting_sum)
    data = loaded_cat_spectrum(tmp_path)
    for J, failure in ((12, None), (130, OverflowError)):
        for lam in (3.0 + 0j, 4.5 + 0j, 4.5 + 1j, 3.0 + 0j):
            formed.clear()
            got = [outcome(log_zeta_k, data, 0.4, lam, k, J) for k in (0, 1, 2)]
            got += [outcome(log_zeta_full, data, 0.4, lam, J)]
            got += [outcome(mellin_log_zeta, data, 0.4, lam, k, J) for k in (0, 1, 2)]
            assert formed == ([] if lam == 4.5 + 1j else [0, 1, "full"]), (J, lam)
            assert [g for g in got if isinstance(g, type)] == [failure] * (6 if failure else 0)


def test_poincare_powers_swept_once_per_table(tmp_path, monkeypatch):
    # at J = 130 the eigenvalue powers overflow.  The first evaluation that
    # needs them sweeps them up to the term that overflows; every later one
    # raises at once, with the args of the scalar ** that overflowed.  The
    # record tails raise to J + 1, so only powers j <= J are counted.
    J = 130
    swept = []

    def counting_pow(base, exp):
        if exp <= J:
            swept.append(exp)
        return pow(base, exp)

    data = loaded_cat_spectrum(tmp_path)
    with pytest.raises(OverflowError) as scalar:
        pow(max(r.eig_expanding for r in data.records), J)
    monkeypatch.setattr(zeta, "pow", counting_pow, raising=False)
    routes = [lambda lam, k=k: log_zeta_k(data, 0.4, lam, k, J) for k in (0, 1, 2)]
    routes += [lambda lam: log_zeta_full(data, 0.4, lam, J)]
    routes += [lambda lam, k=k: mellin_log_zeta(data, 0.4, lam, k, J) for k in (0, 1, 2)]
    sweeps, raised = [], []
    for lam in (3.0 + 0j, 4.5 + 0j, 4.5 + 1j):
        for route in routes:
            swept.clear()
            try:
                route(lam)
                raised.append(None)
            except OverflowError as exc:
                raised.append(exc.args)
            sweeps.append(len(swept))
    want = scalar.value.args
    assert want == (34, "Numerical result out of range")
    assert raised == [want, want, want, None, want, want, want] * 3
    assert 0 < sweeps[0] < len(data.records) * J
    assert sweeps[1:] == [0] * (len(sweeps) - 1)


def test_grid_raises_the_loops_overflow_at_its_first_row(tmp_path, monkeypatch):
    # at J = 130 the Poincare powers overflow.  At lambda = 0.5 the k = 1 row
    # diverges and the full row converges, so the first row to overflow is
    # (0.5, 0); the grid certifies its rows in (lambda, k) order and raises
    # there, with the loop's args, before it sums any row
    J, lams, ks = 130, (0.5 + 0j, 3.0 + 0j), ("full", 1, 0, 2)
    data = loaded_cat_spectrum(tmp_path)
    first = None
    for lam in lams:
        for k in ks:
            want = caught(reference_log_zeta, data, 0.4, lam, k, J)
            if isinstance(want, DivergentRegionError):
                assert (lam, k) == (0.5, 1)
            elif isinstance(want, OverflowError):
                first = first or (lam, k, want)
    assert first[:2] == (0.5, 0)
    certified, exponentials = [], []
    real_tail, real_exp_neg = zeta._tail, zeta._exp_neg

    def recording_tail(data, lam, k, J):
        certified.append((lam, k))
        return real_tail(data, lam, k, J)

    def counting_exp_neg(*args):
        exponentials.append(args[0])
        return real_exp_neg(*args)

    monkeypatch.setattr(zeta, "_tail", recording_tail)
    monkeypatch.setattr(zeta, "_exp_neg", counting_exp_neg)
    got = caught(zeta_grid_rows, data, 0.4, lams, ks, J)
    assert same_failure(got, first[2])
    assert certified == [(0.5, "full"), (0.5, 1), (0.5, 0)]
    assert exponentials == []
    # without the overflowing degrees the grid sums the full rows
    rows = zeta_grid_rows(data, 0.4, lams, ["full"], J)
    assert [r[-1] for r in rows] == ["ok", "ok"]
    assert exponentials == list(lams)


def test_a_raising_evaluation_keeps_no_traceback(tmp_path):
    # a kept exception would hold its traceback's frames, and through them
    # the OrbitData that caches the table: a cycle that only gc breaks
    data = loaded_cat_spectrum(tmp_path)
    ref = weakref.ref(data)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for k in (0, 1, 0):
            try:
                log_zeta_k(data, 0.4, 3.0 + 0j, k, 130)
            except OverflowError:
                pass
            else:
                pytest.fail("the Poincare powers did not overflow")
        del data
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_term_table_cached_per_truncation():
    data = suspension_orbits(CAT, 20)
    log_zeta_k(data, 0.5, 3.0, 1, J=20)
    mellin_log_zeta(data, 0.5, 3.0 + 0j, 2, J=20)
    log_zeta_full(data, 1.5, 2.0, J=12)
    assert sorted(data.term_tables) == [12, 20]


@pytest.mark.parametrize("J", [0, -1, -2])
@pytest.mark.parametrize("route", [
    lambda J: zeta.log_zeta_k(DATA, 0.5, 3.0, 1, J=J),
    lambda J: zeta.log_zeta_full(DATA, 0.5, 3.0, J=J),
    lambda J: zeta.mellin_log_zeta(DATA, 0.5, 3.0, 1, J=J),
    lambda J: zeta.decomposition_residual(DATA, 0.5, 3.0, J=J),
], ids=["log_zeta_k", "log_zeta_full", "mellin_log_zeta", "decomposition_residual"])
def test_truncation_below_one_is_refused(route, J):
    # J = -2 used to return 0 with a negative certificate, J = -1 to divide by zero
    with pytest.raises(ValidationError, match="J: truncation must be >= 1"):
        route(J)
    assert route(1) is not None


@pytest.mark.parametrize("theta, lam, J, field", [
    (math.nan, 3.0, 12, "theta"),
    (-math.inf, 3.0, 12, "theta"),
    (0.4, math.nan, 12, "lambda"),
    (0.4, math.inf, 12, "lambda"),
    (0.4, complex(3.0, math.nan), 12, "lambda"),
    (0.4, complex(3.0, math.inf), 12, "lambda"),
    (0.4, 3.0, 12.5, "J"),
    (0.4, 3.0, 12.0, "J"),
], ids=["theta_nan", "theta_inf", "lam_nan", "lam_inf", "lam_imag_nan", "lam_imag_inf",
        "J_fraction", "J_float"])
@pytest.mark.parametrize("route", [
    lambda *a: zeta.log_zeta_k(a[0], a[1], a[2], 1, a[3]),
    lambda *a: zeta.log_zeta_full(*a),
    lambda *a: zeta.mellin_log_zeta(a[0], a[1], a[2], 1, a[3]),
    lambda *a: zeta.decomposition_residual(*a),
], ids=["log_zeta_k", "log_zeta_full", "mellin_log_zeta", "decomposition_residual"])
def test_truncated_sums_refuse_non_finite_points(route, theta, lam, J, field):
    # these returned nan + nan i with a finite certificate, a nan residual, a
    # DivergentRegionError (lambda = nan) or a numpy TypeError (J = 12.5)
    data = suspension_orbits(CAT, 12)
    with pytest.raises(ValidationError) as err:
        route(data, theta, lam, J)
    assert err.value.field == field
    assert route(data, 0.4, 3.0, 12) is not None


@pytest.mark.parametrize("route, field", [
    (lambda: flat_trace_pairing(DATA, math.nan, 0, BumpSpec(2.0, 0.1)), "theta"),
    (lambda: zeta.cycle_zeta(DATA, math.nan, 0.0), "theta"),
    (lambda: zeta.cycle_zeta(DATA, 0.4, complex(math.nan, 0.0)), "lambda"),
    (lambda: zeta_value_at_zero(CAT, math.inf), "theta"),
], ids=["flat_trace", "cycle_theta", "cycle_lambda", "value_at_zero"])
def test_other_routes_refuse_a_non_finite_point(route, field):
    # these returned nan + nan i; the cycle expansion certified its nan
    # factors with a residual of 0 or 8e-16
    with pytest.raises(ValidationError) as err:
        route()
    assert err.value.field == field


@pytest.mark.parametrize("center, width, field", [
    (math.nan, 0.2, "center"),
    (math.inf, 0.2, "center"),
    (2.0, math.nan, "width"),
    (2.0, math.inf, "width"),
    (2.0, 0.0, "width"),
    (2.0, -0.1, "width"),
])
def test_bump_refuses_non_finite_or_non_positive_parameters(center, width, field):
    # BumpSpec(nan, 0.2) paired to 0j, and an infinite centre never ended
    # the repetition loop on an ingested spectrum
    with pytest.raises(ValidationError) as err:
        BumpSpec(center, width)
    assert err.value.field == field


# -- the cycle expansion ----------------------------------------------------------


@pytest.mark.parametrize("matrix", [(2, 1, 1, 1), (3, 2, 1, 1), (5, 2, 2, 1)])
def test_cycle_zeta_matches_closed_form(matrix):
    # zeta_0 = 1 - e^(i theta) x keeps only |1 - e^(i theta)| of its relative
    # accuracy near lambda = 0, so the bound scales by the inverse; the rest
    # is a few ulps of the power sums and of the cancellation in
    # a_2 = (c_1^2 - c_2) / 2, within 32 eps at these traces
    aut = ToralAutomorphism(*matrix)
    data = suspension_orbits(aut, 12)
    for theta in (math.pi, 0.4, 1e-3):
        bound = 32 * 2.0 ** -52 / abs(1 - cmath.exp(1j * theta))
        for lam in (0.0, 1.5 + 0.5j, 4.0):
            got = zeta.cycle_zeta(data, theta, lam)
            want = closed_form_suspension(aut, theta, lam)
            for name in ("zeta0", "zeta1", "zeta2"):
                g, w = getattr(got, name), getattr(want, name)
                assert abs(g - w) <= bound * abs(w), (theta, lam, name)
            assert got.alternating == got.zeta0 * got.zeta2 / got.zeta1
            assert got.recurrence_residual <= 1e-13
    # the power sums come from the one table of J = complete_to
    assert sorted(data.term_tables) == [12]


def test_cycle_zeta_refuses_what_it_cannot_expand(tmp_path):
    # a loaded spectrum has no automorphism and no periods
    path = tmp_path / "spectrum.txt"
    write_orbit_spectrum(path, suspension_orbits(CAT, 6).records, theta=0.5)
    with pytest.raises(ValidationError, match="aut"):
        zeta.cycle_zeta(load_orbit_spectrum(path), 0.5, 0.0)
    # below period 3 no recurrence row is left to certify the k = 1 factor
    for top in (1, 2):
        with pytest.raises(ValidationError, match="complete_to"):
            zeta.cycle_zeta(suspension_orbits(CAT, top), 0.5, 0.0)
    assert zeta.cycle_zeta(suspension_orbits(CAT, 3), 0.5, 0.0).recurrence_residual <= 1e-13
