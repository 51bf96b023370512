"""Orbit enumeration, exact counts, Poincare data and the spectrum format."""

import cmath
import copy
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from zetabf import verification
from zetabf.errors import NotHyperbolicError, ParseError, ValidationError
from zetabf.orbits import (
    OrbitData,
    OrbitRecord,
    ToralAutomorphism,
    count_fixed_points,
    enumerate_primitive_orbits,
    load_orbit_spectrum,
    poincare_data,
    suspension_orbits,
    write_orbit_spectrum,
)
from zetabf.verification import lattice_fixed_point_count

CAT = ToralAutomorphism(2, 1, 1, 1)
GOLDEN = Path(__file__).parent / "golden"

# frozen from the lattice brute-force oracle (re-verified below)
CAT_COUNTS = [1, 5, 16, 45, 121, 320, 841, 2205, 5776, 15125, 39601, 103680]


def test_counts_match_lattice_oracle():
    for j in range(1, 13):
        assert lattice_fixed_point_count(CAT, j) == CAT_COUNTS[j - 1]
    for j in range(1, 13):
        assert count_fixed_points(CAT, j) == CAT_COUNTS[j - 1]


def test_counts_other_hyperbolic():
    aut = ToralAutomorphism(3, 1, 2, 1)      # trace 4, det 1
    for j in range(1, 7):
        assert count_fixed_points(aut, j) == lattice_fixed_point_count(aut, j)
    aut2 = ToralAutomorphism(3, 1, 1, 0)     # trace 3, det -1
    for j in range(1, 7):
        assert count_fixed_points(aut2, j) == lattice_fixed_point_count(aut2, j)


def _ceil_div(a, b):
    return -((-a) // b)


def _scalar_lattice_count(aut, j):
    """The oracle's enumeration as a plain Python loop, one m1 at a time."""
    a, b, c, d = aut.power(j)
    m00, m01, m10, m11 = a - 1, b, c, d - 1
    det = m00 * m11 - m01 * m10
    adj = ((m11, -m01), (-m10, m00))
    alpha, beta = (0, det - 1) if det > 0 else (det + 1, 0)
    count = 0
    for m1 in range(min(0, m00, m01, m00 + m01), max(0, m00, m01, m00 + m01) + 1):
        lo, hi, feasible = None, None, True
        for p, q in adj:
            base = p * m1
            if q == 0:
                feasible = feasible and alpha <= base <= beta
                continue
            if q > 0:
                l, h = _ceil_div(alpha - base, q), (beta - base) // q
            else:
                l, h = _ceil_div(beta - base, q), (alpha - base) // q
            lo = l if lo is None else max(lo, l)
            hi = h if hi is None else min(hi, h)
        if feasible and hi >= lo:
            count += hi - lo + 1
    return count


# both determinant signs; (1,2,2,3) has A - I = [[0,2],[2,2]], so an adjugate
# row has q = 0
LATTICE_MATRICES = [(2, 1, 1, 1), (3, 1, 2, 1), (1, 2, 2, 3), (3, 1, 1, 0),
                    (0, 1, 1, 3), (-2, 1, 1, -1), (-1, 2, 2, -5)]


@pytest.mark.parametrize("block", [None, 61])
@pytest.mark.parametrize("entries", LATTICE_MATRICES, ids=str)
def test_blocked_lattice_oracle_matches_scalar_loop(entries, block, monkeypatch):
    if block is not None:
        # small blocks: most ranges cross several block boundaries
        monkeypatch.setattr(verification, "_LATTICE_BLOCK", block)
    aut = ToralAutomorphism(*entries)
    widest = 0
    for j in range(1, 13):
        a, b, _, _ = aut.power(j)
        if max(map(abs, aut.power(j))) > 30_000:
            break
        widest = max(widest, max(0, a - 1, b, a - 1 + b) - min(0, a - 1, b, a - 1 + b) + 1)
        assert lattice_fixed_point_count(aut, j) == _scalar_lattice_count(aut, j)
    if aut == CAT:
        # the cat map at j = 11 enumerates 46368 first coordinates
        assert widest > 2 * verification._LATTICE_BLOCK


@pytest.mark.parametrize("aut, j", [(CAT, 23), (ToralAutomorphism(2 ** 31 + 1, 1, 2 ** 31, 1), 1)],
                         ids=["cat_j23", "entry_2^31"])
def test_lattice_oracle_refuses_int64_overflow(aut, j):
    # an entry of A^j - I of modulus >= 2^31 could overflow an int64 product
    a, b, c, d = aut.power(j)
    assert max(abs(a - 1), abs(b), abs(c), abs(d - 1)) >= 2 ** 31
    with pytest.raises(ValueError, match="2\\^31"):
        lattice_fixed_point_count(aut, j)


def test_overflowing_eigenvalue_power_names_its_period():
    # mu ~ 1e5: mu^61 is a float, mu^62 overflows
    aut = ToralAutomorphism(100000, 1, 99999, 1)
    assert len(enumerate_primitive_orbits(aut, 61)) == 61
    with pytest.raises(ValidationError, match="period 62"):
        enumerate_primitive_orbits(aut, 62)


def test_not_hyperbolic_rejected():
    with pytest.raises(NotHyperbolicError):
        ToralAutomorphism(1, 1, 0, 1)
    with pytest.raises(NotHyperbolicError):
        ToralAutomorphism(2, 0, 0, 2)
    with pytest.raises(NotHyperbolicError):
        ToralAutomorphism.from_matrix([[2.5, 1], [1, 1]])


@pytest.mark.parametrize("entry", [2.0, 2.5, np.float64(2.0), "2", None])
def test_matrix_entries_must_be_integers(entry):
    # a float entry passed the det and trace checks and ran the orbit counts
    # in floats: count_fixed_points gave 3461475205120.0 at j = 30 for 2.0,
    # against the exact 3461452808000
    for position in range(4):
        entries = [2, 1, 1, 1]
        entries[position] = entry
        with pytest.raises(ValidationError) as err:
            ToralAutomorphism(*entries)
        assert err.value.field == ("a11", "a12", "a21", "a22")[position]


def test_numpy_integer_entries_count_exactly():
    # numpy integers are taken, and kept as Python integers, so the counts
    # stay exact where int64 products would wrap
    aut = ToralAutomorphism(np.int64(2), np.int32(1), np.uint8(1), np.int64(1))
    assert aut == CAT and hash(aut) == hash(CAT)
    assert all(type(getattr(aut, name)) is int for name in ("a11", "a12", "a21", "a22"))
    assert count_fixed_points(aut, 30) == 3461452808000
    assert count_fixed_points(aut, 64) == count_fixed_points(CAT, 64)
    assert ToralAutomorphism.from_matrix(np.array([[2, 1], [1, 1]])) == CAT


@pytest.mark.parametrize("call", [
    lambda: CAT.power(-1),
    lambda: CAT.power(65),
    lambda: CAT.power(2.0),
    lambda: count_fixed_points(CAT, 0),
    lambda: count_fixed_points(CAT, -3),
    lambda: count_fixed_points(CAT, 65),
], ids=["power_-1", "power_65", "power_float", "count_0", "count_-3", "count_65"])
def test_periods_outside_the_exact_range_are_refused_typed(call):
    # these raised a bare ValueError (a float power a TypeError)
    with pytest.raises(ValidationError) as err:
        call()
    assert err.value.field == "j"


@pytest.mark.parametrize("roof", [math.nan, math.inf, 0.0, -1.0, 2j, "1"])
def test_roof_must_be_positive_and_finite(roof):
    # a NaN or infinite roof used to give a NaN zeta value at zero and
    # NaN closed-form factors; a roof <= 0 a bare ValueError, and a complex
    # or string roof a TypeError
    with pytest.raises(ValidationError, match="roof"):
        ToralAutomorphism(2, 1, 1, 1, roof=roof)
    with pytest.raises(ValidationError, match="roof"):
        ToralAutomorphism.from_matrix([[2, 1], [1, 1]], roof=roof)


def test_primitive_orbit_counts():
    records = enumerate_primitive_orbits(CAT, 3)
    by_period = {r.period: r.count for r in records}
    assert by_period == {1: 1, 2: 2, 3: 5}


def test_mobius_consistency():
    records = enumerate_primitive_orbits(CAT, 12)
    by_period = {r.period: r.count for r in records}
    for j in range(1, 13):
        total = sum(d * by_period.get(d, 0) for d in range(1, j + 1) if j % d == 0)
        assert total == count_fixed_points(CAT, j)


# Hyperbolic elements of GL(2,Z) with small entries, both determinants (the
# matrix pool of the zeta_cli benchmark).
MATRIX_POOL = (
    (2, 1, 1, 1), (3, 1, 2, 1), (4, 1, 3, 1), (3, 2, 1, 1), (2, 3, 1, 2),
    (5, 2, 2, 1), (3, 1, 1, 0), (2, 1, 3, 1), (4, 1, 1, 0), (1, 2, 2, 3),
)


@pytest.mark.parametrize("matrix", MATRIX_POOL,
                         ids=["".join(map(str, m)) for m in MATRIX_POOL])
def test_power_sweep_matches_fixed_point_counts(matrix):
    # one sweep of powers A^j against count_fixed_points' own A^j, j <= 64
    aut = ToralAutomorphism(*matrix)
    records = enumerate_primitive_orbits(aut, 64)
    by_period = {r.period: r.count for r in records}
    assert [r.period for r in records] == sorted(by_period)
    for j in range(1, 65):
        total = sum(d * by_period.get(d, 0) for d in range(1, j + 1) if j % d == 0)
        assert total == count_fixed_points(aut, j)


def test_poincare_data_exact():
    assert poincare_data(CAT, 1, 0) == (1, -1)
    assert poincare_data(CAT, 1, 1) == (3, -1)
    assert poincare_data(CAT, 1, 2) == (1, -1)
    assert poincare_data(CAT, 2, 1)[0] == 7
    for j in range(1, 13):
        tr0, det = poincare_data(CAT, j, 0)
        tr1, _ = poincare_data(CAT, j, 1)
        tr2, _ = poincare_data(CAT, j, 2)
        assert tr0 == 1 and tr2 == 1
        assert tr0 - tr1 + tr2 == -abs(det)


@pytest.mark.parametrize("j", [-2, -1, 65])
def test_poincare_data_refuses_powers_outside_the_exact_range(j):
    # j = -2 used to read tr A^-2 as 3 (it is 7) and det(I - A^-2) as -1
    with pytest.raises(ValidationError, match="guarded range") as err:
        poincare_data(CAT, j, 1)
    assert err.value.field == "j"
    a, _, _, d = CAT.power(64)
    assert poincare_data(CAT, 64, 1)[0] == a + d


@pytest.mark.parametrize("matrix", [(-2, -1, -1, -1), (-3, 1, 1, 0)],
                         ids=["neg-trace-det1", "neg-trace-det-1"])
def test_poincare_data_of_negative_trace(matrix):
    # det(I - P^j) > 0 at odd j, e.g. (1, 5) for j = 1, k = 0 on the first
    # matrix, so (-1)^n |det(I - P^j)| = sum_k (-1)^k tr Lambda^k P^j fails:
    # the exact data are returned all the same, with no identity asserted
    aut = ToralAutomorphism(*matrix)
    a, b, c, d = matrix
    m = (1, 0, 0, 1)
    for j in range(13):
        tr_j, det_j = m[0] + m[3], aut.det ** j
        assert [poincare_data(aut, j, k) for k in (0, 1, 2)] == [
            (t, 1 - tr_j + det_j) for t in (1, tr_j, det_j)]
        m = (m[0] * a + m[1] * c, m[0] * b + m[1] * d,
             m[2] * a + m[3] * c, m[2] * b + m[3] * d)


def test_eigen_vs_integer_counts():
    mu = CAT.expanding_eigenvalue
    for j in range(1, 13):
        float_det = abs((1 - mu ** j) * (1 - mu ** -j))
        assert float_det == pytest.approx(count_fixed_points(CAT, j), rel=1e-9)


def test_orbit_record_validation():
    with pytest.raises(ValidationError):
        OrbitRecord(length=-1.0, count=1, eig_expanding=2.0,
                    eig_contracting=0.5, holonomy=1.0)
    with pytest.raises(ValidationError):
        OrbitRecord(length=1.0, count=0, eig_expanding=2.0,
                    eig_contracting=0.5, holonomy=1.0)
    with pytest.raises(ValidationError):
        OrbitRecord(length=1.0, count=1, eig_expanding=2.0,
                    eig_contracting=0.5, holonomy=2.0)
    with pytest.raises(ValidationError):
        OrbitRecord(length=1.0, count=1, eig_expanding=2.0,
                    eig_contracting=0.7, holonomy=1.0)


@pytest.mark.parametrize("fields, field", [
    ((1.0, 1, 2j, 0.5j), "eig_expanding"),
    ((1.0, 1, 2.0, 0.5 + 0j), "eig_contracting"),
    ((1.0, 1, 2.0, np.complex64(0.5)), "eig_contracting"),
    ((1.0 + 0j, 1, 2.0, 0.5), "length"),
    ((1.0, 1, "2.0", 0.5), "eig_expanding"),
    ((1.0, 1.5, 2.0, 0.5), "count"),
    ((1.0, 2.0, 2.0, 0.5), "count"),
    ((1.0, 1 + 0j, 2.0, 0.5), "count"),
], ids=["complex_eigs", "complex_contracting", "numpy_complex", "complex_length",
        "string_eig", "fractional_count", "float_count", "complex_count"])
def test_orbit_record_needs_real_fields_and_an_integer_count(fields, field):
    # complex eigenvalues ended log_zeta_k in a bare TypeError, and a count
    # of 1.5 was written as "1.5", which the spectrum reader refuses
    with pytest.raises(ValidationError) as err:
        OrbitRecord(*fields, holonomy=1)
    assert err.value.field == field


def test_orbit_record_takes_numpy_reals_and_integers(tmp_path):
    rec = OrbitRecord(np.float64(1.5), np.int64(3), np.float32(2.5), 0.4, holonomy=1)
    assert rec == (1.5, 3, 2.5, 0.4, 1 + 0j, None)
    path = tmp_path / "numpy.txt"
    write_orbit_spectrum(path, [rec])
    assert load_orbit_spectrum(path).records == (rec,)


def test_orbit_record_needs_a_holonomy_or_a_period():
    with pytest.raises(ValidationError) as err:
        OrbitRecord(length=1.0, count=1, eig_expanding=2.0, eig_contracting=0.5)
    assert err.value.field == "holonomy"
    for given in ({"holonomy": 1.0}, {"period": 1}):
        OrbitRecord(length=1.0, count=1, eig_expanding=2.0, eig_contracting=0.5, **given)


@pytest.mark.parametrize("period", [0, -2, 1.5])
def test_orbit_period_must_be_a_positive_integer(period):
    # with aut set these failed late: a ZeroDivisionError, a silent 0j and a
    # numpy TypeError
    with pytest.raises(ValidationError) as err:
        OrbitRecord(length=1.0, count=1, eig_expanding=2.0, eig_contracting=0.5,
                    period=period)
    assert err.value.field == "period"


@pytest.mark.parametrize("eigs", [(1 / 1.5, 1.5), (1.0, 1.0), (-1.0, -1.0)],
                         ids=["swapped", "unit", "minus_unit"])
def test_non_hyperbolic_poincare_eigenvalues_rejected(tmp_path, eigs):
    # swapped eigenvalues give a tail certificate that is too small, and a
    # unit eigenvalue makes det(I - P^j) vanish
    eu, es = eigs
    with pytest.raises(ValidationError) as err:
        OrbitRecord(length=1.0, count=1, eig_expanding=eu, eig_contracting=es,
                    holonomy=1.0 + 0j)
    assert err.value.field == "poincare_eigs"
    path = tmp_path / "eigs.txt"
    path.write_text(f"1.0 1 1.0 0.0 {eu!r} {es!r} 1\n")
    with pytest.raises(ValidationError) as err:
        load_orbit_spectrum(path)
    assert err.value.field == "poincare_eigs"


def test_periods_beyond_exact_power_range_rejected():
    assert len(enumerate_primitive_orbits(CAT, 64)) == 64
    with pytest.raises(ValidationError) as err:
        enumerate_primitive_orbits(CAT, 65)
    assert "64" in str(err.value)


def test_spectrum_roundtrip(tmp_path):
    records = enumerate_primitive_orbits(CAT, 4)
    path = tmp_path / "orbits.txt"
    write_orbit_spectrum(path, records, theta=math.pi / 3)
    data = load_orbit_spectrum(path)
    assert len(data.records) == len(records)
    path2 = tmp_path / "orbits2.txt"
    write_orbit_spectrum(path2, data.records)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("theta", [0.37, math.pi / 2, 2.0, -1.3])
def test_written_holonomies_are_holonomy_at(tmp_path, theta):
    records = enumerate_primitive_orbits(ToralAutomorphism(3, 1, 2, 1), 20)
    path = tmp_path / "orbits.txt"
    write_orbit_spectrum(path, records, theta=theta)
    loaded = {r.length: r.holonomy for r in load_orbit_spectrum(path).records}
    assert len(loaded) == len(records)
    for r in records:
        want = r.holonomy_at(theta)
        got = loaded[r.length]
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_spectrum_well_formed(tmp_path):
    path = tmp_path / "threerec.txt"
    path.write_text(
        "# comment\n"
        "1.0 1 1.0 0.0 2.618033988749895 0.3819660112501051 1\n"
        "2.0 1 -1.0 0.0 6.854101966249685 0.14589803375031546 2\n"
        "3.5 1 0.0 1.0 17.944271909999159 0.055728090000841 5\n")
    data = load_orbit_spectrum(path)
    assert len(data.records) == 3
    assert sum(r.count for r in data.records) == 8


def test_spectrum_negative_length(tmp_path):
    path = tmp_path / "neg.txt"
    path.write_text("-1.0 1 1.0 0.0 2.0 0.5 1\n")
    with pytest.raises(ValidationError):
        load_orbit_spectrum(path)


@pytest.mark.parametrize("row", [
    "nan 1 1.0 0.0 2.0 0.5 1\n",
    "inf 1 1.0 0.0 2.0 0.5 1\n",
    "1.0 1 1.0 0.0 nan 0.5 1\n",
    "1.0 1 nan 0.0 2.0 0.5 1\n",
], ids=["nan_length", "inf_length", "nan_eigenvalue", "nan_holonomy"])
def test_spectrum_non_finite_rejected(tmp_path, row):
    path = tmp_path / "nonfinite.txt"
    path.write_text(row)
    with pytest.raises(ValidationError):
        load_orbit_spectrum(path)


def test_spectrum_duplicates_merge(tmp_path):
    # only rows equal in length, holonomy and both eigenvalues merge, their
    # counts summed, each merged record where its first row stood
    path = tmp_path / "dup.txt"
    row = "1.0 1 1.0 0.0 2.618033988749895 0.3819660112501051 {}\n"
    other = "2.0 1 -1.0 0.0 6.854101966249685 0.14589803375031546 3\n"
    near = ["1.0000000000000002 1 1.0 0.0 2.618033988749895 0.3819660112501051 1\n",
            "1.0 1 -1.0 0.0 2.618033988749895 0.3819660112501051 1\n",
            "1.0 1 1.0 0.0 2.6180339887498953 0.3819660112501051 1\n"]
    path.write_text(row.format(1) + other + near[0] + row.format(4) + near[1] + near[2]
                    + row.format(2) + other)
    data = load_orbit_spectrum(path)
    summary = [(r.length, r.holonomy, r.eig_expanding, r.count) for r in data.records]
    assert summary == [(1.0, 1, 2.618033988749895, 7), (2.0, -1, 6.854101966249685, 6),
                       (1.0000000000000002, 1, 2.618033988749895, 1),
                       (1.0, -1, 2.618033988749895, 1), (1.0, 1, 2.6180339887498953, 1)]


def test_spectrum_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 1 1.0\n")
    with pytest.raises(ParseError) as err:
        load_orbit_spectrum(path)
    assert err.value.line == 1


def test_suspension_orbits_metadata():
    data = suspension_orbits(CAT, 10)
    assert data.is_suspension
    assert data.complete_to == 10
    # a suspension record carries its period, which twists it, and no holonomy
    assert all(r.holonomy is None and r.length == r.period for r in data.records)


def test_suspension_data_needs_complete_to():
    # the truncation certificate reads complete_to whenever aut is set
    with pytest.raises(ValidationError) as err:
        OrbitData(suspension_orbits(CAT, 3).records, aut=CAT)
    assert err.value.field == "complete_to"


def test_orbit_record_contract():
    # keyword or positional construction, the fields in order, read-only
    fields = ("length", "count", "eig_expanding", "eig_contracting", "holonomy", "period")
    values = (1.5, 3, 2.5, 0.4, 0.6 + 0.8j, None)
    rec = OrbitRecord(**dict(zip(fields, values)))
    assert OrbitRecord._fields == fields
    assert tuple(getattr(rec, name) for name in fields) == values
    assert OrbitRecord(*values) == rec
    assert repr(rec) == ("OrbitRecord(length=1.5, count=3, eig_expanding=2.5, "
                         "eig_contracting=0.4, holonomy=(0.6+0.8j), period=None)")
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 2)
    # equal records are equal and hash alike; a record is its tuple of fields
    twin = OrbitRecord(1.5, 3, 2.5, 0.4, holonomy=0.6 + 0.8j)
    assert twin == rec and hash(twin) == hash(rec) and rec == values
    assert rec != OrbitRecord(1.5, 4, 2.5, 0.4, holonomy=0.6 + 0.8j)
    # replacements, copies and pickles are rebuilt through the checks
    assert rec._replace(count=4) == (1.5, 4, 2.5, 0.4, 0.6 + 0.8j, None)
    with pytest.raises(ValidationError, match="count"):
        rec._replace(count=0)
    assert copy.copy(rec) == rec and pickle.loads(pickle.dumps(rec)) == rec
    suspension = OrbitRecord(2.0, 1, 2.5, 0.4, period=3)
    assert pickle.loads(pickle.dumps(suspension)) == suspension


def test_holonomy_at():
    stored = OrbitRecord(2.0, 1, 2.5, 0.4, holonomy=-1)
    suspension = OrbitRecord(2.0, 1, 2.5, 0.4, period=3)
    for theta in (0.0, 0.7, -2.0):
        assert stored.holonomy_at(theta) == -1 and type(stored.holonomy_at(theta)) is complex
        assert suspension.holonomy_at(theta) == cmath.exp(1j * theta * 3)


@pytest.mark.parametrize("holonomy", [1, -1.0, 0.6 - 0.8j])
def test_holonomy_is_stored_complex(holonomy):
    rec = OrbitRecord(length=1.0, count=1, eig_expanding=2.0, eig_contracting=0.5,
                      holonomy=holonomy)
    assert type(rec.holonomy) is complex
    assert rec.holonomy == holonomy


def _multiflow_records():
    """Three suspension flows of equal roof, so each length recurs with the
    same holonomy and different eigenvalues; one written twice over, so the
    file holds exact duplicates; and hand records at one length spread over
    holonomy phases, both signs of a zero imaginary part included."""
    records = []
    for matrix in ((2, 1, 1, 1), (3, 1, 2, 1), (2, 1, 1, 1), (3, 1, 1, 0)):
        records += enumerate_primitive_orbits(ToralAutomorphism(*matrix, roof=0.5), 6)
    for hol in (1j, complex(-1.0, 0.0), -0.6 - 0.8j, 1.0, complex(-1.0, -0.0),
                0.6 - 0.8j, 1j):
        records.append(OrbitRecord(length=2.0, count=2, eig_expanding=3.0,
                                   eig_contracting=1 / 3.0, holonomy=hol))
    return records


def test_spectrum_writer_golden(tmp_path):
    # rows sorted by (length, holonomy phase), ties in input order; the bytes
    # were recorded by the writer that took np.angle of one holonomy at a time
    path = tmp_path / "multiflow.txt"
    write_orbit_spectrum(path, _multiflow_records(), theta=2.4)
    assert path.read_bytes() == (GOLDEN / "orbits_multiflow_spectrum.txt").read_bytes()


def test_spectrum_rows_sort_by_numpys_phase(tmp_path):
    # two holonomies an ulp apart in phase: libm's atan2 orders them, numpy's
    # (SIMD on some machines) may call them equal; the writer keeps np.angle's
    # order, as it always has, on every machine
    hols = [0.8552282718390818 - 0.5182514862951555j, 0.8552282718390817 - 0.5182514862951555j]
    for order in (hols, hols[::-1]):
        records = [OrbitRecord(1.0, n, 2.5, 0.4, holonomy=h) for n, h in enumerate(order, 1)]
        path = tmp_path / "ties.txt"
        write_orbit_spectrum(path, records)
        want = sorted(records, key=lambda r: float(np.angle(r.holonomy)))
        got = [int(line.split()[-1]) for line in path.read_text().splitlines()[1:]]
        assert got == [r.count for r in want]
