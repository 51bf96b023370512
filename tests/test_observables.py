"""Polynomial BV engine: Laplacian, antibracket, Gaussian/Berezin integrals."""

import math
from math import comb

import numpy as np
import pytest

from zetabf.errors import DegreeOverflowError, DeterminantRangeError, IndefiniteWeightError
from zetabf.observables import (
    DarbouxChart,
    PolyObservable,
    antibracket,
    bv_laplacian,
    gaussian_expectation,
    monomial_basis,
    random_observable,
)

PAIR = DarbouxChart((("x", "xi"),), (0,), max_word_length=8)
MIXED = DarbouxChart((("x", "xi"), ("c", "cb"), ("y", "eta")), (0, 1, -2),
                     max_word_length=12)


def var(chart, name):
    return PolyObservable.variable(chart, name)


def test_laplacian_on_conjugate_pair():
    p = var(PAIR, "x") * var(PAIR, "xi")
    out = bv_laplacian(p)
    assert out.terms == PolyObservable.constant(PAIR, 1.0).terms


def test_laplacian_kills_pure_even_square():
    p = var(PAIR, "x") * var(PAIR, "x")
    assert bv_laplacian(p).is_zero()


def test_laplacian_odd_field_sign():
    p = var(MIXED, "c") * var(MIXED, "cb")
    out = bv_laplacian(p)
    assert list(out.terms.values()) == [(-1 + 0j)]


def test_laplacian_squares_to_zero_exactly():
    for m in monomial_basis(MIXED, 4):
        assert bv_laplacian(bv_laplacian(m)).is_zero()


def test_bv_algebra_identities():
    rng = np.random.default_rng(10)
    d, br = bv_laplacian, antibracket
    checked = 0
    while checked < 30:
        pf, pg = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        f = random_observable(MIXED, rng, degree=3, terms=5, parity=pf)
        g = random_observable(MIXED, rng, degree=3, terms=5, parity=pg)
        if f.parity() is None or g.parity() is None:
            continue
        sf = (-1) ** f.parity()
        id1 = d(f * g) - (d(f) * g + f * d(g) * sf + br(f, g) * sf)
        assert id1.max_abs_coeff() < 1e-12
        id2 = d(br(f, g)) - (br(d(f), g) + br(f, d(g)) * (-sf))
        assert id2.max_abs_coeff() < 1e-12
        checked += 1


def test_antibracket_canonical_pairs():
    assert antibracket(var(PAIR, "x"), var(PAIR, "xi")).terms == \
        PolyObservable.constant(PAIR, 1.0).terms
    assert antibracket(var(PAIR, "xi"), var(PAIR, "x")).terms == \
        PolyObservable.constant(PAIR, -1.0).terms


def test_normal_ordering_and_nilpotency():
    c = var(MIXED, "c")
    assert (c * c).is_zero()
    xi = var(MIXED, "xi")
    assert (c * xi + xi * c).is_zero()


def test_degree_overflow():
    x = var(PAIR, "x")
    p = x
    with pytest.raises(DegreeOverflowError):
        for _ in range(10):
            p = p * x


def test_gaussian_normalisation():
    q = var(PAIR, "x") * var(PAIR, "x") * 0.5
    one = PolyObservable.constant(PAIR, 1.0)
    assert gaussian_expectation(one, ["x"], q)[0] == pytest.approx(1.0)


def test_gaussian_second_moment():
    x = var(PAIR, "x")
    q = x * x * 0.5
    assert gaussian_expectation(x * x, ["x"], q)[0] == pytest.approx(1.0)


def test_gaussian_wick_fourth_moment():
    x = var(PAIR, "x")
    q = x * x * 0.5
    assert gaussian_expectation(x * x * x * x, ["x"], q)[0] == pytest.approx(3.0)


def test_indefinite_weight_rejected():
    x = var(PAIR, "x")
    with pytest.raises(IndefiniteWeightError):
        gaussian_expectation(x, ["x"], x * x * (-0.5))


def test_even_weight_realness_is_relative():
    # the imaginary part is held to 1e-14 of the coefficient's modulus
    x = var(PAIR, "x")
    with pytest.raises(IndefiniteWeightError, match="real"):
        gaussian_expectation(x * x, ["x"], x * x * (1e-20 + 1e-15j))
    # <x^2> under e^(-a x^2) is 1 / (2a)
    assert gaussian_expectation(x * x, ["x"], x * x * (1e20 + 1e5j))[0] == \
        pytest.approx(5e-21, rel=1e-14)


def test_degenerate_odd_weight_rejected():
    chart = DarbouxChart((("c", "cb"), ("d", "db")), (1, 1), max_word_length=8)
    one = PolyObservable.constant(chart, 1.0)
    q = PolyObservable.constant(chart, 0.0)
    with pytest.raises(IndefiniteWeightError):
        gaussian_expectation(one, ["c", "d"], q)


FOUR_ODD = DarbouxChart((("c", "cb"), ("d", "db"), ("e", "eb"), ("f", "fb")), (1, 1, 1, 1),
                        max_word_length=8)


@pytest.mark.parametrize("s", [1e-100, 1e-150, 1e-160, 1e-200, 1e-300])
def test_odd_degeneracy_is_relative_to_the_pairing(s):
    # q = s cd + s ef is nondegenerate at every scale: <cd> = -1/s
    c, d, e, f = (var(FOUR_ODD, n) for n in ("c", "d", "e", "f"))
    q = c * d * s + e * f * s
    val, scale = gaussian_expectation(c * d, ["c", "d", "e", "f"], q)
    assert val == pytest.approx(-1 / s, rel=1e-14)
    assert scale == pytest.approx(1 / s, rel=1e-14)


@pytest.mark.parametrize("s", [1e-310, 1e-320])
def test_an_expectation_beyond_the_float_range_raises(s):
    # <cd> = -1/s leaves the float range; it came back as (nan+nanj), 0.0
    c, d, e, f = (var(FOUR_ODD, n) for n in ("c", "d", "e", "f"))
    with pytest.raises(DeterminantRangeError) as err:
        gaussian_expectation(c * d, ["c", "d", "e", "f"], c * d * s + e * f * s)
    assert err.value.log10_abs == pytest.approx(-math.log10(s), rel=1e-12)


@pytest.mark.parametrize("s", [1e-200, 1.0, 1e200])
def test_an_unpaired_odd_variable_is_degenerate(s):
    c, d = var(FOUR_ODD, "c"), var(FOUR_ODD, "d")
    with pytest.raises(IndefiniteWeightError, match="degenerate"):
        gaussian_expectation(c * d, ["c", "d", "e", "f"], c * d * s)


def test_a_nearly_singular_odd_pairing_is_degenerate():
    # q = cd + (1 + delta) ce + fd + fe has Pfaffian delta and Hadamard bound 2
    c, d, e, f = (var(FOUR_ODD, n) for n in ("c", "d", "e", "f"))

    def expectation(delta):
        q = c * d + c * e * (1 + delta) + f * d + f * e
        return gaussian_expectation(c * d, ["c", "d", "e", "f"], q)[0]

    assert expectation(1e-6) == pytest.approx(1e6, rel=1e-9)
    with pytest.raises(IndefiniteWeightError, match="degenerate"):
        expectation(2.0 ** -50)


def test_damped_laplacian_integrals_vanish():
    chart = DarbouxChart((("x", "xi"), ("c", "cb"), ("d", "db")), (0, 1, 1),
                         max_word_length=12)
    x, c, d = (var(chart, n) for n in ("x", "c", "d"))
    q = x * x * 0.5 + c * d
    rng = np.random.default_rng(11)
    for _ in range(20):
        h = random_observable(chart, rng, degree=3, terms=6)
        g = bv_laplacian(h, weight=q)
        val, scale = gaussian_expectation(g, ["x", "c", "d"], q)
        assert abs(val) <= 1e-10 * max(scale, 1.0)


def test_damped_laplacian_on_gauge_charts():
    import math
    from zetabf.bv import (build_bf_fields, contraction_gauge, gauge_polarization,
                           hodge_contraction, metric_gauge)
    from zetabf.complexes import mapping_torus_complex
    tc = mapping_torus_complex([[2, 1], [1, 1]], math.pi)
    fs = build_bf_fields(tc)
    rng = np.random.default_rng(12)
    for gs in (metric_gauge(fs), contraction_gauge(fs, hodge_contraction(tc))):
        chart, on_vars = gauge_polarization(fs, gs, max_word_length=10)
        evens = [v for v in on_vars if chart.parity_of(chart.index(v)) == 0]
        odds = [v for v in on_vars if chart.parity_of(chart.index(v)) == 1]
        assert len(odds) % 2 == 0
        q = PolyObservable.constant(chart, 0.0)
        for v in evens:
            q = q + var(chart, v) * var(chart, v) * 0.6
        for i in range(0, len(odds), 2):
            q = q + var(chart, odds[i]) * var(chart, odds[i + 1])
        for _ in range(5):
            h = random_observable(chart, rng, degree=3, terms=4)
            g = bv_laplacian(h, weight=q)
            val, scale = gaussian_expectation(g, on_vars, q)
            assert abs(val) <= 1e-10 * max(scale, 1.0)


PAIRS2 = DarbouxChart((("x", "xi"), ("y", "eta")), (0, 0), max_word_length=8)


def test_gaussian_off_diagonal_even_weight():
    # q = a x^2 + b y^2 + c x y has covariance [[2b, -c], [-c, 2a]] / (4ab - c^2)
    a, b, c = 0.7, 1.3, 0.4
    x, y = var(PAIRS2, "x"), var(PAIRS2, "y")
    q = x * x * a + y * y * b + x * y * c
    det = 4 * a * b - c * c

    def moment(p):
        return gaussian_expectation(p, ["x", "y"], q)[0]

    assert moment(x * y) == pytest.approx(-c / det, rel=1e-14)
    assert moment(x * y) == pytest.approx(-0.1149425287356322, rel=1e-14)
    assert moment(x * x) == pytest.approx(2 * b / det, rel=1e-14)
    want = moment(x * x) * moment(y * y) + 2 * moment(x * y) ** 2
    assert moment(x * x * y * y) == pytest.approx(want, rel=1e-14)


WITH_ODD = DarbouxChart((("x", "xi"), ("y", "eta"), ("c", "cb"), ("d", "db")),
                        (0, 0, 1, 1), max_word_length=8)


def _v(name):
    return var(WITH_ODD, name)


ALL_ON = ["x", "y", "c", "d"]


@pytest.mark.parametrize("weight, on, error, match", [
    (lambda: _v("x") * _v("x") * _v("x"), ALL_ON, ValueError, "purely quadratic"),
    (lambda: _v("x") * _v("c"), ALL_ON, ValueError, "mixes parities"),
    (lambda: _v("y") * _v("y"), ["x", "c", "d"], ValueError, "non-Lagrangian"),
    (lambda: _v("x") * _v("y"), ["x", "c", "d"], ValueError, "non-Lagrangian"),
    (lambda: _v("c") * _v("xi"), ALL_ON, ValueError, "non-Lagrangian"),
    (lambda: _v("x") * _v("x") * (0.5 + 0.1j), ALL_ON, IndefiniteWeightError, "real"),
], ids=["cubic", "mixed", "even-off", "pair-off", "odd-off", "complex"])
def test_gaussian_refuses_a_malformed_weight(weight, on, error, match):
    one = PolyObservable.constant(WITH_ODD, 1.0)
    with pytest.raises(error, match=match):
        gaussian_expectation(one, on, weight())


@pytest.mark.parametrize("pairs, degrees, match", [
    ((("x", "xi"), ("y", "eta")), (0,), "one degree per pair"),
    ((("x", "xi"), ("y", "x")), (0, 1), "distinct"),
])
def test_chart_refuses_a_malformed_table(pairs, degrees, match):
    with pytest.raises(ValueError, match=match):
        DarbouxChart(pairs, degrees)


def test_chart_table():
    degrees = (0, 1, -2, 3)
    chart = DarbouxChart(tuple((f"f{i}", f"af{i}") for i in range(4)), degrees)
    assert chart.variables == ("f0", "af0", "f1", "af1", "f2", "af2", "f3", "af3")
    for i, name in enumerate(chart.variables):
        assert chart.index(name) == i
    for i, d in enumerate(degrees):
        assert chart.parity_of(2 * i) == d % 2
        assert chart.parity_of(2 * i + 1) == (-1 - d) % 2
    # the table is derived: equality and hashing read the declared fields
    twin = DarbouxChart(chart.pairs, degrees)
    assert twin == chart and hash(twin) == hash(chart)


@pytest.mark.parametrize("chart", [MIXED, WITH_ODD], ids=["MIXED", "WITH_ODD"])
def test_products_of_variables_carry_the_koszul_sign(chart):
    # x_{l_1} ... x_{l_n} in a random order is its sorted word times (-1) to
    # the inversions among its odd letters, and zero when an odd letter repeats
    rng = np.random.default_rng(13)
    for _ in range(300):
        letters = [int(i) for i in rng.integers(len(chart.variables), size=rng.integers(1, 7))]
        got = PolyObservable.constant(chart, 1.0)
        for i in letters:
            got = got * var(chart, chart.variables[i])
        odd = [i for i in letters if chart.parity_of(i)]
        if len(set(odd)) < len(odd):
            assert got.is_zero()
            continue
        inversions = sum(a > b for j, a in enumerate(odd) for b in odd[j + 1:])
        want = PolyObservable.constant(chart, (-1.0) ** inversions)
        for i in sorted(letters):
            want = want * var(chart, chart.variables[i])
        assert got.terms == want.terms == {tuple(sorted(letters)): (-1.0) ** inversions}


@pytest.mark.parametrize("chart", [PAIR, MIXED, WITH_ODD], ids=["PAIR", "MIXED", "WITH_ODD"])
def test_monomial_basis_count_is_closed_form(chart):
    # k distinct odd letters and a multiset of at most D - k even letters
    n_odd = sum(chart.parities)
    n_even = len(chart.variables) - n_odd
    for degree in range(6):
        basis = monomial_basis(chart, degree)
        keys = {key for m in basis for key in m.terms}
        want = sum(comb(n_odd, k) * comb(n_even + degree - k, degree - k)
                   for k in range(min(n_odd, degree) + 1))
        assert len(basis) == len(keys) == want
        assert all(len(m.terms) == 1 and m.word_length() <= degree for m in basis)
    assert len(monomial_basis(MIXED, 4)) == 129


def test_monomial_basis_beyond_the_cap_overflows():
    assert len(monomial_basis(PAIR, PAIR.max_word_length)) == 2 * PAIR.max_word_length + 1
    with pytest.raises(DegreeOverflowError):
        monomial_basis(PAIR, PAIR.max_word_length + 1)
