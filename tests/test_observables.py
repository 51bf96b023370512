"""Polynomial BV engine: Laplacian, antibracket, Gaussian/Berezin integrals."""

import numpy as np
import pytest

from zetabf.errors import DegreeOverflowError, IndefiniteWeightError
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
    assert out.terms == {((), ()): 1.0 + 0.0j}


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
    assert antibracket(var(PAIR, "x"), var(PAIR, "xi")).terms == {((), ()): 1.0 + 0j}
    assert antibracket(var(PAIR, "xi"), var(PAIR, "x")).terms == {((), ()): -1.0 + 0j}


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


def test_degenerate_odd_weight_rejected():
    chart = DarbouxChart((("c", "cb"), ("d", "db")), (1, 1), max_word_length=8)
    one = PolyObservable.constant(chart, 1.0)
    q = PolyObservable.constant(chart, 0.0)
    with pytest.raises(IndefiniteWeightError):
        gaussian_expectation(one, ["c", "d"], q)


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
