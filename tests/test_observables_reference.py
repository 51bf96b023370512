"""The observable algebra against its word-by-word reference, coefficient bit
for coefficient bit.

The reference below is the kernel as it read before the bit-mask signs: a
product merges two words and takes each Koszul sign from a sum over the left
word's letters, a derivative takes its sign from the letters before or after
its own, the Laplacian and the bracket walk every conjugate pair and build a
whole observable per pair, and a sum rebuilds its dict and normalises every
term.  The package must give the same terms, in the same order, with the
same type and the same bits (``float.hex``) in each coefficient.  Inputs are
drawn term by term with numpy's seeded generator, so they do not depend on
the kernel under test.
"""

import math

import numpy as np
import pytest

from zetabf import bv, complexes, verification
from zetabf.errors import DegreeOverflowError
from zetabf.observables import DarbouxChart, PolyObservable, antibracket, bv_laplacian

# -- the reference kernel, on term dicts -------------------------------------------


def _normalised(terms):
    return {key: 0.0 + coeff for key, coeff in terms.items() if coeff != 0}


def ref_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + v
    return _normalised(out)


def ref_scale(a, s):
    return _normalised({k: v * s for k, v in a.items()})


def ref_sub(a, b):
    return ref_add(a, ref_scale(b, -1.0))


def _koszul(parities, letters):
    return -1 if sum(parities[v] for v in letters) % 2 else 1


def _merge(a, b, parities):
    sign = 1
    for y in b:
        if parities[y]:
            if y in a:
                return (), 0
            sign *= _koszul(parities, (x for x in a if x > y))
    return tuple(sorted(a + b)), sign


def ref_mul(chart, a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key, sign = _merge(k1, k2, chart.parities)
            if sign == 0:
                continue
            out[key] = out.get(key, 0.0) + c1 * c2 * sign
    out = _normalised(out)
    degree = max(map(len, out), default=0)
    if degree > chart.max_word_length:
        raise DegreeOverflowError(f"product degree {degree} exceeds cap "
                                  f"{chart.max_word_length}")
    return out


def ref_derivative(chart, terms, idx, from_left):
    out = {}
    parities = chart.parities
    for word, coeff in terms.items():
        if idx not in word:
            continue
        pos = word.index(idx)
        if parities[idx]:
            factor = _koszul(parities, word[:pos] if from_left else word[pos + 1:])
        else:
            factor = word.count(idx)
        key = word[:pos] + word[pos + 1:]
        out[key] = out.get(key, 0.0) + coeff * factor
    return _normalised(out)


def ref_antibracket(chart, f, g):
    out = {}
    for f_idx, af_idx in chart.pair_indices():
        t1 = ref_mul(chart, ref_derivative(chart, f, f_idx, False),
                     ref_derivative(chart, g, af_idx, True))
        t2 = ref_mul(chart, ref_derivative(chart, f, af_idx, False),
                     ref_derivative(chart, g, f_idx, True))
        out = ref_sub(ref_add(out, t1), t2)
    return out


def ref_laplacian(chart, p, weight=None):
    out = {}
    for f_idx, af_idx in chart.pair_indices():
        sign = (-1) ** chart.parities[f_idx]
        term = ref_derivative(chart, ref_derivative(chart, p, af_idx, True), f_idx, True)
        out = ref_add(out, ref_scale(term, complex(sign)))
    if weight is not None:
        out = ref_sub(out, ref_antibracket(chart, weight, p))
    return out


def ref_exp_nilpotent(chart, p):
    result = power = _normalised({(): complex(1.0)})
    for m in range(1, sum(chart.parities) // 2 + 1):
        power = ref_mul(chart, power, p)
        if not power:
            break
        result = ref_add(result, ref_scale(power, 1.0 / math.factorial(m)))
    return result


# -- charts and draws ------------------------------------------------------------------


def _criterion_10_chart():
    return DarbouxChart((("x", "xi"), ("c", "cb"), ("y", "eta")), (0, 1, -2),
                        max_word_length=12)


def _cat_metric_chart():
    tc = complexes.mapping_torus_complex(verification.CAT_MAP, math.pi)
    fs = bv.build_bf_fields(tc)
    return bv.gauge_polarization(fs, bv.metric_gauge(fs), max_word_length=10)[0]


def _all_odd_chart():
    # 16 odd fields, each paired with an even antifield
    return DarbouxChart(tuple((f"t{i}", f"tb{i}") for i in range(16)), (1,) * 16,
                        max_word_length=16)


CHARTS = {"criterion_10": _criterion_10_chart, "cat_metric": _cat_metric_chart,
          "all_odd": _all_odd_chart}


def _draw(chart, letters, rng, terms, degree):
    """A polynomial of ``terms`` words of at most ``degree`` letters, an odd
    letter at most once per word, with seeded real or complex coefficients."""
    out = {}
    for _ in range(terms):
        word = sorted(int(v) for v in rng.choice(letters, size=int(rng.integers(0, degree + 1))))
        odd = [v for v in word if chart.parities[v]]
        if len(set(odd)) < len(odd):
            continue
        coeff = rng.normal()
        out[tuple(word)] = complex(coeff, rng.normal()) if rng.integers(2) else coeff
    return PolyObservable(chart, out)


def _bits(terms):
    """Each term as (word, coefficient type, real bits, imaginary bits)."""
    return [(key, type(c).__name__, float(c.real).hex(), float(c.imag).hex())
            for key, c in terms.items()]


def _same(got, want):
    assert _bits(got.terms) == _bits(want)


# -- the comparisons ------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(CHARTS))
def test_algebra_matches_the_reference_bit_for_bit(name):
    chart = CHARTS[name]()
    letters = range(len(chart.variables))
    rng = np.random.default_rng(35)
    for _ in range(30):
        f, g, w = (_draw(chart, letters, rng, terms=8, degree=4) for _ in range(3))
        ft, gt = f.terms, g.terms
        _same(f + g, ref_add(ft, gt))
        _same(f - g, ref_sub(ft, gt))
        # sums that cancel: a key that reaches 0 leaves, and comes back last
        _same(f - f, {})
        _same((f + g) - f + f, ref_add(ref_sub(ref_add(ft, gt), ft), ft))
        for s in (-1.0, 0.5 - 2j, 3, 0.0):
            _same(f * s, ref_scale(ft, s))
        _same(f * g, ref_mul(chart, ft, gt))
        _same(g * f, ref_mul(chart, gt, ft))
        for idx in letters:
            for from_left in (True, False):
                _same(f._derivative(idx, from_left), ref_derivative(chart, ft, idx, from_left))
        _same(bv_laplacian(f), ref_laplacian(chart, ft))
        # Delta^2 = 0: terms of different pairs cancel exactly
        _same(bv_laplacian(bv_laplacian(f * g)),
              ref_laplacian(chart, ref_laplacian(chart, ref_mul(chart, ft, gt))))
        _same(bv_laplacian(f * g), ref_laplacian(chart, ref_mul(chart, ft, gt)))
        _same(bv_laplacian(f, weight=w), ref_laplacian(chart, ft, w.terms))
        _same(antibracket(f, g), ref_antibracket(chart, ft, gt))
        _same(antibracket(f * g, w), ref_antibracket(chart, ref_mul(chart, ft, gt), w.terms))


@pytest.mark.parametrize("name", list(CHARTS))
def test_exp_nilpotent_matches_the_reference_bit_for_bit(name):
    chart = CHARTS[name]()
    odd = [i for i, p in enumerate(chart.parities) if p]
    rng = np.random.default_rng(36)
    pairs = [(u, v) for u in odd for v in odd if u < v]
    for terms in (3, 24):
        picked = rng.choice(len(pairs), size=min(terms, len(pairs)), replace=False)
        q = PolyObservable(chart, {pairs[k]: complex(rng.normal(), rng.normal())
                                   for k in sorted(picked)})
        _same(q.exp_nilpotent(), ref_exp_nilpotent(chart, q.terms))


def test_degree_overflow_matches_the_reference():
    chart = DarbouxChart((("x", "xi"), ("c", "cb")), (0, 1), max_word_length=4)
    letters = range(len(chart.variables))
    rng = np.random.default_rng(37)
    raised = 0
    for _ in range(200):
        f, g = (_draw(chart, letters, rng, terms=4, degree=3) for _ in range(2))
        try:
            want = ref_mul(chart, f.terms, g.terms)
        except DegreeOverflowError as err:
            with pytest.raises(DegreeOverflowError, match=str(err)):
                f * g
            raised += 1
            continue
        _same(f * g, want)
    assert raised > 20
