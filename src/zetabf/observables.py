"""Polynomial observables on odd symplectic Darboux charts.

A monomial is stored as its word of variable indices in ascending order: an
even variable repeats once per power and an odd one appears at most once, so
the constant is () and variable i is (i,).  Every Koszul sign is (-1) to the
number of odd letters an odd letter moves past, read off the bit mask of a
word's odd letters (bit i for odd variable i).  A product of words a and b is
zero when their masks meet (a repeated odd letter); otherwise it sorts the
two words together, each odd letter y of b passing the odd letters of a above
y, so the sign is the parity of popcount(mask(a) & w(b)), where bit x of w(b)
is set when an odd number of b's odd letters lie below x.  A derivative
removes one occurrence of its letter, an even letter with its count as
factor, an odd one with the sign over the odd letters below it (left) or
above it (right).

Terms keep their insertion order, so every coefficient sum runs in the order
its terms arose.  A sum copies its left terms once and adds the right ones in
place: each touched coefficient is normalised (0.0 + c turns a -0.0 part into
+0.0), and one that reaches 0 leaves the dict, to re-enter at the end if a
later sum brings it back.  Each coefficient comes from the same IEEE
operations, in the same order, as in a kernel that merges words letter by
letter and rebuilds every sum.

The BV Laplacian is the mixed second derivative over conjugate pairs with the
sign (-1)^{|field|}; the antibracket uses right derivatives in the first slot
and left derivatives in the second.  Both visit only the pairs whose letters
occur in their arguments (any other pair contributes no term) and add into
one dict.  Gaussian expectations integrate even coordinates by Wick pairing
against the inverse of the weight's Hessian and odd coordinates by Berezin
extraction of the top monomial; odd variables integrate in descending order,
so that int d(xi_n) ... d(xi_1) xi_1 ... xi_n = 1.  The odd pairing is
degenerate when its Berezin normalisation (a Pfaffian) is at most
``ODD_DEGENERACY_TOL`` times its Hadamard bound; a pairing far from unit
scale is first brought near it by an exact power-of-two rescaling of the odd
variables.  A chart stores its variable table (names, parities and odd-letter
bits), which every derivative, sign and Berezin split reads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegreeOverflowError, DeterminantRangeError, IndefiniteWeightError

# an odd pairing whose Berezin normalisation is at most this fraction of its
# Hadamard bound prod_v |A_v|^(1/2) (A_v: row v of the pairing) is degenerate
ODD_DEGENERACY_TOL = 1e-12
# the odd variables are rescaled by a power of two when that bound lies
# outside 2^(+-ODD_RESCALE_BITS), so the normalisation stays a normal float
ODD_RESCALE_BITS = 128

# monomial key: the word of variable indices in ascending order, an even
# variable once per power, an odd one at most once
Monomial = Tuple[int, ...]


@dataclass(frozen=True)
class DarbouxChart:
    """Conjugate coordinate pairs (field, antifield) with integer degrees.

    The antifield of a degree-d field has degree -1-d, so each pair has one
    even and one odd member.  ``max_word_length`` caps the polynomial degree
    the chart supports.  Construction stores the chart's variable table:
    ``variables`` lists variable 2i, the field of pair i, before variable
    2i+1, its antifield, ``parities`` their degrees mod 2 and ``odd_bits``
    the bit 1 << i of each odd variable i (0 for an even one).  Equality and
    hashing read the three declared fields only.
    """

    pairs: Tuple[Tuple[str, str], ...]
    field_degrees: Tuple[int, ...]
    max_word_length: int = 4

    def __post_init__(self):
        if len(self.pairs) != len(self.field_degrees):
            raise ValueError("need one degree per pair")
        names = tuple(v for p in self.pairs for v in p)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        object.__setattr__(self, "variables", names)
        parities = tuple(p for d in self.field_degrees for p in (d % 2, (-1 - d) % 2))
        object.__setattr__(self, "parities", parities)
        object.__setattr__(self, "odd_bits",
                           tuple(p << i for i, p in enumerate(parities)))

    def index(self, name: str) -> int:
        return self.variables.index(name)

    def parity_of(self, idx: int) -> int:
        return self.parities[idx]

    def pair_indices(self) -> List[Tuple[int, int]]:
        return [(2 * i, 2 * i + 1) for i in range(len(self.pairs))]


class PolyObservable:
    """Complex polynomial in the chart's graded coordinates.  It adds and
    subtracts observables only, and multiplies by observables or scalars."""

    def __init__(self, chart: DarbouxChart, terms: Optional[Dict[Monomial, complex]] = None):
        self.chart = chart
        # zero coefficients are dropped; 0.0 + coeff turns a -0.0 real part into +0.0
        self.terms: Dict[Monomial, complex] = {
            key: 0.0 + coeff for key, coeff in (terms or {}).items() if coeff != 0}

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, chart: DarbouxChart, value: complex) -> "PolyObservable":
        return cls(chart, {(): complex(value)})

    @classmethod
    def variable(cls, chart: DarbouxChart, name: str) -> "PolyObservable":
        return cls(chart, {(chart.index(name),): 1.0 + 0.0j})

    # -- bookkeeping ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def word_length(self) -> int:
        return max(map(len, self.terms), default=0)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def parity(self) -> Optional[int]:
        """Mod-2 parity if homogeneous, else None."""
        seen = {sum(self.chart.parities[v] for v in key) % 2 for key in self.terms}
        if len(seen) == 1:
            return seen.pop()
        return None if seen else 0

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "PolyObservable") -> "PolyObservable":
        out = dict(self.terms)
        _add_into(out, other.terms)
        return _observable(self.chart, out)

    def __sub__(self, other: "PolyObservable") -> "PolyObservable":
        return self + other * (-1.0)

    def __mul__(self, other):
        if not isinstance(other, PolyObservable):
            return PolyObservable(self.chart,
                                  {k: v * other for k, v in self.terms.items()})
        chart = self.chart
        bits = chart.odd_bits
        right = []
        for k2, c2 in other.terms.items():
            # -(bit << 1) sets every bit above y, so bit x of w2 is set when an
            # odd number of k2's odd letters lie below x: popcount(m1 & w2)
            # is then odd exactly when the sign is -1
            w2 = 0
            for y in k2:
                w2 ^= -(bits[y] << 1)
            right.append((k2, c2, _odd_mask(k2, bits), w2, k2[0] if k2 else len(bits)))
        out: Dict[Monomial, complex] = {}
        get = out.get
        for k1, c1 in self.terms.items():
            m1 = _odd_mask(k1, bits)
            last1 = k1[-1] if k1 else 0
            for k2, c2, m2, w2, first2 in right:
                if m1 & m2:
                    continue
                # words that do not interleave just concatenate
                key = k1 + k2 if last1 <= first2 else tuple(sorted(k1 + k2))
                out[key] = get(key, 0.0) + c1 * c2 * (-1 if (m1 & w2).bit_count() & 1 else 1)
        prod = PolyObservable(chart, out)
        if prod.word_length() > chart.max_word_length:
            raise DegreeOverflowError(
                f"product degree {prod.word_length()} exceeds cap "
                f"{chart.max_word_length}"
            )
        return prod

    __rmul__ = __mul__

    # -- derivatives -------------------------------------------------------------

    def _derivative(self, idx: int, from_left: bool) -> "PolyObservable":
        # removing one occurrence of a letter is injective on words, so no
        # two terms meet and each coefficient is 0.0 + coeff * factor
        out: Dict[Monomial, complex] = {}
        bits = self.chart.odd_bits
        odd = bits[idx]
        # the odd letters an odd idx passes: those below it (left) or above it
        passed = odd - 1 if from_left else -(odd << 1)
        for word, coeff in self.terms.items():
            if idx not in word:
                continue
            pos = word.index(idx)
            if odd:
                factor = -1 if (_odd_mask(word, bits) & passed).bit_count() & 1 else 1
            else:
                factor = word.count(idx)
            value = 0.0 + coeff * factor
            if value != 0:
                out[word[:pos] + word[pos + 1:]] = value
        return _observable(self.chart, out)

    def substitute_zero(self, names: Iterable[str]) -> "PolyObservable":
        """Set the listed variables to zero."""
        idxs = {self.chart.index(n) for n in names}
        return PolyObservable(self.chart, {key: coeff for key, coeff in self.terms.items()
                                           if idxs.isdisjoint(key)})

    def exp_nilpotent(self) -> "PolyObservable":
        """exp of a polynomial with no even variables (finite series)."""
        if any(self.chart.parities[v] == 0 for key in self.terms for v in key):
            raise ValueError("exp_nilpotent requires a purely odd-generated input")
        result = PolyObservable.constant(self.chart, 1.0)
        power = PolyObservable.constant(self.chart, 1.0)
        n_odd = sum(self.chart.parities)
        for m in range(1, n_odd // 2 + 1):
            power = power * self
            if power.is_zero():
                break
            result = result + power * (1.0 / math.factorial(m))
        return result


def _odd_mask(word: Monomial, bits: Sequence[int]) -> int:
    """The word's odd letters as a bit mask."""
    return sum(map(bits.__getitem__, word))


def _observable(chart: DarbouxChart, terms: Dict[Monomial, complex]) -> PolyObservable:
    """An observable on terms that are already normalised and nonzero."""
    out = PolyObservable.__new__(PolyObservable)
    out.chart, out.terms = chart, terms
    return out


def _add_into(out: Dict[Monomial, complex], terms: Dict[Monomial, complex]) -> None:
    """Add normalised terms into ``out`` in place: each touched sum is
    normalised, and a sum that reaches 0 leaves ``out``."""
    get = out.get
    for k, v in terms.items():
        s = get(k, 0.0) + v
        if s != 0:
            out[k] = 0.0 + s
        else:
            del out[k]


def random_observable(chart: DarbouxChart, rng: np.random.Generator,
                      degree: int = 3, terms: int = 6,
                      parity: Optional[int] = None) -> PolyObservable:
    """Random polynomial built from products of chart variables.  With
    ``parity`` p it keeps only the products of parity p, so the result is
    homogeneous of parity p (or zero)."""
    vars_ = chart.variables
    out = PolyObservable.constant(chart, 0.0)
    for _ in range(terms):
        n = int(rng.integers(0 if parity is None else 1, degree + 1))
        mono = PolyObservable.constant(chart, complex(rng.normal(), rng.normal()))
        for _ in range(n):
            mono = mono * PolyObservable.variable(chart, vars_[int(rng.integers(len(vars_)))])
        if parity is not None and mono.parity() != parity:
            continue
        out = out + mono
    return out


# -- BV operators ------------------------------------------------------------------


def bv_laplacian(p: PolyObservable, weight: Optional[PolyObservable] = None) -> PolyObservable:
    """Odd Laplacian Delta p = sum_i (-1)^{|x_i|} d/dx_i d/dxi_i p.

    With ``weight`` q the measure-twisted Laplacian for e^(-q) times the flat
    measure is returned: Delta p - (q, p) on parity-homogeneous components.
    Delta^2 = 0 identically on the monomial basis.
    """
    chart = p.chart
    if p.word_length() > chart.max_word_length:
        raise DegreeOverflowError("observable exceeds the chart degree cap")
    letters = set().union(*p.terms)
    terms: Dict[Monomial, complex] = {}
    for f_idx, af_idx in chart.pair_indices():
        if f_idx in letters and af_idx in letters:
            sign = (-1) ** chart.parity_of(f_idx)
            term = p._derivative(af_idx, from_left=True)._derivative(f_idx, from_left=True)
            _add_into(terms, (term * complex(sign)).terms)
    out = _observable(chart, terms)
    if weight is not None:
        out = out - antibracket(weight, p)
    return out


def antibracket(f: PolyObservable, g: PolyObservable) -> PolyObservable:
    """(f, g) = sum_i [ (df/dx_i)_R (dg/dxi_i)_L - (df/dxi_i)_R (dg/dx_i)_L ]."""
    chart = f.chart
    f_letters, g_letters = set().union(*f.terms), set().union(*g.terms)
    out: Dict[Monomial, complex] = {}
    for f_idx, af_idx in chart.pair_indices():
        if f_idx in f_letters and af_idx in g_letters:
            t1 = f._derivative(f_idx, from_left=False) * g._derivative(af_idx, from_left=True)
            _add_into(out, t1.terms)
        if af_idx in f_letters and f_idx in g_letters:
            t2 = f._derivative(af_idx, from_left=False) * g._derivative(f_idx, from_left=True)
            _add_into(out, (t2 * (-1.0)).terms)
    return _observable(chart, out)


# -- Gaussian / Berezin expectations -------------------------------------------------


def _wick(cov: np.ndarray, idx: List[int]) -> float:
    if not idx:
        return 1.0
    if len(idx) % 2 == 1:
        return 0.0
    head, rest = idx[0], idx[1:]
    total = 0.0
    for j in range(len(rest)):
        total += cov[head, rest[j]] * _wick(cov, rest[:j] + rest[j + 1:])
    return total


def _quadratic_data(weight: PolyObservable, even_vars: List[int], odd_vars: List[int]):
    """Split a quadratic weight into its even Hessian and odd pairing parts.
    An even coefficient must be real to 1e-14 of its modulus."""
    chart = weight.chart
    epos = {v: i for i, v in enumerate(even_vars)}
    on = (set(even_vars), set(odd_vars))
    hess = np.zeros((len(even_vars), len(even_vars)))
    odd_part = PolyObservable.constant(chart, 0.0)
    for key, coeff in weight.terms.items():
        if len(key) != 2:
            raise ValueError("weight must be purely quadratic")
        v1, v2 = key
        odd = chart.parities[v1]
        if chart.parities[v2] != odd:
            raise ValueError("weight mixes parities within one monomial")
        if not odd and abs(coeff.imag) > 1e-14 * abs(coeff):
            raise IndefiniteWeightError("even weight must be real")
        if not on[odd].issuperset(key):
            raise ValueError("weight involves a non-Lagrangian variable")
        if odd:
            odd_part = odd_part + PolyObservable(chart, {key: coeff})
        else:
            # x^2 adds its coefficient twice to one entry: exactly 2c
            hess[epos[v1], epos[v2]] += coeff.real
            hess[epos[v2], epos[v1]] += coeff.real
    return hess, odd_part


def _log2_hadamard_bound(odd_part: PolyObservable, odd_vars: List[int]) -> float:
    """log2 of prod_v |A_v|^(1/2) over the rows A_v of the odd pairing matrix,
    a bound on its Pfaffian: -inf when some odd variable is unpaired."""
    rows: Dict[int, List[float]] = {v: [] for v in odd_vars}
    for (u, v), coeff in odd_part.terms.items():
        rows[u].append(abs(coeff))
        rows[v].append(abs(coeff))
    norms = [math.hypot(*row) for row in rows.values()]
    return sum(math.log2(h) if h else -math.inf for h in norms) / 2


def _times_per_odd_letter(p: PolyObservable, step: float) -> PolyObservable:
    """p with each coefficient multiplied by ``step`` once per odd letter."""
    parities = p.chart.parities
    out = {}
    for key, coeff in p.terms.items():
        for v in key:
            if parities[v]:
                coeff = coeff * step
        out[key] = coeff
    return PolyObservable(p.chart, out)


def gaussian_expectation(p: PolyObservable, lagrangian_vars: Sequence[str],
                         weight: PolyObservable):
    """(normalised expectation of p over the coordinate Lagrangian, scale).

    The Lagrangian is the span of ``lagrangian_vars`` (the conjugate
    coordinates are set to zero).  Even coordinates integrate against
    e^(-weight_even) by Wick pairing (the Hessian must be positive definite),
    odd coordinates by Berezin rules with e^(-weight_odd) expanded.  An odd
    pairing whose normalisation is at most ``ODD_DEGENERACY_TOL`` times its
    Hadamard bound raises ``IndefiniteWeightError``; one whose bound lies
    outside 2^(+-``ODD_RESCALE_BITS``) is computed on odd variables rescaled
    by a power of two, which leaves the normalised value unchanged.

    The scale is the magnitude of the largest intermediate moment, for
    relative-error reporting.  An expectation or scale beyond the float range
    raises ``DeterminantRangeError`` with log10 |<p>|.
    """
    chart = p.chart
    on = [chart.index(v) for v in lagrangian_vars]
    on_set = set(on)
    off = [v for i, v in enumerate(chart.variables) if i not in on_set]
    even_vars = [v for v in on if chart.parity_of(v) == 0]
    odd_vars = sorted(v for v in on if chart.parity_of(v) == 1)

    hess, odd_part = _quadratic_data(weight, even_vars, odd_vars)
    if even_vars:
        eigs = np.linalg.eigvalsh(hess)
        if np.min(eigs) <= 0:
            raise IndefiniteWeightError(
                f"even weight not positive definite (min eig {np.min(eigs):.3g})"
            )
        cov = np.linalg.inv(hess)
    else:
        cov = np.zeros((0, 0))

    p_on = p_plain = p.substitute_zero(off)
    log2_bound = _log2_hadamard_bound(odd_part, odd_vars)
    shift = 0
    if math.isfinite(log2_bound) and abs(log2_bound) > ODD_RESCALE_BITS:
        # xi -> 2^shift xi for every odd variable brings the bound near 1:
        # each odd letter of a word multiplies its coefficient by 2^shift
        shift = -round(log2_bound / len(odd_vars))
        step = math.ldexp(1.0, shift)
        odd_part, p_on = (_times_per_odd_letter(q, step) for q in (odd_part, p_on))
    odd_factor = (odd_part * (-1.0)).exp_nilpotent()
    damped = p_on * odd_factor

    epos = {v: i for i, v in enumerate(even_vars)}

    def integrate(poly: PolyObservable):
        total = 0.0 + 0.0j
        scale = 0.0
        for key, coeff in poly.terms.items():
            # only the top odd monomial survives Berezin integration
            if [v for v in key if chart.parities[v]] != odd_vars:
                continue
            idx = [epos.get(v) for v in key if not chart.parities[v]]
            if None in idx:
                raise ValueError("stray non-Lagrangian variable survived")
            moment = coeff * _wick(cov, idx)
            total += moment
            scale = max(scale, abs(moment))
        return total, scale

    z_odd, _ = integrate(odd_factor)
    if abs(z_odd) <= ODD_DEGENERACY_TOL * 2.0 ** (log2_bound + shift * len(odd_vars)):
        raise IndefiniteWeightError("odd part of the weight is degenerate")
    value, scale = integrate(damped)
    value, scale = value / z_odd, scale / abs(z_odd)
    if not (cmath.isfinite(value) and math.isfinite(scale)):
        raise DeterminantRangeError(_log10_abs_beyond_range(
            p_plain, shift, lambda q: integrate(q * odd_factor)[0] / z_odd))
    return value, scale


def _log10_abs_beyond_range(p: PolyObservable, shift: int, expectation) -> float:
    """log10 |<p>| for an expectation beyond the float range, inf where it
    cannot be formed.  ``expectation`` is linear in p, so it is taken of p
    with each coefficient, times 2^shift per odd letter, divided by 2^t, t the
    largest binary exponent that reaches, and t is added back in log form."""
    odd = {key: sum(p.chart.parities[v] for v in key) for key in p.terms}
    t = max(math.frexp(abs(c))[1] + shift * odd[key] for key, c in p.terms.items())
    scaled = expectation(PolyObservable(p.chart, {
        key: complex(math.ldexp(c.real, shift * odd[key] - t),
                     math.ldexp(c.imag, shift * odd[key] - t))
        for key, c in p.terms.items()}))
    if not (cmath.isfinite(scaled) and scaled):
        return math.inf
    return math.log10(abs(scaled)) + t * math.log10(2.0)


def monomial_basis(chart: DarbouxChart, max_degree: int) -> List[PolyObservable]:
    """All monomials of word length <= max_degree, each with coefficient 1,
    layer by layer: each word of one layer extended by each chart variable."""
    if max_degree > chart.max_word_length:
        raise DegreeOverflowError(f"basis degree {max_degree} exceeds cap "
                                  f"{chart.max_word_length}")
    basis: List[PolyObservable] = [PolyObservable.constant(chart, 1.0)]
    layer: List[Monomial] = [()]
    seen = set(layer)
    for _ in range(max_degree):
        next_layer = []
        for word in layer:
            for v, odd in enumerate(chart.parities):
                key = tuple(sorted(word + (v,)))
                if (odd and v in word) or key in seen:
                    continue
                seen.add(key)
                next_layer.append(key)
        layer = next_layer
        basis += [PolyObservable(chart, {key: 1.0}) for key in layer]
    return basis
