"""Polynomial observables on odd symplectic Darboux charts.

Monomials are kept in a canonical normal order (even variables as exponent
maps, odd variables as ascending index tuples with Koszul signs tracked on
every reordering).  The BV Laplacian is the mixed second derivative over
conjugate pairs with the sign (-1)^{|field|}; the antibracket uses right
derivatives in the first slot and left derivatives in the second.  Gaussian
expectations integrate even coordinates by Wick pairing against the inverse
of the weight's Hessian and odd coordinates by Berezin extraction of the top
monomial; odd variables integrate in descending order, so that
int d(xi_n) ... d(xi_1) xi_1 ... xi_n = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegreeOverflowError, IndefiniteWeightError

# monomial key: (evens, odds) with evens = ((var, exp), ...) and odds = (var, ...)
Monomial = Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]


@dataclass(frozen=True)
class DarbouxChart:
    """Conjugate coordinate pairs (field, antifield) with integer degrees.

    The antifield of a degree-d field has degree -1-d, so each pair has one
    even and one odd member.  ``max_word_length`` caps the polynomial degree
    the chart supports.
    """

    pairs: Tuple[Tuple[str, str], ...]
    field_degrees: Tuple[int, ...]
    max_word_length: int = 4

    def __post_init__(self):
        if len(self.pairs) != len(self.field_degrees):
            raise ValueError("need one degree per pair")
        names = [v for p in self.pairs for v in p]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(v for p in self.pairs for v in p)

    def index(self, name: str) -> int:
        return self.variables.index(name)

    def degree_of(self, idx: int) -> int:
        pair, member = divmod(idx, 2)
        d = self.field_degrees[pair]
        return d if member == 0 else -1 - d

    def parity_of(self, idx: int) -> int:
        return self.degree_of(idx) % 2

    def pair_indices(self) -> List[Tuple[int, int]]:
        return [(2 * i, 2 * i + 1) for i in range(len(self.pairs))]


class PolyObservable:
    """Complex polynomial in the chart's graded coordinates."""

    def __init__(self, chart: DarbouxChart, terms: Optional[Dict[Monomial, complex]] = None):
        self.chart = chart
        # zero coefficients are dropped; 0.0 + coeff turns a -0.0 real part into +0.0
        self.terms: Dict[Monomial, complex] = {
            key: 0.0 + coeff for key, coeff in (terms or {}).items() if coeff != 0}

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, chart: DarbouxChart, value: complex) -> "PolyObservable":
        return cls(chart, {((), ()): complex(value)})

    @classmethod
    def variable(cls, chart: DarbouxChart, name: str) -> "PolyObservable":
        idx = chart.index(name)
        if chart.parity_of(idx) == 0:
            key: Monomial = (((idx, 1),), ())
        else:
            key = ((), (idx,))
        return cls(chart, {key: 1.0 + 0.0j})

    # -- bookkeeping ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def word_length(self) -> int:
        out = 0
        for evens, odds in self.terms:
            out = max(out, sum(e for _, e in evens) + len(odds))
        return out

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def parity(self) -> Optional[int]:
        """Mod-2 parity if homogeneous, else None."""
        seen = set()
        for evens, odds in self.terms:
            p = sum(self.chart.parity_of(v) * e for v, e in evens)
            p += sum(self.chart.parity_of(v) for v in odds)
            seen.add(p % 2)
        if len(seen) == 1:
            return seen.pop()
        return None if seen else 0

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) + v
        return PolyObservable(self.chart, out)

    def __sub__(self, other):
        return self + (self._coerce(other) * (-1.0))

    def __mul__(self, other):
        if np.isscalar(other):
            return PolyObservable(self.chart,
                                  {k: v * other for k, v in self.terms.items()})
        out: Dict[Monomial, complex] = {}
        for (ev1, od1), c1 in self.terms.items():
            for (ev2, od2), c2 in other.terms.items():
                key, sign = _merge(ev1, od1, ev2, od2)
                if sign == 0:
                    continue
                coeff = c1 * c2 * sign
                out[key] = out.get(key, 0.0) + coeff
        prod = PolyObservable(self.chart, out)
        if prod.word_length() > self.chart.max_word_length:
            raise DegreeOverflowError(
                f"product degree {prod.word_length()} exceeds cap "
                f"{self.chart.max_word_length}"
            )
        return prod

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, PolyObservable):
            return other
        return PolyObservable.constant(self.chart, other)

    # -- derivatives -------------------------------------------------------------

    def _derivative(self, idx: int, from_left: bool) -> "PolyObservable":
        out: Dict[Monomial, complex] = {}
        odd = self.chart.parity_of(idx) == 1
        for (evens, odds), coeff in self.terms.items():
            if odd:
                if idx not in odds:
                    continue
                pos = odds.index(idx)
                sign = (-1) ** pos if from_left else (-1) ** (len(odds) - 1 - pos)
                key = (evens, odds[:pos] + odds[pos + 1:])
                out[key] = out.get(key, 0.0) + coeff * sign
            else:
                ev = dict(evens)
                if idx not in ev:
                    continue
                e = ev[idx]
                if e == 1:
                    del ev[idx]
                else:
                    ev[idx] = e - 1
                key = (tuple(sorted(ev.items())), odds)
                out[key] = out.get(key, 0.0) + coeff * e
        return PolyObservable(self.chart, out)

    def substitute_zero(self, names: Iterable[str]) -> "PolyObservable":
        """Set the listed variables to zero."""
        idxs = {self.chart.index(n) for n in names}
        out = {}
        for (evens, odds), coeff in self.terms.items():
            if any(v in idxs for v, _ in evens) or any(v in idxs for v in odds):
                continue
            out[(evens, odds)] = coeff
        return PolyObservable(self.chart, out)

    def exp_nilpotent(self) -> "PolyObservable":
        """exp of a polynomial with no even variables (finite series)."""
        for evens, _ in self.terms:
            if evens:
                raise ValueError("exp_nilpotent requires a purely odd-generated input")
        result = PolyObservable.constant(self.chart, 1.0)
        power = PolyObservable.constant(self.chart, 1.0)
        n_odd = len([v for v in range(len(self.chart.variables))
                     if self.chart.parity_of(v) == 1])
        for m in range(1, n_odd // 2 + 1):
            power = power * self
            if power.is_zero():
                break
            result = result + power * (1.0 / math.factorial(m))
        return result


def _merge(ev1, od1, ev2, od2) -> Tuple[Monomial, int]:
    """Normal-ordered product of two monomial keys with its Koszul sign."""
    ev = dict(ev1)
    for v, e in ev2:
        ev[v] = ev.get(v, 0) + e
    # merge odd tuples, counting inversions; repeated odd variable kills it
    merged: List[int] = []
    sign = 1
    i = j = 0
    a, b = list(od1), list(od2)
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return ((), ()), 0
        if a[i] < b[j]:
            merged.append(a[i]); i += 1
        else:
            # b[j] moves past the remaining len(a)-i odd letters
            if (len(a) - i) % 2 == 1:
                sign = -sign
            merged.append(b[j]); j += 1
    merged.extend(a[i:]); merged.extend(b[j:])
    return (tuple(sorted(ev.items())), tuple(merged)), sign


def random_observable(chart: DarbouxChart, rng: np.random.Generator,
                      degree: int = 3, terms: int = 6,
                      parity: Optional[int] = None) -> PolyObservable:
    """Random polynomial built from products of chart variables."""
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
    out = PolyObservable.constant(chart, 0.0)
    for f_idx, af_idx in chart.pair_indices():
        sign = (-1) ** chart.parity_of(f_idx)
        term = p._derivative(af_idx, from_left=True)._derivative(f_idx, from_left=True)
        out = out + term * complex(sign)
    if weight is not None:
        out = out - antibracket(weight, p)
    return out


def antibracket(f: PolyObservable, g: PolyObservable) -> PolyObservable:
    """(f, g) = sum_i [ (df/dx_i)_R (dg/dxi_i)_L - (df/dxi_i)_R (dg/dx_i)_L ]."""
    chart = f.chart
    out = PolyObservable.constant(chart, 0.0)
    for f_idx, af_idx in chart.pair_indices():
        t1 = f._derivative(f_idx, from_left=False) * g._derivative(af_idx, from_left=True)
        t2 = f._derivative(af_idx, from_left=False) * g._derivative(f_idx, from_left=True)
        out = out + t1 - t2
    return out


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
    """Split a quadratic weight into its even Hessian and odd pairing parts."""
    chart = weight.chart
    n_e, n_o = len(even_vars), len(odd_vars)
    epos = {v: i for i, v in enumerate(even_vars)}
    opos = {v: i for i, v in enumerate(odd_vars)}
    hess = np.zeros((n_e, n_e))
    odd_part = PolyObservable.constant(chart, 0.0)
    for (evens, odds), coeff in weight.terms.items():
        length = sum(e for _, e in evens) + len(odds)
        if length != 2:
            raise ValueError("weight must be purely quadratic")
        if odds and evens:
            raise ValueError("weight mixes parities within one monomial")
        if evens:
            if abs(coeff.imag) > 1e-14:
                raise IndefiniteWeightError("even weight must be real")
            if len(evens) == 1 and evens[0][1] == 2:
                v = evens[0][0]
                if v not in epos:
                    raise ValueError("weight involves a non-Lagrangian variable")
                hess[epos[v], epos[v]] += 2.0 * coeff.real
            else:
                (v1, _), (v2, _) = evens
                if v1 not in epos or v2 not in epos:
                    raise ValueError("weight involves a non-Lagrangian variable")
                hess[epos[v1], epos[v2]] += coeff.real
                hess[epos[v2], epos[v1]] += coeff.real
        else:
            if any(v not in opos for v in odds):
                raise ValueError("weight involves a non-Lagrangian variable")
            odd_part = odd_part + PolyObservable(chart, {(evens, odds): coeff})
    return hess, odd_part


def gaussian_expectation(p: PolyObservable, lagrangian_vars: Sequence[str],
                         weight: PolyObservable):
    """(normalised expectation of p over the coordinate Lagrangian, scale).

    The Lagrangian is the span of ``lagrangian_vars`` (the conjugate
    coordinates are set to zero).  Even coordinates integrate against
    e^(-weight_even) by Wick pairing (the Hessian must be positive definite),
    odd coordinates by Berezin rules with e^(-weight_odd) expanded; a
    degenerate odd pairing makes the normalisation vanish and raises.

    The scale is the magnitude of the largest intermediate moment, for
    relative-error reporting.
    """
    chart = p.chart
    on = [chart.index(v) for v in lagrangian_vars]
    off = [v for v in chart.variables if chart.index(v) not in set(on)]
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

    odd_factor = (odd_part * (-1.0)).exp_nilpotent()
    damped = p.substitute_zero(off) * odd_factor
    normal = odd_factor

    epos = {v: i for i, v in enumerate(even_vars)}
    top = tuple(odd_vars)

    def integrate(poly: PolyObservable):
        total = 0.0 + 0.0j
        scale = 0.0
        for (evens, odds), coeff in poly.terms.items():
            if odds != top:
                continue
            idx = []
            for v, e in evens:
                if v not in epos:
                    raise ValueError("stray non-Lagrangian variable survived")
                idx.extend([epos[v]] * e)
            moment = coeff * _wick(cov, idx)
            total += moment
            scale = max(scale, abs(moment))
        return total, scale

    z_odd, _ = integrate(normal)
    if abs(z_odd) < 1e-300:
        raise IndefiniteWeightError("odd part of the weight is degenerate")
    value, scale = integrate(damped)
    return value / z_odd, scale / abs(z_odd)


def monomial_basis(chart: DarbouxChart, max_degree: int) -> List[PolyObservable]:
    """All normal-ordered monomials of word length <= max_degree."""
    variables = chart.variables
    basis: List[PolyObservable] = [PolyObservable.constant(chart, 1.0)]
    seen = {((), ())}
    frontier = [PolyObservable.constant(chart, 1.0)]
    for _ in range(max_degree):
        new_frontier = []
        for mono in frontier:
            for name in variables:
                prod = mono * PolyObservable.variable(chart, name)
                if prod.is_zero():
                    continue
                key = next(iter(prod.terms))
                if key in seen:
                    continue
                seen.add(key)
                normalized = PolyObservable(chart, {key: 1.0})
                basis.append(normalized)
                new_frontier.append(normalized)
        frontier = new_frontier
    return basis
