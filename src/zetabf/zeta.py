"""Twisted Ruelle zeta functions from periodic-orbit data.

Euler products and their k-form factors are evaluated as truncated orbit sums
with certified geometric tail bounds.  For constant-roof suspensions,
lambda = 0 is reached by the closed-form resummation (A's eigenvalues) and by
the cycle expansion of ``cycle_zeta`` (the orbit terms alone), never by an
Euler product outside its half-plane.

The orbit sums read one term table per (OrbitData, J), cached on the
OrbitData: the record order and repetition cut-off, each term's record and
repetition j, and per-record constants, with the holonomy powers of the last
theta and, per k on first use, only the weights
w_k = tr Lambda^k P^j / |det(I - P^j)|, from ``_poincare_weight`` as in the
flat trace.  The table also keeps the amplitude of its last (theta, lambda),
the part of a term that no k changes, -count hol^j e^(-lambda j l); a k = 0,
1, 2, full sweep forms it once and applies only the weight and the divide
per k.  The key is the exact bits of theta and of both parts of lambda, and
whether lambda is a complex: a float lambda takes the real exponential path
and a complex one with zero imaginary part the complex product, and the two
amplitudes can differ in the signs of their zeros, as can those of imaginary
parts +0.0 and -0.0.  The table is read in blocks of _BLOCK terms.  Its
values are bit for bit those of a term-by-term Python loop:

* exp and pow are libm's, called once per term (math.exp, or cmath.exp when
  lambda has a nonzero imaginary part, and pow); numpy's vectorised exp and
  power differ from libm in the last bit on some machines;
* complex products follow CPython's formula on real and imaginary arrays, a
  real factor entering as (x, 0.0), and so does division by a real;
* holonomies are raised to the power j by CPython's binary exponentiation for
  j <= 100, and by scalar ** above;
* sums run left to right with np.add.accumulate, carried across blocks, never
  with the pairwise np.sum;
* Poincare eigenvalue powers are scalar **, so exactly the inputs that
  overflow term by term raise the same OverflowError; the weights of a
  degree k are formed before its amplitude is used, so a failing degree
  raises on every call.

The tail certificate of an ingested spectrum reads per-record arrays that
the term table builds with itself (``_TermTable.record_tails``), in the
file's record order, with libm exp and pow per record and the terms added by
sum() in that order, as the scalar loop adds them.

The mirrored arithmetic is that of CPython 3.10 to 3.13, in which a real
operand of a complex product enters as (x, 0.0) and sum() adds complex numbers
left to right; the identity was checked on 3.11.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .errors import (
    DivergentRegionError,
    NotAcyclicError,
    SupportTooWideError,
    ValidationError,
)
from .orbits import TRANSVERSE_RANK, OrbitData, ToralAutomorphism, form_degree, g17

DegreeSpec = Union[int, str]


@dataclass(frozen=True)
class ZetaEvaluation:
    """A truncated log zeta value with its truncation certificate."""

    lam: complex
    k: DegreeSpec
    value: complex
    J: int
    truncation_error_bound: float


def _poincare_weight(eu, es, k: int):
    """w_k = tr Lambda^k P^j / |det(I - P^j)| of a checked degree k from the
    powers eu = eig_expanding^j, es = eig_contracting^j: floats or arrays, by
    the same IEEE operations; the trace is the float 1.0 for k = 0."""
    return (1.0, eu + es, eu * es)[k] / abs((1.0 - eu) * (1.0 - es))


def _suspension_tail(data: OrbitData, lam: complex, k: DegreeSpec, J: int) -> float:
    """Geometric tail bound over total periods m > min(J, data.complete_to)
    for a suspension list: periods above complete_to may miss primitive orbits.

    Uses |tr Lambda^k A^m| <= 2*mu^m for k = 1 (and <= 1 for k in {0,2}), and
    for the full zeta the crude orbit-count bound F(m) <= 4*mu^m.
    """
    aut = data.aut
    mu = abs(aut.expanding_eigenvalue)
    q = math.exp(-lam.real * aut.roof)
    if k == "full":
        ratio, prefactor = q * mu, 4.0
    elif k == 1:
        ratio, prefactor = q * mu, 2.0
    else:
        ratio, prefactor = q, 1.0
    if ratio >= 1.0:
        raise DivergentRegionError(lam)
    m = min(J, data.complete_to) + 1
    return prefactor * ratio ** m / (m * (1.0 - ratio))


class RecordTails:
    """The repetition tails of an ingested spectrum, one per record, as arrays.

    Per record, in record order: |eig_expanding|, 1/((|eu| - 1)(1 - |es|)),
    the length and the count.  A tail is the Python loop's value bit for bit:
    exp and pow are libm's, one call per record, and the terms are added by
    sum() in record order.  Counts beyond the float range stay integers and
    are converted where the loop would multiply them, raising as it does.
    """

    def __init__(self, records):
        self.eu = np.array([abs(r.eig_expanding) for r in records], dtype=float)
        es = np.array([abs(r.eig_contracting) for r in records], dtype=float)
        self.inv_det = 1.0 / ((self.eu - 1.0) * (1.0 - es))
        self.length = np.array([r.length for r in records], dtype=float)
        counts = [r.count for r in records]
        try:
            self.count = np.array(counts, dtype=float)
        except OverflowError:
            self.count = counts

    def tail(self, lam: complex, k: DegreeSpec, j_min: int) -> float:
        """Sum over records of count * weight * ratio^j_min / (j_min (1 - ratio)),
        the tail of the repetition sums j >= j_min."""
        n = self.length.size
        x = -lam.real * self.length
        # exp(709) >= 1 already marks a record divergent; the clip keeps
        # math.exp from overflowing on a record the loop never reaches
        q = np.fromiter(map(math.exp, np.minimum(x, 709.0).tolist()), float, n)
        if k == "full":
            ratio, weight = q, 1.0
        elif k == 1:
            with np.errstate(over="ignore"):        # inf marks a divergent record
                ratio, weight = q * self.eu, 2.0 * self.inv_det
        else:
            ratio, weight = q, self.inv_det
        # the loop forms the terms before the first divergent record, then stops
        hit = np.flatnonzero(ratio >= 1.0)
        stop = int(hit[0]) if hit.size else n
        r = ratio[:stop]
        count = np.asarray(self.count[:stop], dtype=float)
        power = np.fromiter(map(pow, r.tolist(), itertools.repeat(j_min)), float, stop)
        numer = count * _part(weight, slice(stop)) * power
        # Python's division, so that a zero j_min raises as the loop does
        terms = list(map(operator.truediv, numer.tolist(), (j_min * (1.0 - r)).tolist()))
        if stop < n:
            math.exp(x[stop])       # overflows where the loop's exp would
            raise DivergentRegionError(lam)
        return sum(terms)


def _tail(data: OrbitData, lam: complex, k: DegreeSpec, J: int) -> float:
    """Truncation certificate of a J-term orbit sum; raises where it diverges.
    Every truncated sum reads it first, so it also refuses J < 1."""
    if J < 1:
        raise ValidationError("J", f"truncation must be >= 1, got {J}")
    if data.is_suspension:
        tail = _suspension_tail(data, lam, k, J)
    else:
        tail = _term_table(data, J).record_tails.tail(lam, k, J + 1)
    if not math.isfinite(tail):
        raise DivergentRegionError(lam)
    return tail


# -- the orbit-term table ---------------------------------------------------------

# Terms per evaluation block; a table is read in slices of this size so the
# temporaries stay small on long ingested spectra.
_BLOCK = 1 << 12

# CPython raises a complex number to an integer power up to this exponent by
# binary exponentiation, and through exp/log above it.
_POWI_MAX = 100


def _mul(ar, ai, br, bi):
    """CPython's complex product on (real, imag) arrays; a real x enters as (x, 0.0)."""
    return ar * br - ai * bi, ar * bi + ai * br


def _div_real(ar, ai, d):
    """CPython's complex quotient by the real d > 0, entered as (d, 0.0)."""
    return (ar + ai * 0.0) / d, (ai - ar * 0.0) / d


def _powi(br, bi, j):
    """b ** j for integers 1 <= j <= _POWI_MAX, by CPython's binary exponentiation."""
    rr, ri = np.ones_like(br), np.zeros_like(br)
    pr, pi = br, bi
    bit, top = 1, int(j.max(initial=0))
    while bit <= top:
        hit = (j & bit) != 0
        nr, ni = _mul(rr, ri, pr, pi)
        rr, ri = np.where(hit, nr, rr), np.where(hit, ni, ri)
        pr, pi = _mul(pr, pi, pr, pi)
        bit <<= 1
    return rr, ri


def _exp_neg(lam: complex, *factors):
    """exp(-lam * f1 * f2 * ...) per term, multiplied left to right as CPython does.

    The exponentials are libm's, one Python call per term: numpy's vectorised
    exp can differ in the last bit.
    """
    if isinstance(lam, complex):
        zr, zi = -lam.real, -lam.imag
        for f in factors:
            zr, zi = _mul(zr, zi, f, 0.0)
    else:
        zr, zi = -lam, 0.0
        for f in factors:
            zr = zr * f
    n = zr.size
    if not np.any(zi):
        # cmath.exp(x +- 0j) = (exp(x), exp(x) * +-0.0)
        er = np.fromiter(map(math.exp, zr.tolist()), float, n)
        return er, er * zi
    z = np.empty(n, dtype=complex)
    z.real, z.imag = zr, zi
    e = np.fromiter(map(cmath.exp, z.tolist()), complex, n)
    return e.real, e.imag


def _part(x, s: slice):
    """Block s of a per-term array; a scalar applies to every term."""
    return x[s] if isinstance(x, np.ndarray) else x


def _running_sum(carry: float, x: np.ndarray) -> float:
    """carry + x[0] + x[1] + ... added left to right, as a Python loop adds.

    np.sum adds pairwise and can differ in the last bit.
    """
    if x.size == 0:
        return carry
    return float(np.add.accumulate(np.concatenate(([carry], x)))[-1])


def _exact_key(theta: float, lam: complex):
    """(theta, lambda) by their bits: a float and a complex lambda take
    different _exp_neg paths, and the sign of a zero imaginary part reaches
    the signs of zeros in an amplitude."""
    return (float(theta).hex(), isinstance(lam, complex),
            float(lam.real).hex(), float(lam.imag).hex())


class _TermTable:
    """The (record, repetition) terms of one truncation J as flat arrays.

    Records are sorted by (length, count); for suspension data the repetition
    index is truncated by total period j * period <= J, for ingested spectra
    by j <= J.  ``rec`` and ``j`` hold each term's record and repetition.
    The holonomy powers are kept for the last theta and the amplitude for the
    last (theta, lambda), so a sweep holds one array pair; the Poincare
    weights are added per degree k on first use.  ``record_tails`` holds an
    ingested spectrum's ``RecordTails`` in the file's record order, and None
    for a suspension.  The table keeps no reference to its OrbitData, which
    caches it.
    """

    def __init__(self, data: OrbitData, J: int):
        self.records = sorted(data.records, key=lambda r: (r.length, r.count))
        reps = [max(0, J // r.period if data.is_suspension and r.period is not None
                    else J) for r in self.records]
        self.rec = np.repeat(np.arange(len(reps)), reps)
        self.j = np.arange(self.rec.size) - np.repeat(np.cumsum(reps) - reps, reps) + 1
        self.size = self.rec.size
        self.length = np.array([r.length for r in self.records], dtype=float)
        self.neg_count = np.array([float(-r.count) for r in self.records])
        self.record_tails = None if data.is_suspension else RecordTails(data.records)
        self._holonomy = (None, None)     # (theta key, powers)
        self._amplitude = (None, None)    # ((theta, lambda) key, amplitude)
        self._weights = {}
        self._poincare = None

    def blocks(self):
        """(slice, record index, float j) of each block of terms."""
        for a in range(0, self.size, _BLOCK):
            s = slice(a, a + _BLOCK)
            yield s, self.rec[s], self.j[s].astype(float)

    def holonomy_powers(self, theta: float):
        """(re, im) of holonomy ** j per term."""
        key = float(theta).hex()
        if self._holonomy[0] != key:
            bases = [r.holonomy_at(theta) for r in self.records]
            b = np.array(bases, dtype=complex)
            re, im = np.empty(self.size), np.empty(self.size)
            for s, rec, _ in self.blocks():
                re[s], im[s] = _powi(b.real[rec], b.imag[rec], self.j[s])
            for i in np.flatnonzero(self.j > _POWI_MAX).tolist():
                h = bases[self.rec[i]] ** int(self.j[i])
                re[i], im[i] = h.real, h.imag
            self._holonomy = (key, (re, im))
        return self._holonomy[1]

    def _times_holonomy(self, c, s, theta: float):
        """c * holonomy ** j on block s, formed as CPython forms it."""
        hr, hi = self.holonomy_powers(theta)
        return _mul(c, 0.0, hr[s], hi[s])

    def amplitude(self, theta: float, lam: complex):
        """(re, im) per term of -count hol^j e^(-lam j l), the weight-free part
        of a term, formed as CPython forms it."""
        key = _exact_key(theta, lam)
        if self._amplitude[0] != key:
            re, im = np.empty(self.size), np.empty(self.size)
            for s, rec, jf in self.blocks():
                damp = _exp_neg(lam, jf, self.length[rec])
                re[s], im[s] = _mul(*self._times_holonomy(self.neg_count[rec], s, theta),
                                    *damp)
            self._amplitude = (key, (re, im))
        return self._amplitude[1]

    def _poincare_powers(self, name: str) -> np.ndarray:
        """Per term, the record's eigenvalue ``name`` to the power j, as scalar
        ``**`` so that an overflow raises as it does term by term."""
        eigs = [getattr(r, name) for r in self.records]
        out = np.empty(self.size)
        for s, rec, _ in self.blocks():
            out[s] = np.fromiter(map(pow, map(eigs.__getitem__, rec.tolist()),
                                     self.j[s].tolist()), float, rec.size)
        return out

    def weight(self, k: int) -> np.ndarray:
        """``_poincare_weight`` per term."""
        hit = self._weights.get(k)
        if hit is None:
            if self._poincare is None:
                self._poincare = (self._poincare_powers("eig_expanding"),
                                  self._poincare_powers("eig_contracting"))
            hit = self._weights[k] = _poincare_weight(*self._poincare, k)
        return hit

    def log_zeta(self, theta: float, lam: complex, k: DegreeSpec) -> complex:
        """-sum (1/j) count hol^j e^(-lam j l) weight over the table."""
        weight = 1.0 if k == "full" else self.weight(k)
        ar, ai = self.amplitude(theta, lam)
        total_re = total_im = 0.0
        for s, _, jf in self.blocks():
            re, im = _mul(ar[s], ai[s], _part(weight, s), 0.0)
            re, im = _div_real(re, im, jf)
            total_re = _running_sum(total_re, re)
            total_im = _running_sum(total_im, im)
        return complex(total_re, total_im)


def _term_table(data: OrbitData, J: int) -> _TermTable:
    """The term table of (data, J), built once and cached on ``data``."""
    table = data.term_tables.get(J)
    if table is None:
        table = data.term_tables[J] = _TermTable(data, J)
    return table


def _log_zeta(data: OrbitData, theta: float, lam: complex, k: DegreeSpec,
              J: int) -> ZetaEvaluation:
    tail = _tail(data, lam, k, J)
    with np.errstate(all="ignore"):
        value = _term_table(data, J).log_zeta(theta, lam, k)
    return ZetaEvaluation(lam=lam, k=k, value=value, J=J,
                          truncation_error_bound=tail)


def log_zeta_k(data: OrbitData, theta: float, lam: complex, k: int,
               J: int = 40) -> ZetaEvaluation:
    """Truncated log of the k-form Ruelle zeta factor with a tail certificate.

    log zeta_k = -sum_gamma sum_j (1/j) e^(-lam j l) tr(rho^j)
                 tr Lambda^k P^j / |det(I - P^j)|.
    """
    return _log_zeta(data, theta, lam, form_degree(k), J)


def log_zeta_full(data: OrbitData, theta: float, lam: complex,
                  J: int = 40) -> ZetaEvaluation:
    """Truncated log of the twisted Ruelle zeta (Euler product over orbits)."""
    return _log_zeta(data, theta, lam, "full", J)


def decomposition_residual(data: OrbitData, theta: float, lam: complex,
                           J: int = 30) -> float:
    """|(-1)^n log zeta - sum_k (-1)^k log zeta_k| at identical truncation.

    The identity (-1)^n |det(I - P^j)| = sum_k (-1)^k tr Lambda^k P^j holds
    per orbit only where det(I - P^j) < 0, which means tr A > 0; there the
    residual is pure floating error.
    """
    full = log_zeta_full(data, theta, lam, J).value
    alternating = sum((-1) ** k * log_zeta_k(data, theta, lam, k, J).value
                      for k in range(2 * TRANSVERSE_RANK + 1))
    return abs((-1) ** TRANSVERSE_RANK * full - alternating)


# A bump's support reaches this many widths either side of its centre.
BUMP_SUPPORT_WIDTHS = 6.0


@dataclass(frozen=True)
class BumpSpec:
    """Peak-normalised Gaussian test function for flat-trace pairings."""

    center: float
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")

    @property
    def support(self) -> Tuple[float, float]:
        return (self.center - BUMP_SUPPORT_WIDTHS * self.width,
                self.center + BUMP_SUPPORT_WIDTHS * self.width)

    def __call__(self, t: float) -> float:
        return math.exp(-0.5 * ((t - self.center) / self.width) ** 2)


def flat_trace_pairing(data: OrbitData, theta: float, k: int,
                       bump: BumpSpec) -> complex:
    """Pair the distributional flat trace of e^(-t L_k) with a bump function.

    The trace formula collapses to a weighted sum over orbit times j*l(gamma);
    only times inside the bump's support contribute.  On a suspension
    spectrum those times must stay below the first period whose primitive
    orbits the records may miss, (complete_to + 1) * roof.
    """
    k = form_degree(k)
    lo, hi = bump.support
    if lo <= 0.0:
        raise SupportTooWideError(
            f"support [{lo:.3g}, {hi:.3g}] reaches t <= 0"
        )
    if data.aut is not None and hi >= (data.complete_to + 1) * data.aut.roof:
        raise SupportTooWideError(
            f"support [{lo:.3g}, {hi:.3g}] reaches period {data.complete_to + 1}, "
            f"beyond the orbits complete to period {data.complete_to}"
        )
    total = 0.0 + 0.0j
    for rec in sorted(data.records, key=lambda r: (r.length, r.count)):
        j = 1
        while j * rec.length <= hi:
            t = j * rec.length
            if t >= lo:
                weight = _poincare_weight(rec.eig_expanding ** j, rec.eig_contracting ** j, k)
                total += (rec.count * rec.length * bump(t)
                          * rec.holonomy_at(theta) ** j * weight)
            j += 1
    return total


def mellin_log_zeta(data: OrbitData, theta: float, lam: complex, k: int,
                    J: int = 40) -> complex:
    """log zeta_k by the regularised-determinant route: -d/ds F at s = 0 with
    F(s) = S(s)/Gamma(s), S(s) = sum count l (j l)^(s-1) hol^j e^(-lam j l) w_k
    over the orbit terms, where the Dirac comb collapses the Mellin integral.
    Since 1/Gamma(s) = s + gamma s^2 + O(s^3), that derivative is exactly
    S(0), and l (j l)^(-1) = 1/j makes -S(0) the direct sum term for term:
    the value and the errors are those of ``log_zeta_k``.
    """
    return _log_zeta(data, theta, lam, form_degree(k), J).value


@dataclass(frozen=True)
class SuspensionZetas:
    """Exact resummation of the suspension zeta factors at one lambda."""

    zeta0: complex
    zeta1: complex
    zeta2: complex
    full: complex


def closed_form_suspension(aut: ToralAutomorphism, theta: float,
                           lam: complex) -> SuspensionZetas:
    """Exact resummation of the suspension zeta factors.

    With z = e^(i theta - lam*roof) and mu the expanding eigenvalue:
    zeta_0 = 1 - z, zeta_1 = (1 - z mu)(1 - z nu), zeta_2 = 1 - det(A) z,
    and zeta^((-1)^n) = zeta_0 zeta_1^(-1) zeta_2 for n = 1.  Valid as the
    meromorphic continuation in lambda.
    """
    z = cmath.exp(1j * theta - lam * aut.roof)
    mu = aut.expanding_eigenvalue
    nu = aut.contracting_eigenvalue
    z0 = 1.0 - z
    z1 = (1.0 - z * mu) * (1.0 - z * nu)
    z2 = 1.0 - aut.det * z
    alternating = z0 * z1 ** (-1) * z2      # = zeta^((-1)^n), n = 1
    # zeta_0 zeros are poles of the continued zeta (non-regular twists)
    full = 1.0 / alternating if alternating != 0 else complex(math.inf)
    return SuspensionZetas(z0, z1, z2, full)


@dataclass(frozen=True)
class CycleZetas:
    """The suspension zeta factors at one lambda from the orbit terms alone."""

    zeta0: complex
    zeta1: complex
    zeta2: complex
    alternating: complex            # zeta_0 zeta_2 / zeta_1
    recurrence_residual: float


def cycle_zeta(data: OrbitData, theta: float, lam: complex) -> CycleZetas:
    """zeta_k = det(I - x e^(i theta) Lambda^k A), x = e^(-lam roof), lambda = 0
    included, by the cycle expansion of a suspension spectrum.

    Grouped by topological length n = period j, the terms of the table with
    J = complete_to give c_n = sum count period hol^j w_k =
    tr (e^(i theta) Lambda^k A)^n.  Newton's identities
    m a_m = -(c_m + a_1 c_(m-1) + ... + a_(m-1) c_1) give the coefficients of
    the polynomial in x, of degree d = C(2, k).  Its higher coefficients
    vanish, so the certificate is the largest relative residual
    |sum_m a_m c_(n-m)| / sum_m |a_m c_(n-m)| for d < n <= complete_to.
    """
    if data.aut is None or any(r.period is None for r in data.records):
        raise ValidationError("aut", "a cycle expansion needs a suspension "
                                     "spectrum with periods")
    top, rank = data.complete_to, 2 * TRANSVERSE_RANK
    if top <= rank:
        raise ValidationError("complete_to", f"the recurrence needs periods up to "
                                             f"at least {rank + 1}, got {top}")
    table = _term_table(data, top)
    period = np.array([r.period for r in table.records], dtype=int)
    n = period[table.rec] * table.j
    count_period = np.array([float(r.count * r.period) for r in table.records])
    hr, hi = table.holonomy_powers(theta)
    unweighted = count_period[table.rec] * (hr + 1j * hi)
    x = cmath.exp(-lam * data.aut.roof)
    factors, residual = [], 0.0
    for k in range(rank + 1):
        amp = unweighted * table.weight(k)
        c = np.bincount(n, amp.real, top + 1) + 1j * np.bincount(n, amp.imag, top + 1)
        a = [1.0]
        for m in range(1, math.comb(rank, k) + 1):
            a.append(-sum(a[i] * c[m - i] for i in range(m)) / m)
        for m in range(len(a), top + 1):
            terms = [a[i] * c[m - i] for i in range(len(a))]
            residual = max(residual, abs(sum(terms)) / sum(map(abs, terms)))
        factors.append(sum(coef * x ** m for m, coef in enumerate(a)))
    z0, z1, z2 = factors
    return CycleZetas(z0, z1, z2, z0 * z2 / z1, residual)


# A closed-form factor below this fraction of its largest term is a zero.
ZETA_ZERO_TOL = 1e-12


def zeta_value_at_zero(aut: ToralAutomorphism, theta: float) -> complex:
    """|zeta(0)|-ready value of the continued suspension zeta at lambda = 0.

    A vanishing factor zeta_0, zeta_1 or zeta_2 at lambda = 0 means the twisted
    mapping torus is not acyclic; it raises NotAcyclicError, carrying the
    Betti numbers of that mapping torus, instead of a huge value.
    """
    if abs(cmath.exp(1j * theta) - 1.0) < ZETA_ZERO_TOL:
        # the untwisted mapping torus: H^2 and H^3 survive only if A preserves orientation
        betti = (1, 1, 1, 1) if aut.det == 1 else (1, 1, 0, 0)
        raise NotAcyclicError(betti, "theta in 2*pi*Z: zeta_0 vanishes at 0, "
                                     "flat determinant undefined")
    zs = closed_form_suspension(aut, theta, 0.0)
    mu, nu = abs(aut.expanding_eigenvalue), abs(aut.contracting_eigenvalue)
    for name, value, scale, betti in (
            ("zeta_1 = (1 - z mu)(1 - z nu)", zs.zeta1, mu * max(1.0, nu), (0, 1, 1, 0)),
            ("zeta_2 = 1 - det(A) z", zs.zeta2, 1.0, (0, 0, 1, 1))):
        if abs(value) < ZETA_ZERO_TOL * scale:
            raise NotAcyclicError(betti, f"{name} vanishes at lambda = 0 for "
                                         f"theta = {g17(theta)}: flat determinant "
                                         "undefined")
    return zs.full


# -- zeta grid export -----------------------------------------------------------

GRID_HEADER = ("re_lambda", "im_lambda", "k", "re_log_zeta", "im_log_zeta", "tail_bound",
               "J", "status")


def zeta_grid_rows(data: OrbitData, theta: float, lams, ks, J: int):
    """Rows over a lambda grid, each a tuple of the GRID_HEADER fields as
    strings; divergent points are flagged rows."""
    rows = []
    for lam in lams:
        for k in ks:
            try:
                ev = (log_zeta_full(data, theta, lam, J) if k == "full"
                      else log_zeta_k(data, theta, lam, k, J))
                value = (g17(ev.value.real), g17(ev.value.imag),
                         g17(ev.truncation_error_bound))
                status = "ok"
            except DivergentRegionError:
                value, status = ("nan", "nan", "inf"), "divergent"
            rows.append((g17(lam.real), g17(lam.imag), str(k), *value, str(J), status))
    return rows
