"""Twisted Ruelle zeta functions from periodic-orbit data.

Euler products and their k-form factors are evaluated as truncated orbit sums
with certified geometric tail bounds.  For constant-roof suspensions,
lambda = 0 is reached by the closed-form resummation (A's eigenvalues) and by
the cycle expansion of ``cycle_zeta`` (the orbit terms alone), never by an
Euler product outside its half-plane.

The orbit sums read one term table per (OrbitData, J), cached on the
OrbitData: the record order and repetition cut-off, each term's record and
repetition j, and per-record constants, with the holonomy powers of the last
theta and, formed together on first use, the weights
w_k = tr Lambda^k P^j / |det(I - P^j)| of every k, from ``_poincare_weight``
as in the flat trace.  Every sum is one sweep of the table
(``_TermTable.sums``) over some lambdas and degrees.  Per block of _BLOCK
terms it forms each lambda's amplitude, the part of a term that no k
changes, -count hol^j e^(-lambda j l), once; it stacks the weight rows of
the degrees (1.0 for full), and weights, divides by j and adds every
(lambda, k) row in one pass.  The table keeps the sums of its last sweep,
per point, and every call reads its value there.  A lone call that misses
sweeps its point over full and every degree whose weight the table holds,
so the other degrees and the Mellin route at that point are lookups; the
decomposition residual sweeps its point once, and the grid all its rows
that converge before it reads them.  A point's key is the exact bits of
theta and of both parts of lambda, and whether lambda is a complex: a float
lambda takes the real exponential path and a complex one with zero
imaginary part the complex product, and the two amplitudes can differ in
the signs of their zeros, as can those of imaginary parts +0.0 and -0.0.
The sums are bit for bit those of a term-by-term Python loop:

* exp and pow are libm's, called once per term (math.exp, or cmath.exp when
  lambda has a nonzero imaginary part, and pow), on each lambda's own path;
  numpy's vectorised exp and power differ from libm in the last bit on some
  machines;
* complex products follow CPython's formula on real and imaginary arrays, a
  real factor entering as (x, 0.0), and so does division by a real; stacking
  rows changes no element's operations;
* holonomies are raised to the power j by CPython's binary exponentiation for
  j <= 100, and by scalar ** above;
* sums run left to right with np.add.accumulate along the terms of each row,
  carried across blocks, never with the pairwise np.sum;
* Poincare eigenvalue powers are scalar **, so exactly the inputs that
  overflow term by term raise the same OverflowError.  A table sweeps the
  powers once: a sweep that overflows is kept as the args of its
  OverflowError, which every later weight raises at once.  Each degree's
  tail and weight are formed in a lone call's order, before any amplitude,
  so a failing table raises on every call but still sums ``full``, and a
  grid raises where its first failing row would.

The tail certificate of an ingested spectrum reads per-record arrays that
the term table builds with itself (``_TermTable.record_tails``), in the
file's record order, with libm exp and pow per record and the terms added by
sum() in that order, as the scalar loop adds them.  They keep the tails of
their last lambda, one per degree class (k = 0 and 2 share one, k = 1 and
full have their own), keyed by the exact bits of its real part, the one part
a tail reads; a k = 0, 1, 2, full sweep with the Mellin route forms three.
Every call forms or reads its own tail, lookups of a kept point included.

The mirrored arithmetic is that of CPython 3.10 to 3.13, in which a real
operand of a complex product enters as (x, 0.0) and sum() adds complex numbers
left to right; the identity was checked on 3.11.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
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

    The tails of the last (Re lambda, j_min) are kept, one per degree class
    (k = 0 and 2 share ratio and weight, k = 1 and ``full`` have their own);
    a tail that raises is not kept, so it raises again on every call.
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
        self._last = (None, {})       # ((Re lambda, j_min) key, tail per class)

    def tail(self, lam: complex, k: DegreeSpec, j_min: int) -> float:
        """Sum over records of count * weight * ratio^j_min / (j_min (1 - ratio)),
        the tail of the repetition sums j >= j_min."""
        key = (float(lam.real).hex(), j_min)
        if self._last[0] != key:
            self._last = (key, {})
        tails = self._last[1]
        degree_class = k if k == 1 or k == "full" else 0
        hit = tails.get(degree_class)
        if hit is None:
            hit = tails[degree_class] = self._sum(lam, k, j_min)
        return hit

    def _sum(self, lam: complex, k: DegreeSpec, j_min: int) -> float:
        """The tail of ``tail``, formed afresh."""
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


def _check_point(theta: float, lam: complex = 0.0):
    """Refuse a theta or a lambda that is not finite."""
    if not math.isfinite(theta):
        raise ValidationError("theta", f"must be finite, got {theta}")
    if not cmath.isfinite(lam):
        raise ValidationError("lambda", f"must be finite, got {lam}")


def _check_sum_arguments(theta: float, lam: complex, J: int):
    """Refuse what no truncated sum takes: a J that is not an integer >= 1,
    and a theta or lambda that is not finite."""
    if not isinstance(J, numbers.Integral):
        raise ValidationError("J", f"truncation must be an integer, got {J!r}")
    if J < 1:
        raise ValidationError("J", f"truncation must be >= 1, got {J}")
    _check_point(theta, lam)


def _tail(data: OrbitData, lam: complex, k: DegreeSpec, J: int) -> float:
    """Truncation certificate of a J-term orbit sum; raises where it diverges."""
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


def _exact_key(theta: float, lam: complex):
    """(theta, lambda) by their bits: a float and a complex lambda take
    different _exp_neg paths, and the sign of a zero imaginary part reaches
    the signs of zeros in an amplitude."""
    return (float(theta).hex(), isinstance(lam, complex),
            float(lam.real).hex(), float(lam.imag).hex())


# A sweep sums at most this many (lambda, degree) rows at once, so that its
# temporaries hold at most _SWEEP_ROWS * _BLOCK terms.
_SWEEP_ROWS = 16


def _carried(carry: np.ndarray, x: np.ndarray) -> np.ndarray:
    """carry + x[:, 0] + x[:, 1] + ... per row, added left to right as a
    Python loop adds, as a column; np.sum adds pairwise and can differ in
    the last bit.  Overwrites x."""
    x[:, 0] = carry[:, 0] + x[:, 0]
    return np.add.accumulate(x, axis=1)[:, -1:]


class _TermTable:
    """The (record, repetition) terms of one truncation J as flat arrays.

    Records are sorted by (length, count); for suspension data the repetition
    index is truncated by total period j * period <= J, for ingested spectra
    by j <= J.  ``rec`` and ``j`` hold each term's record and repetition.
    The holonomy powers are kept for the last theta, and the sums of the
    points (theta, lambda) of the last sweep, one per degree.  The
    Poincare weights of every degree are formed together on first use, from
    one sweep of the eigenvalue powers per table, or the args of the
    OverflowError that sweep raised are kept.  ``record_tails`` holds an
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
        self._points = {}                 # (theta, lambda) key -> sum per degree
        self._weights = {}                # weight per degree, all formed together
        self._overflow = None             # or the args of the OverflowError the powers raised

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
        """``_poincare_weight`` per term.  The powers are swept once per table
        and the weights of every degree formed from them: if the sweep
        overflows, this call and every later one raise an OverflowError with
        the args of the scalar ``**`` that overflowed."""
        if not self._weights:
            if self._overflow is not None:
                raise OverflowError(*self._overflow)
            try:
                powers = (self._poincare_powers("eig_expanding"),
                          self._poincare_powers("eig_contracting"))
            except OverflowError as exc:
                # the args alone: the exception's traceback would keep
                # the caller's frames, and its OrbitData, alive
                self._overflow = exc.args
                raise
            with np.errstate(all="ignore"):
                self._weights = {d: _poincare_weight(*powers, d)
                                 for d in range(2 * TRANSVERSE_RANK + 1)}
        return self._weights[k]

    def sums(self, theta: float, lams, ks) -> np.ndarray:
        """-sum (1/j) count hol^j e^(-lam j l) w_k over the table, as a complex
        array with a row per lambda of ``lams`` and a column per degree of
        ``ks`` (w = 1.0 for ``full``).

        Per block, each lambda's amplitude -count hol^j e^(-lam j l) is
        formed once, on its own ``_exp_neg`` path; the weight rows of ``ks``
        are stacked, and every (lambda, k) row is weighted, divided by j and
        added left to right in one pass, carried across blocks.  The lambdas
        go in chunks of at most _SWEEP_ROWS rows."""
        weights = [1.0 if k == "full" else self.weight(k) for k in ks]
        n_k = len(ks)
        per = max(1, _SWEEP_ROWS // n_k)               # lambdas per chunk
        total_re = np.zeros((len(lams) * n_k, 1))
        total_im = np.zeros((len(lams) * n_k, 1))
        with np.errstate(all="ignore"):
            for s, rec, jf in self.blocks():
                cr, ci = self._times_holonomy(self.neg_count[rec], s, theta)
                w = np.empty((n_k, jf.size))
                for i, x in enumerate(weights):
                    w[i] = _part(x, s)
                for a in range(0, len(lams), per):
                    chunk = lams[a:a + per]
                    dr, di = np.empty((2, len(chunk), jf.size))
                    for i, lam in enumerate(chunk):
                        dr[i], di[i] = _exp_neg(lam, jf, self.length[rec])
                    ar, ai = _mul(cr, ci, dr, di)
                    re, im = _mul(ar[:, None], ai[:, None], w, 0.0)
                    re, im = _div_real(re, im, jf)
                    rows = slice(a * n_k, (a + len(chunk)) * n_k)
                    total_re[rows] = _carried(total_re[rows], re.reshape(-1, jf.size))
                    total_im[rows] = _carried(total_im[rows], im.reshape(-1, jf.size))
        out = np.empty((len(lams), n_k), dtype=complex)
        out.real, out.imag = total_re.reshape(out.shape), total_im.reshape(out.shape)
        return out

    def keep(self, theta: float, lams, ks):
        """Sweep the points (theta, lambda) of ``lams`` over ``ks`` and keep
        their sums, in place of the points kept before."""
        self._points = {_exact_key(theta, lam): dict(zip(ks, row))
                        for lam, row in zip(lams, self.sums(theta, lams, ks).tolist())}

    def point(self, theta: float, lam: complex, k: DegreeSpec) -> complex:
        """The sum of degree k at (theta, lambda), read from the kept points.
        A point or degree the table does not keep is one sweep of that point
        over ``full`` and every degree whose weight the table holds; k's
        weight is formed first, so an overflowing table raises before any
        amplitude is."""
        key = _exact_key(theta, lam)
        if k not in self._points.get(key, ()):
            if k != "full":
                self.weight(k)
            self.keep(theta, [lam], ["full", *self._weights])
        return self._points[key][k]


def _term_table(data: OrbitData, J: int) -> _TermTable:
    """The term table of (data, J), built once and cached on ``data``."""
    table = data.term_tables.get(J)
    if table is None:
        table = data.term_tables[J] = _TermTable(data, J)
    return table


def _log_zeta(data: OrbitData, theta: float, lam: complex, k: DegreeSpec,
              J: int) -> ZetaEvaluation:
    """Every truncated sum: the checks, the certificate, then the sum."""
    _check_sum_arguments(theta, lam, J)
    tail = _tail(data, lam, k, J)
    value = _term_table(data, J).point(theta, lam, k)
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
    residual is pure floating error.  The full sum and each k are certified
    in that order, as lone calls are, then summed in one sweep of the point.
    """
    _check_sum_arguments(theta, lam, J)
    degrees = range(2 * TRANSVERSE_RANK + 1)
    for k in ("full", *degrees):
        _tail(data, lam, k, J)
        if k != "full":
            _term_table(data, J).weight(k)
    table = _term_table(data, J)
    full = table.point(theta, lam, "full")
    alternating = sum((-1) ** k * table.point(theta, lam, k) for k in degrees)
    return abs((-1) ** TRANSVERSE_RANK * full - alternating)


# A bump's support reaches this many widths either side of its centre.
BUMP_SUPPORT_WIDTHS = 6.0


@dataclass(frozen=True)
class BumpSpec:
    """Peak-normalised Gaussian test function for flat-trace pairings."""

    center: float
    width: float

    def __post_init__(self):
        if not math.isfinite(self.center):
            raise ValidationError("center", f"must be finite, got {self.center}")
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValidationError("width", f"must be positive and finite, got {self.width}")

    @property
    def support(self) -> Tuple[float, float]:
        return (self.center - BUMP_SUPPORT_WIDTHS * self.width,
                self.center + BUMP_SUPPORT_WIDTHS * self.width)

    def __call__(self, t: float) -> float:
        return math.exp(-0.5 * ((t - self.center) / self.width) ** 2)


# A flat-trace pairing visits at most this many (record, repetition) terms
# inside the bump's support, about 0.1 s of the walk.  The pairings of the
# zeta_cli benchmark's ingested spectra visit at most 222 (seeds 1-39); a
# record of length 1e-5 under a bump of support [1.4, 2.6] would visit 120,001.
FLAT_TRACE_TERM_BUDGET = 10 ** 5


def _repetitions_inside(length: float, lo: float, hi: float) -> range:
    """The repetitions j >= 1 whose times j * length lie in [lo, hi], for
    0 < lo; the times are formed as the term-by-term walk forms them."""
    if hi / length >= 2.0 ** 53:
        raise SupportTooWideError(f"support [{lo:.3g}, {hi:.3g}] needs repetitions "
                                  f"above 2^53 of length {length:.3g}")
    first = max(1, math.ceil(lo / length))
    while first > 1 and (first - 1) * length >= lo:
        first -= 1
    while first * length < lo:
        first += 1
    last = math.floor(hi / length)
    while last * length > hi:
        last -= 1
    while (last + 1) * length <= hi:
        last += 1
    return range(first, last + 1)


def flat_trace_pairing(data: OrbitData, theta: float, k: int,
                       bump: BumpSpec) -> complex:
    """Pair the distributional flat trace of e^(-t L_k) with a bump function.

    The trace formula collapses to a weighted sum over orbit times j*l(gamma);
    only times inside the bump's support contribute, and each record's walk
    starts at its first repetition there.  On a suspension spectrum those
    times must stay below the first period whose primitive orbits the
    records may miss, (complete_to + 1) * roof.  A pairing that would visit
    more than FLAT_TRACE_TERM_BUDGET terms raises SupportTooWideError before
    it evaluates any.
    """
    k = form_degree(k)
    _check_point(theta)
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
    walks, visits = [], 0
    for rec in sorted(data.records, key=lambda r: (r.length, r.count)):
        if rec.length > hi:
            break                   # every later record is as long
        reps = _repetitions_inside(rec.length, lo, hi)
        visits += len(reps)
        if visits > FLAT_TRACE_TERM_BUDGET:
            raise SupportTooWideError(
                f"support [{lo:.3g}, {hi:.3g}] holds more than "
                f"{FLAT_TRACE_TERM_BUDGET} orbit times"
            )
        walks.append((rec, reps))
    total = 0.0 + 0.0j
    for rec, reps in walks:
        for j in reps:
            t = j * rec.length
            weight = _poincare_weight(rec.eig_expanding ** j, rec.eig_contracting ** j, k)
            total += (rec.count * rec.length * bump(t)
                      * rec.holonomy_at(theta) ** j * weight)
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
    _check_point(theta, lam)
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
    _check_point(theta)
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


def _keep_grid(data: OrbitData, theta: float, lams, ks, J: int):
    """Sum the rows of a grid that converge in one sweep of the term table,
    which keeps them as its points.  Each row is checked and certified, and
    each degree's weight formed, in grid order as the lone calls do, so a
    row that fails raises here as its call would."""
    points, degrees = [], {}
    for lam in lams:
        summed = False
        for k in ks:
            degree = k if k == "full" else form_degree(k)
            _check_sum_arguments(theta, lam, J)
            try:
                _tail(data, lam, degree, J)
            except DivergentRegionError:
                continue
            if degree != "full":
                _term_table(data, J).weight(degree)
            degrees[degree] = summed = True
        if summed:
            points.append(lam)
    if points:
        _term_table(data, J).keep(theta, points, list(degrees))


def zeta_grid_rows(data: OrbitData, theta: float, lams, ks, J: int):
    """Rows over a lambda grid, each a tuple of the GRID_HEADER fields as
    strings; divergent points are flagged rows.  Each row is the lone call's
    evaluation; the rows that converge are summed beforehand in one sweep
    (``_keep_grid``), so each call reads its kept point."""
    lams = list(lams)
    _keep_grid(data, theta, lams, ks, J)
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
