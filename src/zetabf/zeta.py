"""Twisted Ruelle zeta functions from periodic-orbit data.

Euler products and their k-form factors are evaluated as truncated orbit sums
with certified geometric tail bounds; the Mellin route collapses the flat
trace of the transfer semigroup into a Dirichlet-type sum over orbit times and
takes -d/ds at s = 0 numerically.  Continuation to lambda = 0 happens only
through the closed-form resummation available for constant-roof suspensions,
never by evaluating an Euler product outside its half-plane.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Tuple, Union

from scipy.special import rgamma

from .complexes import analytic_torsion, mapping_torus_complex
from .errors import (
    DivergentRegionError,
    NotAcyclicError,
    SupportTooWideError,
)
from .orbits import OrbitData, OrbitRecord, ToralAutomorphism, g17

_FD_STEP = 1e-4

# Transverse unstable/stable rank of the 3-dimensional suspension model.
TRANSVERSE_RANK = 1

DegreeSpec = Union[int, str]


@dataclass(frozen=True)
class ZetaEvaluation:
    """A truncated log zeta value with its truncation certificate."""

    lam: complex
    k: DegreeSpec
    value: complex
    J: int
    truncation_error_bound: float


def _holonomy(rec: OrbitRecord, theta: float) -> complex:
    if rec.winding is not None:
        return cmath.exp(1j * theta * rec.winding)
    return rec.holonomy


def _wedge_trace(rec: OrbitRecord, j: int, k: int) -> float:
    eu = rec.eig_expanding ** j
    es = rec.eig_contracting ** j
    if k == 0:
        return 1.0
    if k == 1:
        return eu + es
    if k == 2:
        return eu * es
    raise ValueError("k must be in {0, 1, 2}")


def _det_i_minus_p(rec: OrbitRecord, j: int) -> float:
    eu = rec.eig_expanding ** j
    es = rec.eig_contracting ** j
    return (1.0 - eu) * (1.0 - es)


def _suspension_tail(data: OrbitData, lam: complex, k: DegreeSpec, J: int) -> float:
    """Geometric tail bound over windings m > J for a complete suspension list.

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
    return prefactor * ratio ** (J + 1) / ((J + 1) * (1.0 - ratio))


def _record_tail(rec: OrbitRecord, lam: complex, k: DegreeSpec, j_min: int) -> float:
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


def _terms(data: OrbitData, J: int):
    """Deterministically ordered (record, repetition) terms.

    For suspension data the repetition index is truncated by total winding
    j * period <= J; for ingested spectra by j <= J.
    """
    out = []
    for rec in sorted(data.records, key=lambda r: (r.length, r.count)):
        if data.is_suspension and rec.period is not None:
            reps = range(1, J // rec.period + 1)
        else:
            reps = range(1, J + 1)
        for j in reps:
            out.append((rec, j))
    return out


def _log_zeta(data: OrbitData, theta: float, lam: complex, k: DegreeSpec,
              J: int) -> ZetaEvaluation:
    if data.is_suspension:
        tail = _suspension_tail(data, lam, k, J)
    else:
        tail = sum(_record_tail(rec, lam, k, J + 1) for rec in data.records)
    if not math.isfinite(tail):
        raise DivergentRegionError(lam)

    total = 0.0 + 0.0j
    for rec, j in _terms(data, J):
        hol = _holonomy(rec, theta) ** j
        damp = cmath.exp(-lam * j * rec.length)
        if k == "full":
            weight = 1.0
        else:
            weight = _wedge_trace(rec, j, k) / abs(_det_i_minus_p(rec, j))
        total += -rec.count * hol * damp * weight / j
    return ZetaEvaluation(lam=lam, k=k, value=total, J=J,
                          truncation_error_bound=tail)


def log_zeta_k(data: OrbitData, theta: float, lam: complex, k: int,
               J: int = 40) -> ZetaEvaluation:
    """Truncated log of the k-form Ruelle zeta factor with a tail certificate.

    log zeta_k = -sum_gamma sum_j (1/j) e^(-lam j l) tr(rho^j)
                 tr Lambda^k P^j / |det(I - P^j)|.
    """
    if not 0 <= k <= 2 * TRANSVERSE_RANK:
        raise ValueError(f"k must lie in [0, {2 * TRANSVERSE_RANK}]")
    return _log_zeta(data, theta, lam, k, J)


def log_zeta_full(data: OrbitData, theta: float, lam: complex,
                  J: int = 40) -> ZetaEvaluation:
    """Truncated log of the twisted Ruelle zeta (Euler product over orbits)."""
    return _log_zeta(data, theta, lam, "full", J)


def decomposition_residual(data: OrbitData, theta: float, lam: complex,
                           J: int = 30) -> float:
    """|(-1)^n log zeta - sum_k (-1)^k log zeta_k| at identical truncation.

    The identity holds per orbit, so the residual is pure floating error.
    """
    full = log_zeta_full(data, theta, lam, J).value
    alternating = sum((-1) ** k * log_zeta_k(data, theta, lam, k, J).value
                      for k in range(2 * TRANSVERSE_RANK + 1))
    return abs((-1) ** TRANSVERSE_RANK * full - alternating)


@dataclass(frozen=True)
class BumpSpec:
    """Peak-normalised Gaussian test function for flat-trace pairings."""

    center: float
    width: float
    support_sigmas: float = 6.0

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")

    @property
    def support(self) -> Tuple[float, float]:
        return (self.center - self.support_sigmas * self.width,
                self.center + self.support_sigmas * self.width)

    def __call__(self, t: float) -> float:
        return math.exp(-0.5 * ((t - self.center) / self.width) ** 2)


def flat_trace_pairing(data: OrbitData, theta: float, k: int,
                       bump: BumpSpec) -> complex:
    """Pair the distributional flat trace of e^(-t L_k) with a bump function.

    The trace formula collapses to a weighted sum over orbit times j*l(gamma);
    only times inside the bump's support contribute.
    """
    lo, hi = bump.support
    if lo <= 0.0:
        raise SupportTooWideError(
            f"support [{lo:.3g}, {hi:.3g}] reaches t <= 0"
        )
    total = 0.0 + 0.0j
    for rec in sorted(data.records, key=lambda r: (r.length, r.count)):
        j = 1
        while j * rec.length <= hi:
            t = j * rec.length
            if t >= lo:
                weight = _wedge_trace(rec, j, k) / abs(_det_i_minus_p(rec, j))
                total += (rec.count * rec.length * bump(t)
                          * _holonomy(rec, theta) ** j * weight)
            j += 1
    return total


def mellin_log_zeta(data: OrbitData, theta: float, lam: complex, k: int,
                    J: int = 40) -> complex:
    """log zeta_k through the regularised-determinant route.

    Writes F(lam, s) = 1/Gamma(s) * sum over orbit times of
    l * (j l)^(s-1) e^(-lam j l) * weights (the Dirac comb collapses the
    Mellin integral; orbit times are bounded away from zero) and returns
    -d/ds F at s = 0 by central differences with one Richardson step.
    """
    if not 0 <= k <= 2 * TRANSVERSE_RANK:
        raise ValueError(f"k must lie in [0, {2 * TRANSVERSE_RANK}]")
    # reuse the tail certificate/divergence policing of the direct route
    _log_zeta(data, theta, lam, k, J)

    terms = []
    for rec, j in _terms(data, J):
        t = j * rec.length
        amp = (rec.count * rec.length * _holonomy(rec, theta) ** j
               * cmath.exp(-lam * t)
               * _wedge_trace(rec, j, k) / abs(_det_i_minus_p(rec, j)))
        terms.append((t, amp))

    def f(s: float) -> complex:
        return rgamma(s) * sum(amp * t ** (s - 1.0) for t, amp in terms)

    def diff(step: float) -> complex:
        return (f(step) - f(-step)) / (2 * step)

    h = _FD_STEP
    return -(4 * diff(h / 2) - diff(h)) / 3


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


# A closed-form factor below this fraction of its largest term is a zero.
ZETA_ZERO_TOL = 1e-12


def zeta_value_at_zero(aut: ToralAutomorphism, theta: float) -> complex:
    """|zeta(0)|-ready value of the continued suspension zeta at lambda = 0.

    A vanishing factor zeta_0, zeta_1 or zeta_2 at lambda = 0 means the twisted
    mapping torus is not acyclic; it raises NotAcyclicError, carrying the
    Betti numbers that factor contributes, instead of a huge value.
    """
    if abs(cmath.exp(1j * theta) - 1.0) < ZETA_ZERO_TOL:
        raise NotAcyclicError((1,), "theta in 2*pi*Z: zeta_0 vanishes at 0, "
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


def fried_residual(a_matrix, theta: float, sign: int = -1) -> float:
    """| |zeta(0)|^((-1)^n) * tau^sign - 1 | for the suspension model.

    The zeta side comes from the closed-form continuation, the torsion side
    from the combinatorial mapping-torus complex; the convention exponent
    sign = -1 was frozen on the theta = pi cat-map anchor (4/5 vs 5/4).
    """
    aut = a_matrix if isinstance(a_matrix, ToralAutomorphism) \
        else ToralAutomorphism.from_matrix(a_matrix)
    zeta0 = zeta_value_at_zero(aut, theta)
    zeta_side = abs(zeta0) ** ((-1) ** TRANSVERSE_RANK)
    tau = analytic_torsion(mapping_torus_complex(aut.matrix, theta))
    return abs(zeta_side * tau ** sign - 1.0)


# -- zeta grid export -----------------------------------------------------------

GRID_HEADER = "re_lambda,im_lambda,k,re_log_zeta,im_log_zeta,tail_bound,J,status"


def zeta_grid_rows(data: OrbitData, theta: float, lams, ks, J: int):
    """CSV-style rows over a lambda grid; divergent points are flagged rows."""
    rows = []
    for lam in lams:
        for k in ks:
            try:
                ev = (log_zeta_full(data, theta, lam, J) if k == "full"
                      else log_zeta_k(data, theta, lam, k, J))
                rows.append(",".join([
                    g17(lam.real), g17(lam.imag), str(k),
                    g17(ev.value.real), g17(ev.value.imag),
                    g17(ev.truncation_error_bound), str(J), "ok",
                ]))
            except DivergentRegionError:
                rows.append(",".join([
                    g17(lam.real), g17(lam.imag), str(k),
                    "nan", "nan", "inf", str(J), "divergent",
                ]))
    return rows
