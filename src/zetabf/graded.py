"""Flat determinants of finite matrices.

Two independent routes to the regularised determinant of a finite matrix are
kept side by side.  The spectral route multiplies the nonzero eigenvalues of
A = matrix + lambda directly.  The Mellin route subtracts the Mellin pair
c0 e^(-sigma t) <-> c0 Gamma(s) sigma^(-s) from the heat trace, which leaves an
integral whose s-derivative at s = 0 is exact:

    log det_flat(A) = c0 log sigma
                      - int_0^inf (tr e^(-tA) - dim ker A - c0 e^(-sigma t)) dt/t,

with c0 = n - dim ker A and sigma = 0.9 min Re lambda; any sigma > 0 gives the
same value.  The integrand is smooth at t = 0 and decays like e^(-sigma t).

Two node sets cover (0, 45/sigma]:

* spectra with max |Im lambda| <= sigma: one exp-sinh rule,
  t = exp(pi/2 sinh x) / sigma at x = -4 + 0.05 i (113 nodes);
* oscillatory spectra: composite Gauss-Legendre panels of length
  min(2/sigma, 6/max |lambda|), which resolve the oscillations that the
  exp-sinh rule would alias.

The error estimate is ten times the gap to a coarser rule: the even-indexed
exp-sinh nodes (step 2h, so no extra heat traces), or 12 against 18 nodes per
panel.

The heat traces come from one scaling-and-squaring Pade-13 kernel (Higham
2005) shared by every node, never from the spectral factorisation: the
spectrum enters only the kernel count, divergence policing and the quadrature
scales.  Every node's matrix -t A is a multiple of M = A / ||A||_1, so the
powers M^0..M^13 are formed once; node t is scaled by 2^(-s) with
s = max(0, ceil(log2(t ||A||_1 / theta_13))), its Pade numerator and
denominator are combinations of those powers, and it is squared s times.  The
kernel returns the stacked matrices e^(-t A) and the heat traces take their
traces; the nodes run in chunks of ``_CHUNK_ENTRIES`` matrix entries, which
bounds the kernel's memory.  A diagonal A takes the exact sum of
exp(-t a_ii).  For finite matrices the two routes must agree; the
disagreement is the package's basic quadrature diagnostic.

The same kernel, through ``exp_stack``, exponentiates the skew-Hermitian
generators of ``bv.unitary_contraction_family``: it is the package's one
matrix exponential, and it needs nothing beyond numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    DeterminantRangeError,
    MellinDivergenceError,
    QuadratureBudgetError,
    QuadratureFailureError,
    ShapeMismatchError,
    ValidationError,
)

# Eigenvalues below this fraction of the largest modulus are classified as
# kernel (the projector Pi); an all-zero spectrum is all kernel.
KERNEL_TOL = 1e-10

# Exp-sinh rule at x = -4 + h i, with sigma t = exp(pi/2 sinh x) <= 45 at the
# last node: log(sigma t) per node, and the dt/t weights of the step-h rule
# (row 0) and of its even-indexed step-2h subset (row 1).
_H = 0.05
_X = -4.0 + _H * np.arange(113)
_LOG_SIGMA_T = 0.5 * np.pi * np.sinh(_X)
_EXP_SINH_WEIGHTS = np.outer([1.0, 2.0], 0.5 * np.pi * np.cosh(_X) * _H)
_EXP_SINH_WEIGHTS[1, 1::2] = 0.0
_EXP_SINH_WEIGHTS.flags.writeable = False

# Gauss-Legendre panels: the (nodes, weights) on [-1, 1] of the value's rule
# (18 per panel) and of the estimate's (12 per panel).
_PANEL_RULES = tuple(leggauss(k) for k in (18, 12))
_SIGMA_T_END = 45.0

# Most panel nodes (30 a panel) one Mellin evaluation may take; panels grow
# like max |lambda| / min Re lambda.  Criterion 12 takes at most 1,140 nodes,
# the test suite 37,530; diag(0.02+30j, 0.02-20j) + 0.01 [[0,1],[1,0]] would
# take 375,030 (2.9 s on 2 vCPUs), and 3,750,000 at real part 2e-3.
MELLIN_NODE_BUDGET = 10 ** 5


@dataclass
class FlatDetResult:
    """Result of a flat-determinant evaluation.

    ``value`` is the spectral product of nonzero eigenvalues of A + lambda;
    ``mellin_value`` (when computed) is exp of the quadrature route, and
    ``quadrature_error_estimate`` bounds |mellin_value - value|.
    """

    value: complex
    kernel_dim: int
    quadrature_error_estimate: float
    mellin_value: Optional[complex] = None


# Pade-13 coefficients b_0..b_13 and the largest ||X||_1 at which the [13/13]
# approximant of e^X is accurate to double precision (Higham 2005, SIAM J.
# Matrix Anal. Appl. 26(4), Table 2.3).
_PADE13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0])
_THETA13 = 5.371920351148152

# Matrix entries per kernel chunk.  A chunk holds several complex arrays of
# this many entries (numerators, denominators, solutions, squares), so the
# chunk size, not the node count, bounds the kernel's memory.
_CHUNK_ENTRIES = 1 << 12


def _heat_traces(m: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """tr e^(-t m) at every node t (all t > 0)."""
    diag = np.diagonal(m)
    if not np.any(m - np.diag(diag)):
        return np.exp(-np.outer(ts, diag)).sum(axis=1)
    terms, norm = _pade_terms(m)
    step = max(1, _CHUNK_ENTRIES // m.size)
    return np.concatenate([np.trace(_pade_exp(terms, norm * ts[i:i + step]), axis1=1, axis2=2)
                           for i in range(0, len(ts), step)])


def exp_stack(m: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """e^(-x m) at every x >= 0 of ``xs``, stacked along a leading axis: one
    unchunked call of the heat traces' Pade kernel.  Each slice takes its own
    scaling, Pade solve and squarings, as a call at that x alone would.  At
    x = 0 the solve of b_0 I against b_0 I may leave the diagonal a rounding
    off 1 (LAPACK gave 1 - 2^-53 on numpy 2.4); a zero or empty m gives the
    exact identity at every x, and an empty ``xs`` an empty stack."""
    n = m.shape[0]
    if not np.any(m):
        return np.broadcast_to(np.eye(n, dtype=complex), (len(xs), n, n)).copy()
    terms, norm = _pade_terms(m)
    return _pade_exp(terms, norm * np.asarray(xs, dtype=float))


def _pade_terms(m: np.ndarray):
    """(``terms``, ||m||_1) with ``terms[k]`` = b_k M^k (k = 0..13) for
    M = m / ||m||_1, so no power can overflow; m must be nonzero."""
    n = m.shape[0]
    norm = np.linalg.norm(m, 1)
    terms = np.empty((14, n, n), dtype=complex)
    terms[0] = np.eye(n)
    terms[1] = m / norm
    for k in range(2, 14):
        terms[k] = terms[k - 1] @ terms[1]
    terms *= _PADE13[:, None, None]
    return terms, norm


def _pade_exp(terms: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """e^(-x M) at every x >= 0, stacked in the order of ``xs``, given
    ``terms[k]`` = b_k M^k (k = 0..13) with ||M||_1 = 1."""
    n = terms.shape[1]
    with np.errstate(divide="ignore"):
        s = np.maximum(0, np.ceil(np.log2(xs / _THETA13))).astype(int)
    order = np.argsort(s, kind="stable")
    s = s[order]
    c = np.ldexp(-xs[order], -s)
    # sum_k b_k c^k M^k is V + U at c and V - U at -c
    num, den = (np.vander(np.concatenate([c, -c]), 14, increasing=True)
                @ terms.reshape(14, n * n)).reshape(2, len(xs), n, n)
    e = np.linalg.solve(den, num)
    # nodes are sorted by s: the ones still to square form a suffix
    for j in range(1, s.max(initial=0) + 1):
        k = np.searchsorted(s, j)
        e[k:] = e[k:] @ e[k:]
    out = np.empty_like(e)
    out[order] = e
    return out


def _as_square(matrix) -> np.ndarray:
    a = np.atleast_2d(np.asarray(matrix, dtype=complex))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("matrix", "entries must be finite")
    return a


def _spectral_split(matrix: np.ndarray, lam: complex):
    """(matrix + lam, its nonzero eigenvalues, kernel dimension): the one
    eigensolve of a flat-determinant evaluation."""
    m = matrix + lam * np.eye(matrix.shape[0])
    eigs = np.linalg.eigvals(m)
    kernel = np.abs(eigs) <= KERNEL_TOL * np.max(np.abs(eigs), initial=0.0)
    return m, eigs[~kernel], int(np.count_nonzero(kernel))


def _mellin_rule(nonzero: np.ndarray):
    """(sigma, nodes t, dt/t weights): row 0 of the weights gives the value,
    row 1 the estimate.

    Raises MellinDivergenceError for an eigenvalue off the right half-plane,
    and QuadratureBudgetError for panels of more than MELLIN_NODE_BUDGET nodes.
    """
    top = float(np.max(np.abs(nonzero), initial=0.0))
    for ev in nonzero:
        if ev.real <= KERNEL_TOL * top:
            raise MellinDivergenceError(ev)
    sigma = 0.9 * float(np.min(nonzero.real)) if nonzero.size else 1.0
    if np.max(np.abs(nonzero.imag), initial=0.0) <= sigma:
        return sigma, np.exp(_LOG_SIGMA_T) / sigma, _EXP_SINH_WEIGHTS

    end = _SIGMA_T_END / sigma
    length = min(2.0 / sigma, 6.0 / top)
    panels = int(np.ceil(end / length))
    nodes = panels * sum(len(x) for x, _ in _PANEL_RULES)
    if nodes > MELLIN_NODE_BUDGET:
        raise QuadratureBudgetError(nodes, MELLIN_NODE_BUDGET)
    left = length * np.arange(panels)[:, None]
    half = 0.5 * (np.minimum(left + length, end) - left)
    ts = [(left + half * (x + 1.0)).ravel() for x, _ in _PANEL_RULES]
    ws = [(half * w).ravel() / t for (_, w), t in zip(_PANEL_RULES, ts)]
    weights = np.zeros((2, len(ts[0]) + len(ts[1])))
    weights[0, :len(ts[0])], weights[1, len(ts[0]):] = ws
    return sigma, np.concatenate(ts), weights


def flat_det(matrix, lam: complex = 0.0, mode: str = "both") -> FlatDetResult:
    """Flat determinant of ``matrix + lam``: product of nonzero eigenvalues.

    ``mode="spectral"`` returns the direct product only.  ``mode="both"``
    (default) also runs the Mellin route and checks that the two agree within
    the quadrature error estimate, raising QuadratureFailureError otherwise,
    or QuadratureBudgetError where its panels would need too many nodes.
    A product that overflows or falls below the normal double range raises
    DeterminantRangeError; a non-finite entry raises ValidationError.
    """
    m, nonzero, kdim = _spectral_split(_as_square(matrix), lam)
    with np.errstate(over="ignore"):
        value = complex(np.prod(nonzero)) if nonzero.size else 1.0 + 0.0j
    if not np.isfinite(value) or abs(value) < np.finfo(float).tiny:
        raise DeterminantRangeError(float(np.sum(np.log10(np.abs(nonzero)))))

    if mode == "spectral":
        return FlatDetResult(value, kdim, 0.0)
    if mode != "both":
        raise ValueError(f"unknown mode {mode!r}")

    sigma, t, weights = _mellin_rule(nonzero)
    c0 = nonzero.size
    integrand = _heat_traces(m, t) - kdim - c0 * np.exp(-sigma * t)
    log_h, log_2h = c0 * np.log(sigma) - weights @ integrand
    mellin_value = complex(np.exp(log_h))

    scale = abs(value)
    estimate = scale * (10.0 * abs(log_h - log_2h) + 1e-9)
    residual = abs(mellin_value - value)
    if residual > max(estimate, 1e-6 * scale):
        raise QuadratureFailureError(residual, estimate)
    return FlatDetResult(value, kdim, estimate, mellin_value)
