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
panel.  The heat traces at the nodes
of both come from stacked expm calls, one for the exp-sinh rule (scipy runs
the same per-slice algorithm, so the traces equal single-matrix calls bit for
bit), never from the spectral factorisation: the spectrum enters only the
kernel count, divergence policing and the quadrature scales.  For finite
matrices the two routes must agree; the disagreement is the package's basic
quadrature diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import block_diag, expm

from .errors import (
    MellinDivergenceError,
    QuadratureFailureError,
    ShapeMismatchError,
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

# Gauss-Legendre panels: nodes per panel of the value and of the estimate.
_PANEL_NODES = (18, 12)
_SIGMA_T_END = 45.0


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


# Matrix entries per stacked expm call; larger stacks are split to bound memory.
_STACK_ENTRIES = 1 << 15


def _heat_traces(m: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """tr e^(-t m) at every node t, from stacked expm calls."""
    step = max(1, _STACK_ENTRIES // max(m.size, 1))
    return np.concatenate([
        np.trace(expm(-ts[i:i + step, None, None] * m), axis1=1, axis2=2)
        for i in range(0, len(ts), step)])


def _as_square(matrix) -> np.ndarray:
    a = np.atleast_2d(np.asarray(matrix, dtype=complex))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def _spectral_split(matrix: np.ndarray, lam: complex):
    """(matrix + lam, its nonzero eigenvalues, kernel dimension): the one
    eigensolve of a flat-determinant evaluation."""
    m = matrix + lam * np.eye(matrix.shape[0])
    eigs = np.linalg.eigvals(m)
    kernel = np.abs(eigs) <= KERNEL_TOL * np.max(np.abs(eigs))
    return m, eigs[~kernel], int(np.count_nonzero(kernel))


def _mellin_rule(nonzero: np.ndarray):
    """(sigma, nodes t, dt/t weights): row 0 of the weights gives the value,
    row 1 the estimate.

    Raises MellinDivergenceError for an eigenvalue off the right half-plane.
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
    left = length * np.arange(int(np.ceil(end / length)))[:, None]
    half = 0.5 * (np.minimum(left + length, end) - left)
    ts, ws = [], []
    for x, w in map(leggauss, _PANEL_NODES):
        t = (left + half * (x + 1.0)).ravel()
        ts.append(t)
        ws.append((half * w).ravel() / t)
    return sigma, np.concatenate(ts), block_diag(*ws)


def flat_det(matrix, lam: complex = 0.0, mode: str = "both") -> FlatDetResult:
    """Flat determinant of ``matrix + lam``: product of nonzero eigenvalues.

    ``mode="spectral"`` returns the direct product only.  ``mode="both"``
    (default) also runs the Mellin route and checks that the two agree within
    the quadrature error estimate, raising QuadratureFailureError otherwise.
    """
    m, nonzero, kdim = _spectral_split(_as_square(matrix), lam)
    value = complex(np.prod(nonzero)) if nonzero.size else 1.0 + 0.0j

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
