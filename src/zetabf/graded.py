"""Flat determinants of finite matrices.

Two independent routes to the regularised determinant of a finite matrix are
kept side by side.  The spectral route multiplies the nonzero eigenvalues of
A + lambda directly.  The Mellin route integrates the heat trace

    F(lambda, s) = 1/Gamma(s) * int_0^inf t^(s-1) (tr e^(-t(A+lambda)) - tr Pi) dt

by quadrature (heat traces from scipy's expm, never from the spectral
factorisation) and takes -d/ds at s = 0 numerically.  For finite matrices the
two must agree; the disagreement is the package's basic quadrature diagnostic.

Each quadrature rule evaluates its heat traces with one stacked expm call over
all of its nodes (scipy runs the same per-slice algorithm, so the traces equal
single-matrix calls bit for bit).  Gauss nodes and weights are built once per
node count and cached read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm
from scipy.special import rgamma

from .errors import (
    MellinDivergenceError,
    QuadratureFailureError,
    ShapeMismatchError,
)

# Eigenvalues below this modulus are classified as kernel (the projector Pi).
KERNEL_TOL = 1e-10

# Central finite-difference step for d/ds at s = 0, refined once by Richardson
# (``neg_dds_at_zero``; the zeta Mellin route shares both).
FD_STEP = 1e-4

# Quadrature sizes: low resolution feeds the error estimate, high the value.
_NODES_LO = 40
_NODES_HI = 72


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
_STACK_ENTRIES = 1 << 18


@lru_cache(maxsize=None)
def _gauss_rule(rule, nodes: int):
    """Read-only nodes and weights of ``rule`` (leggauss or laggauss)."""
    x, w = rule(nodes)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


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
    kernel = np.abs(eigs) < KERNEL_TOL
    return m, eigs[~kernel], int(np.count_nonzero(kernel))


def neg_dds_at_zero(f) -> complex:
    """-d/ds f(s) at s = 0: central differences at steps FD_STEP and
    FD_STEP/2, combined by one Richardson step."""
    h = FD_STEP

    def diff(step):
        return (f(step) - f(-step)) / (2 * step)

    d1 = diff(h)
    d2 = diff(h / 2)
    return -(4 * d2 - d1) / 3


class _HeatQuadrature:
    """Shared quadrature state for the Mellin transform of a heat trace.

    Splits [0, inf) at t = 1: Gauss-Legendre with the substitution t = u^2 on
    [0, 1] (after removing the first two Taylor terms of the trace, which are
    re-added analytically), and a Gauss-Laguerre rule with decay scale alpha
    on [1, inf).  When the spectrum is oscillatory relative to its decay
    (max |Im| large against alpha) the tail switches to composite panels with
    oscillation-resolving length, truncated where the decay certifies a
    negligible remainder.  Heat traces come from expm; the spectrum enters
    only kernel counting, divergence policing and quadrature scales.
    """

    def __init__(self, m: np.ndarray, nonzero: np.ndarray, kernel_dim: int,
                 nodes: int):
        for ev in nonzero:
            if ev.real <= KERNEL_TOL:
                raise MellinDivergenceError(ev)
        alpha = 0.9 * float(np.min(nonzero.real)) if nonzero.size else 1.0
        im_max = float(np.max(np.abs(nonzero.imag))) if nonzero.size else 0.0
        n = m.shape[0]
        self.c0 = n - kernel_dim
        self.c1 = -complex(np.trace(m))

        x_gl, w_gl = _gauss_rule(leggauss, nodes)
        self.u = 0.5 * (x_gl + 1.0)
        self.w_gl = 0.5 * w_gl
        t_low = self.u ** 2

        if im_max <= 0.25 * alpha * nodes:
            x_lag, w_lag = _gauss_rule(laggauss, nodes)
            self.t_high = 1.0 + x_lag / alpha
            # w * e^x assembled in log space; laggauss weights are positive
            self.w_high = np.exp(np.log(w_lag) + x_lag) / alpha
        else:
            # composite 12-point panels out to the certified truncation point
            t_end = 1.0 + 44.0 / alpha
            length = min(2.0 / alpha, 6.0 / im_max)
            panels = int(np.ceil((t_end - 1.0) / length))
            xj, wj = _gauss_rule(leggauss, max(nodes // 4, 12))
            ts, ws = [], []
            for p in range(panels):
                a, b = 1.0 + p * length, min(1.0 + (p + 1) * length, t_end)
                ts.append(0.5 * (b - a) * xj + 0.5 * (a + b))
                ws.append(0.5 * (b - a) * wj)
            self.t_high = np.concatenate(ts)
            self.w_high = np.concatenate(ws)

        g = _heat_traces(m, np.concatenate([t_low, self.t_high])) - kernel_dim
        self.h_low = g[:nodes] - self.c0 - self.c1 * t_low
        self.g_high = g[nodes:]

    def f(self, s: complex) -> complex:
        i_low = 2.0 * np.sum(self.w_gl * self.u ** (2 * s - 1) * self.h_low)
        i_high = np.sum(self.w_high * self.t_high ** (s - 1) * self.g_high)
        return (rgamma(s) * (i_low + i_high)
                + self.c0 * rgamma(s + 1)
                + self.c1 * rgamma(s) / (s + 1))


def mellin_f(matrix, lam: complex, s: complex, nodes: int = _NODES_HI) -> complex:
    """Evaluate F(lambda, s) for a finite matrix by adaptive split quadrature.

    For a scalar [[a]] with a > 0 and lam = 0 this is a^(-s).
    """
    return _HeatQuadrature(*_spectral_split(_as_square(matrix), lam), nodes).f(s)


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

    log_lo = neg_dds_at_zero(_HeatQuadrature(m, nonzero, kdim, _NODES_LO).f)
    log_hi = neg_dds_at_zero(_HeatQuadrature(m, nonzero, kdim, _NODES_HI).f)
    mellin_value = complex(np.exp(log_hi))

    scale = max(abs(value), 1e-30)
    estimate = scale * (10.0 * abs(log_hi - log_lo) + 1e-9)
    residual = abs(mellin_value - value)
    if residual > max(estimate, 1e-6 * scale):
        raise QuadratureFailureError(residual, estimate)
    return FlatDetResult(value, kdim, estimate, mellin_value)


def logdet_flat_mellin(matrix, lam: complex = 0.0, nodes: int = _NODES_HI) -> complex:
    """log det_flat(matrix + lam) through the Mellin route alone."""
    split = _spectral_split(_as_square(matrix), lam)
    return neg_dds_at_zero(_HeatQuadrature(*split, nodes).f)
