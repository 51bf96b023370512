"""Flat-determinant contracts."""

import math

import numpy as np
import pytest

from zetabf.errors import MellinDivergenceError
from zetabf.graded import (
    flat_det,
    logdet_flat_mellin,
    mellin_f,
)


def spectral_zeta_oracle(matrix, s):
    """Independent oracle: sum of lambda^(-s) over the spectrum."""
    eigs = np.linalg.eigvals(np.atleast_2d(matrix))
    return complex(np.sum(eigs ** (-s)))


def test_flat_det_ordinary_determinant():
    r = flat_det(np.diag([1.0, 2.0, 3.0]))
    assert r.value == pytest.approx(6.0)
    assert r.kernel_dim == 0
    assert abs(r.mellin_value - r.value) <= max(r.quadrature_error_estimate,
                                                1e-6 * abs(r.value))


def test_flat_det_kernel_excluded():
    r = flat_det(np.diag([0.0, 2.0]))
    assert r.value == pytest.approx(2.0)
    assert r.kernel_dim == 1


def test_flat_det_shifted():
    r = flat_det(np.diag([1.0, 2.0, 3.0]), lam=1.0)
    assert r.value == pytest.approx(24.0)


def test_flat_det_spectral_matches_det():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        r = flat_det(a, mode="spectral")
        assert r.value == pytest.approx(complex(np.linalg.det(a)), rel=1e-12)


def test_mellin_f_scalar_closed_form():
    assert mellin_f([[2.0]], 0.0, 0.5) == pytest.approx(2.0 ** -0.5, rel=1e-8)


def test_mellin_f_matches_spectral_sum():
    m = np.diag([1.0, 4.0])
    expected = spectral_zeta_oracle(m, 1.0)   # 1 + 1/4
    assert expected == pytest.approx(1.25)
    assert mellin_f(m, 0.0, 1.0) == pytest.approx(expected, rel=1e-8)


def test_mellin_derivative_is_log():
    got = logdet_flat_mellin([[2.0]])
    assert got == pytest.approx(math.log(2.0), rel=1e-8)


def test_mellin_divergence_reports_eigenvalue():
    with pytest.raises(MellinDivergenceError) as err:
        flat_det(np.diag([-1.0, 2.0]))
    assert err.value.eigenvalue == pytest.approx(-1.0)


def test_mellin_mode_agreement_property():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        d = np.diag(rng.uniform(0.4, 3.0, size=n))
        s = rng.normal(size=(n, n)) + 0.2 * np.eye(n)
        a = s @ d @ np.linalg.inv(s)
        r = flat_det(a)
        assert abs(r.mellin_value - r.value) < 1e-6 * abs(r.value)
