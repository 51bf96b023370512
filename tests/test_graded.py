"""Flat-determinant contracts."""

import math

import numpy as np
import pytest

from scipy.linalg import expm

from zetabf import graded
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


def test_flat_det_stacks_heat_traces(monkeypatch):
    calls = []

    def counting(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(graded, "expm", counting)
    a = np.array([[1.0, 0.3, 0.0], [0.1, 2.0, 0.2], [0.0, 0.4, 3.0]])
    r = flat_det(a)
    assert r.mellin_value == pytest.approx(r.value, rel=1e-6)
    assert len(calls) <= 4


def test_flat_det_factorises_once(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals

    def counting(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    r = flat_det(np.array([[1.0, 0.3, 0.0], [0.1, 2.0, 0.2], [0.0, 0.4, 3.0]]))
    assert r.mellin_value == pytest.approx(r.value, rel=1e-6)
    assert calls == [(3, 3)]


@pytest.mark.parametrize("matrix, panels", [
    (np.array([[1.0, 0.3, 0.0], [0.1, 2.0, 0.2], [0.0, 0.4, 3.0]]), False),
    (np.diag([0.2 + 30j, 0.2 - 20j]) + 0.01 * np.array([[0, 1], [1, 0]]), True),
])
def test_heat_traces_equal_per_node_expm(matrix, panels):
    """Stacked heat traces equal single-matrix expm traces bit for bit.

    Both matrices are non-diagonal, so expm takes its Pade route; the second
    is oscillatory enough for the composite-panel tail."""
    for nodes in (graded._NODES_LO, graded._NODES_HI):
        m, nonzero, kdim = graded._spectral_split(graded._as_square(matrix), 0.0)
        quad = graded._HeatQuadrature(m, nonzero, kdim, nodes)
        assert (len(quad.t_high) != nodes) == panels

        def heat(t):
            return complex(np.trace(expm(-t * m))) - kdim

        t_low = quad.u ** 2
        h_low = np.array([heat(t) for t in t_low]) - quad.c0 - quad.c1 * t_low
        assert np.array_equal(quad.h_low, h_low)
        assert np.array_equal(quad.g_high, np.array([heat(t) for t in quad.t_high]))
