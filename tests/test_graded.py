"""Flat-determinant contracts."""

import functools

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from zetabf import graded, verification
from zetabf.errors import (
    DeterminantRangeError,
    MellinDivergenceError,
    QuadratureBudgetError,
    QuadratureFailureError,
    ShapeMismatchError,
    ValidationError,
)
from zetabf.graded import flat_det

# A fixed non-normal conjugation, so the heat traces see a non-diagonal matrix.
S = np.array([[1.0, 0.4, -0.2, 0.1],
              [0.3, 1.2, 0.5, -0.3],
              [-0.1, 0.2, 0.9, 0.4],
              [0.2, -0.5, 0.1, 1.1]])


def test_flat_det_ordinary_determinant():
    r = flat_det(np.diag([1.0, 2.0, 3.0]))
    assert r.value == pytest.approx(6.0)
    assert r.kernel_dim == 0
    assert abs(r.mellin_value - r.value) <= max(r.quadrature_error_estimate,
                                                1e-6 * abs(r.value))


def test_flat_det_refuses_a_mellin_rule_over_budget():
    # an oscillatory spectrum close to the imaginary axis: 12,501 panels
    a = np.diag([0.02 + 30j, 0.02 - 20j]) + 0.01 * np.array([[0, 1], [1, 0]])
    with pytest.raises(QuadratureBudgetError) as err:
        flat_det(a)
    assert err.value.nodes == 375_030 > err.value.budget == graded.MELLIN_NODE_BUDGET
    value = flat_det(a, mode="spectral").value
    assert value == pytest.approx(np.linalg.det(a), rel=1e-12)


def test_flat_det_kernel_excluded():
    r = flat_det(np.diag([0.0, 2.0]))
    assert r.value == pytest.approx(2.0)
    assert r.kernel_dim == 1
    r = flat_det(np.zeros((2, 2)))
    assert (r.value, r.mellin_value, r.kernel_dim) == (1.0, 1.0, 2)


def test_flat_det_of_the_empty_matrix_is_the_empty_product():
    # as for the zero matrix, whose nonzero eigenvalues are none too
    for mode in ("spectral", "both"):
        r = flat_det(np.zeros((0, 0)), mode=mode)
        assert (r.value, r.kernel_dim) == (1.0, 0)
    assert r.mellin_value == flat_det(np.zeros((2, 2))).mellin_value == 1.0


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


def test_mellin_derivative_is_log():
    for matrix, det in (([[2.0]], 2.0), (np.diag([1.0, 4.0]), 4.0)):
        r = flat_det(matrix)
        assert r.mellin_value == pytest.approx(det, rel=1e-12)
        assert abs(r.mellin_value - r.value) <= r.quadrature_error_estimate


@pytest.mark.parametrize("sigma", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 3.0, 10.0])
def test_mellin_accuracy_grid(sigma, r):
    """Real, mildly and strongly oscillatory spectra at three scales, with a
    50-sigma eigenvalue that the quadrature scales must not miss."""
    eigs = sigma * np.array([1 + 1j * r, 1 - 1j * r, 3.0, 50.0])
    a = S @ np.diag(eigs) @ np.linalg.inv(S)
    exact = complex(np.prod(eigs))
    res = flat_det(a)
    assert abs(res.mellin_value - exact) <= 1e-10 * abs(exact)
    assert abs(res.mellin_value - res.value) <= res.quadrature_error_estimate


def test_mellin_wide_spectrum():
    r = flat_det(np.diag([0.01, 1.0, 500.0]))
    assert abs(r.mellin_value - 5.0) <= 1e-9 * 5.0
    assert abs(r.mellin_value - r.value) <= r.quadrature_error_estimate


@pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e6])
def test_flat_det_kernel_cut_is_relative(scale):
    a = np.array([[1.0, 0.3, 0.0], [0.1, 2.0, 0.2], [0.0, 0.4, 3.0]])
    r = flat_det(scale * a)
    det = scale ** 3 * float(np.linalg.det(a))
    assert r.kernel_dim == 0
    assert abs(r.value - det) <= 1e-12 * abs(det)
    assert abs(r.mellin_value - r.value) <= r.quadrature_error_estimate
    assert abs(r.mellin_value - r.value) <= 1e-10 * abs(det)
    assert r.quadrature_error_estimate <= 1e-8 * abs(det)


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


def test_flat_det_refuses_a_non_square_matrix():
    with pytest.raises(ShapeMismatchError):
        flat_det(np.ones((2, 3)))


def test_flat_det_refuses_heat_traces_off_their_estimate(monkeypatch):
    traces = graded._heat_traces
    monkeypatch.setattr(graded, "_heat_traces", lambda m, t: traces(m, t) + 1e-3)
    with pytest.raises(QuadratureFailureError) as err:
        flat_det(np.diag([1.0, 2.0, 3.0]))
    assert err.value.residual > err.value.estimate


def test_flat_det_stacks_heat_traces(monkeypatch):
    calls = []
    chunk = graded._pade_exp

    def counting(terms, xs):
        calls.append(len(xs))
        return chunk(terms, xs)

    monkeypatch.setattr(graded, "_pade_exp", counting)
    a = np.array([[1.0, 0.3, 0.0], [0.1, 2.0, 0.2], [0.0, 0.4, 3.0]])
    r = flat_det(a)
    assert r.mellin_value == pytest.approx(r.value, rel=1e-6)
    assert calls == [113]


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


def _exact_heat_traces(m, t):
    """tr e^(-t m) at every node from 40-digit eigenvalues of m: the trace is
    the sum of exp(-t lambda) over the spectrum, for any matrix."""
    with mpmath.workdps(40):
        eigs = mpmath.eig(mpmath.matrix(m.tolist()), left=False, right=False)
        return np.array([complex(mpmath.fsum(mpmath.exp(-mpmath.mpf(tt) * ev)
                                             for ev in eigs)) for tt in t])


OSCILLATORY = np.diag([0.2 + 30j, 0.2 - 20j]) + 0.01 * np.array([[0, 1], [1, 0]])
A3 = np.array([[1.0, 0.3, 0.0], [0.1, 2.0, 0.2], [0.0, 0.4, 3.0]])


@pytest.mark.parametrize("matrix, panels", [
    (A3, False),
    (OSCILLATORY, True),
    # criterion 12's worst case: eigenvector condition number about 392
    (list(verification._criterion_12_matrices())[8], False),
])
def test_heat_traces_equal_per_node_expm(matrix, panels):
    """The batched heat traces are as accurate as per-node expm against a
    40-digit oracle, and the estimate's nodes are nested in the value's rule
    or disjoint from it.

    Every matrix is non-diagonal, so both take their Pade route; the second
    is oscillatory enough for the Gauss-Legendre panels."""
    m, nonzero, _ = graded._spectral_split(graded._as_square(matrix), 0.0)
    _, t, weights = graded._mellin_rule(nonzero)
    assert (len(t) != 113) == panels
    shared = np.all(weights != 0, axis=0)
    if panels:
        assert not shared.any()
    else:
        assert np.array_equal(shared, np.arange(113) % 2 == 0)
    exact = _exact_heat_traces(m, t)
    # scipy's expm runs its single-matrix algorithm on each slice of a stack
    per_node = np.trace(expm(-t[:, None, None] * m), axis1=1, axis2=2)
    scipy_error = np.max(np.abs(per_node - exact))
    assert np.max(np.abs(graded._heat_traces(m, t) - exact)) <= 2 * scipy_error + 1e-15


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_flat_det_out_of_double_range(scale):
    with pytest.raises(DeterminantRangeError) as err:
        flat_det(scale * A3, mode="spectral")
    assert err.value.log10_abs == pytest.approx(
        3 * np.log10(scale) + np.log10(np.linalg.det(A3)))
    with pytest.raises(DeterminantRangeError):
        flat_det(scale * A3)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(1, np.nan)])
def test_flat_det_rejects_non_finite_entries(entry):
    a = A3.astype(complex)
    a[1, 2] = entry
    with pytest.raises(ValidationError):
        flat_det(a)


@functools.cache
def _log_mellin_value(name, s=1.0):
    return np.log(flat_det(s * {"3x3": A3, "oscillatory": OSCILLATORY}[name]).mellin_value)


@pytest.mark.parametrize("name, n", [("3x3", 3), ("oscillatory", 2)])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(log10_s=st.floats(-8.0, 8.0))
@example(log10_s=-8.0)
@example(log10_s=8.0)
def test_mellin_value_scale_covariant(name, n, log10_s):
    """log det(sA) = log det(A) + n log s on the Mellin route."""
    s = 10.0 ** log10_s
    shift = _log_mellin_value(name, s) - _log_mellin_value(name)
    assert abs(shift - n * np.log(s)) <= 1e-12
