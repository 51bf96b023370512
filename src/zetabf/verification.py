"""Acceptance suite: every headline identity checked at its stated tolerance.

Each criterion is a function returning ``(name, passed, detail)``.
``run_all`` is the one place that numbers the criteria, runs them in order,
times each and turns a ``ZetaBFError`` into a failed result.  Oracles that
play against package code (the lattice fixed-point count, the Milnor-style
mapping-torus torsion, closed-form zeta values) are implemented here
independently of the code paths they check, beside ``fried_residual``, the
one comparison of the zeta route with the torsion route.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import bv, complexes, observables, orbits, zeta
from .errors import ZetaBFError
from .graded import flat_det

CAT_MAP = ((2, 1), (1, 1))
FRIED_MATRICES = (((2, 1), (1, 1)), ((3, 1), (2, 1)), ((4, 1), (3, 1)))
FRIED_THETAS = (math.pi / 2, 2 * math.pi / 3, math.pi)
SEED = 20240801


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


# What a criterion returns: its name, whether it passed and a one-line detail.
Outcome = Tuple[str, bool, str]


# -- independent oracles -------------------------------------------------------


def _ceil_div(a, b):
    """ceil(a / b) for integers or int64 arrays; // floors for both."""
    return -((-a) // b)


# First coordinates m1 per exact int64 block of the lattice oracle.
_LATTICE_BLOCK = 1 << 13

# Entries of A^j - I at or above this modulus could overflow an int64 product.
_LATTICE_ENTRY_LIMIT = 1 << 31


def lattice_fixed_point_count(aut: orbits.ToralAutomorphism, j: int) -> int:
    """Brute-force count of solutions (A^j - I)x in Z^2 with x in [0,1)^2.

    Enumerates integer vectors m in the image parallelogram M [0,1)^2 and
    checks adj(M) m / det(M) in [0,1)^2 with exact integer inequalities: for
    each first coordinate m1 the admissible m2 form one interval, whose ends
    are ceil/floor bounds from the two adjugate rows.  The first coordinates
    run in blocks of exact int64 arithmetic.  Independent of the determinant
    formula it is used to check.

    |det A| = 1 makes |det M| <= |tr A^j| + 2 linear in the entries of M, so
    with entries below 2^31 every product and difference stays below 2^63;
    larger entries raise ValueError.
    """
    a, b, c, d = aut.power(j)
    m00, m01, m10, m11 = a - 1, b, c, d - 1
    det = m00 * m11 - m01 * m10
    if det == 0:
        raise ValueError("A^j - I is singular; A is not hyperbolic")
    if max(abs(m00), abs(m01), abs(m10), abs(m11)) >= _LATTICE_ENTRY_LIMIT:
        raise ValueError(f"A^{j} - I has an entry of modulus >= 2^31; "
                         "the int64 enumeration could overflow")
    adj = ((m11, -m01), (-m10, m00))
    if det > 0:
        alpha, beta = 0, det - 1
    else:
        alpha, beta = det + 1, 0

    lo1 = min(0, m00, m01, m00 + m01)
    hi1 = max(0, m00, m01, m00 + m01)
    count = 0
    for start in range(lo1, hi1 + 1, _LATTICE_BLOCK):
        m1 = np.arange(start, min(start + _LATTICE_BLOCK, hi1 + 1), dtype=np.int64)
        feasible = np.ones(m1.shape, dtype=bool)
        lo = np.full(m1.shape, np.iinfo(np.int64).min)
        hi = np.full(m1.shape, np.iinfo(np.int64).max)
        for (p, q) in adj:
            base = p * m1
            if q == 0:
                feasible &= (alpha <= base) & (base <= beta)
                continue
            if q > 0:
                l, h = _ceil_div(alpha - base, q), (beta - base) // q
            else:
                l, h = _ceil_div(beta - base, q), (alpha - base) // q
            lo, hi = np.maximum(lo, l), np.minimum(hi, h)
        # clamp before subtracting: hi - lo of an empty interval may not fit
        width = np.maximum(hi, lo - 1) - lo + 1
        count += int(np.sum(width[feasible]))
    return count


def milnor_mapping_torus_torsion(a_matrix, theta: float) -> float:
    """Cohomological oracle: prod_k |det(I - z A_k)|^((-1)^(k+1)) over the
    action on H^k(T^2), i.e. |det(I - z A)| / |1 - z|^2 for det A = 1."""
    a = np.asarray(a_matrix, dtype=float)
    z = cmath.exp(1j * theta)
    det_a = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    num = abs(np.linalg.det(np.eye(2) - z * a))
    den = abs(1 - z) * abs(1 - z * det_a)
    return num / den


def closed_zeta_oracle(aut: orbits.ToralAutomorphism, theta: float,
                       lam: complex, k) -> complex:
    """log zeta_k via the eigenvalue resummation, written independently of
    zeta.closed_form_suspension (scalar logs instead of products)."""
    z = cmath.exp(1j * theta - lam * aut.roof)
    mu = aut.expanding_eigenvalue
    nu = aut.contracting_eigenvalue
    if k == 0:
        return cmath.log(1 - z)
    if k == 1:
        return cmath.log(1 - z * mu) + cmath.log(1 - z * nu)
    if k == 2:
        return cmath.log(1 - aut.det * z)
    raise ValueError(k)


def fried_residual(a_matrix, theta: float, sign: int = -1) -> float:
    """| |zeta(0)|^((-1)^n) * tau^sign - 1 | for the suspension model.

    The zeta side comes from the closed-form continuation, the torsion side
    from the combinatorial mapping-torus complex; the convention exponent
    sign = -1 was frozen on the theta = pi cat-map anchor (4/5 vs 5/4).
    """
    aut = orbits.ToralAutomorphism.from_matrix(a_matrix)
    zeta0 = zeta.zeta_value_at_zero(aut, theta)
    zeta_side = abs(zeta0) ** ((-1) ** orbits.TRANSVERSE_RANK)
    tau = complexes.analytic_torsion(complexes.mapping_torus_complex(aut.matrix, theta))
    return abs(zeta_side * tau ** sign - 1.0)


# -- criteria -------------------------------------------------------------------


def criterion_1_lefschetz() -> Outcome:
    aut = orbits.ToralAutomorphism(2, 1, 1, 1)
    worst = None
    counts = []
    for j in range(1, 13):
        got = orbits.count_fixed_points(aut, j)
        want = lattice_fixed_point_count(aut, j)
        counts.append(got)
        if got != want:
            worst = (j, got, want)
            break
    ok = worst is None and counts[:3] == [1, 5, 16]
    detail = f"counts j<=12: {counts}" if ok else f"mismatch {worst}"
    return "lefschetz counts vs lattice oracle", ok, detail


def criterion_2_per_orbit_identity() -> Outcome:
    # det(I - P^j) = sum_k (-1)^k tr Lambda^k P^j, signed: for tr A < 0 it is
    # positive at odd j
    worst = 0.0
    for a in ((2, 1, 1, 1), (-2, -1, -1, -1), (-4, -1, -3, -1), (-3, 1, 1, 0), (3, 1, 1, 0)):
        aut = orbits.ToralAutomorphism(*a)
        for j in range(1, 13):
            traces = [orbits.poincare_data(aut, j, k)[0] for k in range(3)]
            det = orbits.poincare_data(aut, j, 0)[1]
            worst = max(worst, abs(det - (traces[0] - traces[1] + traces[2])))
    ok = worst < 1e-12
    return "per-orbit linear-algebra identity", ok, f"max residual {worst:.3e}"


def criterion_3_decomposition() -> Outcome:
    aut = orbits.ToralAutomorphism(2, 1, 1, 1)
    data = orbits.suspension_orbits(aut, 30)
    worst = 0.0
    for lam in (2.0, 3.0, 3 + 2j):
        worst = max(worst, zeta.decomposition_residual(data, 0.9, lam, J=30))
    ok = worst < 1e-12
    return "zeta decomposition identity", ok, f"max residual {worst:.3e} at J=30"


def criterion_4_euler_vs_closed() -> Outcome:
    aut = orbits.ToralAutomorphism(2, 1, 1, 1)
    data = orbits.suspension_orbits(aut, 40)
    worst = 0.0
    certified = True
    for theta in (0.0, math.pi / 2, math.pi):
        for lam in (3.0, 3.5, 4.25, 5.0):
            for k in (0, 1, 2):
                ev = zeta.log_zeta_k(data, theta, lam, k, J=40)
                err = abs(ev.value - closed_zeta_oracle(aut, theta, lam, k))
                worst = max(worst, err)
                # certificate floor covers roundoff of the 40-term sums
                if err > ev.truncation_error_bound + 1e-13:
                    certified = False
    ok = worst < 1e-8 and certified
    return ("euler products vs closed forms", ok,
            f"max |truncated-closed| {worst:.3e}, certified={certified}")


def criterion_5_fried_from_orbits() -> Outcome:
    worst = 0.0
    for a, theta in ((CAT_MAP, math.pi), (CAT_MAP, 2.0), (CAT_MAP, 0.3),
                     (((3, 2), (1, 1)), 0.7), (((5, 2), (2, 1)), 1.1)):
        aut = orbits.ToralAutomorphism.from_matrix(a)
        cycle = zeta.cycle_zeta(orbits.suspension_orbits(aut, 12), theta, 0.0)
        tau = complexes.analytic_torsion(complexes.mapping_torus_complex(a, theta))
        worst = max(worst, abs(cycle.alternating * zeta.zeta_value_at_zero(aut, theta) - 1),
                    abs(abs(cycle.alternating) / tau - 1), cycle.recurrence_residual)
    ok = worst < 1e-8
    return ("Fried from orbits alone (cycle expansion vs closed form and torsion)",
            ok, f"max deviation {worst:.3e}")


def _random_complexes(count: int, rng: np.random.Generator):
    """``count`` random complexes, each with its top degree and rank drawn
    just before it, assembled as one batch (one stacked QR per matrix size)."""
    return complexes.random_twisted_complexes(
        rng, count, lambda r: (int(r.integers(2, 6)), 6, int(r.integers(1, 3))))


def criterion_6_schwarz_equals_torsion() -> Outcome:
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for tc in _random_complexes(100, rng):
        tau = complexes.analytic_torsion(tc)
        z = complexes.schwarz_partition(tc)
        worst = max(worst, abs(z / tau - 1.0))
    ok = worst < 1e-10
    return ("schwarz resolution = analytic torsion (100 random)",
            ok, f"max relative error {worst:.3e}")


def criterion_7_det_relations() -> Outcome:
    rng = np.random.default_rng(SEED + 1)
    worst13 = 0.0
    for tc in _random_complexes(100, rng):
        rep = complexes.det_relations_report(tc)
        worst13 = max(worst13, rep.relation1, rep.relation3)
    worst2 = 0.0
    for tc in (complexes.circle_complex(math.pi),
               complexes.circle_complex(2 * math.pi / 3),
               complexes.torus_complex(math.pi / 2, 0.0),
               complexes.mapping_torus_complex(CAT_MAP, math.pi)):
        rep = complexes.det_relations_report(tc)
        worst2 = max(worst2, rep.relation2)
    ok = worst13 < 1e-10 and worst2 < 1e-10
    return ("determinant relations (1),(3) random; (2) dual pairs",
            ok, f"max (1)/(3) {worst13:.3e}; max (2) {worst2:.3e}")


def criterion_8_gauge_independence() -> Outcome:
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for tc in _random_complexes(20, rng):
        tau = complexes.analytic_torsion(tc)
        fs = bv.build_bf_fields(tc)
        z_metric = bv.partition_function(fs, bv.metric_gauge(fs))
        worst = max(worst, abs(z_metric / tau - 1.0))
        c = bv.random_contraction(tc, rng, samples=5)
        zs = bv.partition_function(fs, bv.contraction_gauge(fs, c))
        worst = max(worst, float(np.max(np.abs(zs / tau - 1.0))))
    ok = worst < 1e-9
    return ("gauge independence: Z(metric)=Z(contraction)=torsion",
            ok, f"max relative deviation {worst:.3e} "
                "(100 contractions / 20 complexes)")


def criterion_9_homotopy_constancy() -> Outcome:
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(20):
        tc = complexes.random_twisted_complex(
            rng, top_degree=int(rng.integers(2, 5)), max_cells=4,
            rank=int(rng.integers(1, 3)))
        fs = bv.build_bf_fields(tc)
        family = bv.unitary_contraction_family(tc, rng)
        scan = bv.homotopy_scan(fs, family, samples=10)
        worst = max(worst, scan.max_relative_deviation)
    ok = worst < 1e-8
    return ("lagrangian homotopy constancy (20 paths x 10 samples)",
            ok, f"max relative deviation {worst:.3e}")


def criterion_10_bv_identities() -> Outcome:
    chart = observables.DarbouxChart(
        (("x", "xi"), ("c", "cb"), ("y", "eta")), (0, 1, -2),
        max_word_length=12)

    exact = all(
        observables.bv_laplacian(observables.bv_laplacian(m)).is_zero()
        for m in observables.monomial_basis(chart, 4)
    )

    rng = np.random.default_rng(SEED + 4)
    worst_alg = 0.0
    for _ in range(40):
        pf, pg = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        f = observables.random_observable(chart, rng, degree=3, terms=5, parity=pf)
        g = observables.random_observable(chart, rng, degree=3, terms=5, parity=pg)
        if f.parity() is None or g.parity() is None:
            continue
        sf = (-1) ** f.parity()
        d = observables.bv_laplacian
        br = observables.antibracket
        id1 = d(f * g) - (d(f) * g + f * d(g) * sf + br(f, g) * sf)
        id2 = d(br(f, g)) - (br(d(f), g) + br(f, d(g)) * (-sf))
        worst_alg = max(worst_alg, id1.max_abs_coeff(), id2.max_abs_coeff())

    # damped expectations of Delta_mu h over both gauge kinds
    tc = complexes.mapping_torus_complex(CAT_MAP, math.pi)
    fs = bv.build_bf_fields(tc)
    worst_int = 0.0
    for gauge in (bv.metric_gauge(fs),
                  bv.contraction_gauge(fs, bv.hodge_contraction(tc))):
        chart_g, on_vars = bv.gauge_polarization(fs, gauge, max_word_length=10)
        weight = _damping_weight(chart_g, on_vars, rng)
        for _ in range(25):
            h = observables.random_observable(chart_g, rng, degree=3, terms=5)
            g_obs = observables.bv_laplacian(h, weight=weight)
            val, scale = observables.gaussian_expectation(g_obs, on_vars, weight)
            worst_int = max(worst_int, abs(val) / max(scale, 1.0))
    ok = exact and worst_alg < 1e-12 and worst_int < 1e-10
    return ("BV identities: Delta^2=0, algebra relations, int Delta h = 0",
            ok, f"Delta^2 exact={exact}; algebra {worst_alg:.3e}; "
                f"damped integrals {worst_int:.3e}")


def _damping_weight(chart, on_vars, rng) -> "observables.PolyObservable":
    """Positive quadratic damping on the even Lagrangian coordinates plus a
    nondegenerate pairing of the odd ones (paired in order)."""
    evens = [v for v in on_vars if chart.parity_of(chart.index(v)) == 0]
    odds = [v for v in on_vars if chart.parity_of(chart.index(v)) == 1]
    if len(odds) % 2 == 1:
        raise ValueError("odd Lagrangian coordinates must pair up")
    q = observables.PolyObservable.constant(chart, 0.0)
    for v in evens:
        xv = observables.PolyObservable.variable(chart, v)
        q = q + xv * xv * float(rng.uniform(0.4, 1.2))
    for i in range(0, len(odds), 2):
        a = observables.PolyObservable.variable(chart, odds[i])
        b = observables.PolyObservable.variable(chart, odds[i + 1])
        q = q + a * b * float(rng.uniform(0.6, 1.4))
    return q


def criterion_11_fried() -> Outcome:
    worst = 0.0
    for a in FRIED_MATRICES:
        for theta in FRIED_THETAS:
            worst = max(worst, fried_residual(a, theta))
    aut = orbits.ToralAutomorphism(2, 1, 1, 1)
    anchor_zeta = abs(zeta.zeta_value_at_zero(aut, math.pi)) ** (-1)
    anchor_tau = complexes.analytic_torsion(
        complexes.mapping_torus_complex(CAT_MAP, math.pi)) ** -1
    anchors = (abs(anchor_zeta - 0.8) < 1e-12 and abs(anchor_tau - 1.25) < 1e-12)
    oracle = milnor_mapping_torus_torsion(CAT_MAP, math.pi)
    ok = worst < 1e-8 and anchors and abs(oracle - 1.25) < 1e-12
    return ("discrete Fried identity (zeta(0) vs mapping-torus torsion)",
            ok, f"max residual {worst:.3e}; anchor |zeta(0)|^-1={anchor_zeta}"
                f", tau^(-1)={anchor_tau}")


def _criterion_12_matrices():
    """The 50 seeded matrices of criterion 12, in order."""
    rng = np.random.default_rng(SEED + 5)
    for trial in range(50):
        n = int(rng.integers(2, 9))
        kind = trial % 4
        if kind in (0, 1):
            # non-normal with positive real spectrum
            d = np.diag(rng.uniform(0.3, 4.0, size=n))
            s = rng.normal(size=(n, n)) + 0.1 * np.eye(n)
            while abs(np.linalg.det(s)) < 1e-3:
                s = rng.normal(size=(n, n)) + 0.1 * np.eye(n)
            yield s @ d @ np.linalg.inv(s)
        elif kind == 2:
            # hermitian positive definite
            z = complexes.ginibre(rng, n)
            yield z @ z.conj().T / n + 0.3 * np.eye(n)
        else:
            # complex spectrum in the right half plane
            a = complexes.ginibre(rng, n) / math.sqrt(n)
            a = a + (1.2 + float(rng.uniform(0, 2))) * np.eye(n)
            shift = np.min(np.linalg.eigvals(a).real)
            if shift < 0.1:
                a = a + (0.2 - shift) * np.eye(n)
            yield a


def criterion_12_flat_det() -> Outcome:
    worst = 0.0
    for a in _criterion_12_matrices():
        r = flat_det(a)
        worst = max(worst, abs(r.mellin_value - r.value) / abs(r.value))
    ok = worst < 1e-6
    return ("flat determinant: Mellin vs spectral (50 random)",
            ok, f"max relative error {worst:.3e}")


ALL_CRITERIA: Sequence[Callable[[], Outcome]] = (
    criterion_1_lefschetz,
    criterion_2_per_orbit_identity,
    criterion_3_decomposition,
    criterion_4_euler_vs_closed,
    criterion_5_fried_from_orbits,
    criterion_6_schwarz_equals_torsion,
    criterion_7_det_relations,
    criterion_8_gauge_independence,
    criterion_9_homotopy_constancy,
    criterion_10_bv_identities,
    criterion_11_fried,
    criterion_12_flat_det,
)


def run_all(indices: Optional[Sequence[int]] = None) -> List[CriterionResult]:
    """Run the criteria numbered (from 1) in ``indices``, all of them when
    None or empty, in order; a criterion that raises a ZetaBFError fails."""
    results = []
    for i, crit in enumerate(ALL_CRITERIA, start=1):
        if indices and i not in indices:
            continue
        start = time.perf_counter()
        try:
            name, passed, detail = crit()
        except ZetaBFError as exc:
            name, passed = crit.__name__, False
            detail = f"raised {type(exc).__name__}: {exc}"
        results.append(CriterionResult(i, name, bool(passed), detail,
                                       time.perf_counter() - start))
    return results
