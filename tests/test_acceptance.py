"""Acceptance suite: one test per criterion, each printed as a pass/fail line.

Tolerances are pinned in zetabf.verification; each test runs one criterion
through ``run_all``, asserts that it passes and prints its one-line summary.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from zetabf import cli, verification
from zetabf.errors import DegenerateGaugeError


def _run(index):
    [result] = verification.run_all([index])
    assert result.index == index
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.index}: {result.name} -- {result.detail}")
    assert result.passed, result.detail
    return result


def test_criterion_01_lefschetz_counts():
    r = _run(1)
    assert r.seconds < 1.0


def test_criterion_02_per_orbit_identity():
    r = _run(2)
    assert r.seconds < 1.0


def test_criterion_03_decomposition_identity():
    r = _run(3)
    assert r.seconds < 1.0


def test_criterion_04_euler_product_vs_closed_form():
    r = _run(4)
    assert r.seconds < 5.0


def test_criterion_05_mellin_determinant_route():
    r = _run(5)
    assert r.seconds < 10.0


def test_criterion_06_schwarz_equals_torsion():
    r = _run(6)
    assert r.seconds < 30.0


def test_criterion_07_determinant_relations():
    r = _run(7)
    assert r.seconds < 10.0


def test_criterion_08_gauge_independence():
    r = _run(8)
    assert r.seconds < 60.0


def test_criterion_09_lagrangian_homotopy_constancy():
    r = _run(9)
    assert r.seconds < 30.0


def test_criterion_10_bv_identities():
    r = _run(10)
    assert r.seconds < 30.0


def test_criterion_11_discrete_fried_identity():
    r = _run(11)
    assert r.seconds < 10.0


def test_criterion_12_flat_determinant_modes():
    r = _run(12)
    assert r.seconds < 10.0


def test_run_all_turns_a_typed_error_into_a_failure(monkeypatch):
    def passing():
        return "passes", True, "fine"

    def raising():
        raise DegenerateGaugeError(2)

    monkeypatch.setattr(verification, "ALL_CRITERIA", (passing, raising, passing))
    results = verification.run_all()
    assert [(r.index, r.passed) for r in results] == [(1, True), (2, False), (3, True)]
    assert results[1].name == "raising"
    assert results[1].detail.startswith("raised DegenerateGaugeError: ")
    assert all(r.seconds >= 0.0 for r in results)

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["verify"])
    assert code == cli.EXIT_VERIFY
    assert "[FAIL] criterion  2: raising -- raised DegenerateGaugeError" in out.getvalue()
    assert out.getvalue().endswith("2/3 criteria passed\n")
    assert "criterion 2 took" in err.getvalue()
