"""Acceptance suite: one test per criterion, each printed as a pass/fail line.

Tolerances are pinned in zetabf.verification; each test runs one criterion
through ``run_all``, asserts that it passes and prints its one-line summary.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from zetabf import bv, cli, complexes, verification
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


def test_criterion_05_fried_from_orbits():
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


def _lone_complexes(count, rng):
    """``count`` random complexes of criteria 6-8, one lone call each."""
    out = []
    for _ in range(count):
        top, rank = int(rng.integers(2, 6)), int(rng.integers(1, 3))
        out.append(complexes.random_twisted_complex(rng, top_degree=top, max_cells=6,
                                                    rank=rank))
    return out


def test_criteria_6_to_8_keep_their_full_draw(monkeypatch):
    # record each criterion's generator and every Z that criterion 8 takes
    generators, recorded = [], []
    real_rng, real_z = np.random.default_rng, bv.partition_function

    def recording_rng(seed):
        generators.append(real_rng(seed))
        return generators[-1]

    def recording_z(fs, gs):
        z = real_z(fs, gs)
        recorded.append((gs.kind, [float(v) for v in np.atleast_1d(z)]))
        return z

    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    monkeypatch.setattr(bv, "partition_function", recording_z)
    results = verification.run_all([6, 7, 8])
    monkeypatch.undo()
    assert all(r.passed for r in results)
    assert len(generators) == 3

    # criteria 6 and 7: 100 complexes each, drawn one at a time
    for seed, gen in zip((verification.SEED, verification.SEED + 1), generators):
        rng = real_rng(seed)
        _lone_complexes(100, rng)
        assert gen.bit_generator.state == rng.bit_generator.state

    # criterion 8: 20 complexes, then per complex its metric gauge and 5 lone
    # random contractions
    rng = real_rng(verification.SEED + 2)
    taus, lone = [], []
    for tc in _lone_complexes(20, rng):
        fs = bv.build_bf_fields(tc)
        taus.append(complexes.analytic_torsion(tc))
        lone.append(("metric", [bv.partition_function(fs, bv.metric_gauge(fs))]))
        lone.append(("contraction", [
            bv.partition_function(fs, bv.contraction_gauge(fs, bv.random_contraction(tc, rng)))
            for _ in range(5)]))
    assert generators[2].bit_generator.state == rng.bit_generator.state
    kinds = [kind for kind, _ in recorded]
    assert kinds == ["metric", "contraction"] * 20
    assert sum(len(zs) for kind, zs in recorded if kind == "contraction") == 100
    hexes = [[z.hex() for z in zs] for _, zs in recorded]
    assert hexes == [[z.hex() for z in zs] for _, zs in lone]

    def worst(rows):
        return max(abs(z / taus[i // 2] - 1.0) for i, (_, zs) in enumerate(rows) for z in zs)
    assert worst(recorded).hex() == worst(lone).hex()
    assert f"max relative deviation {worst(lone):.3e} " in results[2].detail


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
