"""Self-test of the benchmark: every workload end to end, every failure path.

    python3 perfbench/selftest.py

1. BENCHMARK.json names exactly the metrics run.py and tracing.py produce.
2. Each workload runs once through run.py, untraced and traced, for one
   second: the last line has exactly the keys correct/attempted/failed/metrics,
   every metric of BENCHMARK.json is printed with its unit and a finite value,
   no value was wrong, every failure has a known defect as its cause, and the
   report line carries all six end-to-end figures (fail_ratio included) and
   the environment of the run.
3. Faults are injected in process, one per oracle and failure kind; each
   must come back as a failure with its cause, never hidden.
4. run.py, copied into a directory holding only BENCHMARK.json and
   perfbench/, must exit non-zero without printing a result.

Exits 1 if any expectation fails.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

PROBLEMS = []
# Failure causes of known package defects, which the full-size zeta_cli and
# rank_twist workloads report on every operation, so that the share of failed
# operations is the same on every run: 0 on acceptance, 1 on those two.
KNOWN_DEFECTS = ("untyped_exception:OverflowError@ingest_", "typed_error:ZetaBFError@rank_")
FAILS_EVERY_OP = {"zeta_cli", "rank_twist"}


def expect(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        PROBLEMS.append(what)


def expect_causes(chk, causes, what):
    missing = [c for c in causes if c not in chk.failures]
    expect(not missing, f"{what}: reports {causes} (got {sorted(set(chk.failures))})")


@contextlib.contextmanager
def patched(owner, attr, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def check_declared_metrics(spec):
    declared = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    expect(declared == set(tracing.per_layer_names()),
           "BENCHMARK.json per_layer matches tracing.per_layer_names()")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(declared == run.END_TO_END_UNITS,
           "BENCHMARK.json end_to_end matches run.END_TO_END_UNITS")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expect(bounds["setup_s"] == max(bounds.values()), "setup_s has the largest bound")


def check_runs(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                cwd=str(ROOT), capture_output=True, text=True, timeout=170)
            what = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{what} exits 0")
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: last line has exactly the contract's keys")
            causes = json.loads(lines[-2])["report"]["end_to_end"]["failures_by_cause"]
            expect(result["correct"] is True and result["attempted"] >= 2
                   and (result["failed"] == 0) == (not causes)
                   and all(c.startswith(KNOWN_DEFECTS) for c in causes),
                   f"{what}: no wrong value, failures only from known defects ({causes})")
            expect(result["failed"] == (result["attempted"] if workload in FAILS_EVERY_OP
                                        else 0),
                   f"{what}: {result['failed']} of {result['attempted']} operations failed")
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{what}: every {group} metric printed with its unit")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in result["metrics"].values()),
                   f"{what}: every value is a finite number")
            e2e = report["end_to_end"]
            expect(set(run.END_TO_END_UNITS) | {"fail_ratio"} <= set(e2e),
                   f"{what}: report has all six end-to-end figures")
            env = report["environment"]
            expect(env["blas_threads"] == 1 and all(b.get("threads") == 1 for b in env["blas"])
                   and {"commit", "python", "numpy", "scipy", "nproc", "seed"} <= set(env),
                   f"{what}: report records threads, versions, commit, nproc and seed")
            if trace:
                m = result["metrics"]
                counts = [m[n]["value"] for n, u in tracing.per_layer_names() if u == "count"]
                expect(all(float(c).is_integer() for c in counts),
                       f"{what}: per-operation call counts are whole numbers")
                if workload == "acceptance":
                    expect(m["bv.BFFieldSpace.omega.calls"]["value"] > 0
                           and m["kernel.expm.calls"]["value"] > 0,
                           f"{what}: omega and expm calls are counted")


def check_fault_paths(workdir: Path):
    import workloads
    from zetabf import bv, cli, complexes, orbits, verification, zeta
    from zetabf.errors import DegenerateGaugeError

    # Checks itself
    chk = workloads.Checks()
    chk.close("nan", float("nan"), 1.0)
    chk.close("over", 2.0, 1.0)
    expect_causes(chk, ["wrong_value:nan", "wrong_value:over"], "Checks.close")
    expect(chk.headrooms["over"] == [math.log10(0.5)] and "nan" not in chk.headrooms,
           "a residual over its bound gives negative headroom; NaN gives none")

    # acceptance: one real verify pass, then its report with faults written in
    runner = workloads.CliRunner()
    chk = workloads.Checks()
    text = runner(["verify"], chk)
    workloads.Acceptance.check_report(text, chk)
    expect(not chk.failures and "criterion_12" in chk.headrooms,
           f"acceptance report of a real pass is clean (got {chk.failures})")
    lines = text.splitlines()
    c12 = next(i for i, l in enumerate(lines) if "criterion 12:" in l)
    lines[c12] = lines[c12].rsplit(" ", 1)[0] + " 2.000e-06"
    c6 = next(i for i, l in enumerate(lines) if "criterion  6:" in l)
    lines[c6] = lines[c6].replace("[PASS]", "[FAIL]")
    c8 = next(i for i, l in enumerate(lines) if "criterion  8:" in l)
    lines[c8] = "[FAIL] criterion  8: x -- raised DegenerateGaugeError: degree 1"
    del lines[next(i for i, l in enumerate(lines) if "criterion  3:" in l)]
    chk = workloads.Checks()
    workloads.Acceptance.check_report("\n".join(lines), chk)
    expect_causes(chk, ["wrong_value:criterion_12", "wrong_value:criterion_6",
                        "typed_error:DegenerateGaugeError@criterion_8",
                        "wrong_value:criterion_3"], "acceptance report faults")

    def broken_criterion():
        raise ValueError("injected")
    with patched(verification, "ALL_CRITERIA", (broken_criterion,)):
        chk = workloads.Acceptance().run_op(1)
    expect_causes(chk, ["untyped_exception:ValueError@criterion_1"], "untyped error in a criterion")

    # CLI exit codes and stdout drift
    chk = workloads.Checks()
    runner(["torsion", "--model", "circle", "--theta", "0"], chk)
    expect_causes(chk, ["cli_exit_2:torsion"], "non-acyclic CLI input")
    chk = workloads.Checks()
    with patched(cli, "g17", lambda x: format(float(x), ".12g")):
        runner(["torsion", "--model", "circle", "--theta", "0.5"], workloads.Checks())
    runner(["torsion", "--model", "circle", "--theta", "0.5"], chk)
    expect_causes(chk, ["stdout_drift:torsion"], "CLI stdout drift")

    # rank_twist, on a small ladder
    # with the eigenphase pin on, the known cut-off defect fails every operation
    with patched(workloads, "RANK_LADDER", (1, 4)), patched(workloads, "POOL", 1):
        chk = workloads.RankTwist(5).run_op(0)
    expect_causes(chk, ["typed_error:ZetaBFError@rank_1_oracle",
                        "typed_error:ZetaBFError@rank_4"],
                  "known cut-off defect at a pinned eigenphase is counted")
    # and without it, an injected fault is the only failure
    with patched(workloads, "RANK_LADDER", (1, 4)), patched(workloads, "POOL", 1), \
            patched(workloads, "PROBE_RANK", None):
        twist = workloads.RankTwist(5)
        chk = twist.run_op(0)
        expect(not chk.failures, f"rank_twist operation is clean (got {chk.failures})")
        real_tau = complexes.analytic_torsion
        with patched(complexes, "analytic_torsion", lambda tc: real_tau(tc) * (1 + 1e-6)):
            chk = twist.run_op(0)
        expect_causes(chk, ["wrong_value:multiplicativity", "wrong_value:fried"],
                      "rank_twist wrong torsion")
        real_sch = complexes.schwarz_partition
        with patched(complexes, "schwarz_partition", lambda tc: real_sch(tc) * (1 + 1e-9)):
            chk = twist.run_op(0)
        expect_causes(chk, ["wrong_value:schwarz"], "rank_twist wrong Schwarz")

        def degenerate(fs, gs):
            raise DegenerateGaugeError(0)
        with patched(bv, "partition_function", degenerate):
            chk = twist.run_op(0)
        expect_causes(chk, ["typed_error:DegenerateGaugeError@rank_1"],
                      "rank_twist typed error")
        real_z = bv.partition_function
        with patched(bv, "partition_function", lambda fs, gs: real_z(fs, gs) * (1 + 1e-8)):
            chk = twist.run_op(0)
        expect_causes(chk, ["wrong_value:z_metric", "wrong_value:z_hodge",
                            "wrong_value:z_random_contraction"], "rank_twist wrong Z")
        real_rep = complexes.det_relations_report

        def shifted_report(tc):
            rep = real_rep(tc)
            rep.coexact_logdets = tuple(x + 1e-6 for x in rep.coexact_logdets)
            return rep
        with patched(complexes, "det_relations_report", shifted_report):
            chk = twist.run_op(0)
        expect_causes(chk, ["wrong_value:coexact_logdet_0"], "rank_twist wrong log det")

    # zeta_cli, on one small configuration whose ingested spectrum stops
    # short of the known overflow (checked below), so that an injected fault
    # is the only failure
    with patched(workloads, "ZETA_POOL", 1), patched(workloads, "FLOWS", 1), \
            patched(workloads, "LAMBDA_GRID", (2.0, 5.0, 3)), \
            patched(workloads, "INGEST_PERIODS", 12), patched(workloads, "INGEST_J", 12), \
            patched(workloads, "INGEST_ROOFS_PER_MATRIX", 1), \
            patched(workloads, "INGEST_DUPLICATES", 2):
        zc = workloads.ZetaCli(5, str(workdir))
        chk = zc.run_op(0)
        expect(not chk.failures, f"zeta_cli operation is clean (got {chk.failures})")
        real_mellin = zeta.mellin_log_zeta
        with patched(zeta, "mellin_log_zeta", lambda *a, **k: real_mellin(*a, **k) + 1e-6):
            chk = zc.run_op(0)
        expect_causes(chk, ["wrong_value:mellin_vs_direct", "wrong_value:ingest_mellin_vs_direct"],
                      "zeta_cli wrong Mellin route")
        real_k = zeta.log_zeta_k

        def off_k(*a, **k):
            ev = real_k(*a, **k)
            return zeta.ZetaEvaluation(ev.lam, ev.k, ev.value + 1e-3, ev.J,
                                       ev.truncation_error_bound)
        with patched(zeta, "log_zeta_k", off_k):
            chk = zc.run_op(0)
        expect_causes(chk, ["wrong_value:grid_vs_closed_form", "wrong_value:ingest_vs_closed_form",
                            "stdout_drift:zeta"], "zeta_cli wrong log zeta_k")
        real_pair = zeta.flat_trace_pairing
        with patched(zeta, "flat_trace_pairing", lambda *a: real_pair(*a) * (1 + 1e-9)):
            chk = zc.run_op(0)
        expect_causes(chk, ["wrong_value:flat_trace_union"], "zeta_cli wrong flat trace")
        real_load = orbits.load_orbit_spectrum
        with patched(orbits, "load_orbit_spectrum",
                     lambda path: orbits.OrbitData(real_load(path).records[:-1])):
            chk = zc.run_op(0)
        expect_causes(chk, ["wrong_value:ingest_records", "wrong_value:ingest_loaded_records"],
                      "zeta_cli lost spectrum record")
        real_flat = zeta.decomposition_residual
        with patched(zeta, "decomposition_residual", lambda *a, **k: real_flat(*a, **k) + 1e-9):
            chk = zc.run_op(0)
        expect_causes(chk, ["wrong_value:decomposition"], "zeta_cli decomposition residual")

    # The known defect stays visible: log_zeta_k overflows on a long ingested
    # spectrum (|eig_expanding|^J beyond float range) with a bare OverflowError.
    path = workdir / "long.txt"
    orbits.write_orbit_spectrum(
        path, orbits.enumerate_primitive_orbits(orbits.ToralAutomorphism(2, 1, 1, 1), 40),
        theta=1.0)
    chk = workloads.Checks()
    with chk.step("long_ingest"):
        zeta.log_zeta_k(orbits.load_orbit_spectrum(path), 1.0, 3.0, 1, J=40)
    expect_causes(chk, ["untyped_exception:OverflowError@long_ingest"],
                  "known OverflowError on long ingested spectra is counted")


def check_bare_directory(workdir: Path):
    bare = workdir / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zeta_cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(bare), capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        check_declared_metrics(spec)
        check_fault_paths(workdir)
        check_bare_directory(workdir)
        check_runs(spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(PROBLEMS)} problem(s)" if PROBLEMS else "self-test passed")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
