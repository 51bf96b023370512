"""Benchmark of zetabf: one client in a closed loop over its public API.

    python3 perfbench/run.py --workload {acceptance,rank_twist,zeta_cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up (import, input generation from the seed, oracle
precomputation, one warm-up operation) is timed, then operations run one after
the other for ``--seconds``, each checked against its oracles.  Operation
times are reported at a reference speed (see ``calibrate``), the measured
ones next to them in the report line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` mixes untraced
and traced operations (spans recorded by perfbench/tracing.py) and
reports the per-layer metrics with the tracing overhead, i.e. traced minus
untraced median pass time; the spans are written to
``.perfbench_out/spans-<workload>-seed<N>.jsonl``.

The last stdout line is one JSON object with the keys ``correct`` (no value
differed from its oracle), ``attempted``, ``failed`` (operations with any
failure, errors included) and ``metrics``; the line before it is a JSON
report with the environment, the full end-to-end figures (``fail_ratio``,
failure causes, the tail percentile of ``pass_s``) and, when traced, the
per-layer figures next to the untraced ones.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy loads: with the default of one
# thread per core a pass measures oversubscription rather than the program.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import cmath  # noqa: E402
import collections  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("acceptance", "rank_twist", "zeta_cli")
SETUP_SAMPLES = 3            # this process plus two set-up probes
CHILD_TIMEOUT_S = 150
# The calibration: a fixed mix of interpreted complex arithmetic and LAPACK
# calls, run between operations; CALIBRATION_NOMINAL_S is its time at the
# reference speed (a 2-vCPU x86-64 VM in its slow phase).
CALIBRATION_LOOP = 100_000
CALIBRATION_SVDS = 6
CALIBRATION_NOMINAL_S = 0.04

WRONG_OUTPUT = ("wrong_value:", "stdout_drift:")   # failure causes that make a run incorrect
END_TO_END_UNITS = {"pass_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "min_headroom_decades": "decades"}


def import_package():
    """Import zetabf from this checkout's src/, or exit 2 without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import zetabf
    except ImportError as exc:
        sys.stderr.write(f"cannot import zetabf from {SRC}: {exc}\n")
        sys.exit(2)
    if not Path(zetabf.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.stderr.write(f"zetabf imported from {zetabf.__file__}, not from {SRC}\n")
        sys.exit(2)


def calibrate() -> float:
    """Seconds the calibration takes now.

    A shared machine runs in slow and fast phases of tens of seconds that
    stretch this mix as they stretch an operation (by up to 1.6x), so times
    are reported at the reference speed: multiplied by
    CALIBRATION_NOMINAL_S / calibrate() measured next to them.
    """
    import numpy as np

    matrix = np.random.default_rng(0).normal(size=(120, 120))
    t0 = time.perf_counter()
    total = 0j
    for i in range(CALIBRATION_LOOP):
        total += cmath.exp(-1e-3j * i)
    for _ in range(CALIBRATION_SVDS):
        np.linalg.svd(matrix)
    return time.perf_counter() - t0


class Stopwatch:
    """Wall and CPU seconds of one operation, as measured and at the
    reference speed.

    The operation is timed in segments ended by ``lap``: between operations,
    and where a long operation calls it between its parts.  Each segment is
    scaled by CALIBRATION_NOMINAL_S over the mean of the calibrations just
    before and just after it; the calibrations are not timed.
    """

    def __init__(self):
        self.before = calibrate()

    def start(self):
        self.wall = self.cpu = self.ref_wall = self.ref_cpu = 0.0
        self._t0 = time.perf_counter(), time.process_time()

    def lap(self):
        wall = time.perf_counter() - self._t0[0]
        cpu = time.process_time() - self._t0[1]
        after = calibrate()
        scale = 2 * CALIBRATION_NOMINAL_S / (self.before + after)
        self.wall += wall
        self.cpu += cpu
        self.ref_wall += wall * scale
        self.ref_cpu += cpu * scale
        self.before = after
        self._t0 = time.perf_counter(), time.process_time()


@dataclass
class Phase:
    """Operations run back to back: wall and CPU seconds as measured and at
    the reference speed, and what each found."""

    wall: List[float] = field(default_factory=list)
    cpu: List[float] = field(default_factory=list)
    ref_wall: List[float] = field(default_factory=list)
    ref_cpu: List[float] = field(default_factory=list)
    checks: list = field(default_factory=list)


def run_ops(workload, seconds: float, tracer=None, seed: int = 0) -> Tuple[Phase, Phase]:
    """Run operations back to back for ``seconds``; returns (untraced, traced).

    With a tracer, a seeded coin decides for each operation whether it is
    traced, so both halves see the same machine load and every input of the
    workload's pool; their difference is the tracing overhead.  Installing
    and removing the wrappers is not timed, nor are the calibrations.
    """
    phases = (Phase(), Phase())
    coin = random.Random(seed)
    deadline = time.perf_counter() + seconds
    index = 1
    watch = Stopwatch()
    while True:
        traced = tracer is not None and coin.random() < 0.5
        if traced:
            tracer.op = index
            tracer.install()
        try:
            watch.start()
            chk = workload.run_op(index, watch.lap)
            watch.lap()
        finally:
            if traced:
                tracer.uninstall()
        phase = phases[traced]
        phase.wall.append(watch.wall)
        phase.cpu.append(watch.cpu)
        phase.ref_wall.append(watch.ref_wall)
        phase.ref_cpu.append(watch.ref_cpu)
        phase.checks.append(chk)
        index += 1
        if time.perf_counter() >= deadline and (
                tracer is None or (phases[0].wall and phases[1].wall)):
            return phases


def tail(samples: List[float]):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


def setup_probes(args) -> List[float]:
    """Set-up seconds of fresh processes running the same set-up."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"],
            cwd=str(ROOT), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


# -- environment ------------------------------------------------------------------


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def blas_libraries() -> list:
    """Each OpenBLAS bundled with numpy/scipy: configuration and live thread count."""
    import numpy
    import scipy

    out = []
    for pkg in (numpy, scipy):
        pattern = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                               f"{pkg.__name__}.libs", "lib*openblas*.so*")
        for path in sorted(glob.glob(pattern)):
            info = {"package": pkg.__name__, "library": os.path.basename(path)}
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                for prefix in ("scipy_openblas", "openblas"):
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    if threads is not None and config is not None:
                        threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                        info["threads"] = threads()
                        info["config"] = config().decode()
                        break
                if "threads" in info:
                    break
            out.append(info)
    return out


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "blas": blas_libraries(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client",
    }


# -- metrics ----------------------------------------------------------------------


def end_to_end(phase: Phase, warmup, setup_samples: List[float]) -> dict:
    checks = [warmup] + phase.checks
    failed = sum(1 for c in checks if c.failures)
    # Headroom of each check: the median over its residuals in the run, which
    # holds still from seed to seed where the least of one operation does not
    # (it moves by 0.5 decades with the matrices a seed draws in zeta_cli).
    headrooms = collections.defaultdict(list)
    for c in phase.checks:
        for name, values in c.headrooms.items():
            headrooms[name] += values
    headrooms = {name: statistics.median(v) for name, v in sorted(headrooms.items())}
    # A failed operation often stops early, so it does not count as a fast
    # one; it is counted in fail_ratio instead.  With none passed, all count.
    passed = [i for i, c in enumerate(phase.checks) if not c.failures] \
        or range(len(phase.checks))
    wall = [phase.ref_wall[i] for i in passed]
    return {
        "pass_s": {"median": statistics.median(wall), "tail": tail(wall),
                   "samples": len(wall),
                   "measured_median": statistics.median(phase.wall[i] for i in passed)},
        "cpu_s": statistics.median(phase.ref_cpu[i] for i in passed),
        "cpu_measured_s": statistics.median(phase.cpu[i] for i in passed),
        "speed_scale": sum(phase.ref_wall) / sum(phase.wall),
        "setup_s": {"median": statistics.median(setup_samples), "samples": setup_samples},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_ratio": failed / len(checks),
        "failures_by_cause": dict(collections.Counter(
            cause for c in checks for cause in dict.fromkeys(c.failures))),
        "min_headroom_decades": min(headrooms.values(), default=None),
        "headroom_by_check": headrooms,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_package()
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, str(workdir))
        warmup = workload.run_op(0)
        setup_s = time.perf_counter() - T_START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_samples = [setup_s] + setup_probes(args)

        tracer = tracing.Tracer() if args.trace else None
        untraced, traced = run_ops(workload, args.seconds, tracer, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {"environment": environment(args),
              "end_to_end": end_to_end(untraced, warmup, setup_samples)}
    if args.trace == 0:
        e2e = report["end_to_end"]
        values = {"pass_s": e2e["pass_s"]["median"], "cpu_s": e2e["cpu_s"],
                  "setup_s": e2e["setup_s"]["median"], "peak_rss_mb": e2e["peak_rss_mb"],
                  "min_headroom_decades": e2e["min_headroom_decades"]}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    else:
        scale = sum(traced.ref_wall) / sum(traced.wall)
        metrics = tracer.per_op(len(traced.wall), scale)
        metrics["trace.overhead_s"] = (
            statistics.median(traced.ref_wall) - statistics.median(untraced.ref_wall), "s")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        report["traced"] = {"ops": len(traced.wall), "pass_s": statistics.median(traced.ref_wall),
                            "spans": len(tracer.spans),
                            "spans_file": str(spans_path.relative_to(ROOT))}
        report["per_layer"] = {name: value for name, (value, _) in metrics.items()}

    if any(v is None or not math.isfinite(v) for v, _ in metrics.values()):
        sys.stderr.write(f"a metric could not be measured: {metrics}\n")
        return 3
    all_checks = [warmup] + untraced.checks + traced.checks
    failed = sum(1 for c in all_checks if c.failures)
    # correct: every value produced matched its oracle; an operation that
    # raised or exited non-zero is failed but printed no wrong value
    wrong = any(cause.startswith(WRONG_OUTPUT) for c in all_checks for cause in c.failures)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(all_checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
