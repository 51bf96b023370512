"""The three benchmark workloads and the oracles that check every operation.

A workload's constructor builds its inputs from the workload seed and
precomputes its oracles; ``run_op`` then runs one operation.  An operation
never raises: everything it finds goes into a ``Checks`` record (failure
causes, and the headroom in decades of every residual checked against its
tolerance).  A long operation calls ``lap()`` between its parts, so that the
runner can time it in segments.

Failure causes:
  wrong_value:<check>                 a residual above its tolerance, or a
                                      value different from the exact oracle
  typed_error:<ZetaBFError class>@<step>   a typed error where a value was due
  untyped_exception:<class>@<step>    any other exception
  cli_exit_<code>:<subcommand>        a non-zero CLI exit code
  stdout_drift:<subcommand>           CLI stdout differing from the first pass

Tolerances are the acceptance suite's own (``zetabf.verification``), quoted
where they are used.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from zetabf import bv, cli, complexes, orbits, verification, zeta
from zetabf.errors import ZetaBFError

CAT_MAP = ((2, 1), (1, 1))


@dataclass
class Checks:
    """What one operation found: failure causes, and the headrooms of the
    residuals by check name."""

    failures: List[str] = field(default_factory=list)
    headrooms: Dict[str, List[float]] = field(default_factory=dict)

    def close(self, name: str, residual: float, tol: float):
        """Require residual <= tol and record log10(tol / residual)."""
        residual = float(residual)
        if not residual <= tol:          # NaN fails too
            self.failures.append(f"wrong_value:{name}")
        if residual > 0 and math.isfinite(residual):
            self.headrooms.setdefault(name, []).append(math.log10(tol / residual))

    def rel(self, name: str, got: float, want: float, tol: float):
        self.close(name, abs(got / want - 1.0), tol)

    def equal(self, name: str, got, want):
        if got != want:
            self.failures.append(f"wrong_value:{name}")

    @contextlib.contextmanager
    def step(self, name: str):
        """Run one step; an exception ends the step and is recorded."""
        try:
            yield
        except ZetaBFError as exc:
            self.failures.append(f"typed_error:{type(exc).__name__}@{name}")
        except Exception as exc:   # an untyped exception is a finding, not a crash
            self.failures.append(f"untyped_exception:{type(exc).__name__}@{name}")


class CliRunner:
    """Runs ``cli.main`` in process, capturing stdout and stderr.

    The first stdout of each argument list is kept; a later pass that prints
    anything else counts as drift.
    """

    def __init__(self):
        self.first_stdout: Dict[Tuple[str, ...], str] = {}

    def __call__(self, argv: List[str], chk: Checks) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            chk.failures.append(f"cli_exit_{code}:{argv[0]}")
        text = out.getvalue()
        if self.first_stdout.setdefault(tuple(argv), text) != text:
            chk.failures.append(f"stdout_drift:{argv[0]}")
        return text


def _haar(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _lines(text: str) -> Dict[str, str]:
    """``key value`` stdout lines as a dict (first word -> rest)."""
    out = {}
    for line in text.splitlines():
        key, _, rest = line.strip().partition(" ")
        out.setdefault(key, rest)
    return out


# -- acceptance --------------------------------------------------------------

# Residuals printed by each criterion, with the bound the suite holds them
# to (copied from zetabf.verification; criterion 1 is an exact count).
CRITERION_RESIDUALS = {
    2: ((r"max residual (\S+)", 1e-12),),
    3: ((r"max residual (\S+) at", 1e-12),),
    4: ((r"max \|truncated-closed\| (\S+),", 1e-8),),
    5: ((r"max deviation (\S+)", 1e-8),),
    6: ((r"max relative error (\S+)", 1e-10),),
    7: ((r"max \(1\)/\(3\) (\S+);", 1e-10), (r"max \(2\) (\S+)", 1e-10)),
    8: ((r"max relative deviation (\S+) ", 1e-9),),
    9: ((r"max relative deviation (\S+)", 1e-8),),
    10: ((r"algebra (\S+);", 1e-12), (r"damped integrals (\S+)", 1e-10)),
    11: ((r"max residual (\S+);", 1e-8),),
    12: ((r"max relative error (\S+)", 1e-6),),
}
_CRITERION_LINE = re.compile(r"^\[(PASS|FAIL)\] criterion\s+(\d+): .*? -- (.*)$")


def _no_lap():
    pass


class Acceptance:
    """One operation: a full pass over ALL_CRITERIA, as ``zetabf verify
    --criteria i`` for each criterion in turn.

    The suite draws its own inputs from fixed seeds, so the workload seed
    does not change what this workload computes.
    """

    def __init__(self):
        self.cli = CliRunner()

    def run_op(self, index: int, lap=_no_lap) -> Checks:
        chk = Checks()
        for i in range(1, len(verification.ALL_CRITERIA) + 1):
            with chk.step(f"criterion_{i}"):
                text = self.cli(["verify", "--criteria", str(i)], chk)
                self.check_report(text, chk, [i])
            lap()
        return chk

    @staticmethod
    def check_report(text: str, chk: Checks, indices=None):
        seen = {}
        for line in text.splitlines():
            m = _CRITERION_LINE.match(line)
            if m:
                seen[int(m.group(2))] = (m.group(1), m.group(3))
        for i in indices or range(1, len(verification.ALL_CRITERIA) + 1):
            status, detail = seen.get(i, ("MISSING", ""))
            if status != "PASS":
                if detail.startswith("raised "):   # run_all caught a ZetaBFError
                    error = detail[len("raised "):].split(":")[0]
                    chk.failures.append(f"typed_error:{error}@criterion_{i}")
                else:
                    chk.failures.append(f"wrong_value:criterion_{i}")
                continue
            for pattern, tol in CRITERION_RESIDUALS.get(i, ()):
                m = re.search(pattern, detail)
                if m is None:
                    chk.failures.append(f"wrong_value:criterion_{i}.unparsed")
                    continue
                chk.close(f"criterion_{i}", float(m.group(1)), tol)


# -- rank-r twists -------------------------------------------------------------

RANK_LADDER = (1, 4, 10, 20, 30, 40)   # twist ranks; complex dimension is 8r
POOL = 12                              # seeded ladders, cycled through by the ops
RANDOM_GAUGES = 3
# Every ladder pins one eigenphase of this rung at PROBE_THETA, inside the
# range where the Laplacian route of the torsion drops an eigenvalue (a known
# cut-off defect), so that every operation meets it and fails the same way
# whatever the seed; None turns the pin off.
PROBE_RANK = 4
PROBE_THETA = 1e-5


@dataclass
class TwistProblem:
    rank: int
    unitary: np.ndarray
    gauge_seed: int
    tau_product: float = math.nan           # prod_j tau(theta_j), rank-1 complexes
    zeta_product: float = math.nan          # prod_j |zeta_(theta_j)(0)|^(-1)
    coexact_logdets: Tuple[float, ...] = ()  # sum_j of the rank-1 log det(d_k* d_k)
    oracle_failures: List[str] = field(default_factory=list)


class RankTwist:
    """One operation: every rung of the rank ladder, twisted by a seeded unitary.

    U = Q diag(e^(i theta_j)) Q^H with Q Haar-random and theta_j uniform on
    [0, 2 pi), so the code cannot see the factorisation; one eigenphase of the
    PROBE_RANK rung is pinned at PROBE_THETA.  The oracles are
    exact multiplicativity over the rank-1 twists, tau(U) = prod_j tau(theta_j)
    (and the same for each coexact log determinant), and Fried's
    tau(U) = prod_j |zeta_(theta_j)(0)|^(-1).  If the package cannot produce
    a rank-1 value, every operation on that ladder fails with that cause.
    """

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.cell_complex = complexes.mapping_torus_cell_complex(CAT_MAP)
        aut = orbits.ToralAutomorphism.from_matrix(CAT_MAP)
        self.pool = []
        for _ in range(POOL):
            ladder = []
            for r in RANK_LADDER:
                thetas = rng.uniform(0.0, 2 * math.pi, size=r)
                if r == PROBE_RANK:
                    thetas[0] = PROBE_THETA
                q = _haar(rng, r)
                p = TwistProblem(r, (q * np.exp(1j * thetas)) @ q.conj().T,
                                 int(rng.integers(2 ** 63)))
                oracle = Checks()
                with oracle.step("rank_1_oracle"):
                    self.rank_one_oracles(p, aut, thetas)
                p.oracle_failures = oracle.failures
                ladder.append(p)
            self.pool.append(ladder)

    @staticmethod
    def rank_one_oracles(p: TwistProblem, aut, thetas):
        log_tau = log_zeta = 0.0
        logdets = np.zeros(3)
        for t in thetas:
            rank_one = complexes.mapping_torus_complex(CAT_MAP, t)
            log_tau += math.log(complexes.analytic_torsion(rank_one))
            logdets += complexes.det_relations_report(rank_one).coexact_logdets
            log_zeta -= math.log(abs(zeta.zeta_value_at_zero(aut, t)))
        p.tau_product, p.zeta_product = math.exp(log_tau), math.exp(log_zeta)
        p.coexact_logdets = tuple(logdets)

    def run_op(self, index: int, lap=_no_lap) -> Checks:
        chk = Checks()
        for p in self.pool[index % POOL]:
            chk.failures += p.oracle_failures
            with chk.step(f"rank_{p.rank}"):
                self.check_problem(p, chk)
        return chk

    def check_problem(self, p: TwistProblem, chk: Checks):
        r = p.rank
        eye = np.eye(r)
        rep = complexes.UnitaryRep(r, {"a": eye, "b": eye, "t": p.unitary})
        tc = complexes.build_twisted_complex(self.cell_complex, rep)

        chk.equal("betti", tc.betti_numbers(), (0, 0, 0, 0))

        # analytic_torsion itself holds the two routes of torsion_routes to
        # TORSION_XCHECK_TOL and raises otherwise
        tau = complexes.analytic_torsion(tc)
        complexes.torsion_routes(tc)
        chk.rel("schwarz", complexes.schwarz_partition(tc), tau, 1e-10)   # criterion 6
        logdets = complexes.det_relations_report(tc).coexact_logdets
        if not p.oracle_failures:
            chk.rel("multiplicativity", tau, p.tau_product, 1e-10)
            chk.rel("fried", tau, p.zeta_product, 1e-8)                   # criterion 11
            for k, (got, want) in enumerate(zip(logdets, p.coexact_logdets)):
                chk.close(f"coexact_logdet_{k}", abs(got - want) / max(1.0, abs(want)),
                          complexes.TORSION_XCHECK_TOL)

        fs = bv.build_bf_fields(tc)                                       # criterion 8
        chk.rel("z_metric", bv.partition_function(fs, bv.metric_gauge(fs)), tau, 1e-9)
        hodge = bv.hodge_contraction(tc)
        chk.rel("z_hodge", bv.partition_function(fs, bv.contraction_gauge(fs, hodge)),
                tau, 1e-9)
        gauge_rng = np.random.default_rng(p.gauge_seed)
        for _ in range(RANDOM_GAUGES):
            c = bv.random_contraction(tc, gauge_rng)
            chk.rel("z_random_contraction",
                    bv.partition_function(fs, bv.contraction_gauge(fs, c)), tau, 1e-9)


# -- zeta side and command line ------------------------------------------------

# Hyperbolic elements of GL(2,Z) with small entries, both determinants.
MATRIX_POOL = (
    (2, 1, 1, 1), (3, 1, 2, 1), (4, 1, 3, 1), (3, 2, 1, 1), (2, 3, 1, 2),
    (5, 2, 2, 1), (3, 1, 1, 0), (2, 1, 3, 1), (4, 1, 1, 0), (1, 2, 2, 3),
)
ZETA_POOL = 8                 # seeded configurations, cycled through by the ops
FLOWS = 3                     # matrices of the grid command per configuration
LAMBDA_GRID = (2.0, 5.0, 21)  # README zeta grid, three times as fine
GRID_J = 64
# The ingested spectrum: every matrix of the pool at INGEST_ROOFS_PER_MATRIX
# roofs, periods <= INGEST_PERIODS, evaluated at the package's default J, as
# in the ingest use case; INGEST_DUPLICATES of those spectra are written a
# second time, so load_orbit_spectrum has exact duplicates to merge.
INGEST_PERIODS = 40
INGEST_J = 40
INGEST_ROOFS_PER_MATRIX = 3
INGEST_DUPLICATES = 6
INGEST_LAMBDAS = (2.0, 3.5, 5.0)
ROOFS = (1.0, 1.6)            # roof range of the ingested flows
PI_ARG = "3.141592653589793"
ROUNDOFF_FLOOR = 1e-13        # criterion 4's floor for the 40-term sums


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def primitive_counts(matrix, periods: int) -> List[int]:
    """Primitive orbit counts N_1..N_P by Moebius inversion of |tr A^j - 1 - det^j|.

    Written here from the trace recurrence, apart from zetabf.orbits.
    """
    a, b, c, d = matrix
    tr, det = a + d, a * d - b * c
    traces = [2, tr]
    for _ in range(periods - 1):
        traces.append(tr * traces[-1] - det * traces[-2])
    fixed = [abs(1 - traces[j] + det ** j) for j in range(periods + 1)]
    return [sum(_mobius(j // e) * fixed[e] for e in range(1, j + 1) if j % e == 0) // j
            for j in range(1, periods + 1)]


def suspension_tail(aut: orbits.ToralAutomorphism, lam: complex, k, periods: int) -> float:
    """Bound on every orbit-sum term of total winding > ``periods``.

    Same estimate as the suspension certificate of zetabf.zeta (|tr Lambda^1|
    <= 2 mu^m, orbit count <= 4 mu^m), used here for the periods a truncated
    spectrum file leaves out.
    """
    mu = abs(aut.expanding_eigenvalue)
    q = math.exp(-lam.real * aut.roof)
    ratio, prefactor = {"full": (q * mu, 4.0), 1: (q * mu, 2.0)}.get(k, (q, 1.0))
    return prefactor * ratio ** (periods + 1) / ((periods + 1) * (1.0 - ratio))


def closed_log_zeta(aut, theta: float, lam: complex, k) -> complex:
    """The closed-form oracle of the suite, with log zeta = L1 - L0 - L2."""
    if k == "full":
        return (verification.closed_zeta_oracle(aut, theta, lam, 1)
                - verification.closed_zeta_oracle(aut, theta, lam, 0)
                - verification.closed_zeta_oracle(aut, theta, lam, 2))
    return verification.closed_zeta_oracle(aut, theta, lam, k)


@dataclass
class Flow:
    """One grid command: a matrix (roof 1, as the CLI builds it) and a twist."""

    matrix: Tuple[int, int, int, int]
    theta: float

    @property
    def a_arg(self) -> str:
        return ",".join(str(x) for x in self.matrix)

    @property
    def aut(self) -> orbits.ToralAutomorphism:
        return orbits.ToralAutomorphism(*self.matrix)


class ZetaConfig:
    """Seeded inputs of one zeta_cli operation, with their oracles."""

    def __init__(self, rng: np.random.Generator, lams, spectrum_path: str):
        picks = rng.choice(len(MATRIX_POOL), size=FLOWS, replace=False)
        self.flows = [Flow(MATRIX_POOL[i], float(rng.uniform(0.0, 2 * math.pi)))
                      for i in picks]
        self.milnor = [verification.milnor_mapping_torus_torsion(f.aut.matrix, f.theta)
                       for f in self.flows]
        self.grid_oracle = [{(lam, k): closed_log_zeta(f.aut, f.theta, lam, k)
                             for lam in lams for k in (0, 1, 2, "full")}
                            for f in self.flows]

        # Ingested flows: every matrix of the pool at each roof index, each
        # with a seeded roof inside a bin of its own, so the roofs (and the
        # records) of distinct flows differ while the work stays the same
        # from seed to seed.
        n = len(MATRIX_POOL) * INGEST_ROOFS_PER_MATRIX
        lo, hi = ROOFS
        flows = [orbits.ToralAutomorphism(
                     *MATRIX_POOL[f % len(MATRIX_POOL)],
                     roof=lo + (hi - lo) * (f + float(rng.uniform())) / n)
                 for f in range(n)]
        repeats = rng.choice(n, size=INGEST_DUPLICATES, replace=False)
        self.spectra = flows + [flows[i] for i in sorted(repeats)]
        self.ingest_theta = float(rng.uniform(0.0, 2 * math.pi))
        self.bump = zeta.BumpSpec(center=float(rng.uniform(2.0, 6.0)),
                                  width=float(rng.uniform(0.1, 0.3)))
        self.spectrum_path = spectrum_path

        counts = [primitive_counts(m, INGEST_PERIODS) for m in MATRIX_POOL]
        per_flow = [counts[f % len(MATRIX_POOL)] for f in range(n)]
        self.ingest_records = sum(sum(1 for c in cs if c > 0) for cs in per_flow)
        self.ingest_total = sum(sum(per_flow[f]) for f in [*range(n), *repeats])
        # Every term the file leaves out (periods > INGEST_PERIODS, or
        # repetitions > INGEST_J >= INGEST_PERIODS) has total winding above
        # INGEST_PERIODS, so suspension_tail bounds it.
        self.ingest_oracle = {
            (lam, k): (sum(closed_log_zeta(aut, self.ingest_theta, lam, k)
                           for aut in self.spectra),
                       sum(suspension_tail(aut, lam, k, INGEST_PERIODS)
                           for aut in self.spectra))
            for lam in INGEST_LAMBDAS for k in (0, 1, 2, "full")}
        suspensions = [orbits.suspension_orbits(aut, INGEST_PERIODS) for aut in self.spectra]
        self.trace_oracle = [sum(zeta.flat_trace_pairing(data, self.ingest_theta, k, self.bump)
                                 for data in suspensions)
                             for k in (0, 1, 2)]


class ZetaCli:
    """One operation: the zeta grid command, the Mellin route on the same grid,
    an orbit-spectrum round trip, and the README torsion and bf anchors.

    Operations cycle through a pool of seeded configurations, so each CLI
    command recurs and its stdout is compared with its first run.
    """

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        start, stop, steps = LAMBDA_GRID
        self.lams = [complex(x, 0.0) for x in np.linspace(start, stop, steps)]
        self.grid_args = ["--lambda-start", repr(start), "--lambda-stop", repr(stop),
                          "--lambda-steps", str(steps), "--J", str(GRID_J)]
        self.pool = [ZetaConfig(rng, self.lams, os.path.join(workdir, f"spectrum-{i}.txt"))
                     for i in range(ZETA_POOL)]
        self.cli = CliRunner()

    def run_op(self, index: int, lap=_no_lap) -> Checks:
        chk = Checks()
        cfg = self.pool[index % ZETA_POOL]
        for i, flow in enumerate(cfg.flows):
            rows = {}
            with chk.step(f"zeta_cli_{i}"):
                rows = self.zeta_command(cfg, i, chk)
            with chk.step(f"mellin_{i}"):
                self.mellin_route(flow, rows, chk)
        lap()
        self.ingest(cfg, chk)
        lap()
        with chk.step("anchors"):
            self.anchors(chk)
        return chk

    def zeta_command(self, cfg: ZetaConfig, i: int, chk: Checks) -> dict:
        flow = cfg.flows[i]
        text = self.cli(["zeta", "--A", flow.a_arg, "--theta", repr(flow.theta),
                         "--closed-form", *self.grid_args], chk)
        head = _lines(text)
        chk.rel("closed_form_vs_milnor",
                float(head["closed_form_abs_zeta0_inverse"]) * cfg.milnor[i], 1.0, 1e-8)
        chk.close("fried_residual", float(head["fried_residual"]), 1e-8)   # criterion 11
        rows = {}
        for line in text.splitlines():
            f = line.split(",")
            if len(f) != 8 or f[0] == "re_lambda":
                continue
            if f[7] != "ok":
                chk.failures.append(f"wrong_value:grid_row_{f[7]}")
                continue
            lam = complex(float(f[0]), float(f[1]))
            k = f[2] if f[2] == "full" else int(f[2])
            value = complex(float(f[3]), float(f[4]))
            rows[(lam, k)] = value
            # criterion 4: inside the row's own truncation certificate
            chk.close("grid_vs_closed_form", abs(value - cfg.grid_oracle[i][(lam, k)]),
                      float(f[5]) + ROUNDOFF_FLOOR)
        chk.equal("grid_rows", len(rows), 4 * len(self.lams))
        return rows

    def mellin_route(self, flow: Flow, rows: dict, chk: Checks):
        data = orbits.suspension_orbits(flow.aut, GRID_J)
        for lam in self.lams:
            chk.close("decomposition",                                    # criterion 3
                      zeta.decomposition_residual(data, flow.theta, lam, J=GRID_J), 1e-12)
            for k in (0, 1, 2):
                mellin = zeta.mellin_log_zeta(data, flow.theta, lam, k, J=GRID_J)
                if (lam, k) in rows:     # a missing row already failed the grid step
                    chk.close("mellin_vs_direct", abs(mellin - rows[(lam, k)]), 1e-8)  # crit. 5

    def ingest(self, cfg: ZetaConfig, chk: Checks):
        """Write, read back and evaluate the ingested spectrum.

        Each evaluation is a step of its own, so one that raises is counted
        and the others still run.
        """
        data = None
        with chk.step("ingest_file"):
            records = []
            for aut in cfg.spectra:
                records += orbits.enumerate_primitive_orbits(aut, INGEST_PERIODS)
            orbits.write_orbit_spectrum(cfg.spectrum_path, records, theta=cfg.ingest_theta)
            head = _lines(self.cli(["orbits", "--input", cfg.spectrum_path], chk))
            chk.equal("ingest_records", int(head["records"]), cfg.ingest_records)
            chk.equal("ingest_total_count", int(head["total_count"]), cfg.ingest_total)
            data = orbits.load_orbit_spectrum(cfg.spectrum_path)
            chk.equal("ingest_loaded_records", len(data.records), cfg.ingest_records)
        if data is None:
            return
        theta = cfg.ingest_theta
        for lam in INGEST_LAMBDAS:
            lam = complex(lam, 0.0)
            for k in (0, 1, 2, "full"):
                ev = None
                with chk.step(f"ingest_log_zeta_{k}"):
                    ev = (zeta.log_zeta_full(data, theta, lam, INGEST_J) if k == "full"
                          else zeta.log_zeta_k(data, theta, lam, k, INGEST_J))
                    want, omitted = cfg.ingest_oracle[(lam.real, k)]
                    # the file's own certificate plus the bound on what it leaves out
                    chk.close("ingest_vs_closed_form", abs(ev.value - want),
                              ev.truncation_error_bound + omitted + ROUNDOFF_FLOOR)
                if k == "full":
                    continue
                with chk.step(f"ingest_mellin_{k}"):
                    mellin = zeta.mellin_log_zeta(data, theta, lam, k, INGEST_J)
                    if ev is not None:
                        chk.close("ingest_mellin_vs_direct", abs(mellin - ev.value), 1e-8)
        with chk.step("ingest_flat_trace"):
            for k in (0, 1, 2):
                got = zeta.flat_trace_pairing(data, theta, k, cfg.bump)
                want = cfg.trace_oracle[k]
                chk.close("flat_trace_union", abs(got - want) / max(abs(want), 1e-300), 1e-12)

    def anchors(self, chk: Checks):
        circle = _lines(self.cli(["torsion", "--model", "circle", "--theta", PI_ARG], chk))
        tau = float(circle["torsion"])
        chk.close("circle_torsion", abs(tau - 2.0), 1e-12)
        chk.rel("circle_schwarz", float(circle["schwarz"]), tau, 1e-10)

        cat = _lines(self.cli(["torsion", "--model", "cat", "--theta", PI_ARG], chk))
        chk.close("anchor_torsion", abs(float(cat["torsion"]) - 0.8), 1e-12)
        chk.rel("anchor_schwarz", float(cat["schwarz"]), 0.8, 1e-10)
        for key in ("det_relation_1_residual", "det_relation_2_residual",
                    "det_relation_3_residual"):
            chk.close(key, float(cat[key]), 1e-10)

        text = self.cli(["bf", "--model", "cat", "--theta", PI_ARG, "--samples", "10"], chk)
        bf = _lines(text)
        tau = float(bf["torsion"])
        chk.close("anchor_bf_torsion", abs(tau - 0.8), 1e-12)
        for key in ("Z_metric", "Z_contraction", "Z_reeb_contraction"):
            chk.rel(key, float(bf[key]), tau, 1e-9)                # criterion 8
        chk.close("bf_scan_deviation", float(bf["max_relative_deviation"]), 1e-8)  # crit. 9
        scan = [line.split() for line in text.splitlines() if line.startswith("  ")]
        chk.equal("bf_scan_samples", len(scan), 10)
        for _, _, isotropy in scan:
            chk.close("bf_scan_isotropy", float(isotropy), bv.ISOTROPY_TOL)


def make(name: str, seed: int, workdir: str):
    if name == "acceptance":
        return Acceptance()
    if name == "rank_twist":
        return RankTwist(seed)
    if name == "zeta_cli":
        return ZetaCli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
