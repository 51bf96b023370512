"""Command-line front end.

Subcommands: torsion (Betti numbers, torsion by both formulas, Schwarz
partition function, determinant-relation residuals), bf (gauge-fixed
partition functions and homotopy scans), zeta (grid export and closed-form
evaluation), orbits (enumeration and spectrum-file handling), verify (the
acceptance suite).

Configuration comes from a key=value text file (--config) with flags taking
precedence; no environment variables are consulted.  All numbers print with
17 significant digits and runs are deterministic: identical configuration
gives byte-identical standard output (timing goes to stderr).

Exit codes: 0 ok, 2 domain error, 3 parse error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence

import numpy as np

from . import bv, complexes, orbits, verification, zeta
from .errors import ParseError, ZetaBFError
from .orbits import g17

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_PARSE = 3
EXIT_VERIFY = 4


class CLIUsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIUsageError(message)


@dataclass
class RunConfig:
    command: str = ""
    input: Optional[str] = None
    model: str = "cat"
    a_matrix: str = "2,1,1,1"
    theta: float = math.pi
    alpha: float = math.pi / 2
    beta: float = 0.0
    lambda_start: float = 2.0
    lambda_stop: float = 5.0
    lambda_steps: int = 7
    lambda_imag: float = 0.0
    J: int = 40
    sigma: int = 1
    samples: int = 10
    seed: int = 20240801
    closed_form: bool = False
    out: Optional[str] = None
    fmt: str = "csv"
    criteria: Optional[str] = None

    def validate(self):
        if self.lambda_steps < 1:
            raise ParseError(0, "lambda grid must be nonempty")
        if self.J < 1:
            raise ParseError(0, "J must be positive")
        if self.sigma not in (1, -1):
            raise ParseError(0, "sigma must be +1 or -1")
        if self.samples < 2:
            raise ParseError(0, "samples must be >= 2")


# The subcommand comes from the command line only; a config file cannot set it.
_CONFIG_KEYS = {f.name for f in fields(RunConfig)} - {"command"}


def load_config_file(path) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ParseError(lineno, f"expected key=value, got {stripped!r}")
            key, value = (s.strip() for s in stripped.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ParseError(lineno, f"unknown config key {key!r}")
            out[key] = _coerce(lineno, key, value)
    return out


_INT_KEYS = {"lambda_steps", "J", "sigma", "samples", "seed"}
_STR_KEYS = {"input", "model", "a_matrix", "out", "fmt", "criteria"}
_FORMATS = ("csv", "json", "text")
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _coerce(lineno: int, key: str, value: str):
    if key == "fmt" and value not in _FORMATS:
        raise ParseError(lineno, f"fmt must be one of {'/'.join(_FORMATS)}, "
                                 f"got {value!r}")
    if key in _STR_KEYS:
        return value
    if key == "closed_form":
        if value.lower() not in _BOOLS:
            raise ParseError(lineno, f"{key} must be one of 1/0/true/false/yes/no, "
                                     f"got {value!r}")
        return _BOOLS[value.lower()]
    target, kind = (int, "an integer") if key in _INT_KEYS else (float, "a number")
    try:
        return target(value)
    except ValueError:
        raise ParseError(lineno, f"{key} must be {kind}, got {value!r}")


def parse_matrix(text: str):
    try:
        vals = [int(v) for v in text.split(",")]
    except ValueError:
        raise ParseError(0, f"matrix must be four comma-separated integers: {text!r}")
    if len(vals) != 4:
        raise ParseError(0, "matrix must have four entries a11,a12,a21,a22")
    return [[vals[0], vals[1]], [vals[2], vals[3]]]


def _load_model(cfg: RunConfig):
    if cfg.input:
        cc, rep, grams = complexes.read_complex_file(cfg.input)
        return complexes.build_twisted_complex(cc, rep, grams=grams)
    if cfg.model == "circle":
        return complexes.circle_complex(cfg.theta)
    if cfg.model == "torus":
        return complexes.torus_complex(cfg.alpha, cfg.beta)
    if cfg.model in ("cat", "mapping-torus"):
        return complexes.mapping_torus_complex(parse_matrix(cfg.a_matrix), cfg.theta)
    raise ParseError(0, f"unknown model {cfg.model!r}")


def _emit(lines: List[str], cfg: RunConfig):
    text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- commands ---------------------------------------------------------------------


def cmd_torsion(cfg: RunConfig) -> int:
    tc = _load_model(cfg)
    lines = [f"betti {' '.join(str(b) for b in tc.betti_numbers())}"]
    tau = complexes.analytic_torsion(tc, sign=cfg.sigma)
    laplace, coexact = complexes.torsion_routes(tc)
    lines.append(f"torsion {g17(tau)}")
    lines.append(f"torsion_laplacian_route {g17(laplace ** cfg.sigma)}")
    lines.append(f"torsion_coexact_route {g17(coexact ** cfg.sigma)}")
    lines.append(f"torsion_reciprocal {g17(1.0 / tau)}")
    z_sch = complexes.schwarz_partition(tc) ** cfg.sigma
    lines.append(f"schwarz {g17(z_sch)}")
    rep = complexes.det_relations_report(tc)
    lines.append(f"det_relation_1_residual {g17(rep.relation1)}")
    lines.append(f"det_relation_3_residual {g17(rep.relation3)}")
    if rep.relation2 is not None:
        lines.append(f"det_relation_2_residual {g17(rep.relation2)}")
    _emit(lines, cfg)
    return EXIT_OK


def cmd_bf(cfg: RunConfig) -> int:
    tc = _load_model(cfg)
    fs = bv.build_bf_fields(tc)
    tau = complexes.analytic_torsion(tc, sign=cfg.sigma)
    z_metric = bv.partition_function(fs, bv.metric_gauge(fs)) ** cfg.sigma
    hodge = bv.hodge_contraction(tc)
    z_contraction = bv.partition_function(fs, bv.contraction_gauge(fs, hodge)) ** cfg.sigma

    lines = [
        f"torsion {g17(tau)}",
        f"Z_metric {g17(z_metric)}",
        f"Z_contraction {g17(z_contraction)}",
    ]
    if tc.suspension is not None:
        sus = bv.suspension_contraction(tc)
        z_sus = bv.partition_function(fs, bv.contraction_gauge(fs, sus)) ** cfg.sigma
        lines.append(f"Z_reeb_contraction {g17(z_sus)}")

    rng = np.random.default_rng(cfg.seed)
    family = bv.unitary_contraction_family(tc, hodge, rng)
    scan = bv.homotopy_scan(fs, family, samples=cfg.samples)
    if cfg.fmt == "json":
        payload = {
            "torsion": tau, "Z_metric": z_metric, "Z_contraction": z_contraction,
            "scan": [{"t": t, "Z": z, "isotropy_residual": r}
                     for t, z, r in scan.samples],
            "max_relative_deviation": scan.max_relative_deviation,
        }
        lines = [json.dumps(payload, sort_keys=True)]
    else:
        lines.append("scan t Z isotropy_residual")
        for t, z, r in scan.samples:
            lines.append(f"  {g17(t)} {g17(z ** cfg.sigma)} {g17(r)}")
        lines.append(f"max_relative_deviation {g17(scan.max_relative_deviation)}")
    _emit(lines, cfg)
    return EXIT_OK


def cmd_zeta(cfg: RunConfig) -> int:
    aut = orbits.ToralAutomorphism.from_matrix(parse_matrix(cfg.a_matrix))
    lines = []
    if cfg.closed_form:
        zs = zeta.closed_form_suspension(aut, cfg.theta, 0.0)
        value = abs(zs.full) ** (-1)
        lines.append(f"closed_form_abs_zeta0_inverse {g17(value)}")
        lines.append(f"fried_residual {g17(zeta.fried_residual(aut.matrix, cfg.theta, sign=-cfg.sigma))}")
    data = orbits.suspension_orbits(aut, cfg.J)
    lams = [complex(x, cfg.lambda_imag) for x in
            np.linspace(cfg.lambda_start, cfg.lambda_stop, cfg.lambda_steps)]
    rows = zeta.zeta_grid_rows(data, cfg.theta, lams, [0, 1, 2, "full"], cfg.J)
    if cfg.fmt == "json":
        keys = zeta.GRID_HEADER.split(",")
        payload = {"summary": lines,
                   "grid": [dict(zip(keys, r.split(","))) for r in rows]}
        lines = [json.dumps(payload, sort_keys=True)]
    else:
        lines.append(zeta.GRID_HEADER)
        lines.extend(rows)
    _emit(lines, cfg)
    return EXIT_OK


def cmd_orbits(cfg: RunConfig) -> int:
    if cfg.input:
        records = orbits.load_orbit_spectrum(cfg.input).records
        # the summary always goes to stdout; --out receives the merged spectrum
        sys.stdout.write(f"records {len(records)}\n"
                         f"total_count {sum(r.count for r in records)}\n")
        if cfg.out:
            orbits.write_orbit_spectrum(cfg.out, records)
        return EXIT_OK
    aut = orbits.ToralAutomorphism.from_matrix(parse_matrix(cfg.a_matrix))
    records = orbits.enumerate_primitive_orbits(aut, cfg.J)
    if cfg.out:
        orbits.write_orbit_spectrum(cfg.out, records, theta=cfg.theta)
        sys.stdout.write(f"wrote {len(records)} records\n")
    else:
        lines = ["period count length"]
        lines += [f"  {r.period} {r.count} {g17(r.length)}" for r in records]
        _emit(lines, cfg)
    return EXIT_OK


def _criterion_indices(text: Optional[str]) -> Optional[List[int]]:
    """The --criteria subset as indices in 1..len(ALL_CRITERIA); None for all."""
    if not text:
        return None
    count = len(verification.ALL_CRITERIA)
    try:
        indices = [int(x) for x in text.split(",")]
    except ValueError:
        raise ParseError(0, f"criteria must be comma-separated integers, got {text!r}")
    unknown = [i for i in indices if not 1 <= i <= count]
    if unknown:
        raise ParseError(0, f"criteria must lie in 1..{count}, got {unknown}")
    return indices


def cmd_verify(cfg: RunConfig) -> int:
    results = verification.run_all(_criterion_indices(cfg.criteria))
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(f"[{status}] criterion {r.index:2d}: {r.name} -- {r.detail}\n")
        sys.stderr.write(f"criterion {r.index} took {r.seconds:.2f}s\n")
        if not r.passed:
            failed += 1
    sys.stdout.write(f"{len(results) - failed}/{len(results)} criteria passed\n")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


# -- argument plumbing ---------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="zetabf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--input", help="input file (complex or orbit spectrum)")
        p.add_argument("--model", choices=["circle", "torus", "cat", "mapping-torus"])
        p.add_argument("--A", dest="a_matrix", help="integer matrix a11,a12,a21,a22")
        p.add_argument("--theta", type=float, help="holonomy angle")
        p.add_argument("--alpha", type=float, help="torus character angle (first)")
        p.add_argument("--beta", type=float, help="torus character angle (second)")
        p.add_argument("--lambda-start", dest="lambda_start", type=float)
        p.add_argument("--lambda-stop", dest="lambda_stop", type=float)
        p.add_argument("--lambda-steps", dest="lambda_steps", type=int)
        p.add_argument("--lambda-imag", dest="lambda_imag", type=float)
        p.add_argument("--J", dest="J", type=int, help="orbit-sum truncation")
        p.add_argument("--sigma", type=int, choices=[1, -1],
                       help="torsion convention exponent")
        p.add_argument("--samples", type=int, help="homotopy scan samples")
        p.add_argument("--seed", type=int)
        p.add_argument("--closed-form", dest="closed_form", action="store_true",
                       default=None, help="include the lambda=0 closed form")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", dest="fmt", choices=_FORMATS)
        p.add_argument("--criteria", help="comma-separated criterion subset")

    for name in ("torsion", "bf", "zeta", "orbits", "verify"):
        add_common(sub.add_parser(name))
    return parser


_COMMANDS = {
    "torsion": cmd_torsion,
    "bf": cmd_bf,
    "zeta": cmd_zeta,
    "orbits": cmd_orbits,
    "verify": cmd_verify,
}


def make_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            setattr(cfg, key, value)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    cfg.validate()
    return cfg


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = make_config(args)
        return _COMMANDS[cfg.command](cfg)
    except CLIUsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_PARSE
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except FileNotFoundError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except ZetaBFError as exc:
        sys.stderr.write(f"domain error ({type(exc).__name__}): {exc}\n")
        return EXIT_DOMAIN


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
