"""Command-line front end.

Subcommands: torsion (Betti numbers, torsion by both formulas, Schwarz
partition function, determinant-relation residuals), bf (gauge-fixed
partition functions and homotopy scans), zeta (grid export and closed-form
evaluation), orbits (enumeration and spectrum-file handling), verify (the
acceptance suite).

Every option is one row of ``OPTIONS``: its flag, its default and one parse
function that converts and checks a value.  argparse applies that function to
the flag and ``load_config_file`` to the option's line in a key=value file
(--config), so both meet the same checks; flags take precedence over the file
and no environment variables are consulted.  A subcommand accepts, as flags
and as config keys, only the options ``_COMMANDS`` declares it reads; with
--input none of those the input file replaces (``_REPLACED_BY_INPUT``), and
without it no model option the chosen --model ignores (``_MODELS``, which
also builds each model).
Numbers print with 17 significant digits; identical configuration gives
byte-identical standard output (timing goes to stderr).

Exit codes: 0 ok, 2 domain error, 3 parse error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

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


# -- options --------------------------------------------------------------------
# A parse function takes the text of a flag or config value and returns the
# checked value, or raises argparse.ArgumentTypeError saying what it must be.


def _number(kind, minimum=None):
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be {'an integer' if kind is int else 'a number'}, got {text!r}")
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if minimum is not None and value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def _choice(allowed, convert=str):
    def parse(text):
        value = convert(text)
        if value not in allowed:
            raise argparse.ArgumentTypeError(
                f"must be one of {'/'.join(map(str, allowed))}, got {text!r}")
        return value
    return parse


_SWITCH = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _switch(text):
    """An on/off config value; on the command line the bare flag means on."""
    if text.lower() not in _SWITCH:
        raise argparse.ArgumentTypeError(
            f"must be one of 1/0/true/false/yes/no, got {text!r}")
    return _SWITCH[text.lower()]


def _matrix(text):
    try:
        a11, a12, a21, a22 = (int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be four comma-separated integers a11,a12,a21,a22, got {text!r}")
    return ((a11, a12), (a21, a22))


def _criteria(text):
    """Indices in 1..len(ALL_CRITERIA); None, for all of them, on empty text."""
    if not text:
        return None
    count = len(verification.ALL_CRITERIA)
    index = _choice(range(1, count + 1), _number(int))
    try:
        return tuple(index(x) for x in text.split(","))
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated indices in 1..{count}, got {text!r}")


# Each --model: (the function building its complex from the configuration,
# the model options it reads).  Without --input, giving another model option
# is a usage error, since the model would ignore it.
_MAPPING_TORUS = (lambda cfg: complexes.mapping_torus_complex(cfg.a_matrix, cfg.theta),
                  ("a_matrix", "theta"))
_MODELS = {
    "circle": (lambda cfg: complexes.circle_complex(cfg.theta), ("theta",)),
    "torus": (lambda cfg: complexes.torus_complex(cfg.alpha, cfg.beta), ("alpha", "beta")),
    "cat": _MAPPING_TORUS,
    "mapping-torus": _MAPPING_TORUS,
}


class Option(NamedTuple):
    """One option: its flag, its default and the function parsing its text."""
    flag: str
    default: object
    parse: Callable[[str], object]
    help: Optional[str] = None


# Keyed by config key, which is also the attribute of the parsed configuration.
# The subcommand and --config are not options: a config file cannot set them.
OPTIONS = {
    "input": Option("--input", None, str, "input file (complex or orbit spectrum)"),
    "model": Option("--model", "cat", _choice(tuple(_MODELS)),
                    "circle, torus, cat or mapping-torus"),
    "a_matrix": Option("--A", ((2, 1), (1, 1)), _matrix,
                       "integer matrix a11,a12,a21,a22"),
    "theta": Option("--theta", math.pi, _number(float), "holonomy angle"),
    "alpha": Option("--alpha", math.pi / 2, _number(float),
                    "torus character angle (first)"),
    "beta": Option("--beta", 0.0, _number(float), "torus character angle (second)"),
    "lambda_start": Option("--lambda-start", 2.0, _number(float)),
    "lambda_stop": Option("--lambda-stop", 5.0, _number(float)),
    "lambda_steps": Option("--lambda-steps", 7, _number(int, 1)),
    "lambda_imag": Option("--lambda-imag", 0.0, _number(float)),
    "J": Option("--J", 40, _number(int, 1), "orbit-sum truncation"),
    "sigma": Option("--sigma", 1, _choice((1, -1), _number(int)),
                    "torsion convention exponent"),
    "samples": Option("--samples", 10, _number(int, 2), "homotopy scan samples"),
    "seed": Option("--seed", 20240801, _number(int, 0)),
    "closed_form": Option("--closed-form", False, _switch,
                          "include the lambda=0 closed form"),
    "out": Option("--out", None, str, "output path (default stdout)"),
    "fmt": Option("--format", "csv", _choice(("csv", "json")), "csv or json"),
    "criteria": Option("--criteria", None, _criteria, "comma-separated criterion subset"),
}


def load_config_file(path, command: str) -> dict:
    """Parsed values of the key=value lines of a config file for ``command``."""
    out = {}
    for lineno, line in orbits.content_lines(path):
        stripped = line.strip()
        if "=" not in stripped:
            raise ParseError(lineno, f"expected key=value, got {stripped!r}")
        key, value = (s.strip() for s in stripped.split("=", 1))
        if key not in _COMMANDS[command][1]:
            raise ParseError(lineno, f"{command} reads no config key {key!r}")
        try:
            out[key] = OPTIONS[key].parse(value)
        except argparse.ArgumentTypeError as exc:
            raise ParseError(lineno, f"{key} {exc}")
    return out


def _load_model(cfg: argparse.Namespace):
    if cfg.input:
        cc, rep, grams = complexes.read_complex_file(cfg.input)
        # the file's header declares self-duality at the file's own metric
        return complexes.build_twisted_complex(cc, rep, grams=grams,
                                               poincare_self_dual=cc.self_dual)
    return _MODELS[cfg.model][0](cfg)


def _emit(lines: List[str], cfg: argparse.Namespace):
    text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _Table(NamedTuple):
    """A row value holding a table: its column names and its rows."""
    columns: Tuple[str, ...]
    rows: list


def _emit_rows(rows, cfg: argparse.Namespace):
    """Render (key, value) rows: one JSON object with --format json, else one
    line per row.  A value is a number, a tuple of integers or a _Table, which
    prints as a header line and one indented line per row."""
    if cfg.fmt == "json":
        payload = {key: [dict(zip(value.columns, row)) for row in value.rows]
                   if isinstance(value, _Table) else value for key, value in rows}
        _emit([json.dumps(payload, sort_keys=True)], cfg)
        return
    lines = []
    for key, value in rows:
        if isinstance(value, _Table):
            lines.append(" ".join((key,) + value.columns))
            lines.extend("  " + " ".join(map(g17, row)) for row in value.rows)
        elif isinstance(value, tuple):
            lines.append(" ".join((key,) + tuple(map(str, value))))
        else:
            lines.append(f"{key} {g17(value)}")
    _emit(lines, cfg)


# -- commands ---------------------------------------------------------------------


def cmd_torsion(cfg: argparse.Namespace) -> int:
    """Betti numbers, torsion by both routes, Schwarz's partition function and
    the determinant-relation residuals, as (key, value) rows."""
    tc = _load_model(cfg)
    tau = complexes.analytic_torsion(tc) ** cfg.sigma
    laplace, coexact = complexes.torsion_routes(tc)
    rows = [
        ("betti", tc.betti_numbers()),
        ("torsion", tau),
        ("torsion_laplacian_route", laplace ** cfg.sigma),
        ("torsion_coexact_route", coexact ** cfg.sigma),
        ("torsion_reciprocal", 1.0 / tau),
        ("schwarz", complexes.schwarz_partition(tc) ** cfg.sigma),
    ]
    rep = complexes.det_relations_report(tc)
    rows += [("det_relation_1_residual", rep.relation1),
             ("det_relation_3_residual", rep.relation3)]
    if rep.relation2 is not None:
        rows.append(("det_relation_2_residual", rep.relation2))
    _emit_rows(rows, cfg)
    return EXIT_OK


def cmd_bf(cfg: argparse.Namespace) -> int:
    """Torsion, gauge-fixed partition functions and a homotopy scan, as
    (key, value) rows."""
    tc = _load_model(cfg)
    fs = bv.build_bf_fields(tc)
    tau = complexes.analytic_torsion(tc) ** cfg.sigma
    z_metric = bv.partition_function(fs, bv.metric_gauge(fs)) ** cfg.sigma
    hodge = bv.hodge_contraction(tc)
    z_contraction = bv.partition_function(fs, bv.contraction_gauge(fs, hodge)) ** cfg.sigma

    rows = [("torsion", tau), ("Z_metric", z_metric), ("Z_contraction", z_contraction)]
    if tc.suspension is not None:
        sus = bv.suspension_contraction(tc)
        z_sus = bv.partition_function(fs, bv.contraction_gauge(fs, sus)) ** cfg.sigma
        rows.append(("Z_reeb_contraction", z_sus))

    rng = np.random.default_rng(cfg.seed)
    family = bv.unitary_contraction_family(tc, rng)
    scan = bv.homotopy_scan(fs, family, samples=cfg.samples)
    rows.append(("scan", _Table(("t", "Z", "isotropy_residual"),
                                [(t, z ** cfg.sigma, r) for t, z, r in scan.samples])))
    rows.append(("max_relative_deviation", scan.max_relative_deviation))
    _emit_rows(rows, cfg)
    return EXIT_OK


def cmd_zeta(cfg: argparse.Namespace) -> int:
    aut = orbits.ToralAutomorphism.from_matrix(cfg.a_matrix)
    lines = []
    if cfg.closed_form:
        value = abs(zeta.zeta_value_at_zero(aut, cfg.theta)) ** -1
        lines.append(f"closed_form_abs_zeta0_inverse {g17(value)}")
        residual = verification.fried_residual(cfg.a_matrix, cfg.theta, sign=-cfg.sigma)
        lines.append(f"fried_residual {g17(residual)}")
    data = orbits.suspension_orbits(aut, cfg.J)
    lams = [complex(x, cfg.lambda_imag) for x in
            np.linspace(cfg.lambda_start, cfg.lambda_stop, cfg.lambda_steps)]
    rows = zeta.zeta_grid_rows(data, cfg.theta, lams, [0, 1, 2, "full"], cfg.J)
    if cfg.fmt == "json":
        payload = {"summary": lines, "grid": [dict(zip(zeta.GRID_HEADER, r)) for r in rows]}
        lines = [json.dumps(payload, sort_keys=True)]
    else:
        lines.extend(",".join(r) for r in [zeta.GRID_HEADER, *rows])
    _emit(lines, cfg)
    return EXIT_OK


def cmd_orbits(cfg: argparse.Namespace) -> int:
    if cfg.input:
        records = orbits.load_orbit_spectrum(cfg.input).records
        # the summary always goes to stdout; --out receives the merged spectrum
        sys.stdout.write(f"records {len(records)}\n"
                         f"total_count {sum(r.count for r in records)}\n")
        if cfg.out:
            orbits.write_orbit_spectrum(cfg.out, records)
        return EXIT_OK
    aut = orbits.ToralAutomorphism.from_matrix(cfg.a_matrix)
    records = orbits.enumerate_primitive_orbits(aut, cfg.J)
    if cfg.out:
        orbits.write_orbit_spectrum(cfg.out, records, theta=cfg.theta)
        sys.stdout.write(f"wrote {len(records)} records\n")
    else:
        lines = ["period count length"]
        lines += [f"  {r.period} {r.count} {g17(r.length)}" for r in records]
        _emit(lines, cfg)
    return EXIT_OK


def cmd_verify(cfg: argparse.Namespace) -> int:
    results = verification.run_all(cfg.criteria)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(f"[{status}] criterion {r.index:2d}: {r.name} -- {r.detail}\n")
        sys.stderr.write(f"criterion {r.index} took {r.seconds:.2f}s\n")
    failed = sum(not r.passed for r in results)
    sys.stdout.write(f"{len(results) - failed}/{len(results)} criteria passed\n")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


# -- argument plumbing ---------------------------------------------------------------


# the options _load_model reads
MODEL = ("input", "model", "a_matrix", "theta", "alpha", "beta")

# Each subcommand's function and the options it reads, the only ones it accepts.
_COMMANDS = {
    "torsion": (cmd_torsion, MODEL + ("sigma", "out", "fmt")),
    "bf": (cmd_bf, MODEL + ("sigma", "samples", "seed", "out", "fmt")),
    "zeta": (cmd_zeta, ("a_matrix", "theta", "lambda_start", "lambda_stop", "lambda_steps",
                        "lambda_imag", "J", "sigma", "closed_form", "out", "fmt")),
    "orbits": (cmd_orbits, ("input", "a_matrix", "J", "theta", "out")),
    "verify": (cmd_verify, ("criteria",)),
}

# The options a subcommand reads only without --input: the input file replaces
# them, so giving one together with --input is a usage error.
_REPLACED_BY_INPUT = {
    "torsion": MODEL[1:],
    "bf": MODEL[1:],
    "orbits": ("a_matrix", "J", "theta"),
}


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so every ``main`` call reuses it."""
    parser = _Parser(prog="zetabf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in _COMMANDS.items():
        # flags not given stay unset, so they do not mask config-file values
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="key=value configuration file")
        for key in keys:
            opt = OPTIONS[key]
            if opt.parse is _switch:
                p.add_argument(opt.flag, dest=key, action="store_true", help=opt.help)
            else:
                p.add_argument(opt.flag, dest=key, type=opt.parse, help=opt.help)
    return parser


def make_config(args: argparse.Namespace) -> argparse.Namespace:
    """The default of each option the command reads, overridden by the
    --config file, overridden by the flags given."""
    given = vars(args)
    cfg = {key: OPTIONS[key].default for key in _COMMANDS[args.command][1]}
    from_file = {}
    if "config" in given:
        from_file = load_config_file(given.pop("config"), args.command)
    cfg.update(from_file)
    cfg.update(given)

    def named(keys):
        return ", ".join(OPTIONS[key].flag if key in given else f"config key {key!r}"
                         for key in keys if key in given or key in from_file)

    if cfg.get("input"):
        clash = named(_REPLACED_BY_INPUT.get(args.command, ()))
        if clash:
            raise CLIUsageError(f"{args.command} --input reads no {clash}: "
                                "the input file replaces them")
    elif "model" in cfg:
        unread = named(key for key in MODEL[2:] if key not in _MODELS[cfg["model"]][1])
        if unread:
            raise CLIUsageError(f"{args.command} --model {cfg['model']} reads no {unread}")
    return argparse.Namespace(**cfg)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = make_config(args)
        return _COMMANDS[cfg.command][0](cfg)
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
