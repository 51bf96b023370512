"""Command-line behaviour: reports, exit codes, determinism."""

import cmath
import io
import json
import math
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from zetabf import complexes, orbits, zeta
from zetabf.errors import ParseError
from zetabf.cli import (EXIT_DOMAIN, EXIT_OK, EXIT_PARSE, OPTIONS, CLIUsageError,
                        build_parser, g17, main, make_config)

GOLDEN = Path(__file__).parent / "golden"
PI = "3.141592653589793"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_torsion_circle_report():
    code, out, _ = run_cli(["torsion", "--model", "circle",
                            "--theta", str(math.pi)])
    assert code == EXIT_OK
    assert "betti 0 0" in out
    assert "torsion 2" in out
    assert "schwarz 2" in out


def test_torsion_file_input(tmp_path):
    import cmath
    from zetabf.complexes import character_rep, circle_cell_complex, write_complex_file
    path = tmp_path / "circle.cplx"
    write_complex_file(path, circle_cell_complex(),
                       character_rep({"g": cmath.exp(1j * math.pi)}))
    code, out, _ = run_cli(["torsion", "--input", str(path)])
    assert code == EXIT_OK
    assert "torsion 2" in out


def test_torsion_file_input_with_gram(tmp_path):
    cc = complexes.torus_cell_complex()
    rep = complexes.character_rep({"a": cmath.exp(0.7j), "b": cmath.exp(-1.3j)})
    grams = [np.array([[3.0]]), np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([[0.5]])]
    path = tmp_path / "torus_gram.cplx"
    complexes.write_complex_file(path, cc, rep, grams)
    code, out, _ = run_cli(["torsion", "--input", str(path)])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "betti 0 0 0"
    tc = complexes.build_twisted_complex(*complexes.read_complex_file(path))
    assert lines[1] == f"torsion {g17(complexes.analytic_torsion(tc))}"


def _cat_torus_gram_file(tmp_path, self_dual):
    cc = complexes.mapping_torus_cell_complex([[2, 1], [1, 1]])
    cc.self_dual = self_dual
    rep = complexes.character_rep({"a": 1.0, "b": 1.0, "t": cmath.exp(2.0j)})
    rng = np.random.default_rng(5)
    grams = []
    for n in cc.counts:
        z = rng.normal(size=(n, n))
        grams.append(z @ z.T + n * np.eye(n))
    path = tmp_path / f"cat_gram_{int(self_dual)}.cplx"
    complexes.write_complex_file(path, cc, rep, grams)
    return path


def test_torsion_file_self_duality_is_declared(tmp_path):
    # random Gram blocks break Poincare duality: relation (2) is not reported
    plain = _cat_torus_gram_file(tmp_path, self_dual=False)
    assert plain.read_text().splitlines()[0] == "complex top=3 rank=1"
    code, out, _ = run_cli(["torsion", "--input", str(plain)])
    assert code == EXIT_OK
    assert "det_relation_1_residual" in out
    assert "det_relation_2_residual" not in out
    # a header declaring self_dual=1 asks for relation (2)
    declared = _cat_torus_gram_file(tmp_path, self_dual=True)
    assert declared.read_text().splitlines()[0] == "complex top=3 rank=1 self_dual=1"
    code, out, _ = run_cli(["torsion", "--input", str(declared)])
    assert code == EXIT_OK
    assert "det_relation_2_residual" in out


def test_torsion_factorises_each_differential_once(monkeypatch):
    # three differentials: one SVD each for the spectral record, three for
    # relation (1) and one Schwarz block; four Laplacians and Schwarz's T^2
    calls = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "zetabf.complexes":
                calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    code, _, _ = run_cli(["torsion", "--model", "cat", "--theta", "2.0"])
    assert code == EXIT_OK
    assert calls["svd"] <= 7
    assert calls["eigvalsh"] <= 5


def test_zeta_grid_builds_one_term_table(monkeypatch):
    # the README grid: 7 lambdas x 4 degrees read one table of the orbit data
    tables, evaluations = Counter(), Counter()
    real_init = zeta._TermTable.__init__

    def counting_init(self, data, J):
        tables[J] += 1
        real_init(self, data, J)

    def counting(name):
        real = getattr(zeta, name)

        def wrapper(*args, **kwargs):
            evaluations[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(zeta._TermTable, "__init__", counting_init)
    for name in ("log_zeta_k", "log_zeta_full"):
        monkeypatch.setattr(zeta, name, counting(name))
    code, _, _ = run_cli(GOLDEN_COMMANDS["zeta_grid_closed_form.txt"])
    assert code == EXIT_OK
    assert evaluations == {"log_zeta_k": 21, "log_zeta_full": 7}
    assert tables == {40: 1}


@pytest.mark.parametrize("argv", [["zeta", "--A", "2,1,1,1", "--J", "80"],
                                  ["orbits", "--A", "2,1,1,1", "--J", "70"]],
                         ids=["zeta", "orbits"])
def test_periods_above_64_are_a_domain_error(argv):
    code, out, err = run_cli(argv)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "ValidationError" in err
    assert "64" in err


def test_torsion_non_acyclic_exit_code():
    code, _, err = run_cli(["torsion", "--model", "circle", "--theta", "0"])
    assert code == EXIT_DOMAIN
    assert "NotAcyclic" in err


def test_torsion_malformed_file(tmp_path):
    path = tmp_path / "broken.cplx"
    path.write_text("not a complex\n")
    code, _, err = run_cli(["torsion", "--input", str(path)])
    assert code == EXIT_PARSE
    assert "parse error" in err


@pytest.mark.parametrize("block", ["gram 7\n  0.5,0\n",
                                   "gram 3\n  0.5,0 0,0\n  0,0 1,0\n",
                                   "gram 3\n  -0.5,0\n",
                                   "gram 3\n  0.5,0\n  0.5,0\n"],
                         ids=["degree-out-of-range", "wrong-size", "indefinite",
                              "extra-row"])
def test_torsion_malformed_gram_block(tmp_path, block):
    head, _ = (GOLDEN / "cat_gram.cplx").read_text().split("gram 3\n")
    header_line = head.count("\n") + 1
    path = tmp_path / "bad_gram.cplx"
    path.write_text(head + block)
    code, out, err = run_cli(["torsion", "--input", str(path)])
    assert code == EXIT_PARSE
    assert out == ""
    assert f"parse error: line {header_line}: gram" in err


@pytest.mark.parametrize("old, new", [("gram 3", "gram x"),
                                      ("counts 1 3 3 1", "counts 1 3 3 one"),
                                      ("complex top=3 rank=1", "complex top=x rank=1"),
                                      ("complex top=3 rank=1", "complex top=3 rank=one"),
                                      ("boundary 0", "boundary"),
                                      ("gram 3", "gram"),
                                      ("rep a", "rep"),
                                      ("relator a.b.a'.b'", "relator"),
                                      ("label 0:a", "label 0a"),
                                      ("label 0:a", "label x:a"),
                                      ("  +1*a -1*1", "  +x*a -1*1")])
def test_torsion_malformed_directive(tmp_path, old, new):
    lines = (GOLDEN / "cat_gram.cplx").read_text().splitlines()
    edited = lines.index(old)
    lines[edited] = new
    path = tmp_path / "bad.cplx"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["torsion", "--input", str(path)])
    assert code == EXIT_PARSE
    assert out == ""
    assert f"parse error: line {edited + 1}:" in err


def test_bf_reports_both_gauges():
    code, out, _ = run_cli(["bf", "--model", "cat", "--theta", str(math.pi),
                            "--samples", "4", "--sigma", "-1"])
    assert code == EXIT_OK
    assert "Z_metric 1.25" in out
    assert "Z_contraction 1.25" in out
    assert "Z_reeb_contraction 1.25" in out
    assert "max_relative_deviation" in out
    # monotone t column, constant Z column
    rows = [l.split() for l in out.splitlines() if l.startswith("  ")]
    ts = [float(r[0]) for r in rows]
    zs = {r[1] for r in rows}
    assert ts == sorted(ts)
    assert len(zs) <= 2      # identical up to printing of last-digit jitter


def test_bf_default_sigma_face():
    code, out, _ = run_cli(["bf", "--model", "cat", "--theta", str(math.pi),
                            "--samples", "3"])
    assert code == EXIT_OK
    assert "Z_metric 0.8" in out


def test_zeta_grid_and_closed_form(tmp_path):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(["zeta", "--A", "2,1,1,1",
                          "--theta", str(math.pi),
                          "--lambda-start", "2", "--lambda-stop", "5",
                          "--lambda-steps", "3", "--J", "30",
                          "--closed-form", "--out", str(out_path)])
    assert code == EXIT_OK
    text = out_path.read_text()
    assert "closed_form_abs_zeta0_inverse 0.8" in text
    assert "fried_residual" in text
    assert "re_lambda,im_lambda,k" in text
    assert text.count("\n") >= 13


def test_zeta_flags_divergent_rows():
    code, out, _ = run_cli(["zeta", "--A", "2,1,1,1", "--theta", "0",
                            "--lambda-start", "0.3", "--lambda-stop", "0.3",
                            "--lambda-steps", "1", "--J", "20"])
    assert code == EXIT_OK
    assert "divergent" in out
    assert "ok" in out


def test_orbits_listing_and_spectrum(tmp_path):
    spec = tmp_path / "orbits.txt"
    code, out, _ = run_cli(["orbits", "--A", "2,1,1,1", "--J", "5",
                            "--theta", "0.5", "--out", str(spec)])
    assert code == EXIT_OK
    code2, out2, _ = run_cli(["orbits", "--input", str(spec)])
    assert code2 == EXIT_OK
    assert "records 5" in out2


def test_orbits_input_out_writes_spectrum_and_prints_summary(tmp_path):
    src = tmp_path / "dups.txt"
    row = "1.0 1 1.0 0.0 2.618033988749895 0.3819660112501051 1\n"
    other = "2.0 1 -1.0 0.0 6.854101966249685 0.14589803375031546 3\n"
    src.write_text(row + other + row)
    merged = tmp_path / "merged.txt"
    code, out, _ = run_cli(["orbits", "--input", str(src), "--out", str(merged)])
    assert code == EXIT_OK
    assert out == "records 2\ntotal_count 5\n"
    records = orbits.load_orbit_spectrum(merged).records
    assert [(r.length, r.count) for r in records] == [(1.0, 2), (2.0, 3)]


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = circle\ntheta = 3.141592653589793\nsigma = 1\n")
    code, out, _ = run_cli(["torsion", "--config", str(cfg)])
    assert code == EXIT_OK
    assert "torsion 2" in out
    # flag overrides config
    code, out, _ = run_cli(["torsion", "--config", str(cfg),
                            "--theta", str(2 * math.pi / 3)])
    assert code == EXIT_OK
    assert "torsion 1.73" in out


def test_config_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery = 1\n")
    code, _, err = run_cli(["torsion", "--config", str(cfg)])
    assert code == EXIT_PARSE


@pytest.mark.parametrize("command", ["bogus", "verify"])
def test_config_cannot_set_command(tmp_path, command):
    """The subcommand comes from the command line; a config file naming one
    is a parse error, not a crash or a silent switch to another command."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model = circle\ncommand = {command}\n")
    code, out, err = run_cli(["torsion", "--config", str(cfg)])
    assert code == EXIT_PARSE
    assert out == ""
    assert "command" in err


# The options each subcommand reads: it accepts these and no others.
MODEL = ("input", "model", "a_matrix", "theta", "alpha", "beta")
READS = {
    "torsion": MODEL + ("sigma", "out", "fmt"),
    "bf": MODEL + ("sigma", "samples", "seed", "out", "fmt"),
    "zeta": ("a_matrix", "theta", "lambda_start", "lambda_stop", "lambda_steps",
             "lambda_imag", "J", "sigma", "closed_form", "out", "fmt"),
    "orbits": ("input", "a_matrix", "J", "theta", "out"),
    "verify": ("criteria",),
}


def reader(key):
    """The first subcommand that reads option ``key``."""
    return next(command for command, keys in READS.items() if key in keys)


# A valid config line for each subcommand, to put ahead of the line under test.
SETTING = {"torsion": "model = circle", "bf": "model = circle", "zeta": "J = 12",
           "orbits": "J = 12", "verify": "criteria = 1"}


@pytest.mark.parametrize("text", ["J = abc", "theta = pi", "samples = 2.5",
                                  "closed_form = maybe", "fmt = xml", "model = foo",
                                  "sigma = 2", "criteria = 13", "a_matrix = 1,2",
                                  "lambda_steps = 0", "J = 0", "samples = 1",
                                  "seed = -1"])
def test_config_bad_value_is_parse_error(tmp_path, text):
    key = text.split()[0]
    command = reader(key)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{SETTING[command]}\n{text}\n")
    code, out, err = run_cli([command, "--config", str(cfg)])
    assert code == EXIT_PARSE
    assert out == ""
    assert "line 2" in err
    assert key in err
    assert "reads no config key" not in err


# A value other than the default for every option, as a flag would give it.
OPTION_SAMPLES = {
    "input": "my.cplx", "model": "torus", "a_matrix": "3,2,1,1", "theta": "0.25",
    "alpha": "-1.5", "beta": "2e-3", "lambda_start": "1", "lambda_stop": "9.5",
    "lambda_steps": "3", "lambda_imag": "0.5", "J": "12", "sigma": "-1",
    "samples": "4", "seed": "7", "closed_form": None, "out": "x.txt", "fmt": "json",
    "criteria": "2,5",
}


def sample_settings(key, tmp_path):
    """Option ``key`` set to its sample value as flag arguments and as a config file."""
    text = OPTION_SAMPLES[key]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {'yes' if text is None else text}\n")
    flag = OPTIONS[key].flag
    return ([flag] if text is None else [flag, text]), ["--config", str(cfg)]


@pytest.mark.parametrize("key", sorted(OPTIONS))
def test_flag_and_config_line_parse_alike(tmp_path, key):
    """Each option's flag and config line yield the same value, not the default."""
    command = reader(key)
    flag_args, config_args = sample_settings(key, tmp_path)
    from_flag = make_config(build_parser().parse_args([command] + flag_args))
    from_file = make_config(build_parser().parse_args([command] + config_args))
    assert getattr(from_flag, key) == getattr(from_file, key)
    assert getattr(from_flag, key) != OPTIONS[key].default


def accepts(command, args):
    """Whether ``command`` accepts the option arguments ``args``; a refusal must
    be a parse error, raised before the command runs."""
    try:
        make_config(build_parser().parse_args([command] + args))
    except (CLIUsageError, ParseError):
        return False
    return True


@pytest.mark.parametrize("key", sorted(OPTIONS))
@pytest.mark.parametrize("command", sorted(READS))
def test_command_accepts_exactly_the_options_it_reads(tmp_path, command, key):
    """A declared option parses as a flag and as a config line, to a value
    other than the default; any other exits 3 with empty stdout either way."""
    flag_args, config_args = sample_settings(key, tmp_path)
    if key in READS[command]:
        for args in (flag_args, config_args):
            cfg = make_config(build_parser().parse_args([command] + args))
            assert getattr(cfg, key) != OPTIONS[key].default
        return
    code, out, err = run_cli([command] + flag_args)
    assert (code, out) == (EXIT_PARSE, "")
    assert f"unrecognized arguments: {OPTIONS[key].flag}" in err
    code, out, err = run_cli([command] + config_args)
    assert (code, out) == (EXIT_PARSE, "")
    assert f"line 1: {command} reads no config key {key!r}" in err


def test_accepted_option_pairs_are_counted(tmp_path):
    """37 of the 90 (command, option) pairs are accepted; a config key is
    accepted exactly when its flag is."""
    as_flag, as_key = set(), set()
    for key in OPTIONS:
        flag_args, config_args = sample_settings(key, tmp_path)
        for command in READS:
            if accepts(command, flag_args):
                as_flag.add((command, key))
            if accepts(command, config_args):
                as_key.add((command, key))
    assert len(READS) * len(OPTIONS) == 90
    assert len(as_flag) == 37
    assert as_key == as_flag
    assert as_flag == {(command, key) for command, keys in READS.items() for key in keys}


@pytest.mark.parametrize("argv", [
    ["zeta", "--input", "spectrum.txt"],
    ["verify", "--criteria", "1", "--out", "v.txt"],
    ["torsion", "--J", "5", "--samples", "3", "--closed-form", "--criteria", "4"],
], ids=["zeta-input", "verify-out", "torsion-extras"])
def test_options_a_command_ignores_are_refused(tmp_path, argv):
    """Options a command would not read exit 3 rather than being dropped."""
    argv = [str(tmp_path / a) if a.endswith(".txt") else a for a in argv]
    code, out, err = run_cli(argv)
    assert (code, out) == (EXIT_PARSE, "")
    assert "unrecognized arguments" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("key", sorted(k for k, opt in OPTIONS.items()
                                       if isinstance(opt.default, float)))
def test_non_finite_float_is_parse_error(tmp_path, key, value):
    """A non-finite float option exits 3, as a flag and as a config line."""
    command = reader(key)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    for argv, where in (([f"{OPTIONS[key].flag}={value}"], OPTIONS[key].flag),
                        (["--config", str(cfg)], "line 1")):
        code, out, err = run_cli([command] + argv)
        assert code == EXIT_PARSE
        assert out == ""
        assert "must be finite" in err
        assert where in err


@pytest.mark.parametrize("value, want", [("1", True), ("TRUE", True), ("Yes", True),
                                         ("0", False), ("false", False), ("NO", False)])
def test_config_closed_form_spellings(tmp_path, value, want):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"closed_form = {value}\n")
    code, out, _ = run_cli(["zeta", "--config", str(cfg), "--lambda-steps", "1"])
    assert code == EXIT_OK
    assert ("closed_form_abs_zeta0_inverse" in out) is want


@pytest.mark.parametrize("criteria", ["13", "0", "x", "1,13", "2,"])
def test_verify_rejects_unknown_criteria(criteria):
    code, out, err = run_cli(["verify", "--criteria", criteria])
    assert code == EXIT_PARSE
    assert out == ""
    assert "criteria" in err


def test_usage_error_maps_to_parse_exit():
    code, _, _ = run_cli(["torsion", "--model", "nonsense"])
    assert code == EXIT_PARSE


def test_byte_identical_reruns():
    argv = ["bf", "--model", "cat", "--theta", "2.0943951023931953",
            "--samples", "6", "--seed", "7"]
    _, out1, _ = run_cli(argv)
    _, out2, _ = run_cli(argv)
    assert out1 == out2


def test_verify_subset():
    code, out, _ = run_cli(["verify", "--criteria", "1,2"])
    assert code == EXIT_OK
    assert "[PASS] criterion  1" in out
    assert "2/2 criteria passed" in out


def _bf_text_values(out):
    """bf text output as {key: float} and a list of float scan rows."""
    values, scan = {}, []
    for line in out.splitlines():
        if line.startswith("  "):
            scan.append(tuple(float(x) for x in line.split()))
        elif not line.startswith("scan "):
            key, value = line.split()
            values[key] = float(value)
    return values, scan


@pytest.mark.parametrize("sigma", ["1", "-1"])
@pytest.mark.parametrize("model", ["cat", "torus"])
def test_bf_json_matches_text(model, sigma):
    """Both bf formats report the same keys and floats, scan rows included."""
    argv = ["bf", "--model", model, "--samples", "3", "--sigma", sigma]
    code, text, _ = run_cli(argv)
    assert code == EXIT_OK
    code, js, _ = run_cli(argv + ["--format", "json"])
    assert code == EXIT_OK
    values, scan = _bf_text_values(text)
    payload = json.loads(js)
    assert [(r["t"], r["Z"], r["isotropy_residual"]) for r in payload.pop("scan")] == scan
    assert payload == values
    assert ("Z_reeb_contraction" in payload) is (model == "cat")


@pytest.mark.parametrize("argv", [
    ["torsion", "--model", "circle", "--theta", "2"],
    ["torsion", "--model", "cat", "--sigma", "-1"],
    ["torsion", "--input", str(GOLDEN / "cat_gram.cplx")],
])
def test_torsion_json_matches_text(argv):
    """Both torsion formats report the same keys and values."""
    code, text, _ = run_cli(argv)
    assert code == EXIT_OK
    code, js, _ = run_cli(argv + ["--format", "json"])
    assert code == EXIT_OK
    values = dict(line.split(" ", 1) for line in text.splitlines())
    payload = json.loads(js)
    assert payload.pop("betti") == [int(b) for b in values.pop("betti").split()]
    assert payload == {key: float(value) for key, value in values.items()}


@pytest.mark.parametrize("argv", [["orbits", "--J", "3"], ["verify", "--criteria", "1"]])
def test_json_refused_without_json_output(argv, tmp_path):
    # orbits and verify have no --format: the flag and the config key are refused
    code, out, err = run_cli(argv + ["--format", "json"])
    assert (code, out) == (EXIT_PARSE, "")
    assert "unrecognized arguments: --format json" in err
    config = tmp_path / "fmt.conf"
    config.write_text("fmt = json\n")
    code, out, err = run_cli(argv + ["--config", str(config)])
    assert (code, out) == (EXIT_PARSE, "")
    assert f"line 1: {argv[0]} reads no config key 'fmt'" in err


GOLDEN_COMMANDS = {
    "torsion_circle_pi.txt": ["torsion", "--model", "circle", "--theta", PI],
    "bf_cat_pi.txt": ["bf", "--model", "cat", "--theta", PI, "--samples", "10"],
    "zeta_grid_closed_form.txt": ["zeta", "--A", "2,1,1,1", "--theta", PI,
                                  "--lambda-start", "2", "--lambda-stop", "5",
                                  "--lambda-steps", "7", "--closed-form"],
    "zeta_grid_complex_J64.txt": ["zeta", "--A", "2,1,1,1", "--theta", PI,
                                  "--lambda-start", "2", "--lambda-stop", "5",
                                  "--lambda-steps", "7", "--closed-form",
                                  "--lambda-imag", "0.5", "--J", "64"],
    "zeta_grid_closed_form_json.txt": ["zeta", "--A", "2,1,1,1", "--theta", PI,
                                       "--lambda-start", "2", "--lambda-stop", "5",
                                       "--lambda-steps", "7", "--closed-form",
                                       "--format", "json"],
    "orbits_J12.txt": ["orbits", "--A", "2,1,1,1", "--J", "12"],
    "bf_cat_2pi3_seed7.txt": ["bf", "--model", "cat", "--theta", "2.0943951023931953",
                              "--samples", "6", "--seed", "7"],
    "bf_torus_1_05.txt": ["bf", "--model", "torus", "--alpha", "1.0", "--beta", "0.5"],
    "bf_cat_2_sigma_minus1.txt": ["bf", "--model", "cat", "--theta", "2.0", "--samples", "4",
                                  "--sigma", "-1"],
    # cat-map mapping torus, theta = 2, with non-identity Gram matrices
    "bf_cat_gram_input.txt": ["bf", "--input", str(GOLDEN / "cat_gram.cplx")],
    "torsion_cat_gram_input.txt": ["torsion", "--input", str(GOLDEN / "cat_gram.cplx")],
    "verify.txt": ["verify"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_stdout(name):
    """README commands print byte-identical stdout to the recorded runs."""
    code, out, _ = run_cli(GOLDEN_COMMANDS[name])
    assert code == EXIT_OK
    assert out.encode() == (GOLDEN / name).read_bytes()
