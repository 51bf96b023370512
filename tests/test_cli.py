"""Command-line behaviour: reports, exit codes, determinism."""

import cmath
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from zetabf import cli, complexes, orbits, zeta
from zetabf.errors import ParseError, ValidationError
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


def _cat_torus_gram_file(tmp_path, self_dual, gram_seed=5):
    # self_dual=None leaves the header to the writer; gram_seed=None writes
    # the unit metric
    cc = complexes.mapping_torus_cell_complex([[2, 1], [1, 1]])
    rep = complexes.character_rep({"a": 1.0, "b": 1.0, "t": cmath.exp(2.0j)})
    grams = None
    if gram_seed is not None:
        rng = np.random.default_rng(gram_seed)
        grams = []
        for n in cc.counts:
            z = rng.normal(size=(n, n))
            grams.append(z @ z.T + n * np.eye(n))
    path = tmp_path / f"cat_gram_{self_dual}_{gram_seed}.cplx"
    complexes.write_complex_file(path, cc, rep, grams, self_dual=self_dual)
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


def test_written_cat_torus_declares_self_duality_at_the_unit_metric(tmp_path):
    # the det-1 cell complex is self-dual at the unit metric only: written
    # with random Gram blocks it declares nothing and reports no relation (2)
    metric = _cat_torus_gram_file(tmp_path, self_dual=None)
    assert metric.read_text().splitlines()[0] == "complex top=3 rank=1"
    code, out, _ = run_cli(["torsion", "--input", str(metric)])
    assert code == EXIT_OK
    assert "det_relation_2_residual" not in out
    unit = _cat_torus_gram_file(tmp_path, self_dual=None, gram_seed=None)
    assert unit.read_text().splitlines()[0] == "complex top=3 rank=1 self_dual=1"
    code, out, _ = run_cli(["torsion", "--input", str(unit)])
    assert code == EXIT_OK
    residual = [line for line in out.splitlines()
                if line.startswith("det_relation_2_residual ")]
    assert len(residual) == 1 and float(residual[0].split()[1]) < 1e-14


def test_torsion_factorises_each_differential_once(monkeypatch):
    # SVDs: each d_k for the spectral record, each d_k* for relation (1) and
    # Schwarz's T_1 blocks d_0 and d_2^T; eigvalsh: the four Laplacians and
    # the two blocks of Schwarz's T^2.  No block-diagonal assembly is
    # factorised: no matrix is larger than the complex's largest degree.
    # Each member of a stacked call counts under its own 2-D shape.
    shapes = {"svd": [], "eigvalsh": []}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "zetabf.complexes":
                a = args[0]
                shapes[name] += [a.shape[-2:]] * math.prod(a.shape[:-2])
            return real(*args, **kwargs)
        return wrapper

    for name in shapes:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    code, _, _ = run_cli(["torsion", "--model", "cat", "--theta", "2.0"])
    assert code == EXIT_OK
    d = complexes.mapping_torus_complex([[2, 1], [1, 1]], 2.0).diffs
    dims = [m.shape[1] for m in d] + [d[-1].shape[0]]
    want_svd = [m.shape for m in d] + [m.T.shape for m in d] + [d[0].shape, d[2].T.shape]
    want_eig = [(n, n) for n in dims] + [(dims[1], dims[1])] * 2
    assert Counter(shapes["svd"]) == Counter(want_svd)
    assert Counter(shapes["eigvalsh"]) == Counter(want_eig)
    assert max(max(s) for s in shapes["svd"] + shapes["eigvalsh"]) <= max(dims)


def test_zeta_grid_builds_one_term_table(monkeypatch):
    # the README grid: 7 lambdas x 4 degrees read one table of the orbit data
    # and form each lambda's amplitude once, in one exponential pass
    tables, exponentials = Counter(), []
    real_init, real_exp_neg = zeta._TermTable.__init__, zeta._exp_neg

    def counting_init(self, data, J):
        tables[J] += 1
        real_init(self, data, J)

    def counting_exp_neg(lam, *factors):
        exponentials.append(lam)
        return real_exp_neg(lam, *factors)

    monkeypatch.setattr(zeta._TermTable, "__init__", counting_init)
    monkeypatch.setattr(zeta, "_exp_neg", counting_exp_neg)
    code, out, _ = run_cli(GOLDEN_COMMANDS["zeta_grid_closed_form.txt"])
    assert code == EXIT_OK
    assert tables == {40: 1}
    # the table's terms fit one block, so each lambda takes one pass
    data = orbits.suspension_orbits(orbits.ToralAutomorphism(2, 1, 1, 1), 40)
    assert sum(40 // r.period for r in data.records) <= zeta._BLOCK
    grid = [complex(float(f[0]), float(f[1])) for f in
            (line.split(",") for line in out.splitlines()) if len(f) == 8 and f[7] == "ok"]
    assert exponentials == list(dict.fromkeys(grid))
    assert len(exponentials) == 7


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


@pytest.mark.parametrize("first, last, message", [
    ("complex top=3 rank=1", "complex top=3 rank=1",
     "missing complex header, counts or generators"),
    ("boundary 1", "  -1*t.b.t'.b'.a' ; +1*t -1*t.b.t'.b' ; +1*1 -1*t.b.t'",
     "missing boundary 1 block"),
    ("rep t", "  -0.41614683654714241,0.90929742682568171",
     "missing rep block for generator 't'"),
], ids=["header", "boundary", "rep"])
def test_file_level_parse_errors_name_no_line(tmp_path, first, last, message):
    # an error of the file as a whole used to read "line 0: ..."
    lines = (GOLDEN / "cat_gram.cplx").read_text().splitlines()
    del lines[lines.index(first):lines.index(last) + 1]
    path = tmp_path / "bad.cplx"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        complexes.read_complex_file(path)
    assert exc.value.line is None
    code, out, err = run_cli(["torsion", "--input", str(path)])
    assert (code, out, err) == (EXIT_PARSE, "", f"parse error: {message}\n")


def test_counts_of_the_wrong_length_name_their_line(tmp_path):
    lines = (GOLDEN / "cat_gram.cplx").read_text().splitlines()
    named = lines.index("counts 1 3 3 1")
    lines[named] = "counts 1 3 3"
    path = tmp_path / "bad.cplx"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["torsion", "--input", str(path)])
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"parse error: line {named + 1}: counts has 3 entries, expected 4\n"


BOUNDARY_2_ROW = "  +1*t -1*1 ; -1*1 +1*a.b.a' ; -1*a +1*a.b.a'.b'"


@pytest.mark.parametrize("first, repeat, what", [
    ("complex top=3 rank=1", "complex top=3 rank=1", "complex"),
    ("counts 1 3 3 1", "counts 1 3 3 1", "counts"),
    ("generators a b t", "generators a b t", "generators"),
    ("boundary 2", "boundary 2\n" + BOUNDARY_2_ROW, "boundary 2"),
    ("rep t", "rep t\n  1,0", "rep t"),
    ("gram 0", "gram 0\n  3,0", "gram 0"),
], ids=["header", "counts", "generators", "boundary", "rep", "gram"])
def test_repeated_directive_is_a_parse_error(tmp_path, first, repeat, what):
    # a repeat used to replace the first silently: a second gram 0 moved the
    # torsion, a second rep t made the complex non-acyclic
    lines = (GOLDEN / "cat_gram.cplx").read_text().splitlines()
    path = tmp_path / "repeated.cplx"
    path.write_text("\n".join(lines + [repeat]) + "\n")
    code, out, err = run_cli(["torsion", "--input", str(path)])
    assert (code, out) == (EXIT_PARSE, "")
    assert err == (f"parse error: line {len(lines) + 1}: "
                   f"repeated {what!r}, first at line {lines.index(first) + 1}\n")


def test_repeated_generator_name_is_a_parse_error(tmp_path):
    lines = (GOLDEN / "cat_gram.cplx").read_text().splitlines()
    named = lines.index("generators a b t")
    lines[named] = "generators a b t t"
    path = tmp_path / "repeated.cplx"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["torsion", "--input", str(path)])
    assert (code, out) == (EXIT_PARSE, "")
    assert err == (f"parse error: line {named + 1}: "
                   f"repeated 'generator t', first at line {named + 1}\n")


@pytest.mark.parametrize("header, field", [
    ("complex top=3 rank=1 top=2", "top"),
    ("complex top=3 rank=1 self_dual=1 self_dual=1", "self_dual"),
], ids=["top", "self_dual"])
def test_repeated_header_field_is_a_parse_error(tmp_path, header, field):
    # a second top= used to replace the first, and the counts line took the blame
    lines = (GOLDEN / "cat_gram.cplx").read_text().splitlines()
    lines[0] = header
    path = tmp_path / "repeated.cplx"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["torsion", "--input", str(path)])
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"parse error: line 1: repeated 'header field {field}', first at line 1\n"


@pytest.mark.parametrize("block, message", [
    (["rep z", "  5,0"], "rep z: 'z' is not a generator"),
    (["boundary 7", "  garbage here ; x"], "boundary 7: degree outside 0..2"),
    (["boundary -1"], "boundary -1: degree outside 0..2"),
    (["gram 9"], "gram 9: degree outside 0..3"),
], ids=["rep", "boundary-above", "boundary-below", "gram"])
def test_rep_block_of_an_unknown_generator_is_a_parse_error(tmp_path, block, message):
    # a block the reader never reads (a non-unitary image of a name outside
    # generators, a boundary beyond the top degree) used to be ignored
    lines = (GOLDEN / "cat_gram.cplx").read_text().splitlines()
    path = tmp_path / "extra_block.cplx"
    path.write_text("\n".join(lines + block) + "\n")
    code, out, err = run_cli(["torsion", "--input", str(path)])
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"parse error: line {len(lines) + 1}: {message}\n"


@pytest.mark.parametrize("a, flag", [(((3, 1), (1, 0)), "--A=3,1,1,0"),
                                     (((4, 1), (1, 0)), "--A=4,1,1,0")])
def test_det_minus_one_mapping_torus_reports_no_relation_2(a, flag):
    # a non-orientable mapping torus pairs rho with conj(rho) times the
    # orientation character, not with itself: relation (2) read 1.455
    tc = complexes.mapping_torus_complex(a, 0.9)
    assert complexes.det_relations_report(tc).relation2 is None
    code, out, _ = run_cli(["torsion", flag, "--theta", "0.9"])
    assert code == EXIT_OK
    assert "det_relation_3_residual" in out
    assert "det_relation_2_residual" not in out


@pytest.mark.parametrize("anchor, offset, new", [
    ("relator t.b.t'.b'.a'", 0, "relator t.b.t'.c'.a'"),
    ("rep b", 1, "  1,0 0,0"),
    ("rep b", 1, "  2,0"),
    ("boundary 2", 1, BOUNDARY_2_ROW + "\n" + BOUNDARY_2_ROW),
], ids=["relator-unknown-generator", "rep-wrong-size", "rep-not-unitary",
        "boundary-extra-row"])
def test_complex_file_errors_name_their_line(tmp_path, anchor, offset, new):
    # the relator line, or the header line of the faulty block
    lines = (GOLDEN / "cat_gram.cplx").read_text().splitlines()
    named = lines.index(anchor)
    lines[named + offset] = new
    path = tmp_path / "bad.cplx"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["torsion", "--input", str(path)])
    assert code == EXIT_PARSE
    assert out == ""
    assert f"parse error: line {named + 1}:" in err


# Each model at the unit metric: its cell complex, its generator images as
# the model builds them, and its --model flags.
WRITTEN_MODELS = {
    "circle": (complexes.circle_cell_complex(), {"g": cmath.exp(1j * math.pi)},
               ["--model", "circle", "--theta", PI]),
    "torus": (complexes.torus_cell_complex(),
              {"a": cmath.exp(1j * 1.0), "b": cmath.exp(1j * 0.5)},
              ["--model", "torus", "--alpha", "1", "--beta", "0.5"]),
    "cat": (complexes.mapping_torus_cell_complex([[2, 1], [1, 1]]),
            {"a": 1.0, "b": 1.0, "t": cmath.exp(1j * 2.0)},
            ["--model", "cat", "--theta", "2"]),
}


@pytest.mark.parametrize("command", ["torsion", "bf"])
@pytest.mark.parametrize("model", sorted(WRITTEN_MODELS))
def test_written_model_reads_back_as_the_model(tmp_path, model, command):
    # the file keeps the self-duality (relation (2)) and the Reeb pairs
    # (Z_reeb_contraction) that the model declares
    cc, images, flags = WRITTEN_MODELS[model]
    path = tmp_path / f"{model}.cplx"
    complexes.write_complex_file(path, cc, complexes.character_rep(images))
    want = run_cli([command] + flags)
    assert want[0] == EXIT_OK
    assert run_cli([command, "--input", str(path)]) == want


@pytest.mark.parametrize("new, offset, message", [
    ("reeb 2 1:0 2:1\nreeb 2 1:0", 1, "repeated 'reeb 2', first at line {line}"),
    ("reeb 4 0:0", 0, "reeb 4: degree or cell index out of range"),
    ("reeb 2 1:0 3:1", 0, "reeb 2: degree or cell index out of range"),
    ("reeb 2 1:-1", 0, "reeb 2: degree or cell index out of range"),
    ("reeb 2 1-0", 0, "a reeb pair must read cell:base"),
    ("reeb 2 1:x", 0, "reeb cell must be an integer, got 'x'"),
], ids=["repeated", "degree", "cell", "base-cell", "not-a-pair", "not-an-integer"])
def test_bad_reeb_line_is_a_parse_error_at_its_line(tmp_path, new, offset, message):
    path = tmp_path / "cat.cplx"
    cc, images, _ = WRITTEN_MODELS["cat"]
    complexes.write_complex_file(path, cc, complexes.character_rep(images))
    lines = path.read_text().splitlines()
    named = lines.index("reeb 2 1:0 2:1")
    lines[named] = new
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(["torsion", "--input", str(path)])
    assert (code, out) == (EXIT_PARSE, "")
    assert err == (f"parse error: line {named + 1 + offset}: "
                   f"{message.format(line=named + 1)}\n")


@pytest.mark.parametrize("row, field", [
    ("1.0 1 1.0 0.0 2.0 0.4 1", "poincare_eigs"),
    ("1.0 1 1.0 0.0 2.0 0.5 0", "count"),
    ("1.0 1 0.5 0.0 2.0 0.5 1", "holonomy"),
    ("1.0 2 1.0 0.0 2.0 0.5 1", "primitive_flag"),
], ids=["eigenvalue-product", "count", "holonomy-modulus", "primitive-flag"])
def test_spectrum_record_errors_name_their_line(tmp_path, row, field):
    path = tmp_path / "bad.txt"
    path.write_text(f"# two records\n2.0 1 1.0 0.0 4.0 0.25 1\n{row}\n")
    with pytest.raises(ValidationError) as exc:
        orbits.load_orbit_spectrum(path)
    assert (exc.value.field, exc.value.line) == (field, 3)
    code, out, err = run_cli(["orbits", "--input", str(path)])
    assert code == EXIT_DOMAIN
    assert out == ""
    assert f"domain error (ValidationError): line 3: {field}:" in err


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


def test_cat_twist_near_the_rank_cut_reports_its_torsion():
    theta = 1e-5
    q = 4.0 * math.sin(theta / 2) ** 2
    exact = q / (1.0 + q)
    code, out, _ = run_cli(["torsion", "--model", "cat", "--theta", str(theta)])
    assert code == EXIT_OK
    rows = dict(line.split(" ", 1) for line in out.splitlines())
    for key in ("torsion", "torsion_laplacian_route", "torsion_coexact_route", "schwarz"):
        assert float(rows[key]) == pytest.approx(exact, rel=1e-12)
    assert float(rows["det_relation_3_residual"]) < 1e-10
    code, out, _ = run_cli(["bf", "--model", "cat", "--theta", str(theta), "--samples", "3"])
    assert code == EXIT_OK
    lines = out.splitlines()
    rows = dict(line.split(" ", 1) for line in lines if not line.startswith(" "))
    zs = [float(rows[key]) for key in ("torsion", "Z_metric", "Z_contraction",
                                       "Z_reeb_contraction")]
    zs += [float(line.split()[1]) for line in lines if line.startswith(" ")]
    assert len(zs) == 7
    for z in zs:
        assert z == pytest.approx(exact, rel=1e-12)


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


def test_zeta_closed_form_at_an_untwisted_theta_is_a_domain_error():
    code, out, err = run_cli(["zeta", "--closed-form", "--theta", "0"])
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == ("domain error (NotAcyclicError): theta in 2*pi*Z: zeta_0 vanishes "
                   "at 0, flat determinant undefined\n")


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


# The model that reads each model option the default model (cat) does not.
MODEL_OF = {"alpha": "torus", "beta": "torus"}


def sample_settings(key, tmp_path, command):
    """Option ``key`` set to its sample value as flag arguments and as a config
    file, after the --model that reads it where ``command`` has a --model."""
    text = OPTION_SAMPLES[key]
    flag = OPTIONS[key].flag
    flag_args = [flag] if text is None else [flag, text]
    lines = [f"{key} = {'yes' if text is None else text}\n"]
    if key in MODEL_OF and "model" in READS[command]:
        flag_args = ["--model", MODEL_OF[key]] + flag_args
        lines.insert(0, f"model = {MODEL_OF[key]}\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(lines))
    return flag_args, ["--config", str(cfg)]


@pytest.mark.parametrize("key", sorted(OPTIONS))
def test_flag_and_config_line_parse_alike(tmp_path, key):
    """Each option's flag and config line yield the same value, not the default."""
    command = reader(key)
    flag_args, config_args = sample_settings(key, tmp_path, command)
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
    flag_args, config_args = sample_settings(key, tmp_path, command)
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
        for command in READS:
            flag_args, config_args = sample_settings(key, tmp_path, command)
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


@pytest.mark.parametrize("command, replaced", [
    ("torsion", {"model": "circle", "theta": "0"}),
    ("bf", {"model": "circle", "a_matrix": "3,2,1,1", "theta": "0", "alpha": "1",
            "beta": "2"}),
    ("orbits", {"a_matrix": "3,2,1,1", "J": "1", "theta": "9"}),
])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_input_refuses_the_options_it_replaces(tmp_path, command, replaced, where):
    """With --input, each option the file replaces exits 3 before the command
    runs, named in the message, as a flag and as a config line."""
    if command == "orbits":
        spectrum = tmp_path / "s.txt"
        assert run_cli(["orbits", "--J", "4", "--out", str(spectrum)])[0] == EXIT_OK
        source = ["--input", str(spectrum)]
        alone = (EXIT_OK, "records 4\ntotal_count 18\n", "")
    else:
        source = ["--input", str(GOLDEN / "cat_gram.cplx")]
        alone = run_cli([command] + source)
    assert alone[0] == EXIT_OK and run_cli([command] + source) == alone
    cfg = tmp_path / "run.cfg"
    cases = [{key: value} for key, value in replaced.items()] + [replaced]
    for given in cases:
        if where == "flag":
            argv = [a for key, value in given.items() for a in (OPTIONS[key].flag, value)]
            named = [OPTIONS[key].flag for key in given]
        else:
            cfg.write_text("".join(f"{key} = {value}\n" for key, value in given.items()))
            argv, named = ["--config", str(cfg)], [f"config key {key!r}" for key in given]
        code, out, err = run_cli([command] + source + argv)
        assert (code, out) == (EXIT_PARSE, "")
        assert f"{command} --input reads no {', '.join(named)}:" in err


# Per --model, the model options it does not read.
UNREAD_BY_MODEL = {
    "circle": {"a_matrix": "3,2,1,1", "alpha": "1", "beta": "0.3"},
    "torus": {"a_matrix": "3,2,1,1", "theta": "2"},
    "cat": {"alpha": "1", "beta": "0.3"},
    "mapping-torus": {"alpha": "1", "beta": "0.3"},
}


@pytest.mark.parametrize("model", sorted(UNREAD_BY_MODEL))
@pytest.mark.parametrize("command", ["torsion", "bf"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_model_refuses_the_options_it_does_not_read(tmp_path, model, command, where):
    """A model option the chosen model ignores exits 3 with empty stdout, named
    in the message, as a flag and as a config line, --model given either way."""
    cfg = tmp_path / "run.cfg"
    unread = UNREAD_BY_MODEL[model]
    for given in [{key: value} for key, value in unread.items()] + [unread]:
        if where == "flag":
            argv = ["--model", model]
            argv += [a for key, value in given.items() for a in (OPTIONS[key].flag, value)]
            named = [OPTIONS[key].flag for key in given]
        else:
            cfg.write_text(f"model = {model}\n" + "".join(
                f"{key} = {value}\n" for key, value in given.items()))
            argv, named = ["--config", str(cfg)], [f"config key {key!r}" for key in given]
        code, out, err = run_cli([command] + argv)
        assert (code, out) == (EXIT_PARSE, "")
        assert f"{command} --model {model} reads no {', '.join(named)}" in err


@pytest.mark.parametrize("argv", [
    ["torsion", "--model", "circle", "--theta", "2", "--alpha", "1", "--A", "3,2,1,1"],
    ["torsion", "--model", "cat", "--theta", "2", "--beta", "0.3"],
    ["torsion", "--alpha", "1"],          # the default model is cat
])
def test_model_option_reproductions_are_refused(argv):
    code, out, err = run_cli(argv)
    assert (code, out) == (EXIT_PARSE, "")
    assert "reads no" in err


def test_model_reads_its_own_options(tmp_path):
    """Options the chosen model reads are accepted, from a flag or a config line."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = torus\nalpha = 1.0\nbeta = 0.5\n")
    by_flags = run_cli(["torsion", "--model", "torus", "--alpha", "1.0", "--beta", "0.5"])
    assert by_flags[0] == EXIT_OK
    assert run_cli(["torsion", "--config", str(cfg)]) == by_flags
    for argv in (["--model", "circle", "--theta", "2"],
                 ["--model", "mapping-torus", "--A", "3,2,1,1", "--theta", "2"]):
        assert run_cli(["torsion"] + argv)[0] == EXIT_OK


@pytest.mark.parametrize("command", [["zeta", "--theta", "1"], ["orbits"]])
def test_overflowing_eigenvalue_power_is_a_domain_error(command):
    # mu^62 of A = [[1e5, 1], [1e5 - 1, 1]] leaves the float range: this
    # used to end in a bare OverflowError traceback, exit 1
    code, out, err = run_cli(command + ["--A", "100000,1,99999,1", "--J", "64"])
    assert code == EXIT_DOMAIN
    assert "ValidationError" in err and "period 62" in err


# Peak RSS of `torsion` at A = [[1e4, 1], [1e4 - 1, 1]]: 41 MB measured on a
# 2-vCPU x86-64 VM; multiplying every Fox prefix out on its own took 1.6 GB.
LARGE_A_PEAK_RSS_MB = 128


def test_large_entry_torsion_runs_in_bounded_memory():
    """A large-entry A builds its mapping torus in linear time and memory: the
    run ends, with a torsion or the typed cross-check refusal, in a child
    whose peak RSS (read by a wrapper process, so no other child of the test
    run counts) stays under LARGE_A_PEAK_RSS_MB."""
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    script = ("import resource, subprocess, sys\n"
              "done = subprocess.run([sys.executable, '-m', 'zetabf', 'torsion', '--A',\n"
              "                       '10000,1,9999,1', '--theta', '1'],\n"
              "                      capture_output=True, timeout=60)\n"
              "print(done.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True, timeout=90)
    code, peak_kb = map(int, done.stdout.split())
    assert code in (EXIT_OK, EXIT_DOMAIN)
    assert peak_kb / 1024 < LARGE_A_PEAK_RSS_MB


def test_cli_import_leaves_scipy_out():
    """No subcommand imports scipy (its import is most of the start-up time
    and of the peak memory): not the anchor torsion run, not the bf run with
    its unitary homotopy scan, not the README zeta grid or orbit table, and
    not a full verify, whose criterion 9 scans and criterion 12 heat traces
    share numpy's one matrix exponential in ``graded``."""
    runs = ((["torsion", "--model", "cat", "--theta", "2.0"], "betti 0 0 0 0"),
            (["bf", "--model", "cat", "--theta", "3.141592653589793"], "torsion 0.7"),
            (["zeta", "--A", "2,1,1,1", "--theta", "3.141592653589793",
              "--lambda-start", "2", "--lambda-stop", "5", "--lambda-steps", "7",
              "--closed-form"], "closed_form_abs_zeta0_inverse 0.8"),
            (["orbits", "--A", "2,1,1,1", "--J", "12"], "period count length"),
            (["verify"], "[PASS] criterion  1: "))
    assert {argv[0] for argv, _ in runs} == set(cli._COMMANDS)
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for argv, first in runs:
        script = ("import runpy, sys\n"
                  f"sys.argv = {['zetabf'] + argv!r}\n"
                  "try:\n"
                  "    runpy.run_module('zetabf', run_name='__main__')\n"
                  "except SystemExit as exc:\n"
                  "    assert exc.code == 0, exc.code\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, check=True)
        assert done.stdout.splitlines()[-1] == "[]", argv
        assert done.stdout.splitlines()[0].startswith(first), argv


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


def test_reused_parser_runs_like_a_fresh_one(tmp_path):
    """main builds its parser once per process; good and refused argument
    lists, interleaved through the one parser, each print and exit as they
    do with a parser of their own."""
    config = tmp_path / "alpha.conf"
    config.write_text("alpha = 1\n")
    interleaved = [
        ["verify", "--criteria", "2"],
        ["verify", "--criteria", "x"],
        ["torsion", "--model", "circle", "--theta", "2"],
        ["torsion", "--model", "circle", "--theta", "2", "--alpha", "1"],
        ["torsion", "--model", "circle", "--config", str(config)],
        ["bf", "--model", "torus", "--alpha", "1.0", "--beta", "0.5", "--samples", "3"],
        ["orbits", "--J", "0"],
        ["zeta", "--A", "2,1,1,1", "--lambda-steps", "2", "--format", "json"],
        ["verify", "--criteria", "2"],
        ["nonsense"],
        ["torsion", "--model", "circle", "--theta", "2"],
    ]
    build_parser.cache_clear()
    reused = [run_cli(argv) for argv in interleaved]
    assert build_parser.cache_info().misses == 1
    fresh = []
    for argv in interleaved:
        build_parser.cache_clear()
        fresh.append(run_cli(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [EXIT_OK, EXIT_PARSE, EXIT_OK, EXIT_PARSE,
                                               EXIT_PARSE, EXIT_OK, EXIT_PARSE, EXIT_OK,
                                               EXIT_OK, EXIT_PARSE, EXIT_OK]


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


@pytest.mark.parametrize("command", ["torsion", "bf", "zeta"])
def test_text_format_is_refused(command, tmp_path):
    # csv, the default, and json are the two formats; text was a second
    # name for csv
    code, out, err = run_cli([command, "--format", "text"])
    assert (code, out) == (EXIT_PARSE, "")
    assert "must be one of csv/json, got 'text'" in err
    config = tmp_path / "fmt.conf"
    config.write_text("fmt = text\n")
    code, out, err = run_cli([command, "--config", str(config)])
    assert (code, out) == (EXIT_PARSE, "")
    assert "line 1: fmt must be one of csv/json, got 'text'" in err


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
