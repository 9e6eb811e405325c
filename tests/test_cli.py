import json
import os
import random
import subprocess
import sys

import pytest

import ffr
from ffr.algebra import FPAlgebra
from ffr.cli import _COMMANDS, _parse_list, build_parser, run
from ffr.complexes import koszul_complex
from ffr.ring import PolyRing, QQ, parse_poly


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_gb_command(capsys):
    code, rep = run_json(capsys, ["gb", "--vars", "x,y",
                                  "--ideal", '["x+y","x-y"]'])
    assert code == 0
    assert rep["verdict"] == "computed"
    assert sorted(rep["basis"]) == ["x", "y"]


def test_gb_accepts_ideal_object(capsys):
    code, rep = run_json(capsys, ["gb", "--vars", "x,y",
                                  "--ideal", '{"gens": ["x^2*y", "x*y^3"]}'])
    assert code == 0 and len(rep["basis"]) == 2


def test_member_command(capsys):
    code, rep = run_json(capsys, ["member", "--vars", "x,y",
                                  "--ideal", '["x","y"]', "--poly", "x^2+y"])
    assert code == 0 and rep["verdict"] == "member"
    code, rep = run_json(capsys, ["member", "--vars", "x,y",
                                  "--ideal", '["x"]', "--poly", "y"])
    assert code == 0 and rep["verdict"] == "not-member"


def test_colon_and_sat(capsys):
    code, rep = run_json(capsys, ["colon", "--vars", "x,y",
                                  "--ideal", '["x^2","y^2"]',
                                  "--by", '["x*y"]'])
    assert code == 0 and sorted(rep["gens"]) == ["x", "y"]
    code, rep = run_json(capsys, ["sat", "--vars", "x,y",
                                  "--ideal", '["x*y"]', "--poly", "y"])
    assert code == 0 and rep["gens"] == ["x"]


def test_dim_command(capsys):
    code, rep = run_json(capsys, ["dim", "--vars", "x,y,z",
                                  "--ideal", '["x*y","x*z"]'])
    assert code == 0 and rep["dimension"] == 2


def test_depth_fails_with_witness(capsys):
    code, rep = run_json(capsys, ["depth", "--vars", "x,y",
                                  "--ideal", '["x","y"]', "--atleast", "3"])
    assert code == 0
    assert rep["verdict"].startswith("fails at")
    assert rep["certificate"]["witness"]


def test_depth_holds(capsys):
    code, rep = run_json(capsys, ["depth", "--vars", "x,y",
                                  "--ideal", '["x","y"]', "--atleast", "2"])
    assert code == 0 and rep["verdict"] == "at least 2"


def test_depth_value_infinity(capsys):
    code, rep = run_json(capsys, ["depth-value", "--vars", "x",
                                  "--ideal", '["1"]'])
    assert code == 0 and rep["depth"] == "infinity"


def test_depth_value_dimension_mismatch_exits_4(monkeypatch, capsys):
    # a non-maximal independent set claims depth 3; the lower bound refuses
    import ffr.groebner as gb
    monkeypatch.setattr(gb, "independent_set", lambda I: ())
    code = run(["depth-value", "--vars", "x,y,z", "--ideal", '["x*y","x*z"]'])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.startswith("ffr: internal verification failure: ")


def test_secant_with_relations(capsys):
    code, rep = run_json(capsys, [
        "secant", "--vars", "x,y,z", "--relations", '["x*(y-1)"]',
        "--seq", '["z*(y-1)","y"]'])
    assert code == 0 and rep["verdict"] == "completely-secant"


def test_wiebe_command(capsys):
    code, rep = run_json(capsys, [
        "wiebe", "--vars", "x,y", "--c", '["x^2","y^2"]', "--a", '["x","y"]',
        "--u", '[["x","0"],["0","y"]]'])
    assert code == 0 and rep["verdict"] == "holds"
    assert rep["delta"] == "x*y"


def test_certify_command(tmp_path, capsys):
    doc = {"field": "Q", "vars": ["x", "y"],
           "matrices": [[["x", "y"]], [["-y"], ["x"]]]}
    path = tmp_path / "koszul2.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(capsys, ["certify", "--complex", str(path)])
    assert code == 0 and rep["verdict"] == "exact"
    assert [c["verdict"] for c in rep["conditions"]] == ["holds", "holds"]


def test_certify_rejects_with_witness(tmp_path, capsys):
    doc = {"field": "Q", "vars": ["x", "y"],
           "matrices": [[["x", "y"]], [["0"], ["0"]]],
           "expected_ranks": [0, 1, 1]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(capsys, ["certify", "--complex", str(path)])
    assert code == 0 and rep["verdict"] == "not-exact"
    failing = [c for c in rep["conditions"] if c["verdict"] == "fails"]
    assert failing and failing[0]["witness"]


def test_certify_reports_skipped_levels(tmp_path, capsys):
    # the Koszul complex of (xy, xz, x) fails at level 2, so level 3 is
    # skipped and carries no certificate fields
    R = PolyRing(QQ, ["x", "y", "z"])
    C = koszul_complex(FPAlgebra(R, []),
                       [parse_poly(s, R) for s in ("x*y", "x*z", "x")])
    doc = {"field": "Q", "vars": list(R.vars),
           "matrices": [[[str(p) for p in row]
                         for row in C.matrix(i).entries]
                        for i in range(1, C.length + 1)]}
    path = tmp_path / "koszul_xy_xz_x.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(capsys, ["certify", "--complex", str(path)])
    assert code == 0 and rep["verdict"] == "not-exact"
    assert [c["verdict"] for c in rep["conditions"]] == [
        "holds", "fails", "skipped"]
    last = rep["conditions"][2]
    assert last["level"] == 3
    assert not {"holds", "k", "fail_stage", "witness"} & last.keys()


def test_cayley_command(tmp_path, capsys):
    doc = {"field": "Q", "vars": ["x", "y"],
           "matrices": [[["x", "0"], ["0", "y"]]]}
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(capsys, ["cayley", "--complex", str(path)])
    assert code == 0 and rep["verdict"] == "factorized"
    assert rep["determinant"] == "x*y"


def test_hilbert_burch_command(tmp_path, capsys):
    doc = {"field": "Q", "vars": ["x", "y"],
           "matrix": [["y^2", "0"], ["-x", "y^2"], ["0", "-x^2"]]}
    path = tmp_path / "hb.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(capsys, ["hilbert-burch", "--matrix", str(path),
                                  "--alpha", '["x^3","x^2*y^2","y^4"]'])
    assert code == 0 and rep["verdict"] == "exact"
    assert rep["delta"] == ["x^3", "x^2*y^2", "y^4"]
    assert rep["factor"] == "1" and rep["factor_strong_gcd"]


def test_hilbert_burch_on_the_1x0_matrix(tmp_path, capsys):
    # no columns: Delta = (1), alpha's kernel is zero, so no vector is
    # lifted over the empty column span, and alpha = x Delta
    path = tmp_path / "hb.json"
    path.write_text(json.dumps({"vars": ["x"], "matrix": [[]]}))
    code, rep = run_json(capsys, ["hilbert-burch", "--matrix", str(path),
                                  "--alpha", "x"])
    assert code == 0 and rep["verdict"] == "exact"
    assert rep["delta"] == ["1"] and rep["factor"] == "x"
    assert rep["factor_strong_gcd"]


def test_resultant_command(capsys):
    for d in ("2", "3"):
        code, rep = run_json(capsys, ["resultant", "--P", "X+2*Y",
                                      "--Q", "X^2+X*Y+Y^2", "--d", d])
        assert code == 0
        assert rep["resultant"] in ("3", "-3")


def test_resultant_of_forms_with_a_common_factor_is_zero(capsys):
    # the Cayley hypotheses fail at level 1 (every maximal minor of S is
    # zero), which over a field is Res(P, Q) = 0
    code, rep = run_json(capsys, ["resultant", "--P", "X*Y",
                                  "--Q", "X*Y+Y^2", "--d", "3"])
    assert code == 0
    assert rep["verdict"] == "computed" and rep["resultant"] == "0"


def test_resultant_rechecks_a_failed_hypothesis(monkeypatch, capsys):
    # a CayleyError on coprime forms contradicts the nonzero minors of S
    import ffr.cayley

    def fails(*args):
        raise ffr.cayley.CayleyError("depth hypothesis fails at level 1")

    monkeypatch.setattr(ffr.cayley, "resultant_via_cayley", fails)
    assert run(["resultant", "--P", "X+2*Y", "--Q", "X-Y", "--d", "1"]) == 4
    assert "verification failure" in capsys.readouterr().err


def _random_form(rng, names):
    """A nonzero binary form of degree 1-3, coefficients in {-1, 0, 1, 2}:
    its text and its coefficients by descending power of X."""
    deg = rng.randint(1, 3)
    while True:
        coeffs = [rng.choice([-1, 0, 1, 2]) for _ in range(deg + 1)]
        if any(coeffs):
            break
    X, Y = names
    text = " + ".join(f"({c})*{X}^{deg - i}*{Y}^{i}"
                      for i, c in enumerate(coeffs))
    return text, coeffs


@pytest.mark.parametrize("field,p", [("Q", 0), ("Fp:7", 7)])
def test_resultant_matches_the_sylvester_determinant(field, p, capsys):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(24 + p)
    zeros = 0
    for _ in range(20):
        (P, pc), (Q, qc) = (_random_form(rng, "XY") for _ in range(2))
        m, n = len(pc) - 1, len(qc) - 1
        d = m + n - 1 + rng.randint(0, 1)
        code, rep = run_json(capsys, ["resultant", "--field", field,
                                      "--P", P, "--Q", Q, "--d", str(d)])
        assert code == 0
        # the classical (m + n) x (m + n) Sylvester matrix
        rows = [[0] * i + pc + [0] * (n - 1 - i) for i in range(n)]
        rows += [[0] * i + qc + [0] * (m - 1 - i) for i in range(m)]
        det = sympy.Matrix(rows).det()
        got = sympy.Rational(rep["resultant"])
        if p:
            assert (got - det) % p == 0 or (got + det) % p == 0
            zeros += det % p == 0
        else:
            assert got in (det, -det)
            zeros += det == 0
    assert zeros  # the seeded draws include forms with a common factor

def test_taylor_command(capsys):
    code, rep = run_json(capsys, [
        "taylor", "--vars", "x,y,z",
        "--monomials", "x^2*y,x*y^3,x,y*z",
        "--check-homotopy", "--minimal"])
    assert code == 0
    assert rep["homotopy_identity"] is True
    assert rep["minimal"] is False
    assert rep["ranks"] == [1, 4, 6, 4, 1]


def test_exit_2_on_taylor_without_monomials(capsys):
    # the empty list's complex would be L_0 = A, of rank 1, not "ranks": [0]
    code = run(["taylor", "--vars", "x,y", "--monomials", "",
                "--check-homotopy", "--minimal"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("ffr: input error: the Taylor complex needs at "
                            "least one monomial\n")


def test_mccoy_command(capsys):
    code, rep = run_json(capsys, ["mccoy", "--vars", "x,y",
                                  "--matrix", '[["x"],["y"]]'])
    assert code == 0 and rep["verdict"] == "injective"
    code, rep = run_json(capsys, ["mccoy", "--vars", "x", "--relations",
                                  '["x^2"]', "--matrix", '[["x"]]'])
    assert code == 0 and rep["verdict"] == "not-injective"


def test_hodge_selftest(capsys):
    code, rep = run_json(capsys, ["hodge-selftest", "--n", "4"])
    assert code == 0 and rep["verdict"] == "passed"


def test_hodge_selftest_refuses_a_negative_rank(capsys):
    code = run(["hodge-selftest", "--n", "-3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "ffr: input error: --n must be at least 0, not -3\n"
    code, rep = run_json(capsys, ["hodge-selftest", "--n", "0"])
    assert code == 0 and rep["identities_checked"] == 0


def test_ring_json_document(capsys):
    ring = json.dumps({"field": "Q", "vars": ["x", "y", "z"],
                       "order": "grevlex", "relations": ["x*(y-1)"]})
    code, rep = run_json(capsys, ["depth", "--ring", ring,
                                  "--ideal", '["y","z*(y-1)"]',
                                  "--atleast", "2"])
    assert code == 0 and rep["verdict"] == "at least 2"
    assert rep["inputs"]["relations"] == ["x*y - x"]


def test_exit_2_on_bad_json(capsys):
    code = run(["gb", "--vars", "x", "--ideal", "[unclosed"])
    assert code == 2


def test_exit_2_on_unknown_variable(capsys):
    code = run(["gb", "--vars", "x", "--ideal", '["z"]'])
    assert code == 2


def test_exit_2_on_unnameable_variable(capsys):
    # a variable no polynomial text can name is an input error
    for argv in (["gb", "--vars", "x,y z", "--ideal", "x"],
                 ["gb", "--vars", "x,2", "--ideal", "x"],
                 ["dim", "--vars", '["x", " y"]', "--ideal", "x"],
                 ["gb", "--ring", '{"vars": ["x", "x-1"]}', "--ideal", "x"]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ffr: input error: variable name ")
        assert "not a name" in captured.err


def test_exit_2_on_zero_denominator(capsys):
    code = run(["gb", "--vars", "x,y", "--ideal", "1/0, x"])
    assert code == 2
    assert "bad polynomial '1/0'" in capsys.readouterr().err


def test_exit_2_on_bad_field(capsys):
    # 2501 = 41*61 passes trial division and is caught by Miller-Rabin
    for field in ("Fp:6", "Fp:2501"):
        code = run(["gb", "--field", field, "--vars", "x", "--ideal", '["x"]'])
        assert code == 2


def test_exit_2_on_the_field_of_characteristic_0(tmp_path, capsys):
    # Fp:0 would otherwise be read as the rationals
    ring = {"field": "Fp:0", "vars": ["x", "y"]}
    (tmp_path / "c.json").write_text(json.dumps(
        {**ring, "matrices": [[["x", "y"]], [["-y"], ["x"]]]}))
    (tmp_path / "m.json").write_text(json.dumps(
        {**ring, "matrix": [["y", "0"], ["-x", "y"], ["0", "-x"]]}))
    for argv in (
            ["gb", "--field", "Fp:0", "--vars", "x", "--ideal", "x"],
            ["gb", "--ring", json.dumps(ring), "--ideal", "x"],
            ["certify", "--complex", str(tmp_path / "c.json")],
            ["hilbert-burch", "--matrix", str(tmp_path / "m.json")],
            ["resultant", "--field", "Fp:0", "--P", "X+2*Y", "--Q", "X-Y",
             "--d", "1"]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "ffr: input error: 0 is not prime\n"


def test_exit_2_on_deeply_nested_input(tmp_path, capsys):
    # polynomial text and JSON nested past the recursion limit are input
    # errors, not tracebacks
    parens = "(" * 5000 + "x" + ")" * 5000
    deep = "[" * 20000 + "]" * 20000
    (tmp_path / "c.json").write_text('{"matrices": ' + deep + "}")
    for argv, says in (
            (["gb", "--vars", "x", "--ideal", json.dumps([parens])],
             "parentheses nested too deeply"),
            (["gb", "--vars", "x", "--ideal", deep], "bad JSON list"),
            (["gb", "--ring", deep, "--ideal", '["x"]'], "bad ring JSON"),
            (["certify", "--complex", str(tmp_path / "c.json")],
             "bad complex JSON")):
        assert run(argv) == 2, argv[:3]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ffr: input error: ")
        assert says in captured.err

def test_determinism_and_round_trip(capsys):
    argv = ["depth", "--vars", "x,y", "--ideal", '["x","y"]',
            "--atleast", "3"]
    code1, rep1 = run_json(capsys, argv)
    code2, rep2 = run_json(capsys, argv)
    rep1.pop("timing_ms")
    rep2.pop("timing_ms")
    assert rep1 == rep2
    R = PolyRing(QQ, ["x", "y"])
    ext = None
    for w in rep1["certificate"]["witness"]:
        # witnesses live in the Kronecker extension; reparse there
        from ffr.ring import RESERVED_PREFIX
        names = sorted({tok for tok in w.replace("*", " ").replace("^", " ")
                        .replace("+", " ").replace("-", " ").split()
                        if tok.startswith(RESERVED_PREFIX)})
        ext = PolyRing(QQ, ["x", "y"] + names, _allow_reserved=True)
        assert parse_poly(w, ext) is not None


def test_report_written_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["dim", "--vars", "x", "--ideal", '["x"]', "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["dimension"] == 0


def test_exit_4_survives_python_O():
    # a broken Hodge star must fail the self-test even with asserts stripped
    code = ("import sys, ffr.exterior\n"
            "ffr.exterior.hodge_right = lambda x: x\n"
            "from ffr.cli import run\n"
            "sys.exit(run(['hodge-selftest', '--n', '2']))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(ffr.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("ffr: internal verification failure: ")


def test_taylor_reads_ring_document(capsys):
    # vars, field and order come from --ring; its relations are ignored,
    # as by every command without --relations
    ring = json.dumps({"field": "Fp:7", "vars": ["x", "y"], "order": "lex",
                       "relations": ["x^2"]})
    code, rep = run_json(capsys, ["taylor", "--ring", ring,
                                  "--monomials", "x,y"])
    assert code == 0
    code, flags = run_json(capsys, ["taylor", "--field", "Fp:7", "--vars",
                                    "x,y", "--order", "lex",
                                    "--monomials", "x,y"])
    assert code == 0
    for r in (rep, flags):
        r.pop("timing_ms")
    assert rep == flags
    assert rep["matrices"] == [[["x", "y"]], [["6*y"], ["x"]]]  # -1 = 6 mod 7


def test_exit_2_on_misshapen_rows(capsys):
    # rows that are not lists of strings: one input-error line, no traceback
    cases = [
        ["wiebe", "--vars", "x,y", "--c", "x", "--a", "y", "--u", "5"],
        ["wiebe", "--vars", "x,y", "--c", "x", "--a", "y", "--u", "[[1]]"],
        ["depth", "--vars", "x", "--ideal", "x", "--atleast", "1",
         "--module", '{"rank": 1, "presentation": [5]}'],
        ["mccoy", "--vars", "x", "--matrix", "[[1]]"],
    ]
    for argv in cases:
        assert run(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("ffr: input error: ") and err.count("\n") == 1
        assert "rows of strings" in err


def test_exit_2_on_unwritable_out(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    code = run(["dim", "--vars", "x", "--ideal", "x", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"ffr: input error: cannot write {out}: [Errno 2] "
                            f"No such file or directory: '{out}'\n")


def test_exit_2_on_closed_stdout():
    # the reader of the pipe is gone before the report is written: one
    # input-error line, as for an unwritable --out file, and no traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(ffr.__file__)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "from ffr.cli import main; main()",
             "dim", "--vars", "x", "--ideal", "x"],
            env={**os.environ, "PYTHONPATH": src}, stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ("ffr: input error: cannot write stdout: "
                           "[Errno 32] Broken pipe\n")


def _complex_file(tmp_path, **fields):
    doc = {"field": "Q", "vars": ["x"], "matrices": [[["x"]]], **fields}
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(doc))
    return str(path)


# wrongly typed fields of ring, ideal and complex documents: one input-error
# line and exit 2, no traceback
BAD_DOCUMENTS = {
    "vars-not-array": (["gb", "--ring", '{"vars":5}', "--ideal", "x"],
                       '"vars" must be an array of strings'),
    "vars-not-strings": (["gb", "--ring", '{"vars":[1]}', "--ideal", "x"],
                         '"vars" must be an array of strings'),
    "field-not-string": (["gb", "--ring", '{"vars":["x"],"field":5}',
                          "--ideal", "x"],
                         '"field" and "order" must be strings'),
    "gens-not-strings": (["gb", "--vars", "x", "--ideal", '{"gens":[1]}'],
                         '"gens" must be an array of strings'),
    "relations-not-array": (["depth", "--ring",
                             '{"vars":["x"],"relations":5}', "--ideal", "x",
                             "--atleast", "1"],
                            '"relations" must be an array of strings'),
    "matrices-not-array": ({"matrices": 5},
                           '"matrices" must be an array of matrices'),
    # the complex with no differential; certify and cayley refuse it alike
    "matrices-empty": ({"matrices": []}, "empty complex"),
    "expected-ranks-not-array": ({"expected_ranks": 5},
                                 '"expected_ranks" must be an array of '
                                 'integers'),
    # a JSON boolean is not an integer, though Python's bool is an int
    "expected-ranks-booleans": ({"expected_ranks": [False, True]},
                                '"expected_ranks" must be an array of '
                                'integers'),
    # the ranks a document states must be the ones its sizes force
    "expected-ranks-disagree": ({"expected_ranks": [1, 0]},
                                '"expected_ranks" [1, 0] disagree with the '
                                'ranks the sizes force, [0, 1, 0]'),
    "expected-ranks-too-long": ({"expected_ranks": [0, 1, 0, 0]},
                                '"expected_ranks" [0, 1, 0, 0] disagree with '
                                'the ranks the sizes force, [0, 1, 0]'),
    "module-rank-boolean": (["depth", "--vars", "x", "--ideal", "x",
                             "--atleast", "1", "--module",
                             '{"rank": true, "presentation": []}'],
                            "bad module document"),
}


@pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
def test_exit_2_on_wrongly_typed_document(case, tmp_path, capsys):
    argv, message = BAD_DOCUMENTS[case]
    if isinstance(argv, dict):
        argv = ["certify", "--complex", _complex_file(tmp_path, **argv)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ffr: input error: {message}\n"


@pytest.mark.parametrize("ranks", [[0, 1], [0, 1, 0]])
def test_certify_accepts_expected_ranks_that_agree(ranks, tmp_path, capsys):
    # with or without the trailing r_{m+1} = 0
    path = _complex_file(tmp_path, expected_ranks=ranks)
    code, rep = run_json(capsys, ["certify", "--complex", path])
    assert code == 0 and rep["verdict"] == "exact"
    assert rep["expected_ranks"] == [0, 1, 0]


@pytest.mark.parametrize("text", ["", None, "  "])
def test_parse_list_of_nothing_is_empty(text):
    assert _parse_list(text) == []


# ---------------------------------------------------------------------------
# start-up: each subcommand loads only the layers it runs

IDEAL_LAYERS = {"cli", "ring", "groebner", "algebra"}
DEPTH_LAYERS = IDEAL_LAYERS | {"depth", "exterior"}
COMPLEX_LAYERS = DEPTH_LAYERS | {"complexes"}
STARTUP = {  # subcommand -> (one valid argv, the ffr modules it loads)
    "gb": (["--vars", "x,y", "--ideal", "x+y,x-y"], IDEAL_LAYERS),
    "member": (["--vars", "x,y", "--ideal", "x,y", "--poly", "x^2+y"],
               IDEAL_LAYERS),
    "colon": (["--vars", "x,y", "--ideal", "x^2,y^2", "--by", "x*y"],
              IDEAL_LAYERS),
    "sat": (["--vars", "x,y", "--ideal", "x*y", "--poly", "y"],
            IDEAL_LAYERS),
    "dim": (["--vars", "x,y", "--ideal", "x*y"], IDEAL_LAYERS),
    "depth": (["--vars", "x,y", "--ideal", "x,y", "--atleast", "2"],
              IDEAL_LAYERS | {"depth"}),
    "depth-value": (["--vars", "x,y", "--ideal", "x,y"],
                    IDEAL_LAYERS | {"depth"}),
    "secant": (["--vars", "x,y", "--seq", "x,y"], IDEAL_LAYERS | {"depth"}),
    "wiebe": (["--vars", "x,y", "--c", "x^2,y^2", "--a", "x,y",
               "--u", '[["x","0"],["0","y"]]'], DEPTH_LAYERS),
    "certify": (["--complex", "koszul2.json"], COMPLEX_LAYERS),
    "mccoy": (["--vars", "x,y", "--matrix", '[["x"],["y"]]'],
              COMPLEX_LAYERS),
    "cayley": (["--complex", "koszul2.json"], COMPLEX_LAYERS | {"cayley"}),
    "hilbert-burch": (["--matrix", "hb.json", "--alpha", "x^2,x*y,y^2"],
                      COMPLEX_LAYERS | {"cayley"}),
    "resultant": (["--P", "X+2*Y", "--Q", "X^2+X*Y+Y^2", "--d", "2"],
                  COMPLEX_LAYERS | {"cayley"}),
    "taylor": (["--vars", "x,y", "--monomials", "x^2,y^2",
                "--check-homotopy"], COMPLEX_LAYERS | {"monomial"}),
    "hodge-selftest": (["--n", "2"], IDEAL_LAYERS | {"exterior"}),
}
# runs one subcommand in a fresh interpreter, then prints its exit code,
# the ffr modules loaded and whether dataclasses was imported (no layer
# needs it: the result records are NamedTuples)
STARTUP_CHILD = """import json, sys
from ffr.cli import run
code = run(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m[4:] for m in sys.modules
                               if m.startswith("ffr.")),
                  "dataclasses" in sys.modules]))
"""


@pytest.mark.parametrize("command", _COMMANDS)
def test_subcommand_loads_only_its_layers(command, tmp_path):
    argv, layers = STARTUP[command]
    (tmp_path / "koszul2.json").write_text(json.dumps(
        {"field": "Q", "vars": ["x", "y"],
         "matrices": [[["x", "y"]], [["-y"], ["x"]]]}))
    (tmp_path / "hb.json").write_text(json.dumps(
        {"field": "Q", "vars": ["x", "y"],
         "matrix": [["y", "0"], ["-x", "y"], ["0", "-x"]]}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(ffr.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_CHILD, json.dumps([command] + argv)],
        env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    code, loaded, dataclasses = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert set(loaded) == layers
    assert not dataclasses


def _parse_outcome(parser, argv, capsys):
    """(exit status, stdout, stderr) of parsing argv, which must exit."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [["--help"]] + [
    [command] + tail for command in _COMMANDS
    for tail in (["--help"], ["--bogus", "1"],
                 STARTUP[command][0] + ["--bogus", "1"])], ids=" ".join)
def test_one_subcommand_parser_matches_full_parser(argv, capsys):
    # run() builds only argv[0]'s subparser; its help, usage and errors are
    # those of the parser of every subcommand (a missing required option is
    # reported by the subparser, an unknown one by the top-level parser)
    full = _parse_outcome(build_parser(), argv, capsys)
    assert _parse_outcome(build_parser(argv[0]), argv, capsys) == full
    with pytest.raises(SystemExit) as exc:
        run(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == full
    assert full[0] == (0 if argv[-1] == "--help" else 2)
