"""Golden CLI transcripts.

Each case runs `ffr.cli.run` in a scratch directory holding the input files
below and compares, byte for byte, the exit code, stdout, stderr and the
`--out` file with the transcript stored in `data/cli_golden.json`.  The
only field that may differ is the value of `timing_ms`.

After a deliberate change to reports or messages, record the transcripts
again with `PYTHONPATH=src python tests/test_cli_golden.py`.
"""

import json
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from ffr.cli import run

DATA = Path(__file__).parent / "data" / "cli_golden.json"
TIMING = re.compile(r'"timing_ms": [-+0-9.eE]+')

XY = {"field": "Q", "vars": ["x", "y"]}
FILES = {
    "koszul2.json": json.dumps({**XY, "matrices": [[["x", "y"]],
                                                   [["-y"], ["x"]]]}),
    "broken.json": json.dumps({**XY, "matrices": [[["x", "y"]],
                                                  [["0"], ["0"]]],
                               "expected_ranks": [0, 1, 1]}),
    "koszul2-fp.json": json.dumps({"field": "Fp:5", "vars": ["x", "y", "z"],
                                   "order": "lex", "relations": ["z^2"],
                                   "matrices": [[["x", "y"]],
                                                [["-y"], ["x"]]]}),
    "diag.json": json.dumps({**XY, "matrices": [[["x", "0"], ["0", "y"]]]}),
    "not-square.json": json.dumps({**XY, "matrices": [[["x", "y"]]]}),
    "zero-det.json": json.dumps({**XY, "matrices": [[["x", "y"],
                                                     ["x", "y"]]]}),
    "mismatch.json": json.dumps({**XY, "matrices": [[["x", "y"]],
                                                    [["x", "y"]]]}),
    "no-matrices.json": json.dumps(XY),
    "ragged.json": json.dumps({**XY, "matrices": [["x"]]}),
    "bad.json": '{"field": "Q", "vars": [',
    "bad-field.json": json.dumps({"field": "R", "vars": ["x"],
                                  "matrices": [[["x"]]]}),
    "hb.json": json.dumps({**XY, "matrix": [["y^2", "0"], ["-x", "y^2"],
                                            ["0", "-x^2"]]}),
    "hb-fp.json": json.dumps({"field": "Fp:7", "vars": ["x", "y"],
                              "matrix": [["y", "0"], ["-x", "y"],
                                         ["0", "-x"]]}),
    "hb-no-matrix.json": json.dumps(XY),
    "hb-bad-entry.json": json.dumps({**XY, "matrix": [["z", "0"],
                                                      ["-x", "y"],
                                                      ["0", "-x"]]}),
}

RING_DOC = json.dumps({"field": "Q", "vars": ["x", "y", "z"],
                       "order": "grevlex", "relations": ["x*(y-1)"]})
MODULE = json.dumps({"rank": 2, "presentation": [["x", "0"], ["0", "y"]]})

CASES = {
    # one or more successful runs of every subcommand
    "gb-json-list": ["gb", "--vars", "x,y", "--ideal", '["x+y","x-y"]'],
    "gb-comma-list-fp-lex": ["gb", "--field", "Fp:7", "--order", "lex",
                             "--vars", "x,y", "--ideal", "x^2-y, x*y-1"],
    "gb-ideal-object": ["gb", "--vars", '["x","y"]',
                        "--ideal", '{"gens": ["x^2*y", "x*y^3"]}'],
    "gb-ring-doc": ["gb", "--ring", json.dumps(
        {"field": "Fp:5", "vars": ["x", "y"], "order": "lex"}),
        "--ideal", '["x^5-y","3*x*y"]'],
    # commands without --relations ignore the relations of a ring document
    "gb-ring-doc-ignores-relations": [
        "gb", "--ring", '{"vars":["x"],"relations":["x^"]}', "--ideal", "x"],
    "gb-empty-ideal": ["gb", "--vars", "x", "--ideal", ""],
    # member echoes the raw generators, duplicates and zeros included
    "member-raw-echo": ["member", "--vars", "x,y",
                        "--ideal", '["x","-x","0","y"]', "--poly", "x^2+y"],
    "member-not-member-eq-syntax": ["member", "--vars", "x,y",
                                    "--ideal", '["x"]', "--poly=y"],
    # colon, sat and dim echo the deduplicated generators
    "colon-dedup-echo": ["colon", "--vars", "x,y",
                         "--ideal", '["x^2","y^2","-y^2","0"]',
                         "--by", '["x*y","0"]'],
    "sat-dedup-echo": ["sat", "--vars", "x,y", "--ideal", '["x*y","x*y"]',
                       "--poly", "y"],
    "dim-dedup-echo": ["dim", "--vars", "x,y,z",
                       "--ideal", '["x*y","x*z","-x*z"]'],
    "dim-out-file": ["dim", "--vars", "x", "--ideal", '["x"]',
                     "--out", "report.json"],
    "depth-fails-witness": ["depth", "--vars", "x,y", "--ideal", '["x","y"]',
                            "--atleast", "3"],
    "depth-ring-doc": ["depth", "--ring", RING_DOC,
                       "--ideal", '["y","z*(y-1)"]', "--atleast", "2"],
    "depth-module": ["depth", "--vars", "x,y", "--ideal", "x,y",
                     "--module", MODULE, "--atleast", "1"],
    "depth-value-infinity": ["depth-value", "--vars", "x", "--ideal", '["1"]'],
    "depth-value-module": ["depth-value", "--vars", "x,y", "--ideal", "x,y",
                           "--module", MODULE],
    "depth-value-relations": ["depth-value", "--vars", "x,y",
                              "--relations", "x*y", "--ideal", "x,y"],
    "secant-json": ["secant", "--vars", "x,y,z",
                    "--relations", '["x*(y-1)"]',
                    "--seq", '["z*(y-1)","y"]'],
    "secant-comma-not-secant": ["secant", "--vars", "x,y",
                                "--seq", "x*y, x^2"],
    "wiebe": ["wiebe", "--vars", "x,y", "--c", '["x^2","y^2"]',
              "--a", '["x","y"]', "--u", '[["x","0"],["0","y"]]'],
    "wiebe-comma": ["wiebe", "--vars", "x,y", "--c", "x^3,y^2",
                    "--a", "x,y", "--u", '[["x^2","0"],["0","y"]]',
                    "--out", "wiebe.json"],
    "certify-exact": ["certify", "--complex", "koszul2.json"],
    "certify-not-exact": ["certify", "--complex", "broken.json"],
    "certify-fp-relations": ["certify", "--complex", "koszul2-fp.json"],
    "certify-out-file": ["certify", "--complex", "koszul2.json",
                         "--out", "certify.json"],
    "cayley-factorized": ["cayley", "--complex", "diag.json"],
    "cayley-koszul": ["cayley", "--complex", "koszul2.json"],
    "cayley-not-square": ["cayley", "--complex", "not-square.json"],
    "cayley-zero-det": ["cayley", "--complex", "zero-det.json"],
    "hilbert-burch-alpha": ["hilbert-burch", "--matrix", "hb.json",
                            "--alpha", '["x^3","x^2*y^2","y^4"]'],
    "hilbert-burch-no-alpha": ["hilbert-burch", "--matrix", "hb.json"],
    "hilbert-burch-fp-comma-alpha": ["hilbert-burch", "--matrix", "hb-fp.json",
                                     "--alpha", "x^2,x*y,y^2"],
    "resultant-default-vars": ["resultant", "--P", "X+2*Y",
                               "--Q", "X^2+X*Y+Y^2", "--d", "2"],
    "resultant-eq-syntax": ["resultant", "--vars", "U,V", "--P=-U+V",
                            "--Q=U^2-3*V^2", "--d", "3"],
    "resultant-fp": ["resultant", "--field", "Fp:7", "--order", "lex",
                     "--P", "X+2*Y", "--Q", "X^2+X*Y+Y^2", "--d", "2"],
    "taylor-flags": ["taylor", "--vars", "x,y,z",
                     "--monomials", "x^2*y,x*y^3,x,y*z",
                     "--check-homotopy", "--minimal"],
    "taylor-json": ["taylor", "--vars", "x,y", "--monomials", '["x^2","y^2"]'],
    "mccoy-injective": ["mccoy", "--vars", "x,y",
                        "--matrix", '[["x"],["y"]]'],
    "mccoy-relations": ["mccoy", "--vars", "x", "--relations", '["x^2"]',
                        "--matrix", '[["x"]]'],
    "mccoy-ring-doc": ["mccoy", "--ring", RING_DOC,
                       "--matrix", '[["y-1"],["z"]]'],
    "hodge-selftest": ["hodge-selftest", "--n", "3"],
    "version": ["--version"],
    # exit 2: malformed input
    "bad-ring-json": ["gb", "--ring", "{bad", "--ideal", "x"],
    "ring-doc-missing-vars": ["gb", "--ring", '{"field":"Q"}', "--ideal", "x"],
    "ring-doc-bad-field": ["depth-value", "--ring",
                           '{"field":"Fp:x","vars":["x"]}', "--ideal", "x"],
    "bad-ideal-json": ["gb", "--vars", "x", "--ideal", '{"gens": ['],
    "ideal-object-missing-gens": ["gb", "--vars", "x", "--ideal", '{"g": 1}'],
    "ideal-object-gens-not-list": ["gb", "--vars", "x",
                                   "--ideal", '{"gens": "x"}'],
    "bad-list-json": ["gb", "--vars", "x", "--ideal", "[unclosed"],
    "list-not-strings": ["secant", "--vars", "x", "--seq", "[1, 2]"],
    "bad-vars-json": ["gb", "--vars", "[x", "--ideal", "x"],
    "bad-relations-json": ["mccoy", "--vars", "x", "--relations", "[x",
                           "--matrix", '[["x"]]'],
    "bad-module-json": ["depth-value", "--vars", "x", "--ideal", "x",
                        "--module", "{bad"],
    "module-missing-rank": ["depth-value", "--vars", "x", "--ideal", "x",
                            "--module", '{"presentation": []}'],
    "module-bad-rank": ["depth", "--vars", "x", "--ideal", "x",
                        "--module", '{"rank": -1}', "--atleast", "1"],
    "module-ragged": ["depth-value", "--vars", "x", "--ideal", "x",
                      "--module", '{"rank": 2, "presentation": [["x"]]}'],
    "bad-wiebe-matrix-json": ["wiebe", "--vars", "x,y", "--c", "x",
                              "--a", "x", "--u", "[["],
    "bad-mccoy-matrix-json": ["mccoy", "--vars", "x", "--matrix", "[["],
    "mccoy-matrix-not-rows": ["mccoy", "--vars", "x", "--matrix", '["x"]'],
    "bad-complex-json": ["certify", "--complex", "bad.json"],
    "bad-hb-matrix-json": ["hilbert-burch", "--matrix", "bad.json"],
    "missing-complex-file": ["cayley", "--complex", "missing.json"],
    "missing-matrix-file": ["hilbert-burch", "--matrix", "missing.json"],
    "complex-missing-matrices": ["certify", "--complex", "no-matrices.json"],
    "complex-ragged-matrix": ["certify", "--complex", "ragged.json"],
    "complex-bad-field": ["certify", "--complex", "bad-field.json"],
    "complex-shape-mismatch": ["certify", "--complex", "mismatch.json"],
    "hb-missing-matrix-key": ["hilbert-burch", "--matrix",
                              "hb-no-matrix.json"],
    # a bad matrix is reported before a bad --alpha
    "hb-bad-matrix-before-alpha": ["hilbert-burch", "--matrix",
                                   "hb-bad-entry.json", "--alpha", "[bad"],
    "hb-bad-alpha": ["hilbert-burch", "--matrix", "hb.json", "--alpha", "[bad"],
    "unknown-variable": ["gb", "--vars", "x", "--ideal", '["z"]'],
    "bad-poly": ["member", "--vars", "x", "--ideal", "x", "--poly", "x+*"],
    "bad-field-composite": ["gb", "--field", "Fp:6", "--vars", "x",
                            "--ideal", '["x"]'],
    "bad-field-name": ["dim", "--field", "R", "--vars", "x", "--ideal", "x"],
    "taylor-not-monomial": ["taylor", "--vars", "x,y",
                            "--monomials", "x+y"],
    "resultant-not-homogeneous": ["resultant", "--P", "X+1", "--Q", "X",
                                  "--d", "2"],
    "resultant-zero-form": ["resultant", "--P", "0", "--Q", "X", "--d", "2"],
    "resultant-three-vars": ["resultant", "--vars", "X,Y,Z", "--P", "X",
                             "--Q", "Y", "--d", "2"],
    "resultant-bad-field": ["resultant", "--field", "Fp:4", "--P", "X",
                            "--Q", "Y", "--d", "2"],
    # argparse usage errors
    "missing-required-option": ["gb", "--vars", "x"],
    "unknown-subcommand": ["frobnicate"],
    "bad-int-option": ["depth", "--vars", "x", "--ideal", "x",
                       "--atleast", "two"],
    "bad-order-choice": ["gb", "--vars", "x", "--order", "revlex",
                         "--ideal", "x"],
    "no-relations-on-gb": ["gb", "--vars", "x", "--relations", "x",
                           "--ideal", "x"],
}


def transcript(argv, workdir):
    """Exit code, stdout, stderr and `--out` file of one run in `workdir`."""
    for name, text in FILES.items():
        Path(workdir, name).write_text(text, encoding="utf-8")
    out, err = StringIO(), StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:  # argparse usage errors, --version
                code = exc.code
    finally:
        os.chdir(cwd)
    report = None
    if "--out" in argv:
        path = Path(workdir, argv[argv.index("--out") + 1])
        if path.exists():
            report = path.read_text(encoding="utf-8")
    clean = lambda s: None if s is None else TIMING.sub('"timing_ms": 0', s)
    return {"code": code, "stdout": clean(out.getvalue()),
            "stderr": err.getvalue(), "out": clean(report)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_transcript(name, golden, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert transcript(CASES[name], tmp_path) == golden[name]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    record = {}
    for case, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            record[case] = transcript(argv, tmp)
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"recorded {len(record)} transcripts in {DATA}", file=sys.stderr)
