"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run the library on whole corpora (about five minutes in all), so they
are kept out of the repository's own test run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import corpus
import decide

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


@pytest.fixture(scope="module")
def lib():
    return decide.load_library(os.path.join(ROOT, "src"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def _corpus(workload, seed, long=False):
    return {"certify": lambda: corpus.certify_corpus(seed, long),
            "depth": lambda: corpus.depth_corpus(seed),
            "gb": lambda: corpus.gb_corpus(seed, corpus.load_refs(), long),
            "cli": lambda: corpus.cli_corpus(seed)}[workload]()


@pytest.mark.parametrize("workload", ["certify", "depth", "gb", "cli"])
def test_every_verdict_matches_its_reference(lib, workload, tmp_path):
    # with the long instances, so that those are checked too
    insts = _corpus(workload, SEED, long=True)
    wrong = []
    for inst in insts:
        for name, doc in inst["data"].get("files", {}).items():
            (tmp_path / name).write_text(json.dumps(doc))
        raw = decide.decide(lib, inst, str(tmp_path))
        if not decide.check(lib, inst, raw):
            wrong.append(inst["id"])
    assert not wrong


@pytest.mark.parametrize("workload,seeds", [
    ("depth", (SEED, SEED)), ("cli", (SEED, SEED)),
    # another seed rescales by units: other text, the same work
    ("certify", (SEED, SEED + 1)), ("depth", (SEED, SEED + 1)),
    ("gb", (SEED, SEED + 1))])
def test_traced_counts_repeat(workload, seeds):
    if seeds[0] != seeds[1]:
        assert ([i["data"] for i in _corpus(workload, seeds[0])]
                != [i["data"] for i in _corpus(workload, seeds[1])])
    runs = []
    for seed in seeds:
        proc = _bench("--workload", workload, "--seed", str(seed),
                      "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"]
        runs.append({k: v["value"] for k, v in result["metrics"].items()
                     if v["unit"] in ("count", "bytes")})
    assert runs[0] == runs[1]
    assert any(runs[0].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench("--workload", "depth", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_resultant_oracle_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    X, Y = sympy.symbols("X Y")
    for pc, qc in [([1, 2], [1, 1, 1]), ([3, 0, -1], [2, 1, 0, 5]),
                   ([1, -2, 3], [-1, 1, 2])]:
        P = sum(c * X**i * Y**(len(pc) - 1 - i) for i, c in enumerate(pc))
        Q = sum(c * X**i * Y**(len(qc) - 1 - i) for i, c in enumerate(qc))
        expected = sympy.resultant(P.subs(Y, 1), Q.subs(Y, 1), X)
        assert abs(corpus.sylvester_resultant(pc, qc)) == abs(expected)


def test_dense_construction_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    import random
    shape, rng = random.Random(0), random.Random(SEED)
    names = ["x", "y", "z", "w"]
    gens = sympy.symbols(names)
    for _ in range(3):
        G, F = corpus.rescaled(rng, *corpus.dense_system(shape, 4), 4, "Q")
        exprs = [sympy.sympify(corpus.ptext(f, names).replace("^", "**"))
                 for f in F]
        basis = sympy.groebner(exprs, *gens, order="grevlex",
                               domain=sympy.QQ)
        got = [dict(sympy.Poly(g, *gens).terms()) for g in basis.exprs]
        assert corpus.canon_basis(got, "Q") == corpus.canon_basis(G, "Q")
