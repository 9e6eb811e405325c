"""Time-to-verdict for one instance, and the check of that verdict.

`decide(lib, inst, ...)` is the timed part: it builds every library object
from the instance text and asks for the verdict, including the library's
own re-checks.  `check(lib, inst, raw)` runs outside the timed region and
compares the verdict with the instance's known answer.

`lib` is the namespace returned by `load_library()`; the library is always
reached through it, so a fresh import (set-up) or installed trace wrappers
are what the timed code calls.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import time
import types
from fractions import Fraction

import corpus

LAYERS = ("ring", "groebner", "algebra", "depth", "exterior", "complexes",
          "cayley", "monomial", "cli")


def load_library(src_dir: str) -> types.SimpleNamespace:
    """Import `ffr` afresh from src_dir and return its layer modules."""
    for name in [m for m in sys.modules if m == "ffr" or m.startswith("ffr.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    if sys.path[0] != src_dir:
        sys.path.insert(0, src_dir)
    pkg = importlib.import_module("ffr")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(
            src_dir, "ffr"):
        raise ImportError(f"ffr imported from {pkg.__file__}, not {src_dir}")
    return types.SimpleNamespace(**{layer: importlib.import_module(
        f"ffr.{layer}") for layer in LAYERS})


def _field(lib, text):
    return lib.ring.QQ if text == "Q" else lib.ring.CoefField(int(text[3:]))


def _ring(lib, inst):
    data = inst["data"]
    return lib.ring.PolyRing(_field(lib, inst["field"]), data["vars"])


def _complex(lib, doc):
    R = lib.ring.PolyRing(_field(lib, doc["field"]), doc["vars"])
    A = lib.algebra.FPAlgebra.polynomial(R)
    parse = lib.ring.parse_poly
    mats = [lib.complexes.RingMatrix(A, [[parse(s, R) for s in row]
                                         for row in m])
            for m in doc["matrices"]]
    return lib.complexes.FreeComplex(A, mats)


def _certify(lib, inst):
    return lib.complexes.certify_exact(_complex(lib, inst["data"]))


def _taylor(lib, inst):
    R = _ring(lib, inst)
    m = lib.monomial.MonomialList.parse(R, inst["data"]["monomials"])
    return lib.complexes.certify_exact(lib.monomial.taylor_complex(m).complex)


def _cayley(lib, inst):
    return lib.cayley.cayley_factorize(_complex(lib, inst["data"])).det


def _resultant(lib, inst):
    R2 = lib.ring.PolyRing(lib.ring.QQ, ["X", "Y"])
    base = lib.ring.PolyRing(lib.ring.QQ, [])

    def coeffs(text):
        p = lib.ring.parse_poly(text, R2)
        by_x = lib.ring.coefficients_in(p, 0)
        out = []
        for k in range(p.degree() + 1):
            c = by_x.get(k)
            out.append(base.zero() if c is None else
                       base.const(next(iter(c.terms.values()))))
        return out
    A = lib.algebra.FPAlgebra.polynomial(base)
    data = inst["data"]
    return lib.cayley.resultant_via_cayley(A, coeffs(data["P"]),
                                           coeffs(data["Q"]), data["d"])


def _depth(lib, inst):
    R = _ring(lib, inst)
    A = lib.algebra.FPAlgebra.polynomial(R)
    a = lib.algebra.AIdeal(A, [lib.ring.parse_poly(s, R)
                               for s in inst["data"]["gens"]])
    depth = lib.depth.depth_value(a, lib.algebra.AModule.free(A, 1))
    return depth, lib.algebra.quotient_dimension(A, a)


def _gb(lib, inst):
    R = _ring(lib, inst)
    I = lib.groebner.IdealGens(R, [lib.ring.parse_poly(s, R)
                                   for s in inst["data"]["gens"]])
    G = I.groebner()
    for g in I.gens:
        if not G.normal_form(g).is_zero:
            raise RuntimeError("basis does not reduce an input to zero")
    return G.basis


def _cli(lib, inst, workdir, child=None):
    """One `python -m ffr.cli` child; with `child` (a traced entry script
    and its span file) the child runs under the trace wrappers."""
    argv = inst["data"]["argv"]
    cmd = ([sys.executable, "-m", "ffr.cli"] if child is None
           else [sys.executable, child[0], child[1]]) + argv
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True,
                          env=cli_env(lib), timeout=120)
    wall_ms = (time.perf_counter() - t0) * 1000
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout, wall_ms


def cli_env(lib) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(lib.ring.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("PYTHONSTARTUP", None)
    return env


DECIDERS = {
    "koszul": _certify, "koszul-disguised": _certify,
    "koszul-broken": _certify, "taylor": _taylor, "cayley": _cayley,
    "resultant": _resultant, "monomial": _depth, "binomial": _depth,
    "trinomial": _depth, "determinantal": _depth, "cyclic": _gb,
    "katsura": _gb, "dense": _gb,
}


def decide(lib, inst, workdir=None, child=None):
    if inst["kind"].startswith("cli:"):
        return _cli(lib, inst, workdir, child)
    return DECIDERS[inst["kind"]](lib, inst)

# ---------------------------------------------------------------------------
# checks against the known answers (outside the timed region)


def _constant(p):
    if len(p.terms) != 1 or any(any(m) for m in p.terms):
        return None
    return Fraction(next(iter(p.terms.values())))


def _canon_texts(lib, texts, R, field):
    return corpus.canon_basis([lib.ring.parse_poly(s, R).terms
                               for s in texts], field)


def _check_cli(lib, inst, raw) -> bool:
    report = json.loads(raw[0])
    want = inst["answer"]
    if report.get("verdict") != want["verdict"]:
        return False
    field = inst["field"]
    args = inst["data"]["argv"]
    names = (args[args.index("--vars") + 1].split(",")
             if "--vars" in args else ["x", "y"])
    R = lib.ring.PolyRing(_field(lib, field), names)
    for key in ("basis", "gens"):
        if key in want and (_canon_texts(lib, report[key], R, field)
                            != _canon_texts(lib, want[key], R, field)):
            return False
    for key in ("delta", "determinant"):
        if key in want and (lib.ring.parse_poly(report[key], R)
                            != lib.ring.parse_poly(want[key], R)):
            return False
    if "res_abs" in want and abs(Fraction(report["resultant"])) != Fraction(
            want["res_abs"]):
        return False
    return all(report[key] == want[key] for key in
               ("dimension", "depth", "ranks", "minimal",
                "homotopy_identity") if key in want)


def check(lib, inst, raw) -> bool:
    kind = inst["kind"]
    want = inst["answer"]
    if kind.startswith("cli:"):
        return _check_cli(lib, inst, raw)
    if kind in ("koszul", "koszul-disguised", "koszul-broken", "taylor"):
        if raw.exact != want["exact"] or (raw.failing_level
                                          != want["failing_level"]):
            return False
        if raw.exact:
            return True
        cond = raw.conditions[raw.failing_level - 1]
        return bool(cond.certificate.witness) and any(
            not p.is_zero for p in cond.certificate.witness)
    if kind == "cayley":
        c = None if raw is None else _constant(raw)
        return c is not None and abs(c) == Fraction(want["det_abs"])
    if kind == "resultant":
        c = _constant(raw)
        return c is not None and abs(c) == Fraction(want["res_abs"])
    if kind in ("monomial", "binomial", "trinomial", "determinantal"):
        depth, dim = raw
        return (depth + dim == want["n"]
                and want.get("depth", depth) == depth
                and want.get("dim", dim) == dim)
    return corpus.canon_basis([p.terms for p in raw],
                              inst["field"]) == want["basis"]
