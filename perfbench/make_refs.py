"""Regenerate `refs.json`: sympy's reduced grevlex bases of the named systems.

    python3 perfbench/make_refs.py

The benchmark never calls sympy while it runs; it compares against this
stored file.  Each basis is a list of polynomials, each a list of
[exponents, coefficient] with coefficients as strings (residues mod p over
F_p).
"""

from __future__ import annotations

import json
import os
import sys

import sympy

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import corpus  # noqa: E402


def sympy_basis(names, polys, field):
    gens = sympy.symbols(names)
    exprs = [sympy.sympify(p.replace("^", "**"),
                           locals=dict(zip(names, gens))) for p in polys]
    opts = {"order": "grevlex"}
    if field == "Q":
        opts["domain"] = sympy.QQ
    else:
        opts["modulus"] = corpus.PRIME
    G = sympy.groebner(exprs, *gens, **opts)
    out = []
    for g in G.exprs:
        terms = sympy.Poly(g, *gens, **({"domain": sympy.QQ} if field == "Q"
                                        else {"modulus": corpus.PRIME})).terms()
        if field == "Q":
            out.append([[list(m), str(sympy.Rational(c))] for m, c in terms])
        else:
            out.append([[list(m), str(int(c) % corpus.PRIME)]
                        for m, c in terms])
    return out


def main() -> None:
    refs = {"gb": {}}
    for name, field in corpus.NAMED_GB:
        names, polys = corpus.NAMED_SYSTEMS[name]
        refs["gb"][f"{name}/{field}"] = sympy_basis(names, polys, field)
        print(f"{name}/{field}: {len(refs['gb'][f'{name}/{field}'])} elements",
              flush=True)
    with open(corpus.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
