"""The `ffr` command line front end.

Every subcommand reads polynomial text / JSON documents, runs one
certification, re-verifies its own certificate, and emits a JSON report
to stdout (or --out).  Reports are deterministic for identical inputs up
to the timing field; every polynomial they print reparses to an equal
polynomial.

Exit codes: 0 verdict computed (even a negative verdict), 2 schema
violation, 3 ring or arity mismatch, 4 internal verification failure.

Only the standard library and `ring` load with this module; each
subcommand imports the layers it runs where it runs them, so `ffr gb`
never loads the complexes, Cayley or Taylor layers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__
from .ring import (CoefField, FFRError, ParseError, Poly, PolyRing, QQ,
                   RankObstructionError, RingMismatchError, VerificationError,
                   parse_poly)

if TYPE_CHECKING:
    from .algebra import AModule, FPAlgebra
    from .complexes import FreeComplex, RingMatrix


class SchemaError(FFRError):
    """Malformed CLI input document."""


# ---------------------------------------------------------------------------
# input parsing

def _json(text: str, message: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError(f"{message}: {exc}") from None


def _json_file(path: str, kind: str, key: str) -> dict:
    """A complex or matrix document: a JSON object with the entry `key`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    doc = _json(text, f"bad {kind} JSON")
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f'{kind} document needs "{key}"')
    return doc


def _parse_field(text: str) -> CoefField:
    if text == "Q":
        return QQ
    if text.startswith("Fp:"):
        try:
            p = int(text[3:])
            if not p:  # CoefField(0) is the rationals
                raise ValueError("0 is not prime")
            return CoefField(p)
        except ValueError as exc:
            raise SchemaError(str(exc)) from None
    raise SchemaError(f"unknown field {text!r} (use Q or Fp:<prime>)")


def _parse_list(text: Optional[str]) -> list[str]:
    """A JSON array of strings, or a comma-separated list."""
    text = (text or "").strip()
    if text.startswith("["):
        data = _json(text, "bad JSON list")
        if not isinstance(data, list) or not all(isinstance(s, str)
                                                 for s in data):
            raise SchemaError("expected a JSON array of strings")
        return data
    return [s for s in (part.strip() for part in text.split(",")) if s]


def _array(value, name: str, item=str, items: str = "strings") -> list:
    """A document field that must be a JSON array of `item`s; a JSON
    boolean is none of them, though Python's bool is an int."""
    if not isinstance(value, list) or not all(
            isinstance(x, item) and not isinstance(x, bool) for x in value):
        raise SchemaError(f"{name} must be an array of {items}")
    return value


def _parse_ideal_doc(text: str) -> list[str]:
    text = text.strip()
    if not text.startswith("{"):
        return _parse_list(text)
    data = _json(text, "bad ideal JSON")
    if not isinstance(data, dict) or "gens" not in data:
        raise SchemaError('ideal object needs a "gens" array')
    return _array(data["gens"], '"gens"')


def _poly(src: str, ring: PolyRing) -> Poly:
    try:
        return parse_poly(src, ring)
    except ParseError as exc:
        raise SchemaError(f"bad polynomial {src!r}: {exc}") from None


def _polys(texts, ring: PolyRing) -> list[Poly]:
    return [_poly(s, ring) for s in texts]


def _ideal(text: str, ring: PolyRing) -> list[Poly]:
    return _polys(_parse_ideal_doc(text), ring)


def _algebra_from_doc(doc: dict) -> FPAlgebra:
    """The algebra of a ring, complex or matrix document."""
    from .algebra import FPAlgebra
    field, order = doc.get("field", "Q"), doc.get("order", "grevlex")
    if not isinstance(field, str) or not isinstance(order, str):
        raise SchemaError('"field" and "order" must be strings')
    R = PolyRing(_parse_field(field), _array(doc.get("vars", []), '"vars"'),
                 order)
    return FPAlgebra(R, _polys(_array(doc.get("relations", []),
                                      '"relations"'), R))


def _algebra(args) -> FPAlgebra:
    """The algebra of --ring, or else of the ring flags.

    Commands without a --relations option ignore the relations of a ring
    document as well.
    """
    if not args.ring:
        return _algebra_from_doc({
            "field": args.field, "vars": _parse_list(args.vars),
            "order": args.order,
            "relations": _parse_list(getattr(args, "relations", ""))})
    doc = _json(args.ring, "bad ring JSON")
    if not isinstance(doc, dict) or "vars" not in doc:
        raise SchemaError('ring object needs "vars"')
    if not hasattr(args, "relations"):
        doc = {k: v for k, v in doc.items() if k != "relations"}
    return _algebra_from_doc(doc)


def _module(args, A: FPAlgebra) -> tuple[AModule, Optional[dict]]:
    """The --module cokernel (free of rank 1 when omitted) and its document."""
    from .algebra import AModule
    if not args.module:
        return AModule.free(A, 1), None
    doc = _json(args.module, "bad module JSON")
    if not isinstance(doc, dict) or "rank" not in doc:
        raise SchemaError('module object needs "rank" and "presentation"')
    rank = doc["rank"]
    rows = doc.get("presentation", [])
    if type(rank) is not int or rank < 0 or not isinstance(rows, list):
        raise SchemaError("bad module document")
    return AModule(A, rank, _rows(rows, A.ring, "module presentation")), doc


def _rows(doc, ring: PolyRing, kind: str) -> list[list[Poly]]:
    """The polynomials of a JSON list of rows of strings."""
    if not isinstance(doc, list) or not all(
            isinstance(r, list) and all(isinstance(s, str) for s in r)
            for r in doc):
        raise SchemaError(f"{kind} must be a list of rows of strings")
    return [_polys(row, ring) for row in doc]


def _matrix_doc(doc, A: FPAlgebra) -> RingMatrix:
    from .complexes import RingMatrix
    return RingMatrix(A, _rows(doc, A.ring, "matrix"))


def _complex_from_file(path: str) -> tuple[FreeComplex, dict]:
    from .complexes import FreeComplex
    doc = _json_file(path, "complex", "matrices")
    ranks = doc.get("expected_ranks")
    if ranks is not None:
        _array(ranks, '"expected_ranks"', int, "integers")
    # any items: _matrix_doc checks each matrix
    matrices = _array(doc["matrices"], '"matrices"', object, "matrices")
    A = _algebra_from_doc(doc)
    C = FreeComplex(A, [_matrix_doc(m, A) for m in matrices])
    if ranks not in (None, list(C.ranks), list(C.ranks[:-1])):
        raise SchemaError(f'"expected_ranks" {ranks} disagree with the ranks '
                          f"the sizes force, {list(C.ranks)}")
    return C, doc


# ---------------------------------------------------------------------------
# reports

def _emit(args, inputs: dict, payload: dict, t0: float) -> None:
    head = {"command": args.command, "inputs": inputs}
    report = {**head, **payload}
    canonical = json.dumps(head, sort_keys=True, separators=(",", ":"))
    report["inputs_digest"] = hashlib.sha256(canonical.encode()).hexdigest()
    report["timing_ms"] = round((time.perf_counter() - t0) * 1000, 3)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not args.out:  # so the flush at exit writes nowhere, silently
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        raise SchemaError(
            f"cannot write {args.out or 'stdout'}: {exc}") from None


def _strs(items) -> list[str]:
    return [str(p) for p in items]


def _cert_json(cert) -> dict:
    out = {"holds": cert.holds, "k": cert.k}
    if not cert.holds:
        out["fail_stage"] = cert.fail_stage
        out["witness"] = _strs(cert.witness or ())
    return out


def _ring_inputs(R, A=None) -> dict:
    field = "Q" if not R.field.p else f"Fp:{R.field.p}"
    out = {"field": field, "vars": list(R.vars), "order": R.order}
    if A is not None:
        out["relations"] = _strs(A.relations.gens)
    return out


def _conditions_json(report) -> list[dict]:
    out = []
    for c in report.conditions:
        rec = {"level": c.level, "required_depth": c.level,
               "ideal_gens": _strs(c.ideal.gens),
               "verdict": {None: "skipped", True: "holds",
                           False: "fails"}[c.holds]}
        if c.certificate is not None:
            rec.update(_cert_json(c.certificate))
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# subcommands: each returns (inputs, payload) for the report

def _gb(args):
    from .groebner import IdealGens
    R = _algebra(args).ring
    gens = _ideal(args.ideal, R)
    gb = IdealGens(R, gens).groebner()
    if not all(gb.contains(g) for g in gens):  # every input reduces to 0
        raise VerificationError("basis does not reduce a generator")
    return ({**_ring_inputs(R), "ideal": _strs(gens)},
            {"verdict": "computed", "basis": _strs(gb.basis)})


def _member(args):
    from .groebner import IdealGens, module_membership
    R = _algebra(args).ring
    gens = _ideal(args.ideal, R)
    f = _poly(args.poly, R)
    lift, = module_membership([[f]], [[g] for g in IdealGens(R, gens).gens])
    payload = ({"verdict": "not-member"} if lift is None
               else {"verdict": "member", "lift": _strs(lift)})
    return {**_ring_inputs(R), "ideal": _strs(gens), "poly": str(f)}, payload


def _colon(args):
    from .groebner import IdealGens, ideal_colon
    R = _algebra(args).ring
    I = IdealGens(R, _ideal(args.ideal, R))
    J = IdealGens(R, _ideal(args.by, R))
    Q = ideal_colon(I, J)
    gbI = I.groebner()  # re-verify Q J subseteq I
    if not all(gbI.contains(q * j) for q in Q.gens for j in J.gens):
        raise VerificationError("colon generator fails membership")
    return ({**_ring_inputs(R), "ideal": _strs(I.gens), "by": _strs(J.gens)},
            {"verdict": "computed", "gens": _strs(Q.gens)})


def _sat(args):
    from .groebner import IdealGens, saturation
    R = _algebra(args).ring
    I = IdealGens(R, _ideal(args.ideal, R))
    f = _poly(args.poly, R)
    S = saturation(I, f)
    gbS = S.groebner()
    if not all(gbS.contains(g) for g in I.gens):  # re-verify I in sat
        raise VerificationError("saturation lost a generator")
    return ({**_ring_inputs(R), "ideal": _strs(I.gens), "poly": str(f)},
            {"verdict": "computed", "gens": _strs(S.gens)})


def _dim(args):
    from .groebner import IdealGens, krull_dimension
    R = _algebra(args).ring
    I = IdealGens(R, _ideal(args.ideal, R))
    return ({**_ring_inputs(R), "ideal": _strs(I.gens)},
            {"verdict": "computed", "dimension": krull_dimension(I)})


def _ideal_and_module(args):
    """The ideal and module of the depth commands, and their inputs echo."""
    from .algebra import AIdeal
    A = _algebra(args)
    a = AIdeal(A, _ideal(args.ideal, A.ring))
    E, module = _module(args, A)
    return a, E, {**_ring_inputs(A.ring, A), "ideal": _strs(a.gens),
                  "module": module}


def _depth(args):
    from .depth import depth_at_least
    a, E, inputs = _ideal_and_module(args)
    cert = depth_at_least(a, E, args.atleast)
    verdict = (f"at least {args.atleast}" if cert.holds
               else f"fails at {cert.fail_stage}")
    return ({**inputs, "atleast": args.atleast},
            {"verdict": verdict, "certificate": _cert_json(cert)})


def _depth_value(args):
    from .depth import INFINITY, depth_value
    a, E, inputs = _ideal_and_module(args)
    value = depth_value(a, E)
    return inputs, {"verdict": "computed",
                    "depth": "infinity" if value == INFINITY else value}


def _secant(args):
    from .depth import is_completely_secant
    A = _algebra(args)
    seq = _polys(_parse_list(args.seq), A.ring)
    E, module = _module(args, A)
    verdict = is_completely_secant(seq, E)
    return ({**_ring_inputs(A.ring, A), "seq": _strs(seq), "module": module},
            {"verdict": "completely-secant" if verdict else "not-secant"})


def _wiebe(args):
    from .depth import wiebe_check
    A = _algebra(args)
    c_seq = _polys(_parse_list(args.c), A.ring)
    a_seq = _polys(_parse_list(args.a), A.ring)
    U = _rows(_json(args.u, "bad matrix JSON"), A.ring, "matrix")
    E, module = _module(args, A)
    rep = wiebe_check(c_seq, a_seq, U, E)
    inputs = {**_ring_inputs(A.ring, A), "c": _strs(c_seq), "a": _strs(a_seq),
              "u": [_strs(row) for row in U], "module": module}
    return inputs, {
        "verdict": "holds" if rep.holds else "fails",
        "delta": str(rep.delta),
        "inclusion_certified": rep.inclusion_certified,
        "completely_secant": _cert_json(rep.completely_secant),
        "colon_delta_equals_a": rep.colon_delta_equals_a,
        "colon_ideal_equals_delta_plus_c": rep.colon_ideal_equals_delta_plus_c,
    }


def _certify(args):
    from .complexes import certify_exact
    C, doc = _complex_from_file(args.complex)
    report = certify_exact(C)
    return {"complex": doc}, {
        "verdict": "exact" if report.exact else "not-exact",
        "euler_characteristic": C.ranks[0],
        "expected_ranks": list(C.ranks),
        "conditions": _conditions_json(report)}


def _cayley(args):
    from .cayley import CayleyError, cayley_factorize
    C, doc = _complex_from_file(args.complex)
    try:
        data = cayley_factorize(C)
    except CayleyError as exc:
        return {"complex": doc}, {"verdict": "not-cayley", "reason": str(exc)}
    return {"complex": doc}, {
        "verdict": "factorized",
        "factor_ideals": [_strs(b.gens) for b in data.factor_ideals],
        "determinant": None if data.det is None else str(data.det)}


def _hilbert_burch(args):
    from .cayley import hilbert_burch
    doc = _json_file(args.matrix, "matrix", "matrix")
    A = _algebra_from_doc(doc)
    M = _matrix_doc(doc["matrix"], A)
    alpha = _polys(_parse_list(args.alpha), A.ring) if args.alpha else None
    rep = hilbert_burch(M, alpha)
    payload = {
        "verdict": "exact" if rep.exact else "not-exact",
        "delta": _strs(rep.delta),
        "delta_annihilates": rep.delta_annihilates,
        "grade2": _cert_json(rep.grade2),
    }
    if rep.alpha_complex_ok is not None:
        payload["alpha_complex_ok"] = rep.alpha_complex_ok
        payload["alpha_exact"] = rep.alpha_exact
        if rep.factor is not None:
            payload["factor"] = str(rep.factor)
            payload["factor_regular"] = rep.factor_regular
            payload["factor_strong_gcd"] = rep.factor_gcd.ok
    return ({"matrix": doc, "alpha": None if alpha is None else _strs(alpha)},
            payload)


def _resultant(args):
    from .algebra import FPAlgebra
    from .cayley import CayleyError, resultant_via_cayley, sylvester_complex
    from .complexes import determinantal_ideal
    field = _parse_field(args.field)
    names = _parse_list(args.vars) or ["X", "Y"]
    if len(names) != 2:
        raise SchemaError("resultant needs exactly two variables")
    R2 = PolyRing(field, names, args.order)
    P = _poly(args.P, R2)
    Q = _poly(args.Q, R2)
    base = PolyRing(field, [])

    def coeff_list(p):
        if p.is_zero:
            raise SchemaError("zero form has no resultant")
        deg = p.degree()
        if any(sum(m) != deg for m in p.terms):
            raise SchemaError(f"{p} is not homogeneous")
        by_x = {m[0]: c for m, c in p.terms.items()}  # c X^k Y^(deg-k)
        return [base.const(by_x.get(k, 0)) for k in range(deg + 1)]

    A, pc, qc = FPAlgebra.polynomial(base), coeff_list(P), coeff_list(Q)
    try:
        g = resultant_via_cayley(A, pc, qc, args.d)
    except CayleyError:
        # over a field the Cayley hypotheses fail only when every maximal
        # minor of S is zero: P and Q share a factor, and Res(P, Q) = 0
        S = sylvester_complex(A, pc, qc, args.d).S
        if determinantal_ideal(S, S.rows).gens:
            raise VerificationError("Cayley hypotheses fail, yet S has a "
                                    "nonzero maximal minor") from None
        g = base.zero()
    return ({"field": args.field, "vars": names, "P": str(P), "Q": str(Q),
             "d": args.d},
            {"verdict": "computed", "resultant": str(g)})


def _taylor(args):
    from .monomial import (MonomialList, homotopy_identity_check,
                           is_taylor_minimal, taylor_complex)
    R = _algebra(args).ring
    try:
        m = MonomialList.parse(R, _parse_list(args.monomials))
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    T = taylor_complex(m)
    payload = {"verdict": "computed",
               "ranks": list(T.complex.sizes),
               "matrices": [[_strs(row) for row in M.entries]
                            for M in T.complex.matrices]}
    if args.minimal:
        payload["minimal"] = is_taylor_minimal(m)
    if args.check_homotopy:
        payload["homotopy_identity"] = homotopy_identity_check(T)
        if not payload["homotopy_identity"]:
            raise VerificationError("contracting homotopy identity failed")
    return ({**_ring_inputs(R),
             "monomials": [str(m.poly(i)) for i in range(1, m.r + 1)]},
            payload)


def _mccoy(args):
    from .complexes import determinantal_ideal, mccoy_injective
    A = _algebra(args)
    M = _matrix_doc(_json(args.matrix, "bad matrix JSON"), A)
    verdict = mccoy_injective(M)
    return ({**_ring_inputs(A.ring, A),
             "matrix": [_strs(row) for row in M.entries]},
            {"verdict": "injective" if verdict else "not-injective",
             "maximal_minors": _strs(determinantal_ideal(M, M.cols).gens)})


def _hodge_selftest(args):
    from .algebra import FPAlgebra
    from .exterior import (MultiVector, complement, eps_sign, hodge_left,
                           hodge_right, interior_right, pairing,
                           subsets_colex, wedge)

    def check(ok: bool, identity: str, J) -> None:
        if not ok:
            raise VerificationError(f"{identity} fails at e_{J} (n = {n})")

    if args.n < 0:
        raise SchemaError(f"--n must be at least 0, not {args.n}")
    A = FPAlgebra.polynomial(PolyRing(QQ, ["x"]))
    checked = 0
    for n in range(1, args.n + 1):
        full = MultiVector.basis(A, n, tuple(range(1, n + 1)))
        for p in range(n + 1):
            for J in subsets_colex(n, p):
                eJ = MultiVector.basis(A, n, J)
                star = hodge_right(eJ)
                check(wedge(eJ, star) == full, "e_J ^ Hr(e_J) = e_{1..n}", J)
                check(star == MultiVector.basis(A, n, complement(J, n)).scale(
                    A.ring.const(eps_sign(J, complement(J, n)))),
                    "Hr(e_J) = eps e_{J'}", J)
                sign = A.ring.const((-1) ** (p * (n - p)))
                check(hodge_right(star) == eJ.scale(sign),
                      "Hr(Hr(e_J)) = (-1)^(p(n-p)) e_J", J)
                check(hodge_left(star) == eJ, "Hl(Hr(e_J)) = e_J", J)
                checked += 3
        for p in range(1, n + 1):
            for I in subsets_colex(n, p):
                xb = MultiVector.basis(A, n, I)
                for u in range(1, n + 1):
                    uv = MultiVector.basis(A, n, (u,))
                    for Z in subsets_colex(n, p - 1):
                        z = MultiVector.basis(A, n, Z)
                        check(pairing(interior_right(xb, uv), z)
                              == pairing(xb, wedge(uv, z)),
                              "<x |_ u, z> = <x, u ^ z>", I)
                        checked += 1
    return {"n": args.n}, {"verdict": "passed", "identities_checked": checked}


# ---------------------------------------------------------------------------
# command table and dispatcher

_REQUIRED, _INT = {"required": True}, {"type": int, "required": True}
_OPTIONAL, _FLAG = {"default": ""}, {"action": "store_true"}
_OPTIONS = {  # --name -> argparse keywords; the flags a command lists
    "ring": {"default": "",
             "help": 'ring JSON, e.g. {"field":"Q","vars":["x"],'
                     '"order":"grevlex","relations":[]}'},
    "field": {"default": "Q", "help": "Q or Fp:<prime>"},
    "vars": {"default": "", "help": "variables (comma list or JSON)"},
    "order": {"default": "grevlex", "choices": ["grevlex", "lex", "grlex"]},
    "relations": {"default": "",
                  "help": "relation polynomials (comma list or JSON)"},
    "ideal": _REQUIRED, "poly": _REQUIRED, "by": _REQUIRED,
    "seq": _REQUIRED, "c": _REQUIRED, "a": _REQUIRED,
    "P": _REQUIRED, "Q": _REQUIRED, "monomials": _REQUIRED,
    "atleast": _INT, "d": _INT, "module": _OPTIONAL, "alpha": _OPTIONAL,
    "check-homotopy": _FLAG, "minimal": _FLAG,
    "n": {"type": int, "default": 5},
    "u": {"required": True, "help": "certifying matrix (JSON rows)"},
    "complex": {"required": True, "help": "complex JSON file"},
    "matrix": {"required": True, "help": "matrix (JSON rows)"},
    "out": {"help": "write report here"},
}
_RING = ("ring", "field", "vars", "order")
_ALGEBRA = _RING + ("relations",)


# subcommand -> (help, options, compute); an option is a name in _OPTIONS or
# a (name, argparse keywords) pair, and compute(args) -> (inputs, payload)
_COMMANDS = {
    "gb": ("reduced Groebner basis", _RING + ("ideal",), _gb),
    "member": ("ideal membership with lift", _RING + ("ideal", "poly"),
               _member),
    "colon": ("ideal quotient (I : J)", _RING + ("ideal", "by"), _colon),
    "sat": ("saturation (I : f^inf)", _RING + ("ideal", "poly"), _sat),
    "dim": ("Krull dimension of R/I", _RING + ("ideal",), _dim),
    "depth": ("depth at least k", _ALGEBRA + ("ideal", "module", "atleast"),
              _depth),
    "depth-value": ("depth as a number", _ALGEBRA + ("ideal", "module"),
                    _depth_value),
    "secant": ("completely secant sequence test",
               _ALGEBRA + ("seq", "module"), _secant),
    "wiebe": ("Wiebe colon equalities", _ALGEBRA + ("c", "a", "u", "module"),
              _wiebe),
    "certify": ("exactness certification", ("complex",), _certify),
    "cayley": ("Cayley factorization / determinant", ("complex",), _cayley),
    "hilbert-burch": ("n x (n-1) kernel certification",
                      (("matrix", {"required": True,
                                   "help": "matrix JSON file"}), "alpha"),
                      _hilbert_burch),
    "resultant": ("resultant as a Cayley determinant",
                  (("field", {"default": "Q"}), ("vars", {"default": "X,Y"}),
                   "order", "P", "Q", "d"), _resultant),
    "taylor": ("Taylor resolution of monomials",
               _RING + ("monomials", "check-homotopy", "minimal"), _taylor),
    "mccoy": ("injectivity via the maximal minors", _ALGEBRA + ("matrix",),
              _mccoy),
    "hodge-selftest": ("exterior identity suites", ("n",), _hodge_selftest),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or only of `command` when it names
    one; that one is listed under the full parser's usage line."""
    ap = argparse.ArgumentParser(
        prog="ffr",
        description="exact certifications for finite free resolutions")
    ap.add_argument("--version", action="version", version=__version__)
    one = command in _COMMANDS
    sub = ap.add_subparsers(dest="command", required=True, metavar=(
        "{" + ",".join(_COMMANDS) + "}" if one else None))
    for cmd in [command] if one else _COMMANDS:
        help_, options, _ = _COMMANDS[cmd]
        p = sub.add_parser(cmd, help=help_)
        for opt in options + ("out",):
            name, kw = (opt, _OPTIONS[opt]) if isinstance(opt, str) else opt
            p.add_argument(f"--{name}", **kw)
    return ap


def run(argv: Optional[Sequence[str]] = None) -> int:
    t0 = time.perf_counter()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        inputs, payload = _COMMANDS[args.command][2](args)
        _emit(args, inputs, payload, t0)
        return 0
    except (SchemaError, ParseError, ValueError, RankObstructionError) as exc:
        print(f"ffr: input error: {exc}", file=sys.stderr)
        return 2
    except RingMismatchError as exc:
        print(f"ffr: ring mismatch: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"ffr: internal verification failure: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
