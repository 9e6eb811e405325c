"""Seeded corpora for the four workloads, as text with a known answer each.

Every instance is a plain dict:

    {"id", "kind", "size", "field", "data", "answer"}

`data` holds only text (polynomials, matrices of polynomials, CLI
arguments); the timed code builds every library object from it.  `answer`
is known without the library: by construction (exact complexes, bases of
disguised systems, heights of monomial ideals), from an independent
computation here (Sylvester determinants, Taylor minimality) or from the
stored sympy references (`refs.json`, made by `make_refs.py`).

The polynomial arithmetic below works on {exponent tuple: int} dicts and
is deliberately independent of `ffr`.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

PRIME = 32003
FP = f"Fp:{PRIME}"
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "refs.json")

# ---------------------------------------------------------------------------
# independent sparse integer polynomials {exponents: coefficient}


def padd(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def pscale(a: dict, c: int) -> dict:
    return {m: c * x for m, x in a.items()} if c else {}


def unit(rng: random.Random, field: str) -> int:
    """A seeded unit: a sign over Q, a nonzero residue over F_p."""
    return rng.choice([-1, 1]) if field == "Q" else rng.randrange(1, PRIME)


def rescale(p: dict, u, c: int, field: str) -> dict:
    """c * p(u_1 x_1, ..., u_n x_n), reduced mod PRIME over F_p.

    With units u_i this is a ring automorphism that keeps the monomial
    order, times the unit c, so Groebner basis, colon and elimination
    computations on the result take the same steps, on the same monomials
    and with coefficients of the same size, as on p: a seed drawing the
    units changes the input text but not the work.
    """
    out = {}
    for m, x in p.items():
        x *= c
        for ui, e in zip(u, m):
            x *= ui ** e
        if field != "Q":
            x %= PRIME
        if x:
            out[m] = x
    return out


def mono(n: int, expts: dict, c: int = 1) -> dict:
    """c * prod x_i^e for expts = {i: e}."""
    e = [0] * n
    for i, k in expts.items():
        e[i] += k
    return {tuple(e): c}


def ptext(p: dict, names) -> str:
    """Text the ffr parser reads: `3*x^2*y - z + 1`."""
    if not p:
        return "0"
    chunks = []
    for m in sorted(p, key=lambda m: (-sum(m), [-e for e in m])):
        c = p[m]
        body = "*".join(v if e == 1 else f"{v}^{e}"
                        for v, e in zip(names, m) if e)
        mag = abs(c)
        if not body:
            body = str(mag)
        elif mag != 1:
            body = f"{mag}*{body}"
        sign = "-" if c < 0 else "+"
        chunks.append(("-" if c < 0 else "") + body if not chunks
                      else f"{sign} {body}")
    return " ".join(chunks)


def colex(n: int, k: int) -> list[tuple[int, ...]]:
    return sorted(itertools.combinations(range(n), k),
                  key=lambda s: tuple(reversed(s)))


def canon_poly(terms, field: str):
    """Scale-free canonical form of {exponents: coefficient}.

    Coefficients are Fractions over Q and residues mod p over F_p; the
    polynomial is divided by the coefficient of its largest exponent tuple,
    so two generators of the same principal ideal get the same form.
    """
    if field == "Q":
        terms = {tuple(m): Fraction(c) for m, c in terms.items() if c}
        lead = terms[max(terms)]
        return frozenset((m, c / lead) for m, c in terms.items())
    terms = {tuple(m): int(c) % PRIME for m, c in terms.items()}
    terms = {m: c for m, c in terms.items() if c}
    inv = pow(terms[max(terms)], PRIME - 2, PRIME)
    return frozenset((m, c * inv % PRIME) for m, c in terms.items())


def canon_basis(polys, field: str) -> frozenset:
    return frozenset(canon_poly(p, field) for p in polys)


def _inst(id_, kind, size, field, data, answer) -> dict:
    return {"id": id_, "kind": kind, "size": size, "field": field,
            "data": data, "answer": answer}

# ---------------------------------------------------------------------------
# free complexes: Koszul, disguises, broken copies


def koszul_mats(n: int) -> list[list[list[dict]]]:
    """A_1..A_n of the Koszul complex on x_1..x_n (colex bases)."""
    mats = []
    for k in range(1, n + 1):
        rows = colex(n, k - 1)
        cols = colex(n, k)
        pos = {s: i for i, s in enumerate(rows)}
        ents = [[{} for _ in cols] for _ in rows]
        for j, J in enumerate(cols):
            for t, i in enumerate(J):
                ents[pos[J[:t] + J[t + 1:]]][j] = mono(n, {i: 1},
                                                       -1 if t % 2 else 1)
        mats.append(ents)
    return mats


def _modify(mats, k: int, s: int, n: int):
    """Elementary modification: a trivial A^s summand between L_k, L_{k+1}."""
    one = mono(n, {})
    a_k = mats[k - 1]
    mats[k - 1] = [row + [{}] * s for row in a_k]
    a_k1 = mats[k]
    width = len(a_k1[0])
    rows = [row + [{}] * s for row in a_k1]
    for i in range(s):
        rows.append([{}] * width + [one if j == i else {} for j in range(s)])
    mats[k] = rows
    if k + 1 < len(mats):
        a_k2 = mats[k + 1]
        mats[k + 1] = a_k2 + [[{}] * len(a_k2[0]) for _ in range(s)]


def _basis_change(mats, level: int, i: int, j: int, lam: dict):
    """Replace the basis of L_level by E = 1 + lam e_ij (unimodular)."""
    m = len(mats)
    if level >= 1:  # A_level E: column j += lam * column i
        for row in mats[level - 1]:
            row[j] = padd(row[j], pmul(lam, row[i]))
    if level < m:   # E^-1 A_(level+1): row i -= lam * row j
        a = mats[level]
        a[i] = [padd(x, pscale(pmul(lam, y), -1)) for x, y in zip(a[i], a[j])]


def _sizes(mats) -> list[int]:
    return [len(mats[0])] + [len(a[0]) for a in mats]


def disguised_koszul(shape: random.Random, rng: random.Random, n: int):
    """Koszul complex on x_1..x_n after an elementary modification and
    unimodular basis changes (both keep exactness and the Cayley data).

    `shape` places the modification and the basis changes and picks each
    multiplier (1, x_i, x_i + x_j or x_i x_j, with a sign); `rng` flips the
    signs of the variables, which changes no step of the work (`rescale`).
    """
    mats = koszul_mats(n)
    _modify(mats, shape.randint(1, n - 1), shape.randint(1, 2), n)
    for _ in range(shape.randint(1, 3)):
        sizes = _sizes(mats)
        level = shape.choice([k for k, p in enumerate(sizes) if p >= 2])
        i, j = shape.sample(range(sizes[level]), 2)
        u, v = shape.sample(range(n), 2)
        lam = [mono(n, {}), mono(n, {u: 1}),
               padd(mono(n, {u: 1}), mono(n, {v: 1})),
               mono(n, {u: 1, v: 1})][shape.randrange(4)]
        _basis_change(mats, level, i, j, pscale(lam, shape.choice([-1, 1])))
    return signed_vars(rng, mats, n)


def signed_vars(rng: random.Random, mats, n: int):
    """The matrices under x_i -> +-x_i, with seeded signs."""
    u = [unit(rng, "Q") for _ in range(n)]
    return [[[rescale(p, u, 1, "Q") for p in row] for row in a]
            for a in mats]


def complex_doc(mats, names, field="Q") -> dict:
    return {"field": field, "vars": list(names),
            "matrices": [[[ptext(p, names) for p in row] for row in a]
                         for a in mats]}


def broken(mats):
    """Zero the first column of the last matrix: D_(r_m)(A_m) becomes 0."""
    mats = [[list(r) for r in a] for a in mats]
    for row in mats[-1]:
        row[0] = {}
    return mats

# ---------------------------------------------------------------------------
# resultants: the Sylvester determinant as an independent oracle


def frac_det(rows) -> Fraction:
    a = [[Fraction(x) for x in r] for r in rows]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def sylvester_resultant(pc, qc) -> Fraction:
    """Res(P, Q) of binary forms given by ascending X-coefficients."""
    p, q = len(pc) - 1, len(qc) - 1
    n = p + q
    rows = []
    for i in range(q):
        rows.append([0] * i + list(reversed(pc)) + [0] * (n - p - 1 - i))
    for i in range(p):
        rows.append([0] * i + list(reversed(qc)) + [0] * (n - q - 1 - i))
    return frac_det(rows)


def binary_form(coeffs) -> str:
    """sum c_i X^i Y^(deg-i) as text (ascending coefficient list)."""
    deg = len(coeffs) - 1
    p = {(i, deg - i): c for i, c in enumerate(coeffs) if c}
    return ptext(p, ("X", "Y"))


def resultant_pair(rng: random.Random, p: int, q: int):
    while True:
        pc = [rng.randint(-3, 3) for _ in range(p + 1)]
        qc = [rng.randint(-3, 3) for _ in range(q + 1)]
        res = sylvester_resultant(pc, qc) if p and q else 0
        if pc[-1] and qc[-1] and res:
            return pc, qc, res

# ---------------------------------------------------------------------------
# monomial ideals: heights by minimal transversals


def monomial_height(supports, n: int) -> int:
    """Height of a monomial ideal: fewest variables meeting every support."""
    for k in range(n + 1):
        for S in itertools.combinations(range(n), k):
            if all(set(S) & s for s in supports):
                return k
    return n


def random_monomial(rng, n, degree):
    e = [0] * n
    for _ in range(degree):
        e[rng.randrange(n)] += 1
    return tuple(e)


def taylor_is_minimal(monos) -> bool:
    r = len(monos)

    def lcm(J):
        return tuple(max((monos[j][t] for j in J), default=0)
                     for t in range(len(monos[0])))
    for k in range(1, r + 1):
        for J in itertools.combinations(range(r), k):
            for j in J:
                if lcm([t for t in J if t != j]) == lcm(J):
                    return False
    return True

# ---------------------------------------------------------------------------
# workload: certify


def certify_corpus(seed: int, long: bool = False) -> list[dict]:
    """Koszul n=3, 4 disguised (exact), broken (not exact at the last level)
    and Cayley-factorized; Taylor complexes; resultants; the tail of the
    Koszul complex on x_1..x_5, exact and broken; with `long`, also the
    whole Koszul complex on x_1..x_5 (about 15-25 s on its own).

    Everything but signs and names comes from a fixed generator: the seed
    flips the signs of variables (and of resultant inputs) and names the
    Taylor variables, which changes the text but not the work.
    """
    shape = random.Random(0)
    rng = random.Random(seed)
    out = []
    plan = [(3, 8, 6, 6), (4, 4, 4, 4)]  # n, exact, broken, cayley
    for n, n_exact, n_broken, n_cayley in plan:
        names = [f"x{i}" for i in range(1, n + 1)]
        disguised = [disguised_koszul(shape, rng, n)
                     for _ in range(max(n_exact, n_broken, n_cayley))]
        for t in range(n_exact):
            out.append(_inst(f"koszul{n}-disguised-{t}", "koszul-disguised",
                             f"n={n},sizes={_sizes(disguised[t])}", "Q",
                             complex_doc(disguised[t], names),
                             {"exact": True, "failing_level": None}))
        for t in range(n_broken):
            mats = broken(disguised[t])
            out.append(_inst(f"koszul{n}-broken-{t}", "koszul-broken",
                             f"n={n},sizes={_sizes(mats)}", "Q",
                             complex_doc(mats, names),
                             {"exact": False, "failing_level": n}))
        for t in range(n_cayley):
            out.append(_inst(f"koszul{n}-cayley-{t}", "cayley",
                             f"n={n},sizes={_sizes(disguised[t])}", "Q",
                             complex_doc(disguised[t], names),
                             {"det_abs": "1"}))
    for t in range(8):
        monos = [random_monomial(shape, 3, shape.randint(1, 3))
                 for _ in range(4)]
        names = rng.sample("abcuvwxyz", 3)  # names, not order, are seeded
        out.append(_inst(f"taylor-{t}", "taylor", "r=4,vars=3", "Q",
                         {"vars": names,
                          "monomials": [ptext({m: 1}, names) for m in monos]},
                         {"exact": True, "failing_level": None}))
    for d in (2, 3, 4, 5):
        for p, q in ((d // 2, d + 1 - d // 2), (d // 2, d - d // 2)):
            pc, qc, _ = resultant_pair(shape, p, q)
            # X -> -X and the signs of P and Q change the text, not the
            # work, and keep |Res(P, Q)|
            flip, sp, sq = (unit(rng, "Q") for _ in range(3))
            pc = [sp * c * flip ** i for i, c in enumerate(pc)]
            qc = [sq * c * flip ** i for i, c in enumerate(qc)]
            res = sylvester_resultant(pc, qc)
            out.append(_inst(f"resultant-d{d}-p{p}q{q}", "resultant",
                             f"d={d},p={p},q={q}", "Q",
                             {"P": binary_form(pc), "Q": binary_form(qc),
                              "d": d},
                             {"res_abs": str(abs(res))}))
    # The tail 0 -> K_5 -> K_4 -> K_3 of the Koszul complex on x_1..x_5 is
    # exact, and D_4 of its 10x5 matrix has 1050 minors: the determinantal
    # work of Koszul n=5 at a fortieth of its time.
    names5 = [f"x{i}" for i in range(1, 6)]
    mats = signed_vars(rng, koszul_mats(5)[3:], 5)
    out.append(_inst("koszul5-tail", "koszul", "n=5,tail", "Q",
                     complex_doc(mats, names5),
                     {"exact": True, "failing_level": None}))
    out.append(_inst("koszul5-tail-broken", "koszul-broken", "n=5,tail", "Q",
                     complex_doc(broken(mats), names5),
                     {"exact": False, "failing_level": len(mats)}))
    if long:
        out.append(_inst("koszul5", "koszul", "n=5", "Q",
                         complex_doc(koszul_mats(5), names5),
                         {"exact": True, "failing_level": None}))
    return out

# ---------------------------------------------------------------------------
# workload: depth


def depth_corpus(seed: int) -> list[dict]:
    """Monomial ideals with 1..n generators, binomials (x_i^a - c x_j^a)
    with 1..4 and trinomials (x_i^a + b x_j^a + c x_k^a) with 1..3.

    Dense binomials and trinomials, and more generators than these, take
    from seconds to minutes each and would swamp the run.  The generators
    are the same for every seed; the seed rescales variables and
    generators by units (`rescale`), so it changes the text but not the
    work.
    """
    shape = random.Random(0)
    rng = random.Random(seed)
    out = []
    for t in range(160):
        n = 4 + t % 2
        field = "Q" if t % 4 < 2 else FP
        kind = ("monomial", "binomial", "trinomial")[t % 3]
        ngens = 1 + (t // 3) % {"monomial": n, "binomial": 4,
                                "trinomial": 3}[kind]
        names = [f"x{i}" for i in range(1, n + 1)]
        u = [unit(rng, field) for _ in range(n)]
        gens, supports, shapes = [], [], set()
        while len(gens) < ngens:
            if kind == "monomial":
                m = random_monomial(shape, n, shape.randint(1, 2))
                key = m
            else:
                a = shape.randint(1, 2)
                picked = shape.sample(range(n), 2 if kind == "binomial" else 3)
                key = (a, frozenset(picked))
            if key in shapes:
                continue
            shapes.add(key)
            if kind == "monomial":
                terms = {m: 1}
            else:
                terms = {next(iter(mono(n, {v: a}))):
                         1 if k == 0 else shape.choice([-2, -1, 1, 3])
                         for k, v in enumerate(picked)}
            gens.append(ptext(rescale(terms, u, unit(rng, field), field),
                              names))
            supports.append({i for m in terms for i, e in enumerate(m) if e})
        answer = {"n": n}
        if kind == "monomial":
            h = monomial_height(supports, n)
            answer.update(depth=h, dim=n - h)
        out.append(_inst(f"{kind}-{t}", kind, f"vars={n},gens={ngens}",
                         field, {"vars": names, "gens": gens}, answer))
    names = list("abcdef")
    minors = ["a*e - b*d", "a*f - c*d", "b*f - c*e"]
    for field in ("Q", FP):
        out.append(_inst(f"generic-2x3-D2-{field}", "determinantal",
                         "2x3,k=2", field, {"vars": names, "gens": minors},
                         {"n": 6, "depth": 2, "dim": 4}))
    return out

# ---------------------------------------------------------------------------
# workload: gb


def cyclic(n: int):
    v = [f"x{i}" for i in range(n)]
    polys = ["+".join("*".join(v[(i + j) % n] for j in range(k))
                      for i in range(n)) for k in range(1, n)]
    polys.append("*".join(v) + "-1")
    return v, polys


def katsura(n: int):
    v = [f"u{i}" for i in range(n + 1)]

    def u(i):
        return v[abs(i)] if abs(i) <= n else None
    polys = ["+".join([v[0]] + [f"2*{x}" for x in v[1:]]) + "-1"]
    for m in range(n):
        terms = [f"{u(l)}*{u(m - l)}" for l in range(-n, n + 1)
                 if u(l) and u(m - l)]
        polys.append("+".join(terms) + f"-{v[m]}")
    return v, polys


NAMED_SYSTEMS = {
    "cyclic5": cyclic(5),
    "katsura5": katsura(5),
    "cyclic6": cyclic(6),
}
# (system, field): cyclic-6 over Q is left out for run length, and
# cyclic-6 over F_p (about 4-7 s) runs only in a long corpus.
NAMED_GB = [("cyclic6", FP), ("katsura5", "Q"), ("katsura5", FP),
            ("cyclic5", "Q"), ("cyclic5", FP)]
LONG_GB = {("cyclic6", FP)}


def dense_system(shape: random.Random, n: int):
    """A dense system whose reduced basis is known by construction.

    G = {x_i^2 + l_i} with affine l_i has coprime leading terms, so it is
    its own reduced grevlex basis; the inputs are G under a unimodular
    polynomial row transformation, which keeps the ideal.  `shape` picks
    the row operations and the (nonzero) coefficients.
    """
    def coeff(bound):
        return shape.choice([c for c in range(-bound, bound + 1) if c])
    G = []
    for i in range(n):
        g = mono(n, {i: 2}, 1)
        for j in range(n):
            g = padd(g, mono(n, {j: 1}, coeff(3)))
        G.append(padd(g, mono(n, {}, coeff(5))))
    F = [dict(g) for g in G]
    for _ in range(n + 2):
        i, j = shape.sample(range(n), 2)
        h = mono(n, {}, coeff(2))
        for v in range(n):
            h = padd(h, mono(n, {v: 1}, coeff(2)))
        F[i] = padd(F[i], pmul(h, F[j]))
    F = [pscale(f, coeff(3)) for f in F]
    order = list(range(n))
    shape.shuffle(order)
    return G, [F[k] for k in order]


def rescaled(rng: random.Random, G, F, n: int, field: str):
    """G and F under x_i -> u_i x_i, each input also times a unit, with
    seeded units.  G stays the reduced basis up to scaling, which
    `canon_basis` ignores."""
    u = [unit(rng, field) for _ in range(n)]
    return ([rescale(g, u, 1, field) for g in G],
            [rescale(f, u, unit(rng, field), field) for f in F])


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _ref_basis(entry, field):
    return canon_basis([{tuple(m): Fraction(c) for m, c in p}
                        for p in entry], field)


def gb_corpus(seed: int, refs: dict, long: bool = False) -> list[dict]:
    """cyclic-5 and katsura-5 over Q and F_p (cyclic-6 over F_p too with
    `long`), and 30 dense systems as Q/F_p twins.  The seed leaves the
    named systems alone and rescales the dense ones by units (`rescaled`),
    so it changes their text but not the work."""
    shape = random.Random(0)
    rng = random.Random(seed)
    out = []
    for name, field in NAMED_GB:
        if (name, field) in LONG_GB and not long:
            continue
        names, polys = NAMED_SYSTEMS[name]
        out.append(_inst(f"{name}-{field}", name.rstrip("0123456789"),
                         f"vars={len(names)}", field,
                         {"vars": names, "gens": polys},
                         {"basis": _ref_basis(refs["gb"][f"{name}/{field}"],
                                              field)}))
    for t in range(30):
        n = 4
        names = ["x", "y", "z", "w"]
        G0, F0 = dense_system(shape, n)
        for field in ("Q", FP):
            G, F = rescaled(rng, G0, F0, n, field)
            out.append(_inst(f"dense-{t}-{field}", "dense",
                             f"vars={n}", field,
                             {"vars": names,
                              "gens": [ptext(f, names) for f in F]},
                             {"basis": canon_basis(G, field)}))
    return out

# ---------------------------------------------------------------------------
# workload: cli (one instance per child call)


def _cli(id_, argv, expect, files=None, field="Q"):
    return _inst(id_, "cli:" + argv[0], argv[0], field,
                 {"argv": argv, "files": files or {}}, expect)


def cli_corpus(seed: int) -> list[dict]:
    shape = random.Random(0)
    rng = random.Random(seed)
    out = []
    xy = ["x", "y"]
    for t in range(3):
        tag = f"{t}"
        a, b = rng.randint(2, 4), rng.randint(2, 4)
        field = "Q" if t != 1 else FP
        # gb: a disguised two-variable system with a known basis
        G, F = rescaled(rng, *dense_system(shape, 2), 2, field)
        out.append(_cli(f"gb-{tag}", ["gb", "--field", field, "--vars", "x,y",
                                      "--ideal", json.dumps(
                                          [ptext(f, xy) for f in F])],
                        {"verdict": "computed",
                         "basis": [ptext(g, xy) for g in G]}, field=field))
        # member / not member of <x^a, y^b>
        h1 = padd(mono(2, {1: 1}), mono(2, {}, rng.randint(1, 4)))
        member = padd(pmul(mono(2, {0: a}), h1), mono(2, {1: b}, 3))
        poly, verdict = ((ptext(member, xy), "member") if t % 2 == 0 else
                         (ptext(mono(2, {0: a - 1, 1: b - 1}), xy),
                          "not-member"))
        ideal = json.dumps([f"x^{a}", f"y^{b}"])
        out.append(_cli(f"member-{tag}", ["member", "--vars", "x,y",
                                          "--ideal", ideal, f"--poly={poly}"],
                        {"verdict": verdict}))
        c = rng.randint(1, a - 1)
        out.append(_cli(f"colon-{tag}", ["colon", "--vars", "x,y", "--ideal",
                                         ideal, "--by", json.dumps([f"x^{c}"])],
                        {"verdict": "computed",
                         "gens": [ptext(mono(2, {0: a - c}), xy), f"y^{b}"]}))
        out.append(_cli(f"sat-{tag}", ["sat", "--vars", "x,y", "--ideal",
                                       json.dumps([f"x^{a}*y^{b}"]),
                                       "--poly", "y"],
                        {"verdict": "computed", "gens": [f"x^{a}"]}))
        # dim of a monomial ideal in four variables
        names4 = ["x", "y", "z", "w"]
        monos = [random_monomial(rng, 4, rng.randint(1, 3)) for _ in range(3)]
        supports = [{i for i, e in enumerate(m) if e} for m in monos]
        out.append(_cli(f"dim-{tag}", ["dim", "--vars", "x,y,z,w", "--ideal",
                                       json.dumps([ptext({m: 1}, names4)
                                                   for m in monos])],
                        {"verdict": "computed",
                         "dimension": 4 - monomial_height(supports, 4)}))
        # depth of <x_1^e_1..x_k^e_k> is k
        k = rng.randint(1, 3)
        pows = json.dumps([f"{v}^{rng.randint(1, 3)}" for v in "xyz"[:k]])
        atleast = rng.randint(1, 3)
        out.append(_cli(f"depth-{tag}", ["depth", "--vars", "x,y,z",
                                         "--ideal", pows,
                                         "--atleast", str(atleast)],
                        {"verdict": f"at least {atleast}" if atleast <= k
                         else f"fails at {k + 1}"}))
        out.append(_cli(f"depth-value-{tag}", ["depth-value", "--vars",
                                               "x,y,z", "--ideal", pows],
                        {"verdict": "computed", "depth": k}))
        # secant: powers of distinct variables form a regular sequence
        out.append(_cli(f"secant-{tag}", ["secant", "--vars", "x,y,z", "--seq",
                                          json.dumps([f"x^{a}", f"y^{b}"])],
                        {"verdict": "completely-secant"}))
        out.append(_cli(f"wiebe-{tag}", [
            "wiebe", "--vars", "x,y", "--c", json.dumps([f"x^{a}", f"y^{b}"]),
            "--a", '["x","y"]',
            "--u", json.dumps([[ptext(mono(2, {0: a - 1}), xy), "0"],
                               ["0", ptext(mono(2, {1: b - 1}), xy)]])],
            {"verdict": "holds",
             "delta": ptext(mono(2, {0: a - 1, 1: b - 1}), xy)}))
        n = 2 + t % 2
        names = [f"x{i}" for i in range(1, n + 1)]
        mats = disguised_koszul(shape, rng, n)
        exact = t != 2
        doc = complex_doc(mats if exact else broken(mats), names)
        out.append(_cli(f"certify-{tag}", ["certify", "--complex",
                                           f"certify-{tag}.json"],
                        {"verdict": "exact" if exact else "not-exact"},
                        files={f"certify-{tag}.json": doc}))
        diag = {"field": "Q", "vars": xy,
                "matrices": [[[f"x^{a}", "0"], ["0", f"y^{b}"]]]}
        out.append(_cli(f"cayley-{tag}", ["cayley", "--complex",
                                          f"cayley-{tag}.json"],
                        {"verdict": "factorized",
                         "determinant": f"x^{a}*y^{b}"},
                        files={f"cayley-{tag}.json": diag}))
        hb = {"field": "Q", "vars": xy,
              "matrix": [[f"y^{b}", "0"], ["-x", f"y^{b}"], ["0", f"-x^{a}"]]}
        out.append(_cli(f"hilbert-burch-{tag}", ["hilbert-burch", "--matrix",
                                                 f"hb-{tag}.json"],
                        {"verdict": "exact"}, files={f"hb-{tag}.json": hb}))
        d = 2 + t
        p = rng.randint(1, d // 2 + 1)
        pc, qc, res = resultant_pair(rng, p, d + 1 - p)
        # "--P=..." because a form may start with "-"
        out.append(_cli(f"resultant-{tag}", ["resultant",
                                             f"--P={binary_form(pc)}",
                                             f"--Q={binary_form(qc)}",
                                             "--d", str(d)],
                        {"verdict": "computed", "res_abs": str(abs(res))}))
        r = 3 + t % 2
        monos = sorted({random_monomial(rng, 3, rng.randint(1, 3))
                        for _ in range(r)})
        out.append(_cli(f"taylor-{tag}", [
            "taylor", "--vars", "x,y,z", "--monomials",
            ",".join(ptext({m: 1}, "xyz") for m in monos),
            "--check-homotopy", "--minimal"],
            {"verdict": "computed",
             "ranks": [len(colex(len(monos), i))
                       for i in range(len(monos) + 1)],
             "minimal": taylor_is_minimal(monos), "homotopy_identity": True}))
        if t % 2 == 0:
            argv = ["mccoy", "--vars", "x,y", "--matrix",
                    json.dumps([[f"x^{a}"], [f"y^{b}"]])]
            verdict = "injective"
        else:
            argv = ["mccoy", "--vars", "x", "--relations",
                    json.dumps([f"x^{a}"]), "--matrix", '[["x"]]']
            verdict = "not-injective"
        out.append(_cli(f"mccoy-{tag}", argv, {"verdict": verdict}))
        out.append(_cli(f"hodge-selftest-{tag}",
                        ["hodge-selftest", "--n", str(2 + t)],
                        {"verdict": "passed"}))
    return out
