"""Property test of the canonical form of coefficients over Q.

A coefficient over Q is an `int` when it is integral and a `Fraction`
(with denominator > 1) when it is not, so its type follows from its value.
That must hold for whatever the library hands back: parsed text, `+`,
`-`, `*`, `**`, `scale`, `PolyRing.dot`, reduced bases and normal forms of
ideals, module bases and minors.  The values must equal those of an
oracle written here on dicts of plain `Fraction`s: term-wise arithmetic,
a textbook Buchberger run with full reduction, and Leibniz
determinants.  Skipped when `hypothesis` is not installed.
"""

from fractions import Fraction
from itertools import combinations, permutations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ffr.exterior import minors  # noqa: E402
from ffr.groebner import IdealGens, ModuleBasis  # noqa: E402
from ffr.ring import Poly, PolyRing, QQ, parse_poly  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

NAMES = ("x", "y")
ORDERS = st.sampled_from(["grevlex", "grlex", "lex"])

# a coefficient as (numerator, denominator), unreduced: 4/2 is integral
ratios = st.tuples(st.integers(-6, 6), st.integers(1, 4))
monos = st.tuples(st.integers(0, 2), st.integers(0, 2))
drawn_polys = st.dictionaries(monos, ratios, max_size=3)


def canonical(c) -> bool:
    return (type(c) is int
            or type(c) is Fraction and c.denominator != 1)


def check(p: Poly, want: dict):
    """p is canonical and has the oracle's terms."""
    assert all(canonical(c) for c in p.terms.values()), p.terms
    assert p.terms == want


# ---------------------------------------------------------------------------
# the oracle: {monomial: Fraction} with no zero values


def value(terms: dict) -> dict:
    out = {m: Fraction(a, b) for m, (a, b) in terms.items()}
    return {m: c for m, c in out.items() if c}


def text(terms: dict) -> str:
    """Polynomial text with the unreduced literal a/b of every term."""
    out = []
    for (i, j), (a, b) in terms.items():
        factors = [f"{abs(a)}/{b}"] + [f"{v}^{e}" for v, e in
                                       zip(NAMES, (i, j)) if e]
        out.append(("- " if a < 0 else "+ ") + "*".join(factors))
    return " ".join(out) or "0"


def o_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def o_scale(f: dict, c) -> dict:
    return {m: v * c for m, v in f.items() if v * c}


def o_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def o_pow(f: dict, e: int) -> dict:
    out = {(0,) * len(NAMES): Fraction(1)}
    for _ in range(e):
        out = o_mul(out, f)
    return out


def _divides(s: tuple, t: tuple) -> bool:
    return s[0] == t[0] and all(a <= b for a, b in zip(s[1], t[1]))


class Oracle:
    """Reduced Groebner bases of submodules of Q[x, y]^rank, position over
    term with position 0 largest, on vectors {(pos, monomial): Fraction}."""

    def __init__(self, R: PolyRing):
        self.key = lambda t: (-t[0], R.mono_key(t[1]))

    def lead(self, f: dict) -> tuple:
        return max(f, key=self.key)

    def monic(self, f: dict) -> dict:
        c = f[self.lead(f)]
        return {t: v / c for t, v in f.items()}

    def reduce(self, f: dict, G: list) -> dict:
        """The full normal form of f by the monic vectors G."""
        f, out = dict(f), {}
        while f:
            t = self.lead(f)
            c = f.pop(t)
            g = next((g for g in G if _divides(self.lead(g), t)), None)
            if g is None:
                out[t] = c
                continue
            s = self.lead(g)
            q = tuple(a - b for a, b in zip(t[1], s[1]))
            for (pos, m), v in g.items():
                if (pos, m) != s:
                    u = (pos, tuple(a + b for a, b in zip(m, q)))
                    f[u] = f.get(u, 0) - c * v
                    if not f[u]:
                        del f[u]
        return out

    def spoly(self, f: dict, g: dict) -> dict:
        (pos, a), (_, b) = self.lead(f), self.lead(g)
        L = tuple(max(x, y) for x, y in zip(a, b))
        out: dict = {}
        for h, m, sign in ((f, a, 1), (g, b, -1)):
            q = tuple(x - y for x, y in zip(L, m))
            for (p, n), v in h.items():
                u = (p, tuple(x + y for x, y in zip(n, q)))
                out[u] = out.get(u, 0) + sign * v
        return {t: v for t, v in out.items() if v}

    def basis(self, gens: list) -> set:
        G = [self.monic(g) for g in gens if g]
        pairs = list(combinations(range(len(G)), 2))
        while pairs:
            i, j = pairs.pop()
            if self.lead(G[i])[0] != self.lead(G[j])[0]:
                continue
            r = self.reduce(self.spoly(G[i], G[j]), G)
            if r:
                G.append(self.monic(r))
                pairs += [(k, len(G) - 1) for k in range(len(G) - 1)]
        minimal = []
        for g in G:
            s = self.lead(g)
            if not any(_divides(self.lead(h), s) and self.lead(h) != s
                       for h in G) and all(self.lead(h) != s
                                           for h in minimal):
                minimal.append(g)
        return {frozenset(self.reduce(g, [h for h in minimal if h is not g])
                          .items()) for g in minimal}


def vector(coords: list) -> dict:
    return {(pos, m): c for pos, f in enumerate(coords) for m, c in f.items()}


# ---------------------------------------------------------------------------
# the properties


@SETTINGS
@given(ORDERS, drawn_polys, drawn_polys, ratios, st.integers(0, 3))
def test_arithmetic_gives_canonical_coefficients(order, df, dg, r, e):
    R = PolyRing(QQ, NAMES, order)
    f, g = value(df), value(dg)
    c = Fraction(*r)
    p, q = parse_poly(text(df), R), Poly(R, f)
    check(p, f)
    check(q, f)
    check(Poly(R, {m: Fraction(*v) for m, v in dg.items()}), g)
    h = Poly(R, g)
    check(parse_poly(f"({text(df)})*({text(dg)})", R), o_mul(f, g))
    check(parse_poly(f"({text(df)})^{e} - ({text(dg)})", R),
          o_add(o_pow(f, e), o_scale(g, -1)))
    check(p + h, o_add(f, g))
    check(p - h, o_add(f, o_scale(g, -1)))
    check(-p, o_scale(f, -1))
    check(p * h, o_mul(f, g))
    check(p * c, o_scale(f, c))
    check(p ** e, o_pow(f, e))
    check(p.scale(c), o_scale(f, c))
    check(R.dot([p, h], [h, p + h]),
          o_add(o_mul(f, g), o_mul(g, o_add(f, g))))


@SETTINGS
@given(ORDERS, st.lists(drawn_polys, min_size=1, max_size=3), drawn_polys)
def test_ideal_bases_and_normal_forms_are_canonical(order, drawn, df):
    R = PolyRing(QQ, NAMES, order)
    oracle = Oracle(R)
    gens = [vector([value(d)]) for d in drawn]
    G = IdealGens(R, [parse_poly(text(d), R) for d in drawn]).groebner()
    for b in G.basis:
        assert all(canonical(c) for c in b.terms.values()), b.terms
    assert {frozenset(vector([b.terms]).items())
            for b in G.basis} == oracle.basis(gens)
    want = [dict(g) for g in oracle.basis(gens)]
    nf = oracle.reduce(vector([value(df)]), want)
    check(G.normal_form(parse_poly(text(df), R)),
          {m: c for (_, m), c in nf.items()})


@SETTINGS
@given(ORDERS, st.lists(st.tuples(drawn_polys, drawn_polys), min_size=1,
                        max_size=2))
def test_module_bases_are_canonical(order, drawn):
    R = PolyRing(QQ, NAMES, order)
    gens = [[parse_poly(text(a), R), parse_poly(text(b), R)]
            for a, b in drawn]
    vectors = ModuleBasis(R, 2, gens).vectors
    for v in vectors:
        for p in v:
            assert all(canonical(c) for c in p.terms.values()), p.terms
    want = Oracle(R).basis([vector([value(a), value(b)]) for a, b in drawn])
    assert {frozenset(vector([p.terms for p in v]).items())
            for v in vectors} == want


def o_det(rows: list) -> dict:
    out: dict = {}
    n = len(rows)
    for perm in permutations(range(n)):
        sign = (-1) ** sum(perm[i] > perm[j]
                           for i in range(n) for j in range(i + 1, n))
        term = {(0,) * len(NAMES): Fraction(sign)}
        for i, j in enumerate(perm):
            term = o_mul(term, rows[i][j])
        out = o_add(out, term)
    return out


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_minors_are_canonical(nrows, ncols, data):
    R = PolyRing(QQ, NAMES)
    drawn = [[data.draw(st.dictionaries(monos, ratios, max_size=2))
              for _ in range(ncols)] for _ in range(nrows)]
    k = data.draw(st.integers(1, min(nrows, ncols)))
    rows = [[parse_poly(text(d), R) for d in row] for row in drawn]
    got = minors(rows, R, k)
    values = [[value(d) for d in row] for row in drawn]
    for I in combinations(range(1, nrows + 1), k):
        for J in combinations(range(1, ncols + 1), k):
            check(got[I, J], o_det([[values[i - 1][j - 1] for j in J]
                                    for i in I]))
