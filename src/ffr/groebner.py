"""Buchberger engine and the ideal/module calculus built on it.

One engine handles both ideals and submodules of free modules A^q: a term
is a pair (position, monomial) and ideals are the rank-1 case.  The module
order is position-over-term (POT) with the ring's monomial order, so a
trailing block of "tag" positions is automatically eliminated; syzygies and
membership lifts both come from that extended-basis bookkeeping.

A run selects pairs by the sugar strategy (Giovini et al., ISSAC 1991)
after the Gebauer-Moeller criteria, takes its inputs in ascending lead
order, and reduces S-polynomials in full in ideal runs, top-only in module
runs.  The strategy changes only the path: the reduced basis, and so every
syzygy, lift and report read off it, is canonical.  A run whose inputs
are all single terms, as the minors of a Koszul map are, forms no pairs:
its reduced basis is its minimal terms, made monic.

Inside a run every term is one int of `ring._Pack`, the packed-term codec
shared with the minors table.  A run sizes its fields from its inputs
(6, 12, 24, ... bits); a term that does not fit, or a product that sets
a guard bit, raises `_Overflow`: the run restarts with fields twice as
wide, and a normal form that overflows a finished table widens that
table in place, once for all later calls.  Nothing wraps.

Every element is one int vector with its lead coefficient a: over F_p the
monic vector of residues in [0, p) (a = 1), over Q the primitive integer
vector with a > 0, reduced fraction-free after each input's denominators
are cleared once.  `Poly`s cross the boundary through the codec's
`_Pack.vec` and `_Pack.polys`.  An element of a basis is its vector over
a, which is monic, the canonical form that bases, reports and
certificates compare; a full normal form divides out its scale once, and
returns the caller's polys when nothing reduces them.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from math import gcd
from operator import itemgetter, mul
from typing import Optional, Sequence

from .ring import (Poly, PolyRing, RingMismatchError, VerificationError,
                   _Overflow, _Pack)

Vec = dict  # {packed term: coeff}


class _Reducers:
    """Reducers indexed by leading position, in one packing.

    An entry is (lead, ivec, a), lead being the packed leading term of the
    int vector ivec and a its coefficient; `pack.polys(ivec, a)` gives the
    monic element ivec / a.  Below the position the fields are s_n..s_2,
    e_1..e_n for grevlex, the total degree and e_1..e_n for grlex, e_1..e_n
    for lex.
    A larger int is a larger term, so a heap of negated terms pops the
    largest first; a lead divides a term of its position iff subtracting
    it from the term with every guard bit set clears none of them.  A run
    whose terms outgrow the fields restarts wider (`_buchberger_vecs`); a
    normal form that overflows a finished table `widen`s it first.
    """

    def __init__(self, pack: _Pack):
        self.pack = pack
        self.p = pack.ring.field.p
        self.by_pos: dict[int, list] = {}
        self.entries: list = []

    def add(self, v: Vec) -> tuple:
        """Append the monic (F_p) or primitive (Q) multiple of a nonzero
        int vector v."""
        lead = max(v)
        c = v[lead]
        p = self.p
        if p:
            a = 1
            if c != 1:
                inv = pow(c, -1, p)
                v = {t: x * inv % p for t, x in v.items()}
        else:
            g = gcd(*v.values())
            if c < 0:
                g = -g
            if g != 1:
                v = {t: x // g for t, x in v.items()}
            a = c // g
        entry = (lead, v, a)
        self.entries.append(entry)
        self.by_pos.setdefault(lead >> self.pack.shift, []).append(entry)
        return entry

    def find(self, t: int):
        G = self.pack.G
        tg = t | G
        for entry in self.by_pos.get(t >> self.pack.shift, ()):
            if (tg - entry[0]) & G == G:
                return entry
        return None

    def widen(self):
        """Re-pack every entry in fields twice as wide, in place."""
        old = self.pack
        wider = _Reducers(_Pack.of(old.ring, old.rank, 2 * old.w))
        for _, v, _ in self.entries:
            wider.add({wider.pack.enc(*old.dec(t)): x for t, x in v.items()})
        self.pack, self.by_pos, self.entries = (wider.pack, wider.by_pos,
                                                wider.entries)


def _vec_nf(v: Vec, red: _Reducers, top_only: bool = False):
    """Fraction-free normal form of an int vector v via a lazy heap of the
    working terms, negated so that the largest pops first: (r, scale) with
    r = scale * NF(v), r an int vector and scale a positive int (1 over
    F_p).

    To cancel the coefficient c of a term by a reducer with lead
    coefficient a, with g = gcd(a, c), the working vector and the output
    are multiplied by a/g and c/g times the shifted reducer is subtracted;
    scale is the product of the factors a/g.  Over F_p every reducer is
    monic, so a = 1 and nothing is rescaled; residues are taken with % p.

    With top_only the reduction stops at the first irreducible leading
    term (enough inside the Buchberger loop, which needs r only up to a
    unit); the default reduces every term.
    """
    p = red.p
    G = red.pack.G
    work = dict(v)
    heap = [-t for t in work]
    heapq.heapify(heap)
    out: Vec = {}
    scale = 1
    while heap:
        t = -heapq.heappop(heap)
        c = work.get(t)
        if not c:
            continue
        entry = red.find(t)
        if entry is None:
            if top_only:
                return work, scale
            del work[t]
            out[t] = c
            continue
        lead, g, a = entry
        if a != 1:
            d = gcd(a, c)
            if d != a:
                m = a // d
                work = {tt: x * m for tt, x in work.items()}
                out = {tt: x * m for tt, x in out.items()}
                scale *= m
            c //= d
        shift = t - lead
        for tt, c2 in g.items():
            tt += shift
            if tt & G:
                raise _Overflow
            prev = work.get(tt)
            if prev is None:
                work[tt] = -c * c2 % p if p else -c * c2
                heapq.heappush(heap, -tt)
            else:
                s = prev - c * c2
                if p:
                    s %= p
                if s:
                    work[tt] = s
                else:
                    del work[tt]
    return (work if top_only else out), scale


def _nf_polys(coords: Sequence[Poly], red: _Reducers) -> list[Poly]:
    """The normal form of a vector of polys, as polys: the fraction-free
    normal form with its scale divided out once; the caller's own polys
    when nothing reduces them.  An overflow widens the table for good."""
    while True:
        try:
            v, d = red.pack.vec(coords)
            r, scale = _vec_nf(v, red)
            break
        except _Overflow:
            red.widen()
    if scale == 1 and r == v:
        return list(coords)
    return red.pack.polys(r, d * scale)


def _spair(e1, e2, L: int, p: int, G: int) -> Vec:
    """(a2/g) L/m1 * v1 - (a1/g) L/m2 * v2 for entries with int vectors
    v1, v2 of leads a1 m1, a2 m2, L = lcm(m1, m2) and g = gcd(a1, a2);
    mod p over F_p."""
    m1, v1, a1 = e1
    m2, v2, a2 = e2
    g = gcd(a1, a2)
    res: Vec = {}
    for v, s, k in ((v1, L - m1, a2 // g), (v2, L - m2, -(a1 // g))):
        for t, c in v.items():
            t += s
            if t & G:
                raise _Overflow
            d = res.get(t, 0) + k * c
            if p:
                d %= p
            if d:
                res[t] = d
            elif t in res:
                del res[t]
    return res


def _buchberger_vecs(generators: Sequence[Sequence[Poly]], ring: PolyRing,
                     rank: int) -> _Reducers:
    """The reduced Groebner basis of the submodule of A^rank generated by
    the coordinate lists `generators`, as a reducer table whose entries
    are in descending lead order.

    The fields are sized from the inputs: the run packs them into the
    narrowest of 6, 12, 24, ... bits that fits them, and restarts with
    fields twice as wide whenever a later term does not fit (`_Overflow`).
    """
    w = 6
    while True:
        pack = _Pack.of(ring, rank, w)
        try:
            vecs = [v for v, _ in map(pack.vec, generators) if v]
            return _buchberger_run(vecs, pack)
        except _Overflow:
            w *= 2


def _buchberger_run(vecs: list[Vec], pack: _Pack) -> _Reducers:
    """One Buchberger run over int vectors in one packing.

    The run's elements are the entries of `red`, in the order they were
    added.  Each open pair of elements i < j is one record
    (sugar, key, i, j, L), L being the packed lcm of their leads and key
    its monomial fields (the position masked off), built once when j is
    added: `min(pairs)` picks the pair of smallest sugar, then of smallest
    lcm in the ring's order, ties broken by (i, j), and the pruning and
    the S-polynomial read the stored lcm.

    Sugar selection (Giovini, Mora, Niesi, Robbiano and Traverso, "One
    sugar cube, please", ISSAC 1991): an input's sugar is the largest
    total degree of its terms, a pair's is deg L + max(e_i, e_j) with
    e_i = sugar_i - deg(lead_i) stored once per element, and a new
    element takes its pair's sugar.  `pack.deg` reads a term's degree off
    its packed fields.

    The inputs enter in ascending lead order, each reduced top-only, so
    the later ones are reduced by the smaller leads already in.  An
    S-polynomial is reduced in full in a rank-1 run and top-only in a
    module run: there, full reduction (of every term, or of the lead's
    position only) measured 4.5-6% slower on the depth benchmark, whose
    runs are mostly tagged; full reduction of the inputs measured 6%
    slower too.

    Pair pruning: Gebauer-Moeller chain criteria always; the coprimality
    (product) criterion only for rank 1, where it is valid.

    Inputs that are all single terms (of any rank) skip the loop: the
    S-polynomial of two terms is 0, so the reduced basis is the terms no
    other one of the same position divides, monic and in descending lead
    order.  It is a branch rather than a pair criterion because the pairs
    cost more than the answer: on the 70 terms of (x1..x5)^4 over Q the
    loop took 9.3 ms, the loop with a two-term criterion in `update` 6.8
    ms and the branch 1.0 ms (best of 7, a 2-vCPU Xeon host).
    """
    red = _Reducers(pack)
    if all(len(v) == 1 for v in vecs):
        # terms only: the minimal ones, monic, in descending lead order
        minimal = _Reducers(pack)
        for t in sorted(set().union(*vecs)):
            if minimal.find(t) is None:
                minimal.add({t: 1})
        for _, v, _ in reversed(minimal.entries):
            red.add(v)
        return red
    entries = red.entries
    heads: list[tuple] = []  # each element's leading term, unpacked
    ecarts: list[int] = []  # each element's sugar minus its lead's degree
    pairs: set[tuple] = set()
    G, shift, p, w = pack.G, pack.shift, red.p, pack.w
    top, weights, rank, deg = pack.top, pack.weights, pack.rank, pack.deg

    def update(v: Vec, sugar: int):
        # Gebauer-Moeller: prune old pairs, minimalize new ones.
        lead = red.add(v)[0]
        t = len(entries) - 1
        posn, monon = pack.dec(lead)
        base = rank - 1 - posn << shift
        lcm_with = {}
        for i, (q, m) in enumerate(heads):
            if q == posn:
                lcm = tuple(map(max, m, monon))
                if top(lcm) >> w - 1:
                    raise _Overflow
                lcm_with[i] = base + sum(map(mul, lcm, weights))
        heads.append((posn, monon))
        e = sugar - sum(monon)
        ecarts.append(e)
        stale = {pair for pair in pairs if pair[2] in lcm_with
                 and ((pair[4] | G) - lead) & G == G
                 and lcm_with[pair[2]] != pair[4]
                 and lcm_with[pair[3]] != pair[4]}
        pairs.difference_update(stale)
        lcms: dict[int, list[int]] = {}
        for i, L in lcm_with.items():
            lcms.setdefault(L, []).append(i)
        kept: list[int] = []
        for L in sorted(lcms):
            if any(((L | G) - K) & G == G for K in kept):
                continue
            kept.append(L)
            if rank == 1 and any(L == entries[i][0] + lead
                                 for i in lcms[L]):
                continue  # product criterion
            i = min(lcms[L])
            pairs.add((deg(L) + max(e, ecarts[i]), L & (1 << shift) - 1,
                       i, t, L))

    for v in sorted(vecs, key=max):
        r, _ = _vec_nf(v, red, top_only=True)
        if r:
            update(r, max(map(deg, r)))

    while pairs:
        pair = min(pairs)
        pairs.discard(pair)
        sugar, _, i, j, L = pair
        r, _ = _vec_nf(_spair(entries[i], entries[j], L, p, G), red,
                       top_only=rank > 1)
        if r:
            update(r, sugar)

    # minimalize: keep the leads no smaller kept lead divides
    minimal = _Reducers(pack)
    for entry in sorted(entries, key=itemgetter(0)):
        if minimal.find(entry[0]) is None:
            minimal.entries.append(entry)
            minimal.by_pos.setdefault(entry[0] >> shift, []).append(entry)
    # interreduce: a lead divides no smaller term, so reducing each tail
    # against the whole minimal table is reducing it against the others
    table = _Reducers(pack)
    for lead, v, a in reversed(minimal.entries):
        tail = dict(v)
        del tail[lead]
        r, scale = _vec_nf(tail, minimal)
        table.add({lead: a * scale, **r})
    return table


# ---------------------------------------------------------------------------
# ideal layer

class IdealGens:
    """A finite generator list over a PolyRing; zero generators dropped.

    Owns at most one reduced Groebner basis, computed once.
    """

    __slots__ = ("ring", "gens", "_gb")

    def __init__(self, ring: PolyRing, gens: Sequence[Poly]):
        self.ring = ring
        self.gens = tuple(ring.unique_up_to_sign(gens))
        self._gb = None

    @classmethod
    def _of_unique(cls, ring: PolyRing, gens: Sequence[Poly]) -> "IdealGens":
        """The ideal of `gens`, nonzero polys of `ring` already distinct up
        to sign, kept as given without a second check."""
        ideal = cls.__new__(cls)
        ideal.ring, ideal.gens, ideal._gb = ring, tuple(gens), None
        return ideal

    def groebner(self) -> "GroebnerBasis":
        if self._gb is None:
            self._gb = GroebnerBasis(self.ring, _buchberger_vecs(
                [[g] for g in self.gens], self.ring, 1))
        return self._gb

    def __repr__(self):
        return f"<ideal ({', '.join(map(str, self.gens))})>"


class GroebnerBasis:
    """Reduced Groebner basis; canonical for (ideal, order)."""

    __slots__ = ("basis", "ring", "_red")

    def __init__(self, ring: PolyRing, table: _Reducers):
        self.ring = ring
        self._red = table
        self.basis = tuple(table.pack.polys(v, a)[0]
                           for _, v, a in table.entries)

    def normal_form(self, f: Poly) -> Poly:
        if f.ring != self.ring:
            raise RingMismatchError("polynomial in a different ring")
        if not self.basis:
            return f
        return _nf_polys([f], self._red)[0]

    def contains(self, f: Poly) -> bool:
        return self.normal_form(f).is_zero

    def is_unit_ideal(self) -> bool:
        return len(self.basis) == 1 and self.basis[0] == self.ring.one()

    def __repr__(self):
        return f"<GB {list(map(str, self.basis))}>"


def ideal_equal(I: IdealGens, J: IdealGens) -> bool:
    """Ideal equality; reduced bases are canonical so this is syntactic."""
    return I.groebner().basis == J.groebner().basis


def ideal_colon(I: IdealGens, J: IdealGens) -> IdealGens:
    """(I : J), by one syzygy run over all generators of J; (I : 0) is
    (1), the unit vector `module_colon` returns for no generators."""
    R = I.ring
    if J.ring != R:
        raise RingMismatchError("ideals over different rings")
    colon = module_colon([[g] for g in I.gens], J.gens, 1, R)
    return IdealGens(R, [x[0] for x in colon])


def saturation(I: IdealGens, f: Poly) -> IdealGens:
    """(I : f^inf) by the chain I, (I : f), (I : f^2), ... of colon runs
    by <f>, each on the reduced basis of the previous ideal.

    The chain stops when two successive reduced bases agree, and that
    basis is returned holding the chain's last Groebner basis itself, so
    asking for it runs no Buchberger again.  The fixed point S has
    (S : f) = S and I in S; with k the number of steps that changed the
    ideal, f^k S in I is re-checked, which makes S = (I : f^k) = (I : f^inf).
    """
    R = I.ring
    if f.ring != R:
        raise RingMismatchError("polynomial in a different ring")
    gbI, by = I.groebner(), IdealGens(R, [f])
    basis, steps = gbI.basis, 0
    while True:
        last = ideal_colon(IdealGens(R, basis), by).groebner()
        if last.basis == basis:
            break
        basis, steps = last.basis, steps + 1
    fk = f ** steps
    if not all(gbI.contains(fk * g) for g in basis):
        raise VerificationError("saturation generator not in (I : f^k)")
    S = IdealGens(R, basis)
    S._gb = last
    return S


def radical_membership(f: Poly, I: IdealGens) -> bool:
    """f in sqrt(I) iff (I : f^inf) is the unit ideal."""
    return saturation(I, f).groebner().is_unit_ideal()


def independent_set(I: IdealGens) -> Optional[tuple[int, ...]]:
    """A largest set S of variable indices such that no leading monomial
    of the reduced basis is supported inside S, or None iff 1 in I.

    Such an S certifies dim R/I >= |S|, and a largest one gives the
    dimension (Kredel & Weispfenning, "Computing dimension and independent
    sets for polynomial ideals", J. Symbolic Comput. 6, 1988).
    """
    gb = I.groebner()
    if gb.is_unit_ideal():
        return None
    n = I.ring.n
    supports = [frozenset(i for i, e in enumerate(g.lm()) if e)
                for g in gb.basis]
    for k in range(n, 0, -1):
        for S in combinations(range(n), k):
            Sset = set(S)
            if not any(sup <= Sset for sup in supports):
                return S
    return ()


def krull_dimension(I: IdealGens) -> int:
    """Krull dimension of R/I: the size of `independent_set(I)`, -1 iff
    1 in I (Kredel & Weispfenning 1988)."""
    S = independent_set(I)
    return -1 if S is None else len(S)


# ---------------------------------------------------------------------------
# free-module layer (vectors are plain lists of Poly)

def _module_rank_ring(vectors: Sequence[Sequence[Poly]]):
    rank = len(vectors[0])
    ring = None
    for v in vectors:
        if len(v) != rank:
            raise RingMismatchError("vectors of different ranks")
        for p in v:
            if ring is None:
                ring = p.ring
            elif p.ring != ring:
                raise RingMismatchError("vector entries in different rings")
    if ring is None:
        raise ValueError("cannot infer ring from empty vectors")
    return rank, ring


class ModuleBasis:
    """Reduced Groebner basis of a submodule of A^rank (POT order), held
    as its reducer table; `vectors` decodes the basis on each read."""

    __slots__ = ("ring", "rank", "_red")

    def __init__(self, ring: PolyRing, rank: int,
                 generators: Sequence[Sequence[Poly]]):
        if generators and _module_rank_ring(generators) != (rank, ring):
            raise RingMismatchError("rank or ring disagrees with the vectors")
        self.ring = ring
        self.rank = rank
        self._red = _buchberger_vecs(generators, ring, rank)

    @property
    def vectors(self) -> tuple[tuple[Poly, ...], ...]:
        pack = self._red.pack
        return tuple(tuple(pack.polys(v, a)) for _, v, a in self._red.entries)

    def normal_form(self, coords: Sequence[Poly]) -> list[Poly]:
        if len(coords) != self.rank:
            raise RingMismatchError("vector rank mismatch")
        if any(p.ring != self.ring for p in coords):
            raise RingMismatchError("vector entry in a different ring")
        return _nf_polys(coords, self._red)

    def contains(self, coords: Sequence[Poly]) -> bool:
        return all(p.is_zero for p in self.normal_form(coords))


def _tagged_basis(vectors: Sequence[Sequence[Poly]], rank: int,
                  ring: PolyRing,
                  modulo: Sequence[Sequence[Poly]] = ()) -> ModuleBasis:
    """Extended basis: the POT basis of the v_i, each padded with a unit
    tag, and of the u_j of `modulo`, padded with zero tags.

    Its elements supported on the tag block (positions rank..) are the
    c with sum c_i v_i in span(u_j); reducing (v, 0) leaves minus a lift
    of v in it.
    """
    s = len(vectors)
    zero, one = ring.zero(), ring.one()
    extended = [list(v) + [one if j == i else zero for j in range(s)]
                for i, v in enumerate(vectors)]
    extended += [list(u) + [zero] * s for u in modulo]
    return ModuleBasis(ring, rank + s, extended)


def syzygy_module(vectors: Sequence[Sequence[Poly]],
                  modulo: Sequence[Sequence[Poly]] = ()) -> list[list[Poly]]:
    """Generators of {(c_1..c_s) : sum c_i v_i in span(modulo)}, by one
    tagged run; with `modulo` empty, the syzygies of the v_i.

    This is Singular's `modulo`: only the v_i carry tags, so the run keeps
    no cofactors of the u_j.  The tag-block elements of the POT basis (lead
    position >= rank, so zero below it) form the reduced basis of that
    module, in descending lead order; only they are decoded.
    """
    if not vectors:
        return []
    rank, ring = _module_rank_ring(list(vectors) + list(modulo))
    red = _tagged_basis(vectors, rank, ring, modulo)._red
    return [red.pack.polys(v, a)[rank:] for lead, v, a in red.entries
            if red.pack.dec(lead)[0] >= rank]


def scalar_columns(scalars: Sequence[Poly], rank: int,
                   ring: PolyRing) -> list[list[Poly]]:
    """The vectors s e_t of R^rank: scalars outermost, then t = 1..rank."""
    zero = ring.zero()
    out = []
    for s in scalars:
        for t in range(rank):
            v = [zero] * rank
            v[t] = s
            out.append(v)
    return out


def diagonal_blocks(vectors: Sequence[Sequence[Poly]], k: int,
                    ring: PolyRing) -> list[list[Poly]]:
    """Each w of R^n placed in each of k blocks of R^(n k), zero elsewhere:
    blocks outermost, then the vectors in order."""
    zero = ring.zero()
    return [[zero] * (i * len(w)) + list(w) + [zero] * ((k - 1 - i) * len(w))
            for i in range(k) for w in vectors]


def module_colon(vectors: Sequence[Sequence[Poly]],
                 ideal_gens: Sequence[Poly], rank: int,
                 ring: PolyRing) -> list[list[Poly]]:
    """Generators of (W : a) = {x in R^rank : g x in W for every g in a},
    for W spanned by `vectors` and a by the nonzero `ideal_gens`.

    One relative syzygy run, stacked: with g_1..g_k those generators,
    R^(rank k) is k blocks of R^rank.  The rank vectors
    (g_1 e_t | ... | g_k e_t) are taken modulo every w of W in block i,
    for each i: x is in the result iff (g_1 x | ... | g_k x) lies in W^k.
    (W : 0) is all of R^rank, given by its unit vectors.
    """
    gens = [g for g in ideal_gens if not g.is_zero]
    if not gens:
        return scalar_columns([ring.one()], rank, ring)
    zero = ring.zero()
    mains = [[g if j == t else zero for g in gens for j in range(rank)]
             for t in range(rank)]
    return syzygy_module(mains, diagonal_blocks(vectors, len(gens), ring))


def _colon_classes(vectors: Sequence[Sequence[Poly]], by: Sequence[Poly],
                   rank: int, ring: PolyRing, nf=None):
    """The nonzero normal forms modulo W = span(vectors) of the generators
    of (W : by), in the order of `module_colon`: none iff (0 :_E <by>) = 0
    for E = R^rank / W, which for `by` empty (or zero) means E = 0.  `nf`
    reduces by a basis the caller holds, of W or of a larger module the
    colon is tested against; else one of W is built."""
    colon = module_colon(vectors, by, rank, ring)
    if colon:
        nf = nf or ModuleBasis(ring, rank, vectors).normal_form
        for g in colon:
            r = nf(g)
            if any(not p.is_zero for p in r):
                yield r


def module_membership(vectors: Sequence[Sequence[Poly]],
                      gens: Sequence[Sequence[Poly]]
                      ) -> list[Optional[list[Poly]]]:
    """For each v of `vectors`, a lift (c_1..c_s) with sum c_i g_i = v, or
    None if v is not a member.  One tagged basis of the g_i serves every v,
    and every lift is re-verified by substitution before being returned."""
    if not gens or not vectors:
        return [[] if all(p.is_zero for p in v) else None for v in vectors]
    rank, ring = _module_rank_ring(list(gens) + list(vectors))
    tagged, pad = _tagged_basis(gens, rank, ring), [ring.zero()] * len(gens)
    lifts = []
    for v in vectors:
        r = tagged.normal_form(list(v) + pad)
        lift = [-p for p in r[rank:]]
        if any(not p.is_zero for p in r[:rank]):
            lift = None
        elif any(ring.dot(lift, [g[j] for g in gens]) != v[j]
                 for j in range(rank)):
            raise VerificationError("membership lift failed re-substitution")
        lifts.append(lift)
    return lifts
