"""Buchberger engine and the ideal/module calculus built on it.

One engine handles both ideals and submodules of free modules A^q: a term
is a pair (position, monomial) and ideals are the rank-1 case.  The module
order is position-over-term (POT) with the ring's monomial order, so a
trailing block of "tag" positions is automatically eliminated; syzygies and
membership lifts both come from that extended-basis bookkeeping.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from typing import Optional, Sequence

from .ring import (Poly, PolyRing, RingMismatchError, VerificationError,
                   mono_div, mono_divides, mono_lcm, mono_mul)

Vec = dict  # {(pos, mono): coeff}


class _MaxKey:
    """Reverses comparison so heapq pops the largest term first."""

    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k

    def __lt__(self, other):
        return self.k > other.k


# ---------------------------------------------------------------------------
# raw vector arithmetic

def _vec_from_polys(coords: Sequence[Poly]) -> Vec:
    v: Vec = {}
    for i, p in enumerate(coords):
        for m, c in p.terms.items():
            v[(i, m)] = c
    return v


def _vec_to_polys(v: Vec, ring: PolyRing, rank: int) -> list[Poly]:
    coords: list[dict] = [{} for _ in range(rank)]
    for (i, m), c in v.items():
        coords[i][m] = c
    return [Poly(ring, t, _trusted=True) for t in coords]


def _vec_monic(v: Vec, c, field) -> Vec:
    if c == field.one():
        return v
    inv = field.inv(c)
    mul = field.mul
    return {t: mul(x, inv) for t, x in v.items()}


class _Reducers:
    """Monic reducers indexed by leading position, with a key memo."""

    def __init__(self, ring: PolyRing):
        self.ring = ring
        self.by_pos: dict[int, list] = {}
        self.entries: list = []  # (vec, ltpos, ltmono)
        self._keys: dict = {}

    def term_key(self, t):
        k = self._keys.get(t)
        if k is None:
            k = (-t[0], self.ring._key(t[1]))
            self._keys[t] = k
        return k

    def put(self, v: Vec, pos: int, mono: tuple):
        """Append a monic v whose leading term (pos, mono) is known."""
        entry = (v, pos, mono)
        self.entries.append(entry)
        self.by_pos.setdefault(pos, []).append(entry)
        return entry

    def add(self, v: Vec):
        pos, mono = max(v, key=self.term_key)
        return self.put(_vec_monic(v, v[(pos, mono)], self.ring.field),
                        pos, mono)

    def find(self, pos: int, mono: tuple):
        for entry in self.by_pos.get(pos, ()):
            if mono_divides(entry[2], mono):
                return entry
        return None


def _vec_nf(v: Vec, red: _Reducers, top_only: bool = False) -> Vec:
    """Normal form via a lazy max-heap over the working terms.

    With top_only the reduction stops at the first irreducible leading
    term (enough inside the Buchberger loop); the default reduces every
    term.
    """
    field = red.ring.field
    sub, mul = field.sub, field.mul
    term_key = red.term_key
    work = dict(v)
    heap = [(_MaxKey(term_key(t)), t) for t in work]
    heapq.heapify(heap)
    out: Vec = {}
    while heap:
        _, t = heapq.heappop(heap)
        c = work.get(t)
        if not c:
            continue
        entry = red.find(t[0], t[1])
        if entry is None:
            if top_only:
                return work
            del work[t]
            out[t] = c
            continue
        g, _, ltmono = entry
        shift = mono_div(t[1], ltmono)
        trivial_shift = not any(shift)
        for (p2, m2), c2 in g.items():
            tt = (p2, m2) if trivial_shift else (p2, mono_mul(m2, shift))
            prev = work.get(tt)
            if prev is None:
                s = sub(0, mul(c, c2))
                if s:
                    work[tt] = s
                    heapq.heappush(heap, (_MaxKey(term_key(tt)), tt))
            else:
                s = sub(prev, mul(c, c2))
                if s:
                    work[tt] = s
                else:
                    del work[tt]
    return work if top_only else out


def _spair(e1, e2, lcm: tuple, field) -> Vec:
    """lcm/m1 * v1 - lcm/m2 * v2 for monic entries with leads m1, m2."""
    v1, _, m1 = e1
    v2, _, m2 = e2
    s1 = mono_div(lcm, m1)
    res = {(p, mono_mul(m, s1)): c for (p, m), c in v1.items()}
    s2 = mono_div(lcm, m2)
    sub = field.sub
    for (p, m), c in v2.items():
        t = (p, mono_mul(m, s2))
        d = sub(res.get(t, 0), c)
        if d:
            res[t] = d
        elif t in res:
            del res[t]
    return res


def _buchberger_vecs(vecs: list[Vec], ring: PolyRing, rank: int) -> _Reducers:
    """The reduced Groebner basis of the submodule generated by `vecs`, as
    a reducer table whose entries are in descending lead order.

    The run's elements are the entries (vec, pos, mono) of `red`, in the
    order they were added.  Each open pair of elements i < j is one record
    (ring._key(lcm), i, j, lcm), built once when j is added: `min(pairs)`
    picks the pair of smallest lcm, ties broken by (i, j), and the pruning
    and the S-polynomial read the stored lcm.

    Pair pruning: Gebauer-Moeller chain criteria always; the coprimality
    (product) criterion only for rank 1, where it is valid.
    """
    field = ring.field
    red = _Reducers(ring)
    entries = red.entries
    pairs: set[tuple] = set()

    def update(v: Vec):
        # Gebauer-Moeller: prune old pairs, minimalize new ones.
        _, posn, monon = red.add(v)
        t = len(entries) - 1
        stale = set()
        for pair in pairs:
            _, i, j, lij = pair
            if entries[i][1] != posn:
                continue
            if (mono_divides(monon, lij)
                    and mono_lcm(entries[i][2], monon) != lij
                    and mono_lcm(entries[j][2], monon) != lij):
                stale.add(pair)
        pairs.difference_update(stale)
        lcms: dict[tuple, list[int]] = {}
        for i in range(t):
            if entries[i][1] == posn:
                lcms.setdefault(mono_lcm(entries[i][2], monon), []).append(i)
        kept: list[tuple] = []
        for key, L in sorted((ring._key(L), L) for L in lcms):
            if any(mono_divides(K, L) for K in kept):
                continue
            kept.append(L)
            if rank == 1 and any(L == mono_mul(entries[i][2], monon)
                                 for i in lcms[L]):
                continue  # product criterion
            pairs.add((key, min(lcms[L]), t, L))

    for v in vecs:
        if not v:
            continue
        r = _vec_nf(v, red, top_only=True)
        if r:
            update(r)

    while pairs:
        pair = min(pairs)
        pairs.discard(pair)
        _, i, j, lcm = pair
        r = _vec_nf(_spair(entries[i], entries[j], lcm, field), red,
                    top_only=True)
        if r:
            update(r)

    # minimalize: keep the leads no smaller kept lead divides
    minimal = _Reducers(ring)
    minimal._keys = red._keys  # one term-key memo for the whole run
    for v, pos, mono in sorted(red.entries,
                               key=lambda e: red.term_key(e[1:])):
        if minimal.find(pos, mono) is None:
            minimal.put(v, pos, mono)
    # interreduce: a lead divides no smaller term, so reducing each tail
    # against the whole minimal table is reducing it against the others
    table = _Reducers(ring)
    table._keys = red._keys
    for v, pos, mono in reversed(minimal.entries):
        tail = dict(v)
        one = tail.pop((pos, mono))
        table.put({(pos, mono): one, **_vec_nf(tail, minimal)}, pos, mono)
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

    def groebner(self) -> "GroebnerBasis":
        if self._gb is None:
            vecs = [_vec_from_polys([g]) for g in self.gens]
            self._gb = GroebnerBasis(self, _buchberger_vecs(vecs, self.ring, 1))
        return self._gb

    def __repr__(self):
        return f"<ideal ({', '.join(map(str, self.gens))})>"


class GroebnerBasis:
    """Reduced Groebner basis; canonical for (ideal, order)."""

    __slots__ = ("source", "basis", "ring", "_red")

    def __init__(self, source: IdealGens, table: _Reducers):
        self.source = source
        self.ring = source.ring
        self._red = table
        self.basis = tuple(_vec_to_polys(v, self.ring, 1)[0]
                           for v, _, _ in table.entries)

    @property
    def order(self) -> str:
        return self.ring.order

    def normal_form(self, f: Poly) -> Poly:
        if f.ring != self.ring:
            raise RingMismatchError("polynomial in a different ring")
        if not self.basis:
            return f
        return _vec_to_polys(_vec_nf(_vec_from_polys([f]), self._red),
                             self.ring, 1)[0]

    def contains(self, f: Poly) -> bool:
        return self.normal_form(f).is_zero

    def is_unit_ideal(self) -> bool:
        return len(self.basis) == 1 and self.basis[0] == self.ring.one()

    def __repr__(self):
        return f"<GB {list(map(str, self.basis))}>"


def ideal_equal(I: IdealGens, J: IdealGens) -> bool:
    """Ideal equality; reduced bases are canonical so this is syntactic."""
    return I.groebner().basis == J.groebner().basis


def ideal_product(I: IdealGens, J: IdealGens) -> IdealGens:
    return IdealGens(I.ring, [a * b for a in I.gens for b in J.gens])


def ideal_colon(I: IdealGens, J: IdealGens) -> IdealGens:
    """(I : J), by one syzygy run over all generators of J."""
    R = I.ring
    if J.ring != R:
        raise RingMismatchError("ideals over different rings")
    if not J.gens:
        return IdealGens(R, [R.one()])
    colon = module_colon([[g] for g in I.gens], J.gens, 1, R)
    return IdealGens(R, [x[0] for x in colon])


def saturation(I: IdealGens, f: Poly) -> IdealGens:
    """(I : f^inf) by the chain I, (I : f), (I : f^2), ... of colon runs
    by <f>, each on the reduced basis of the previous ideal.

    The chain stops when two successive reduced bases agree, and that
    basis is returned.  The fixed point S has (S : f) = S and I in S;
    with k the number of steps that changed the ideal, f^k S in I is
    re-checked, which makes S = (I : f^k) = (I : f^inf).
    """
    R = I.ring
    if f.ring != R:
        raise RingMismatchError("polynomial in a different ring")
    if f.is_zero:
        return IdealGens(R, [R.one()])
    gbI, by = I.groebner(), IdealGens(R, [f])
    basis, steps = gbI.basis, 0
    while True:
        nxt = ideal_colon(IdealGens(R, basis), by).groebner().basis
        if nxt == basis:
            break
        basis, steps = nxt, steps + 1
    fk = f ** steps
    if not all(gbI.contains(fk * g) for g in basis):
        raise VerificationError("saturation generator not in (I : f^k)")
    return IdealGens(R, basis)


def radical_membership(f: Poly, I: IdealGens) -> bool:
    """f in sqrt(I) iff (I : f^inf) is the unit ideal."""
    return saturation(I, f).groebner().is_unit_ideal()


def krull_dimension(I: IdealGens) -> int:
    """Krull dimension of R/I, from the initial-ideal independent sets.

    The dimension is the maximal size of a variable subset S such that no
    leading monomial of the reduced basis is supported inside S; -1 iff
    1 in I.
    """
    gb = I.groebner()
    if gb.is_unit_ideal():
        return -1
    lms = [g.lm() for g in gb.basis]
    n = I.ring.n
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in lms]
    for k in range(n, -1, -1):
        for S in combinations(range(n), k):
            Sset = set(S)
            if not any(sup <= Sset for sup in supports):
                return k
    return 0


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
    """Reduced Groebner basis of a submodule of A^rank (POT order)."""

    __slots__ = ("ring", "rank", "vectors", "_red")

    def __init__(self, ring: PolyRing, rank: int,
                 generators: Sequence[Sequence[Poly]]):
        self.ring = ring
        self.rank = rank
        vecs = [_vec_from_polys(v) for v in generators]
        self._red = _buchberger_vecs(vecs, ring, rank)
        self.vectors = tuple(tuple(_vec_to_polys(v, ring, rank))
                             for v, _, _ in self._red.entries)

    def normal_form(self, coords: Sequence[Poly]) -> list[Poly]:
        return _vec_to_polys(_vec_nf(_vec_from_polys(coords), self._red),
                             self.ring, self.rank)

    def contains(self, coords: Sequence[Poly]) -> bool:
        return all(p.is_zero for p in self.normal_form(coords))


def module_gb(vectors: Sequence[Sequence[Poly]],
              rank: Optional[int] = None,
              ring: Optional[PolyRing] = None) -> ModuleBasis:
    if vectors:
        rank, ring = _module_rank_ring(vectors)
    elif rank is None or ring is None:
        raise ValueError("empty generator list needs rank and ring")
    return ModuleBasis(ring, rank, vectors)


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
    no cofactors of the u_j.  The tag-block elements of the POT basis
    form the reduced basis of that module, in descending lead order.
    """
    if not vectors:
        return []
    rank, ring = _module_rank_ring(list(vectors) + list(modulo))
    gb = _tagged_basis(vectors, rank, ring, modulo)
    return [list(w[rank:]) for w in gb.vectors
            if all(p.is_zero for p in w[:rank])]


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


def module_membership(v: Sequence[Poly],
                      gens: Sequence[Sequence[Poly]]) -> Optional[list[Poly]]:
    """A lift (c_1..c_s) with sum c_i g_i = v, or None if v is not a member.

    The lift is re-verified by substitution before being returned.
    """
    if not gens:
        return [] if all(p.is_zero for p in v) else None
    rank, ring = _module_rank_ring(gens)
    if len(v) != rank:
        raise RingMismatchError("vector rank mismatch")
    zero = ring.zero()
    r = _tagged_basis(gens, rank, ring).normal_form(
        list(v) + [zero] * len(gens))
    if any(not p.is_zero for p in r[:rank]):
        return None
    lift = [-p for p in r[rank:]]
    for j in range(rank):
        if ring.dot(lift, [g[j] for g in gens]) != v[j]:
            raise VerificationError("membership lift failed re-substitution")
    return lift
