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
                   embed_shift, mono_div, mono_divides, mono_lcm, mono_mul,
                   project_drop_front)

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


def _vec_sub_scaled(v: Vec, w: Vec, c, m: tuple, field) -> Vec:
    """v - c * X^m * w, in place on a copy of v."""
    sub = field.sub
    mul = field.mul
    res = dict(v)
    for (p, mm), cw in w.items():
        t = (p, mono_mul(mm, m))
        s = sub(res.get(t, 0), mul(c, cw))
        if s:
            res[t] = s
        elif t in res:
            del res[t]
    return res


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


def _spair(e1, e2, field) -> Vec:
    v1, pos, m1 = e1
    v2, _, m2 = e2
    lcm = mono_lcm(m1, m2)
    a = _vec_sub_scaled({}, v1, field.neg(field.one()), mono_div(lcm, m1), field)
    return _vec_sub_scaled(a, v2, field.one(), mono_div(lcm, m2), field)


def _buchberger_vecs(vecs: list[Vec], ring: PolyRing, rank: int) -> _Reducers:
    """The reduced Groebner basis of the submodule generated by `vecs`, as
    a reducer table whose entries are in descending lead order.

    Pair pruning: Gebauer-Moeller chain criteria always; the coprimality
    (product) criterion only for rank 1, where it is valid.
    """
    field = ring.field
    red = _Reducers(ring)
    lead: list[tuple[int, tuple]] = []  # (pos, mono) per basis element
    pairs: set[tuple[int, int]] = set()

    def pair_lcm(i, j):
        return mono_lcm(lead[i][1], lead[j][1])

    def update(v: Vec):
        # Gebauer-Moeller: prune old pairs, minimalize new ones.
        entry = red.add(v)
        t = len(lead)
        posn, monon = entry[1], entry[2]
        stale = set()
        for (i, j) in pairs:
            if lead[i][0] != posn:
                continue
            lij = pair_lcm(i, j)
            if (mono_divides(monon, lij)
                    and mono_lcm(lead[i][1], monon) != lij
                    and mono_lcm(lead[j][1], monon) != lij):
                stale.add((i, j))
        pairs.difference_update(stale)
        cands = [i for i in range(t) if lead[i][0] == posn]
        lcms: dict[tuple, list[int]] = {}
        for i in cands:
            lcms.setdefault(mono_lcm(lead[i][1], monon), []).append(i)
        kept: list[tuple] = []
        for L in sorted(lcms, key=ring._key):
            if any(mono_divides(K, L) for K in kept):
                continue
            kept.append(L)
            if rank == 1 and any(mono_lcm(lead[i][1], monon)
                                 == mono_mul(lead[i][1], monon)
                                 for i in lcms[L]):
                continue  # product criterion
            pairs.add((min(lcms[L]), t))
        lead.append((posn, monon))

    for v in vecs:
        if not v:
            continue
        r = _vec_nf(v, red, top_only=True)
        if r:
            update(r)

    while pairs:
        i, j = min(pairs, key=lambda p: (ring._key(pair_lcm(*p)), p))
        pairs.discard((i, j))
        s = _spair(red.entries[i], red.entries[j], field)
        r = _vec_nf(s, red, top_only=True)
        if r:
            update(r)

    # minimalize: keep the leads no smaller kept lead divides
    minimal = _Reducers(ring)
    for v, pos, mono in sorted(red.entries,
                               key=lambda e: red.term_key(e[1:])):
        if minimal.find(pos, mono) is None:
            minimal.put(v, pos, mono)
    # interreduce: a lead divides no smaller term, so reducing each tail
    # against the whole minimal table is reducing it against the others
    table = _Reducers(ring)
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


def ideal_sum(I: IdealGens, J: IdealGens) -> IdealGens:
    return IdealGens(I.ring, list(I.gens) + list(J.gens))


def ideal_product(I: IdealGens, J: IdealGens) -> IdealGens:
    return IdealGens(I.ring, [a * b for a in I.gens for b in J.gens])


def _eliminate_front(gens: list[Poly], ext: PolyRing, base: PolyRing,
                     k: int) -> list[Poly]:
    """Generators of <gens> intersected with the ring without the front block."""
    basis = IdealGens(ext, gens).groebner().basis
    kept = [g for g in basis if not any(any(m[:k]) for m in g.terms)]
    return [project_drop_front(g, base, k) for g in kept]


def ideal_intersection(I: IdealGens, J: IdealGens) -> IdealGens:
    """I  cap  J via the one-fresh-variable elimination trick."""
    R = I.ring
    if J.ring != R:
        raise RingMismatchError("ideals over different rings")
    ext = R.extend_front_elim(R.fresh_names(1, "t"))
    t = ext.var(0)
    one = ext.one()
    gens = [t * embed_shift(g, ext, 1) for g in I.gens]
    gens += [(one - t) * embed_shift(g, ext, 1) for g in J.gens]
    return IdealGens(R, _eliminate_front(gens, ext, R, 1))


def exact_div(g: Poly, f: Poly) -> Poly:
    """Quotient g/f when f divides g exactly; raises ValueError otherwise."""
    if f.is_zero:
        raise ValueError("division by zero polynomial")
    R = g.ring
    field = R.field
    q = R.zero()
    r = g
    fm, fc = f.lt()
    while not r.is_zero:
        rm, rc = r.lt()
        if not mono_divides(fm, rm):
            raise ValueError("not an exact multiple")
        c = field.div(rc, fc)
        m = mono_div(rm, fm)
        term = Poly(R, {m: c})
        q = q + term
        r = r - term * f
    return q


def ideal_colon_poly(I: IdealGens, f: Poly) -> IdealGens:
    """(I : f) = (1/f) (I  cap  <f>)."""
    if f.is_zero:
        return IdealGens(I.ring, [I.ring.one()])
    inter = ideal_intersection(I, IdealGens(I.ring, [f]))
    return IdealGens(I.ring, [exact_div(g, f) for g in inter.gens])


def ideal_colon(I: IdealGens, J: IdealGens) -> IdealGens:
    """(I : J) = intersection of the (I : f) over the generators f of J."""
    if I.ring != J.ring:
        raise RingMismatchError("ideals over different rings")
    if not J.gens:
        return IdealGens(I.ring, [I.ring.one()])
    result = ideal_colon_poly(I, J.gens[0])
    for f in J.gens[1:]:
        result = ideal_intersection(result, ideal_colon_poly(I, f))
    return result


def _rabinowitsch(I: IdealGens, f: Poly) -> tuple[PolyRing, list[Poly]]:
    """The ring with a fresh front variable t in the elimination block, and
    there the generators of I and 1 - t f."""
    R = I.ring
    ext = R.extend_front_elim(R.fresh_names(1, "t"))
    t = ext.var(0)
    gens = [embed_shift(g, ext, 1) for g in I.gens]
    gens.append(ext.one() - t * embed_shift(f, ext, 1))
    return ext, gens


def saturation(I: IdealGens, f: Poly) -> IdealGens:
    """(I : f^inf) by single-shot Rabinowitsch elimination."""
    R = I.ring
    if f.ring != R:
        raise RingMismatchError("polynomial in a different ring")
    if f.is_zero:
        return IdealGens(R, [R.one()])
    ext, gens = _rabinowitsch(I, f)
    return IdealGens(R, _eliminate_front(gens, ext, R, 1))


def radical_membership(f: Poly, I: IdealGens) -> bool:
    """f in sqrt(I), via 1 in I + <1 - t f> in an extended ring."""
    if f.ring != I.ring:
        raise RingMismatchError("polynomial in a different ring")
    if f.is_zero:
        return True
    return IdealGens(*_rabinowitsch(I, f)).groebner().is_unit_ideal()


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
                  ring: PolyRing) -> ModuleBasis:
    """Extended basis: the POT basis of the v_i, each padded with a unit tag.

    Its elements supported on the tag block (positions rank..) are the
    syzygies of the v_i; reducing (v, 0) leaves minus a lift of v in it.
    """
    s = len(vectors)
    zero, one = ring.zero(), ring.one()
    extended = [list(v) + [one if j == i else zero for j in range(s)]
                for i, v in enumerate(vectors)]
    return ModuleBasis(ring, rank + s, extended)


def syzygy_module(vectors: Sequence[Sequence[Poly]]) -> list[list[Poly]]:
    """Generators of {(c_1..c_s) : sum c_i v_i = 0}, by one tagged run."""
    if not vectors:
        return []
    rank, ring = _module_rank_ring(vectors)
    gb = _tagged_basis(vectors, rank, ring)
    result = []
    for w in gb.vectors:
        if all(p.is_zero for p in w[:rank]):
            result.append(list(w[rank:]))
    return result


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
        acc = zero
        for c, g in zip(lift, gens):
            acc = acc + c * g[j]
        if acc != v[j]:
            raise VerificationError("membership lift failed re-substitution")
    return lift
