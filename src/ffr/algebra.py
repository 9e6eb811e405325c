"""Finitely presented algebras A = k[X]/J and finitely presented A-modules.

Every A-level decision is performed in k[X] with the relation ideal J
adjoined; no quotient-ring arithmetic type exists.  A module is the
cokernel of a presentation matrix: M = A^q / (column span + J A^q).
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import groebner as gb
from .ring import Poly, PolyRing, RingMismatchError, embed_append, parse_poly


class FPAlgebra:
    """A base ring k[X1..Xn]/J given by ring and relation ideal J."""

    __slots__ = ("ring", "relations")

    def __init__(self, ring: PolyRing, relations: Sequence[Poly] = ()):
        self.ring = ring
        self.relations = gb.IdealGens(ring, relations)

    @classmethod
    def polynomial(cls, ring: PolyRing) -> "FPAlgebra":
        return cls(ring, ())

    def nf(self, p: Poly) -> Poly:
        """Canonical representative of p modulo J: p itself over k[X],
        where J has no generators and so no basis to reduce by."""
        if not self.relations.gens:
            if p.ring != self.ring:
                raise RingMismatchError("polynomial in a different ring")
            return p
        return self.relations.groebner().normal_form(p)

    def parse(self, src: str) -> Poly:
        return parse_poly(src, self.ring)

    def is_polynomial_ring(self) -> bool:
        return not self.relations.gens

    def extend_append(self, names: Sequence[str]) -> "FPAlgebra":
        """A[T1..Tk]: free polynomial extension, relations carried over."""
        ext = self.ring.extend_append(names)
        return FPAlgebra(ext, [embed_append(r, ext) for r in self.relations.gens])

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, FPAlgebra) and self.ring == other.ring
                and self.relations.gens == other.relations.gens)

    def __hash__(self):
        return hash((self.ring, self.relations.gens))

    def __repr__(self):
        if self.is_polynomial_ring():
            return f"<algebra {self.ring}>"
        rel = ", ".join(map(str, self.relations.gens))
        return f"<algebra {self.ring}/({rel})>"


class AIdeal:
    """A finitely generated ideal of A, stored by representatives mod J,
    distinct up to sign.

    Owns its lifted ideal, and so at most one reduced Groebner basis.  The
    lifted generators are the representatives and then J's generators,
    with no second dedupe: a nonzero normal form mod J is not in J, so it
    is none of them up to sign, and each list is already distinct."""

    __slots__ = ("algebra", "gens", "_lifted")

    def __init__(self, algebra: FPAlgebra, gens: Sequence[Poly]):
        reps = map(algebra.nf, gens)  # each normal form checks the ring
        self.algebra = algebra
        self.gens = tuple(algebra.ring.unique_up_to_sign(reps))
        self._lifted = None

    def lifted(self) -> gb.IdealGens:
        """The preimage ideal <gens> + J in k[X], built on the first call."""
        if self._lifted is None:
            self._lifted = gb.IdealGens._of_unique(
                self.algebra.ring, self.gens + self.algebra.relations.gens)
        return self._lifted

    def __repr__(self):
        return f"<AIdeal ({', '.join(map(str, self.gens))})>"


class AModule:
    """M = A^q / (column span of the presentation + J A^q)."""

    __slots__ = ("algebra", "rank", "presentation")

    def __init__(self, algebra: FPAlgebra, rank: int,
                 presentation: Sequence[Sequence[Poly]] = ()):
        if rank < 0:
            raise ValueError("negative rank")
        rows = [tuple(algebra.nf(p) for p in row) for row in presentation]
        if rows and len(rows) != rank:
            raise ValueError("presentation must have `rank` rows")
        if len({len(r) for r in rows}) > 1:
            raise ValueError("ragged presentation matrix")
        self.algebra = algebra
        self.rank = rank
        self.presentation = tuple(rows)

    @classmethod
    def free(cls, algebra: FPAlgebra, rank: int) -> "AModule":
        return cls(algebra, rank, ())

    @property
    def ncols(self) -> int:
        return len(self.presentation[0]) if self.presentation else 0

    def relation_columns(self) -> list[list[Poly]]:
        return [[self.presentation[i][j] for i in range(self.rank)]
                for j in range(self.ncols)]

    def base_vectors(self) -> list[list[Poly]]:
        """Presentation columns plus J e_t: the submodule W with M = A^q/W."""
        return self.relation_columns() + gb.scalar_columns(
            self.algebra.relations.gens, self.rank, self.algebra.ring)

    def transport(self, algebra: FPAlgebra) -> "AModule":
        """Reinterpret over a free polynomial extension of the base algebra."""
        ext = algebra.ring
        rows = [[embed_append(p, ext) for p in row] for row in self.presentation]
        return AModule(algebra, self.rank, rows)

    def __repr__(self):
        return f"<AModule rank {self.rank}, {self.ncols} relations>"


# ---------------------------------------------------------------------------
# public operations

def is_trivial(A: FPAlgebra) -> bool:
    """True iff 1 in J."""
    return A.relations.groebner().is_unit_ideal()


def is_regular_element(A: FPAlgebra, f: Poly) -> bool:
    """f is a non-zero-divisor of A, i.e. the ideal <f> is faithful."""
    return is_faithful_ideal(A, AIdeal(A, [f]))


def is_faithful_ideal(A: FPAlgebra, a: AIdeal) -> bool:
    """Ann_A(a) = 0, i.e. (J : <gens>) = J in k[X]; for a = 0, A = 0.
    The colon generators are reduced by the basis A holds for J."""
    J = [[g] for g in A.relations.gens]
    return next(gb._colon_classes(J, a.gens, 1, A.ring,
                                  lambda v: [A.nf(v[0])]), None) is None


def module_colon_element(E: AModule, f: Poly) -> list[list[Poly]]:
    """Generators of (0 :_E f), as normal-form representatives in A^q."""
    out = []
    for r in gb._colon_classes(E.base_vectors(), [E.algebra.nf(f)], E.rank,
                               E.algebra.ring):
        if r not in out:
            out.append(r)
    return out


def ideal_times_module_is_module(a: AIdeal, E: AModule) -> bool:
    """True iff a E = E, i.e. E / a E = 0."""
    R = E.algebra.ring
    span = E.base_vectors() + gb.scalar_columns(a.gens, E.rank, R)
    return next(gb._colon_classes(span, [], E.rank, R), None) is None


def annihilator(E: AModule) -> AIdeal:
    """Ann(E) = {c : c e_t in W for every t}, by one relative syzygy run:
    the vector (e_1 | ... | e_q) of R^(q q) modulo W in each of the q
    blocks."""
    A = E.algebra
    q = E.rank
    if q == 0:
        return AIdeal(A, [A.ring.one()])
    R = A.ring
    units = [u for e_t in gb.scalar_columns([R.one()], q, R) for u in e_t]
    blocks = gb.diagonal_blocks(E.base_vectors(), q, R)
    syz = gb.syzygy_module([units], blocks)
    return AIdeal(A, [s[0] for s in syz])


def algebra_membership(vectors: Sequence[Sequence[Poly]],
                       gens: Sequence[Sequence[Poly]],
                       algebra: FPAlgebra) -> list[Optional[list[Poly]]]:
    """For each v of `vectors`, a lift over span(gens) + J A^rank with
    coefficients for gens only, or None; one tagged basis serves them all."""
    if not vectors:
        return []
    aug = [list(g) for g in gens] + gb.scalar_columns(
        algebra.relations.gens, len(vectors[0]), algebra.ring)
    return [None if lift is None else lift[:len(gens)]
            for lift in gb.module_membership(vectors, aug)]


def quotient_dimension(A: FPAlgebra, a: Optional[AIdeal] = None) -> int:
    """Krull dimension of A/a (of A itself when a is omitted)."""
    if a is not None and a.algebra != A:
        raise RingMismatchError("ideal over a different algebra")
    return gb.krull_dimension(A.relations if a is None else a.lifted())
