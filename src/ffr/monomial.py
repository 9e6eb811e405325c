"""Purely combinatorial monomial-ideal layer: monomial syzygies, the
Taylor resolution on the subset lattice with its explicit contracting
homotopy, and the minimality test for that resolution.

Elements of the Taylor modules L_k are grade-k `exterior.MultiVector`s
over {1..r}, the element type of every subset-indexed free module; the
subset bases are the shared colexicographic enumeration.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Sequence

from .algebra import FPAlgebra
from .complexes import FreeComplex, RingMatrix
from .exterior import (MultiVector, boundary_matrix, subset_index,
                       subsets_colex)
from .ring import (Poly, PolyRing, mono_div, mono_divides, mono_gcd, mono_lcm,
                   parse_poly)


class MonomialList:
    """m_1..m_r as exponent vectors over a polynomial ring."""

    __slots__ = ("ring", "monomials", "algebra")

    def __init__(self, ring: PolyRing, monomials: Sequence[tuple[int, ...]]):
        self.ring = ring
        self.monomials = tuple(monomials)
        self.algebra = FPAlgebra.polynomial(ring)  # the base of every L_k

    @classmethod
    def parse(cls, ring: PolyRing, sources: Sequence[str]) -> "MonomialList":
        monos = []
        for s in sources:
            p = parse_poly(s, ring)
            if len(p.terms) != 1:
                raise ValueError(f"{s!r} is not a monomial")
            ((m, c),) = p.terms.items()
            if c != ring.field.one():
                raise ValueError(f"{s!r} has a nontrivial coefficient")
            monos.append(m)
        return cls(ring, tuple(monos))

    @property
    def r(self) -> int:
        return len(self.monomials)

    def poly(self, i: int) -> Poly:
        """m_i as a polynomial (1-based)."""
        return Poly(self.ring, {self.monomials[i - 1]: self.ring.field.one()})

    def lcm_of(self, J: Sequence[int]) -> tuple[int, ...]:
        acc = (0,) * self.ring.n
        for j in J:
            acc = mono_lcm(acc, self.monomials[j - 1])
        return acc

    def __repr__(self):
        return f"MonomialList(ring={self.ring!r}, monomials={self.monomials!r})"


def monomial_syzygies(m: MonomialList) -> list[list[Poly]]:
    """The generators m_ij e_i - m_ji e_j (i < j) of the syzygy module."""
    R = m.ring
    one = R.field.one()
    zero = R.zero()
    out = []
    for i in range(1, m.r + 1):
        for j in range(i + 1, m.r + 1):
            mi, mj = m.monomials[i - 1], m.monomials[j - 1]
            g = mono_gcd(mi, mj)
            vec = [zero] * m.r
            vec[i - 1] = Poly(R, {mono_div(mj, g): one})
            vec[j - 1] = -Poly(R, {mono_div(mi, g): one})
            out.append(vec)
    return out


class TaylorComplex(NamedTuple):
    """The Taylor resolution: L_k free on the k-subsets of {1..r}."""

    monomials: MonomialList
    complex: FreeComplex

    def differential(self, elem: MultiVector) -> MultiVector:
        """d applied to an element of L_k: the matrix A_k of the complex
        applied to its nonzero colex coordinates.  L_0 ends the complex,
        so d is zero there."""
        r, k = self.monomials.r, elem.grade
        if elem.n != r:
            raise ValueError(f"element of rank {elem.n}, complex of rank {r}")
        A = self.complex.algebra
        if k == 0:
            return MultiVector.zero(A, r, 0)
        col_of = subset_index(r, k)
        cols = [col_of[J] for J in elem.coords]
        out = {K: A.ring.dot([row[j] for j in cols], elem.coords.values())
               for K, row in zip(subsets_colex(r, k - 1),
                                 self.complex.matrix(k).entries)
               if any(row[j].terms for j in cols)}
        return MultiVector.from_dict(A, r, k - 1, out)


def taylor_complex(m: MonomialList) -> TaylorComplex:
    """The full complex of r >= 1 monomials, d(e_J) weighted by lcm ratios;
    d.d = 0 is checked by the FreeComplex constructor."""
    if not m.r:  # L_0 = A alone: a FreeComplex needs at least one map
        raise ValueError("the Taylor complex needs at least one monomial")
    R = m.ring
    one = R.field.one()

    def coeff(J, pos):
        return Poly(R, {mono_div(m.lcm_of(J),
                                 m.lcm_of(J[:pos] + J[pos + 1:])): one})

    mats = [RingMatrix(m.algebra, boundary_matrix(m.r, k, coeff, R.zero()))
            for k in range(1, m.r + 1)]
    return TaylorComplex(m, FreeComplex(m.algebra, mats))


def taylor_homotopy(m: MonomialList, p: tuple[int, ...],
                    J: Sequence[int]) -> MultiVector:
    """h(p e_J) for a monomial multiplier p, an element of L_(|J|+1).

    With i the least index such that m_i divides lcm(m_J) p: the value is
    (lcm(m_J) p / lcm(m_J')) e_J' for J' = J + {i} when i exists outside J,
    and 0 otherwise (for J empty the index may not exist at all).
    """
    J = tuple(J)
    R = m.ring
    lcm_J = m.lcm_of(J)
    target = tuple(a + b for a, b in zip(lcm_J, p))
    found = None
    for i in range(1, m.r + 1):
        if mono_divides(m.monomials[i - 1], target):
            found = i
            break
    if found is None or found in J:
        return MultiVector.zero(m.algebra, m.r, len(J) + 1)
    Jp = tuple(sorted(J + (found,)))
    quot = mono_div(target, m.lcm_of(Jp))
    return MultiVector.from_dict(m.algebra, m.r, len(Jp),
                                 {Jp: Poly(R, {quot: R.field.one()})})


def _homotopy_elem(m: MonomialList, elem: MultiVector) -> MultiVector:
    """h extended to polynomial coefficients, term by term."""
    out = MultiVector.zero(m.algebra, m.r, elem.grade + 1)
    for J, c in elem.coords.items():
        for mono, coeff in c.terms.items():
            out = out + taylor_homotopy(m, mono, J).scale(coeff)
    return out


def homotopy_identity_check(T: TaylorComplex) -> bool:
    """(d h + h d)(p e_J) = p e_J for every point t = lcm(m_K), K nonempty,
    of the lcm lattice, every subset J of S(t) = {i : m_i | t} and
    p = t / lcm(m_J).

    h and d keep t = lcm(m_J) p on every term, so the identity at (p, J)
    depends only on J and S(t); lcm(m_S(t)) is a lattice point dividing t
    with the same S.  These samples thus stand for every p e_J in the
    image of the ideal, and True proves the augmented complex exact.
    """
    m = T.monomials
    R = m.ring
    points: set[tuple[int, ...]] = set()
    for mi in m.monomials:
        points |= {mono_lcm(t, mi) for t in points} | {mi}
    for t in points:
        S = [i for i, mi in enumerate(m.monomials, 1) if mono_divides(mi, t)]
        for J in (J for k in range(len(S) + 1) for J in combinations(S, k)):
            p = Poly(R, {mono_div(t, m.lcm_of(J)): R.field.one()})
            elem = MultiVector.from_dict(m.algebra, m.r, len(J), {J: p})
            total = MultiVector.zero(m.algebra, m.r, len(J))
            h_elem = _homotopy_elem(m, elem)
            if not h_elem.is_zero:
                total = total + T.differential(h_elem)
            if J:
                total = total + _homotopy_elem(m, T.differential(elem))
            if total != elem:
                return False
    return True


def is_taylor_minimal(m: MonomialList) -> bool:
    """No lcm(J minus j) equals lcm(J), over all subsets J and j in J.

    That is: no m_j divides the lcm of the other monomials.  If
    lcm(J minus j) = lcm(J), then m_j divides lcm(J minus j), which divides
    the lcm of the others; conversely, with J = {1..r}, m_j dividing the lcm
    of the others makes lcm(J minus j) = lcm(J).  So r lcms decide it.
    """
    everyone = range(1, m.r + 1)
    return not any(mono_divides(m.monomials[j - 1],
                                m.lcm_of([i for i in everyone if i != j]))
                   for j in everyone)
