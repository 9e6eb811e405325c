"""Exterior algebra of a free module A^n.

`MultiVector` is the one element type of every subset-indexed free
module: the exterior powers Lambda^p(A^n), also in Cayley factorization,
and the Taylor modules L_k of `monomial.py`.  It maps p-subsets of {1..n}
(sorted index tuples) to ring elements, in the one colexicographic subset
order that every consumer shares, so that matrix layouts line up.

Every subset-indexed matrix is built here: `minors` is the one table of
k x k minors (determinants, determinantal ideals, exterior powers,
adjugates, decomposable wedges), and `boundary_matrix` the one colex
layout of the Koszul and Taylor differentials.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import lcm, prod
from typing import NamedTuple, Sequence

from .algebra import FPAlgebra
from .ring import Poly, PolyRing, RingMismatchError, _Pack


@lru_cache(maxsize=None)
def subsets_colex(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-subsets of {1..n} in colexicographic order."""
    subs = sorted(combinations(range(1, n + 1), k),
                  key=lambda s: tuple(reversed(s)))
    return tuple(subs)


@lru_cache(maxsize=None)
def subset_index(n: int, k: int) -> dict:
    return {s: i for i, s in enumerate(subsets_colex(n, k))}


def eps_sign(I: Sequence[int], J: Sequence[int]) -> int:
    """(-1)^r with r = #{(i, j) in I x J : i > j}."""
    r = sum(1 for i in I for j in J if i > j)
    return -1 if r % 2 else 1


def complement(I: Sequence[int], n: int) -> tuple[int, ...]:
    s = set(I)
    return tuple(i for i in range(1, n + 1) if i not in s)


# ---------------------------------------------------------------------------
# minors and boundary matrices (Laplace expansion, memoized per call)

def minors(rows: Sequence[Sequence[Poly]], ring: PolyRing, k: int) -> dict:
    """Every k x k minor, keyed (I, J) by 1-based colex row and column
    subsets, I outermost.

    Each minor is expanded along its first column; one memo serves the
    whole table, so a sub-minor shared by several minors is computed once.
    The expansion adds packed terms (`ring._Pack`) and multiplies ints:
    row r is cleared of its denominators d_r once, the minor on rows I is
    its int vector over the product of their d_r, and the fields are wide
    enough for k times the largest entry degree, so nothing overflows.
    Each distinct packed minor (int vector and denominator) is decoded
    into a `Poly` once, so equal minors share one object.
    """
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    if any(f.ring is not ring and f.ring != ring for r in rows for f in r):
        raise RingMismatchError(f"matrix entry not in {ring}")
    if k == 0:
        return {((), ()): ring.one()}
    top = max((f.degree() for r in rows for f in r), default=0)
    pack = _Pack.of(ring, 1, (k * max(top, 0)).bit_length() + 1)
    p = ring.field.p
    ents, dens = [], []
    for row in rows:
        packed = [pack.vec([f]) for f in row]
        d = lcm(*(b for _, b in packed))
        ents.append([{t: x * (d // b) for t, x in v.items()} if b != d else v
                     for v, b in packed])
        dens.append(d)
    memo: dict = {}

    def rec(I: tuple[int, ...], J: tuple[int, ...]) -> dict:
        if len(I) == 1:
            return ents[I[0] - 1][J[0] - 1]
        got = memo.get((I, J))
        if got is not None:
            return got
        column, rest = J[0] - 1, J[1:]
        acc: dict = {}
        get = acc.get
        for pos, r in enumerate(I):
            e = ents[r - 1][column]
            if not e:
                continue
            sub = rec(I[:pos] + I[pos + 1:], rest)
            for t1, c1 in e.items():
                if pos % 2:
                    c1 = -c1
                for t2, c2 in sub.items():
                    t = t1 + t2
                    acc[t] = get(t, 0) + c1 * c2
        got = memo[I, J] = {t: c for t, x in acc.items()
                            if (c := x % p if p else x)}
        return got

    decoded: dict = {}

    def poly(v: dict, d: int) -> Poly:
        key = d, frozenset(v.items())
        got = decoded.get(key)
        if got is None:
            got = decoded[key] = pack.polys(v, d)[0]
        return got

    cols = subsets_colex(ncols, k)
    return {(I, J): poly(rec(I, J), d)
            for I in subsets_colex(len(rows), k)
            for d in [prod(dens[r - 1] for r in I)] for J in cols}


def poly_det(rows: Sequence[Sequence[Poly]], ring: PolyRing) -> Poly:
    """Determinant of a square matrix of polynomials."""
    m = len(rows)
    if any(len(r) != m for r in rows):
        raise ValueError("matrix is not square")
    full = tuple(range(1, m + 1))
    return minors(rows, ring, m)[full, full]


def boundary_matrix(n: int, k: int, coeff, zero: Poly) -> list[list[Poly]]:
    """The map e_J -> sum_pos (-1)^pos coeff(J, pos) e_(J minus J[pos]).

    Rows are the colex (k-1)-subsets of {1..n}, columns the colex k-subsets.
    """
    row_of = subset_index(n, k - 1)
    cols = subsets_colex(n, k)
    ents = [[zero] * len(cols) for _ in row_of]
    for j, J in enumerate(cols):
        for pos in range(k):
            c = coeff(J, pos)
            ents[row_of[J[:pos] + J[pos + 1:]]][j] = -c if pos % 2 else c
    return ents


class MultiVector(NamedTuple):
    """An element of Lambda^p(A^n): sorted index tuples -> coefficients."""

    algebra: FPAlgebra
    n: int
    grade: int
    coords: dict  # colex key order, zeros dropped; not hashed

    @classmethod
    def from_dict(cls, algebra: FPAlgebra, n: int, grade: int,
                  coords: dict) -> "MultiVector":
        index = subset_index(n, grade)
        for s in coords:
            if s not in index:
                raise ValueError(f"bad subset {s} for grade {grade}, n={n}")
        out = {}
        for s in sorted(coords, key=index.__getitem__):
            c = algebra.nf(coords[s])
            if not c.is_zero:
                out[s] = c
        return cls(algebra, n, grade, out)

    @classmethod
    def zero(cls, algebra: FPAlgebra, n: int, grade: int) -> "MultiVector":
        return cls(algebra, n, grade, {})

    @classmethod
    def basis(cls, algebra: FPAlgebra, n: int, I: Sequence[int]) -> "MultiVector":
        I = tuple(I)
        return cls.from_dict(algebra, n, len(I), {I: algebra.ring.one()})

    @classmethod
    def scalar(cls, algebra: FPAlgebra, n: int, c: Poly) -> "MultiVector":
        return cls.from_dict(algebra, n, 0, {(): c})

    def coeff(self, I: Sequence[int]) -> Poly:
        return self.coords.get(tuple(I), self.algebra.ring.zero())

    def coord_list(self) -> list[Poly]:
        """Coordinates over the colex basis of p-subsets, dense."""
        zero = self.algebra.ring.zero()
        return [self.coords.get(s, zero)
                for s in subsets_colex(self.n, self.grade)]

    @property
    def is_zero(self) -> bool:
        return not self.coords

    def _check(self, other: "MultiVector"):
        if self.algebra != other.algebra or self.n != other.n:
            raise RingMismatchError("multivectors over different modules")

    def __add__(self, other: "MultiVector") -> "MultiVector":
        self._check(other)
        if self.grade != other.grade:
            raise ValueError("grades differ")
        d = dict(self.coords)
        for s, c in other.coords.items():
            d[s] = d[s] + c if s in d else c
        return MultiVector.from_dict(self.algebra, self.n, self.grade, d)

    def __sub__(self, other: "MultiVector") -> "MultiVector":
        return self + other.scale(-self.algebra.ring.one())

    def scale(self, c) -> "MultiVector":
        """Multiply by a ring element or a field scalar."""
        return MultiVector.from_dict(
            self.algebra, self.n, self.grade,
            {s: c * v for s, v in self.coords.items()})

    def __hash__(self):
        return hash(self[:3])

    def __repr__(self):
        if self.is_zero:
            return "<0>"
        parts = [f"({v})e{''.join(map(str, s)) if s else '_'}"
                 for s, v in self.coords.items()]
        return "<" + " + ".join(parts) + ">"


def wedge(x: MultiVector, y: MultiVector) -> MultiVector:
    """Graded product: e_I ^ e_J = eps_{I,J} e_{I u J}, zero on overlap."""
    x._check(y)
    A = x.algebra
    out: dict = {}
    for I, cI in x.coords.items():
        setI = set(I)
        for J, cJ in y.coords.items():
            if setI & set(J):
                continue
            K = tuple(sorted(I + J))
            c = cI * cJ
            if eps_sign(I, J) < 0:
                c = -c
            out[K] = out.get(K, A.ring.zero()) + c
    return MultiVector.from_dict(A, x.n, x.grade + y.grade, out)


def decomposable(algebra: FPAlgebra, columns: Sequence[Sequence[Poly]],
                 n: int | None = None) -> MultiVector:
    """u_1 ^ ... ^ u_k for the columns of an n x k matrix.

    The I-coordinate is the k x k minor on rows I.
    """
    k = len(columns)
    if n is None:
        if not columns:
            raise ValueError("need n for the empty wedge")
        n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("ragged columns")
    if k > n:
        raise ValueError("more columns than the ambient rank")
    rows = [[columns[j][i] for j in range(k)] for i in range(n)]
    table = minors(rows, algebra.ring, k)
    return MultiVector.from_dict(algebra, n, k,
                                 {I: c for (I, _), c in table.items()})


def pairing(u: MultiVector, v: MultiVector) -> Poly:
    """<u | v> = sum_I u_I v_I; equals det(tU V) on decomposables."""
    u._check(v)
    if u.grade != v.grade:
        raise ValueError("grades differ")
    ring = u.algebra.ring
    zero = ring.zero()
    return u.algebra.nf(ring.dot(u.coords.values(),
                                 [v.coords.get(s, zero) for s in u.coords]))


def _hodge(x: MultiVector, left: bool) -> MultiVector:
    out: dict = {}
    for I, c in x.coords.items():
        J = complement(I, x.n)
        sign = eps_sign(J, I) if left else eps_sign(I, J)
        out[J] = c if sign > 0 else -c
    return MultiVector.from_dict(x.algebra, x.n, x.n - x.grade, out)


def hodge_right(x: MultiVector) -> MultiVector:
    """x* with coordinates <x*, e_J> = [x ^ e_J]; e_J* = eps_{J,Jc} e_Jc."""
    return _hodge(x, left=False)


def hodge_left(x: MultiVector) -> MultiVector:
    """Left companion determined by Hl(e_J) ^ e_J = e_{1..n}.

    Used by the tests and by the `ffr hodge-selftest` identity suite.
    """
    return _hodge(x, left=True)


def interior_right(x: MultiVector, u: MultiVector) -> MultiVector:
    """Right interior product by a grade-1 vector; a left antiderivation.

    On basis elements: e_I |_ e_j = (-1)^(pos-1) e_{I minus j} when j is the
    pos-th index of I, zero when j is not in I.
    """
    if u.grade != 1:
        raise ValueError("contraction direction must have grade 1")
    x._check(u)
    A = x.algebra
    if x.grade == 0:
        return MultiVector.zero(A, x.n, 0)
    out: dict = {}
    for I, c in x.coords.items():
        for pos, j in enumerate(I):
            w = u.coords.get((j,))
            if w is None:
                continue
            K = I[:pos] + I[pos + 1:]
            term = c * w
            if pos % 2:
                term = -term
            out[K] = out.get(K, A.ring.zero()) + term
    return MultiVector.from_dict(A, x.n, x.grade - 1, out)


def sylvester_plucker(algebra: FPAlgebra, x_list: Sequence[Sequence[Poly]],
                      z_list: Sequence[Sequence[Poly]]):
    """Both sides of the Sylvester-Pluecker expansion, plus their equality.

    LHS: [x_1 ^ .. ^ x_n] * (z_1 ^ .. ^ z_p); RHS: the sum over p-subsets K
    of [x with the K-entries replaced by z] * wedge of the kept x_k.
    """
    n = len(x_list)
    p = len(z_list)
    if any(len(v) != n for v in x_list) or any(len(v) != n for v in z_list):
        raise ValueError("vectors must live in A^n")
    if p > n:
        raise ValueError("too many replacement vectors")
    R = algebra.ring
    # the vectors are the columns; det X = det X^T reads them as rows
    det_x = poly_det(x_list, R)
    lhs = decomposable(algebra, z_list, n).scale(det_x)
    rhs = MultiVector.zero(algebra, n, p)
    for K in subsets_colex(n, p):
        replaced = list(x_list)
        for idx, k in enumerate(K):
            replaced[k - 1] = z_list[idx]
        coeff = poly_det(replaced, R)
        kept = [x_list[k - 1] for k in K]
        rhs = rhs + decomposable(algebra, kept, n).scale(coeff)
    return lhs, rhs, lhs == rhs


def are_proportional(u: MultiVector, v: MultiVector) -> bool:
    """True iff all 2x2 coordinate cross products vanish in the algebra."""
    u._check(v)
    if u.grade != v.grade:
        raise ValueError("grades differ")
    A = u.algebra
    du, dv = u.coords, v.coords
    zero = A.ring.zero()
    return all(A.nf(du.get(I, zero) * dv.get(J, zero)
                    - du.get(J, zero) * dv.get(I, zero)).is_zero
               for I, J in combinations(subsets_colex(u.n, u.grade), 2))


def exterior_power_matrix(entries: Sequence[Sequence[Poly]], ring: PolyRing,
                          r: int) -> list[list[Poly]]:
    """Matrix of Lambda^r of a map, rows/columns indexed colex.

    Entry (I, J) is the r x r minor of the underlying matrix on rows I and
    columns J.
    """
    table = minors(entries, ring, r)
    cols = subsets_colex(len(entries[0]) if entries else 0, r)
    return [[table[I, J] for J in cols]
            for I in subsets_colex(len(entries), r)]
