"""Bounded complexes of free modules with expected stable ranks.

Carries the determinantal/Fitting ideal machinery, stable rank, the McCoy
injectivity test, characteristic ideals and the exactness certification
(depth of the k-th characteristic ideal at least k, for every k), plus the
Koszul and pfaffian constructors.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from . import groebner as gb
from .algebra import AIdeal, AModule, FPAlgebra, is_faithful_ideal
from .depth import DepthCertificate, depth_at_least
from .exterior import boundary_matrix, exterior_power_matrix, minors, poly_det
from .ring import Poly, RankObstructionError, RingMismatchError


class RingMatrix:
    """A rows x cols matrix over an FPAlgebra, entries reduced mod J."""

    __slots__ = ("algebra", "rows", "cols", "entries")

    def __init__(self, algebra: FPAlgebra, entries: Sequence[Sequence[Poly]],
                 rows: Optional[int] = None, cols: Optional[int] = None):
        ents = [tuple(algebra.nf(p) for p in row) for row in entries]
        if rows is None:
            rows = len(ents)
        if cols is None:
            cols = len(ents[0]) if ents else 0
        if len(ents) != rows or any(len(r) != cols for r in ents):
            raise ValueError("matrix shape mismatch")
        self.algebra = algebra
        self.rows = rows
        self.cols = cols
        self.entries = tuple(ents)

    @classmethod
    def zero(cls, algebra: FPAlgebra, rows: int, cols: int) -> "RingMatrix":
        z = algebra.ring.zero()
        return cls(algebra, [[z] * cols for _ in range(rows)], rows, cols)

    @classmethod
    def identity(cls, algebra: FPAlgebra, n: int) -> "RingMatrix":
        one, zero = algebra.ring.one(), algebra.ring.zero()
        return cls(algebra, [[one if i == j else zero for j in range(n)]
                             for i in range(n)], n, n)

    def column(self, j: int) -> list[Poly]:
        return [self.entries[i][j] for i in range(self.rows)]

    def columns(self) -> list[list[Poly]]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "RingMatrix":
        return RingMatrix(self.algebra,
                          [[self.entries[i][j] for i in range(self.rows)]
                           for j in range(self.cols)], self.cols, self.rows)

    def mul(self, other: "RingMatrix") -> "RingMatrix":
        if self.algebra != other.algebra:
            raise RingMismatchError("matrices over different algebras")
        if self.cols != other.rows:
            raise ValueError("inner dimensions disagree")
        dot = self.algebra.ring.dot
        cols = other.columns()
        return RingMatrix(self.algebra,
                          [[dot(row, col) for col in cols]
                           for row in self.entries], self.rows, other.cols)

    def is_zero(self) -> bool:
        return all(p.is_zero for row in self.entries for p in row)

    def det(self) -> Poly:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return self.minor(range(self.rows), range(self.cols))

    def minor(self, rset: Sequence[int], cset: Sequence[int]) -> Poly:
        return self.algebra.nf(poly_det([[self.entries[i][j] for j in cset]
                                         for i in rset], self.algebra.ring))

    def exterior_power(self, r: int) -> "RingMatrix":
        return RingMatrix(self.algebra, exterior_power_matrix(
            self.entries, self.algebra.ring, r))

    def __eq__(self, other):
        """Same algebra, shape and reduced entries (without rows, only
        `cols` shows the shape)."""
        return (isinstance(other, RingMatrix) and self.algebra == other.algebra
                and self.cols == other.cols and self.entries == other.entries)

    def __repr__(self):
        return f"<{self.rows}x{self.cols} matrix over {self.algebra!r}>"


def determinantal_ideal(M: RingMatrix, k: int) -> AIdeal:
    """D_k(M): the k x k minors; <1> for k <= 0, <0> past the format."""
    A = M.algebra
    return AIdeal(A, list(minors(M.entries, A.ring, max(k, 0)).values()))


def presentation_matrix(E: AModule) -> RingMatrix:
    rows = [list(r) for r in E.presentation]
    if not rows:
        return RingMatrix.zero(E.algebra, E.rank, 0)
    return RingMatrix(E.algebra, rows, E.rank, E.ncols)


def fitting_ideal(E: AModule, n: int) -> AIdeal:
    """F_n(E) = D_(q-n) of a q-row presentation matrix."""
    return determinantal_ideal(presentation_matrix(E), E.rank - n)


def stable_rank_at_least(M: RingMatrix, r: int) -> bool:
    """D_r(M) is faithful."""
    return is_faithful_ideal(M.algebra, determinantal_ideal(M, r))


def is_stable_rank(M: RingMatrix, r: int) -> bool:
    """D_r(M) faithful and D_(r+1)(M) = 0."""
    if not stable_rank_at_least(M, r):
        return False
    return all(g.is_zero for g in determinantal_ideal(M, r + 1).gens)


def mccoy_injective(M: RingMatrix) -> bool:
    """Injectivity of M : A^cols -> A^rows iff D_cols(M) is faithful."""
    return stable_rank_at_least(M, M.cols)


def kernel_generators(M: RingMatrix) -> list[list[Poly]]:
    """Normal-form generators of ker(M : A^cols -> A^rows).

    Works over the quotient: a kernel element is a syzygy of the columns
    modulo J A^rows, one relative syzygy run.
    """
    A = M.algebra
    syz = gb.syzygy_module(M.columns(), gb.scalar_columns(
        A.relations.gens, M.rows, A.ring))
    out = []
    for s in syz:
        c = [A.nf(p) for p in s]
        if any(not p.is_zero for p in c) and c not in out:
            out.append(c)
    return out


# ---------------------------------------------------------------------------
# free complexes

class FreeComplex:
    """0 -> L_m -> ... -> L_1 -> L_0 with d.d = 0 checked at construction.

    `matrices[k-1]` is A_k : L_k -> L_{k-1} (so A_1 comes first, and at
    least one map is given); the expected stable ranks r_0..r_{m+1} are the
    ones the sizes force: r_{m+1} = 0 and p_k = r_k + r_{k+1}.
    """

    __slots__ = ("algebra", "matrices", "sizes", "ranks")

    def __init__(self, algebra: FPAlgebra, matrices: Sequence[RingMatrix]):
        if not matrices:
            raise ValueError("empty complex")
        for M in matrices:
            if M.algebra != algebra:
                raise RingMismatchError("matrix over a different algebra")
        m = len(matrices)
        sizes = [matrices[0].rows] + [M.cols for M in matrices]
        for k in range(m - 1):
            if matrices[k + 1].rows != sizes[k + 1]:
                raise ValueError(f"size mismatch between A_{k+1} and A_{k+2}")
        for k in range(m - 1):
            if not matrices[k].mul(matrices[k + 1]).is_zero():
                raise ValueError(f"A_{k+1} A_{k+2} != 0: not a complex")
        ranks = [0] * (m + 2)
        for k in range(m, -1, -1):
            ranks[k] = sizes[k] - ranks[k + 1]
            if ranks[k] < 0:
                raise RankObstructionError(
                    f"expected rank r_{k} = {ranks[k]} is negative: "
                    "this shape forces the trivial ring")
        self.algebra = algebra
        self.matrices = tuple(matrices)
        self.sizes = tuple(sizes)
        self.ranks = tuple(ranks)

    @property
    def length(self) -> int:
        return len(self.matrices)

    def matrix(self, k: int) -> RingMatrix:
        """A_k for 1 <= k <= m."""
        if not 1 <= k <= len(self.matrices):
            raise ValueError(f"no matrix A_{k} in a complex of length "
                             f"{len(self.matrices)}")
        return self.matrices[k - 1]

    def __repr__(self):
        shape = " <- ".join(f"A^{p}" for p in self.sizes)
        return f"<complex {shape}>"


def euler_characteristic(C: FreeComplex) -> int:
    """chi = sum (-1)^k p_k = r_0."""
    return C.ranks[0]


def characteristic_ideal(C: FreeComplex, k: int) -> AIdeal:
    """D_k := D_(r_k)(A_k); <1> past the length."""
    if k > C.length:
        return AIdeal(C.algebra, [C.algebra.ring.one()])
    return determinantal_ideal(C.matrix(k), C.ranks[k])


def characteristic_ideals(C: FreeComplex) -> list[AIdeal]:
    return [characteristic_ideal(C, k) for k in range(1, C.length + 1)]


class ExactnessCondition(NamedTuple):
    """Gr(ideal) >= level: the depth a level requires is the level."""

    level: int
    ideal: AIdeal
    certificate: Optional[DepthCertificate]

    @property
    def holds(self) -> Optional[bool]:
        return None if self.certificate is None else self.certificate.holds


class ExactnessReport(NamedTuple):
    """Per-level depth conditions; exact iff all of them hold."""

    conditions: tuple[ExactnessCondition, ...]

    @property
    def exact(self) -> bool:
        return all(c.holds for c in self.conditions)

    @property
    def failing_level(self) -> Optional[int]:
        return next((c.level for c in self.conditions if c.holds is False),
                    None)


def certify_exact(C: FreeComplex) -> ExactnessReport:
    """Exactness iff Gr(D_l) >= l for every l.

    Levels are checked in order l = 1..m; once one fails, the later levels
    are reported as skipped, not decided.
    """
    A = C.algebra
    E = AModule.free(A, 1)
    ideals = characteristic_ideals(C)
    conditions = []
    failed = False
    for level, ideal in enumerate(ideals, start=1):
        cert = None if failed else depth_at_least(ideal, E, level)
        conditions.append(ExactnessCondition(level, ideal, cert))
        failed = failed or not cert.holds
    return ExactnessReport(tuple(conditions))


def elementary_modification(C: FreeComplex, k: int, s: int) -> FreeComplex:
    """Add a trivial A^s summand between L_k and L_{k+1} (1 <= k <= m-1).

    A_k becomes [A_k | 0], A_{k+1} becomes [[A_{k+1}, 0], [0, I_s]] and
    A_{k+2} gains s zero rows.  The characteristic ideals are unchanged;
    only r_{k+1} grows by s.  With s = 0 the complex itself is returned.
    """
    m = C.length
    if not 1 <= k <= m - 1:
        raise ValueError("k must be an inner index")
    if s < 0:
        raise ValueError("negative added rank")
    if s == 0:
        return C
    A = C.algebra
    zero = A.ring.zero()
    pad = (zero,) * s
    mats = list(C.matrices)
    Ak, Ak1 = mats[k - 1], mats[k]
    mats[k - 1] = RingMatrix(A, [row + pad for row in Ak.entries],
                             Ak.rows, Ak.cols + s)
    mats[k] = RingMatrix(A, [row + pad for row in Ak1.entries]
                         + [(zero,) * Ak1.cols + row
                            for row in RingMatrix.identity(A, s).entries])
    if k + 1 < m:
        Ak2 = mats[k + 1]
        mats[k + 1] = RingMatrix(A, Ak2.entries + ((zero,) * Ak2.cols,) * s)
    return FreeComplex(A, mats)


def koszul_complex(algebra: FPAlgebra, seq: Sequence[Poly]) -> FreeComplex:
    """The descending Koszul complex of a sequence.

    d_k(e_J) = sum over i in J of (-1)^(pos-1) a_i e_(J minus i), with pos
    the position of i inside J; bases of the exterior powers are colex.
    """
    n = len(seq)
    zero = algebra.ring.zero()
    return FreeComplex(algebra, [
        RingMatrix(algebra, boundary_matrix(
            n, k, lambda J, pos: seq[J[pos] - 1], zero))
        for k in range(1, n + 1)])


def pfaffian(entries: Sequence[Sequence[Poly]], ring) -> Poly:
    """Pfaffian of an antisymmetric matrix (Laplace-style): 1 on the empty
    matrix, 0 on one of odd size, where the expansion runs out of entries."""

    def rec(idx: tuple[int, ...]) -> Poly:
        if not idx:
            return ring.one()
        i0 = idx[0]
        live = [(pos, entries[i0][j]) for pos, j in enumerate(idx[1:], 1)
                if not entries[i0][j].is_zero]
        return ring.dot(
            [e if pos % 2 else -e for pos, e in live],
            [rec(idx[1:pos] + idx[pos + 1:]) for pos, _ in live])

    return rec(tuple(range(len(entries))))


class PfaffianData(NamedTuple):
    """Q row, the 4-term complex 0 -> A -Q^T-> A^n -X-> A^n -Q-> A, and the
    re-check adj(X) = Q^T Q.  Q X = 0 needs no field of its own: the
    complex could not have been built without it."""

    Q: RingMatrix
    complex: FreeComplex
    adjugate_identity: bool


def adjugate(M: RingMatrix) -> RingMatrix:
    n = M.rows
    A = M.algebra
    table = minors(M.entries, A.ring, max(n - 1, 0))
    full = tuple(range(1, n + 1))
    drop = [full[:t] + full[t + 1:] for t in range(n)]

    def cofactor(i: int, j: int) -> Poly:
        c = table[drop[j], drop[i]]
        return -c if (i + j) % 2 else c

    return RingMatrix(A, [[cofactor(i, j) for j in range(n)]
                          for i in range(n)], n, n)


def pfaffian_data(X: RingMatrix) -> PfaffianData:
    """q_i = (-1)^i pf(X minus row/col i); complex A -> A^n -> A^n -> A."""
    A = X.algebra
    n = X.rows
    if X.cols != n or n % 2 == 0:
        raise ValueError("need an odd-size square matrix")
    if X.transpose() != RingMatrix(A, [[-p for p in row]
                                       for row in X.entries]):
        raise ValueError("matrix is not antisymmetric")
    qs = []
    for i in range(1, n + 1):
        keep = [t for t in range(n) if t != i - 1]
        sub = [[X.entries[a][b] for b in keep] for a in keep]
        p = pfaffian(sub, A.ring)
        qs.append(-p if i % 2 else p)
    Q = RingMatrix(A, [qs], 1, n)
    adj_ok = adjugate(X) == Q.transpose().mul(Q)
    cplx = FreeComplex(A, [Q, X, Q.transpose()])
    return PfaffianData(Q, cplx, adj_ok)
