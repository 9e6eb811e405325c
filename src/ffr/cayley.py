"""Cayley complexes: rank-one factorization of the exterior powers of the
differentials, factorization ideals, the Cayley determinant, MacRae
invariants, strong gcds, Hilbert-Burch, and the Sylvester complex whose
Cayley determinant is the resultant of two binary forms.

Division never happens literally: every extraction of a factor goes
through module lifting plus a uniqueness check against a faithful ideal,
which stays correct in the presence of zero divisors.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .algebra import (AIdeal, AModule, FPAlgebra, algebra_membership,
                      is_faithful_ideal, is_regular_element)
from .complexes import (FreeComplex, RingMatrix, certify_exact,
                        fitting_ideal, kernel_generators, mccoy_injective,
                        presentation_matrix)
from .depth import DepthCertificate, depth_at_least
from .exterior import MultiVector, hodge_right, minors, subsets_colex
from .ring import FFRError, Poly, VerificationError, mono_gcd


class CayleyError(FFRError):
    """A Cayley hypothesis failed or a factorization step has no solution."""


class CayleyHypotheses(NamedTuple):
    """Gr(D_1) >= 1 and Gr(D_k) >= 2 for 2 <= k <= m, with certificates."""

    certificates: tuple[DepthCertificate, ...]

    @property
    def holds(self) -> bool:
        return all(c.holds for c in self.certificates)

    @property
    def failing_level(self) -> Optional[int]:
        for i, c in enumerate(self.certificates, start=1):
            if not c.holds:
                return i
        return None


def is_cayley_complex(C: FreeComplex) -> CayleyHypotheses:
    """The two depth families defining a Cayley complex (length >= 2)."""
    if C.length < 2:
        raise ValueError("a Cayley complex has length at least 2")
    return _hypotheses(C)[0]


def _hypotheses(C: FreeComplex) -> tuple[CayleyHypotheses,
                                         list[RingMatrix]]:
    """The hypotheses, and Lambda^(r_k) A_k for k = 1..m (index k - 1).

    D_k = D_(r_k)(A_k) is read off the entries of Lambda^(r_k) A_k row by
    row, the order of its minors table, so one table serves both.
    """
    A = C.algebra
    E = AModule.free(A, 1)
    certs, powers = [], []
    for k in range(1, C.length + 1):
        M = C.matrix(k).exterior_power(C.ranks[k])
        required = 1 if k == 1 else 2
        Dk = AIdeal(A, [p for row in M.entries for p in row])
        certs.append(depth_at_least(Dk, E, required))
        powers.append(M)
    return CayleyHypotheses(tuple(certs)), powers


class CayleyData(NamedTuple):
    """The factorization Lambda^(r_k) A_k = u_{k-1} (u_k*)^T.

    u_vectors[k] is u_k (grade r_{k+1} over L_k); factor_ideals[k] is
    B_k = <coordinates of u_k>; det is the scalar u_0 when chi = 0.
    """

    complex: FreeComplex
    hypotheses: CayleyHypotheses
    u_vectors: tuple[MultiVector, ...]
    factor_ideals: tuple[AIdeal, ...]
    det: Optional[Poly]

    def principal_generator(self) -> Poly:
        """The regular generator of B_0; the chi > 0 certificate route."""
        g = self.det
        if g is None:
            b0 = self.factor_ideals[0]
            if len(b0.gens) != 1:
                raise CayleyError("B_0 is not visibly principal")
            g = b0.gens[0]
        if g.is_zero or not is_regular_element(self.complex.algebra, g):
            raise CayleyError("the B_0 generator is not regular")
        return g


def cayley_factorize(C: FreeComplex) -> CayleyData:
    """Downward recursion from u_m = [1], solving M = u_{k-1} (u_k*)^T.

    Each coordinate of u_{k-1} is the unique lift of the corresponding row
    of Lambda^(r_k) A_k over the dual row; uniqueness needs the dual's
    coordinate ideal to be faithful, solvability is the Cayley hypothesis.
    The outer-product identity is re-verified exactly at every level.
    """
    A = C.algebra
    m = C.length
    if m < 1:
        raise ValueError("empty complex")
    hyp, powers = _hypotheses(C)
    if not hyp.holds:
        raise CayleyError(
            f"depth hypothesis fails at level {hyp.failing_level}")
    u: list[Optional[MultiVector]] = [None] * (m + 1)
    u[m] = MultiVector.scalar(A, C.sizes[m], A.ring.one())
    for k in range(m, 0, -1):
        r_k = C.ranks[k]
        M = powers[k - 1]
        w = hodge_right(u[k]).coord_list()
        if len(w) != M.cols:
            raise VerificationError("exterior basis misalignment")
        widl = AIdeal(A, w)
        if not is_faithful_ideal(A, widl):
            raise CayleyError(
                f"non-unique factorization at level {k}: the dual vector's "
                "coordinate ideal is not faithful")
        lifts = algebra_membership(M.entries, [w], A)
        if None in lifts:
            raise CayleyError(
                f"no factorization at level {k}: a row of the exterior "
                "power is not a multiple of the dual vector")
        coords = [lift[0] for lift in lifts]
        if RingMatrix(A, [[c * x for x in w] for c in coords],
                      M.rows, M.cols) != M:
            raise VerificationError("outer-product identity failed")
        subs = subsets_colex(C.sizes[k - 1], r_k)
        u[k - 1] = MultiVector.from_dict(A, C.sizes[k - 1], r_k,
                                         dict(zip(subs, coords)))
    ideals = tuple(AIdeal(A, list(vec.coords.values())) for vec in u)
    det = None
    if C.ranks[0] == 0:
        det = u[0].coeff(tuple(range(1, C.sizes[0] + 1)))
    return CayleyData(C, hyp, tuple(u), ideals, det)


def cayley_determinant(C: FreeComplex) -> Poly:
    """The scalar u_0 of a chi = 0 Cayley complex; a regular element and a
    strong gcd of D_1 (the depth-2 cofactor certificate is re-run)."""
    if C.ranks[0] != 0:
        raise CayleyError("the Cayley determinant needs chi = 0")
    data = cayley_factorize(C)
    g = data.det
    A = C.algebra
    if g is None or g.is_zero or not is_regular_element(A, g):
        raise CayleyError("the Cayley determinant is not a regular element")
    cofactors = data.factor_ideals[1]
    cert = depth_at_least(cofactors, AModule.free(A, 1), 2)
    if not cert.holds:
        raise VerificationError("cofactor ideal lost its depth-2 certificate")
    return g


# ---------------------------------------------------------------------------
# strong gcd

class StrongGcd(NamedTuple):
    """g | a_i with cofactors of certified depth >= 2, or a named failure."""

    ok: bool
    element: Optional[Poly] = None
    cofactors: tuple[Poly, ...] = ()
    certificate: Optional[DepthCertificate] = None
    reason: str = ""


def strong_gcd(a: AIdeal, candidate: Optional[Poly] = None) -> StrongGcd:
    """Certificate-based strong gcd of a coregular generator list.

    The candidate is auto-derived in the principal and monomial cases and
    must be supplied otherwise; verification is g | a_i by module lifting
    plus a depth-2 certificate for the cofactor ideal.
    """
    A = a.algebra
    gens = a.gens
    if not gens:
        return StrongGcd(False, reason="empty generator list")
    if not is_faithful_ideal(A, a):
        return StrongGcd(False, reason="generators are not coregular")
    g = candidate
    if g is None:
        if len(gens) == 1:
            g = gens[0]
        elif all(len(p.terms) == 1 for p in gens):
            mono = gens[0].lm()
            for p in gens[1:]:
                mono = mono_gcd(mono, p.lm())
            g = Poly(A.ring, {mono: A.ring.field.one()})
        else:
            return StrongGcd(False, reason="no candidate and no derivable one")
    if not is_regular_element(A, g):
        return StrongGcd(False, element=g, reason="candidate is not regular")
    lifts = algebra_membership([[p] for p in gens], [[g]], A)
    if None in lifts:
        return StrongGcd(False, element=g,
                         reason="candidate does not divide a generator")
    cofactors = [lift[0] for lift in lifts]
    cert = depth_at_least(AIdeal(A, cofactors), AModule.free(A, 1), 2)
    if not cert.holds:
        return StrongGcd(False, element=g, cofactors=tuple(cofactors),
                         certificate=cert,
                         reason="cofactor ideal is not of depth 2")
    return StrongGcd(True, g, tuple(cofactors), cert)


# ---------------------------------------------------------------------------
# MacRae invariant

class MacRaeCertificate(NamedTuple):
    module: AModule
    element: Poly
    cofactors: tuple[Poly, ...]
    depth2: DepthCertificate


def macrae_invariant(E: AModule, resolution: FreeComplex) -> MacRaeCertificate:
    """The MacRae invariant of a rank-0 module from a finite free resolution.

    The resolution must be certified exact, resolve E (its first matrix is
    E's presentation), and have chi = 0; the invariant is the Cayley
    determinant, re-checked as a `strong_gcd` of F_0(E).
    """
    A = E.algebra
    if resolution.algebra != A:
        raise ValueError("resolution over a different algebra")
    A1 = resolution.matrix(1)
    pres = presentation_matrix(E)
    if (A1.rows, A1.cols) != (pres.rows, pres.cols) or A1 != pres:
        raise ValueError("resolution does not resolve the module "
                         "(first matrix differs from the presentation)")
    if resolution.ranks[0] != 0:
        raise CayleyError("module of nonzero rank has no MacRae invariant")
    report = certify_exact(resolution)
    if not report.exact:
        raise CayleyError(
            f"resolution is not exact (level {report.failing_level})")
    e = cayley_determinant(resolution)
    gcd = strong_gcd(fitting_ideal(E, 0), e)
    if not gcd.ok:
        raise VerificationError(f"F_0 lost its strong gcd: {gcd.reason}")
    return MacRaeCertificate(E, e, gcd.cofactors, gcd.certificate)


# ---------------------------------------------------------------------------
# Hilbert-Burch

class HilbertBurchReport(NamedTuple):
    """Signed maximal minors, the exactness verdict, and the alpha factor;
    the alpha fields are None when no alpha is given."""

    delta: tuple[Poly, ...]
    delta_annihilates: bool
    grade2: DepthCertificate
    exact: bool
    alpha_complex_ok: Optional[bool] = None
    alpha_exact: Optional[bool] = None
    factor: Optional[Poly] = None
    factor_regular: Optional[bool] = None
    factor_gcd: Optional[StrongGcd] = None


def signed_maximal_minors(M: RingMatrix) -> list[Poly]:
    """Delta_i from expanding det[X | M] along its first column."""
    n = M.rows
    if M.cols != n - 1:
        raise ValueError("need an n x (n-1) matrix")
    table = minors(M.entries, M.algebra.ring, n - 1)
    full = tuple(range(1, n + 1))
    out = [table[full[:i] + full[i + 1:], full[:-1]] for i in range(n)]
    return [M.algebra.nf(-p if i % 2 else p) for i, p in enumerate(out)]


def hilbert_burch(M: RingMatrix,
                  alpha: Optional[Sequence[Poly]] = None) -> HilbertBurchReport:
    """Hilbert-Burch for an n x (n-1) matrix.

    Delta M = 0 always; the complex 0 -> A^(n-1) -> A^n -> A is exact iff
    Gr(<Delta>) >= 2.  When alpha is supplied and its own sequence is
    exact, the regular factor a with alpha = a Delta is extracted by
    module lifting and certified a strong gcd of <alpha>.
    """
    A = M.algebra
    n = M.rows
    delta = signed_maximal_minors(M)
    drow = RingMatrix(A, [delta], 1, n)
    annihilates = drow.mul(M).is_zero()
    grade2 = depth_at_least(AIdeal(A, delta), AModule.free(A, 1), 2)
    exact = annihilates and grade2.holds
    if alpha is None:
        return HilbertBurchReport(tuple(delta), annihilates, grade2, exact)
    alpha = [A.nf(p) for p in alpha]
    if len(alpha) != n:
        raise ValueError("alpha must have one entry per row")
    arow = RingMatrix(A, [alpha], 1, n)
    complex_ok = arow.mul(M).is_zero()
    alpha_exact = None
    factor = None
    factor_regular = None
    factor_gcd = None
    if complex_ok:
        injective = mccoy_injective(M)
        ker = kernel_generators(arow)
        span = M.columns()
        in_image = None not in algebra_membership(ker, span, A)
        alpha_exact = injective and in_image
        if alpha_exact:
            lift, = algebra_membership([alpha], [delta], A)
            if lift is None:
                raise VerificationError("alpha is not a multiple of Delta")
            factor = lift[0]
            factor_regular = is_regular_element(A, factor)
            factor_gcd = strong_gcd(AIdeal(A, alpha), candidate=factor)
    return HilbertBurchReport(tuple(delta), annihilates, grade2, exact,
                              complex_ok, alpha_exact, factor,
                              factor_regular, factor_gcd)


# ---------------------------------------------------------------------------
# the Sylvester complex of two binary forms

class SylvesterData(NamedTuple):
    """K (the two-block shift matrix) and S (generalized Sylvester)."""

    complex: FreeComplex
    K: RingMatrix
    S: RingMatrix
    degree: int
    a: int
    b: int


def sylvester_complex(algebra: FPAlgebra, p_coeffs: Sequence[Poly],
                      q_coeffs: Sequence[Poly], d: int) -> SylvesterData:
    """0 -> A^a -K-> A^(a+b) -S-> A^b for binary forms P, Q of degrees p, q.

    Coefficient lists are ascending in X: P = sum a_i X^i Y^(p-i).  Bases
    are the monomials X^k Y^(deg-k) with k decreasing; a = d+1-(p+q),
    b = d+1, and d = p+q-1 gives the classical Sylvester matrix.
    """
    p = len(p_coeffs) - 1
    q = len(q_coeffs) - 1
    if p < 0 or q < 0:
        raise ValueError("empty coefficient list")
    if d < p + q - 1:
        raise ValueError("d must be at least p + q - 1")
    a = d + 1 - (p + q)
    b = d + 1
    zero = algebra.ring.zero()
    pc = [algebra.nf(c) for c in p_coeffs]
    qc = [algebra.nf(c) for c in q_coeffs]

    def shifted(coeffs: list[Poly], i: int, e: int) -> Poly:
        """The coefficient of X^e in X^i times the form with `coeffs`."""
        return coeffs[e - i] if 0 <= e - i < len(coeffs) else zero

    # S: b x (a+b); columns are X^i Y^(d-p-i) P (i decreasing), then
    # X^j Y^(d-q-j) Q (j decreasing); rows are X^k Y^(d-k), k decreasing.
    s_cols = [[shifted(pc, i, d - t) for t in range(d + 1)]
              for i in range(d - p, -1, -1)]
    s_cols += [[shifted(qc, j, d - t) for t in range(d + 1)]
               for j in range(d - q, -1, -1)]
    S = RingMatrix(algebra, [[s_cols[c][r] for c in range(a + b)]
                             for r in range(b)], b, a + b)

    # K: (a+b) x a; column for W = X^k Y^(d-p-q-k), k decreasing, carries
    # (W Q, -W P) over the two blocks of the middle module's basis.
    k_cols = [[shifted(qc, k, d - p - t) for t in range(d - p + 1)]
              + [-shifted(pc, k, d - q - t) for t in range(d - q + 1)]
              for k in range(d - p - q, -1, -1)]
    K = RingMatrix(algebra, [[k_cols[c][r] for c in range(a)]
                             for r in range(a + b)], a + b, a)

    cplx = FreeComplex(algebra, [S, K])
    return SylvesterData(cplx, K, S, d, a, b)


def resultant_via_cayley(algebra: FPAlgebra, p_coeffs: Sequence[Poly],
                         q_coeffs: Sequence[Poly], d: int) -> Poly:
    """The Cayley determinant of the Sylvester complex: +- Res(P, Q)."""
    data = sylvester_complex(algebra, p_coeffs, q_coeffs, d)
    return cayley_determinant(data.complex)
