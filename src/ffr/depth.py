"""Depth calculus: Kronecker sequences (a_1 + a_2 T + ... + a_s T^(s-1) on
one fresh variable T each) and the decision procedure for Gr(a, E) >= k,
completely secant and singular sequences, the Wiebe checker and the
depth-dimension identity over polynomial rings.

Gr(a, E) >= k is first tried on the specialized sequence: the Kronecker
polynomials evaluated at T = t_i in the base ring, with the fixed table
t_i = i (i = 1..k), so f_i = g_1 + i g_2 + ... + i^(s-1) g_s, each
coefficient i^(j-1) reduced mod p over F_p.  An E-regular f proves the
bound (prime avoidance: constant combinations of the generators are
E-regular on almost every input); otherwise the Kronecker run decides, so
every negative verdict and witness comes from the Kronecker sequence.

Depth is exposed through the decidable predicate "at least k" and through
`depth_value`, which over k[X] with E free decides by the depth-dimension
bracket Gr(a, E) = n - dim A/a (k[X] is Cohen-Macaulay: Bruns & Herzog,
Cor. 2.1.4): an independent set of the reduced basis's leads (Kredel &
Weispfenning, J. Symbolic Comput. 6, 1988) bounds it above, a sequence of
that length below.  Elsewhere it decides "at least k" on the route of
`depth_at_least` for k the generator count: with k generators, depth >= k+1
already forces a E = E (the infinite-depth case).  The depth-dimension
identity is the bracket's report, and a sequence is completely secant when
`depth_value` reaches its length.  An ideal and a module over different
algebras raise RingMismatchError.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from . import groebner as gb
from .algebra import AIdeal, AModule, FPAlgebra, ideal_times_module_is_module
from .ring import (Poly, RingMismatchError, VerificationError, embed_append,
                   kronecker_poly, mono_divides)

INFINITY = math.inf


class KroneckerSequence(NamedTuple):
    """k polynomials, each in its own fresh variable with content ideal a."""

    extended_algebra: FPAlgebra
    fresh_vars: tuple[str, ...]
    polys: tuple[Poly, ...]


class DepthCertificate(NamedTuple):
    """Verdict of a depth / regular-sequence query.

    `fail_stage` is 1-based; the witness is a nonzero normal-form element w
    of the stage quotient with f_j w = 0 there, re-verified on construction.
    """

    k: int
    holds: bool
    fail_stage: Optional[int] = None
    witness: Optional[tuple[Poly, ...]] = None
    sequence: tuple[Poly, ...] = ()
    algebra: Optional[FPAlgebra] = None


def _fresh_extension(a: AIdeal, k: int):
    """k fresh names, a's algebra with them appended, a's gens embedded."""
    names = a.algebra.ring.fresh_names(k)
    ext = a.algebra.extend_append(names)
    return names, ext, [embed_append(g, ext.ring) for g in a.gens]


def kronecker_sequence(a: AIdeal, k: int) -> KroneckerSequence:
    """k Kronecker polynomials a_1 + a_2 T_i + ... + a_s T_i^(s-1) for a,
    each on its own fresh variable T_i.
    """
    if k < 0:
        raise ValueError("negative length")
    names, ext, gens = _fresh_extension(a, k)
    polys = tuple(kronecker_poly(gens, ext.ring.var(name)) for name in names)
    return KroneckerSequence(ext, tuple(names), polys)


def is_E_regular_sequence(seq: Sequence[Poly], E: AModule) -> DepthCertificate:
    """Stage-by-stage regularity of seq on E.

    Stage j tests (W_{j-1} : a_j) = W_{j-1} where W_{j-1} adds a_1..a_{j-1}
    times the basis vectors to the presentation; the first failing stage
    returns its index and a witness.
    """
    A = E.algebra
    R = A.ring
    q = E.rank
    seq = tuple(A.nf(p) for p in seq)
    W = E.base_vectors()
    for j, a_j in enumerate(seq, start=1):
        witness = next(gb._colon_classes(W, [a_j], q, R), None)
        if witness is not None:
            scaled = [a_j * p for p in witness]
            if None in gb.module_membership([scaled], W):
                raise VerificationError("witness does not re-verify")
            return DepthCertificate(len(seq), False, fail_stage=j,
                                    witness=tuple(witness),
                                    sequence=seq, algebra=A)
        W += gb.scalar_columns([a_j], q, R)
    return DepthCertificate(len(seq), True, sequence=seq, algebra=A)


def same_depth_generators(a: AIdeal) -> AIdeal:
    """A generator substitution that preserves every depth verdict.

    The list is replaced by the reduced basis of the lifted ideal (the same
    ideal, canonical and usually smaller).  When every generator is then a
    monomial, the minimal squarefree parts generate an ideal with the same
    radical; equal-radical finitely generated ideals have equal depth on
    every module (the product lemma), so the substitution is sound and cuts
    the monomial case down from e.g. the cube of the maximal ideal to the
    maximal ideal itself.
    """
    A = a.algebra
    basis = AIdeal(A, a.lifted().groebner().basis)
    if not basis.gens or any(len(g.terms) != 1 for g in basis.gens):
        return basis
    seen: list[tuple] = []
    for g in basis.gens:
        (m, _), = g.terms.items()
        sm = tuple(1 if e else 0 for e in m)
        if sm not in seen:
            seen.append(sm)
    minimal = [m for m in seen
               if not any(q != m and mono_divides(q, m) for q in seen)]
    one = A.ring.field.one()
    return AIdeal(A, [Poly(A.ring, {m: one}) for m in sorted(minimal)])


def specialized_sequence(a: AIdeal, k: int) -> tuple[Poly, ...]:
    """f_i = g_1 + t_i g_2 + ... + t_i^(s-1) g_s for i = 1..k, t_i = i: the
    Kronecker polynomials of a evaluated at T = i, in the base ring, each
    coefficient reduced mod p over F_p.
    """
    R = a.algebra.ring
    return tuple(R.dot(a.gens, [R.const(t ** j) for j in range(len(a.gens))])
                 for t in range(1, k + 1))


def depth_at_least(a: AIdeal, E: AModule, k: int) -> DepthCertificate:
    """Gr(a, E) >= k, on the specialized sequence first, else decided on a
    Kronecker sequence of length k.

    With g_1..g_s the same-depth generators, f_i = sum_j t_i^(j-1) g_j for
    the coefficient table t_i = i (i = 1..k), reduced mod p over F_p.  The
    f_i lie in an ideal with the radical of a, so an E-regular f proves the
    bound and its certificate (base algebra and sequence) is returned.  A
    specialized sequence that fails proves nothing: the Kronecker run then
    decides, and every negative certificate and witness comes from it.
    """
    if k < 0:
        raise ValueError("negative depth bound")
    _same_algebra(a, E)
    return _specialized_else_kronecker(same_depth_generators(a), E, k)


def _same_algebra(a: AIdeal, E: AModule) -> None:
    if a.algebra != E.algebra:
        raise RingMismatchError("ideal and module over different algebras")


def _specialized_else_kronecker(gens: AIdeal, E: AModule,
                                k: int) -> DepthCertificate:
    cert = is_E_regular_sequence(specialized_sequence(gens, k), E)
    if cert.holds:
        return cert
    ks = kronecker_sequence(gens, k)
    return is_E_regular_sequence(ks.polys, E.transport(ks.extended_algebra))


def _bracket(a: AIdeal, E: AModule):
    """(S, lower) with Gr(a, E) = n - |S|, over k[X] with E free of rank
    > 0; (None, None) when a = (1).

    Gr(a, E) = height a = n - dim A/a there (k[X] is Cohen-Macaulay; Bruns
    & Herzog, Cor. 2.1.4).  The independent set S is re-checked to carry no
    lead of the reduced basis, so |S| <= dim A/a (Kredel & Weispfenning
    1988) and Gr <= n - |S|; `lower`, the specialized-else-Kronecker
    certificate of length n - |S|, must hold, so a smaller S fails there.
    Either failure raises VerificationError.
    """
    basis = a.lifted().groebner().basis
    S = gb.independent_set(a.lifted())
    if S is None:
        return None, None
    if any(all(i in S for i, e in enumerate(g.lm()) if e) for g in basis):
        raise VerificationError("independent set does not re-check")
    lower = _specialized_else_kronecker(same_depth_generators(a), E,
                                        a.algebra.ring.n - len(S))
    if not lower.holds:
        raise VerificationError("depth is below n - dim A/a")
    return S, lower


def depth_value(a: AIdeal, E: AModule):
    """Gr(a, E) as an integer, or INFINITY when a E = E.

    Over k[X] with E free it is n - |S| for the independent set S of
    `_bracket`, which re-checks both bounds (VerificationError).

    Elsewhere (the identity can fail) finite values take the route of
    `depth_at_least` for k the generator count, which bounds the depth: an
    E-regular specialized sequence of length k gives k; else in the
    Kronecker run (a prefix of a Kronecker sequence is again one) the first
    failing stage j pins the depth at j - 1.
    """
    _same_algebra(a, E)
    A = a.algebra
    if A.is_polynomial_ring() and not E.presentation:
        S = _bracket(a, E)[0] if E.rank else None
        return INFINITY if S is None else A.ring.n - len(S)
    if ideal_times_module_is_module(a, E):
        return INFINITY
    reduced = same_depth_generators(a)
    # the depth is bounded by both generator counts (else a E = E)
    k = min(len(a.gens), len(reduced.gens))
    cert = _specialized_else_kronecker(reduced, E, k)
    return k if cert.holds else cert.fail_stage - 1


class TriangularRegularization(NamedTuple):
    """b = U a with U unitriangular over A[X1..Xl]; carries its re-checks."""

    matrix: tuple[tuple[Poly, ...], ...]
    polys: tuple[Poly, ...]
    extended_algebra: FPAlgebra
    ideal_preserved: bool
    regularity: DepthCertificate

    @property
    def ok(self) -> bool:
        return self.ideal_preserved and self.regularity.holds


def triangular_regularization(a: AIdeal, level: int,
                              E: AModule) -> TriangularRegularization:
    """Replace the first `level` generators by an E-regular sequence.

    Row i (i <= level) of U carries the powers 1, X_i, X_i^2, ... so that
    b_i = a_i + a_{i+1} X_i + ... + a_k X_i^(k-i); the remaining rows are
    identity.  <b_1..b_level, a_{level+1}..a_k> = <a> holds in the extension
    and is re-verified, as is E-regularity of (b_1..b_level).
    """
    _same_algebra(a, E)
    k = len(a.gens)
    if not 1 <= level <= k:
        raise ValueError("level must be between 1 and the generator count")
    names, ext, gens = _fresh_extension(a, level)
    R = ext.ring
    U = [[R.zero()] * i + [R.var(names[i]) ** (j - i) for j in range(i, k)]
         for i in range(level)]
    U += [[R.one() if j == i else R.zero() for j in range(k)]
          for i in range(level, k)]
    b = [R.dot(row, gens) for row in U]
    new_gens = b[:level] + gens[level:]
    lifted_a = AIdeal(ext, gens).lifted()
    lifted_b = AIdeal(ext, new_gens).lifted()
    preserved = gb.ideal_equal(lifted_a, lifted_b)
    cert = is_E_regular_sequence(b[:level], E.transport(ext))
    return TriangularRegularization(tuple(tuple(r) for r in U), tuple(b),
                                    ext, preserved, cert)


def is_completely_secant(seq: Sequence[Poly], E: AModule) -> bool:
    """Gr(<seq>, E) >= len(seq), read off `depth_value`; order-independent
    by construction.  Over k[X] with E free no sequence longer than the
    height runs, and height <= len(seq)."""
    return depth_value(AIdeal(E.algebra, list(seq)), E) >= len(seq)


def is_singular_sequence(seq: Sequence[Poly], A: FPAlgebra) -> bool:
    """Membership of 1 in the iterated boundary ideal of the sequence.

    The chain I_{-1} = J, I_i = (I_{i-1} : x_i^inf) + <x_i> unfolds the
    nested identity x_0^{m_0}( ... (1 + a_k x_k) ... ) = 0 one nesting level
    per step (saturation absorbs x_i^{m_i}, the sum absorbs the a_i x_i term).
    """
    R = A.ring
    current = gb.IdealGens(R, A.relations.gens)
    for x in seq:
        x = A.nf(x)
        sat = gb.saturation(current, x)
        current = gb.IdealGens(R, list(sat.gens) + [x])
    return current.groebner().is_unit_ideal()


class WiebeReport(NamedTuple):
    """Re-checkable record of the two Wiebe colon equalities."""

    delta: Poly
    inclusion_certified: bool
    completely_secant: DepthCertificate
    colon_delta_equals_a: bool
    colon_ideal_equals_delta_plus_c: bool
    counterexamples: dict

    @property
    def holds(self) -> bool:
        return (self.inclusion_certified and self.completely_secant.holds
                and self.colon_delta_equals_a
                and self.colon_ideal_equals_delta_plus_c)


def wiebe_check(c_seq: Sequence[Poly], a_seq: Sequence[Poly],
                U: Sequence[Sequence[Poly]], E: AModule) -> WiebeReport:
    """Check (cE : Delta) = aE and (cE : a) = (<Delta> + c)E.

    U certifies the inclusion <c> subseteq <a> via t(c) = U t(a);
    Delta = det U; (c) must be completely E-secant.
    """
    from .exterior import poly_det  # only this check loads the layer
    A = E.algebra
    R = A.ring
    n = len(c_seq)
    if len(a_seq) != n or len(U) != n or any(len(row) != n for row in U):
        raise ValueError("sequence/matrix sizes disagree")
    counterexamples: dict = {}

    inclusion = True
    for i in range(n):
        if not A.nf(R.dot(U[i], a_seq) - c_seq[i]).is_zero:
            inclusion = False
            counterexamples["inclusion"] = [c_seq[i]]
            break

    delta = poly_det(U, R)
    secant = depth_at_least(AIdeal(A, list(c_seq)), E, n)

    W = E.base_vectors()
    Wc = W + gb.scalar_columns(c_seq, E.rank, R)
    basis_c = gb.ModuleBasis(R, E.rank, Wc)

    def colon_is(by: Sequence[Poly], target: Sequence[Poly], key: str) -> bool:
        # (cE : by) subseteq target E, and conversely by target E subseteq cE
        Wt = W + gb.scalar_columns(target, E.rank, R)
        basis_t = gb.ModuleBasis(R, E.rank, Wt)
        for r in gb._colon_classes(Wc, [A.nf(b) for b in by], E.rank, R,
                                   basis_t.normal_form):
            counterexamples[key] = [tuple(r)]
            return False
        for v in Wt:
            if not all(basis_c.contains([b * p for p in v]) for b in by):
                counterexamples[key] = [tuple(v)]
                return False
        return True

    eq1 = colon_is([delta], a_seq, "colon_delta")
    eq2 = colon_is(a_seq, [delta] + list(c_seq), "colon_ideal")
    return WiebeReport(delta, inclusion, secant, eq1, eq2, counterexamples)


class DepthDimReport(NamedTuple):
    """Certificates for depth + dimension = ring dimension over k[X], read
    off the bracket of `depth_value`: `independent_set` S carries no lead
    of the reduced basis (so dim A/a = |S| and the depth is at most
    n - |S|), and `lower` proves the depth at least n - |S|.
    """

    n: int
    quotient_dim: int
    expected_depth: Optional[int]
    unit_ideal: bool
    lower: Optional[DepthCertificate]
    independent_set: Optional[tuple[int, ...]]

    @property
    def holds(self) -> bool:
        return self.unit_ideal or self.lower.holds


def depth_dim_identity(a: AIdeal) -> DepthDimReport:
    """Certify Gr(a) = n - Kdim(A/a) over a pure polynomial ring by the
    bracket; a failed re-check raises VerificationError."""
    A = a.algebra
    if not A.is_polynomial_ring():
        raise ValueError("identity applies over a polynomial ring only")
    n = A.ring.n
    S, lower = _bracket(a, AModule.free(A, 1))
    if S is None:
        return DepthDimReport(n, -1, None, True, None, None)
    return DepthDimReport(n, len(S), n - len(S), False, lower, S)
