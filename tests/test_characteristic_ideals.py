"""The path from a matrix to its characteristic ideal and reduced basis.

Counters, not clocks: a run on terms alone forms no S-polynomial and
reduces nothing, `minors` decodes each distinct minor once, an ideal of A
is deduplicated once, its lifted ideal included, and over k[X] no normal
form by the empty relation ideal is taken.  The differential test checks
Fitting invariance: a polynomial change of basis leaves every
characteristic ideal and the exactness verdict as they were, while the
minors it gives are no longer single terms, so the Buchberger pair loop
answers for the changed complex and the term-only branch for the Koszul
complex itself.
"""

import random
from itertools import combinations_with_replacement

import pytest

from ffr import groebner as gb
from ffr.algebra import AIdeal, FPAlgebra
from ffr.complexes import (FreeComplex, RingMatrix, certify_exact,
                           characteristic_ideal, determinantal_ideal,
                           koszul_complex)
from ffr.exterior import minors
from ffr.ring import CoefField, PolyRing, QQ, RingMismatchError, _Pack

NAMES = ["x1", "x2", "x3", "x4", "x5"]


def koszul(field, n):
    A = FPAlgebra(PolyRing(field, NAMES[:n]))
    return koszul_complex(A, A.ring.gens())


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_term_only_run_forms_no_pairs(monkeypatch):
    # (x1..x5)^4 over Q: 70 terms, all of them minimal
    R = PolyRing(QQ, NAMES)
    x = R.gens()
    quartics = [a * b * c * d
                for a, b, c, d in combinations_with_replacement(x, 4)]
    spairs = counting(monkeypatch, gb, "_spair")
    nfs = counting(monkeypatch, gb, "_vec_nf")
    basis = gb.IdealGens(R, quartics).groebner().basis
    assert len(basis) == 70 and set(basis) == set(quartics)
    assert spairs == [] and nfs == []


def test_each_distinct_minor_is_decoded_once(monkeypatch):
    # A_4 of the Koszul complex on x1..x5 is 10 x 5 of rank r_4 = 4: its
    # 1,050 maximal minors take 133 values: zero and 70 terms up to sign
    C = koszul(QQ, 5)
    M, r = C.matrix(4), C.ranks[4]
    values = set(minors(M.entries, M.algebra.ring, r).values())
    assert len(values) == 133
    decoded = counting(monkeypatch, _Pack, "polys")
    ideal = determinantal_ideal(M, r)
    assert len(decoded) == len(values)
    assert len(ideal.gens) == 70


def test_ideal_over_polynomial_ring_deduplicates_once(monkeypatch):
    C = koszul(QQ, 5)
    uniques = counting(monkeypatch, PolyRing, "unique_up_to_sign")
    ideal = characteristic_ideal(C, 4)
    lifted = ideal.lifted()
    assert lifted.gens == ideal.gens
    assert len(lifted.groebner().basis) == 70
    assert len(uniques) == 1


def test_lifted_ideal_of_quotient_keeps_every_generator():
    # representatives mod J and J's generators never agree up to sign
    R = PolyRing(QQ, ["x", "y"])
    x, y = R.gens()
    A = FPAlgebra(R, [x * y, -(x * y), y ** 2])
    ideal = AIdeal(A, [x, x + x * y, -x, y ** 3, y])
    assert ideal.gens == (x, y)
    assert ideal.lifted().gens == (x, y, x * y, y ** 2)


def test_polynomial_ring_takes_no_normal_form(monkeypatch):
    # over k[X] J has no generators, so an entry or a generator is its own
    # representative: no basis of J is built and none reduces anything
    R = PolyRing(QQ, ["x", "y"])
    x, y = R.gens()
    A = FPAlgebra.polynomial(R)
    nfs = counting(monkeypatch, gb.GroebnerBasis, "normal_form")
    runs = counting(monkeypatch, gb, "_buchberger_vecs")
    ideal = AIdeal(A, [x * y, x + y, -(x + y), R.zero()])
    M = RingMatrix(A, [[x, y * y], [R.zero(), x - y]])
    assert ideal.gens == (x * y, x + y)
    assert M.entries == ((x, y * y), (R.zero(), x - y))
    assert M.entries[0][0] is x
    assert nfs == [] and runs == []
    z = PolyRing(QQ, ["x", "y", "z"]).var("z")
    for build in (lambda: AIdeal(A, [x, z]), lambda: RingMatrix(A, [[z]]),
                  lambda: A.nf(z)):
        with pytest.raises(RingMismatchError):
            build()


def basis_change(C, k, i, j, lam):
    """The complex with the basis of L_k changed by E = 1 + lam e_ij: A_k
    becomes A_k E and A_(k+1) becomes E^-1 A_(k+1)."""
    A = C.algebra
    mats = list(C.matrices)
    n = C.sizes[k]
    E, Einv = ([[A.ring.one() if a == b else A.ring.zero()
                 for b in range(n)] for a in range(n)] for _ in range(2))
    E[i][j], Einv[i][j] = lam, -lam
    if k >= 1:
        mats[k - 1] = mats[k - 1].mul(RingMatrix(A, E))
    if k < C.length:
        mats[k] = RingMatrix(A, Einv).mul(mats[k])
    return FreeComplex(A, mats)


def test_fitting_invariance_under_basis_change():
    rng = random.Random(33)
    for field in (QQ, CoefField(32003)):
        C = koszul(field, 4)
        A = C.algebra
        pool = [A.parse(s) for s in ("x1", "x2 + x3", "2*x4 - 1", "x1*x3")]
        D = C
        for k in (1, 2, 3):
            i, j = rng.sample(range(D.sizes[k]), 2)
            D = basis_change(D, k, i, j, rng.choice(pool))
        assert D.ranks == C.ranks and D.matrices != C.matrices
        for k in range(1, C.length + 1):
            want = characteristic_ideal(C, k).lifted().groebner().basis
            got = characteristic_ideal(D, k).lifted().groebner().basis
            assert got == want
        want, got = certify_exact(C), certify_exact(D)
        assert got.exact and want.exact
        assert ([c.holds for c in got.conditions]
                == [c.holds for c in want.conditions])
