import random

import pytest

from ffr.algebra import AIdeal, AModule, FPAlgebra, is_faithful_ideal
from ffr.complexes import (FreeComplex, RankObstructionError,
                           RingMatrix, adjugate, certify_exact,
                           characteristic_ideal, characteristic_ideals,
                           determinantal_ideal, elementary_modification,
                           euler_characteristic, fitting_ideal,
                           is_stable_rank, kernel_generators, koszul_complex,
                           mccoy_injective, pfaffian, pfaffian_data,
                           stable_rank_at_least)
from ffr.depth import depth_at_least
from ffr.groebner import (IdealGens, ideal_equal, module_membership,
                          radical_membership)
from ffr.ring import PolyRing, QQ, parse_poly


def algebra(vars, *relations, order="grevlex"):
    R = PolyRing(QQ, vars, order)
    return FPAlgebra(R, [parse_poly(r, R) for r in relations])


def matrix(A, rows):
    return RingMatrix.from_strings(A, rows)


def aideal_equal(a, b):
    return ideal_equal(a.lifted(), b.lifted())


# ---------------------------------------------------------------------------
# determinantal / Fitting ideals

def test_determinantal_conventions():
    A = algebra(["x", "y"])
    M = matrix(A, [["x", "y"]])
    assert determinantal_ideal(M, 0).gens == (A.ring.one(),)
    assert sorted(map(str, determinantal_ideal(M, 1).gens)) == ["x", "y"]
    assert determinantal_ideal(M, 2).gens == ()


def test_determinantal_koszul_middle():
    A = algebra(["x", "y", "z"])
    C = koszul_complex(A, [A.parse("x"), A.parse("y"), A.parse("z")])
    d2 = C.matrix(2)
    got = determinantal_ideal(d2, 2)
    want = AIdeal(A, [A.parse(s) for s in
                      ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]])
    assert aideal_equal(got, want)


def test_fitting_ideals():
    A = algebra(["x", "y"])
    free = AModule.free(A, 2)
    assert fitting_ideal(free, 2).gens == (A.ring.one(),)
    assert fitting_ideal(free, 1).gens == ()
    quot = AModule.quotient_by_ideal(AIdeal(A, [A.parse("x"), A.parse("y")]))
    assert sorted(map(str, fitting_ideal(quot, 0).gens)) == ["x", "y"]
    diag = AModule(A, 2, [[A.parse("x"), A.ring.zero()],
                          [A.ring.zero(), A.parse("y")]])
    assert [str(g) for g in fitting_ideal(diag, 0).gens] == ["x*y"]


# ---------------------------------------------------------------------------
# stable rank and McCoy

def test_stable_rank_examples():
    A = algebra(["x", "y"])
    assert is_stable_rank(RingMatrix.zero(A, 2, 2), 0)
    assert is_stable_rank(RingMatrix.identity(A, 3), 3)
    M = matrix(A, [["x", "y"]])
    assert is_stable_rank(M, 1)
    assert not stable_rank_at_least(M, 2)


def test_mccoy_examples():
    A = algebra(["x", "y"])
    assert mccoy_injective(matrix(A, [["x"], ["y"]]))
    assert not mccoy_injective(matrix(A, [["x", "y"]]))
    B = algebra(["x"], "x^2")
    assert not mccoy_injective(matrix(B, [["x"]]))


def test_mccoy_agrees_with_kernel_oracle():
    rng = random.Random(67)
    A = algebra(["x", "y"])
    B = algebra(["x"], "x^2")
    pool_A = ["0", "1", "x", "y", "x+y", "x*y", "x-1"]
    pool_B = ["0", "1", "x", "x+1", "2*x"]
    for trial in range(50):
        alg, pool = (A, pool_A) if trial % 2 == 0 else (B, pool_B)
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        M = RingMatrix(alg, [[alg.parse(rng.choice(pool)) for _ in range(cols)]
                             for _ in range(rows)])
        assert mccoy_injective(M) == (kernel_generators(M) == [])


def test_kernel_of_a_matrix_without_columns():
    A = algebra(["x"], "x^2")
    assert kernel_generators(RingMatrix.zero(A, 2, 0)) == []


# ---------------------------------------------------------------------------
# complexes: construction, ranks, characteristic ideals

def koszul(A, *names):
    return koszul_complex(A, [A.parse(s) for s in names])


def test_koszul_shapes():
    A = algebra(["x"])
    C1 = koszul(A, "x")
    assert C1.sizes == (1, 1)
    B = algebra(["x", "y"])
    C2 = koszul(B, "x", "y")
    assert C2.sizes == (1, 2, 1)
    assert [str(p) for p in C2.matrix(1).entries[0]] == ["x", "y"]
    col = [str(C2.matrix(2).entries[i][0]) for i in range(2)]
    assert col == ["-y", "x"]


def test_koszul_is_complex_and_ranks():
    A = algebra(["x", "y", "z"])
    C = koszul(A, "x", "y", "z")
    assert C.sizes == (1, 3, 3, 1)
    assert list(C.ranks) == [0, 1, 2, 1, 0]
    assert euler_characteristic(C) == 0


def test_euler_characteristic_examples():
    A = algebra(["x", "y"])
    inj = FreeComplex(A, [matrix(A, [["x"], ["y"]])])
    assert euler_characteristic(inj) == 1
    empty = FreeComplex(A, [])
    assert euler_characteristic(empty) == 0


def test_negative_rank_rejected():
    A = algebra(["x", "y"])
    with pytest.raises(RankObstructionError):
        FreeComplex(A, [matrix(A, [["x", "y"]])])


def test_not_a_complex_rejected():
    A = algebra(["x", "y"])
    M1 = matrix(A, [["x", "y"]])
    M2 = matrix(A, [["x"], ["y"]])  # d1 d2 = 2xy != 0
    with pytest.raises(ValueError):
        FreeComplex(A, [M1, M2])


def test_characteristic_ideals_koszul2():
    A = algebra(["x", "y"])
    C = koszul(A, "x", "y")
    D1, D2 = characteristic_ideals(C)
    xy = AIdeal(A, [A.parse("x"), A.parse("y")])
    assert aideal_equal(D1, xy) and aideal_equal(D2, xy)
    assert characteristic_ideal(C, 5).gens == (A.ring.one(),)


def test_matrix_index_is_checked():
    A = algebra(["x", "y", "z"])
    C = koszul_complex(A, [A.parse("x"), A.parse("y"), A.parse("z")])
    assert [C.matrix(k) for k in (1, 2, 3)] == list(C.matrices)
    for k in (0, -1, 4):
        with pytest.raises(ValueError):
            C.matrix(k)
    with pytest.raises(ValueError):
        characteristic_ideal(C, 0)
    assert characteristic_ideal(C, 4).gens == (A.ring.one(),)


def test_characteristic_ideals_zero_rank():
    A = algebra(["x"])
    Z = RingMatrix.zero(A, 0, 0)
    C = FreeComplex(A, [Z, Z])
    assert C.ranks == (0, 0, 0, 0)
    for k in (1, 2):
        assert characteristic_ideal(C, k).gens == (A.ring.one(),)


# ---------------------------------------------------------------------------
# exactness certification

@pytest.mark.parametrize("n", [2, 3])
def test_koszul_certified_exact(n):
    names = ["x", "y", "z", "w"][:n]
    A = algebra(names)
    C = koszul(A, *names)
    report = certify_exact(C)
    assert report.exact
    assert len(report.conditions) == n


def test_certify_rejects_zeroed_column():
    A = algebra(["x", "y"])
    C = koszul(A, "x", "y")
    # zero the column of the last differential: still a complex, not exact
    Z = RingMatrix.zero(A, 2, 1)
    broken = FreeComplex(A, [C.matrix(1), Z])
    assert broken.ranks == C.ranks
    report = certify_exact(broken)
    assert not report.exact
    assert report.failing_level == 2
    cert = report.conditions[1].certificate
    assert cert is not None and cert.witness is not None


def test_certify_skips_levels_after_the_first_failure():
    # (xy, xz, x) is not a regular sequence: level 2 fails, level 3 is
    # reported as skipped, not decided
    A = algebra(["x", "y", "z"])
    report = certify_exact(koszul(A, "x*y", "x*z", "x"))
    assert [c.holds for c in report.conditions] == [True, False, None]
    assert report.conditions[2].certificate is None
    assert report.failing_level == 2
    assert not report.exact


def test_certify_not_exact_over_quotient():
    A = algebra(["x", "y"], "x")
    C = koszul(A, "x", "y")
    report = certify_exact(C)
    assert not report.exact


def test_length_one_certification_is_mccoy():
    A = algebra(["x", "y"])
    M = matrix(A, [["x"], ["y"]])
    C = FreeComplex(A, [M])
    assert certify_exact(C).exact == mccoy_injective(M)
    B = algebra(["x"], "x^2")
    MB = matrix(B, [["x"]])
    CB = FreeComplex(B, [MB])
    assert certify_exact(CB).exact == mccoy_injective(MB) == False


# ---------------------------------------------------------------------------
# elementary modifications

def test_elementary_modification_identity():
    A = algebra(["x", "y"])
    C = koszul(A, "x", "y")
    assert elementary_modification(C, 1, 0) is C


def test_elementary_modification_preserves_characteristic_ideals():
    A = algebra(["x", "y"])
    C = koszul(A, "x", "y")
    mod = elementary_modification(C, 1, 1)
    assert euler_characteristic(mod) == euler_characteristic(C)
    for k in (1, 2):
        assert aideal_equal(characteristic_ideal(mod, k),
                            characteristic_ideal(C, k))
    mod2 = elementary_modification(mod, 1, 2)
    for k in (1, 2):
        assert aideal_equal(characteristic_ideal(mod2, k),
                            characteristic_ideal(C, k))


def test_elementary_modification_middle_of_longer_complex():
    A = algebra(["x", "y", "z"])
    C = koszul(A, "x", "y", "z")
    for k in (1, 2):
        mod = elementary_modification(C, k, 2)
        assert euler_characteristic(mod) == 0
        for level in (1, 2, 3):
            assert aideal_equal(characteristic_ideal(mod, level),
                                characteristic_ideal(C, level))
        assert certify_exact(mod).exact


@pytest.mark.parametrize("n", [3, 4])
def test_elementary_modification_derives_its_ranks(n):
    # adding A^s between L_k and L_{k+1} raises r_{k+1} by s, and nothing
    # else
    names = ["x", "y", "z", "w"][:n]
    C = koszul(algebra(names), *names)
    for k in range(1, n):
        for s in (1, 2):
            want = list(C.ranks)
            want[k + 1] += s
            assert elementary_modification(C, k, s).ranks == tuple(want)


# ---------------------------------------------------------------------------
# structure/radical-chain properties on certified complexes

def test_structure_theorem_stable_ranks():
    A = algebra(["x", "y", "z"])
    C = koszul(A, "x", "y", "z")
    assert certify_exact(C).exact
    for k in range(1, 4):
        assert is_stable_rank(C.matrix(k), C.ranks[k])


def test_stable_rank_lemma_on_koszul():
    A = algebra(["x", "y", "z"])
    C = koszul(A, "x", "y", "z")
    u, v = C.matrix(3), C.matrix(2)
    k, h = C.ranks[3], C.ranks[2]
    assert k + h == C.sizes[2]
    assert is_stable_rank(u, k) and is_stable_rank(v, h)
    Dk_u = AIdeal(A, list(determinantal_ideal(u, k).gens)).lifted()
    for g in determinantal_ideal(v, h).gens:
        assert radical_membership(g, Dk_u)


def test_radical_chain_of_characteristic_ideals():
    A = algebra(["x", "y", "z"])
    C = koszul(A, "x", "y", "z")
    for level in (1, 2):
        nxt = characteristic_ideal(C, level + 1).lifted()
        for g in characteristic_ideal(C, level).gens:
            assert radical_membership(g, nxt)


def test_certification_survives_localization():
    # exactness localizes: the Koszul complex stays certified over A[1/x],
    # presented as A[t]/(1 - t x)
    from ffr.ring import embed_append
    A = algebra(["x", "y"])
    name = A.ring.fresh_names(1, "loc")[0]
    ext = A.ring.extend_append([name])
    t = ext.var(ext.n - 1)
    loc = FPAlgebra(ext, [ext.one() - t * embed_append(A.parse("x"), ext)])
    C = koszul_complex(loc, [loc.nf(embed_append(A.parse(s), ext))
                             for s in ("x", "y")])
    assert certify_exact(C).exact
    # and the first map even splits there: D_1(d_2) contains a unit
    d2_minors = determinantal_ideal(C.matrix(2), 1)
    lifted = d2_minors.lifted()
    assert radical_membership(ext.one(), lifted)


def test_vasconcelos_rank_one_ideal_is_faithful():
    # resolution 0 -> A -> A^2 of the ideal (x, y): chi = 1 => faithful
    A = algebra(["x", "y"])
    M = matrix(A, [["-y"], ["x"]])
    C = FreeComplex(A, [M])
    assert certify_exact(C).exact
    assert euler_characteristic(C) == 1
    assert is_faithful_ideal(A, AIdeal(A, [A.parse("x"), A.parse("y")]))


def test_abh_direct_and_rees():
    # E = A/<x> has a length-1 resolution; Gr(m) = 3 >= 2+1 gives Gr(m,E) >= 2
    A = algebra(["x", "y", "z"])
    E = AModule.quotient_by_ideal(AIdeal(A, [A.parse("x")]))
    m = AIdeal(A, [A.parse("x"), A.parse("y"), A.parse("z")])
    assert depth_at_least(m, E, 2).holds
    assert not depth_at_least(m, E, 3).holds
    # Rees contrapositive: E != 0 and a E = 0 forces Gr(a) <= resolution length
    a = AIdeal(A, [A.parse("x")])
    assert not depth_at_least(a, AModule.free(A, 1), 2).holds


def _homology_zero_at(C, k):
    """Desk-scale homology check: ker A_k subseteq im A_{k+1} (+ J)."""
    A = C.algebra
    ker = kernel_generators(C.matrix(k))
    if k == C.length:
        return ker == []
    span = C.matrix(k + 1).columns()
    zero = A.ring.zero()
    for rel in A.relations.gens:
        for t in range(C.sizes[k]):
            v = [zero] * C.sizes[k]
            v[t] = rel
            span.append(v)
    return all(module_membership([g], span)[0] is not None for g in ker)


def test_peskine_szpiro_style_cross_check():
    # certified exact <=> desk homology vanishes in positive degrees
    A = algebra(["x", "y"])
    C = koszul(A, "x", "y")
    assert certify_exact(C).exact
    assert _homology_zero_at(C, 2) and _homology_zero_at(C, 1)
    B = algebra(["x", "y"], "x")
    CB = koszul(B, "x", "y")
    assert not certify_exact(CB).exact
    assert not (_homology_zero_at(CB, 2) and _homology_zero_at(CB, 1))


# ---------------------------------------------------------------------------
# pfaffian data

def test_pfaffian_squares_to_determinant():
    rng = random.Random(71)
    A = algebra(["a", "b", "c", "d", "e", "f"])
    gens = A.ring.gens()
    ents = [[A.ring.zero()] * 4 for _ in range(4)]
    vals = iter(gens)
    for i in range(4):
        for j in range(i + 1, 4):
            v = next(vals)
            ents[i][j] = v
            ents[j][i] = -v
    M = RingMatrix(A, ents)
    pf = pfaffian([list(r) for r in ents], A.ring)
    assert M.det() == pf * pf


def test_pfaffian_of_empty_and_odd_matrices():
    # 1 on the 0 x 0 matrix, 0 on an odd antisymmetric one
    A = algebra(["x", "y", "z"])
    assert pfaffian([], A.ring) == A.ring.one()
    x, y, z = A.ring.gens()
    zero = A.ring.zero()
    odd = [[zero, x, y], [-x, zero, z], [-y, -z, zero]]
    assert pfaffian(odd, A.ring).is_zero


def test_pfaffian_data_refuses_a_symmetric_pair():
    A = algebra(["x"])
    x, zero = A.parse("x"), A.ring.zero()
    X = RingMatrix(A, [[zero, x, zero], [x, zero, zero],
                       [zero, zero, zero]])
    with pytest.raises(ValueError):
        pfaffian_data(X)

def test_pfaffian_data_n3():
    A = algebra(["x12", "x13", "x23"])
    x12, x13, x23 = A.ring.gens()
    zero = A.ring.zero()
    X = RingMatrix(A, [[zero, x12, x13], [-x12, zero, x23],
                       [-x13, -x23, zero]])
    data = pfaffian_data(X)
    assert [str(p) for p in data.Q.entries[0]] == ["-x23", "x13", "-x12"]
    assert data.qx_is_zero and data.adjugate_identity
    # D_{n-1}(X) = D_1(Q)^2 as an ideal equality
    D2 = determinantal_ideal(X, 2).lifted()
    q = [A.parse(s) for s in ["x23", "x13", "x12"]]
    sq = IdealGens(A.ring, [a * b for a in q for b in q])
    assert ideal_equal(D2, sq)
    assert certify_exact(data.complex).exact


def _entrywise_product(M, N):
    zero = M.algebra.ring.zero()
    out = []
    for i in range(M.rows):
        row = []
        for j in range(N.cols):
            acc = zero
            for k in range(M.cols):
                acc = acc + M.entries[i][k] * N.entries[k][j]
            row.append(acc)
        out.append(row)
    return out


def test_mul_matches_entrywise_product():
    A = algebra(["x", "y"], "x^2 - y")
    M = matrix(A, [["x", "y", "1"], ["0", "0", "0"], ["x*y", "0", "x"]])
    N = matrix(A, [["x", "0"], ["y - 1", "0"], ["2", "0"]])
    P = M.mul(N)
    assert (P.rows, P.cols) == (3, 2)
    expected = RingMatrix(A, _entrywise_product(M, N))
    assert P.entries == expected.entries
    assert all(p.is_zero for p in P.entries[1])   # zero row of M
    assert all(row[1].is_zero for row in P.entries)   # zero column of N
    assert not P.entries[0][0].is_zero


def test_mul_inner_dimension_zero():
    A = algebra(["x"])
    M, N = RingMatrix.zero(A, 2, 0), RingMatrix.zero(A, 0, 3)
    P = M.mul(N)
    assert (P.rows, P.cols) == (2, 3)
    assert P.entries == tuple(tuple(r) for r in _entrywise_product(M, N))
    assert P.is_zero()


def test_adjugate_identity():
    A = algebra(["x", "y"])
    M = matrix(A, [["x", "y"], ["1", "x"]])
    adj = adjugate(M)
    prod = M.mul(adj)
    d = M.det()
    assert all(prod.entries[i][j] == (d if i == j else A.ring.zero())
               for i in range(2) for j in range(2))
