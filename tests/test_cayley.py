import random

import pytest

from ffr.algebra import AIdeal, AModule, FPAlgebra
from ffr.cayley import (CayleyError, _hypotheses, cayley_determinant,
                        cayley_factorize, hilbert_burch, is_cayley_complex, macrae_invariant,
                        resultant_via_cayley, signed_maximal_minors,
                        strong_gcd, sylvester_complex)
from ffr.complexes import (FreeComplex, RingMatrix, certify_exact,
                           characteristic_ideal, elementary_modification,
                           koszul_complex)
from ffr.groebner import IdealGens, ideal_equal, radical_membership
from ffr.monomial import MonomialList, taylor_complex
from ffr.ring import PolyRing, QQ, VerificationError, parse_poly


def algebra(vars, *relations, order="grevlex"):
    R = PolyRing(QQ, vars, order)
    return FPAlgebra(R, [parse_poly(r, R) for r in relations])


def matrix(A, rows):
    return RingMatrix(A, [[A.parse(s) for s in row] for row in rows])


def koszul(A, *names):
    return koszul_complex(A, [A.parse(s) for s in names])


def lifted(aideal):
    return aideal.lifted()


# ---------------------------------------------------------------------------
# Cayley hypotheses and factorization

def test_koszul_is_cayley():
    A = algebra(["x", "y"])
    assert is_cayley_complex(koszul(A, "x", "y")).holds


@pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")])
def test_factorization_records_its_hypotheses(names):
    A = algebra(list(names))
    C = koszul(A, *names)
    hyp = cayley_factorize(C).hypotheses
    assert hyp.holds and hyp == is_cayley_complex(C)


def test_factorization_rechecks_the_outer_product(monkeypatch):
    # a wrong row lift must fail the re-checked identity M = u (w)^T
    import ffr.cayley
    lift = ffr.cayley.algebra_membership

    def wrong_lift(vectors, gens, A):
        return [None if good is None else [good[0] + A.ring.one()]
                for good in lift(vectors, gens, A)]

    monkeypatch.setattr(ffr.cayley, "algebra_membership", wrong_lift)
    with pytest.raises(VerificationError):
        cayley_factorize(koszul(algebra(["x", "y"]), "x", "y"))


def test_one_lift_basis_per_cayley_level_and_per_strong_gcd(monkeypatch):
    # every row of a level, and every cofactor of a strong gcd, is lifted
    # over one tagged basis; syzygy runs build tagged bases of their own
    import sys

    import ffr.groebner
    tagged = ffr.groebner._tagged_basis
    lift_bases = []

    def counting(*args):
        if sys._getframe(1).f_code.co_name == "module_membership":
            lift_bases.append(args)
        return tagged(*args)

    monkeypatch.setattr(ffr.groebner, "_tagged_basis", counting)
    C = koszul(algebra(["x", "y", "z"]), "x", "y", "z")
    data = cayley_factorize(C)
    assert data.det is not None
    assert len(lift_bases) == C.length == 3
    del lift_bases[:]
    A = algebra(["x", "y"])
    x, y = A.parse("x"), A.parse("y")
    gcd = strong_gcd(AIdeal(A, [x * x, x * y]), candidate=x)
    assert gcd.ok and gcd.cofactors == (x, y)
    assert len(lift_bases) == 1

def test_certified_exact_implies_cayley():
    A = algebra(["x", "y", "z"])
    C = koszul(A, "x", "y", "z")
    assert certify_exact(C).exact
    assert is_cayley_complex(C).holds


def _taylor4():
    R = PolyRing(QQ, ["x", "y", "z"])
    ms = MonomialList.parse(R, ["x^2*y", "x*z", "y*z", "z^3"])
    return taylor_complex(ms).complex


MINORS_TABLE_CASES = {
    "koszul3": lambda: koszul(algebra(["x", "y", "z"]), "x", "y", "z"),
    "koszul4": lambda: koszul(algebra(["x", "y", "z", "w"]),
                              "x", "y", "z", "w"),
    "taylor4": _taylor4,
}


@pytest.mark.parametrize("case", sorted(MINORS_TABLE_CASES))
def test_hypotheses_read_characteristic_ideals_off_exterior_powers(case):
    # one minors table per level: D_k, read row by row off
    # Lambda^(r_k) A_k, has the generators of characteristic_ideal in order
    C = MINORS_TABLE_CASES[case]()
    A = C.algebra
    hyp, powers = _hypotheses(C)
    assert hyp.holds and len(powers) == C.length
    for k, M in enumerate(powers, start=1):
        assert M == C.matrix(k).exterior_power(C.ranks[k])
        read = AIdeal(A, [p for row in M.entries for p in row])
        assert read.gens == characteristic_ideal(C, k).gens


def test_depth_one_complex_not_cayley():
    # over Q[x] a complex whose D_2 is <x> has depth 1 < 2
    A = algebra(["x"])
    M1 = matrix(A, [["x", "0"]])
    M2 = matrix(A, [["0"], ["x"]])
    C = FreeComplex(A, [M1, M2])
    hyp = is_cayley_complex(C)
    assert not hyp.holds and hyp.failing_level == 2


def test_factorize_koszul2():
    A = algebra(["x", "y"])
    C = koszul(A, "x", "y")
    data = cayley_factorize(C)
    B0, B1, B2 = data.factor_ideals
    assert lifted(B0).groebner().is_unit_ideal()   # B_0 = <1>
    assert ideal_equal(lifted(B1),
                       IdealGens(A.ring, [A.parse("x"), A.parse("y")]))
    assert lifted(B2).groebner().is_unit_ideal()
    # D_k = B_k B_{k-1}
    B = data.factor_ideals
    for k in (1, 2):
        Dk = lifted(characteristic_ideal(C, k))
        prod = IdealGens(A.ring, [u * v for u in lifted(B[k]).gens
                                  for v in lifted(B[k - 1]).gens])
        assert ideal_equal(Dk, prod)
    # the determinant is a unit here
    g = cayley_determinant(C)
    assert g.degree() == 0 and not g.is_zero


def test_factorize_product_identity():
    # prod B_k = B_0 prod D_{2k} = prod D_{2k+1}
    A = algebra(["x", "y", "z"])
    C = koszul(A, "x", "y", "z")
    data = cayley_factorize(C)
    m, B = C.length, data.factor_ideals
    for k in range(1, m + 1):
        Dk = lifted(characteristic_ideal(C, k))
        prod = IdealGens(A.ring, [u * v for u in lifted(B[k]).gens
                                  for v in lifted(B[k - 1]).gens])
        assert ideal_equal(Dk, prod)
    prod_B = IdealGens(A.ring, [A.ring.one()])
    for k in range(0, m + 1):
        prod_B = IdealGens(A.ring, [u * v for u in prod_B.gens
                                    for v in lifted(B[k]).gens])
    even = lifted(B[0])
    k = 2
    while k <= m:
        even = IdealGens(A.ring, [
            u * v for u in even.gens
            for v in lifted(characteristic_ideal(C, k)).gens])
        k += 2
    odd = IdealGens(A.ring, [A.ring.one()])
    k = 1
    while k <= m:
        odd = IdealGens(A.ring, [
            u * v for u in odd.gens
            for v in lifted(characteristic_ideal(C, k)).gens])
        k += 2
    assert ideal_equal(prod_B, even)
    assert ideal_equal(prod_B, odd)


def test_cayley_determinant_elementary_module():
    A = algebra(["x", "y"])
    diag = matrix(A, [["x", "0"], ["0", "y"]])
    C = FreeComplex(A, [diag])
    g = cayley_determinant(C)
    assert str(g) == "x*y"


def test_determinant_requires_chi_zero():
    A = algebra(["x", "y"])
    M = matrix(A, [["-y"], ["x"]])
    C = FreeComplex(A, [M])  # chi = 1
    with pytest.raises(CayleyError):
        cayley_determinant(C)
    data = cayley_factorize(C)
    assert data.det is None
    # chi > 0 with a non-principal B_0: the certificate route fails loudly
    with pytest.raises(CayleyError):
        data.principal_generator()


def test_positive_chi_principal_generator():
    A = algebra(["x", "y"])
    M = matrix(A, [["x"], ["0"]])
    C = FreeComplex(A, [M])  # chi = 1, B_0 = <x>
    data = cayley_factorize(C)
    g = data.principal_generator()
    assert str(g) == "x"


def test_factorization_ideal_radical_chain():
    # B_k subseteq sqrt(B_{k+1}) for k >= 1 on a certified resolution
    A = algebra(["x", "y", "z"])
    C = koszul(A, "x", "y", "z")
    data = cayley_factorize(C)
    for k in range(1, C.length):
        nxt = lifted(data.factor_ideals[k + 1])
        for g in data.factor_ideals[k].gens:
            assert radical_membership(g, nxt)


def _apply_elementary_change(C, k, i, j, lam):
    """Change of basis on L_k: row op on A_k, inverse column op on A_{k+1}."""
    A = C.algebra
    mats = [C.matrix(t) for t in range(1, C.length + 1)]
    n = C.sizes[k]
    E = RingMatrix.identity(A, n).entries
    E = [list(r) for r in E]
    E[i][j] = lam
    Emat = RingMatrix(A, E, n, n)
    Einv = [list(r) for r in RingMatrix.identity(A, n).entries]
    Einv[i][j] = -lam
    Einv_mat = RingMatrix(A, Einv, n, n)
    if k >= 1:
        mats[k - 1] = mats[k - 1].mul(Emat)        # A_k . E
    if k < C.length:
        mats[k] = Einv_mat.mul(mats[k])            # E^-1 . A_{k+1}
    D = FreeComplex(A, mats)
    assert D.ranks == C.ranks
    return D


def test_basis_change_invariance():
    rng = random.Random(73)
    A = algebra(["x", "y"])
    C = koszul(A, "x", "y")
    base = cayley_factorize(C)
    pool = ["0", "1", "x", "y", "x+y"]
    for _ in range(10):
        D = C
        for _ in range(3):
            k = rng.randint(0, D.length)
            n = D.sizes[k]
            if n < 2:
                continue
            i, j = rng.sample(range(n), 2)
            D = _apply_elementary_change(D, k, i, j, A.parse(rng.choice(pool)))
        data = cayley_factorize(D)
        for t in range(D.length + 1):
            assert ideal_equal(lifted(data.factor_ideals[t]),
                               lifted(base.factor_ideals[t]))
        # chi = 0: determinant changes by a unit only
        assert data.det.degree() == 0


def test_elementary_modification_invariance():
    A = algebra(["x", "y", "z"])
    C = koszul(A, "x", "y", "z")
    base = cayley_factorize(C)
    for k in (1, 2):
        mod = elementary_modification(C, k, 2)
        data = cayley_factorize(mod)
        for t in range(C.length + 1):
            assert ideal_equal(lifted(data.factor_ideals[t]),
                               lifted(base.factor_ideals[t]))


def test_two_generator_theorem_monomial_pairs():
    # (a1, a2) with gcd g: 0 -> A -(-a2/g, a1/g)-> A^2 -(a1 a2)-> A is exact
    A = algebra(["x", "y"])
    for a1, a2, g in [("x^2*y", "x*y^3", "x*y"), ("x^3", "y^4", "1"),
                      ("x^2", "x^3", "x^2")]:
        b1 = f"-({a2})"
        quot = lambda s: str(  # noqa: E731
            parse_poly(s, A.ring))
        from colon_oracle import exact_div
        ga1 = exact_div(A.parse(a1), A.parse(g))
        ga2 = exact_div(A.parse(a2), A.parse(g))
        M2 = RingMatrix(A, [[-ga2], [ga1]], 2, 1)
        M1 = RingMatrix(A, [[A.parse(a1), A.parse(a2)]], 1, 2)
        C = FreeComplex(A, [M1, M2])
        assert C.ranks == (0, 1, 1, 0)
        assert certify_exact(C).exact
        got = cayley_determinant(C)
        assert ideal_equal(IdealGens(A.ring, [got]),
                           IdealGens(A.ring, [A.parse(g)]))


def test_factorize_hilbert_burch_shape_recovers_delta():
    # m = 2 shape: u_2 = [1] and the hodge dual of u_1 is the Delta row
    from ffr.exterior import hodge_right
    A = algebra(["x", "y"])
    M2 = matrix(A, [["y^2", "0"], ["-x", "y^2"], ["0", "-x^2"]])
    delta = signed_maximal_minors(M2)
    M1 = RingMatrix(A, [list(delta)], 1, 3)
    C = FreeComplex(A, [M1, M2])
    assert C.ranks == (0, 1, 2, 0)
    data = cayley_factorize(C)
    assert data.u_vectors[2].coeff(()) == A.ring.one()
    dual = hodge_right(data.u_vectors[1]).coord_list()
    assert dual == list(delta) or dual == [-d for d in delta]
    assert str(data.det) in ("1", "-1")


# ---------------------------------------------------------------------------
# strong gcd

def test_strong_gcd_depth_two_case():
    A = algebra(["x", "y"])
    res = strong_gcd(AIdeal(A, [A.parse("x"), A.parse("y")]))
    assert res.ok and str(res.element) == "1"


def test_strong_gcd_monomial_candidate():
    A = algebra(["x", "y", "z"])
    res = strong_gcd(AIdeal(A, [A.parse("x*z"), A.parse("y*z")]))
    assert res.ok and str(res.element) == "z"
    assert sorted(map(str, res.cofactors)) == ["x", "y"]


def test_strong_gcd_principal():
    A = algebra(["x"])
    res = strong_gcd(AIdeal(A, [A.parse("x^2")]))
    assert res.ok and str(res.element) == "x^2"


def test_strong_gcd_failures():
    A = algebra(["x", "y"])
    no_cand = strong_gcd(AIdeal(A, [A.parse("x+y^2"), A.parse("x*y")]))
    assert not no_cand.ok and "candidate" in no_cand.reason
    B = algebra(["x"], "x^2")
    not_faithful = strong_gcd(AIdeal(B, [B.parse("x")]))
    assert not not_faithful.ok


def test_strong_gcd_rejects_shallow_cofactors():
    # candidate 1 for <x>: cofactor ideal <x> has depth 1, not 2
    A = algebra(["x", "y"])
    res = strong_gcd(AIdeal(A, [A.parse("x")]), candidate=A.ring.one())
    assert not res.ok


# ---------------------------------------------------------------------------
# MacRae invariants

def test_macrae_principal():
    A = algebra(["x", "y"])
    E = AModule(A, 1, [AIdeal(A, [A.parse("x")]).gens])
    C = FreeComplex(A, [matrix(A, [["x"]])])
    cert = macrae_invariant(E, C)
    assert str(cert.element) == "x"
    assert cert.depth2.holds and cert.depth2.k == 2


def test_macrae_elementary():
    A = algebra(["x", "y"])
    E = AModule(A, 2, [[A.parse("x"), A.ring.zero()],
                       [A.ring.zero(), A.parse("y")]])
    C = FreeComplex(A, [matrix(A, [["x", "0"], ["0", "y"]])])
    cert = macrae_invariant(E, C)
    assert str(cert.element) == "x*y"


def test_macrae_ses_multiplicativity():
    # 0 -> A/x -> A/xy -> A/y -> 0: invariants multiply
    A = algebra(["x", "y"])
    invariants = {}
    for name in ["x", "y", "x*y"]:
        E = AModule(A, 1, [AIdeal(A, [A.parse(name)]).gens])
        C = FreeComplex(A, [matrix(A, [[name]])])
        invariants[name] = macrae_invariant(E, C).element
    prod = invariants["x"] * invariants["y"]
    assert ideal_equal(IdealGens(A.ring, [prod]),
                       IdealGens(A.ring, [invariants["x*y"]]))


def test_macrae_rechecks_that_the_invariant_divides_f0(monkeypatch):
    # x + 1 is regular on A = Q[x, y] but does not divide F_0(A/(x)) = (x)
    import ffr.cayley
    A = algebra(["x", "y"])
    monkeypatch.setattr(ffr.cayley, "cayley_determinant",
                        lambda C: A.parse("x + 1"))
    E = AModule(A, 1, [AIdeal(A, [A.parse("x")]).gens])
    C = FreeComplex(A, [matrix(A, [["x"]])])
    with pytest.raises(VerificationError):
        macrae_invariant(E, C)

def test_macrae_requires_matching_presentation():
    A = algebra(["x", "y"])
    E = AModule(A, 1, [AIdeal(A, [A.parse("x")]).gens])
    C = FreeComplex(A, [matrix(A, [["y"]])])
    with pytest.raises(ValueError):
        macrae_invariant(E, C)


# ---------------------------------------------------------------------------
# Hilbert-Burch

def test_hilbert_burch_monomial_instance():
    A = algebra(["x", "y"])
    M = matrix(A, [["y^2", "0"], ["-x", "y^2"], ["0", "-x^2"]])
    rep = hilbert_burch(M, alpha=[A.parse("x^3"), A.parse("x^2*y^2"),
                                  A.parse("y^4")])
    assert rep.delta_annihilates and rep.exact
    assert [str(d) for d in rep.delta] == ["x^3", "x^2*y^2", "y^4"]
    assert rep.alpha_complex_ok and rep.alpha_exact
    assert str(rep.factor) == "1" and rep.factor_regular
    assert rep.factor_gcd.ok


def test_hilbert_burch_scaled_alpha():
    A = algebra(["x", "y"])
    M = matrix(A, [["y^2", "0"], ["-x", "y^2"], ["0", "-x^2"]])
    delta = signed_maximal_minors(M)
    alpha = [A.parse("x") * d for d in delta]
    rep = hilbert_burch(M, alpha=alpha)
    assert rep.alpha_exact
    assert str(rep.factor) == "x"


def test_hilbert_burch_generic():
    names = [f"x{i}{j}" for i in range(1, 4) for j in range(1, 3)]
    A = algebra(names)
    rows = [[f"x{i}1", f"x{i}2"] for i in range(1, 4)]
    rep = hilbert_burch(matrix(A, rows))
    assert rep.delta_annihilates and rep.exact


def test_hilbert_burch_not_exact():
    # both minors share the factor x: grade of <Delta> is 1
    A = algebra(["x", "y"])
    M = matrix(A, [["x", "0"], ["0", "x"], ["0", "0"]])
    rep = hilbert_burch(M)
    assert rep.delta_annihilates and not rep.exact


# ---------------------------------------------------------------------------
# Sylvester complexes and resultants

def test_classical_sylvester_matrix_shape():
    A = algebra([])
    one = A.ring.one()
    two = A.ring.const(2)
    # P = X + 2Y (p=1), Q = X^2 + XY + Y^2, d = 2: a = 0, b = 3
    data = sylvester_complex(A, [two, one], [one, one, one], 2)
    assert data.a == 0 and data.b == 3
    S = data.S
    assert (S.rows, S.cols) == (3, 3)
    det = S.det()
    assert det in (A.ring.const(3), A.ring.const(-3))


def test_resultant_acceptance_values():
    A = algebra([])
    one = A.ring.one()
    two = A.ring.const(2)
    for d in (2, 3):
        g = resultant_via_cayley(A, [two, one], [one, one, one], d)
        assert g in (A.ring.const(3), A.ring.const(-3))


def test_resultant_generic_linear_forms():
    # P = a X + b Y, Q = c X + d Y: Res = a d - b c up to sign
    A = algebra(["a", "b", "c", "d"])
    a, b, c, d = A.ring.gens()
    for deg in (1, 2):
        g = resultant_via_cayley(A, [b, a], [d, c], deg)
        want = a * d - b * c
        assert g == want or g == -want


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sylvester_complex_derives_its_ranks(d):
    # P = X + 2Y (p = 1), Q = X^2 + XY + Y^2 (q = 2): a = d - 2, b = d + 1
    A = algebra([])
    one, two = A.ring.one(), A.ring.const(2)
    data = sylvester_complex(A, [two, one], [one, one, one], d)
    assert data.complex.ranks == (0, data.b, data.a, 0)
    assert (data.a, data.b) == (d - 2, d + 1)


def test_generalized_sylvester_K_shape():
    # tK = the sliding-motif matrix M_a(b_q..b_0, 0^(a-1), -a_p..-a_0)
    A = algebra(["a0", "a1", "b0", "b1", "b2"])
    a0, a1, b0, b1, b2 = A.ring.gens()
    data = sylvester_complex(A, [a0, a1], [b0, b1, b2], 4)  # p=1, q=2, a=2
    K = data.K
    assert (K.rows, K.cols) == (7, 2)
    tK = K.transpose().entries
    motif = [b2, b1, b0, A.ring.zero(), -a1, -a0]
    for r in range(2):
        row = list(tK[r])
        expect = [A.ring.zero()] * 7
        for i, v in enumerate(motif):
            expect[r + i] = v
        assert row == expect


@pytest.mark.parametrize("d", [2, 3, 4])
def test_generalized_sylvester_S_shape(d):
    # S's columns: the motif a_p..a_0 sliding down the d-p+1 columns of the
    # P block, then b_q..b_0 down the d-q+1 columns of the Q block
    A = algebra(["a0", "a1", "b0", "b1", "b2"])
    a0, a1, b0, b1, b2 = A.ring.gens()
    data = sylvester_complex(A, [a0, a1], [b0, b1, b2], d)  # p=1, q=2
    want = []
    for motif, width in (([a1, a0], d), ([b2, b1, b0], d - 1)):
        for c in range(width):
            col = [A.ring.zero()] * (d + 1)
            col[c:c + len(motif)] = motif
            want.append(col)
    assert data.S.columns() == want
    # a = d - 2 columns for K, none at d = 2
    assert (data.K.rows, data.K.cols) == (2 * d - 1, d - 2)


def test_sylvester_minor_anchor():
    # the minor on the last b columns of S equals (-1)^(aq) b_q^a Res(P,Q)
    A = algebra([])
    one = A.ring.one()
    two = A.ring.const(2)
    d = 3  # a = 1, b = 4, q = 2
    data = sylvester_complex(A, [two, one], [one, one, one], d)
    S = data.S
    minor = S.minor(list(range(4)), [1, 2, 3, 4])
    res = A.ring.const(3)
    assert minor == res or minor == -res
