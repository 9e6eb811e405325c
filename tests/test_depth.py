import random
import time

import pytest

from ffr.algebra import AIdeal, AModule, FPAlgebra, quotient_dimension
from ffr.complexes import RingMatrix, determinantal_ideal
from ffr.depth import (DepthCertificate, depth_at_least, depth_dim_identity,
                       depth_value, is_completely_secant,
                       is_E_regular_sequence, is_singular_sequence,
                       kronecker_sequence, same_depth_generators,
                       specialized_sequence, triangular_regularization,
                       wiebe_check, INFINITY)
from ffr.groebner import (IdealGens, ideal_colon, ideal_equal,
                          module_membership)
from ffr.ring import (CoefField, PolyRing, QQ, RingMismatchError,
                      VerificationError, parse_poly)


def algebra(vars, *relations, order="grevlex"):
    R = PolyRing(QQ, vars, order)
    return FPAlgebra(R, [parse_poly(r, R) for r in relations])


def ideal(A, *gens):
    return AIdeal(A, [A.parse(g) for g in gens])


# ---------------------------------------------------------------------------
# Kronecker sequences

def test_kronecker_sequence_shape():
    A = algebra(["x", "y"])
    ks = kronecker_sequence(ideal(A, "x", "y"), 2)
    ext = ks.extended_algebra.ring
    t1, t2 = ks.fresh_vars
    assert [str(p) for p in ks.polys] == [
        str(parse_poly(f"x + y*{t1}", ext)), str(parse_poly(f"x + y*{t2}", ext))]


def test_kronecker_single_generator():
    A = algebra(["x"])
    ks = kronecker_sequence(ideal(A, "x"), 3)
    assert all(str(p) == "x" for p in ks.polys)


def test_kronecker_empty():
    A = algebra(["x"])
    ks = kronecker_sequence(ideal(A, "x"), 0)
    assert ks.polys == ()


@pytest.mark.parametrize("p", [0, 32003])
def test_wide_ideal_generic_2x5_minors(p):
    # D_2 of the generic 2x5 matrix keeps 10 reduced generators, more than
    # any other test ideal: one fresh variable per polynomial, degree 9 in it
    names = [f"a{i}{j}" for i in range(2) for j in range(5)]
    R = PolyRing(CoefField(p), names)
    A = FPAlgebra(R, [])
    X = RingMatrix(A, [[R.var(f"a{i}{j}") for j in range(5)]
                       for i in range(2)], 2, 5)
    a = determinantal_ideal(X, 2)
    free = AModule.free(A, 1)
    reduced = same_depth_generators(a)
    assert len(reduced.gens) == 10
    ks = kronecker_sequence(reduced, 2)
    assert len(ks.fresh_vars) == 2
    ext = ks.extended_algebra.ring
    assert ext.vars == R.vars + ks.fresh_vars
    for i, f in enumerate(ks.polys):
        assert max(m[R.n + i] for m in f.terms) == 9
        assert all(m[R.n + 1 - i] == 0 for m in f.terms)
    assert depth_at_least(a, free, 3).holds

    b = AIdeal(A, [R.var("a00") * g for g in a.gens])
    cert = depth_at_least(b, free, 2)
    assert not cert.holds and cert.fail_stage == 2
    f1, f2 = cert.sequence
    (w,) = cert.witness
    assert module_membership([[w]], [[f1]]) == [None]
    assert module_membership([[f2 * w]], [[f1]])[0] is not None
    assert depth_value(b, free) == 1


def test_generic_2x6_minors_depth_5_from_specialized_sequence():
    # Gr(D_2) = 6 - 2 + 1 = 5 for the generic 2x6 matrix: 15 minors, so a
    # Kronecker stage runs in 12 + 5 variables at degree 14 in each fresh
    # one; the specialized sequence decides it in the base ring instead
    names = [f"a{i}{j}" for i in range(2) for j in range(6)]
    R = PolyRing(CoefField(32003), names)
    A = FPAlgebra(R, [])
    X = RingMatrix(A, [[R.var(f"a{i}{j}") for j in range(6)]
                       for i in range(2)], 2, 6)
    t0 = time.perf_counter()
    cert = depth_at_least(determinantal_ideal(X, 2), AModule.free(A, 1), 5)
    elapsed = time.perf_counter() - t0
    assert cert.holds and cert.k == 5 and cert.algebra is A
    # about 1.2 s on a 2-vCPU host; the Kronecker run alone exceeds 120 s
    assert elapsed < 20, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# regular sequences

def test_regular_sequence_variables():
    A = algebra(["x", "y"])
    cert = is_E_regular_sequence([A.parse("x"), A.parse("y")],
                                 AModule.free(A, 1))
    assert cert.holds


def test_order_dependence_of_regularity():
    # (y, z(y-1)) is regular but the transposed sequence is not
    A = algebra(["x", "y", "z"], "x*(y-1)")
    E = AModule.free(A, 1)
    good = is_E_regular_sequence([A.parse("y"), A.parse("z*(y-1)")], E)
    assert good.holds
    bad = is_E_regular_sequence([A.parse("z*(y-1)"), A.parse("y")], E)
    assert not bad.holds
    assert bad.fail_stage == 1
    assert any(not p.is_zero for p in bad.witness)
    # the ideal itself has depth 2: completely secant in both orders
    assert is_completely_secant([A.parse("y"), A.parse("z*(y-1)")], E)
    assert is_completely_secant([A.parse("z*(y-1)"), A.parse("y")], E)


def test_cusp_powers_not_regular():
    # the coordinate ring of the cusp: u -> t^2, v -> t^3
    A = algebra(["u", "v"], "u^3 - v^2")
    E = AModule.free(A, 1)
    cert = is_E_regular_sequence([A.parse("v"), A.parse("u")], E)
    assert not cert.holds
    cert2 = is_E_regular_sequence([A.parse("u"), A.parse("v")], E)
    assert not cert2.holds


def test_failing_stage_witness_is_reverified(monkeypatch):
    # a failing stage re-checks f_j w = 0 in E by a membership lift; a
    # lift that cannot be found is a verification failure, not a verdict
    import ffr.groebner
    monkeypatch.setattr(ffr.groebner, "module_membership",
                        lambda vectors, gens: [None] * len(vectors))
    A = algebra(["x", "y"])
    with pytest.raises(VerificationError):
        is_E_regular_sequence([A.parse("x"), A.parse("x*y")],
                              AModule.free(A, 1))

# ---------------------------------------------------------------------------
# depth

def test_depth_at_least_examples():
    A = algebra(["x", "y"])
    E = AModule.free(A, 1)
    assert depth_at_least(ideal(A, "x", "y"), E, 2).holds
    assert not depth_at_least(ideal(A, "x", "y"), E, 3).holds
    assert not depth_at_least(AIdeal(A, []), E, 1).holds
    # the empty sequence proves depth >= 0
    cert = depth_at_least(ideal(A, "x"), E, 0)
    assert cert.holds and cert.k == 0 and cert.sequence == ()


@pytest.mark.parametrize("p", [0, 7])
def test_specialized_sequence_table(p):
    # f_i = g_1 + i g_2 + i^2 g_3 for t_i = i, coefficients reduced mod p
    R = PolyRing(CoefField(p), ["x", "y", "z"])
    A = FPAlgebra(R, [])
    f = specialized_sequence(AIdeal(A, [R.var("x"), R.var("y"),
                                        R.var("z")]), 3)
    expected = ["x + y + z", "x + 2*y + 4*z", "x + 3*y + 2*z" if p
                else "x + 3*y + 9*z"]
    assert [str(g) for g in f] == expected


@pytest.mark.parametrize("p", [0, 7])
def test_depth_at_least_falls_back_to_kronecker(p):
    # f_1 = y*z + x vanishes on E = A/(x + y*z), yet x is E-regular: the
    # specialized sequence proves nothing and the Kronecker run decides
    R = PolyRing(CoefField(p), ["x", "y", "z"])
    A = FPAlgebra(R, [])
    a = AIdeal(A, [R.var("x"), R.var("y") * R.var("z")])
    E = AModule(A, 1, [AIdeal(A, [parse_poly("x + y*z", R)]).gens])
    special = specialized_sequence(same_depth_generators(a), 1)
    assert not is_E_regular_sequence(special, E).holds
    cert = depth_at_least(a, E, 1)
    assert cert.holds and cert.algebra.ring.n == 4
    cert = depth_at_least(a, E, 2)
    assert not cert.holds and cert.fail_stage == 2
    assert cert.algebra.ring.n == 5


def test_depth_certificate_record():
    # a certificate prints its fields by name and cannot be changed
    cert = DepthCertificate(2, True)
    assert repr(cert) == ("DepthCertificate(k=2, holds=True, fail_stage=None, "
                          "witness=None, sequence=(), algebra=None)")
    with pytest.raises(AttributeError):
        cert.holds = False
    A = algebra(["x", "y"])
    E = AModule.free(A, 1)
    a = ideal(A, "x", "y")
    cert = depth_at_least(a, E, 2)
    assert cert.k == 2 and len(cert.sequence) == 2
    # a positive verdict from the specialized sequence lives in the base
    # ring: each f_i is a constant combination of x, y, and re-checks
    assert cert.algebra is A
    members = a.lifted().groebner()
    for f in cert.sequence:
        assert f.ring == cert.algebra.ring and members.contains(f)
    assert is_E_regular_sequence(cert.sequence, E).holds


def test_depth_value_examples():
    A = algebra(["x", "y"])
    E = AModule.free(A, 1)
    assert depth_value(ideal(A, "1"), E) == INFINITY
    assert depth_value(ideal(A, "x", "y"), E) == 2
    B = algebra(["x", "y", "z"])
    assert depth_value(ideal(B, "x*y", "x*z"), AModule.free(B, 1)) == 1
    # the zero ideal off k[X]: no generator, depth 0
    Q = algebra(["x", "y"], "x*y")
    assert depth_value(AIdeal(Q, []), AModule.free(Q, 1)) == 0


def test_depth_value_rechecks_the_dimension(monkeypatch):
    # over k[X] on a free module each value must equal n - dim A/a: an
    # independent set below dim A/a = 2 claims a depth the lower bound
    # refuses
    import ffr.groebner as gb
    from ffr.ring import VerificationError
    A = algebra(["x", "y", "z"])
    E = AModule.free(A, 1)
    monkeypatch.setattr(gb, "independent_set", lambda I: ())
    with pytest.raises(VerificationError):
        depth_value(ideal(A, "x*y", "x*z"), E)
    # the check reads the basis same_depth_generators already holds
    calls = []
    monkeypatch.setattr(gb, "independent_set",
                        lambda I: calls.append(I._gb) or (1, 2))
    assert depth_value(ideal(A, "x*y", "x*z"), E) == 1
    assert len(calls) == 1 and calls[0] is not None
    # quotient algebras and presented modules keep the Kronecker path only
    B = algebra(["x", "y"], "x*y")
    assert depth_value(ideal(B, "x", "y"), AModule.free(B, 1)) == 1
    quot = AModule(A, 1, [ideal(A, "x").gens])
    assert depth_value(ideal(A, "y", "z"), quot) == 2


def test_depth_value_infinite_on_quotient():
    A = algebra(["x"])
    quot = AModule(A, 1, [ideal(A, "x").gens])
    assert depth_value(ideal(A, "x-1"), quot) == INFINITY


@pytest.mark.parametrize("ask", [
    lambda a, E: depth_value(a, E),
    lambda a, E: depth_at_least(a, E, 2),
    lambda a, E: triangular_regularization(a, 2, E),
], ids=["depth_value", "depth_at_least", "triangular_regularization"])
def test_ideal_and_module_over_different_algebras(ask):
    # (x, y) over k[x, y] and E over k[x, y]/(xy): the answer over k[x, y]
    # would be 2, but the depth over the quotient is 1
    A = algebra(["x", "y"])
    Q = FPAlgebra(A.ring, [A.parse("x*y")])
    E = AModule.free(Q, 1)
    with pytest.raises(RingMismatchError):
        ask(ideal(A, "x", "y"), E)
    assert depth_value(ideal(Q, "x", "y"), E) == 1


def test_kronecker_sequence_independence():
    # two independently drawn Kronecker sequences give the same verdicts
    rng = random.Random(43)
    A = algebra(["x", "y"])
    B = algebra(["x", "y"], "x*y")
    pool = ["x", "y", "x+y", "x^2", "y^2", "x-y"]
    checked = 0
    while checked < 30:
        base = rng.choice([A, B])
        gens = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
        k = rng.randint(1, 2)
        a = ideal(base, *gens)
        if not a.gens:
            continue
        E = AModule.free(base, 1)
        first = depth_at_least(a, E, k).holds
        # redraw: same procedure over a fresh extension, and also with the
        # generator list permuted (a different but equally valid sequence)
        perm = list(a.gens)
        rng.shuffle(perm)
        second = depth_at_least(AIdeal(base, perm), E, k).holds
        assert first == second
        checked += 1


def test_fundamental_depth_theorem():
    # for b in a regular on E: Gr(a, E) >= k+1  iff  Gr(a, E/bE) >= k
    A = algebra(["x", "y", "z"])
    a = ideal(A, "x", "y", "z")
    E = AModule.free(A, 1)
    b = A.parse("x")
    quot = AModule(A, 1, [ideal(A, "x").gens])
    for k in (1, 2):
        lhs = depth_at_least(a, E, k + 1).holds
        rhs = depth_at_least(a, quot, k).holds
        assert lhs == rhs
    assert not depth_at_least(a, quot, 3).holds


def test_power_invariance():
    # Gr(<a1^e1..an^en>, E) >= k whenever Gr(<a>, E) >= k
    rng = random.Random(47)
    A = algebra(["x", "y", "z"])
    E = AModule.free(A, 1)
    a = ideal(A, "x", "y")
    assert depth_at_least(a, E, 2).holds
    for _ in range(3):
        e1, e2 = rng.randint(1, 3), rng.randint(1, 3)
        powered = ideal(A, f"x^{e1}", f"y^{e2}")
        assert depth_at_least(powered, E, 2).holds


def test_depth_two_proportionality():
    # depth >= 2 solves every proportional family, uniquely
    rng = random.Random(53)
    A = algebra(["x", "y"])
    R = A.ring
    a_gens = [A.parse("x"), A.parse("y")]
    assert depth_at_least(AIdeal(A, a_gens), AModule.free(A, 1), 2).holds
    from ffr.groebner import module_membership
    for _ in range(10):
        w = A.parse(rng.choice(["x", "y", "x+y", "x*y", "x^2-y"]))
        v = [g * w for g in a_gens]  # proportional by construction
        # solving v = a*w by lifting: membership of v in the module a*A
        lift, = module_membership([v], [a_gens])
        assert lift is not None
        assert lift[0] == w  # uniqueness: the lift is exactly w


def test_ses_depth_inequalities():
    # 0 -> E -> F -> G -> 0 with F free, E the image of an injective map,
    # G its cokernel: all three displayed inequalities hold
    cases = []
    A = algebra(["x", "y"])
    cases.append((A, AModule.free(A, 1), AModule.free(A, 1),
                  AModule(A, 1, [ideal(A, "x").gens]),
                  ideal(A, "x", "y")))
    B = algebra(["x", "y", "z"])
    cases.append((B, AModule.free(B, 1), AModule.free(B, 1),
                  AModule(B, 1, [ideal(B, "x*y").gens]),
                  ideal(B, "x", "y", "z")))
    cases.append((B, AModule.free(B, 1), AModule.free(B, 1),
                  AModule(B, 1, [ideal(B, "z").gens]),
                  ideal(B, "x", "y")))
    for _, E, F, G, a in cases:
        gE = depth_value(a, E)
        gF = depth_value(a, F)
        gG = depth_value(a, G)
        assert gE >= min(gG + 1, gF)
        assert gF >= min(gE, gG)
        assert gG >= min(gE - 1, gF)


# ---------------------------------------------------------------------------
# triangular regularization

def test_triangular_regularization_single():
    A = algebra(["x"])
    res = triangular_regularization(ideal(A, "x"), 1, AModule.free(A, 1))
    assert res.ok
    assert str(res.matrix[0][0]) == "1"
    assert str(res.polys[0]) == "x"


def test_triangular_regularization_pair():
    A = algebra(["x", "y"])
    res = triangular_regularization(ideal(A, "x", "y"), 2, AModule.free(A, 1))
    assert res.ok
    ext = res.extended_algebra.ring
    t1, t2 = ext.vars[-2:]
    assert res.polys[0] == parse_poly(f"x + y*{t1}", ext)
    assert res.polys[1] == parse_poly("y", ext)
    U = res.matrix
    assert str(U[0][0]) == "1" and str(U[1][1]) == "1"
    assert str(U[1][0]) == "0"
    assert U[0][1] == parse_poly(t1, ext)


def test_triangular_regularization_matrix_shape():
    A = algebra(["x", "y", "z"])
    res = triangular_regularization(ideal(A, "x", "y", "z"), 2,
                                    AModule.free(A, 1))
    U = res.matrix
    # third row is identity, second row carries (0, 1, X2)
    assert [str(c) for c in U[2]] == ["0", "0", "1"]
    assert str(U[1][0]) == "0" and str(U[1][1]) == "1"
    assert not U[1][2].is_zero
    assert res.ideal_preserved


def test_triangular_regularization_reports_failed_reverification():
    # first generator nilpotent: (b_1) cannot be E-regular
    A = algebra(["x"], "x^2")
    res = triangular_regularization(ideal(A, "x"), 1, AModule.free(A, 1))
    assert not res.ok
    assert not res.regularity.holds


def test_first_exchange_lemma():
    # if (a, b) is E-regular and b is E-regular, then (b, a) is E-regular
    rng = random.Random(63)
    A = algebra(["x", "y"])
    E = AModule.free(A, 1)
    pool = ["x", "y", "x+y", "x-y", "x*y", "x^2+y", "1+x"]
    checked = 0
    while checked < 12:
        a = A.parse(rng.choice(pool))
        b = A.parse(rng.choice(pool))
        if not is_E_regular_sequence([a, b], E).holds:
            continue
        if not is_E_regular_sequence([b], E).holds:
            continue
        assert is_E_regular_sequence([b, a], E).holds
        checked += 1


def test_generic_polynomials_form_regular_sequence():
    # binary forms with disjoint indeterminate coefficients are regular
    A = algebra(["a", "b", "c", "d", "e", "X", "Y"])
    E = AModule.free(A, 1)
    P1 = A.parse("a*X + b*Y")
    P2 = A.parse("c*X^2 + d*X*Y + e*Y^2")
    assert is_E_regular_sequence([P1, P2], E).holds
    assert is_E_regular_sequence([P2, P1], E).holds


# ---------------------------------------------------------------------------
# completely secant / singular sequences

def test_completely_secant_examples():
    A = algebra(["x", "y", "z"])
    E = AModule.free(A, 1)
    seq = [A.parse("(y-1)*x"), A.parse("y"), A.parse("(y-1)*z")]
    assert is_completely_secant(seq, E)
    assert is_completely_secant(list(reversed(seq)), E)
    assert is_completely_secant([seq[0], seq[2], seq[1]], E)
    B = algebra(["x"])
    assert not is_completely_secant([B.parse("x"), B.parse("x")],
                                    AModule.free(B, 1))
    assert is_completely_secant([], E)


def test_singular_sequences():
    A = algebra(["x"], "x^2")
    assert is_singular_sequence([A.parse("x")], A)
    B = algebra(["x"])
    assert not is_singular_sequence([B.parse("x")], B)
    C = algebra(["x", "y"])
    assert not is_singular_sequence([C.parse("x"), C.parse("y")], C)
    rng = random.Random(59)
    pool = ["x", "y", "x+y", "x*y", "x^2", "x-1"]
    for _ in range(5):
        seq = [C.parse(rng.choice(pool)) for _ in range(3)]
        assert is_singular_sequence(seq, C)  # Kdim Q[x,y] = 2


def _singular_bounded(seq, A, bound):
    """Brute-force variant with saturation replaced by colon with x^bound."""
    from colon_oracle import ideal_colon_poly
    from ffr.groebner import IdealGens
    current = IdealGens(A.ring, A.relations.gens)
    for x in seq:
        x = A.nf(x)
        col = ideal_colon_poly(current, x ** bound)
        current = IdealGens(A.ring, list(col.gens) + [x])
    return current.groebner().is_unit_ideal()


def test_singular_chain_matches_bounded_search():
    # the boundary-chain formulation agrees with small-exponent search
    A = algebra(["x"], "x^2")
    B = algebra(["x", "y"], "x*y")
    cases = [([a.parse(s) for s in seq], a) for (seq, a) in [
        (["x"], A), (["x-1"], A), (["x"], B), (["x", "y"], B),
        (["x+y", "x"], B), (["y", "x-1"], B)]]
    for seq, alg in cases:
        assert is_singular_sequence(seq, alg) == _singular_bounded(seq, alg, 3)


def test_secant_and_singular_implies_unimodular():
    rng = random.Random(61)
    A = algebra(["x", "y"])
    E = AModule.free(A, 1)
    pool = ["x", "y", "x-1", "y-1", "x+y", "1+x*y"]
    found = 0
    for _ in range(40):
        seq = [A.parse(rng.choice(pool)) for _ in range(rng.randint(2, 3))]
        if is_completely_secant(seq, E) and is_singular_sequence(seq, A):
            lifted = AIdeal(A, seq).lifted()
            assert lifted.groebner().is_unit_ideal()
            found += 1
    assert found >= 3


def test_depth_above_dimension_forces_unit():
    # Gr > Kdim forces 1 in the ideal: contrapositive on proper ideals
    A = algebra(["x", "y"])
    E = AModule.free(A, 1)
    for gens in [("x", "y"), ("x",), ("x*y",), ("x", "y", "x+y")]:
        a = ideal(A, *gens)
        if not a.lifted().groebner().is_unit_ideal():
            assert not depth_at_least(a, E, 3).holds


# ---------------------------------------------------------------------------
# Wiebe

def test_wiebe_instance():
    A = algebra(["x", "y"])
    E = AModule.free(A, 1)
    U = [[A.parse("x"), A.ring.zero()], [A.ring.zero(), A.parse("y")]]
    rep = wiebe_check([A.parse("x^2"), A.parse("y^2")],
                      [A.parse("x"), A.parse("y")], U, E)
    assert rep.holds
    assert str(rep.delta) == "x*y"
    # oracle on the ring side
    R = A.ring
    I = IdealGens(R, [parse_poly("x^2", R), parse_poly("y^2", R)])
    colon = ideal_colon(I, IdealGens(R, [parse_poly("x*y", R)]))
    assert ideal_equal(colon, IdealGens(R, [parse_poly("x", R),
                                            parse_poly("y", R)]))


def test_wiebe_trivial_and_univariate():
    A = algebra(["x"])
    E = AModule.free(A, 1)
    one = A.ring.one()
    rep = wiebe_check([A.parse("x")], [A.parse("x")], [[one]], E)
    assert rep.holds and str(rep.delta) == "1"
    rep2 = wiebe_check([A.parse("x^2")], [A.parse("x")], [[A.parse("x")]], E)
    assert rep2.holds and str(rep2.delta) == "x"
    # on the zero module every colon equality holds
    rep0 = wiebe_check([A.parse("x^2")], [A.parse("x")], [[A.parse("x")]],
                       AModule.free(A, 0))
    assert rep0.holds and rep0.counterexamples == {}


def test_wiebe_corrupted_delta_fails():
    A = algebra(["x", "y"])
    E = AModule.free(A, 1)
    # wrong certificate matrix: claims c = U a with det U = x^2 (not xy)
    U = [[A.parse("x"), A.ring.zero()], [A.ring.zero(), A.parse("x")]]
    rep = wiebe_check([A.parse("x^2"), A.parse("y^2")],
                      [A.parse("x"), A.parse("y")], U, E)
    assert not rep.holds
    # x^2 in c, so (cE : x^2) = E, whose generator 1 is not in aE
    assert rep.counterexamples["colon_delta"] == [(A.ring.one(),)]


# ---------------------------------------------------------------------------
# depth vs Krull dimension over k[X]

def test_depth_dim_identity_cases():
    A = algebra(["x", "y", "z"])
    rep = depth_dim_identity(ideal(A, "x", "y"))
    assert rep.quotient_dim == 1 and rep.expected_depth == 2 and rep.holds
    rep_unit = depth_dim_identity(ideal(A, "1"))
    assert rep_unit.unit_ideal and rep_unit.holds
    rep_zero = depth_dim_identity(AIdeal(A, []))
    assert rep_zero.quotient_dim == 3 and rep_zero.expected_depth == 0
    assert rep_zero.holds
    with pytest.raises(ValueError):
        depth_dim_identity(ideal(algebra(["x"], "x^2"), "x"))


def test_one_basis_per_ideal(monkeypatch):
    # the depth, the dimension and the identity read one reduced basis of
    # a's lifted ideal, computed by one Buchberger run
    import ffr.groebner as gb
    run = gb._buchberger_vecs
    runs = []

    def counted(generators, ring, rank):
        runs.append((rank, sorted(str(p) for v in generators for p in v)))
        return run(generators, ring, rank)

    A = algebra(["x", "y", "z"])
    a = ideal(A, "x*y + x*z", "x*z")
    monkeypatch.setattr(gb, "_buchberger_vecs", counted)
    assert depth_value(a, AModule.free(A, 1)) == 1
    assert quotient_dimension(A, a) == 2
    assert depth_dim_identity(a).expected_depth == 1
    own = (1, sorted(str(g) for g in a.lifted().gens))
    assert runs.count(own) == 1
    assert a.lifted() is a.lifted()
