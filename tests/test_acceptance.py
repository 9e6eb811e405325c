"""Acceptance suite: each criterion runs at its stated tolerance and prints
one pass/fail line (visible with pytest -s)."""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

from ffr.algebra import AIdeal, AModule, FPAlgebra
from ffr.cayley import cayley_factorize, hilbert_burch
from ffr.cli import run
from ffr.complexes import (FreeComplex, RingMatrix, certify_exact,
                           characteristic_ideal, determinantal_ideal,
                           elementary_modification, kernel_generators,
                           koszul_complex, mccoy_injective, pfaffian_data)
from ffr.depth import depth_value, is_completely_secant, is_E_regular_sequence
from ffr.exterior import (MultiVector, hodge_left, hodge_right,
                          interior_right, pairing, subsets_colex,
                          sylvester_plucker, wedge)
from ffr.groebner import (IdealGens, ideal_colon, ideal_equal,
                          module_membership)
from ffr.monomial import (MonomialList, homotopy_identity_check,
                          monomial_syzygies, taylor_complex)
from ffr.ring import CoefField, Poly, PolyRing, QQ, parse_poly


def _line(num, desc, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {desc} "
          f"({elapsed:.2f}s, budget {budget}s)")
    assert ok
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def algebra(vars, *relations):
    R = PolyRing(QQ, vars)
    return FPAlgebra(R, [parse_poly(r, R) for r in relations])


def test_criterion_01_resultant_identity(capsys):
    t0 = time.perf_counter()
    # independent oracle: the 3x3 Sylvester determinant by permutation
    # expansion over plain Fractions (no library code)
    # columns: X*P, Y*P, Q over rows X^2, XY, Y^2 with P = X+2Y, Q = X^2+XY+Y^2
    S = [[Fraction(1), Fraction(0), Fraction(1)],
         [Fraction(2), Fraction(1), Fraction(1)],
         [Fraction(0), Fraction(2), Fraction(1)]]
    oracle = sum((1 if sign else -1) * S[0][a] * S[1][b] * S[2][c]
                 for (a, b, c), sign in
                 [((0, 1, 2), True), ((1, 2, 0), True), ((2, 0, 1), True),
                  ((0, 2, 1), False), ((1, 0, 2), False), ((2, 1, 0), False)])
    assert oracle == 3
    ok = True
    for d in ("2", "3"):
        code = run(["resultant", "--P", "X+2*Y", "--Q", "X^2+X*Y+Y^2",
                    "--d", d])
        out = capsys.readouterr().out
        rep = json.loads(out)
        ok = ok and code == 0 and rep["resultant"] in (str(oracle),
                                                       str(-oracle))
    with capsys.disabled():
        _line(1, "resultant +-3 at d=2,3 vs Sylvester oracle", ok,
              time.perf_counter() - t0, 1.0)


def test_criterion_02_koszul_exactness(capsys):
    t0 = time.perf_counter()
    ok = True
    for n in (2, 3, 4):
        A = algebra([f"x{i}" for i in range(1, n + 1)])
        C = koszul_complex(A, A.ring.gens())
        ok = ok and certify_exact(C).exact
    # negative control: zero the column of the last differential at n = 4
    A = algebra(["x1", "x2", "x3", "x4"])
    C = koszul_complex(A, A.ring.gens())
    mats = [C.matrix(k) for k in (1, 2, 3)]
    mats.append(RingMatrix.zero(A, 4, 1))
    broken = FreeComplex(A, mats)
    rep = certify_exact(broken)
    cond = [c for c in rep.conditions if c.certificate is not None][-1]
    ok = (ok and broken.ranks == C.ranks and not rep.exact
          and cond.certificate is not None and not cond.holds
          and cond.certificate.witness is not None)
    with capsys.disabled():
        _line(2, "Koszul n=2,3,4 exact; zeroed column rejected with witness",
              ok, time.perf_counter() - t0, 30.0)


def test_criterion_03_taylor_resolution(capsys):
    t0 = time.perf_counter()
    R = PolyRing(QQ, ["x", "y", "z"])

    # reference differentials of the worked example (x^2 y, x y^3, x z, y z):
    # the full entrywise comparison of d_1..d_4 lives in tests/test_monomial.py
    # and is re-run here
    from test_monomial import test_taylor_differentials_of_worked_example
    ok = True
    try:
        test_taylor_differentials_of_worked_example()
    except AssertionError:
        ok = False

    # homotopy identity for the problem statement's own list, on every
    # point of its lcm lattice: a proof for every subset and multiplier
    stated = MonomialList.parse(R, ["x^2*y", "x*y^3", "x", "y*z"])
    ok = ok and homotopy_identity_check(taylor_complex(stated))
    with capsys.disabled():
        _line(3, "Taylor matrices match the reference tables; homotopy on "
                 "every lcm-lattice point", ok,
              time.perf_counter() - t0, 5.0)


def test_criterion_04_hilbert_burch_monomial(capsys):
    t0 = time.perf_counter()
    A = algebra(["x", "y"])
    mu = [A.parse(s) for s in ("x^3", "x^2*y^2", "y^4")]
    # kernel basis from the pairwise monomial syzygies (1,2) and (2,3)
    m = MonomialList.parse(A.ring, ["x^3", "x^2*y^2", "y^4"])
    syz = monomial_syzygies(m)
    cols = [syz[0], syz[2]]  # sigma_12 and sigma_23
    M = RingMatrix(A, [[cols[0][i], cols[1][i]] for i in range(3)], 3, 2)
    rep = hilbert_burch(M, alpha=mu)
    ok = rep.exact and rep.alpha_exact and rep.grade2.holds
    want = [A.parse(s) for s in ("x^3", "x^2*y^2", "y^4")]
    got = list(rep.delta)
    ok = ok and (got == want or got == [-p for p in want])
    # the kernel of mu is exactly the column span: free of rank 2
    from ffr.groebner import syzygy_module
    for s in syzygy_module([[p] for p in mu]):
        ok = ok and module_membership([s], [c for c in
                                            [list(col) for col in
                                             zip(*M.entries)]])[0] is not None
    with capsys.disabled():
        _line(4, "Hilbert-Burch for (x^3, x^2 y^2, y^4): free rank-2 kernel, "
                 "Delta up to sign, grade >= 2", ok,
              time.perf_counter() - t0, 5.0)


def _dimension_oracle(I):
    """Initial-ideal independent-set enumeration, straight from scratch."""
    gbI = I.groebner()
    if gbI.is_unit_ideal():
        return -1
    lms = [g.lm() for g in gbI.basis]
    n = I.ring.n
    best = 0
    for k in range(n, -1, -1):
        for S in combinations(range(n), k):
            Sset = set(S)
            if not any(set(i for i, e in enumerate(m) if e) <= Sset
                       for m in lms):
                return k
    return best


def test_criterion_05_depth_dimension_identity(capsys):
    t0 = time.perf_counter()
    A = algebra(["x", "y", "z"])
    E = AModule.free(A, 1)
    ideals = [["x"], ["x", "y"], ["x", "y", "z"], ["x*y"], ["x*y", "x*z"],
              ["x*y", "x*z", "y*z"], ["x^2"], ["x^2", "y^3"], ["x-y"],
              ["x-y", "y-z"]]
    ok = True
    for gens in ideals:
        a = AIdeal(A, [A.parse(s) for s in gens])
        r = _dimension_oracle(a.lifted())
        depth = depth_value(a, E)
        ok = ok and (depth == 3 - r)
    with capsys.disabled():
        _line(5, "depth + dim = 3 on 10 hand-checkable ideals in Q[x,y,z]",
              ok, time.perf_counter() - t0, 60.0)


def test_criterion_06_order_dependence(capsys):
    t0 = time.perf_counter()
    A = algebra(["x", "y", "z"], "x*(y-1)")
    E = AModule.free(A, 1)
    seq = [A.parse("y"), A.parse("z*(y-1)")]
    good = is_E_regular_sequence(seq, E)
    bad = is_E_regular_sequence(list(reversed(seq)), E)
    ok = (good.holds and not bad.holds and bad.witness is not None
          and any(not p.is_zero for p in bad.witness))
    ok = ok and is_completely_secant(seq, E)
    ok = ok and is_completely_secant(list(reversed(seq)), E)
    with capsys.disabled():
        _line(6, "(y, z(y-1)) accepted, transposition rejected with witness, "
                 "both orders completely secant", ok,
              time.perf_counter() - t0, 30.0)


def test_criterion_07_exterior_identity_suites(capsys):
    t0 = time.perf_counter()
    A = algebra(["x"])
    ok = True
    for n in range(1, 6):
        full = MultiVector.basis(A, n, tuple(range(1, n + 1)))
        for p in range(n + 1):
            q = n - p
            sign = A.ring.const((-1) ** (p * q))
            for J in subsets_colex(n, p):
                eJ = MultiVector.basis(A, n, J)
                star = hodge_right(eJ)
                ok = ok and wedge(eJ, star) == full
                ok = ok and hodge_right(star) == eJ.scale(sign)
                ok = ok and hodge_left(star) == eJ
                for K in subsets_colex(n, p):
                    u2 = MultiVector.basis(A, n, K)
                    lhs = pairing(eJ, u2)
                    ok = ok and lhs == pairing(star, hodge_right(u2))
                    top = wedge(eJ, hodge_right(u2)).coeff(
                        tuple(range(1, n + 1)))
                    ok = ok and lhs == top
        # jolie formule, exhaustively
        for p in range(1, n + 1):
            for I in subsets_colex(n, p):
                xb = MultiVector.basis(A, n, I)
                for u in range(1, n + 1):
                    uv = MultiVector.basis(A, n, (u,))
                    for Z in subsets_colex(n, p - 1):
                        z = MultiVector.basis(A, n, Z)
                        ok = ok and pairing(interior_right(xb, uv), z) == \
                            pairing(xb, wedge(uv, z))
    # Sylvester-Pluecker: 50 random small instances, n <= 4
    rng = random.Random(101)
    B = algebra(["x", "y"])
    R = B.ring
    for _ in range(50):
        n = rng.choice([2, 3, 4])
        p = rng.randint(1, n)
        rand = lambda: Poly(R, {(rng.randint(0, 1), rng.randint(0, 1)):  # noqa: E731
                                QQ.coerce(rng.randint(-2, 2))})
        xs = [[rand() for _ in range(n)] for _ in range(n)]
        zs = [[rand() for _ in range(n)] for _ in range(p)]
        _, _, equal = sylvester_plucker(B, xs, zs)
        ok = ok and equal
    with capsys.disabled():
        _line(7, "Hodge/duality/interior identity suites n<=5; "
                 "Sylvester-Pluecker on 50 random instances", ok,
              time.perf_counter() - t0, 30.0)


def _generic_antisymmetric(A, n):
    gens = iter(A.ring.gens())
    zero = A.ring.zero()
    ents = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = next(gens)
            ents[i][j] = v
            ents[j][i] = -v
    return RingMatrix(A, ents)


def test_criterion_08_pfaffian_complex(capsys):
    t0 = time.perf_counter()
    # n = 3 over Q
    A3 = algebra(["x12", "x13", "x23"])
    X3 = _generic_antisymmetric(A3, 3)
    data3 = pfaffian_data(X3)
    ok = data3.qx_is_zero and data3.adjugate_identity
    D2 = determinantal_ideal(X3, 2).lifted()
    q = [p if not p.is_zero else p for p in data3.Q.entries[0]]
    qq = IdealGens(A3.ring, [a * b for a in q for b in q])
    ok = ok and ideal_equal(D2, qq)
    ok = ok and certify_exact(data3.complex).exact
    # n = 5 over F7 to bound cost
    F7 = CoefField(7)
    R5 = PolyRing(F7, [f"x{i}{j}" for i in range(1, 6)
                       for j in range(i + 1, 6)])
    A5 = FPAlgebra.polynomial(R5)
    X5 = _generic_antisymmetric(A5, 5)
    data5 = pfaffian_data(X5)
    ok = ok and data5.qx_is_zero and data5.adjugate_identity
    q5 = list(data5.Q.entries[0])
    qq5 = IdealGens(R5, [a * b for a in q5 for b in q5])
    gb_qq5 = qq5.groebner()
    minors = determinantal_ideal(X5, 4).gens
    ok = ok and all(gb_qq5.contains(g) for g in minors)
    gb_minors = IdealGens(R5, list(minors)).groebner()
    ok = ok and all(gb_minors.contains(g) for g in qq5.gens)
    with capsys.disabled():
        _line(8, "pfaffian: QX=0, adj=QtQ, D_{n-1}(X)=D_1(Q)^2 (n=3 and "
                 "n=5/F7); 4-term complex exact at n=3", ok,
              time.perf_counter() - t0, 60.0)


def test_criterion_09_mccoy_cross_validation(capsys):
    t0 = time.perf_counter()
    rng = random.Random(103)
    A = algebra(["x", "y"])
    B = algebra(["x"], "x^2")
    pool_A = ["0", "1", "x", "y", "x+y", "x*y", "x-1", "y^2"]
    pool_B = ["0", "1", "x", "x+1", "2*x", "x-1"]
    ok = True
    for trial in range(50):
        alg, pool = (A, pool_A) if trial % 2 == 0 else (B, pool_B)
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        M = RingMatrix(alg, [[alg.parse(rng.choice(pool))
                              for _ in range(cols)] for _ in range(rows)])
        ok = ok and mccoy_injective(M) == (kernel_generators(M) == [])
    with capsys.disabled():
        _line(9, "McCoy agrees with the kernel oracle on 50 random matrices",
              ok, time.perf_counter() - t0, 60.0)


def test_criterion_10_wiebe(capsys):
    t0 = time.perf_counter()
    from ffr.depth import wiebe_check
    A = algebra(["x", "y"])
    E = AModule.free(A, 1)
    U = [[A.parse("x"), A.ring.zero()], [A.ring.zero(), A.parse("y")]]
    rep = wiebe_check([A.parse("x^2"), A.parse("y^2")],
                      [A.parse("x"), A.parse("y")], U, E)
    ok = rep.holds and str(rep.delta) == "x*y"
    # Groebner colon oracle for both equalities
    R = A.ring
    I = IdealGens(R, [parse_poly("x^2", R), parse_poly("y^2", R)])
    c1 = ideal_colon(I, IdealGens(R, [parse_poly("x*y", R)]))
    ok = ok and ideal_equal(c1, IdealGens(R, [parse_poly("x", R),
                                              parse_poly("y", R)]))
    c2 = ideal_colon(I, IdealGens(R, [parse_poly("x", R),
                                      parse_poly("y", R)]))
    ok = ok and ideal_equal(c2, IdealGens(R, [parse_poly(s, R) for s in
                                              ("x*y", "x^2", "y^2")]))
    # corrupted certificate: det U != the true transition determinant
    bad_U = [[A.parse("x"), A.ring.zero()], [A.ring.zero(), A.parse("x")]]
    bad = wiebe_check([A.parse("x^2"), A.parse("y^2")],
                      [A.parse("x"), A.parse("y")], bad_U, E)
    ok = ok and not bad.holds
    with capsys.disabled():
        _line(10, "Wiebe colon equalities for (x^2,y^2)/(x,y)/Delta=xy; "
                  "corrupted Delta fails", ok, time.perf_counter() - t0, 30.0)


def test_criterion_11_invariance_batteries(capsys):
    t0 = time.perf_counter()
    rng = random.Random(107)
    A = algebra(["x", "y"])
    koszul2 = koszul_complex(A, A.ring.gens())
    from ffr.cayley import signed_maximal_minors
    hb_mat = RingMatrix.from_strings(A, [["y^2", "0"], ["-x", "y^2"],
                                         ["0", "-x^2"]])
    hb = FreeComplex(A, [RingMatrix(A, [signed_maximal_minors(hb_mat)], 1, 3),
                         hb_mat])
    ok = hb.ranks == (0, 1, 2, 0)
    pool = ["0", "1", "x", "y", "x+y", "x*y"]
    for C in (koszul2, hb):
        base = cayley_factorize(C)
        base_char = [characteristic_ideal(C, k).lifted()
                     for k in range(1, C.length + 1)]
        for trial in range(20):
            D = C
            # a random elementary modification
            s = rng.randint(0, 2)
            if s:
                D = elementary_modification(D, 1, s)
            # a few random unimodular (elementary) basis changes
            for _ in range(rng.randint(1, 3)):
                k = rng.randint(0, D.length)
                n = D.sizes[k]
                if n < 2:
                    continue
                i, j = rng.sample(range(n), 2)
                lam = A.parse(rng.choice(pool))
                mats = [D.matrix(t) for t in range(1, D.length + 1)]
                E = [list(r) for r in RingMatrix.identity(A, n).entries]
                E[i][j] = lam
                Emat = RingMatrix(A, E, n, n)
                Einv = [list(r) for r in RingMatrix.identity(A, n).entries]
                Einv[i][j] = -lam
                Einv_mat = RingMatrix(A, Einv, n, n)
                if k >= 1:
                    mats[k - 1] = mats[k - 1].mul(Emat)
                if k < D.length:
                    mats[k] = Einv_mat.mul(mats[k])
                ranks, D = D.ranks, FreeComplex(A, mats)
                ok = ok and D.ranks == ranks
            for k in range(1, C.length + 1):
                ok = ok and ideal_equal(characteristic_ideal(D, k).lifted(),
                                        base_char[k - 1])
            data = cayley_factorize(D)
            for t in range(C.length + 1):
                ok = ok and ideal_equal(data.factor_ideals[t].lifted(),
                                        base.factor_ideals[t].lifted())
    with capsys.disabled():
        _line(11, "characteristic and factorization ideals invariant under "
                  "20 random modifications/basis changes per complex", ok,
              time.perf_counter() - t0, 120.0)
