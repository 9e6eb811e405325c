import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from colon_oracle import (exact_div, ideal_intersection,
                          saturation_by_iteration)
from ffr.groebner import (IdealGens, ModuleBasis, _Reducers, _spair,
                          _tagged_basis, ideal_colon, ideal_equal,
                          ideal_product, krull_dimension, module_membership,
                          radical_membership, saturation, syzygy_module)
from ffr.ring import (CoefField, Poly, PolyRing, QQ, RingMismatchError,
                      VerificationError, _Overflow, _Pack, mono_div,
                      mono_divides, mono_lcm, mono_mul, parse_poly)


def R2(order="grevlex"):
    return PolyRing(QQ, ["x", "y"], order)


def R3(order="grevlex"):
    return PolyRing(QQ, ["x", "y", "z"], order)


def ideal(R, *gens):
    return IdealGens(R, [parse_poly(g, R) for g in gens])


def P(R, s):
    return parse_poly(s, R)


# ---------------------------------------------------------------------------
# Groebner bases

def test_gb_principal():
    gb = ideal(R2(), "x").groebner()
    assert [str(g) for g in gb.basis] == ["x"]


def test_gb_two_linear():
    gb = ideal(R2(), "x+y", "x-y").groebner()
    assert sorted(str(g) for g in gb.basis) == ["x", "y"]


def test_gb_zero_ideal():
    gb = ideal(R2()).groebner()
    assert gb.basis == ()


def test_gb_canonical_under_permutation():
    R = R3()
    gens = ["x^2 - y", "x*y - z", "y^2 - x*z"]
    reference = IdealGens(R, [P(R, g) for g in gens]).groebner().basis
    for perm in permutations(gens):
        gb = IdealGens(R, [P(R, g) for g in perm]).groebner().basis
        assert gb == reference


def test_gb_textbook_example():
    # twisted cubic: y - x^2, z - x^3 in lex gives the classical basis
    R = R3(order="lex")
    gb = ideal(R, "y - x^2", "z - x^3").groebner()
    assert all(gb.normal_form(P(R, s)).is_zero
               for s in ["y^3 - z^2", "x*z - y^2", "x*y - z"])


def test_normal_form_examples():
    R = R2()
    gb = ideal(R, "x").groebner()
    assert gb.normal_form(P(R, "x^2")).is_zero
    assert gb.normal_form(P(R, "y")) == P(R, "y")
    gb2 = ideal(R, "x - y").groebner()
    assert gb2.normal_form(P(R, "x^2 - y^2")).is_zero


def test_normal_form_exact_over_q():
    # the fraction-free reduction divides its scale out once: x^2/5 is
    # (1/5)(2y/3)^2 modulo 3x - 2y
    R = R2()
    gb = ideal(R, "3*x - 2*y").groebner()
    assert [str(g) for g in gb.basis] == ["x - 2/3*y"]
    nf = gb.normal_form(P(R, "1/5*x^2"))
    assert nf.terms == {(0, 2): Fraction(4, 45)}
    assert all(type(c) is Fraction for c in nf.terms.values())
    assert gb.normal_form(P(R, "1/5*y^2")) == P(R, "1/5*y^2")


def test_irreducible_normal_forms_are_the_callers_polys():
    # a vector that no lead divides comes back as the caller's own polys,
    # not rebuilt from its packed form
    for field in (QQ, CoefField(32003)):
        R = PolyRing(field, ["x", "y"])
        G = ideal(R, "x^2 - y", "y^3").groebner()
        f = P(R, "1/3*x*y^2 + 1/2*x + 5")
        assert G.normal_form(f) is f
        M = ModuleBasis(R, 2, [[P(R, "x^2"), P(R, "y")]])
        v = [P(R, "2/7*x*y + 1"), P(R, "y^2 - 1/3")]
        nf = M.normal_form(v)
        assert len(nf) == 2 and all(a is b for a, b in zip(nf, v))
        reduced = M.normal_form([P(R, "x^3"), R.zero()])
        assert reduced == [R.zero(), P(R, "-x*y")]


def test_nf_idempotent_and_membership_lift():
    rng = random.Random(3)
    R = R2()

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.randint(0, 2), rng.randint(0, 2))] = rng.randint(-3, 3)
        from ffr.ring import Poly
        return Poly(R, {m: QQ.coerce(c) for m, c in terms.items()})

    for _ in range(100):
        I = IdealGens(R, [rand_poly(), rand_poly()])
        gb = I.groebner()
        f = rand_poly()
        nf = gb.normal_form(f)
        assert gb.normal_form(nf) == nf
        member = nf.is_zero
        lift, = module_membership([[f]], [[g] for g in I.gens])
        assert (lift is not None) == member


# ---------------------------------------------------------------------------
# colon / saturation / intersection

def test_colon_monomial():
    R = R2()
    got = ideal_colon(ideal(R, "x^3"), ideal(R, "x"))
    assert ideal_equal(got, ideal(R, "x^2"))


def test_colon_wiebe_instance():
    R = R2()
    got = ideal_colon(ideal(R, "x^2", "y^2"), ideal(R, "x*y"))
    assert ideal_equal(got, ideal(R, "x", "y"))


def test_colon_by_unit():
    R = R2()
    I = ideal(R, "x^2 - y")
    assert ideal_equal(ideal_colon(I, ideal(R, "1")), I)


@pytest.mark.parametrize("by", [(), ("0",)])
def test_colon_by_zero_is_unit(by):
    # (I : 0) = (1), whether the zero ideal is given by 0 or by no generator
    R = R2()
    colon = ideal_colon(ideal(R, "x^2 - y"), ideal(R, *by))
    assert colon.groebner().is_unit_ideal()


def test_colon_dense_trinomials():
    # Dense quadric-to-sextic inputs over F_32003; the basis below equals
    # the elimination colon's (I : f).
    R = PolyRing(CoefField(32003), ["x", "y", "z"], "grevlex")
    I = ideal(R, "32002*x^2 + 2*y^2", "2*y^2 + z^2 + 2*z",
              "32001*x^2*y^2*z^2 + 2*x^2*y^2 + 32001*x*y")
    f = P(R, "x*y^2*z + 32001*x^2*z^2 + 32001*z")
    got = ideal_colon(I, IdealGens(R, [f])).groebner().basis
    assert [str(g) for g in got] == [
        "x*z^5 + 4*x*z^4 + 3*x*z^3 + 31999*x*z^2 + 31999*x*z + 32001*y*z"
        " + 31999*y",
        "y*z^5 + 4*y*z^4 + 3*y*z^3 + 31999*y*z^2 + 32002*x*z + 31999*y*z"
        " + 32001*x",
        "z^6 + 4*z^5 + 3*z^4 + 31999*z^3 + 2*x*y + 31999*z^2",
        "x^2 + z^2 + 2*z",
        "y^2 + 16002*z^2 + z",
    ]
    gbI = I.groebner()
    assert all(gbI.contains(f * g) for g in got)


def test_colon_duality_random():
    rng = random.Random(5)
    R = R2()
    mono = lambda: P(R, f"x^{rng.randint(0, 2)}*y^{rng.randint(0, 2)}")
    for _ in range(20):
        I = IdealGens(R, [mono(), mono()])
        J = IdealGens(R, [mono()])
        Q = ideal_colon(I, J)
        gbQ = Q.groebner()
        for g in I.gens:
            assert gbQ.contains(g)  # I subseteq (I : J)
        gbI = I.groebner()
        for q in Q.gens:
            for j in J.gens:
                assert gbI.contains(q * j)  # (I : J) J subseteq I


def test_saturation_examples():
    R = R2()
    assert ideal_equal(saturation(ideal(R, "x*y"), P(R, "y")), ideal(R, "x"))
    assert ideal_equal(saturation(ideal(R, "x"), P(R, "y")), ideal(R, "x"))
    got = saturation(ideal(R, "x^2*y", "x*y^2"), P(R, "x*y"))
    assert got.groebner().is_unit_ideal()
    # (I : 0^inf) = (1)
    assert saturation(ideal(R, "x*y"), R.zero()).groebner().is_unit_ideal()


def test_saturation_matches_iteration():
    R = R3()
    cases = [ideal(R, "x^2*y", "y^2*z"), ideal(R, "x^3"), ideal(R, "x*y - z^2")]
    fs = [P(R, "x"), P(R, "x*y"), P(R, "z")]
    for I, f in zip(cases, fs):
        assert ideal_equal(saturation(I, f), saturation_by_iteration(I, f))


def test_saturation_rechecks_its_result(monkeypatch):
    import ffr.groebner as gb
    R = R2()
    colon = gb.ideal_colon

    def stray(I, J):  # a colon step that also adds y
        return IdealGens(R, list(colon(I, J).gens) + [P(R, "y")])

    monkeypatch.setattr(gb, "ideal_colon", stray)
    with pytest.raises(VerificationError):
        saturation(ideal(R, "x^2*y^2"), P(R, "x"))


def test_saturation_carries_its_basis(monkeypatch):
    # the chain's last run is the result's basis: asking for it runs no
    # further Buchberger
    import ffr.groebner as gb
    R = R3()
    S = saturation(ideal(R, "x^2*y^2", "x*y*z - y*z^2"), P(R, "y"))

    def no_run(*args):
        raise AssertionError("Buchberger ran again")

    monkeypatch.setattr(gb, "_buchberger_vecs", no_run)
    G = S.groebner()
    assert G.basis == S.gens
    assert [str(g) for g in G.basis] == ["z^3", "x^2", "x*z - z^2"]


def test_intersection_principal():
    R = R2()
    got = ideal_intersection(ideal(R, "x"), ideal(R, "y"))
    assert ideal_equal(got, ideal(R, "x*y"))


def test_exact_div():
    R = R2()
    f = P(R, "x + y")
    g = P(R, "x^2 - y^2")
    assert exact_div(g, f) == P(R, "x - y")
    with pytest.raises(ValueError):
        exact_div(P(R, "x^2 + 1"), f)


# ---------------------------------------------------------------------------
# radical membership / dimension

def test_radical_membership():
    R = R2()
    assert radical_membership(P(R, "x"), ideal(R, "x^2"))
    assert not radical_membership(P(R, "y"), ideal(R, "x^2"))
    assert radical_membership(P(R, "x*y"), ideal(R, "x^2*y^3"))


def test_krull_dimension_examples():
    R = R2()
    assert krull_dimension(ideal(R, "1")) == -1
    assert krull_dimension(ideal(R)) == 2
    assert krull_dimension(ideal(R, "x*y")) == 1
    assert krull_dimension(ideal(R, "x", "y")) == 0
    R3_ = R3()
    assert krull_dimension(ideal(R3_, "x*y", "x*z")) == 2


def test_krull_dimension_vs_brute_force():
    # independent-variable-set enumeration straight from the definition
    R = R3()
    cases = [ideal(R, "x*y", "y*z"), ideal(R, "x^2", "y^3"),
             ideal(R, "x*y*z"), ideal(R, "x - y")]
    from itertools import combinations
    for I in cases:
        gb = I.groebner()
        lms = [g.lm() for g in gb.basis]
        best = -1 if gb.is_unit_ideal() else 0
        if not gb.is_unit_ideal():
            for k in range(0, 4):
                for S in combinations(range(3), k):
                    if not any(set(i for i, e in enumerate(m) if e) <= set(S)
                               for m in lms):
                        best = max(best, k)
        assert krull_dimension(I) == best


def test_krull_dimension_equals_initial_ideal_dimension():
    R = R3()
    from ffr.ring import Poly
    for gens in [["x^2 - y*z", "x*y - z"], ["x + y + z", "x*y"],
                 ["x^2*y - z^2", "y^2 - x"]]:
        I = ideal(R, *gens)
        lms = [Poly(R, {g.lm(): QQ.one()}) for g in I.groebner().basis]
        assert krull_dimension(I) == krull_dimension(IdealGens(R, lms))


# ---------------------------------------------------------------------------
# modules

def test_syzygy_koszul():
    R = R2()
    syz = syzygy_module([[P(R, "x")], [P(R, "y")]])
    assert len(syz) == 1
    a, b = syz[0]
    # (y, -x) up to sign/scale
    assert a * P(R, "x") + b * P(R, "y") == R.zero()
    assert not a.is_zero


def test_syzygy_single_regular_element():
    R = R2()
    assert syzygy_module([[P(R, "x")]]) == []


def test_syzygy_monomials_closed_form():
    # pairwise generators m_ij e_i - m_ji e_j span the syzygies of monomials
    R = R3()
    monos = ["x^2*y", "x*y^3", "x", "y*z"]
    vs = [[P(R, m)] for m in monos]
    syz = syzygy_module(vs)
    for s in syz:
        acc = R.zero()
        for c, v in zip(s, vs):
            acc = acc + c * v[0]
        assert acc.is_zero
    # closed form generators are members of the computed syzygy module
    from ffr.ring import mono_gcd, mono_div, Poly
    polys = [P(R, m) for m in monos]
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            mi, mj = polys[i].lm(), polys[j].lm()
            g = mono_gcd(mi, mj)
            mij = Poly(R, {mono_div(mj, g): QQ.one()})
            mji = Poly(R, {mono_div(mi, g): QQ.one()})
            vec = [R.zero()] * len(polys)
            vec[i] = mij
            vec[j] = -mji
            assert module_membership([vec], syz)[0] is not None
    # and conversely every computed syzygy lies in their span
    closed = []
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            mi, mj = polys[i].lm(), polys[j].lm()
            g = mono_gcd(mi, mj)
            vec = [R.zero()] * len(polys)
            vec[i] = Poly(R, {mono_div(mj, g): QQ.one()})
            vec[j] = -Poly(R, {mono_div(mi, g): QQ.one()})
            closed.append(vec)
    for s in syz:
        assert module_membership([s], closed)[0] is not None


def test_module_membership_examples():
    R = R2()
    gens = [[P(R, "x"), R.zero()], [R.zero(), P(R, "y")]]
    lift, = module_membership([[P(R, "x^2"), R.zero()]], gens)
    assert lift == [P(R, "x"), R.zero()]
    assert module_membership([[R.one(), R.zero()]], gens) == [None]
    assert module_membership([[R.zero(), R.zero()]], gens) == [
        [R.zero(), R.zero()]]


def test_list_lift_empty_cases_and_rank_check():
    R = R2()
    x = P(R, "x")
    assert module_membership([], [[x]]) == []
    assert module_membership([], []) == []
    # no generators: only zero vectors lift, with the empty lift
    assert module_membership([[R.zero()], [x]], []) == [[], None]
    with pytest.raises(RingMismatchError):
        module_membership([[x], [x, R.zero()]], [[x]])


def test_list_lift_widens_the_shared_table_partway(monkeypatch):
    # the second vector has degree 41, past the packed fields of the tagged
    # basis, so its normal form widens the shared table in the middle of
    # the list; every lift is still the lift of a one-element list
    R = R3()
    gens = [[P(R, "x"), P(R, "y")], [P(R, "y"), P(R, "z")]]
    vectors = [[P(R, "x^2 + y^2"), P(R, "x*y + y*z")],
               [P(R, "x^40*y"), P(R, "x^40*z")],
               [R.one(), R.zero()],
               [R.zero(), R.zero()],
               [P(R, "x*y"), P(R, "y^2")]]
    widened = []
    widen = _Reducers.widen

    def counting(self):
        widened.append(self.pack.w)
        widen(self)

    monkeypatch.setattr(_Reducers, "widen", counting)
    lifts = module_membership(vectors, gens)
    assert widened
    assert lifts == [[P(R, "x"), P(R, "y")], [R.zero(), P(R, "x^40")], None,
                     [R.zero(), R.zero()], [P(R, "y"), R.zero()]]
    assert lifts == [module_membership([v], gens)[0] for v in vectors]


def test_module_normal_form_checks_rank_and_ring():
    R, S = R2(), R3()
    M = ModuleBasis(R, 2, [[P(R, "x"), P(R, "y")]])
    for v in ([P(S, "x*z"), P(S, "y*z")],  # z would be dropped unread
              [P(R, "x^2")],  # would be read as (x^2, 0)
              [P(R, "x"), P(R, "y"), P(R, "1")]):
        with pytest.raises(RingMismatchError):
            M.normal_form(v)
        with pytest.raises(RingMismatchError):
            M.contains(v)
    assert M.contains([P(R, "x^2"), P(R, "x*y")])


def test_module_gb_rank_and_ring_must_agree():
    R, S = R2(), R3()
    vectors = [[P(R, "x"), P(R, "y")]]
    for rank, ring in ((3, S), (2, S), (3, R)):
        with pytest.raises(RingMismatchError):
            ModuleBasis(ring, rank, vectors)
    M = ModuleBasis(R, 2, vectors)
    assert (M.rank, M.ring) == (2, R)
    assert ModuleBasis(S, 3, []).rank == 3


def test_module_basis_checks_its_generators():
    R, S = R2(), R3()
    for rank, vectors in ((2, [[P(S, "x*z"), P(S, "y")]]),  # z would be dropped
                          (1, [[P(R, "x"), P(R, "y")]])):  # y would be dropped
        with pytest.raises(RingMismatchError):
            ModuleBasis(R, rank, vectors)
    assert ModuleBasis(R, 2, [[P(R, "x"), P(R, "y")]]).vectors == (
        (P(R, "x"), P(R, "y")),)


def test_syzygy_soundness_random():
    rng = random.Random(12)
    R = R2()
    from ffr.ring import Poly
    for _ in range(10):
        vs = []
        for _ in range(3):
            p = Poly(R, {(rng.randint(0, 2), rng.randint(0, 2)):
                         QQ.coerce(rng.randint(-2, 2)) for _ in range(2)})
            vs.append([p])
        syz = syzygy_module(vs)
        for s in syz:
            acc = R.zero()
            for c, v in zip(s, vs):
                acc = acc + c * v[0]
            assert acc.is_zero


def test_module_basis_decodes_only_what_is_read(monkeypatch):
    # a basis is its reducer table: building one decodes no element, and
    # syzygy_module decodes only the tag-block elements it returns, not
    # the basis of the span of the v_i that the same tagged run holds
    decoded = []
    polys = _Pack.polys
    monkeypatch.setattr(_Pack, "polys", lambda pack, v, d: (
        decoded.append(v) or polys(pack, v, d)))
    R = R2()
    vs = [[P(R, "x")], [P(R, "y")], [P(R, "x*y + x")]]
    ModuleBasis(R, 1, vs)
    ModuleBasis(R, 2, [[P(R, "x"), P(R, "y")], [P(R, "y"), P(R, "x")]])
    assert decoded == []
    syz = syzygy_module(vs)
    assert len(syz) == len(decoded) == 2
    for s in syz:
        assert R.dot(s, [v[0] for v in vs]).is_zero


def test_membership_lift_f7_grlex_refusal():
    # the ideal is (x + 2, y + 6, z + 5) and f(-2, -6, -5) = 1 in F_7, so
    # no lift exists; the tagged run took over 30 s before sugar selection
    R = PolyRing(CoefField(7), ["x", "y", "z"], "grlex")
    gens = [[P(R, g)] for g in ("3*y^2*z^2 + 6*x*y", "x^2*y^2 + 3",
                                "2*x^2*y^2*z^2 + x^2 + 3*y*z",
                                "2*x^2*y*z + 6*y^2*z")]
    assert [str(v[0]) for v in ModuleBasis(R, 1, gens).vectors] == [
        "x + 2", "y + 6", "z + 5"]
    f = P(R, "x*y^5*z^5 + 5*x*y^5*z^4 + x^3*y^2*z^4 + 2*x^2*y^4*z^3"
             " + 3*x^2*y^4*z^2 + 2*x^4*y*z^2 + 1")
    assert module_membership([[f]], gens) == [None]


@pytest.mark.parametrize("field", [CoefField(32003), QQ], ids=["Fp", "Q"])
def test_syzygies_lex_rank2(field):
    # three vectors of R^2 in lex: about 22 s over F_32003 before sugar
    # selection, 0.6 s (F_32003) and 1.7 s (Q) with it; each syzygy is
    # checked by substitution, and the grevlex syzygies lie in the lex
    # syzygy module
    bases = []
    for order in ("lex", "grevlex"):
        R = PolyRing(field, ["x", "y", "z"], order)
        vs = [[P(R, "2*x*z - z"), P(R, "x^2*y^2 + 2*z")],
              [P(R, "x^2*y^2 + 2*x^2"), P(R, "x^2*y*z - x*z^2")],
              [P(R, "-x^2*y*z + 1/5*x*y*z"),
               P(R, "7*x^2*y*z^2 + 1/5*x^2*y*z")]]
        syz = syzygy_module(vs)
        assert syz
        for c in syz:
            for j in range(2):
                assert R.dot(c, [v[j] for v in vs]).is_zero
        bases.append((R, syz))
    (L, lex), (_, grevlex) = bases
    M = ModuleBasis(L, 3, lex)
    assert all(M.contains([P(L, str(p)) for p in c]) for c in grevlex)


def test_module_gb_lex_fp():
    # W + a R^2 in F_32003[x,y,z] lex: over 30 s before sugar selection,
    # about 1 s with it; the lex and grevlex bases span the same module
    spans = []
    for order in ("lex", "grevlex"):
        R = PolyRing(CoefField(32003), ["x", "y", "z"], order)
        a, zero = P(R, "-2*x^2*z^2 - 2*x*y^2*z^2 + 3*y^2*z^2"), R.zero()
        gens = [[P(R, "x*y + 3*y*z^2 + 2*z^2"), P(R, "-y^2*z")],
                [P(R, "-2*x*z^2 + 2*y^2 - 2"),
                 P(R, "-3*x^2*y*z^2 + 3*x*z + 2")], [a, zero], [zero, a]]
        spans.append((R, gens, ModuleBasis(R, 2, gens)))
    (L, gens, lex), (G, _, grevlex) = spans
    assert all(lex.contains(g) for g in gens)
    assert all(grevlex.contains([P(G, str(p)) for p in v])
               for v in lex.vectors)


def test_coprime_leading_monomials_family():
    # unit-leading polynomials with pairwise coprime leading monomials:
    # they already form a Groebner basis, their syzygies are generated by
    # the f_i e_j - f_j e_i, and the sequence is regular
    import random as _random
    from ffr.algebra import AModule, FPAlgebra
    from ffr.depth import is_E_regular_sequence

    rng = _random.Random(19)
    R = R3()
    lead_pools = [["x^2", "x^3"], ["y^2", "y^3"], ["z^2", "z^3"]]
    tail_monos = ["x*y", "y*z", "x*z", "x", "y", "z", "1"]
    for _ in range(6):
        fs = []
        for pool in lead_pools[:rng.randint(2, 3)]:
            lead = P(R, rng.choice(pool))
            tail = R.zero()
            for _ in range(rng.randint(0, 2)):
                cand = P(R, rng.choice(tail_monos)) * rng.randint(-2, 2)
                if R.mono_key(cand.lm()) < R.mono_key(lead.lm()) \
                        if not cand.is_zero else True:
                    tail = tail + cand
            fs.append(lead + tail)
        leads = [f.lm() for f in fs]
        if any(any(min(a, b) for a, b in zip(leads[i], leads[j]))
               for i in range(len(fs)) for j in range(i + 1, len(fs))):
            continue  # sampled tails broke coprimality; skip
        # the list is already a Groebner basis
        gb = IdealGens(R, fs).groebner()
        assert sorted(map(str, gb.basis)) == sorted(str(f.monic()) for f in fs)
        # Koszul-style generators span the syzygies
        syz = syzygy_module([[f] for f in fs])
        koszul = []
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                vec = [R.zero()] * len(fs)
                vec[i] = fs[j]
                vec[j] = -fs[i]
                koszul.append(vec)
        for s in syz:
            assert module_membership([s], koszul)[0] is not None
        # and the sequence is regular
        A = FPAlgebra.polynomial(R)
        assert is_E_regular_sequence(fs, AModule.free(A, 1)).holds


def test_gb_over_prime_field():
    R = PolyRing(CoefField(7), ["x", "y"])
    gb = IdealGens(R, [parse_poly("x^2 + y", R),
                       parse_poly("x*y + 3", R)]).groebner()
    # the reduced grevlex basis; sympy's groebner(..., modulus=7,
    # order='grevlex') gives the same, writing y**2 - 3*x
    assert gb.basis == tuple(parse_poly(s, R) for s in
                             ("x^2 + y", "x*y + 3", "y^2 + 4*x"))
    f = parse_poly("x^3 + x^2*y + x*y^2 + x*y + 3*x + 3*y", R)
    # f = x*(x^2+y) + (x+y)*(x*y+3) is a member
    assert gb.normal_form(f).is_zero


def test_cyclic6_over_both_fields():
    # cyclic-6: 45 basis elements over Q and over F_32003, every input
    # reduces to 0, and the two fields give the same leading monomials
    # (a Q-against-F_p differential check); about 0.2 s per field with
    # sugar selection, 9 s over Q without it
    names = [f"x{i}" for i in range(6)]
    gens = ["+".join("*".join(names[(i + j) % 6] for j in range(k))
                     for i in range(6)) for k in range(1, 6)]
    gens.append("*".join(names) + "-1")
    leads = []
    for field in (QQ, CoefField(32003)):
        R = PolyRing(field, names)
        gb = ideal(R, *gens).groebner()
        assert len(gb.basis) == 45
        assert all(gb.contains(P(R, g)) for g in gens)
        leads.append([g.lm() for g in gb.basis])
    assert leads[0] == leads[1]


def test_gb_matches_independent_oracle():
    # cross-validate the reduced bases against sympy's groebner, over Q and
    # F_32003 in grevlex, lex and grlex; sympy prints F_p coefficients as
    # symmetric residues, so both sides are compared monic with residues
    # taken mod p.  Integer inputs first, then rational ones and inputs
    # with a common integer content, which the engine clears and strips.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    syms = sympy.symbols("x y z")

    def monic(terms, lc, p):
        if p:
            inv = pow(int(lc) % p, p - 2, p)
            return sorted((m, int(c) * inv % p) for m, c in terms)
        return sorted((m, Fraction(str(c)) / Fraction(str(lc)))
                      for m, c in terms)

    def draw(R, coeff, content=1):
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                m = tuple(rng.randint(0, 2) for _ in range(3))
                terms[m] = R.field.coerce(coeff() * content)
            gens.append(Poly(R, terms))
        return [g for g in gens if not g.is_zero]

    def check(R, gens):
        p = R.field.p
        mine = IdealGens(R, gens).groebner().basis
        sym_in = [sympy.sympify(str(g).replace("^", "**")) for g in gens]
        opts = {"modulus": p} if p else {}
        oracle = sympy.groebner(sym_in, *syms, order=R.order, **opts)
        oracle_basis = sorted(monic(q.terms(), q.LC(order=R.order), p)
                              for q in oracle.polys)
        mine_basis = sorted(monic(g.terms.items(), g.lt()[1], p)
                            for g in mine)
        assert mine_basis == oracle_basis, (R, gens)

    rings = [PolyRing(field, ["x", "y", "z"], order)
             for field in (QQ, CoefField(32003))
             for order in ("grevlex", "lex", "grlex")]
    for R in rings:
        for _ in range(12):
            gens = draw(R, lambda: rng.randint(-3, 3))
            if gens:
                check(R, gens)
    for R in rings:
        for _ in range(12):
            gens = draw(R, lambda: Fraction(rng.randint(-3, 3),
                                            rng.randint(1, 4)))
            gens += draw(R, lambda: rng.randint(-3, 3),
                         rng.choice([6, 12, 35]))
            if gens:
                check(R, gens)


def test_product_of_ideals():
    R = R2()
    IJ = ideal_product(ideal(R, "x", "y"), ideal(R, "x"))
    assert ideal_equal(IJ, ideal(R, "x^2", "x*y"))


# ---------------------------------------------------------------------------
# the reduced-basis certificate, checked on the table a basis keeps

def _random_poly(rng, R, terms=3, degree=2):
    field = R.field
    out = {}
    for _ in range(rng.randint(1, terms)):
        m = tuple(rng.randint(0, degree) for _ in range(R.n))
        out[m] = field.coerce(rng.randint(-3, 3))
    return Poly(R, out)


def _lead(vector):
    """(position, leading monomial) of a vector in the POT order."""
    pos = next(i for i, p in enumerate(vector) if not p.is_zero)
    return pos, vector[pos].lm()


def _check_reduced(R, rank, vectors, table, generators, normal_form):
    """The reduced-basis certificate of `vectors` (the basis kept by a
    GroebnerBasis or ModuleBasis) and of its reducer table."""
    one = R.field.one()
    assert vectors == tuple(tuple(table.pack.polys(v, a))
                            for _, v, a in table.entries)
    leads = [_lead(v) for v in vectors]
    assert leads == [table.pack.dec(e[0]) for e in table.entries]
    # monic, and no term divisible by another element's lead
    for k, v in enumerate(vectors):
        pos, mono = leads[k]
        assert v[pos].terms[mono] == one
        for j, (lpos, lmono) in enumerate(leads):
            if j != k:
                assert not any(mono_divides(lmono, m) for m in v[lpos].terms)
    # leads strictly descend in the POT order
    keys = [(-pos, R.mono_key(mono)) for pos, mono in leads]
    assert all(a > b for a, b in zip(keys, keys[1:]))
    # every generator and every same-position S-pair reduces to 0
    zero = [R.zero()] * rank
    for g in generators:
        assert normal_form(list(g)) == zero
    for i, j in combinations(range(len(vectors)), 2):
        (pi, mi), (pj, mj) = leads[i], leads[j]
        if pi != pj:
            continue
        lcm = mono_lcm(mi, mj)
        ui = Poly(R, {mono_div(lcm, mi): one})
        uj = Poly(R, {mono_div(lcm, mj): one})
        s = [ui * a - uj * b for a, b in zip(vectors[i], vectors[j])]
        assert normal_form(s) == zero


def _certificate_rings():
    for field in (QQ, CoefField(32003)):
        for order in ("grevlex", "lex", "grlex"):
            R = PolyRing(field, ["x", "y", "z"], order)
            yield R
            yield R.extend_append(R.fresh_names(1, "t"))


def test_reduced_basis_certificate_ideals():
    rng = random.Random(41)
    for R in _certificate_rings():
        for _ in range(4):
            gens = [_random_poly(rng, R) for _ in range(rng.randint(1, 4))]
            I = IdealGens(R, gens)
            G = I.groebner()
            _check_reduced(R, 1, tuple((g,) for g in G.basis), G._red,
                           [(g,) for g in I.gens],
                           lambda v: [G.normal_form(v[0])])


def test_reduced_basis_certificate_modules():
    rng = random.Random(43)
    for R in _certificate_rings():
        for _ in range(3):
            vectors = [[_random_poly(rng, R, terms=2) for _ in range(2)]
                       for _ in range(rng.randint(1, 3))]
            M = ModuleBasis(R, 2, vectors)
            _check_reduced(R, 2, M.vectors, M._red, vectors, M.normal_form)
            T = _tagged_basis(vectors, 2, R)
            tagged = [list(v) + [R.one() if j == i else R.zero()
                                 for j in range(len(vectors))]
                      for i, v in enumerate(vectors)]
            _check_reduced(R, T.rank, T.vectors, T._red, tagged,
                           T.normal_form)


def test_packed_terms_are_the_pot_order():
    # the packed int of a term sorts exactly as the term in the POT order,
    # a product is a sum, the guard-bit test is divisibility, and decoding
    # inverts encoding; for every order, ranks 1-3 and no variables at all
    rng = random.Random(47)
    rings = list(_certificate_rings()) + [PolyRing(QQ, [])]
    for R in rings:
        for rank in (1, 2, 3):
            pack = _Pack(R, rank, 6)
            monos = [tuple(rng.randint(0, 3) for _ in range(R.n))
                     for _ in range(20)]
            terms = list({(rng.randrange(rank), m) for m in monos})
            descending = sorted(terms, key=lambda t: (-t[0], R.mono_key(t[1])),
                                reverse=True)
            assert sorted(terms, key=lambda t: pack.enc(*t),
                          reverse=True) == descending
            for pos, a in terms:
                t = pack.enc(pos, a)
                assert pack.dec(t) == (pos, a)
                red = _Reducers(pack)
                red.add({t: 1})
                for b in monos:
                    got = red.find(pack.enc(pos, b)) is not None
                    assert got == mono_divides(a, b)
                    # the last position's field is 0: b bare
                    assert (t + pack.enc(rank - 1, b)
                            == pack.enc(pos, mono_mul(a, b)))


def test_packed_degree_is_the_total_degree():
    # `_Pack.deg` reads the top field for grevlex and grlex and sums the
    # exponents for lex; one variable, no variables and every position
    # included
    rng = random.Random(53)
    rings = list(_certificate_rings()) + [
        PolyRing(QQ, ["x"], order) for order in ("grevlex", "lex", "grlex")
    ] + [PolyRing(QQ, [], order) for order in ("grevlex", "lex", "grlex")]
    for R in rings:
        for rank in (1, 3):
            pack = _Pack(R, rank, 6)
            for _ in range(20):
                m = tuple(rng.randint(0, 7) for _ in range(R.n))
                assert pack.deg(pack.enc(rng.randrange(rank), m)) == sum(m)


def test_overflow_restarts_and_widens(monkeypatch):
    # every input fits 6-bit fields, but each basis below needs wider ones
    # from a term that overflows them
    widths = []
    of = _Pack.of  # every packing is made through it
    monkeypatch.setattr(_Pack, "of", lambda ring, rank, w: (
        widths.append(w), of(ring, rank, w))[1])
    R = PolyRing(QQ, ["x", "y", "z", "w"], "lex")
    # here in an S-polynomial: z^12 (x*y - z^20) - y (x*z^12 - 1)
    pack = _Pack(R, 1, 6)
    red = _Reducers(pack)
    e1, e2 = (red.add({pack.enc(0, m): int(c)
                       for m, c in P(R, s).terms.items()})
              for s in ("x*y - z^20", "x*z^12 - 1"))
    with pytest.raises(_Overflow):
        _spair(e1, e2, pack.enc(0, (1, 1, 12, 0)), 0, pack.G)
    G = ideal(R, "x*y - z^20", "x*z^12 - 1").groebner()
    assert [str(g) for g in G.basis] == ["x*z^12 - 1", "y - z^32"]
    assert len(set(widths)) > 1  # a run overflowed and restarted wider
    # here in a normal form, reducing y^4 to w^64
    widths.clear()
    G = ideal(R, "x - y^4", "y - z^4", "z - w^4").groebner()
    assert [str(g) for g in G.basis] == ["x - w^64", "y - w^16", "z - w^4"]
    assert len(set(widths)) > 1
    # w^2048 does not fit the finished table: the first normal form widens
    # it, the second finds it wide enough
    tried, w = len(widths), G._red.pack.w
    for _ in range(2):
        assert str(G.normal_form(P(R, "x^32"))) == "w^2048"
        assert G._red.pack.w == 2 * w and len(widths) == tried + 1
