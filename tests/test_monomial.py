import json
import random
import time

import pytest

from ffr import monomial
from ffr.cli import run
from ffr.complexes import certify_exact
from ffr.exterior import MultiVector, subsets_colex
from ffr.groebner import module_membership, syzygy_module
from ffr.monomial import (MonomialList, homotopy_identity_check,
                          is_taylor_minimal, monomial_syzygies,
                          taylor_complex, taylor_homotopy)
from ffr.ring import PolyRing, QQ, parse_poly


def mlist(vars, *monos):
    R = PolyRing(QQ, vars)
    return MonomialList.parse(R, list(monos))


WORKED_EXAMPLE = ("x^2*y", "x*y^3", "x*z", "y*z")


def test_monomial_list_parse_rejects_non_monomials():
    R = PolyRing(QQ, ["x", "y"])
    with pytest.raises(ValueError):
        MonomialList.parse(R, ["x + y"])
    with pytest.raises(ValueError):
        MonomialList.parse(R, ["2*x"])


# ---------------------------------------------------------------------------
# monomial syzygies

def test_monomial_syzygies_pair():
    m = mlist(["x", "y"], "x", "y")
    (syz,) = monomial_syzygies(m)
    assert [str(p) for p in syz] == ["y", "-x"]


def test_monomial_syzygies_with_common_factor():
    m = mlist(["x", "y"], "x^2", "x*y")
    (syz,) = monomial_syzygies(m)
    assert [str(p) for p in syz] == ["y", "-x"]


def test_monomial_syzygies_single():
    m = mlist(["x"], "x^3")
    assert monomial_syzygies(m) == []


def test_monomial_syzygies_generate():
    rng = random.Random(79)
    R = PolyRing(QQ, ["x", "y", "z"])
    for _ in range(30):
        r = rng.randint(2, 5)
        monos = []
        for _ in range(r):
            e = tuple(rng.randint(0, 2) for _ in range(3))
            monos.append(e)
        m = MonomialList(R, tuple(monos))
        vs = [[m.poly(i)] for i in range(1, r + 1)]
        computed = syzygy_module(vs)
        closed = monomial_syzygies(m)
        for s in closed:
            acc = R.zero()
            for c, v in zip(s, vs):
                acc = acc + c * v[0]
            assert acc.is_zero
            assert module_membership([s], computed)[0] is not None
        for s in computed:
            assert module_membership([s], closed)[0] is not None


# ---------------------------------------------------------------------------
# the Taylor complex

def test_taylor_single_monomial():
    m = mlist(["x"], "x^2")
    T = taylor_complex(m)
    assert T.complex.sizes == (1, 1)
    assert str(T.complex.matrix(1).entries[0][0]) == "x^2"


def test_taylor_pairwise_coprime_is_koszul():
    from ffr.complexes import koszul_complex
    m = mlist(["x", "y", "z"], "x", "y", "z")
    T = taylor_complex(m)
    A = T.complex.algebra
    K = koszul_complex(A, [A.parse(s) for s in ("x", "y", "z")])
    for k in range(1, 4):
        assert T.complex.matrix(k) == K.matrix(k)


def test_taylor_differentials_of_worked_example():
    # the reference d_1..d_4 of the worked example, read column by column
    m = mlist(["x", "y", "z"], *WORKED_EXAMPLE)
    T = taylor_complex(m)
    R = m.ring
    P = lambda s: parse_poly(s, R)  # noqa: E731

    d1 = T.complex.matrix(1)
    assert [d1.entries[0][j] for j in range(4)] == \
        [P("x^2*y"), P("x*y^3"), P("x*z"), P("y*z")]

    expected_d2 = {
        (1, 2): {1: "-y^2", 2: "x"},
        (1, 3): {1: "-z", 3: "x*y"},
        (1, 4): {1: "-z", 4: "x^2"},
        (2, 3): {2: "-z", 3: "y^3"},
        (2, 4): {2: "-z", 4: "x*y^2"},
        (3, 4): {3: "-y", 4: "x"},
    }
    cols2 = subsets_colex(4, 2)
    rows1 = subsets_colex(4, 1)
    d2 = T.complex.matrix(2)
    for cj, J in enumerate(cols2):
        want = expected_d2[J]
        for ri, (i,) in enumerate(rows1):
            entry = d2.entries[ri][cj]
            assert entry == (P(want[i]) if i in want else R.zero())

    expected_d3 = {
        (1, 2, 3): {(1, 2): "z", (1, 3): "-y^2", (2, 3): "x"},
        (1, 2, 4): {(1, 2): "z", (1, 4): "-y^2", (2, 4): "x"},
        (1, 3, 4): {(1, 3): "1", (1, 4): "-1", (3, 4): "x"},
        (2, 3, 4): {(2, 3): "1", (2, 4): "-1", (3, 4): "y^2"},
    }
    cols3 = subsets_colex(4, 3)
    d3 = T.complex.matrix(3)
    for cj, J in enumerate(cols3):
        want = expected_d3[J]
        for ri, K in enumerate(cols2):
            entry = d3.entries[ri][cj]
            assert entry == (P(want[K]) if K in want else R.zero())

    d4 = T.complex.matrix(4)
    expected_d4 = {(1, 2, 3): "-1", (1, 2, 4): "1", (1, 3, 4): "-y^2",
                   (2, 3, 4): "x"}
    for ri, K in enumerate(cols3):
        assert d4.entries[ri][0] == P(expected_d4[K])


def test_taylor_differential_on_elements():
    # d on sums of basis elements of the worked example, d.d = 0, and grades
    m = mlist(["x", "y", "z"], *WORKED_EXAMPLE)
    T = taylor_complex(m)
    P = lambda s: parse_poly(s, m.ring)  # noqa: E731
    L = lambda k, d: MultiVector.from_dict(m.algebra, 4, k, d)  # noqa: E731
    got = T.differential(L(2, {(1, 2): P("x"), (3, 4): P("1")}))
    assert got == L(1, {(1,): P("-x*y^2"), (2,): P("x^2"), (3,): P("-y"),
                        (4,): P("x")})
    d3 = T.differential(L(3, {(1, 3, 4): P("1")}))
    assert d3 == L(2, {(1, 3): P("1"), (1, 4): P("-1"), (3, 4): P("x")})
    assert T.differential(d3) == MultiVector.zero(m.algebra, 4, 1)
    assert T.differential(L(0, {(): P("1")})).is_zero
    # a subset of the wrong grade, or outside {1..r}, is no element of L_k
    for elem, k in (({(1, 2): P("1")}, 3), ({(1, 5): P("1")}, 2)):
        with pytest.raises(ValueError):
            T.differential(L(k, elem))
    with pytest.raises(ValueError):
        T.differential(MultiVector.basis(m.algebra, 5, (1, 5)))


def test_taylor_weights_of_worked_example():
    m = mlist(["x", "y", "z"], *WORKED_EXAMPLE)
    weights = {(1,): 3, (2,): 4, (3,): 2, (4,): 2,
               (1, 2): 5, (1, 3): 4, (1, 4): 4, (2, 3): 5, (2, 4): 5,
               (3, 4): 3, (1, 2, 3): 6, (1, 2, 4): 6, (1, 3, 4): 4,
               (2, 3, 4): 5, (1, 2, 3, 4): 6}
    for J, w in weights.items():
        assert sum(m.lcm_of(J)) == w


def test_taylor_differential_is_graded():
    # with weight(e_J) = deg lcm(m_J) every differential has degree 0
    rng = random.Random(83)
    R = PolyRing(QQ, ["x", "y", "z"])
    for _ in range(10):
        r = rng.randint(1, 5)
        monos = tuple(tuple(rng.randint(0, 2) for _ in range(3))
                      for _ in range(r))
        m = MonomialList(R, monos)
        T = taylor_complex(m)
        for k in range(1, r + 1):
            rows = subsets_colex(r, k - 1)
            cols = subsets_colex(r, k)
            M = T.complex.matrix(k)
            for ci, J in enumerate(cols):
                for ri, K in enumerate(rows):
                    e = M.entries[ri][ci]
                    if not e.is_zero:
                        assert e.degree() == sum(m.lcm_of(J)) - sum(m.lcm_of(K))


def test_taylor_d_squared_zero_random():
    # FreeComplex verifies d.d = 0 at construction; r <= 6
    rng = random.Random(89)
    R = PolyRing(QQ, ["x", "y"])
    for _ in range(8):
        r = rng.randint(2, 6)
        monos = tuple(tuple(rng.randint(0, 3) for _ in range(2))
                      for _ in range(r))
        taylor_complex(MonomialList(R, monos))


# ---------------------------------------------------------------------------
# the contracting homotopy

def test_homotopy_examples():
    m = mlist(["x", "y"], "x", "y")
    R = m.ring
    # J empty, p = x: least divisor index is 1, lcm quotient is 1
    got = taylor_homotopy(m, (1, 0), ())
    assert got == MultiVector.basis(m.algebra, 2, (1,))
    assert got.coords == {(1,): R.one()}
    # no divisor at all
    assert taylor_homotopy(m, (0, 0), ()) == MultiVector.zero(m.algebra, 2, 1)
    # J already contains the least divisor
    assert taylor_homotopy(m, (1, 0), (1,)) == \
        MultiVector.zero(m.algebra, 2, 2)


def test_homotopy_identity_exhaustive_worked_example():
    m = mlist(["x", "y", "z"], "x^2*y", "x*y^3", "x", "y*z")
    assert homotopy_identity_check(taylor_complex(m))


def test_homotopy_identity_single_monomial():
    m = mlist(["x"], "x")
    assert homotopy_identity_check(taylor_complex(m))


def test_homotopy_identity_empty_list():
    # r = 0 leaves no complex to check: its Taylor complex would be L_0 = A
    # of rank 1, and a FreeComplex without matrices has L_0 = 0
    for m in (mlist(["x", "y"]), MonomialList(PolyRing(QQ, ["x"]), ())):
        with pytest.raises(ValueError, match="at least one monomial"):
            taylor_complex(m)


def test_homotopy_vs_certification_cross_validation():
    rng = random.Random(97)
    R = PolyRing(QQ, ["x", "y"])
    for _ in range(6):
        r = rng.randint(2, 4)
        monos = tuple((rng.randint(0, 2), rng.randint(0, 2)) for _ in range(r))
        T = taylor_complex(MonomialList(R, monos))
        assert homotopy_identity_check(T)
        assert certify_exact(T.complex).exact


def test_homotopy_check_catches_a_multiplier_mutant(monkeypatch, capsys):
    # h wrong only where the multiplier p contains z and J is nonempty:
    # multipliers 1 and x never reach it, the lcm lattice point x^2 y^2 z^2
    # does (h(x^2 z^2 e_2) must be z^2 e_12)
    right = monomial.taylor_homotopy

    def mutant(m, p, J):
        if p[2] and J:
            return MultiVector.zero(m.algebra, m.r, len(J) + 1)
        return right(m, p, J)

    monkeypatch.setattr(monomial, "taylor_homotopy", mutant)
    m = mlist(["x", "y", "z"], "x^2", "y^2", "z^2")
    assert homotopy_identity_check(taylor_complex(m)) is False
    assert run(["taylor", "--vars", "x,y,z", "--monomials", "x^2,y^2,z^2",
                "--check-homotopy"]) == 4
    assert capsys.readouterr().out == ""


def test_homotopy_check_proves_the_r6_list(capsys):
    # the north-star list, out of reach of certify_exact
    t0 = time.perf_counter()
    code = run(["taylor", "--vars", "x,y,z,w", "--monomials",
                "x^2*y,y^2*z,z^2*w,w^2*x,x*z,y*w", "--check-homotopy"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert json.loads(capsys.readouterr().out)["homotopy_identity"] is True
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# minimality

def test_taylor_minimality():
    assert not is_taylor_minimal(mlist(["x", "y", "z"], "x*y", "x", "y*z"))
    assert is_taylor_minimal(mlist(["x", "y", "z"], "x", "y", "z"))
    assert not is_taylor_minimal(mlist(["x"], "x^2", "x"))
    # the worked example: e_134 carries unit entries, so not minimal either
    assert not is_taylor_minimal(mlist(["x", "y", "z"], *WORKED_EXAMPLE))


def test_worked_example_not_minimal():
    # (x^2 y, x y^3, x, y z): m_3 = x divides lcm(m_1) for J = {1, 3}
    m = mlist(["x", "y", "z"], "x^2*y", "x*y^3", "x", "y*z")
    assert not is_taylor_minimal(m)
