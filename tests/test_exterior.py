import random
from fractions import Fraction
from itertools import permutations

import pytest

from ffr.algebra import FPAlgebra
from ffr.cayley import signed_maximal_minors
from ffr.complexes import RingMatrix, adjugate, koszul_complex
from ffr.exterior import (MultiVector, are_proportional, complement,
                          decomposable, eps_sign, exterior_power_matrix,
                          hodge_left, hodge_right, interior_right, minors,
                          pairing, poly_det, subsets_colex, sylvester_plucker,
                          wedge)
from ffr.groebner import syzygy_module
from ffr.monomial import MonomialList, taylor_complex
from ffr.ring import CoefField, Poly, PolyRing, QQ, RingMismatchError


def scalars(n=0):
    return FPAlgebra.polynomial(PolyRing(QQ, [f"a{i}" for i in range(n)]))


def poly_alg(*vars):
    return FPAlgebra.polynomial(PolyRing(QQ, vars))


def test_subsets_colex_order():
    assert subsets_colex(4, 2) == ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))
    assert subsets_colex(3, 0) == ((),)


def test_eps_sign():
    assert eps_sign((1,), (2,)) == 1
    assert eps_sign((2,), (1,)) == -1
    assert eps_sign((1, 3), (2,)) == -1


def test_equal_multivectors_hash_equal():
    # the coordinate dict is compared but not hashed
    A = poly_alg("x", "y")
    x = A.parse("x")
    u = MultiVector.from_dict(A, 2, 1, {(1,): x, (2,): A.ring.zero()})
    v = MultiVector.basis(A, 2, (1,)).scale(x)
    assert u == v and u is not v and hash(u) == hash(v)
    assert len({u, v, MultiVector.zero(A, 2, 1)}) == 2
    assert u != MultiVector.basis(A, 2, (1,))


def test_wedge_basics():
    A = poly_alg("x", "y")
    e1 = MultiVector.basis(A, 2, (1,))
    e2 = MultiVector.basis(A, 2, (2,))
    assert wedge(e1, e2) == MultiVector.basis(A, 2, (1, 2))
    assert wedge(e2, e1) == MultiVector.basis(A, 2, (1, 2)).scale(
        -A.ring.one())
    x, y = A.ring.gens()
    v = MultiVector.from_dict(A, 2, 1, {(1,): x, (2,): y})
    assert wedge(v, v).is_zero


def test_decomposable():
    A = poly_alg("a", "b")
    a, b = A.ring.gens()
    one, zero = A.ring.one(), A.ring.zero()
    mv = decomposable(A, [[one, zero, a], [zero, one, b]])
    assert mv.coeff((1, 2)) == one
    assert mv.coeff((1, 3)) == b
    assert mv.coeff((2, 3)) == -a
    col = decomposable(A, [[a, b]])
    assert col == MultiVector.from_dict(A, 2, 1, {(1,): a, (2,): b})
    ident = decomposable(A, [[one, zero], [zero, one]], n=2)
    assert ident == MultiVector.basis(A, 2, (1, 2))


def test_pairing_orthonormal_basis():
    A = poly_alg("x")
    for I in subsets_colex(4, 2):
        for J in subsets_colex(4, 2):
            val = pairing(MultiVector.basis(A, 4, I), MultiVector.basis(A, 4, J))
            assert val == (A.ring.one() if I == J else A.ring.zero())


def test_pairing_is_det_of_gram():
    rng = random.Random(17)
    A = poly_alg("x", "y")
    R = A.ring

    def rand_poly():
        return Poly(R, {(rng.randint(0, 1), rng.randint(0, 1)):
                        QQ.coerce(rng.randint(-2, 2)) for _ in range(2)})

    for _ in range(10):
        U = [[rand_poly() for _ in range(4)] for _ in range(2)]  # 2 columns
        V = [[rand_poly() for _ in range(4)] for _ in range(2)]
        lhs = pairing(decomposable(A, U), decomposable(A, V))
        gram = [[sum((U[i][k] * V[j][k] for k in range(4)), R.zero())
                 for j in range(2)] for i in range(2)]
        assert lhs == poly_det(gram, R)


def test_hodge_right_small():
    A = poly_alg("x")
    e1 = MultiVector.basis(A, 2, (1,))
    e2 = MultiVector.basis(A, 2, (2,))
    assert hodge_right(e1) == e2
    assert hodge_right(e2) == e1.scale(-A.ring.one())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_hodge_defining_identity(n):
    # e_J ^ e_J* = e_{1..n} for every J
    A = poly_alg("x")
    full = MultiVector.basis(A, n, tuple(range(1, n + 1)))
    for k in range(n + 1):
        for J in subsets_colex(n, k):
            eJ = MultiVector.basis(A, n, J)
            assert wedge(eJ, hodge_right(eJ)) == full
            assert wedge(hodge_left(eJ), eJ) == full
            assert hodge_right(eJ) == MultiVector.basis(
                A, n, complement(J, n)).scale(
                A.ring.const(eps_sign(J, complement(J, n))))


def _bracket(x):
    """Coefficient of the top wedge e_{1..n}."""
    full = tuple(range(1, x.n + 1))
    return x.coeff(full)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hodge_duality_formulas_on_bases(n):
    A = poly_alg("x")
    for p in range(n + 1):
        q = n - p
        for I in subsets_colex(n, p):
            u1 = MultiVector.basis(A, n, I)
            for J in subsets_colex(n, p):
                u2 = MultiVector.basis(A, n, J)
                # <u1|u2> = <u1*|u2*> = [u1 ^ u2*]
                assert pairing(u1, u2) == pairing(hodge_right(u1),
                                                  hodge_right(u2))
                assert pairing(u1, u2) == _bracket(wedge(u1, hodge_right(u2)))
            for K in subsets_colex(n, q):
                v = MultiVector.basis(A, n, K)
                assert pairing(hodge_right(u1), v) == _bracket(wedge(u1, v))


def test_hodge_duality_random_polys():
    rng = random.Random(23)
    A = poly_alg("x", "y")
    R = A.ring
    n = 4

    def rand_mv(p):
        coords = {}
        for I in subsets_colex(n, p):
            coords[I] = Poly(R, {(rng.randint(0, 1), rng.randint(0, 1)):
                                 QQ.coerce(rng.randint(-2, 2))})
        return MultiVector.from_dict(A, n, p, coords)

    for p in range(n + 1):
        for _ in range(5):
            u1, u2 = rand_mv(p), rand_mv(p)
            assert pairing(u1, u2) == pairing(hodge_right(u1), hodge_right(u2))
            assert pairing(u1, u2) == _bracket(wedge(u1, hodge_right(u2)))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hodge_inversion(n):
    # Hd_pq . Hd_qp = (-1)^(pq) Id ; the left and right versions are inverse
    A = poly_alg("x")
    for p in range(n + 1):
        q = n - p
        sign = A.ring.const((-1) ** (p * q))
        for J in subsets_colex(n, q):
            eJ = MultiVector.basis(A, n, J)
            assert hodge_right(hodge_right(eJ)) == eJ.scale(sign)
            assert hodge_left(hodge_right(eJ)) == eJ
            assert hodge_right(hodge_left(eJ)) == eJ


def test_hodge_block_formula():
    # [[I_p ; A]]* = [[-tA ; I_q]] for a q x p matrix A
    rng = random.Random(29)
    Aalg = poly_alg("x", "y")
    R = Aalg.ring
    for (p, q) in [(1, 2), (2, 1), (2, 2), (1, 3)]:
        n = p + q
        Amat = [[Poly(R, {(rng.randint(0, 1), rng.randint(0, 1)):
                          QQ.coerce(rng.randint(-2, 2))})
                 for _ in range(p)] for _ in range(q)]
        one, zero = R.one(), R.zero()
        cols_left = []
        for j in range(p):
            col = [one if i == j else zero for i in range(p)]
            col += [Amat[i][j] for i in range(q)]
            cols_left.append(col)
        cols_right = []
        for j in range(q):
            col = [-Amat[j][i] for i in range(p)]
            col += [one if i == j else zero for i in range(q)]
            cols_right.append(col)
        lhs = hodge_right(decomposable(Aalg, cols_left, n))
        rhs = decomposable(Aalg, cols_right, n)
        assert lhs == rhs


def test_interior_product_examples():
    A = poly_alg("x", "y")
    x, y = A.ring.gens()
    v = MultiVector.from_dict(A, 2, 1, {(1,): x, (2,): y})
    u = MultiVector.from_dict(A, 2, 1, {(1,): y, (2,): x})
    got = interior_right(v, u)
    assert got.grade == 0 and got.coeff(()) == pairing(v, u)
    const = MultiVector.scalar(A, 2, x)
    assert interior_right(const, u).is_zero
    e12 = MultiVector.basis(A, 2, (1, 2))
    e2 = MultiVector.basis(A, 2, (2,))
    assert interior_right(e12, e2) == MultiVector.basis(A, 2, (1,)).scale(
        -A.ring.one())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_interior_duality_jolie_formule(n):
    # <x |_ u, z> = <x, u ^ z> on all basis triples
    A = poly_alg("x")
    for p in range(1, n + 1):
        for I in subsets_colex(n, p):
            xb = MultiVector.basis(A, n, I)
            for u_idx in range(1, n + 1):
                u = MultiVector.basis(A, n, (u_idx,))
                for Z in subsets_colex(n, p - 1):
                    z = MultiVector.basis(A, n, Z)
                    assert pairing(interior_right(xb, u), z) == \
                        pairing(xb, wedge(u, z))


def test_interior_antiderivation():
    # d(x ^ z) = d(x) ^ z + (-1)^k x ^ d(z) on random basis data
    rng = random.Random(31)
    A = poly_alg("x")
    n = 5
    for _ in range(40):
        k = rng.randint(1, 3)
        l = rng.randint(1, n - k)
        I = tuple(sorted(rng.sample(range(1, n + 1), k)))
        rest = [i for i in range(1, n + 1)]
        J = tuple(sorted(rng.sample(rest, l)))
        u = MultiVector.basis(A, n, (rng.randint(1, n),))
        x = MultiVector.basis(A, n, I)
        z = MultiVector.basis(A, n, J)
        lhs = interior_right(wedge(x, z), u)
        sign = A.ring.const((-1) ** k)
        rhs = wedge(interior_right(x, u), z) + wedge(x, interior_right(z, u)).scale(sign)
        assert lhs == rhs


def test_sylvester_plucker_cramer_case():
    # p = 1 with the standard basis: both sides are just z
    A = poly_alg("x", "y")
    x, y = A.ring.gens()
    one, zero = A.ring.one(), A.ring.zero()
    basis_cols = [[one, zero], [zero, one]]
    z = [x, y + x * y]
    lhs, rhs, equal = sylvester_plucker(A, basis_cols, [z])
    assert equal
    assert lhs == MultiVector.from_dict(A, 2, 1, {(1,): z[0], (2,): z[1]})


def test_sylvester_plucker_selected_columns():
    A = poly_alg("x")
    one, zero = A.ring.one(), A.ring.zero()
    xs = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    zs = [xs[2], xs[0]]
    lhs, rhs, equal = sylvester_plucker(A, xs, zs)
    assert equal


def test_sylvester_plucker_random():
    rng = random.Random(37)
    A = poly_alg("x", "y")
    R = A.ring

    def rand_vec(n):
        return [Poly(R, {(rng.randint(0, 1), rng.randint(0, 1)):
                         QQ.coerce(rng.randint(-2, 2))}) for _ in range(n)]

    for _ in range(50):
        n = rng.choice([2, 3, 4])
        p = rng.randint(1, n)
        xs = [rand_vec(n) for _ in range(n)]
        zs = [rand_vec(n) for _ in range(p)]
        lhs, rhs, equal = sylvester_plucker(A, xs, zs)
        assert equal


def test_are_proportional_basics():
    A = poly_alg("x", "y")
    x, y = A.ring.gens()
    u = MultiVector.from_dict(A, 3, 2, {(1, 2): x, (1, 3): y})
    assert are_proportional(u, u.scale(A.ring.const(3)))
    e12 = MultiVector.basis(A, 3, (1, 2))
    e13 = MultiVector.basis(A, 3, (1, 3))
    assert not are_proportional(e12, e13)


def test_proportionality_theorem_via_syzygies():
    # tU V = 0 forces hodge(U-wedge) proportional to V-wedge
    rng = random.Random(41)
    A = poly_alg("x", "y")
    R = A.ring
    n, p = 3, 1
    for _ in range(8):
        U = [[Poly(R, {(rng.randint(0, 1), rng.randint(0, 1)):
                       QQ.coerce(rng.randint(-2, 2))}) for _ in range(n)]]
        cols_tU = [[U[0][j]] for j in range(n)]
        syz = syzygy_module(cols_tU)
        if len(syz) < 2:
            continue
        V = [list(syz[0]), list(syz[1])]
        u_col = decomposable(A, [U[0]], n)
        v_mv = decomposable(A, V, n)
        assert are_proportional(hodge_right(u_col), v_mv)


def test_proportionality_theorem_two_columns():
    # the same with a 4 x 2 block U and V built from two syzygies of tU
    rng = random.Random(43)
    A = poly_alg("x", "y")
    R = A.ring
    n, p = 4, 2
    found = 0
    while found < 5:
        cols_U = [[Poly(R, {(rng.randint(0, 1), rng.randint(0, 1)):
                            QQ.coerce(rng.randint(-1, 1))})
                   for _ in range(n)] for _ in range(p)]
        # v must satisfy tU v = 0: v is a syzygy of the columns of tU
        cols_tU = [[cols_U[0][j], cols_U[1][j]] for j in range(n)]
        syz = syzygy_module(cols_tU)
        if len(syz) < n - p:
            continue
        V = [list(s) for s in syz[:n - p]]
        u_mv = decomposable(A, cols_U, n)
        v_mv = decomposable(A, V, n)
        if u_mv.is_zero or v_mv.is_zero:
            continue
        assert are_proportional(hodge_right(u_mv), v_mv)
        found += 1


def test_exterior_power_matrix_alignment():
    # the Lambda^k matrix of a map has the minors in colex position
    A = poly_alg("x", "y")
    R = A.ring
    x, y = R.gens()
    M = [[x, y, R.one()], [y, x, R.zero()], [R.one(), R.zero(), x]]
    L2 = exterior_power_matrix(M, R, 2)
    MA = RingMatrix(A, M)
    rows = subsets_colex(3, 2)
    cols = subsets_colex(3, 2)
    for a, I in enumerate(rows):
        for b, J in enumerate(cols):
            assert L2[a][b] == MA.minor([i - 1 for i in I],
                                        [j - 1 for j in J])


# ---------------------------------------------------------------------------
# the minors table against an independent oracle: the Leibniz formula

def leibniz_minor(rows, ring, I, J):
    """Sum over permutations of the signed products, on 1-based subsets."""
    acc = ring.zero()
    for perm in permutations(range(len(I))):
        inversions = sum(1 for a in range(len(perm))
                         for b in range(a + 1, len(perm)) if perm[a] > perm[b])
        term = ring.one()
        for i, j in zip(I, perm):
            term = term * rows[i - 1][J[j] - 1]
        acc = acc - term if inversions % 2 else acc + term
    return acc


def random_rows(rng, R, nrows, ncols, zero_row=None, fractions=False):
    """Sparse entries of degree <= 2 in the first variable and <= 1 in the
    others; with `fractions`, each coefficient over a denominator of its
    own, so that rows need different clearing."""
    def entry():
        if rng.random() < 0.3:
            return R.zero()
        return Poly(R, {tuple(rng.randint(0, 1 if v else 2)
                              for v in range(R.n)):
                        R.field.coerce(Fraction(rng.randint(-4, 4),
                                                rng.randint(1, 6)
                                                if fractions else 1))
                        for _ in range(rng.randint(1, 2))})
    return [[R.zero() if i == zero_row else entry() for _ in range(ncols)]
            for i in range(nrows)]


ORACLE_FIELDS = [QQ, CoefField(32003)]
# the packed fields depend on the order: grevlex, grlex and lex in 3
# variables; F_7 makes residues wrap, and the 3-variable rings draw
# Fraction coefficients
ORACLE_RINGS = {
    "Q": PolyRing(QQ, ["x", "y"]),
    "F32003": PolyRing(CoefField(32003), ["x", "y"]),
    "F7-lex": PolyRing(CoefField(7), ["x", "y", "z"], "lex"),
    "Q-grlex": PolyRing(QQ, ["x", "y", "z"], "grlex"),
}
SHAPES = [(0, 0), (1, 1), (1, 3), (3, 1), (2, 2), (2, 4), (4, 2), (3, 3),
          (3, 4), (4, 3), (4, 4)]


def assert_table_matches_leibniz(rows, R, nrows, cols):
    for k in range(min(nrows, cols) + 2):
        table = minors(rows, R, k)
        keys = [(I, J) for I in subsets_colex(nrows, k)
                for J in subsets_colex(cols, k)]
        assert list(table) == keys  # I outermost, both colex
        for (I, J), value in table.items():
            assert value == leibniz_minor(rows, R, I, J)
        powered = exterior_power_matrix(rows, R, k)
        assert powered == [[table[I, J] for J in subsets_colex(cols, k)]
                           for I in subsets_colex(nrows, k)]


@pytest.mark.parametrize("name", sorted(ORACLE_RINGS))
def test_minors_table_matches_leibniz(name):
    R = ORACLE_RINGS[name]
    rng = random.Random(R.field.p + R.n - 1)
    for nrows, ncols in SHAPES:
        for zero_row in (None, 0):
            rows = random_rows(rng, R, nrows, ncols, zero_row, R.n > 2)
            cols = ncols if nrows else 0
            assert_table_matches_leibniz(rows, R, nrows, cols)
            if nrows == cols:
                full = tuple(range(1, nrows + 1))
                assert poly_det(rows, R) == leibniz_minor(rows, R, full, full)
    # k = 0 is the empty minor, 1, also for the empty matrix
    assert minors([], R, 0) == {((), ()): R.one()}
    assert exterior_power_matrix([], R, 0) == [[R.one()]]
    # entries of degree 2^12 and a 4 x 4 minor of degree 2^14: the fields
    # must be wider than 6 bits, and than the entries alone need
    x, y = R.gens()[:2]
    big, one, zero = x ** 4096, R.one(), R.zero()
    rows = [[big, one, x, zero], [y, big, -one, x], [one, x * 2, big, y],
            [x - y, zero, y, big]]
    assert_table_matches_leibniz(rows, R, 4, 4)
    assert poly_det(rows, R).degree() == 4 * 4096


def test_minors_refuses_foreign_and_ragged_matrices():
    R = PolyRing(QQ, ["x", "y"])
    x, y = R.gens()
    # same variables and field, another order: another ring
    foreign = PolyRing(QQ, ["x", "y"], "lex").gens()[0]
    with pytest.raises(RingMismatchError):
        minors([[x, y], [y, foreign]], R, 2)
    with pytest.raises(ValueError, match="ragged"):
        minors([[x, y], [y]], R, 1)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
def test_minor_consumers_match_leibniz(field):
    R = PolyRing(field, ["x", "y"])
    A = FPAlgebra.polynomial(R)
    rng = random.Random(field.p + 2)
    for n in range(1, 5):
        for zero_row in (None, n - 1):
            square = random_rows(rng, R, n, n, zero_row)
            full = tuple(range(1, n + 1))
            drop = [full[:t] + full[t + 1:] for t in range(n)]
            adj = adjugate(RingMatrix(A, square))
            assert adj.entries == tuple(
                tuple((-1) ** (i + j) * leibniz_minor(square, R, drop[j],
                                                      drop[i])
                      for j in range(n)) for i in range(n))
            tall = random_rows(rng, R, n, n - 1, zero_row)
            assert signed_maximal_minors(RingMatrix(A, tall, n, n - 1)) == [
                (-1) ** i * leibniz_minor(tall, R, drop[i], full[:-1])
                for i in range(n)]
            for k in range(n + 1):
                columns = [[row[j] for row in square] for j in range(k)]
                wedge_k = decomposable(A, columns, n)
                for I in subsets_colex(n, k):
                    assert wedge_k.coeff(I) == leibniz_minor(
                        square, R, I, full[:k])


# Koszul and Taylor differentials as built before `boundary_matrix` existed:
# one string per matrix, rows joined by ";", entries by ","
KOSZUL_BEFORE = {
    1: (
        'a1',
    ),
    2: (
        'a1,a2',
        '-a2;a1',
    ),
    3: (
        'a1,a2,a3',
        '-a2,-a3,0;a1,0,-a3;0,a1,a2',
        'a3;-a2;a1',
    ),
    4: (
        'a1,a2,a3,a4',
        '-a2,-a3,0,-a4,0,0;a1,0,-a3,0,-a4,0;0,a1,a2,0,0,-a4;0,0,0,a1,a2,a3',
        'a3,a4,0,0;-a2,0,a4,0;a1,0,0,a4;0,-a2,-a3,0;0,a1,0,-a3;0,0,a1,a2',
        '-a4;a3;-a2;a1',
    ),
}

TAYLOR_BEFORE = {
    1: (
        'x^2*y',
    ),
    2: (
        'x^2*y,x*y^3',
        '-y^2;x',
    ),
    3: (
        'x^2*y,x*y^3,x*z',
        '-y^2,-z,0;x,0,-z;0,x*y,y^3',
        'z;-y^2;x',
    ),
    4: (
        'x^2*y,x*y^3,x*z,y*z',
        '-y^2,-z,0,-z,0,0;x,0,-z,0,-z,0;0,x*y,y^3,0,0,-y;0,0,0,x^2,x*y^2,x',
        'z,z,0,0;-y^2,0,1,0;x,0,0,1;0,-y^2,-1,0;0,x,0,-1;0,0,x,y^2',
        '-1;1;-y^2;x',
    ),
    5: (
        'x^2*y,x*y^3,x*z,y*z,z^3',
        '-y^2,-z,0,-z,0,0,-z^3,0,0,0;x,0,-z,0,-z,0,0,-z^3,0,0;0,x*y,y^3,0,0,-y,0,0,-z^2,0;0,0,0,x^2,x*y^2,x,0,0,0,-z^2;0,0,0,0,0,0,x^2*y,x*y^3,x,y',
        'z,z,0,0,z^3,0,0,0,0,0;-y^2,0,1,0,0,z^2,0,0,0,0;x,0,0,1,0,0,z^2,0,0,0;0,-y^2,-1,0,0,0,0,z^2,0,0;0,x,0,-1,0,0,0,0,z^2,0;0,0,x,y^2,0,0,0,0,0,z^2;0,0,0,0,-y^2,-1,0,-1,0,0;0,0,0,0,x,0,-1,0,-1,0;0,0,0,0,0,x*y,y^3,0,0,-y;0,0,0,0,0,0,0,x^2,x*y^2,x',
        '-1,-z^2,0,0,0;1,0,-z^2,0,0;-y^2,0,0,-z^2,0;x,0,0,0,-z^2;0,1,1,0,0;0,-y^2,0,1,0;0,x,0,0,1;0,0,-y^2,-1,0;0,0,x,0,-1;0,0,0,x,y^2',
        'z^2;-1;1;-y^2;x',
    ),
}

TAYLOR_MONOMIALS = ("x^2*y", "x*y^3", "x*z", "y*z", "z^3")


def matrices_text(C):
    return tuple(";".join(",".join(map(str, row)) for row in M.entries)
                 for M in C.matrices)


@pytest.mark.parametrize("n", sorted(KOSZUL_BEFORE))
def test_koszul_matrices_unchanged(n):
    A = FPAlgebra.polynomial(PolyRing(QQ, ["a1", "a2", "a3", "a4"]))
    C = koszul_complex(A, A.ring.gens()[:n])
    assert matrices_text(C) == KOSZUL_BEFORE[n]


@pytest.mark.parametrize("r", sorted(TAYLOR_BEFORE))
def test_taylor_matrices_unchanged(r):
    R = PolyRing(QQ, ["x", "y", "z"])
    T = taylor_complex(MonomialList.parse(R, TAYLOR_MONOMIALS[:r]))
    assert matrices_text(T.complex) == TAYLOR_BEFORE[r]
