"""Property tests for the Taylor complex on `MultiVector` elements.

Random lists of r <= 5 monomials in x, y, z with exponents at most 3, over
Q and F_32003.  Checked: d.d = 0 on random elements of L_k, the contracting
homotopy identity (dh + hd)(p e_J) = p e_J on every basis element, the
`MultiVector` invariants of every value the complex returns, and the grade
and rank checks.  The lcm-lattice homotopy check is also run on lists of
r <= 4 over Q, where it must agree with `certify_exact`, and the
minimality test on lists of r <= 6 (repeats and 1 included), where it must
agree with the entries of the differentials.  Skipped when `hypothesis` is
not installed.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ffr.complexes import certify_exact  # noqa: E402
from ffr.exterior import MultiVector, subset_index, subsets_colex  # noqa: E402
from ffr.monomial import (MonomialList, homotopy_identity_check,  # noqa: E402
                          is_taylor_minimal, taylor_complex, taylor_homotopy)
from ffr.ring import (CoefField, Poly, PolyRing, QQ,  # noqa: E402
                      mono_divides, parse_poly)

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

VARS = ["x", "y", "z"]
exponents = st.tuples(*[st.integers(0, 3)] * 3)
terms = st.tuples(st.integers(-3, 3).filter(bool), *[st.integers(0, 2)] * 3)
polys = st.lists(terms, min_size=1, max_size=3).map(
    lambda ts: " + ".join(f"({c})*x^{a}*y^{b}*z^{d}" for c, a, b, d in ts))


@st.composite
def monomial_lists(draw):
    R = PolyRing(draw(st.sampled_from([QQ, CoefField(32003)])), VARS)
    return MonomialList(R, tuple(draw(st.lists(exponents, min_size=1,
                                               max_size=5))))


@st.composite
def elements(draw):
    """A monomial list and a random element of one of its L_k, k >= 1."""
    m = draw(monomial_lists())
    k = draw(st.integers(1, m.r))
    subs = subsets_colex(m.r, k)
    chosen = draw(st.lists(st.sampled_from(subs), min_size=1, max_size=4))
    coords = {J: parse_poly(draw(polys), m.ring) for J in chosen}
    return m, MultiVector.from_dict(m.algebra, m.r, k, coords)


def assert_invariants(v: MultiVector):
    index = subset_index(v.n, v.grade)
    keys = list(v.coords)
    assert keys == sorted(keys, key=index.__getitem__)
    assert all(not c.is_zero for c in v.coords.values())
    assert (v - v).is_zero


def homotopy(m, v: MultiVector) -> MultiVector:
    """h on an element with polynomial coefficients, term by term."""
    out = MultiVector.zero(m.algebra, m.r, v.grade + 1)
    for J, c in v.coords.items():
        for mono, coeff in c.terms.items():
            out = out + taylor_homotopy(m, mono, J).scale(coeff)
    return out


@SETTINGS
@given(elements())
def test_d_squared_is_zero(case):
    m, v = case
    T = taylor_complex(m)
    assert_invariants(v)
    dv = T.differential(v)
    assert dv.grade == v.grade - 1
    assert_invariants(dv)
    assert T.differential(dv).is_zero


@SETTINGS
@given(monomial_lists(), st.lists(exponents, min_size=1, max_size=3))
def test_homotopy_contracts_every_basis_element(m, multipliers):
    T = taylor_complex(m)
    one = m.ring.field.one()
    for k in range(m.r + 1):
        for J in subsets_colex(m.r, k):
            for p in multipliers:
                if not J and not any(mono_divides(mi, p)
                                     for mi in m.monomials):
                    continue  # outside the ideal: the augmentation's part
                e = MultiVector.from_dict(m.algebra, m.r, k,
                                          {J: Poly(m.ring, {p: one})})
                h = taylor_homotopy(m, p, J)
                assert h.grade == k + 1
                assert_invariants(h)
                total = MultiVector.zero(m.algebra, m.r, k)
                if not h.is_zero:
                    total = total + T.differential(h)
                if k:
                    total = total + homotopy(m, T.differential(e))
                assert total == e
    assert homotopy_identity_check(T)


@SETTINGS
@given(st.lists(exponents, min_size=1, max_size=4))  # r = 0 is refused
def test_lattice_check_agrees_with_certify_exact(monos):
    T = taylor_complex(MonomialList(PolyRing(QQ, VARS), tuple(monos)))
    assert homotopy_identity_check(T) is True
    assert certify_exact(T.complex).exact is True


@SETTINGS
@given(st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=6))
def test_minimality_is_the_absence_of_unit_entries(monos):
    # a free resolution is minimal iff no differential has a nonzero
    # constant entry; small exponents make repeats and m_i = 1 common
    m = MonomialList(PolyRing(QQ, VARS), tuple(monos))
    unit = any(list(p.terms) == [(0, 0, 0)]
               for M in taylor_complex(m).complex.matrices
               for row in M.entries for p in row)
    assert is_taylor_minimal(m) is not unit


@SETTINGS
@given(monomial_lists(), st.data())
def test_from_dict_rejects_wrong_grade(m, data):
    k = data.draw(st.integers(0, m.r))
    J = data.draw(st.sampled_from(subsets_colex(m.r, k)))
    one = m.ring.one()
    assert MultiVector.from_dict(m.algebra, m.r, k, {J: one}).coords == \
        {J: one}
    for grade in (k - 1, k + 1):
        if 0 <= grade <= m.r:
            with pytest.raises(ValueError):
                MultiVector.from_dict(m.algebra, m.r, grade, {J: one})


@SETTINGS
@given(elements())
def test_differential_rejects_another_rank(case):
    m, v = case
    T = taylor_complex(m)
    other = MultiVector.from_dict(m.algebra, m.r + 1, v.grade, v.coords)
    with pytest.raises(ValueError):
        T.differential(other)
