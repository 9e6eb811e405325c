"""Property tests for the zero-divisor questions of `ffr.algebra`: whether
(0 :_E a) is zero, asked as faithfulness of an ideal, as the colon of an
element and as a E = E.

Each answer is compared with a second route to it: faithfulness with the
ideal colon (J : a) read against J, the colon of f with the first stage of
`is_E_regular_sequence`, and a E = E with a membership lift of every unit
vector.  Algebras are Q[x, y, z], F_32003[x, y, z] and a quotient of one
of them by one drawn relation; polynomials have at most two terms, of
degree at most 2 in each variable.  Skipped when `hypothesis` is not
installed.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ffr.algebra import (AIdeal, AModule, FPAlgebra,  # noqa: E402
                         ideal_times_module_is_module, is_faithful_ideal,
                         is_trivial, module_colon_element)
from ffr.depth import is_E_regular_sequence  # noqa: E402
from ffr.groebner import (IdealGens, ideal_colon,  # noqa: E402
                          module_membership, scalar_columns)
from ffr.ring import CoefField, PolyRing, QQ, parse_poly  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

rings = st.builds(PolyRing, st.sampled_from([QQ, CoefField(32003)]),
                  st.just(["x", "y", "z"]),
                  st.sampled_from(["grevlex", "lex"]))
terms = st.tuples(st.integers(-3, 3).filter(bool),
                  *[st.integers(0, 2)] * 3)
binomials = st.lists(terms, min_size=1, max_size=2).map(
    lambda ts: " + ".join(f"({c})*x^{a}*y^{b}*z^{d}" for c, a, b, d in ts))


@st.composite
def algebras(draw):
    """k[x, y, z], or its quotient by one binomial relation."""
    R = draw(rings)
    relations = draw(st.lists(binomials, max_size=1))
    return FPAlgebra(R, [parse_poly(s, R) for s in relations])


def elements(A):
    """A binomial of A, or zero."""
    return st.one_of(binomials.map(lambda s: parse_poly(s, A.ring)),
                     st.just(A.ring.zero()))


@st.composite
def modules(draw, A):
    """A free module of rank 1, a cyclic quotient A/(g), or a rank-2
    module presented by one or two columns."""
    kind = draw(st.sampled_from(["free", "cyclic", "rank2"]))
    if kind == "free":
        return AModule.free(A, 1)
    if kind == "cyclic":
        return AModule(A, 1, [AIdeal(A, [draw(elements(A))]).gens])
    ncols = draw(st.integers(1, 2))
    rows = [[draw(elements(A)) for _ in range(ncols)] for _ in range(2)]
    return AModule(A, 2, rows)


def faithful_by_ideal_colon(A, a):
    """Ann_A(a) = 0 read as (J : a) = J in k[X]; for no generators, a = 0
    and Ann(0) = A, which is zero only when 1 is in J."""
    if not a.gens:
        return is_trivial(A)
    colon = ideal_colon(A.relations, IdealGens(A.ring, a.gens))
    jgb = A.relations.groebner()
    return all(jgb.contains(g) for g in colon.gens)


@SETTINGS
@given(st.data())
def test_faithfulness_matches_the_ideal_colon(data):
    A = data.draw(algebras())
    a = AIdeal(A, data.draw(st.lists(elements(A), min_size=1,
                                     max_size=2)))
    assert is_faithful_ideal(A, a) == faithful_by_ideal_colon(A, a)


@SETTINGS
@given(st.data())
def test_element_colon_is_empty_iff_the_element_is_regular(data):
    A = data.draw(algebras())
    E = data.draw(modules(A))
    f = data.draw(elements(A))
    colon = module_colon_element(E, f)
    assert (colon == []) == is_E_regular_sequence([f], E).holds
    for w in colon:  # each element is a nonzero class killed by f
        assert any(not p.is_zero for p in w)
        assert module_membership([[f * p for p in w]],
                                 E.base_vectors())[0] is not None


@SETTINGS
@given(st.data())
def test_ideal_times_module_matches_unit_vector_lifts(data):
    A = data.draw(algebras())
    E = data.draw(modules(A))
    R, q = A.ring, E.rank
    gens = data.draw(st.lists(elements(A), min_size=1, max_size=2))
    if E.ncols and data.draw(st.booleans()):
        # g + 1 for a relation entry g: on A/(g) this is a unit
        gens.append(E.presentation[0][0] + R.one())
    a = AIdeal(A, gens)
    span = E.base_vectors() + scalar_columns(a.gens, q, R)
    lifts = all(module_membership([e_t], span)[0] is not None
                for e_t in scalar_columns([R.one()], q, R))
    assert ideal_times_module_is_module(a, E) == lifts
