"""Property tests for list lifts: `module_membership` and
`algebra_membership` lift a whole list of vectors over one tagged basis,
and each answer must be the one a one-element list gets.

The lists mix members (combinations of the generators, some multiplied
by x^40, of degree past the packed fields, so the shared table widens
partway through the list), drawn vectors that may or may not be members,
and zero vectors.  Rings are Q[x, y, z] and F_32003[x, y, z]; algebras
are their quotients by one drawn binomial.  Polynomials have at most two
terms, of degree at most 2 in each variable.  Skipped when `hypothesis`
is not installed.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ffr.algebra import FPAlgebra, algebra_membership  # noqa: E402
from ffr.groebner import module_membership  # noqa: E402
from ffr.ring import CoefField, PolyRing, QQ, parse_poly  # noqa: E402

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

rings = st.builds(PolyRing, st.sampled_from([QQ, CoefField(32003)]),
                  st.just(["x", "y", "z"]),
                  st.sampled_from(["grevlex", "lex"]))
terms = st.tuples(st.integers(-3, 3).filter(bool),
                  *[st.integers(0, 2)] * 3)
binomials = st.lists(terms, min_size=1, max_size=2).map(
    lambda ts: " + ".join(f"({c})*x^{a}*y^{b}*z^{d}" for c, a, b, d in ts))
KINDS = ["member", "high member", "drawn", "zero"]


@st.composite
def lift_problems(draw, relations):
    """(A, gens, kinds, vectors): 1-2 generators of rank 1-2 over A, the
    polynomial ring or (relations = 1) its quotient by one binomial, and
    0-5 vectors of the drawn kinds."""
    R = draw(rings)
    A = FPAlgebra(R, [parse_poly(s, R) for s in draw(
        st.lists(binomials, min_size=relations, max_size=relations))])
    polys = binomials.map(lambda s: parse_poly(s, R))
    rank = draw(st.integers(1, 2))
    vecs = st.lists(polys, min_size=rank, max_size=rank)
    gens = draw(st.lists(vecs, min_size=1, max_size=2))
    kinds = draw(st.lists(st.sampled_from(KINDS), max_size=5))
    vectors = []
    for kind in kinds:
        if kind == "zero":
            vectors.append([R.zero()] * rank)
        elif kind == "drawn":
            vectors.append(draw(vecs))
        else:
            cs = draw(st.lists(polys, min_size=len(gens),
                               max_size=len(gens)))
            if kind == "high member":
                cs = [c * R.var("x") ** 40 for c in cs]
            vectors.append([R.dot(cs, [g[j] for g in gens])
                            for j in range(rank)])
    return A, gens, kinds, vectors


@SETTINGS
@given(lift_problems(relations=0))
def test_module_membership_of_a_list_is_per_vector(problem):
    _, gens, kinds, vectors = problem
    lifts = module_membership(vectors, gens)
    assert lifts == [module_membership([v], gens)[0] for v in vectors]
    assert all(lift is not None
               for kind, lift in zip(kinds, lifts) if kind != "drawn")


@SETTINGS
@given(lift_problems(relations=1))
def test_algebra_membership_of_a_list_is_per_vector(problem):
    A, gens, kinds, vectors = problem
    lifts = algebra_membership(vectors, gens, A)
    assert lifts == [algebra_membership([v], gens, A)[0] for v in vectors]
    assert all(lift is not None
               for kind, lift in zip(kinds, lifts) if kind != "drawn")
