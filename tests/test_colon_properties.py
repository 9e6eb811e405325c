"""Property tests for the syzygy colon `groebner.module_colon` and the
colon chains built on it.

Rank 1 is checked against the elimination colon of `colon_oracle`; rank 2
against the defining property of (W : a); `saturation` and
`radical_membership` against the oracle's chain of elimination colons.
Skipped when `hypothesis` is not installed.

Polynomials have degree at most 2 in each of x, y, z, with at most three
terms.  For rank 2 that bound rests on sugar selection in the Buchberger
loop: the 60 trinomial examples take about 0.25 s, while with the older
normal selection (smallest lcm first) lex module bases over Q such as
that of W + a R^2 for
W = [[xy + 3yz^2 + 2z^2, -y^2z], [-2xz^2 + 2y^2 - 2, -3x^2yz^2 + 3xz + 2]]
and a = -2x^2z^2 - 2xy^2z^2 + 3y^2z^2 ran for minutes, and the suite
drew two-term polynomials.

The saturation cases take binomial I and f: 0.3-0.4 s for 60 examples on a
2-vCPU host.  With trinomial I the property took 2.2 s there, of which the
lex-elimination oracle was 1.1 s and the library (saturation and radical
membership) 0.8 s, so the oracle's cost is the larger share of that limit.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from colon_oracle import (ideal_colon_poly, ideal_intersection,  # noqa: E402
                          saturation_by_iteration)
from ffr.groebner import (IdealGens, ModuleBasis, ideal_colon,  # noqa: E402
                          ideal_equal, module_colon, radical_membership,
                          saturation)
from ffr.ring import CoefField, PolyRing, QQ, parse_poly  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

rings = st.builds(PolyRing, st.sampled_from([QQ, CoefField(32003)]),
                  st.just(["x", "y", "z"]),
                  st.sampled_from(["grevlex", "lex"]))
terms = st.tuples(st.integers(-3, 3).filter(bool),
                  *[st.integers(0, 2)] * 3)


def polys_of(max_terms):
    return st.lists(terms, min_size=1, max_size=max_terms).map(
        lambda ts: " + ".join(f"({c})*x^{a}*y^{b}*z^{d}" for c, a, b, d in ts))


binomials = polys_of(2)
trinomials = polys_of(3)


@st.composite
def colon_cases(draw):
    """A ring, generators of I, and 1-3 generators of J, some of them zero
    or in I."""
    R = draw(rings)
    I = [parse_poly(s, R) for s in draw(st.lists(trinomials, min_size=1,
                                                 max_size=3))]
    J = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["poly", "zero", "in-I"]))
        if kind == "zero":
            J.append(R.zero())
        elif kind == "in-I":
            J.append(parse_poly(draw(trinomials), R) * draw(st.sampled_from(I)))
        else:
            J.append(parse_poly(draw(trinomials), R))
    return R, I, J


@SETTINGS
@given(colon_cases())
def test_ideal_colon_matches_elimination_oracle(case):
    R, I, J = case
    ideal = IdealGens(R, I)
    expected = IdealGens(R, [R.one()])
    for f in J:
        expected = ideal_intersection(expected, ideal_colon_poly(ideal, f))
    assert ideal_equal(ideal_colon(ideal, IdealGens(R, J)), expected)


@st.composite
def rank2_cases(draw):
    """A ring, 1-2 vectors spanning W in R^2, and 1-2 generators of a, some
    of them zero."""
    R = draw(rings)
    vectors = st.tuples(trinomials, trinomials).map(
        lambda v: [parse_poly(s, R) for s in v])
    W = draw(st.lists(vectors, min_size=1, max_size=2))
    a = draw(st.lists(st.one_of(st.just(R.zero()),
                                trinomials.map(lambda s: parse_poly(s, R))),
                      min_size=1, max_size=2))
    return R, W, a


@SETTINGS
@given(rank2_cases())
def test_rank2_colon_is_the_colon_module(case):
    R, W, a = case
    colon = module_colon(W, a, 2, R)
    basis_W = ModuleBasis(R, 2, W)
    for x in colon:
        for g in a:
            assert basis_W.contains([g * p for p in x])
    basis_colon = ModuleBasis(R, 2, colon)
    for w in W:
        assert basis_colon.contains(w)


@st.composite
def saturation_cases(draw):
    """A ring, 1-3 binomial generators of I, and a binomial f."""
    R = draw(rings)
    I = [parse_poly(s, R) for s in draw(st.lists(binomials, min_size=1,
                                                 max_size=3))]
    return R, I, parse_poly(draw(binomials), R)


@SETTINGS
@given(saturation_cases())
def test_saturation_matches_elimination_chain(case):
    R, I, f = case
    ideal = IdealGens(R, I)
    expected = saturation_by_iteration(ideal, f)
    assert ideal_equal(saturation(ideal, f), expected)
    assert radical_membership(f, ideal) == expected.groebner().is_unit_ideal()
