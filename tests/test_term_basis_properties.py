"""Property test of Groebner runs whose inputs are single terms.

When every generator is one term c x^a e_i, the reduced basis is the set
of minimal terms x^a e_i (no other generator term of the same position
divides them), made monic, in descending position-over-term order.  The
oracle below computes that from exponent tuples alone; the library must
agree over Q and F_32003, in every monomial order, at rank 1 (an ideal)
and rank 2 (a submodule).  Generators repeat with scalings by +-c, and
exponents of 40 and more do not fit the 6-bit fields a run starts with,
so such runs restart wider.  Skipped when `hypothesis` is not installed.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ffr.groebner import IdealGens, ModuleBasis  # noqa: E402
from ffr.ring import CoefField, Poly, PolyRing, QQ  # noqa: E402

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

FIELDS = {"Q": QQ, "F_32003": CoefField(32003)}

exponents = st.integers(0, 3) | st.integers(40, 70)
terms = st.tuples(st.integers(0, 1), st.tuples(*[exponents] * 3),
                  st.builds(Fraction, st.integers(-4, 4).filter(bool),
                            st.integers(1, 3)))
# (index into the drawn terms, factor): a copy of a term scaled by +-factor
copies = st.tuples(st.integers(0, 20),
                   st.sampled_from([1, -1, 2, -3, Fraction(1, 2)]))


def _divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def minimal_terms(drawn, R: PolyRing, rank: int) -> list:
    """The minimal (position, exponent) pairs of the drawn terms, in
    descending position-over-term order: position 0 first, then the ring
    order."""
    support = {(pos % rank, mono) for pos, mono, _ in drawn}
    kept = [(pos, m) for pos, m in support
            if not any(q == pos and d != m and _divides(d, m)
                       for q, d in support)]
    return sorted(kept, key=lambda t: (-t[0], R.mono_key(t[1])),
                  reverse=True)


@SETTINGS
@given(st.sampled_from(sorted(FIELDS)),
       st.sampled_from(["grevlex", "grlex", "lex"]), st.sampled_from([1, 2]),
       st.lists(terms, min_size=1, max_size=7), st.lists(copies, max_size=4))
def test_term_generators_give_their_minimal_terms(field, order, rank, drawn,
                                                  scaled):
    F = FIELDS[field]
    R = PolyRing(F, ["x", "y", "z"], order)
    drawn = drawn + [(pos, mono, c * k) for i, k in scaled
                     for pos, mono, c in [drawn[i % len(drawn)]]]
    zero = R.zero()
    vectors = []
    for pos, mono, c in drawn:
        v = [zero] * rank
        v[pos % rank] = Poly(R, {mono: F.coerce(c)})
        vectors.append(v)
    want = []
    for pos, mono in minimal_terms(drawn, R, rank):
        v = [zero] * rank
        v[pos] = Poly(R, {mono: F.one()})
        want.append(tuple(v))
    if rank == 1:
        G = IdealGens(R, [v[0] for v in vectors]).groebner()
        got, pack = tuple((g,) for g in G.basis), G._red.pack
    else:
        B = ModuleBasis(R, rank, vectors)
        got, pack = B.vectors, B._red.pack
    assert got == tuple(want)
    # a field holds at most 2^(w-1) - 1: an exponent of 40 or more (and,
    # in grevlex or grlex, a degree of 32 or more) needs a wider run
    if any(max(mono) >= 40 for _, mono, _ in drawn):
        assert pack.w > 6
