"""Property tests for `depth.depth_at_least` and `depth.depth_value`, which
try the specialized sequence f_i = g_1 + i g_2 + ... + i^(s-1) g_s in the
base ring first and fall back to the Kronecker sequence.

Properties over Q, F_32003 and F_7 (where the coefficient table i^(j-1)
mod 7 is coarser):

- a specialized sequence that is E-regular makes the Kronecker sequence of
  the same length E-regular too, as both decide Gr(a, E) >= k;
- a negative certificate is the Kronecker-only one: the same failing stage
  and the same witness text;
- `depth_value` equals a Kronecker-only oracle, and does not change when
  x, y and z are permuted;
- on free modules of rank 1 or 2, where `depth_value` decides by the
  depth-dimension bracket, it equals the same oracle;
- `depth_dim_identity` reports the bracket: its dimension is
  `quotient_dimension`, its depth is `depth_value`, and its lower bound is
  the `depth_at_least` certificate of that length;
- `is_completely_secant` equals `depth_at_least` of the sequence's length
  on free modules over k[x, y, z], on a quotient algebra k[x, y, z]/(h)
  and on presented modules A/(h).

Two pinned cases over F_2 and F_3 have a coefficient table that collides
mod p, so the specialized sequence fails and the fallback decides.

Ideals have 1-3 generators in x, y, z of one or two terms, each exponent
at most 2; k is 1-3; E is A, A/(h) for one such h, or A/(f_i) for one
element of the specialized sequence, so that the fallback decides
positive verdicts too.  Skipped when
`hypothesis` is not installed.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ffr.algebra import (AIdeal, AModule, FPAlgebra,  # noqa: E402
                         ideal_times_module_is_module, quotient_dimension)
from ffr.depth import (INFINITY, depth_at_least,  # noqa: E402
                       depth_dim_identity, depth_value,
                       is_completely_secant, is_E_regular_sequence,
                       kronecker_sequence, same_depth_generators,
                       specialized_sequence)
from ffr.ring import CoefField, PolyRing, QQ, parse_poly  # noqa: E402

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

terms = st.tuples(st.integers(-3, 3).filter(bool), *[st.integers(0, 2)] * 3)
polys = st.lists(terms, min_size=1, max_size=2).map(
    lambda ts: " + ".join(f"({c})*x^{a}*y^{b}*z^{d}" for c, a, b, d in ts))


@st.composite
def depth_cases(draw):
    """An ideal a, a module E over the same algebra and a length k."""
    field = draw(st.sampled_from([QQ, CoefField(32003), CoefField(7)]))
    R = PolyRing(field, ["x", "y", "z"])
    A = FPAlgebra(R, [])
    a = AIdeal(A, [parse_poly(s, R)
                   for s in draw(st.lists(polys, min_size=1, max_size=3))])
    k = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["free", "quotient", "killed"]))
    if kind == "free":
        return a, AModule.free(A, 1), k
    if kind == "quotient":
        h = parse_poly(draw(polys), R)
    else:  # E = A/(f_i): the specialized sequence fails, Kronecker decides
        h = draw(st.sampled_from(
            specialized_sequence(same_depth_generators(a), k)))
    return a, AModule(A, 1, [AIdeal(A, [h]).gens]), k


def kronecker_only(a, E, k):
    ks = kronecker_sequence(same_depth_generators(a), k)
    return is_E_regular_sequence(ks.polys, E.transport(ks.extended_algebra))


@SETTINGS
@given(depth_cases())
def test_specialized_regular_implies_kronecker_regular(case):
    a, E, k = case
    gens = same_depth_generators(a)
    if is_E_regular_sequence(specialized_sequence(gens, k), E).holds:
        assert kronecker_only(a, E, k).holds


@SETTINGS
@given(depth_cases())
def test_negative_certificate_is_the_kronecker_one(case):
    a, E, k = case
    cert = depth_at_least(a, E, k)
    kron = kronecker_only(a, E, k)
    assert cert.holds == kron.holds
    if not cert.holds:
        assert cert.fail_stage == kron.fail_stage
        assert list(map(str, cert.witness)) == list(map(str, kron.witness))
        assert cert.sequence == kron.sequence


def kronecker_only_value(a, E):
    """Gr(a, E) on the Kronecker sequence alone: its first failing stage j
    pins the depth at j - 1."""
    if ideal_times_module_is_module(a, E):
        return INFINITY
    reduced = same_depth_generators(a)
    k = min(len(a.gens), len(reduced.gens))
    if k == 0:
        return 0
    cert = kronecker_only(a, E, k)
    return k if cert.holds else cert.fail_stage - 1


@SETTINGS
@given(depth_cases())
def test_depth_value_is_the_kronecker_value(case):
    a, E, _ = case
    assert depth_value(a, E) == kronecker_only_value(a, E)


@st.composite
def free_cases(draw):
    """An ideal a of k[x, y, z] and a free module of rank 1 or 2."""
    field = draw(st.sampled_from([QQ, CoefField(32003), CoefField(7)]))
    R = PolyRing(field, ["x", "y", "z"])
    A = FPAlgebra(R, [])
    a = AIdeal(A, [parse_poly(s, R)
                   for s in draw(st.lists(polys, min_size=1, max_size=3))])
    return a, AModule.free(A, draw(st.integers(1, 2)))


@SETTINGS
@given(free_cases())
def test_bracket_value_is_the_kronecker_value(case):
    # the depth-dimension bracket against the Kronecker-only oracle
    a, E = case
    assert depth_value(a, E) == kronecker_only_value(a, E)


@SETTINGS
@given(free_cases())
def test_depth_dim_identity_is_the_bracket(case):
    a, _ = case
    A = a.algebra
    E = AModule.free(A, 1)
    rep = depth_dim_identity(a)
    r = quotient_dimension(A, a)
    assert rep.holds and rep.quotient_dim == r
    if r == -1:
        assert rep.unit_ideal and depth_value(a, E) == INFINITY
        return
    assert rep.expected_depth == depth_value(a, E) == A.ring.n - r
    assert len(rep.independent_set) == r
    assert rep.lower == depth_at_least(a, E, rep.expected_depth)


@st.composite
def secant_cases(draw):
    """1-3 polys and a module: free of rank 1 or 2 over k[x, y, z], free
    of rank 1 over k[x, y, z]/(h), or A/(h) over k[x, y, z]."""
    field = draw(st.sampled_from([QQ, CoefField(32003), CoefField(7)]))
    R = PolyRing(field, ["x", "y", "z"])
    seq = [parse_poly(s, R)
           for s in draw(st.lists(polys, min_size=1, max_size=3))]
    kind = draw(st.sampled_from(["free", "algebra", "presented"]))
    if kind == "free":
        return seq, AModule.free(FPAlgebra(R, []), draw(st.integers(1, 2)))
    h = parse_poly(draw(polys), R)
    if kind == "algebra":
        return seq, AModule.free(FPAlgebra(R, [h]), 1)
    A = FPAlgebra(R, [])
    return seq, AModule(A, 1, [AIdeal(A, [h]).gens])


@SETTINGS
@given(secant_cases())
def test_completely_secant_is_depth_at_least_its_length(case):
    # the oracle is the route that decided it before: depth_at_least of
    # length len(seq), which runs a Kronecker sequence on every negative
    seq, E = case
    oracle = depth_at_least(AIdeal(E.algebra, seq), E, len(seq)).holds
    assert is_completely_secant(seq, E) == oracle


def permuted(a, E, names):
    """a and E with x, y, z renamed to `names`, in a fresh ring."""
    R = PolyRing(a.algebra.ring.field, names)
    A = FPAlgebra(R, [])

    def move(p):
        return parse_poly(str(p), R)
    return (AIdeal(A, [move(g) for g in a.gens]),
            AModule(A, E.rank, [[move(p) for p in row]
                                for row in E.presentation]))


@SETTINGS
@given(depth_cases(), st.permutations(["x", "y", "z"]))
def test_depth_value_is_invariant_under_permuting_variables(case, names):
    a, E, _ = case
    assert depth_value(*permuted(a, E, names)) == depth_value(a, E)


@pytest.mark.parametrize("p, names", [(2, ["x", "y", "z"]),
                                      (3, ["x", "y", "z", "w"])])
def test_depth_value_when_the_coefficient_table_collides(p, names):
    # t_i = i mod p repeats after p steps, so f_1 = f_(p+1) (over F_2:
    # f_1 = f_3 = x + y + z) and the Kronecker fallback decides the value
    R = PolyRing(CoefField(p), names)
    A = FPAlgebra(R, [])
    a = AIdeal(A, [R.var(v) for v in names])
    E = AModule.free(A, 1)
    f = specialized_sequence(same_depth_generators(a), len(names))
    assert f[0] == f[p]
    assert not is_E_regular_sequence(f, E).holds
    assert depth_value(a, E) == len(names) == kronecker_only_value(a, E)
