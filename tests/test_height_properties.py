"""Differential test of the prefix-height check against the colon stages.

Over k[X], which is Cohen-Macaulay, f_1..f_k is regular on a free module
of positive rank exactly when ht(f_1..f_j) >= j for every j, and the first
short prefix is the first failing colon stage.  `first_short_prefix` must
therefore agree with `is_E_regular_sequence` on every sequence: over Q and
F_32003, in grevlex, grlex and lex, on free modules of rank 1 and 2, for
1-3 non-homogeneous polynomials in x, y, z, and on explicit sequences.
Skipped when `hypothesis` is not installed.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ffr.algebra import AModule, FPAlgebra  # noqa: E402
from ffr.depth import first_short_prefix, is_E_regular_sequence  # noqa: E402
from ffr.ring import CoefField, Poly, PolyRing, QQ, parse_poly  # noqa: E402

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

FIELDS = {"Q": QQ, "F_32003": CoefField(32003)}
ORDERS = ["grevlex", "grlex", "lex"]


def assert_agree(seq, R, rank):
    cert = is_E_regular_sequence(seq, AModule.free(FPAlgebra(R, []), rank))
    short = first_short_prefix(seq, R)
    assert (short is None) == cert.holds
    assert short == cert.fail_stage
    return short


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("gens, short", [
    (["x", "y*(1-x)", "z*(1-x)"], None),
    # the same ideal (x, y, z), but y(1-x), z(1-x) lie in (1 - x)
    (["y*(1-x)", "z*(1-x)", "x"], 2),
])
def test_explicit_sequences(field, order, rank, gens, short):
    R = PolyRing(FIELDS[field], ["x", "y", "z"], order)
    seq = [parse_poly(g, R) for g in gens]
    assert assert_agree(seq, R, rank) == short


def test_unit_and_zero_prefixes():
    # the unit ideal has every height, as a colon stage passes it; a zero
    # polynomial on a nonzero quotient is short at once
    R = PolyRing(QQ, ["x", "y", "z"])
    one, zero, x = R.one(), R.zero(), R.var("x")
    assert assert_agree([one, zero, x], R, 1) is None
    assert assert_agree([x, zero], R, 2) == 2
    assert assert_agree([x, x], R, 1) == 2


terms = st.tuples(st.tuples(*[st.integers(0, 2)] * 3),
                  st.integers(-3, 3).filter(bool))
polys = st.lists(terms, min_size=1, max_size=3)


@SETTINGS
@given(st.sampled_from(sorted(FIELDS)), st.sampled_from(ORDERS),
       st.sampled_from([1, 2]), st.lists(polys, min_size=1, max_size=3))
def test_heights_agree_with_colon_stages(field, order, rank, drawn):
    F = FIELDS[field]
    R = PolyRing(F, ["x", "y", "z"], order)
    seq = [sum((Poly(R, {m: F.coerce(c)}) for m, c in p), R.zero())
           for p in drawn]
    assert_agree(seq, R, rank)
