"""Differential property: reduced bases over Q against F_32003.

For G the reduced basis over Q of generators F, take p = 32003 with no
denominator of G divisible by p.  Every element of G is monic with
coefficients in Z localized at p, and dividing by such monic polynomials
never divides by p, so the image of G mod p is the reduced basis over F_p
of the ideal it generates.  When also the lifts g = sum h_f f of the
elements of G over Q have no denominator divisible by p, the images of F
generate the same ideal mod p, and their reduced basis over F_p is the
image of G.  This is the check a modular Groebner run (CRT and rational
reconstruction) rests on.  Skipped when `hypothesis` is not installed.

Generators: 1-3 of them in x, y, z, up to three terms of degree at most
2 in each variable, with coefficients n/d for n in -3..3 and d in 1..4,
some times a common integer content.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ffr.groebner import IdealGens, module_membership  # noqa: E402
from ffr.ring import CoefField, Poly, PolyRing, QQ  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

P = 32003
FP = CoefField(P)

coefficients = st.builds(Fraction, st.integers(-3, 3).filter(bool),
                         st.integers(1, 4))
monomials = st.tuples(*[st.integers(0, 2)] * 3)
polys = st.tuples(st.dictionaries(monomials, coefficients, min_size=1,
                                  max_size=3),
                  st.sampled_from([1, 1, 6, 35]))


def _mod_p(f: Poly, Rp: PolyRing) -> Poly:
    return Poly(Rp, {m: FP.coerce(c) for m, c in f.terms.items()})


def _p_integral(polys) -> bool:
    return all(c.denominator % P for f in polys for c in f.terms.values())


@SETTINGS
@given(st.sampled_from(["grevlex", "lex", "grlex"]),
       st.lists(polys, min_size=1, max_size=3))
def test_basis_over_q_maps_to_basis_over_fp(order, drawn):
    R = PolyRing(QQ, ["x", "y", "z"], order)
    Rp = PolyRing(FP, ["x", "y", "z"], order)
    gens = [Poly(R, {m: c * k for m, c in terms.items()})
            for terms, k in drawn]
    G = IdealGens(R, gens).groebner().basis
    assume(_p_integral(G))
    image = tuple(_mod_p(g, Rp) for g in G)
    assert IdealGens(Rp, list(image)).groebner().basis == image
    lifts = [module_membership([[g]], [[f] for f in gens])[0] for g in G]
    assume(all(_p_integral(h) for h in lifts))
    fp_gens = [_mod_p(f, Rp) for f in gens]
    assert IdealGens(Rp, fp_gens).groebner().basis == image
