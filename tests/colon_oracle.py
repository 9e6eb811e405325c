"""The elimination colon, kept as an independent oracle for the syzygy
colon `ffr.groebner.module_colon`.

(I : f) = (1/f) (I cap <f>), with the intersection computed by eliminating
a fresh variable t from t I + (1 - t) <f> (`ideal_intersection`) and each
generator divided by f exactly.
"""

from ffr.groebner import IdealGens, ideal_intersection
from ffr.ring import Poly, mono_div, mono_divides


def exact_div(g: Poly, f: Poly) -> Poly:
    """Quotient g/f when f divides g exactly; raises ValueError otherwise."""
    if f.is_zero:
        raise ValueError("division by zero polynomial")
    R = g.ring
    field = R.field
    q = R.zero()
    r = g
    fm, fc = f.lt()
    while not r.is_zero:
        rm, rc = r.lt()
        if not mono_divides(fm, rm):
            raise ValueError("not an exact multiple")
        c = field.div(rc, fc)
        m = mono_div(rm, fm)
        term = Poly(R, {m: c})
        q = q + term
        r = r - term * f
    return q


def ideal_colon_poly(I: IdealGens, f: Poly) -> IdealGens:
    """(I : f) = (1/f) (I cap <f>); (I : 0) is the unit ideal."""
    if f.is_zero:
        return IdealGens(I.ring, [I.ring.one()])
    inter = ideal_intersection(I, IdealGens(I.ring, [f]))
    return IdealGens(I.ring, [exact_div(g, f) for g in inter.gens])
