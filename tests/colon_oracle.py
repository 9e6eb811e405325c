"""Elimination oracles for the colon engine `ffr.groebner.module_colon` and
for `ffr.groebner.saturation`, independent of the syzygy engine.

I cap J is computed by eliminating a fresh variable t from
t I + (1 - t) J in PolyRing(field, [t] + vars, "lex"): lex with t first is
an elimination order for t (`ideal_intersection`).  (I : f) is
(1/f) (I cap <f>), each generator divided by f exactly, and (I : f^inf)
is the chain of those colons until it stabilizes.
"""

from ffr.groebner import IdealGens, ideal_equal
from ffr.ring import (Poly, PolyRing, RingMismatchError, mono_div,
                      mono_divides)


def ideal_intersection(I: IdealGens, J: IdealGens) -> IdealGens:
    """I cap J, from the t-free elements of a lex basis with t first."""
    R = I.ring
    if J.ring != R:
        raise RingMismatchError("ideals over different rings")
    lex = PolyRing(R.field, R.fresh_names(1, "t") + list(R.vars), "lex",
                   _allow_reserved=True)
    t, one = lex.var(0), lex.one()

    def up(g):
        return Poly(lex, {(0,) + m: c for m, c in g.terms.items()},
                    _trusted=True)

    gens = [t * up(g) for g in I.gens] + [(one - t) * up(g) for g in J.gens]
    basis = IdealGens(lex, gens).groebner().basis
    return IdealGens(R, [Poly(R, {m[1:]: c for m, c in g.terms.items()},
                              _trusted=True)
                         for g in basis if not any(m[0] for m in g.terms)])


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
        c = field.mul(rc, field.inv(fc))
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


def saturation_by_iteration(I: IdealGens, f: Poly) -> IdealGens:
    """The chain (I : f) subseteq (I : f^2) ... until it stabilizes."""
    current = I
    while True:
        nxt = ideal_colon_poly(current, f)
        if ideal_equal(nxt, current):
            return current
        current = nxt
