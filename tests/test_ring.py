import random
import re

from fractions import Fraction

import pytest

from ffr.ring import (CoefField, ParseError, Poly, PolyRing, QQ,
                      RingMismatchError, content_ideal, format_poly,
                      kronecker_poly, parse_poly)


def ring_qq(*vars, order="grevlex"):
    return PolyRing(QQ, vars, order)


def test_parse_zero():
    R = ring_qq("x", "y")
    assert parse_poly("0", R).is_zero


def test_const_zero():
    assert ring_qq("x").const(0).is_zero
    R = PolyRing(CoefField(7), ["x"])
    assert R.const(7).is_zero and R.const(7) == R.zero()
    assert R.const(8) == R.one()


def test_parse_basic():
    R = ring_qq("x", "y")
    p = parse_poly("x^2*y - 2", R)
    assert p.terms == {(2, 1): Fraction(1), (0, 0): Fraction(-2)}


def test_parse_mod_p_collapse():
    R = PolyRing(CoefField(3), ["x"])
    assert parse_poly("3*x", R).is_zero


def test_composite_modulus_rejected_by_miller_rabin():
    # 2501 = 41*61 has no factor up to 37, and 3215031751 is a strong
    # pseudoprime to the bases 2, 3, 5 and 7
    for n in (2501, 3215031751):
        with pytest.raises(ValueError):
            CoefField(n)
    assert CoefField(2147483647).p == 2147483647


def test_parse_parens_and_unary_minus():
    R = ring_qq("x", "y")
    assert parse_poly("x*(y-1)", R) == parse_poly("x*y - x", R)
    assert parse_poly("-x^2", R) == -parse_poly("x^2", R)
    assert parse_poly("(x+y)^2", R) == parse_poly("x^2+2*x*y+y^2", R)


def test_parse_errors():
    R = ring_qq("x")
    with pytest.raises(ParseError):
        parse_poly("z + 1", R)
    with pytest.raises(ParseError):
        parse_poly("x^", R)
    with pytest.raises(ParseError):
        parse_poly("1/3", PolyRing(CoefField(3), ["x"]))
    # a zero denominator over Q, and a digit int() cannot read
    with pytest.raises(ParseError):
        parse_poly("1/0", R)
    with pytest.raises(ParseError):
        parse_poly("²", R)


def test_parse_refuses_parentheses_nested_too_deeply():
    # past the interpreter's recursion limit the parser refuses the text
    # instead of raising RecursionError
    R = ring_qq("x")
    assert parse_poly("(" * 300 + "x" + ")" * 300, R) == R.var("x")
    with pytest.raises(ParseError, match="^parentheses nested too deeply$"):
        parse_poly("(" * 5000 + "x" + ")" * 5000, R)


def test_reserved_prefix_rejected():
    with pytest.raises(ValueError):
        PolyRing(QQ, ["#k0"])


def test_variable_names_must_be_name_tokens():
    # a name no polynomial text can write is refused: blanks, a leading
    # digit, a sign or an empty name
    for name in ["y z", "2", "+", "", " x", "x-1", "x ", "1x", "x½"]:
        with pytest.raises(ValueError, match="not a name"):
            PolyRing(QQ, ["x", name])
    R = PolyRing(QQ, ["a1", "x_2", "α", "x²", "_b#1"])
    for name in R.vars:
        assert parse_poly(name, R) == R.var(name)
    # a reserved name is a name token, but still needs _allow_reserved
    assert PolyRing(QQ, ["#k0"], _allow_reserved=True).vars == ("#k0",)


def test_print_parse_round_trip():
    rng = random.Random(7)
    R = ring_qq("x", "y", "z")
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            m = tuple(rng.randint(0, 3) for _ in range(3))
            terms[m] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        p = Poly(R, terms)
        assert parse_poly(format_poly(p), R) == p


def test_fraction_coefficients_mod_p_are_residues():
    R = PolyRing(CoefField(7), ["x"])
    x = R.var("x")
    half = x * Fraction(1, 2)
    cases = [half, R.const(Fraction(1, 2)), half + half]
    for p in cases:
        assert all(type(c) is int and c in range(7) for c in p.terms.values())
    assert half == parse_poly("1/2*x", R) == Poly(R, {(1,): 4})
    assert cases[1] == R.const(4)
    assert cases[2] == x


def test_round_trip_mod_p():
    rng = random.Random(8)
    R = PolyRing(CoefField(7), ["x", "y"])
    for _ in range(40):
        terms = {tuple(rng.randint(0, 3) for _ in range(2)): rng.randint(1, 6)
                 for _ in range(rng.randint(0, 5))}
        p = Poly(R, terms)
        assert parse_poly(format_poly(p), R) == p


def test_arithmetic_examples():
    R = ring_qq("x", "y")
    x, y = R.gens()
    assert (x + y) * (x - y) == parse_poly("x^2 - y^2", R)
    f = parse_poly("x^3*y - 2*x + 1", R)
    assert (f * R.zero()).is_zero
    lhs = parse_poly("x+2*y", R) * parse_poly("x^2+x*y+y^2", R)
    assert lhs == parse_poly("x^3+3*x^2*y+3*x*y^2+2*y^3", R)


def test_ring_axioms_random():
    rng = random.Random(11)
    R = PolyRing(CoefField(5), ["x", "y"])

    def rand_poly():
        return Poly(R, {tuple(rng.randint(0, 2) for _ in range(2)):
                        rng.randint(1, 4) for _ in range(rng.randint(0, 4))})

    for _ in range(50):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_dot_empty_is_zero():
    R = ring_qq("x", "y")
    assert R.dot([], []) == R.zero()


def test_dot_full_cancellation_leaves_no_terms():
    R = ring_qq("x", "y")
    x, y = R.gens()
    assert R.dot([x, y], [y, -x]).terms == {}


def test_dot_rejects_other_ring():
    R, S = ring_qq("x", "y"), ring_qq("x", "z")
    p, q = R.var("x"), S.var("z")
    with pytest.raises(RingMismatchError):
        R.dot([p, R.one()], [p, q])
    with pytest.raises(RingMismatchError):
        R.dot([q], [p])
    with pytest.raises(RingMismatchError, match=f"^{re.escape(f'{R} vs {S}')}$"):
        p * q


@pytest.mark.parametrize("order", ["grevlex", "lex", "grlex"])
@pytest.mark.parametrize("p", [0, 32003])
def test_dot_is_sum_of_products(order, p):
    rng = random.Random(f"{order}{p}")
    R = PolyRing(CoefField(p), ["x", "y", "z"], order)

    def rand_poly():
        return Poly(R, {tuple(rng.randint(0, 2) for _ in range(3)):
                        R.field.coerce(rng.randint(-3, 3))
                        for _ in range(rng.randint(0, 5))})

    for _ in range(30):
        xs = [rand_poly() for _ in range(rng.randint(1, 4))]
        ys = [rand_poly() for _ in xs]
        expected = R.zero()
        for a, b in zip(xs, ys):
            expected = expected + a * b
        got = R.dot(xs, ys)
        assert got == expected
        assert all(got.terms.values())


def _mono_poly(R, m):
    return Poly(R, {m: R.field.one()})


@pytest.mark.parametrize("order", ["grevlex", "lex", "grlex"])
def test_monomial_order_axioms(order):
    # totality and multiplicativity on 200 random triples
    rng = random.Random(order)
    R = PolyRing(QQ, ["x", "y", "z"], order)
    key = R.mono_key
    for _ in range(200):
        a, b, c = (tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(3))
        assert (key(a) < key(b)) or (key(b) < key(a)) or a == b
        if key(a) <= key(b):
            assert key(mono_mul_(a, c)) <= key(mono_mul_(b, c))
        one = (0, 0, 0)
        assert key(one) <= key(a)


def mono_mul_(a, b):
    return tuple(x + y for x, y in zip(a, b))


def test_order_leading_terms_differ():
    R_lex = ring_qq("x", "y", order="lex")
    p = parse_poly("x + y^3", R_lex)
    assert p.lm() == (1, 0)
    R_grevlex = ring_qq("x", "y")
    q = parse_poly("x + y^3", R_grevlex)
    assert q.lm() == (0, 3)


def test_grevlex_tie_break():
    R = ring_qq("x", "y", "z")
    # same degree: grevlex prefers the monomial with less of the last variable
    a = parse_poly("x*z", R)
    b = parse_poly("y^2", R)
    assert (a + b).lm() == (0, 2, 0)


def test_content_ideal():
    R = ring_qq("x", "y")
    f = parse_poly("3*x^2 + 2*x*y", R)
    assert sorted(content_ideal(f)) == [Fraction(2), Fraction(3)]
    assert content_ideal(R.zero()) == []


def test_dedekind_mertens_and_content_containment():
    # c(f)^(m+1) c(g) = c(f)^m c(fg) with m = deg_T g, and c(fg) <= c(f)c(g),
    # for univariate-in-T polynomials over Q[x,y]
    from ffr.groebner import IdealGens, ideal_equal, ideal_product
    from ffr.ring import coefficients_in

    rng = random.Random(13)
    R = PolyRing(QQ, ["x", "y", "t"])
    xy_monos = [(a, b, 0) for a in range(2) for b in range(2)]

    def rand_in_t(deg):
        terms = {}
        for k in range(deg + 1):
            if rng.random() < 0.75:
                a, b, _ = rng.choice(xy_monos)
                terms[(a, b, k)] = Fraction(rng.randint(-2, 2))
        return Poly(R, terms)

    def content(p):
        return IdealGens(R, list(coefficients_in(p, 2).values()))

    checked = 0
    for _ in range(20):
        f = rand_in_t(rng.randint(0, 2))
        g = rand_in_t(rng.randint(0, 2))
        if f.is_zero or g.is_zero:
            continue
        m = max(e for (_, _, e) in g.terms)
        cf, cg, cfg = content(f), content(g), content(f * g)
        # containment c(fg) <= c(f) c(g)
        prod = ideal_product(cf, cg)
        gb_prod = prod.groebner()
        assert all(gb_prod.contains(h) for h in cfg.gens)
        # Dedekind-Mertens equality
        lhs = ideal_product(cg, cf)
        rhs = cfg
        for _ in range(m):
            lhs = ideal_product(lhs, cf)
            rhs = ideal_product(rhs, cf)
        assert ideal_equal(lhs, rhs)
        checked += 1
    assert checked >= 8


def test_kronecker_poly():
    R = ring_qq("x", "y", "t")
    x, y, t = R.gens()
    f = kronecker_poly([x, y], t)
    assert f.ring == R
    assert f == parse_poly("x + y*t", R)
    assert sorted(map(str, content_ideal(f))) == ["1", "1"]

    g = kronecker_poly([x], t)
    assert format_poly(g) == "x"

    z = kronecker_poly([], t)
    assert z.is_zero

    # t need not be the last variable
    h = kronecker_poly([x, t, x + t], y)
    assert h == parse_poly("x + t*y + (x + t)*y^2", R)


def unique_up_to_sign_quadratic(polys):
    """Oracle: the pairwise rule the ideal constructors used before."""
    seen = []
    for g in polys:
        if g.is_zero or any(g == h or g == -h for h in seen):
            continue
        seen.append(g)
    return seen


@pytest.mark.parametrize("p", [0, 32003, 2])
def test_unique_up_to_sign_matches_quadratic_rule(p):
    R = PolyRing(CoefField(p), ["x", "y"])
    rng = random.Random(p)
    monos = [(0, 0), (1, 0), (0, 1), (2, 1)]
    for _ in range(40):
        # few supports and coefficients, so buckets collide often
        base = [Poly(R, {m: R.field.coerce(rng.randint(-2, 2))
                         for m in rng.sample(monos, rng.randint(1, 2))})
                for _ in range(rng.randint(0, 6))]
        polys = base + [-g for g in base] + rng.sample(base, len(base) // 2)
        polys += [R.zero()] * rng.randint(0, 2)
        rng.shuffle(polys)
        got = R.unique_up_to_sign(polys)
        want = unique_up_to_sign_quadratic(polys)
        assert got == want
        assert all(a is b for a, b in zip(got, want))  # first occurrences


def test_unique_up_to_sign_rejects_other_ring():
    R, S = ring_qq("x"), ring_qq("y")
    with pytest.raises(RingMismatchError):
        R.unique_up_to_sign([R.var(0), S.var(0)])
