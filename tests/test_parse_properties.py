"""`ffr.ring.parse_poly` against the Poly-arithmetic parser of
`parse_oracle`, on seeded random polynomial text.

An accepted input must give the same terms, coefficient types included, in
the same order; a rejected one must raise `ParseError`.  The oracle refuses
a zero denominator over Q with `ZeroDivisionError` and a digit that `int()`
cannot read with `ValueError`; `parse_poly` refuses both with `ParseError`.
"""

import random
from fractions import Fraction

import pytest

import parse_oracle
from ffr.ring import (CoefField, ParseError, PolyRing, QQ, RingMismatchError,
                      parse_poly)

RINGS = {f"{name}-{order}": PolyRing(field, ["x", "y", "z"], order)
         for name, field in (("Q", QQ), ("F3", CoefField(3)),
                             ("F7", CoefField(7)))
         for order in ("grevlex", "lex")}
REFUSED = (ParseError, ZeroDivisionError, ValueError)


def outcome(parse, src, R):
    """The terms with their coefficient types, or the refusal's class."""
    try:
        return [(m, type(c), c) for m, c in parse(src, R).terms.items()]
    except REFUSED as exc:
        return type(exc)


def assert_same(src, R):
    want, got = outcome(parse_oracle.parse_poly, src, R), outcome(
        parse_poly, src, R)
    if isinstance(want, type):
        assert got is ParseError, (src, want, got)
    else:
        assert got == want, src


def blank(rng):
    return rng.choice(["", "", " ", "  ", "\t", "\n"])


def number(rng):
    n = rng.choice([0, 1, 2, 3, 5, 6, 7, 12, 21, 49])
    if rng.random() < 0.3:
        return f"{n}/{rng.choice([1, 2, 3, 4, 6, 7, 9])}"
    return str(n)


def expr(rng, depth):
    """Random text of nesting depth `depth`: a sum of products of
    (possibly negated, possibly powered) numbers, variables and
    parenthesized sums."""
    out = [rng.choice(["", "", "-", "+"])]
    for i in range(rng.randint(1, 3)):
        if i:
            out.append(blank(rng) + rng.choice("+-") + blank(rng))
        factors = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if depth and kind < 0.4:
                f = "(" + blank(rng) + expr(rng, depth - 1) + blank(rng) + ")"
            elif kind < 0.65:
                f = number(rng)
            elif kind < 0.7:
                f = "0^0"
            else:
                f = rng.choice("xyz")
            if rng.random() < 0.3:
                f += f"^{rng.randint(0, 3)}"
            factors.append("-" * rng.choice([0, 0, 0, 1, 2, 3]) + f)
        out.append((blank(rng) + "*" + blank(rng)).join(factors))
    return "".join(out)


def deep(rng):
    """Nesting depth at least 2: a power of a parenthesized sum that holds
    another one."""
    inner = f"({expr(rng, 1)} + ({expr(rng, 1)})^{rng.randint(1, 2)})"
    return f"{expr(rng, 1)} - {number(rng)}*{inner}^{rng.randint(1, 3)}"


def broken(rng, src):
    """src with one edit at a random place, most of which are refused."""
    i = rng.randrange(len(src) + 1)
    edit = rng.choice(["(", ")", "^", "*", "/", "+", "-", "!", "w", "1/0",
                       "^-1", "2x", "²", "\r", "", "x^", "/x"])
    cut = rng.choice([0, 0, 1])
    return src[:i] + edit + src[i + cut:]


@pytest.mark.parametrize("name", sorted(RINGS))
def test_parser_matches_oracle(name):
    R = RINGS[name]
    rng = random.Random(f"parse-{name}")
    for _ in range(120):
        src = deep(rng)
        assert_same(src, R)
        assert_same(broken(rng, src), R)
        assert_same(expr(rng, 2), R)


def test_edge_texts_match_oracle():
    for R in RINGS.values():
        for src in ["0", "0^0", "-0^0", "--x", "+-x", "-+x", "x++y",
                    "x*-y", "---(x-y)^2", "(x-x)^0", "(x-x)*(y+1)",
                    "1/2^3", "2^3/4", "x^2^3", "x^-1", "x^", "x/2", "1/x",
                    "()", "(x", "x)", "", "  \t\n", "x y", "2x", "x 2",
                    "1/0", "3/3", "1/7", "14/6*x", "x - x + x", "²", "1²",
                    "x\r", "١٢*x^١"]:
            assert_same(src, R)


def test_unicode_names_match_oracle():
    # names the old tokenizer splits or reads as digits are refused in text,
    # and a ring cannot declare them
    for name in ["x½", "²", "+", ""]:
        with pytest.raises(ValueError, match="not a name"):
            PolyRing(QQ, ["x", name])
    R = PolyRing(QQ, ["x", "α", "x²", "_a#1"])
    for src in ["α*x", "α^2 - x²", "x½", "x½*2", "²", "x*²", "+", "x*+",
                "_a#1^2", "x*", "x²x"]:
        assert_same(src, R)


def test_dense_expanded_polynomial_matches_oracle():
    rng = random.Random(7)
    monos = [tuple(rng.randint(0, 9) for _ in range(3)) for _ in range(300)]
    chunks = []
    for i, m in enumerate(monos + rng.sample(monos, 40)):  # some repeat
        c = Fraction(rng.randint(1, 99), rng.choice([1, 1, 2, 5]))
        mono = "*".join(f"{v}^{e}" for v, e in zip("xyz", m) if e) or "1"
        sign = rng.choice("+-")
        chunks.append(f"{'' if i == 0 and sign == '+' else sign} {c}*{mono}")
    src = " ".join(chunks)
    for R in RINGS.values():
        assert_same(src, R)
    assert len(parse_poly(src, RINGS["Q-grevlex"]).terms) >= 200


def drawn_poly(rng, R):
    """The first of the seeded random texts above that R accepts."""
    while True:
        try:
            return parse_poly(deep(rng) if rng.random() < 0.5
                              else expr(rng, 2), R)
        except ParseError:
            continue


@pytest.mark.parametrize("p", [0, 32003, 2])
def test_subtraction_adds_the_negation(p):
    R = PolyRing(CoefField(p), ["x", "y", "z"])
    S = PolyRing(CoefField(p), ["x", "y", "w"])
    rng = random.Random(f"sub-{p}")
    for _ in range(60):
        f, g = drawn_poly(rng, R), drawn_poly(rng, R)
        d = f - g
        assert d == f + (-g) and all(d.terms.values())
        assert d + g == f and (f - f).is_zero
        with pytest.raises(RingMismatchError):
            f - drawn_poly(rng, S)
