"""The Poly-arithmetic polynomial parser, kept as an oracle for
`ffr.ring.parse_poly`.

Every number is a `PolyRing.const`, every variable a `PolyRing.var`, every
`^` a `Poly.__pow__`, every `*` a `PolyRing.dot` and every `+`/`-` a new
`Poly`: slow, but each step is plain `Poly` arithmetic.  It accepts the
same grammar (docs/schemas.md) and gives the same terms in the same order.
"""

from fractions import Fraction

from ffr.ring import ParseError, Poly, PolyRing


def _tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch in " \t\n":
            i += 1
        elif ch in "+-*^/()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(("num", int(src[i:j])))
            i = j
        elif ch.isalpha() or ch == "_" or ch == "#":
            j = i
            while j < n and (src[j].isalpha() or src[j].isdigit()
                             or src[j] in "_#"):
                j += 1
            tokens.append(("name", src[i:j]))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
    return tokens


class _Parser:
    def __init__(self, tokens, ring: PolyRing):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        t = self.peek()
        self.pos += 1
        return t

    def expr(self) -> Poly:
        sign = 1
        t = self.peek()
        if t in ("+", "-"):
            self.next()
            sign = -1 if t == "-" else 1
        p = self.term()
        if sign < 0:
            p = -p
        while self.peek() in ("+", "-"):
            op = self.next()
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Poly:
        p = self.factor()
        while self.peek() == "*":
            self.next()
            p = p * self.factor()
        return p

    def factor(self) -> Poly:
        sign = 1
        while self.peek() == "-":
            self.next()
            sign = -sign
        p = self.primary()
        if self.peek() == "^":
            self.next()
            t = self.next()
            if not (isinstance(t, tuple) and t[0] == "num"):
                raise ParseError("malformed exponent")
            p = p ** t[1]
        return p if sign > 0 else -p

    def primary(self) -> Poly:
        t = self.next()
        if t is None:
            raise ParseError("unexpected end of input")
        if t == "(":
            p = self.expr()
            if self.next() != ")":
                raise ParseError("missing ')'")
            return p
        if isinstance(t, tuple) and t[0] == "num":
            num = t[1]
            if self.peek() == "/":
                self.next()
                d = self.next()
                if not (isinstance(d, tuple) and d[0] == "num"):
                    raise ParseError("malformed rational literal")
                den = d[1]
                p = self.ring.field.p
                if p and den % p == 0:
                    raise ParseError(
                        f"denominator {den} is zero in characteristic {p}")
                return self.ring.const(Fraction(num, den))
            return self.ring.const(num)
        if isinstance(t, tuple) and t[0] == "name":
            name = t[1]
            if name not in self.ring._vindex:
                raise ParseError(f"unknown variable {name!r}")
            return self.ring.var(name)
        raise ParseError(f"unexpected token {t!r}")


def parse_poly(src: str, ring: PolyRing) -> Poly:
    """Parse `+ - * ^` syntax with integer (or int/int) coefficients."""
    tokens = _tokenize(src)
    if not tokens:
        raise ParseError("empty input")
    parser = _Parser(tokens, ring)
    p = parser.expr()
    if parser.peek() is not None:
        raise ParseError(f"trailing input at token {parser.peek()!r}")
    return p
