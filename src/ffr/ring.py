"""Exact sparse multivariate polynomial arithmetic over Q and F_p.

Monomials are exponent tuples, polynomials are dicts mapping monomials to
nonzero coefficients.  Everything is immutable after construction and all
arithmetic is exact: Fraction coefficients over Q, canonical residues over
a prime field.  `PolyRing.dot` is the one sum of products of `Poly`s: `*`,
pairings and matrix products all accumulate through it.

`_Pack` is the one packed-term codec, shared by the Groebner engine and
the minors table.  A term (pos, monomial) of A^rank is one int whose int
order is the POT order: rank-1-pos in the top bits, then w-bit fields
whose top bits are guard bits, clear in a term, holding the partial sums
s_n..s_2 (s_k = e_1+...+e_k) for grevlex, the total degree for grlex and
nothing for lex, then e_1..e_n.  A product of terms is the sum of their
ints, a quotient the difference, and m divides t (same position) iff
((t | G) - m) & G == G, G being the guard bits.  A term that does not fit
raises `_Overflow`; a product that sets a guard bit has overflowed, which
the caller rules out by its choice of w or checks for.  `_Pack.vec` packs
coordinate `Poly`s into an int vector d * v, d clearing their
denominators, and `_Pack.polys` unpacks an int vector over a scale into
coordinates with exact coefficients (`Fraction`s over Q).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from typing import Iterable, Sequence

RESERVED_PREFIX = "#k"

_ORDERS = ("grevlex", "lex", "grlex")


class FFRError(Exception):
    """Base class for all library errors."""


class ParseError(FFRError):
    """Malformed polynomial text."""


class RingMismatchError(FFRError):
    """Operands live in different rings (or module ranks disagree)."""


class VerificationError(FFRError):
    """A produced certificate failed its own re-check; indicates a bug."""


class RankObstructionError(FFRError):
    """A negative expected rank: the shape would force the trivial ring."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    # deterministic Miller-Rabin, valid far beyond any sensible modulus here
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class CoefField:
    """The rationals (p == 0) or the prime field F_p."""

    __slots__ = ("p",)

    def __init__(self, p: int = 0):
        if p and not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    # -- arithmetic on raw coefficients (Fraction over Q, int residue over F_p)

    def one(self):
        return 1 if self.p else Fraction(1)

    def coerce(self, c):
        """An int or a Fraction as a raw coefficient: over F_p the residue
        of numerator * denominator^-1."""
        if not self.p:
            return Fraction(c)
        if isinstance(c, int):
            return c % self.p
        return c.numerator * pow(c.denominator, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def mul(self, a, b):
        return (a * b) % self.p if self.p else a * b

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p) if self.p else 1 / a

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __eq__(self, other):
        return isinstance(other, CoefField) and self.p == other.p

    def __hash__(self):
        return hash(("CoefField", self.p))

    def __repr__(self):
        return "Q" if not self.p else f"F{self.p}"


QQ = CoefField(0)


# ---------------------------------------------------------------------------
# monomials: plain exponent tuples

def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a: tuple, b: tuple) -> tuple:
    """a / b, assuming b divides a."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_gcd(a: tuple, b: tuple) -> tuple:
    return tuple(min(x, y) for x, y in zip(a, b))


def _key_grevlex(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _key_lex(m):
    return m


def _key_grlex(m):
    return (sum(m), m)


_KEYS = {"grevlex": _key_grevlex, "lex": _key_lex, "grlex": _key_grlex}


class PolyRing:
    """k[x_1..x_n] with one of the monomial orders grevlex, lex or grlex.

    Each name must be one name token of the polynomial text on its own, so
    that text can name every variable.
    Names with the reserved prefix are refused unless `_allow_reserved`:
    they are the fresh variables of internal extensions (`extend_append`
    with `fresh_names`).
    """

    __slots__ = ("field", "vars", "order", "_key", "_vindex", "_id")

    def __init__(self, field: CoefField, vars: Sequence[str],
                 order: str = "grevlex", _allow_reserved: bool = False):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ValueError("variable names must be distinct")
        if order not in _ORDERS:
            raise ValueError(f"unknown monomial order {order!r}")
        for v in vars:
            if _TOKEN.findall(v) != [v] or not _is_name(v):
                raise ValueError(f"variable name {v!r} is not a name "
                                 "polynomial text can use")
            if v.startswith(RESERVED_PREFIX) and not _allow_reserved:
                raise ValueError(
                    f"variable name {v!r} uses the reserved prefix {RESERVED_PREFIX!r}")
        self.field = field
        self.vars = vars
        self.order = order
        self._vindex = {v: i for i, v in enumerate(vars)}
        self._key = _KEYS[order]
        self._id = (field.p, vars, order)  # what __eq__ and __hash__ read

    @property
    def n(self) -> int:
        return len(self.vars)

    def mono_key(self, m: tuple):
        return self._key(m)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return self.const(1)

    def const(self, c) -> "Poly":
        return Poly(self, {(0,) * self.n: self.field.coerce(c)})

    def var(self, name_or_index) -> "Poly":
        i = (self._vindex[name_or_index]
             if isinstance(name_or_index, str) else name_or_index)
        m = [0] * self.n
        m[i] = 1
        return Poly(self, {tuple(m): self.field.one()})

    def gens(self) -> list["Poly"]:
        return [self.var(i) for i in range(self.n)]

    def extend_append(self, names: Iterable[str]) -> "PolyRing":
        """Same order, new variables appended at the end."""
        return PolyRing(self.field, self.vars + tuple(names), self.order,
                        _allow_reserved=True)

    def dot(self, xs: Iterable["Poly"], ys: Iterable["Poly"]) -> "Poly":
        """sum x_i * y_i: the one sum of products over this ring.

        Every product is summed into one term dict and a term is dropped
        as soon as it cancels, so a zero factor costs only its ring check.
        """
        mul, add = self.field.mul, self.field.add
        res: dict = {}
        for x, y in zip(xs, ys):
            for f in (x, y):
                if f.ring is not self and f.ring != self:
                    raise RingMismatchError(f"{self} vs {f.ring}")
            a, b = x.terms, y.terms
            if len(a) < len(b):
                a, b = b, a
            for m1, c1 in a.items():
                for m2, c2 in b.items():
                    m = mono_mul(m1, m2)
                    s = add(res.get(m, 0), mul(c1, c2))
                    if s:
                        res[m] = s
                    elif m in res:
                        del res[m]
        return Poly(self, res, _trusted=True)

    def unique_up_to_sign(self, polys: Iterable["Poly"]) -> list["Poly"]:
        """The nonzero polys of this ring, first occurrences only, where p
        and -p count as one.

        p and -p have the same support, so only polys in one support bucket
        are compared.
        """
        kept: list = []
        buckets: dict = {}
        for p in polys:
            if p.ring != self:
                raise RingMismatchError("generator in a different ring")
            if p.is_zero:
                continue
            bucket = buckets.setdefault(frozenset(p.terms), [])
            if any(p == h or p == -h for h in bucket):
                continue
            bucket.append(p)
            kept.append(p)
        return kept

    def fresh_names(self, count: int, tag: str = "") -> list[str]:
        names, i = [], 0
        taken = set(self.vars)
        while len(names) < count:
            cand = f"{RESERVED_PREFIX}{tag}{i}"
            if cand not in taken:
                names.append(cand)
                taken.add(cand)
            i += 1
        return names

    def __eq__(self, other):
        return self is other or (isinstance(other, PolyRing)
                                 and self._id == other._id)

    def __hash__(self):
        return hash(self._id)

    def __repr__(self):
        return f"{self.field}[{','.join(self.vars)}]<{self.order}>"


class Poly:
    """Immutable sparse polynomial: dict {exponent tuple: nonzero coeff}."""

    __slots__ = ("ring", "terms", "_lt")

    def __init__(self, ring: PolyRing, terms: dict, _trusted: bool = False):
        self.ring = ring
        if _trusted:
            self.terms = terms
        else:
            self.terms = {m: c for m, c in terms.items() if c}
        self._lt = None

    # -- basics

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def lt(self):
        """Leading (monomial, coefficient) in the ring order, or None."""
        if self._lt is None and self.terms:
            m = max(self.terms, key=self.ring._key)
            self._lt = (m, self.terms[m])
        return self._lt

    def lm(self):
        t = self.lt()
        return t[0] if t else None

    def monic(self) -> "Poly":
        t = self.lt()
        if t is None:
            return self
        c = t[1]
        if c == self.ring.field.one():
            return self
        inv = self.ring.field.inv(c)
        mul = self.ring.field.mul
        return Poly(self.ring, {m: mul(v, inv) for m, v in self.terms.items()},
                    _trusted=True)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def sorted_terms(self) -> list:
        """Terms sorted descending in the ring order."""
        return sorted(self.terms.items(), key=lambda t: self.ring._key(t[0]),
                      reverse=True)

    # -- arithmetic

    def _check(self, other: "Poly"):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        add = self.ring.field.add
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = add(res.get(m, 0), c)
            if s:
                res[m] = s
            elif m in res:
                del res[m]
        return Poly(self.ring, res, _trusted=True)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __neg__(self) -> "Poly":
        neg = self.ring.field.neg
        return Poly(self.ring, {m: neg(c) for m, c in self.terms.items()},
                    _trusted=True)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(self.ring.field.coerce(other))
        return self.ring.dot((self,), (other,))

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        if not c:
            return Poly(self.ring, {}, _trusted=True)
        mul = self.ring.field.mul
        return Poly(self.ring, {m: mul(v, c) for m, v in self.terms.items()},
                    _trusted=True)

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative exponent")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<{format_poly(self)}>"


# ---------------------------------------------------------------------------
# transport between rings

def embed_append(p: Poly, target: PolyRing) -> Poly:
    """Embed into a ring obtained by appending variables."""
    pad = (0,) * (target.n - p.ring.n)
    return Poly(target, {m + pad: c for m, c in p.terms.items()},
                _trusted=True)


# ---------------------------------------------------------------------------
# packed terms: the one codec between Polys and int vectors

class _Overflow(Exception):
    """A field of a packed term outgrew its width."""


class _Pack:
    """Terms (pos, mono) of a ring and rank as ints of w-bit fields, and the
    codec between coordinate lists of `Poly`s and packed int vectors."""

    def __init__(self, ring: PolyRing, rank: int, w: int):
        n = ring.n
        forms = {"grevlex": [range(k) for k in range(n, 1, -1)],
                 "grlex": [range(n)], "lex": []}[ring.order]
        forms += [(i,) for i in range(n)]
        k = len(forms)
        self.ring, self.rank, self.w, self.shift = ring, rank, w, w * k
        self.weights = [sum(1 << w * (k - 1 - f)
                            for f, form in enumerate(forms) if i in form)
                        for i in range(n)]
        self.G = sum(1 << w * f + w - 1 for f in range(k))
        self.top = max if ring.order == "lex" else sum  # the largest field
        self.mask = mask = (1 << w) - 1
        self.shifts = [w * (n - 1 - i) for i in range(n)]  # of e_1..e_n
        # the total degree of a term: its top field (s_n for grevlex, the
        # degree field for grlex); lex has no degree field
        if not n:
            self.deg = lambda t: 0
        elif ring.order == "lex":
            self.deg = lambda t: sum(self.dec(t)[1])
        else:
            top = self.shift - w
            self.deg = lambda t: t >> top & mask

    @classmethod
    @lru_cache(maxsize=64)
    def of(cls, ring: PolyRing, rank: int, w: int) -> "_Pack":
        """The packing of (ring, rank, w), made once."""
        return cls(ring, rank, w)

    def enc(self, pos: int, mono: tuple) -> int:
        """The int of (pos, mono); `_Overflow` if a field does not fit."""
        if mono and self.top(mono) >> self.w - 1:
            raise _Overflow
        return ((self.rank - 1 - pos << self.shift)
                + sum(map(mul, mono, self.weights)))

    def dec(self, t: int) -> tuple:
        mask = self.mask
        return (self.rank - 1 - (t >> self.shift),
                tuple([t >> s & mask for s in self.shifts]))

    def vec(self, coords: Sequence[Poly]) -> tuple[dict, int]:
        """(d * v, d) for the polys `coords` as one packed vector v, d
        being the lcm of their denominators (1 over F_p)."""
        ratios = {self.enc(i, m): c.as_integer_ratio()
                  for i, f in enumerate(coords) for m, c in f.terms.items()}
        d = lcm(*(b for _, b in ratios.values()))
        return {t: a * (d // b) for t, (a, b) in ratios.items()}, d

    def polys(self, v: dict, d: int) -> list[Poly]:
        """The `rank` coordinates of the packed int vector v over d, with
        exact coefficients: over F_p, where d is 1, the residues."""
        if not v:
            return [Poly(self.ring, {}, _trusted=True)] * self.rank
        coords: list[dict] = [{} for _ in range(self.rank)]
        p, dec = self.ring.field.p, self.dec
        for t, x in v.items():
            pos, mono = dec(t)
            coords[pos][mono] = x if p else Fraction(x, d)
        return [Poly(self.ring, c, _trusted=True) for c in coords]


# ---------------------------------------------------------------------------
# parsing / printing

# a token: an integer, a name, or one other character that is not a blank
_TOKEN = re.compile(r"[ \t\n]*(\d+|(?:[^\W\d]|#)[\w#]*|[^ \t\n])")
_BAD = re.compile(r"[^ \t\n+\-*^/()\w#]")


def _is_name(t: str) -> bool:
    """Whether token t reads as a name: a letter, `_` or `#`, then letters,
    digits, `_` and `#` (for ASCII tokens `_TOKEN` checked the rest)."""
    return (t[:1].isalpha() or t[:1] in ("_", "#")) and (t.isascii() or all(
        c.isalpha() or c.isdigit() or c in "_#" for c in t))


class _Parser:
    """Recursive descent over `_TOKEN`s straight into raw coefficients: a
    term keeps its numbers and variable powers as one (coefficient,
    exponent list) pair, and only parenthesized factors are multiplied as
    `Poly`s; `expr` adds each term into one dict in place and drops a term
    when it cancels, so terms keep the order of their first appearance."""

    def __init__(self, src: str, ring: PolyRing):
        self.toks = _TOKEN.findall(src) + [""]  # "" ends the input
        self.pos = 0
        self.ring = ring

    def power(self):
        """The exponent after a primary, None if there is none."""
        if self.toks[self.pos] != "^":
            return None
        k = self.toks[self.pos + 1]
        if not k.isdecimal():
            raise ParseError("malformed exponent")
        self.pos += 2
        return int(k)

    def expr(self) -> dict:
        toks, add, res = self.toks, self.ring.field.add, {}
        op = toks[self.pos]
        if op in ("+", "-"):
            self.pos += 1
        while True:
            c, e, f = self.term()
            c = -c if op == "-" else c
            for m, v in ([(tuple(e), c)] if f is None else
                         [(mono_mul(m, e), c * v) for m, v in f.terms.items()]):
                s = add(res.get(m, 0), v)
                if s:
                    res[m] = s
                elif m in res:
                    del res[m]
            op = toks[self.pos]
            if op not in ("+", "-"):
                return res
            self.pos += 1

    def term(self) -> tuple:
        """(c, e, f): the term is c * x^e * f, f being the product of its
        parenthesized factors, or None if it has none.  A nonzero monomial
        factor neither merges nor reorders terms, so f's terms come in the
        order of the left-to-right product of all the factors."""
        toks, ring = self.toks, self.ring
        p, c, e, f = ring.field.p, 1, [0] * ring.n, None
        while True:
            t = toks[self.pos]
            while t == "-":
                c, self.pos = -c, self.pos + 1
                t = toks[self.pos]
            self.pos += 1
            i = ring._vindex.get(t)  # a ring's names are all name tokens
            if i is not None:
                k = self.power()
                e[i] += 1 if k is None else k
            elif t.isdecimal():
                v = int(t)
                if toks[self.pos] == "/":
                    den = toks[self.pos + 1]
                    if not den.isdecimal():
                        raise ParseError("malformed rational literal")
                    self.pos += 2
                    den = int(den)
                    if (den % p if p else den) == 0:
                        raise ParseError(
                            f"denominator {den} is zero in characteristic {p}"
                            if p else "zero denominator")
                    v = v * pow(den, -1, p) % p if p else Fraction(v, den)
                k = self.power()
                v = v if k is None else pow(v, k, p) if p else v ** k
                c = c * v % p if p else c * v
            elif t == "(":
                g = Poly(ring, self.expr(), _trusted=True)
                if toks[self.pos] != ")":
                    raise ParseError("missing ')'")
                self.pos += 1
                k = self.power()
                g = g if k is None else g ** k
                f = g if f is None else ring.dot((f,), (g,))
            else:
                raise ParseError("unexpected end of input" if not t else
                                 f"unknown variable {t!r}" if _is_name(t)
                                 else f"unexpected token {t!r}")
            if toks[self.pos] != "*":
                return c, e, f
            self.pos += 1


def parse_poly(src: str, ring: PolyRing) -> Poly:
    """Parse `+ - * ^` syntax with integer (or int/int) coefficients."""
    bad = _BAD.search(src)
    if bad:
        raise ParseError(f"unexpected character {bad.group()!r} "
                         f"at position {bad.start()}")
    parser = _Parser(src, ring)
    if len(parser.toks) == 1:
        raise ParseError("empty input")
    try:
        terms = parser.expr()
    except RecursionError:
        raise ParseError("parentheses nested too deeply") from None
    if parser.toks[parser.pos]:
        raise ParseError(
            f"trailing input at token {parser.toks[parser.pos]!r}")
    if not ring.field.p:
        terms = {m: Fraction(c) for m, c in terms.items()}
    return Poly(ring, terms, _trusted=True)


def _mono_str(m: tuple, ring: PolyRing) -> str:
    parts = []
    for v, e in zip(ring.vars, m):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


def format_poly(p: Poly) -> str:
    """Canonical text form: terms descending in the ring order."""
    if p.is_zero:
        return "0"
    field = p.ring.field
    chunks = []
    for m, c in p.sorted_terms():
        mono = _mono_str(m, p.ring)
        negative = (not field.p) and c < 0
        mag = -c if negative else c
        if not mono:
            body = str(mag)
        elif mag == field.one():
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(chunks)


# ---------------------------------------------------------------------------
# content ideals and Kronecker polynomials

def content_ideal(f: Poly) -> list:
    """The nonzero coefficients of f, leading coefficient first."""
    return [c for _, c in f.sorted_terms()]


def coefficients_in(f: Poly, var_index: int) -> dict[int, Poly]:
    """f as a polynomial in one variable: degree -> coefficient polynomial.

    The coefficients still live in the full ring (with that variable unused).
    """
    out: dict[int, dict] = {}
    for m, c in f.terms.items():
        e = m[var_index]
        rest = m[:var_index] + (0,) + m[var_index + 1:]
        out.setdefault(e, {})[rest] = c
    return {e: Poly(f.ring, t, _trusted=True) for e, t in out.items()}


def kronecker_poly(gens: Sequence[Poly], t: Poly) -> Poly:
    """a_1 + a_2 t + ... + a_n t^(n-1), for a variable t of the gens' ring
    that they do not involve.

    The content ideal of the result in t equals <gens>.
    """
    return t.ring.dot(gens, [t ** i for i in range(len(gens))])
