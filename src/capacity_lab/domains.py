"""Symplectic domains, the domain literal grammar, and the helpers that
the engine and the verifier share.

The domains handled here are the 4-dimensional symplectic ellipsoid E(a,b)
and polydisk P(a,b) with exact rational radii, the Minkowski sum of two
ellipsoids, and products with a stabilizing ball factor.  The sum
E(a,b) + E(c,d) is the normalized ``EllipsoidPair`` of its summands, which
is what ``parse_domain("sum(...)")`` returns and what the capacities of
``minkowski``, ``format_domain`` and the verifier take.  This module
computes no capacity: with ``exact`` and ``verify`` it is the trusted base
of a checked result, and ``convex_argmin`` is the one search that the
engine and the verifier share.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Union

from .exact import format_rational


def _as_positive_radius(value, name: str) -> Fraction:
    q = value if type(value) is Fraction else Fraction(value)
    if q.numerator <= 0:
        raise ValueError(f"{name} must be a positive rational, got {q}")
    return q


@dataclass(frozen=True)
class _TwoRadii:
    """A 4-dimensional domain given by two positive rational radii a and b."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _as_positive_radius(self.a, "a"))
        object.__setattr__(self, "b", _as_positive_radius(self.b, "b"))

    def scaled(self, lam: Fraction):
        """The same kind of domain with both radii multiplied by lam."""
        return type(self)(self.a * lam, self.b * lam)


@dataclass(frozen=True)
class Ellipsoid(_TwoRadii):
    """Open symplectic ellipsoid E(a,b) in C^2 with rational radii a, b."""


@dataclass(frozen=True)
class Polydisk(_TwoRadii):
    """Product of two open disks of radii a and b."""


def _order(e1: Ellipsoid, e2: Ellipsoid) -> int:
    """c*b - a*d for e1 = E(a,b), e2 = E(c,d), times the four denominators: one integer cross-multiplication."""
    a, b, c, d = e1.a, e1.b, e2.a, e2.b
    cb = c.numerator * b.numerator * a.denominator * d.denominator
    return cb - a.numerator * d.numerator * c.denominator * b.denominator


@dataclass(frozen=True)
class EllipsoidPair:
    """The Minkowski sum E(a,b) + E(c,d), as the ordered pair of its summands.

    The stored order always satisfies c*b <= a*d, i.e. c/a <= d/b for
    first = E(a,b) and second = E(c,d).  Build pairs through
    ``EllipsoidPair.normalized``, which swaps the operands when needed
    (Minkowski addition is symmetric, so only the labels can flip).
    """

    first: Ellipsoid
    second: Ellipsoid
    # True when second = lam * first, so the sum is itself an ellipsoid;
    # set once here, since every capacity and check of the pair asks
    proportional: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        order = _order(self.first, self.second)
        if order > 0:
            raise ValueError(
                "EllipsoidPair must satisfy c/a <= d/b; "
                "use EllipsoidPair.normalized to order the operands"
            )
        object.__setattr__(self, "proportional", order == 0)

    @classmethod
    def normalized(cls, e1: Ellipsoid, e2: Ellipsoid) -> "EllipsoidPair":
        # _order(e2, e1) == -_order(e1, e2): the order picked here is valid, so
        # __post_init__, which would compute it again, is bypassed
        order = _order(e1, e2)
        pair = object.__new__(cls)
        object.__setattr__(pair, "first", e2 if order > 0 else e1)
        object.__setattr__(pair, "second", e1 if order > 0 else e2)
        object.__setattr__(pair, "proportional", order == 0)
        return pair

    @property
    def radii(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return self.first.a, self.first.b, self.second.a, self.second.b

    @property
    def outer_ellipsoid(self) -> Ellipsoid:
        """E(a+c, b+d), the ellipsoid the sum naturally contains."""
        return Ellipsoid(self.first.a + self.second.a, self.first.b + self.second.b)

    def scaled(self, lam: Fraction) -> "EllipsoidPair":
        return EllipsoidPair(self.first.scaled(lam), self.second.scaled(lam))


@dataclass(frozen=True)
class ProductWithBall:
    """A domain X x B^m(R) used for dimension stabilization.

    Only one ball factor is supported; nesting products raises.
    """

    inner: "DomainSpec"
    m: int
    R: Fraction

    def __post_init__(self):
        if isinstance(self.inner, ProductWithBall):
            raise ValueError("ProductWithBall cannot nest another product")
        if self.m < 1:
            raise ValueError(f"ball dimension m must be >= 1, got {self.m}")
        object.__setattr__(self, "R", _as_positive_radius(self.R, "R"))


DomainSpec = Union[Ellipsoid, Polydisk, EllipsoidPair, ProductWithBall]


@dataclass(frozen=True)
class IndexVector:
    """A pair (v1, v2) of nonnegative integers with v1 + v2 >= 1."""

    v1: int
    v2: int

    def __post_init__(self):
        if self.v1 < 0 or self.v2 < 0:
            raise ValueError(f"index vector components must be nonnegative, got {(self.v1, self.v2)}")
        if self.v1 + self.v2 < 1:
            raise ValueError("index vector (0, 0) is not allowed")

    @property
    def k(self) -> int:
        return self.v1 + self.v2


def _require_positive_k(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"capacity index k must be a positive integer, got {k!r}")


def _common_denominator(*qs: Fraction) -> tuple[list[int], int]:
    """Integers n_i and L > 0 with q_i = n_i / L, L the lcm of the denominators."""
    L = math.lcm(*(q.denominator for q in qs))
    return [q.numerator * (L // q.denominator) for q in qs], L


def convex_argmin(h: Callable[[int], tuple[int, int]], k: int) -> tuple[Fraction, int]:
    """Minimum of a discrete-convex h(0), ..., h(k) and its smallest minimizer.

    Each h(j) is an integer pair (num, den) with den > 0 standing for
    num/den.  Bisects for the first j with h(j+1) >= h(j), compared by
    cross-multiplication, in O(log k) evaluations of h; a dict keeps each
    h(j) so that none is evaluated twice, and only the minimum becomes a
    Fraction.  Dual norms v1 -> |(v1, k - v1)|* are convex because support
    functions are.
    """
    seen = {}
    lo, hi = 0, k
    while lo < hi:
        mid = (lo + hi) // 2
        n0, d0 = seen[mid] = seen.get(mid) or h(mid)
        n1, d1 = seen[mid + 1] = seen.get(mid + 1) or h(mid + 1)
        if n1 * d0 >= n0 * d1:
            hi = mid
        else:
            lo = mid + 1
    return Fraction(*(seen.get(lo) or h(lo))), lo


# --------------------------------------------------------------------------
# Domain literal grammar:  E(a,b) | P(a,b) | sum(E(..),E(..)) | prod(D, m, R)
# with rationals written p/q or p.
# --------------------------------------------------------------------------


def _excerpt(text: str, pos: int = 0) -> str:
    """text quoted, cut to 40 characters either side of pos, with '...' where it is cut."""
    start, end = max(pos - 40, 0), pos + 40
    return f"{'...' * (start > 0)}{text[start:end]!r}{'...' * (end < len(text))}"


class DomainParseError(ValueError):
    """Parse failure carrying the offending token and its position; the message quotes a bounded window."""

    def __init__(self, message: str, text: str, pos: int):
        self.text = text
        self.pos = pos
        super().__init__(f"{message} at position {pos} in {_excerpt(text, pos)}")


# One token after optional whitespace (\s is str.isspace).  A name applied to
# two well-formed rationals, as in E(3/2, 1), is a single token, so a canonical
# ellipsoid or polydisk literal takes one match.  [^\W\d_] takes the letters
# and also numeric characters that are no decimal digits, such as '²' and '½';
# _Parser.token splits those off.
_RATIONAL = r"(-?\d+)(?:/(\d+))?"
_TOKEN_RE = re.compile(
    rf"(\s*)(?:"
    rf"(([^\W\d_]+)\s*\(\s*{_RATIONAL}\s*,\s*{_RATIONAL}\s*\))"  # 2 name(a, b): 3 the name, 4-7 a and b
    rf"|([^\W\d_]+)"  # 8 a name
    rf"|({_RATIONAL})(?![\d/-])"  # 9 a rational p or p/q: 10 and 11
    rf"|([\d/-]+)"  # 12 any other run of decimal digits, '/' and '-'
    rf"|(.)"  # 13 any other character
    rf")?",
    re.S,
)
# token kinds: the index of the group that matched; 1, the whitespace, at the end of input
_END, _CALL, _NAME, _RATIONAL_TOKEN, _BAD_RATIONAL, _CHAR = 1, 2, 8, 9, 12, 13


def _fraction(num: str, den: str | None) -> Fraction | None:
    """num/den, or None for a zero denominator or an integer beyond int's digit limit."""
    try:
        return Fraction(int(num), int(den) if den else 1)
    except (ValueError, ZeroDivisionError):
        return None


class _Parser:
    """Recursive descent over the tokens of ``_TOKEN_RE``, read one at a time."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def token(self) -> tuple[int, int, object]:
        """(kind, start, value) of the next token, and move past it.

        value is (name, a, b) for E(a,b) or P(a,b), the text of a name, the
        Fraction of a rational, and None otherwise.
        """
        text = self.text
        m = _TOKEN_RE.match(text, self.pos)
        kind, start, self.pos = m.lastindex, m.end(1), m.end()
        if kind == _CALL:
            if m[3].lower() in ("e", "p"):
                a, b = _fraction(m[4], m[5]), _fraction(m[6], m[7])
                if a is not None and b is not None:
                    return kind, start, (m[3], a, b)
            # as in sum(1,2) or E(1/0,1): the name alone, then token by token
            kind, self.pos = _NAME, m.end(3)
        if kind == _NAME:
            if text[start : self.pos].isalpha():
                return kind, start, text[start : self.pos]
            end = start
            while text[end].isalpha():
                end += 1
            if end > start:
                self.pos = end
                return kind, start, text[start:end]
            # a digit such as '²' starts a rational token, which it spoils; '½' is a character
            kind, self.pos = (_BAD_RATIONAL, start) if text[start].isdigit() else (_CHAR, start + 1)
        if kind == _RATIONAL_TOKEN or kind == _BAD_RATIONAL:
            # str.isdigit also takes digits such as '²', which stay inside the token
            while self.pos < len(text) and text[self.pos].isdigit():
                kind, after = _BAD_RATIONAL, self.pos + 1
                run = _TOKEN_RE.match(text, after)
                joins = run.end(1) == after and run.lastindex in (_RATIONAL_TOKEN, _BAD_RATIONAL)
                self.pos = run.end() if joins else after
            if kind == _RATIONAL_TOKEN:
                q = _fraction(m[10], m[11])
                if q is not None:
                    return kind, start, q
                kind = _BAD_RATIONAL
        return kind, start, None

    def fail(self, message: str, pos: int) -> DomainParseError:
        return DomainParseError(message, self.text, pos)

    def found(self, kind: int, start: int) -> str:
        return repr("end of input" if kind == _END else self.text[start])

    def expect(self, ch: str) -> None:
        kind, start, _ = self.token()
        if kind != _CHAR or self.text[start] != ch:
            raise self.fail(f"expected {ch!r}, found {self.found(kind, start)}", start)

    def rational(self) -> Fraction:
        kind, start, q = self.token()
        if kind == _RATIONAL_TOKEN:
            return q
        if kind == _BAD_RATIONAL:
            raise self.fail(f"bad rational token {_excerpt(self.text[start : self.pos])}", start)
        raise self.fail(f"expected a rational, found {self.found(kind, start)}", start)

    def radii(self) -> tuple[Fraction, Fraction]:
        self.expect("(")
        a = self.rational()
        self.expect(",")
        b = self.rational()
        self.expect(")")
        return a, b

    def head(self) -> tuple[str, int, tuple[Fraction, Fraction] | None]:
        """A domain name, its position, and the radii when its token carried them."""
        kind, start, value = self.token()
        if kind == _CALL:
            return value[0], start, value[1:]
        if kind != _NAME:
            raise self.fail(f"expected a domain name, found {self.found(kind, start)}", start)
        return value, start, None

    def sum_operand(self, sum_start: int) -> Ellipsoid:
        name, _, radii = self.head()
        if name.lower() != "e":
            raise self.fail("sum(...) takes two ellipsoids", sum_start)
        return Ellipsoid(*(radii or self.radii()))

    def domain(self, prod_start: int | None = None) -> DomainSpec:
        # A sum takes only E(...) literals and a nested prod is refused before
        # its operands are read, so the recursion is at most two levels deep
        # whatever the input; prod_start is the position of an enclosing prod.
        name, start, radii = self.head()
        kind = name.lower()
        if kind == "e":
            return Ellipsoid(*(radii or self.radii()))
        if kind == "p":
            return Polydisk(*(radii or self.radii()))
        if kind == "sum":
            self.expect("(")
            e1 = self.sum_operand(start)
            self.expect(",")
            e2 = self.sum_operand(start)
            self.expect(")")
            return EllipsoidPair.normalized(e1, e2)
        if kind == "prod":
            if prod_start is not None:
                raise self.fail("prod(...) cannot nest another prod", prod_start)
            self.expect("(")
            inner = self.domain(start)
            self.expect(",")
            m = self.rational()
            if m.denominator != 1:
                raise self.fail(f"expected an integer, found {_excerpt(format_rational(m))}", self.pos)
            self.expect(",")
            r = self.rational()
            self.expect(")")
            return ProductWithBall(inner, m.numerator, r)
        raise self.fail(f"unknown domain kind {_excerpt(name)}", start)


def parse_domain(text: str) -> DomainSpec:
    """Parse a domain literal such as ``sum(E(3/2,1),E(1,3/2))``, in one pass over its tokens."""
    parser = _Parser(text)
    domain = parser.domain()
    kind, start, _ = parser.token()
    if kind != _END:
        raise parser.fail(f"unexpected trailing input {_excerpt(text[start:])}", start)
    return domain


def format_domain(domain: DomainSpec) -> str:
    """Inverse of parse_domain, canonical spacing."""
    if isinstance(domain, Ellipsoid):
        return f"E({format_rational(domain.a)},{format_rational(domain.b)})"
    if isinstance(domain, Polydisk):
        return f"P({format_rational(domain.a)},{format_rational(domain.b)})"
    if isinstance(domain, EllipsoidPair):
        return f"sum({format_domain(domain.first)},{format_domain(domain.second)})"
    if isinstance(domain, ProductWithBall):
        return f"prod({format_domain(domain.inner)},{domain.m},{format_rational(domain.R)})"
    raise TypeError(f"unsupported domain: {domain!r}")
