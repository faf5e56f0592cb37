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
engine and the verifier share.  ``parse_domain`` reads a literal with a
recursive-descent scanner over its characters, after one regex match that
takes a whole ``E(a,b)`` or ``P(a,b)``, the form a certificate holds.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from fractions import Fraction

from .exact import _Record, format_rational


def _as_positive_radius(value, name: str) -> Fraction:
    q = value if type(value) is Fraction else Fraction(value)
    if q.numerator <= 0:
        raise ValueError(f"{name} must be a positive rational, got {q}")
    return q


class _TwoRadii(_Record):
    """A 4-dimensional domain given by two positive rational radii a and b."""

    __slots__ = _fields = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction):
        object.__setattr__(self, "a", _as_positive_radius(a, "a"))
        object.__setattr__(self, "b", _as_positive_radius(b, "b"))

    def scaled(self, lam: Fraction):
        """The same kind of domain with both radii multiplied by lam."""
        return type(self)(self.a * lam, self.b * lam)


class Ellipsoid(_TwoRadii):
    """Open symplectic ellipsoid E(a,b) in C^2 with rational radii a, b."""

    __slots__ = ()


class Polydisk(_TwoRadii):
    """Product of two open disks of radii a and b."""

    __slots__ = ()


def _order(e1: Ellipsoid, e2: Ellipsoid) -> int:
    """c*b - a*d for e1 = E(a,b), e2 = E(c,d), times the four denominators: one integer cross-multiplication."""
    a, b, c, d = e1.a, e1.b, e2.a, e2.b
    cb = c.numerator * b.numerator * a.denominator * d.denominator
    return cb - a.numerator * d.numerator * c.denominator * b.denominator


class EllipsoidPair(_Record):
    """The Minkowski sum E(a,b) + E(c,d), as the ordered pair of its summands.

    The stored order always satisfies c*b <= a*d, i.e. c/a <= d/b for
    first = E(a,b) and second = E(c,d).  Build pairs through
    ``EllipsoidPair.normalized``, which swaps the operands when needed
    (Minkowski addition is symmetric, so only the labels can flip).
    """

    # proportional is True when second = lam * first, so the sum is itself an
    # ellipsoid; set once here, since every capacity and check of the pair
    # asks.  It is no field: equality, hash and repr leave it out.
    __slots__ = ("first", "second", "proportional")
    _fields = ("first", "second")

    def __init__(self, first: Ellipsoid, second: Ellipsoid):
        order = _order(first, second)
        if order > 0:
            raise ValueError(
                "EllipsoidPair must satisfy c/a <= d/b; "
                "use EllipsoidPair.normalized to order the operands"
            )
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        object.__setattr__(self, "proportional", order == 0)

    @classmethod
    def normalized(cls, e1: Ellipsoid, e2: Ellipsoid) -> "EllipsoidPair":
        # _order(e2, e1) == -_order(e1, e2): the order picked here is valid, so
        # __init__, which would compute it again, is bypassed
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


class ProductWithBall(_Record):
    """A domain X x B^m(R) used for dimension stabilization.

    Only one ball factor is supported; nesting products raises.
    """

    __slots__ = _fields = ("inner", "m", "R")

    def __init__(self, inner: DomainSpec, m: int, R: Fraction):
        if isinstance(inner, ProductWithBall):
            raise ValueError("ProductWithBall cannot nest another product")
        if m < 1:
            raise ValueError(f"ball dimension m must be >= 1, got {m}")
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "R", _as_positive_radius(R, "R"))


DomainSpec = Ellipsoid | Polydisk | EllipsoidPair | ProductWithBall


class IndexVector(_Record):
    """A pair (v1, v2) of nonnegative integers with v1 + v2 >= 1."""

    __slots__ = _fields = ("v1", "v2")

    def __init__(self, v1: int, v2: int):
        if v1 < 0 or v2 < 0:
            raise ValueError(f"index vector components must be nonnegative, got {(v1, v2)}")
        if v1 + v2 < 1:
            raise ValueError("index vector (0, 0) is not allowed")
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)

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


# \s is str.isspace.  A rational token is a run of decimal digits, '/' and
# '-'; a digit that is no decimal digit, such as '²' (str.isdigit takes it),
# stays inside the token, which is then reported whole.
_SPACE_RE, _RUN_RE = re.compile(r"\s*"), re.compile(r"[\d/-]*")
_RATIONAL = r"(-?\d+)(?:/(\d+))?"
_RATIONAL_RE = re.compile(_RATIONAL)
# a whole E(a,b) or P(a,b) literal, the form that a certificate holds
_LITERAL_RE = re.compile(rf"\s*([EePp])\s*\(\s*{_RATIONAL}\s*,\s*{_RATIONAL}\s*\)\s*")


def _fraction(num: str, den: str | None) -> Fraction | None:
    """num/den, or None for a zero denominator or an integer beyond int's digit limit."""
    try:
        return Fraction(int(num), int(den) if den else 1)
    except (ValueError, ZeroDivisionError):
        return None


class _Scanner:
    """Recursive descent over the characters of a domain literal."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str, pos: int) -> DomainParseError:
        return DomainParseError(message, self.text, pos)

    def skip(self) -> int:
        self.pos = _SPACE_RE.match(self.text, self.pos).end()
        return self.pos

    def found(self) -> str:
        return repr(self.text[self.pos : self.pos + 1] or "end of input")

    def expect(self, ch: str) -> None:
        start = self.skip()
        if self.text[start : start + 1] != ch:
            raise self.fail(f"expected {ch!r}, found {self.found()}", start)
        self.pos += 1

    def name(self) -> tuple[str, int]:
        text = self.text
        start = end = self.skip()
        while end < len(text) and text[end].isalpha():
            end += 1
        if end == start:
            raise self.fail(f"expected a domain name, found {self.found()}", start)
        self.pos = end
        return text[start:end], start

    def rational(self) -> Fraction:
        text, start = self.text, self.skip()
        end = _RUN_RE.match(text, start).end()
        while end < len(text) and text[end].isdigit():
            end = _RUN_RE.match(text, end + 1).end()
        if end == start:
            raise self.fail(f"expected a rational, found {self.found()}", start)
        self.pos = end
        m = _RATIONAL_RE.fullmatch(text, start, end)
        q = m and _fraction(m[1], m[2])
        if q is None:
            raise self.fail(f"bad rational token {_excerpt(text[start:end])}", start)
        return q

    def radii(self) -> tuple[Fraction, Fraction]:
        self.expect("(")
        a = self.rational()
        self.expect(",")
        b = self.rational()
        self.expect(")")
        return a, b

    def sum_operand(self, sum_start: int) -> Ellipsoid:
        name, _ = self.name()
        if name.lower() != "e":
            raise self.fail("sum(...) takes two ellipsoids", sum_start)
        return Ellipsoid(*self.radii())

    def domain(self, prod_start: int | None = None) -> DomainSpec:
        # A sum takes only E(...) literals and a nested prod is refused before
        # its operands are read, so the recursion is at most two levels deep
        # whatever the input; prod_start is the position of an enclosing prod.
        name, start = self.name()
        kind = name.lower()
        if kind == "e":
            return Ellipsoid(*self.radii())
        if kind == "p":
            return Polydisk(*self.radii())
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
    """Parse a domain literal such as ``sum(E(3/2,1),E(1,3/2))``."""
    # E(a,b) or P(a,b) whose two rationals int and Fraction take is one match;
    # anything else, errors included, is read by the scanner
    m = _LITERAL_RE.fullmatch(text)
    if m:
        a, b = _fraction(m[2], m[3]), _fraction(m[4], m[5])
        if a is not None and b is not None:
            return (Ellipsoid if m[1] in "Ee" else Polydisk)(a, b)
    scanner = _Scanner(text)
    domain = scanner.domain()
    if scanner.skip() < len(text):
        raise scanner.fail(f"unexpected trailing input {_excerpt(text[scanner.pos :])}", scanner.pos)
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
