"""Symplectic domains and their closed-form capacities.

The domains handled here are the 4-dimensional symplectic ellipsoid E(a,b)
and polydisk P(a,b) with exact rational radii, Minkowski sums of two
ellipsoids, and products with a stabilizing ball factor.  Capacities are
indexed by a positive integer k and returned as exact rational multiples
of pi.

For an ellipsoid, the k-th capacity is the k-th smallest element (with
multiplicity) of the merged multiples {i*pi*a^2} and {j*pi*b^2}; the
counting function N(t) = floor(t/a^2) + floor(t/b^2) gives it in closed
form, in O(1) at any k, rather than from a sorted list.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable, Union

from .exact import Ordering, PiRational, cmp_rational_sqrt, format_rational, parse_rational

__all__ = [
    "Ellipsoid",
    "Polydisk",
    "EllipsoidPair",
    "EllipsoidSum",
    "ProductWithBall",
    "DomainSpec",
    "IndexVector",
    "DomainParseError",
    "StabilizationError",
    "ellipsoid_capacity",
    "ellipsoid_norm_argmin",
    "convex_argmin",
    "polydisk_capacity",
    "product_with_ball_capacity",
    "capacity",
    "scale_domain",
    "parse_domain",
    "format_domain",
]


def _as_positive_radius(value, name: str) -> Fraction:
    q = value if type(value) is Fraction else Fraction(value)
    if q.numerator <= 0:
        raise ValueError(f"{name} must be a positive rational, got {q}")
    return q


@dataclass(frozen=True)
class Ellipsoid:
    """Open symplectic ellipsoid E(a,b) in C^2 with rational radii a, b."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _as_positive_radius(self.a, "a"))
        object.__setattr__(self, "b", _as_positive_radius(self.b, "b"))

    def scaled(self, lam: Fraction) -> "Ellipsoid":
        return Ellipsoid(self.a * lam, self.b * lam)


@dataclass(frozen=True)
class Polydisk:
    """Product of two open disks of radii a and b."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _as_positive_radius(self.a, "a"))
        object.__setattr__(self, "b", _as_positive_radius(self.b, "b"))

    def scaled(self, lam: Fraction) -> "Polydisk":
        return Polydisk(self.a * lam, self.b * lam)


def _order(e1: Ellipsoid, e2: Ellipsoid) -> int:
    """c*b - a*d for e1 = E(a,b), e2 = E(c,d), times the four denominators: one integer cross-multiplication."""
    a, b, c, d = e1.a, e1.b, e2.a, e2.b
    cb = c.numerator * b.numerator * a.denominator * d.denominator
    return cb - a.numerator * d.numerator * c.denominator * b.denominator


@dataclass(frozen=True)
class EllipsoidPair:
    """An ordered pair of ellipsoids whose Minkowski sum is analyzed.

    The stored order always satisfies c*b <= a*d, i.e. c/a <= d/b for
    first = E(a,b) and second = E(c,d).  Build pairs through
    ``EllipsoidPair.normalized``, which swaps the operands when needed
    (Minkowski addition is symmetric, so only the labels can flip; the
    ``swapped`` field records whether they did).
    """

    first: Ellipsoid
    second: Ellipsoid
    swapped: bool = field(default=False, compare=False)
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
        if _order(e1, e2) > 0:
            return cls(e2, e1, swapped=True)
        return cls(e1, e2, swapped=False)

    @property
    def radii(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return self.first.a, self.first.b, self.second.a, self.second.b

    @property
    def outer_ellipsoid(self) -> Ellipsoid:
        """E(a+c, b+d), the ellipsoid the sum naturally contains."""
        return Ellipsoid(self.first.a + self.second.a, self.first.b + self.second.b)

    def scaled(self, lam: Fraction) -> "EllipsoidPair":
        lam = Fraction(lam)
        return EllipsoidPair(self.first.scaled(lam), self.second.scaled(lam), self.swapped)


@dataclass(frozen=True)
class EllipsoidSum:
    """The Minkowski sum of the two ellipsoids of a normalized pair."""

    pair: EllipsoidPair

    @classmethod
    def of(cls, e1: Ellipsoid, e2: Ellipsoid) -> "EllipsoidSum":
        return cls(EllipsoidPair.normalized(e1, e2))


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


DomainSpec = Union[Ellipsoid, Polydisk, EllipsoidSum, ProductWithBall]


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


class StabilizationError(ValueError):
    """Raised when a ball factor is too small for the product reduction."""


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
    cross-multiplication, in O(log k) evaluations of h; only the minimum
    becomes a Fraction.  Dual norms v1 -> |(v1, k - v1)|* are convex
    because support functions are.
    """
    h = cache(h)

    def rises(i: int) -> bool:
        n0, d0 = h(i)
        n1, d1 = h(i + 1)
        return n1 * d0 >= n0 * d1

    j = bisect_left(range(k), True, key=rises)
    return Fraction(*h(j)), j


def _kth_merged_multiple(k: int, alpha: Fraction, beta: Fraction) -> Fraction:
    """k-th smallest element of {i*alpha : i >= 1} merged with {j*beta : j >= 1}.

    Ties count twice.  With alpha/beta = p/q in integers, the count of merged
    multiples <= m*alpha is m + floor(mp/q) = floor(m(p+q)/q), which reaches k
    exactly when m >= kq/(p+q).  So m = ceil(kq/(p+q)) for alpha and
    n = ceil(kp/(p+q)) for beta, and the answer is the smaller of m*alpha and
    n*beta: O(1) at any k.
    """
    p, q = alpha.numerator * beta.denominator, alpha.denominator * beta.numerator
    m, n = -(-k * q // (p + q)), -(-k * p // (p + q))
    return m * alpha if m * p <= n * q else n * beta


def ellipsoid_capacity(k: int, e: Ellipsoid) -> PiRational:
    """k-th capacity of E(a,b): the k-th smallest merged multiple of pi a^2, pi b^2."""
    _require_positive_k(k)
    return PiRational(_kth_merged_multiple(k, e.a * e.a, e.b * e.b))


def ellipsoid_norm_argmin(k: int, e: Ellipsoid) -> tuple[PiRational, IndexVector]:
    """Minimum over v1 + v2 = k of max(v1 * pi a^2, v2 * pi b^2), with argmin.

    a^2 = A/L and b^2 = B/L over one common denominator, so the norms are
    the integer pairs (max(v1 A, v2 B), L).  Ties go to the smallest v1
    (``convex_argmin``).  The value always equals ellipsoid_capacity(k, e);
    the argmin is what the strictness criterion needs.
    """
    _require_positive_k(k)
    (A, B), L = _common_denominator(e.a * e.a, e.b * e.b)
    value, v1 = convex_argmin(lambda j: (max(j * A, (k - j) * B), L), k)
    return PiRational(value), IndexVector(v1, k - v1)


def polydisk_capacity(k: int, p: Polydisk) -> PiRational:
    """k-th capacity of P(a,b): k * pi * min(a^2, b^2)."""
    _require_positive_k(k)
    return PiRational(k * min(p.a * p.a, p.b * p.b))


def product_with_ball_capacity(k: int, inner: DomainSpec, m: int, R: Fraction) -> PiRational:
    """Capacity of X x B^m(R), valid in the stabilized regime R^2 > c_k(X)/pi.

    Under that condition the ball factor is invisible and the capacity of
    the product equals c_k(X).  A too-small R raises StabilizationError;
    the general minimum-over-splittings formula is intentionally not
    offered here.
    """
    _require_positive_k(k)
    if m < 1:
        raise ValueError(f"ball dimension m must be >= 1, got {m}")
    R = _as_positive_radius(R, "R")
    inner_cap = capacity(k, inner)
    if cmp_rational_sqrt(R, inner_cap.coeff) is not Ordering.GREATER:
        raise StabilizationError(
            f"stabilization condition unmet: need pi*R^2 > c_{k}(X), i.e. "
            f"R^2 > {format_rational(inner_cap.coeff)}, got R = {format_rational(R)}"
        )
    return inner_cap


def capacity(k: int, domain: DomainSpec) -> PiRational:
    """k-th capacity of any supported domain."""
    _require_positive_k(k)
    if isinstance(domain, Ellipsoid):
        return ellipsoid_capacity(k, domain)
    if isinstance(domain, Polydisk):
        return polydisk_capacity(k, domain)
    if isinstance(domain, EllipsoidSum):
        from .minkowski import sum_capacity

        return sum_capacity(k, domain.pair)
    if isinstance(domain, ProductWithBall):
        return product_with_ball_capacity(k, domain.inner, domain.m, domain.R)
    raise TypeError(f"unsupported domain: {domain!r}")


def scale_domain(lam: Fraction, domain: DomainSpec) -> DomainSpec:
    """Scale every linear dimension (radii and R) by lam > 0."""
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError(f"scale factor must be positive, got {lam}")
    if isinstance(domain, (Ellipsoid, Polydisk)):
        return domain.scaled(lam)
    if isinstance(domain, EllipsoidSum):
        return EllipsoidSum(domain.pair.scaled(lam))
    if isinstance(domain, ProductWithBall):
        return ProductWithBall(scale_domain(lam, domain.inner), domain.m, domain.R * lam)
    raise TypeError(f"unsupported domain: {domain!r}")


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


# \s is str.isspace; a rational token is decimal digits, '-' and '/' (see _Scanner.rational for other digits)
_SPACE_RE, _TOKEN_RE = re.compile(r"\s*"), re.compile(r"[\d/-]*")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        self.pos = _SPACE_RE.match(self.text, self.pos).end()

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            found = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            raise DomainParseError(f"expected {ch!r}, found {found!r}", self.text, self.pos)
        self.pos += 1

    def name(self) -> tuple[str, int]:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            found = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            raise DomainParseError(f"expected a domain name, found {found!r}", self.text, start)
        return self.text[start : self.pos], start

    def rational(self) -> Fraction:
        self._skip_ws()
        start = self.pos
        # \d takes decimal digits only; a digit such as '²', which str.isdigit
        # also takes, stays inside the token, which is then reported whole
        self.pos = _TOKEN_RE.match(self.text, start).end()
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos = _TOKEN_RE.match(self.text, self.pos + 1).end()
        token = self.text[start : self.pos]
        if not token:
            found = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            raise DomainParseError(f"expected a rational, found {found!r}", self.text, start)
        try:
            return parse_rational(token)
        except ValueError:
            raise DomainParseError(f"bad rational token {_excerpt(token)}", self.text, start) from None

    def integer(self) -> int:
        q = self.rational()
        if q.denominator != 1:
            raise DomainParseError(f"expected an integer, found {_excerpt(format_rational(q))}", self.text, self.pos)
        return q.numerator

    def done(self) -> None:
        self._skip_ws()
        if self.pos < len(self.text):
            raise DomainParseError(f"unexpected trailing input {_excerpt(self.text[self.pos:])}", self.text, self.pos)


def _radii(sc: _Scanner) -> tuple[Fraction, Fraction]:
    sc.expect("(")
    a = sc.rational()
    sc.expect(",")
    b = sc.rational()
    sc.expect(")")
    return a, b


def _sum_operand(sc: _Scanner, sum_start: int) -> Ellipsoid:
    name, _ = sc.name()
    if name.lower() != "e":
        raise DomainParseError("sum(...) takes two ellipsoids", sc.text, sum_start)
    return Ellipsoid(*_radii(sc))


def _parse_domain(sc: _Scanner, prod_start: int | None = None) -> DomainSpec:
    # A sum takes only E(...) literals and a nested prod is refused before
    # its operands are read, so the recursion is at most two levels deep
    # whatever the input; prod_start is the position of an enclosing prod.
    name, start = sc.name()
    kind = name.lower()
    if kind == "e":
        return Ellipsoid(*_radii(sc))
    if kind == "p":
        return Polydisk(*_radii(sc))
    if kind == "sum":
        sc.expect("(")
        e1 = _sum_operand(sc, start)
        sc.expect(",")
        e2 = _sum_operand(sc, start)
        sc.expect(")")
        return EllipsoidSum.of(e1, e2)
    if kind == "prod":
        if prod_start is not None:
            raise DomainParseError("prod(...) cannot nest another prod", sc.text, prod_start)
        sc.expect("(")
        inner = _parse_domain(sc, start)
        sc.expect(",")
        m = sc.integer()
        sc.expect(",")
        r = sc.rational()
        sc.expect(")")
        return ProductWithBall(inner, m, r)
    raise DomainParseError(f"unknown domain kind {_excerpt(name)}", sc.text, start)


def parse_domain(text: str) -> DomainSpec:
    """Parse a domain literal such as ``sum(E(3/2,1),E(1,3/2))``."""
    sc = _Scanner(text)
    domain = _parse_domain(sc)
    sc.done()
    return domain


def format_domain(domain: DomainSpec) -> str:
    """Inverse of parse_domain, canonical spacing."""
    if isinstance(domain, Ellipsoid):
        return f"E({format_rational(domain.a)},{format_rational(domain.b)})"
    if isinstance(domain, Polydisk):
        return f"P({format_rational(domain.a)},{format_rational(domain.b)})"
    if isinstance(domain, EllipsoidSum):
        e1, e2 = domain.pair.first, domain.pair.second
        return f"sum({format_domain(e1)},{format_domain(e2)})"
    if isinstance(domain, ProductWithBall):
        return f"prod({format_domain(domain.inner)},{domain.m},{format_rational(domain.R)})"
    raise TypeError(f"unsupported domain: {domain!r}")
