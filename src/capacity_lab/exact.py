"""Exact rational scalars, capacities as rational multiples of pi, and
irrational-free sign decisions for square-root expressions.

Every scalar that enters a capacity computation is a ``fractions.Fraction``
(arbitrary precision, always in lowest terms with positive denominator), so
all comparisons in this module are decided exactly.  Floating point appears
only in rendering helpers.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

# The universal exact scalar. Fraction guarantees the canonical-form
# invariants this package relies on: gcd(|num|, den) = 1 and den > 0.
Rational = Fraction

_RATIONAL_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(\d+)\s*)?$")

# pi to well beyond 12 significant digits, for decimal rendering of
# arbitrarily large rational coefficients.
_PI_DECIMAL = Decimal("3.141592653589793238462643383279502884197")


class Ordering(enum.IntEnum):
    """Three-valued comparison result. No epsilon is involved anywhere."""

    LESS = -1
    EQUAL = 0
    GREATER = 1


def cmp(x, y) -> Ordering:
    """Exact total-order comparison of two rationals (or ints)."""
    if x < y:
        return Ordering.LESS
    if x > y:
        return Ordering.GREATER
    return Ordering.EQUAL


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or ``p`` into a Fraction.

    Raises ValueError naming the offending input on anything else.
    """
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ValueError(f"not a rational literal: {text!r} (expected 'p' or 'p/q')")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ValueError(f"zero denominator in rational literal: {text!r}")
    return Fraction(num, den)


def format_rational(q: Fraction) -> str:
    """Render a Fraction as ``p/q``, or ``p`` when the denominator is 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_decimal(q: Fraction, digits: int = 12, factor=1) -> str:
    """q * factor rendered with the given number of significant digits.

    Uses Decimal arithmetic so values far outside float range still render.
    """
    with localcontext() as ctx:
        ctx.prec = digits + 8
        val = Decimal(q.numerator) / Decimal(q.denominator) * factor
        ctx.prec = digits
        val = +val
    return f"{val:g}"


def cmp_sqrt_combination(s: Rational, t: Rational, u: Rational) -> Ordering:
    """Sign of sqrt(s) - sqrt(t) - sqrt(u), decided exactly.

    Requires s, t, u >= 0.  Both sides of sqrt(s) vs sqrt(t) + sqrt(u) are
    nonnegative, so with d = s - t - u:

        sqrt(s) >= sqrt(t) + sqrt(u)  iff  d >= 0 and d^2 >= 4 t u,

    with equality exactly when d >= 0 and d^2 = 4 t u.  No floating point
    is involved.
    """
    s = Fraction(s)
    t = Fraction(t)
    u = Fraction(u)
    if s < 0 or t < 0 or u < 0:
        raise ValueError(f"cmp_sqrt_combination requires s, t, u >= 0, got ({s}, {t}, {u})")
    d = s - t - u
    if d < 0:
        return Ordering.LESS
    return cmp(d * d, 4 * t * u)


@dataclass(frozen=True, order=True)
class PiRational:
    """A value of the form coeff * pi with an exact rational coefficient.

    Capacities and dual norms are stored this way; pi is never evaluated
    numerically except in the rendering helpers.
    """

    coeff: Fraction

    def __post_init__(self):
        object.__setattr__(self, "coeff", self.coeff if type(self.coeff) is Fraction else Fraction(self.coeff))

    def __float__(self) -> float:
        return float(self.coeff) * math.pi

    def __str__(self) -> str:
        return f"{format_rational(self.coeff)}·π"

    def decimal(self, digits: int = 12) -> str:
        """Decimal rendering of coeff * pi with the given number of significant digits."""
        return format_decimal(self.coeff, digits, _PI_DECIMAL)

    def render(self) -> str:
        """The CLI form: exact value plus a 12-significant-digit decimal."""
        return f"{self} = {self.decimal()}"

    def as_dict(self) -> dict:
        return {"num": self.coeff.numerator, "den": self.coeff.denominator}

    @classmethod
    def from_dict(cls, d: dict) -> "PiRational":
        # bool is an int subclass and Fraction accepts it; a float or string is no JSON integer either
        if type(d["num"]) is not int or type(d["den"]) is not int:
            raise ValueError(f"num and den must be integers, got {d['num']!r}/{d['den']!r}")
        return cls(Fraction(d["num"], d["den"]))
