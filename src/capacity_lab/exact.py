"""Exact rational scalars, capacities as rational multiples of pi, and
the Brunn-Minkowski verdicts.

Every scalar that enters a capacity computation is a ``fractions.Fraction``
(arbitrary precision, always in lowest terms with positive denominator), so
every value here is exact.  Floating point appears only in rendering
helpers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

# pi to well beyond 12 significant digits, for decimal rendering of
# arbitrarily large rational coefficients.
_PI_DECIMAL = Decimal("3.141592653589793238462643383279502884197")


class Ordering(enum.IntEnum):
    """Three-valued comparison result. No epsilon is involved anywhere."""

    LESS = -1
    EQUAL = 0
    GREATER = 1


class Verdict(enum.Enum):
    """Outcome of one Brunn-Minkowski comparison at index k."""

    VIOLATES = "Violates"
    SATISFIES = "Satisfies"
    EQUALITY = "Equality"

    def __str__(self) -> str:
        return self.value


# the sign of sqrt(c_sum) - sqrt(c_1) - sqrt(c_2) decides the verdict
_VERDICTS = {Ordering.LESS: Verdict.VIOLATES, Ordering.GREATER: Verdict.SATISFIES, Ordering.EQUAL: Verdict.EQUALITY}


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


@dataclass(frozen=True, order=True)
class PiRational:
    """A value of the form coeff * pi with an exact rational coefficient.

    Capacities and dual norms are stored this way; pi is never evaluated
    numerically except in the rendering helpers.
    """

    coeff: Fraction

    def __post_init__(self):
        if type(self.coeff) is not Fraction:
            object.__setattr__(self, "coeff", Fraction(self.coeff))

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
