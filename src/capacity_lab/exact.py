"""Exact rational scalars, capacities as rational multiples of pi, and
the Brunn-Minkowski verdicts.

Every scalar that enters a capacity computation is a ``fractions.Fraction``
(arbitrary precision, always in lowest terms with positive denominator), so
every value here is exact.  Floating point appears only in rendering
helpers.

``_Record`` is the base of every immutable value record of the package.
It gives what a frozen dataclass gives and no more: the fields in
``_fields`` and ``__slots__``, one constructor that sets them in order and
then by name with a dataclass's ``TypeError``s, equality only within one
class, a hash over the fields, the dataclass repr, ``AttributeError`` on
assignment or deletion, and ``copy``, ``deepcopy`` and ``pickle`` through
the constructor, so that its checks run again.  No module imports
``dataclasses``.  The records that check their arguments keep their own
``__init__``: ``PiRational``, ``_TwoRadii`` (``Ellipsoid``, ``Polydisk``),
``EllipsoidPair``, ``ProductWithBall`` and ``IndexVector``.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import deque
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import repeat

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


def format_decimal(q: Fraction, factor=1) -> str:
    """q * factor rendered with 12 significant digits.

    Uses Decimal arithmetic so values far outside float range still render.
    """
    with localcontext() as ctx:
        ctx.prec = 20
        val = Decimal(q.numerator) / Decimal(q.denominator) * factor
        ctx.prec = 12
        val = +val
    return f"{val:g}"


def _arguments(record, values: tuple, named: dict) -> tuple:
    """The field values of record's class from values, then named, or the TypeError a dataclass would raise."""
    fields, cls = record._fields, type(record).__name__
    if len(values) > len(fields):
        raise TypeError(f"{cls}() takes {len(fields)} arguments but {len(values)} were given")
    for name in named:
        if name not in fields:
            raise TypeError(f"{cls}() got an unexpected keyword argument {name!r}")
        if fields.index(name) < len(values):
            raise TypeError(f"{cls}() got multiple values for argument {name!r}")
    if missing := [repr(name) for name in fields[len(values):] if name not in named]:
        raise TypeError(f"{cls}() missing required arguments: {', '.join(missing)}")
    return (*values, *[named[name] for name in fields[len(values):]])


# drains an iterator in C (the itertools consume recipe): with map, the fields
# are set at the cost of one object.__setattr__ call each, with no Python loop
_consume = deque(maxlen=0).extend


class _Record:
    """An immutable record with the fields ``_fields``, set in order and then by name, as a dataclass sets them."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values, **named):
        if named or len(values) != len(self._fields):
            values = _arguments(self, values, named)
        _consume(map(object.__setattr__, repeat(self), self._fields, values))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __reduce__(self):
        return self.__class__, self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@functools.total_ordering
class PiRational(_Record):
    """A value of the form coeff * pi with an exact rational coefficient.

    Capacities and dual norms are stored this way; pi is never evaluated
    numerically except in the rendering helpers.  Two values compare by
    their coefficients; a PiRational and a plain number do not compare.
    """

    __slots__ = _fields = ("coeff",)

    def __init__(self, coeff: Fraction):
        object.__setattr__(self, "coeff", coeff if type(coeff) is Fraction else Fraction(coeff))

    def __lt__(self, other):
        return self.coeff < other.coeff if other.__class__ is self.__class__ else NotImplemented

    def __float__(self) -> float:
        return float(self.coeff) * math.pi

    def __str__(self) -> str:
        return f"{format_rational(self.coeff)}·π"

    def decimal(self) -> str:
        """Decimal rendering of coeff * pi with 12 significant digits."""
        return format_decimal(self.coeff, _PI_DECIMAL)

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
