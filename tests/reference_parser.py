"""The character scanner that ``domains.parse_domain`` ran before it read tokens.

Kept as the reference for the token parser: on any text both give the same
domain, or raise the same exception type with the same message.
"""

import re
from fractions import Fraction

from capacity_lab.domains import (
    DomainParseError,
    DomainSpec,
    Ellipsoid,
    EllipsoidPair,
    Polydisk,
    ProductWithBall,
    _excerpt,
)
from capacity_lab.exact import format_rational

# \s is str.isspace; a rational token is decimal digits, '-' and '/' (see _Scanner.rational for other digits)
_SPACE_RE, _TOKEN_RE = re.compile(r"\s*"), re.compile(r"[\d/-]*")

_RATIONAL_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*(\d+)\s*)?$")


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


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        self.pos = _SPACE_RE.match(self.text, self.pos).end()

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
        return EllipsoidPair.normalized(e1, e2)
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


def reference_parse_domain(text: str) -> DomainSpec:
    """Parse a domain literal such as ``sum(E(3/2,1),E(1,3/2))``."""
    sc = _Scanner(text)
    domain = _parse_domain(sc)
    sc.done()
    return domain
