"""The exact verifier: ``cross_check`` re-derives a capacity and
``verify_certificate`` a certificate.  It also holds the certificate
record, ``BMCertificate``, and its file format (``to_dict``,
``from_dict``), so a certificate is read and checked by one module; its
``margin`` is for display, and no check reads it.  From the package it
imports only ``domains`` and ``exact``, so it loads neither the engine
nor numpy.

Reparameterized by f in [c/a, d/b], the boundary objective of an
ellipsoid sum at v = (v1, v2) is the profile

    S(f) = pi v1 a^2 (1/Dp) (d^2/b^2 - f^2) (1 + c^2/(a^2 f))^2
         + pi v2 b^2 (1/Dp) (f^2 - c^2/a^2) (1 + d^2/(b^2 f))^2

where Dp = d^2/b^2 - c^2/a^2 > 0.  S(c/a) = v1 pi (a+c)^2,
S(d/b) = v2 pi (b+d)^2, and

    S'(f) = (2 pi / (Dp f^3)) (f^3 + c^2 d^2 / (a^2 b^2)) (D f - N)

with D = v2 b^2 - v1 a^2 and N = v1 c^2 - v2 d^2, so the only possible
interior critical point is f0 = N/D, a maximum exactly when D < 0.  The
norm of v, the maximum of S, is thus the largest of S(c/a), S(d/b) and,
when D < 0 and f0 is interior, S(f0).  ``_s_max`` evaluates these as
integer pairs over one common denominator, with no float and without the
branch formula of ``minkowski``.  ``_cmp_root_sum`` decides sqrt(c_sum)
against sqrt(c_1) + sqrt(c_2) apart from ``bm.cmp_sqrt_combination``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from decimal import Decimal, localcontext
from fractions import Fraction

from .domains import (
    DomainSpec,
    Ellipsoid,
    EllipsoidPair,
    IndexVector,
    Polydisk,
    ProductWithBall,
    _common_denominator,
    _require_positive_k,
    convex_argmin,
    format_domain,
    parse_domain,
)
from .exact import _PI_DECIMAL, _VERDICTS, Ordering, PiRational, Verdict, _Record


def cross_check(k: int, domain: DomainSpec, value: PiRational, witness: IndexVector | None = None) -> None:
    """Re-derive c_k(domain), k >= 1, independently and exactly; raise ValueError unless it is value.

    Ellipsoids: value / pi = c is the k-th merged multiple of a^2 and b^2 exactly
    when at least k multiples are <= c and fewer than k are < c: four floor
    divisions of integers read off c and the radii.  Polydisks: the minimum of
    the rectangle norms, as integer pairs over the common denominator of a^2 and
    b^2.  Proportional sums reduce to their outer ellipsoid.  A stabilized
    product X x B^m(R) reduces to X when R^2 > c, the regime in which its
    capacity is defined.  Non-proportional sums: the norms h at the
    argmin v1 and at its neighbours v1 +- 1 are the exact maxima of the
    profile S (module docstring), value must be h(v1), and
    h(v1-1) > h(v1) <= h(v1+1) must hold.  The norm is convex in v1, so
    that local minimum is the global one, with ties broken toward the
    smallest v1.  v1 is the witness's, or else found by ``convex_argmin``
    over the same norms h; a wrong witness can only fail.  No float and no
    numpy is involved.
    """
    _require_positive_k(k)
    if isinstance(domain, EllipsoidPair) and not domain.proportional:
        _cross_check_sum(k, domain, value, witness)
    elif witness is not None:
        raise ValueError(f"{format_domain(domain)} has no argmin to witness; only a non-proportional sum does")
    elif isinstance(domain, Ellipsoid):
        a, b = domain.a, domain.b
        alpha, beta = (a.numerator**2, a.denominator**2), (b.numerator**2, b.denominator**2)
        if not _is_kth_merged_multiple(k, value.coeff, alpha, beta):
            raise ValueError(f"{value} is not the {k}-th merged multiple of pi a^2 and pi b^2")
    elif isinstance(domain, Polydisk):
        (A, B), L = _common_denominator(domain.a**2, domain.b**2)
        against = convex_argmin(lambda v1: (v1 * A + (k - v1) * B, L), k)[0]
        if against != value.coeff:
            raise ValueError(f"rectangle norm minimum {against} != {value.coeff}")
    elif isinstance(domain, ProductWithBall):
        if domain.R * domain.R <= value.coeff:
            raise ValueError(f"stabilization condition unmet: need R^2 > {value.coeff}, got R = {domain.R}")
        cross_check(k, domain.inner, value)
    elif isinstance(domain, EllipsoidPair):
        cross_check(k, domain.outer_ellipsoid, value)
    else:
        raise TypeError(f"unsupported domain: {domain!r}")


def _is_kth_merged_multiple(k: int, c: Fraction, alpha: tuple[int, int], beta: tuple[int, int]) -> bool:
    """Is c the k-th smallest of {i alpha : i >= 1} merged with {j beta : j >= 1}, ties counted twice?"""
    at_most = below = 0
    for num, den in (alpha, beta):
        n, m = c.numerator * den, c.denominator * num  # c / step = n / m, m > 0
        at_most += n // m
        below += -(-n // m) - 1
    return at_most >= k > below


def _cross_check_sum(k: int, pair: EllipsoidPair, value: PiRational, witness: IndexVector | None) -> None:
    if witness is not None and witness.k != k:
        raise ValueError(f"witness ({witness.v1}, {witness.v2}) does not sum to k = {k}")
    h = _s_max(pair)
    v1 = convex_argmin(lambda u: h(u, k - u), k)[1] if witness is None else witness.v1
    norms = {u: h(u, k - u) for u in (v1 - 1, v1, v1 + 1) if 0 <= u <= k}
    if norms[v1][0] * value.coeff.denominator != value.coeff.numerator * norms[v1][1]:
        raise ValueError(f"norm at the argmin v1 = {v1} is {_pi(norms[v1])}, not {value}")
    if v1 - 1 in norms and not _exceeds(norms[v1 - 1], norms[v1]):
        raise ValueError(f"v1 = {v1} is not the smallest minimizer: h(v1-1) = {_pi(norms[v1 - 1])}")
    if v1 + 1 in norms and _exceeds(norms[v1], norms[v1 + 1]):
        raise ValueError(f"v1 = {v1} is not a local minimum: h(v1+1) = {_pi(norms[v1 + 1])}")


def _cmp_root_sum(s: Fraction, t: Fraction, u: Fraction) -> Ordering:
    """Sign of sqrt(s) - sqrt(t) - sqrt(u) for s, t, u >= 0, derived apart from ``bm.cmp_sqrt_combination``.

    If s < t, then sqrt(s) < sqrt(t) <= sqrt(t) + sqrt(u).  Otherwise
    sqrt(s) - sqrt(t) >= 0, so the sign is that of (sqrt(s) - sqrt(t))^2 - u
    = e - 2 sqrt(st) with e = s + t - u: LESS when e < 0, else the sign of
    e^2 - 4st.  All of it runs on the integer numerators over one common
    denominator.
    """
    sd, td, ud = s.denominator, t.denominator, u.denominator
    L = math.lcm(sd, td, ud)
    S, T, U = s.numerator * (L // sd), t.numerator * (L // td), u.numerator * (L // ud)
    if S < T:
        return Ordering.LESS
    e = S + T - U
    if e < 0:
        return Ordering.LESS
    x = e * e - 4 * S * T
    return Ordering((x > 0) - (x < 0))


def _exceeds(x: tuple[int, int], y: tuple[int, int]) -> bool:
    """x > y for integer pairs (num, den) with den > 0."""
    return x[0] * y[1] > y[0] * x[1]


def _pi(x: tuple[int, int]) -> PiRational:
    return PiRational(Fraction(*x))


def _s_max(pair: EllipsoidPair) -> Callable[[int, int], tuple[int, int]]:
    """(v1, v2) -> |(v1, v2)|* / pi as an integer pair (num, den), den > 0: the largest S at c/a, d/b, interior N/D.

    With a^2, b^2, (c/a)^2, (d/b)^2 = A2/L, B2/L, R2/L, S2/L, S/pi at f = p/q is
    (v1 A2 (S2 q^2 - L p^2)(L p + R2 q)^2 + v2 B2 (L p^2 - R2 q^2)(L p + S2 q)^2) / (L^3 p^2 q^2 (S2 - R2)).
    N/D = p/q for p = v2 B2 S2 - v1 A2 R2, q = L (v1 A2 - v2 B2) > 0 iff D < 0; interior iff
    p > 0 and R2 q^2 < L p^2 < S2 q^2.
    """
    a, b, c, d = pair.radii
    # a, b, c/a and d/b as integer pairs (num, den); L = l^2 for l the lcm of their denominators
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    lo, hi = (c.numerator * ad, c.denominator * an), (d.numerator * bd, d.denominator * bn)
    l = math.lcm(ad, bd, lo[1], hi[1])
    A2, B2 = (an * (l // ad)) ** 2, (bn * (l // bd)) ** 2
    R2, S2 = (lo[0] * (l // lo[1])) ** 2, (hi[0] * (l // hi[1])) ** 2
    L = l * l
    scale = L**3 * (S2 - R2)

    def S(p: int, q: int) -> tuple[int, int, int]:
        """S/pi at f = p/q as (X, Y, Z): v1 X / Z + v2 Y / Z, linear in (v1, v2)."""
        Lp, Lp2, q2 = L * p, L * p * p, q * q
        return A2 * (S2 * q2 - Lp2) * (Lp + R2 * q) ** 2, B2 * (Lp2 - R2 * q2) * (Lp + S2 * q) ** 2, scale * p * p * q2

    # the ends c/a and d/b do not depend on v, so S is built there once
    (X0, Y0, Z0), (X1, Y1, Z1) = S(*lo), S(*hi)

    def norm(v1: int, v2: int) -> tuple[int, int]:
        best = v1 * X0 + v2 * Y0, Z0
        if _exceeds(upper := (v1 * X1 + v2 * Y1, Z1), best):
            best = upper
        q = L * (v1 * A2 - v2 * B2)
        if q > 0:
            p = v2 * B2 * S2 - v1 * A2 * R2
            # strict or not, the maximum is the same: at f0 = c/a or d/b, S(f0) is that end's value
            if p > 0 and R2 * q * q < L * p * p < S2 * q * q:
                X, Y, Z = S(p, q)
                if _exceeds(inner := (v1 * X + v2 * Y, Z), best):
                    best = inner
        return best

    return norm


class BMCertificate(_Record):
    """Exact record of one comparison sqrt(c_k(K1+K2)) vs sqrt(c_k(K1)) + sqrt(c_k(K2)).

    witness is the sum's argmin over the normalized pair, None if the pair is proportional.
    """

    __slots__ = _fields = ("k", "domain1", "domain2", "c_sum", "c_1", "c_2", "verdict", "comparison", "witness")

    def margin(self) -> float:
        """Float value of sqrt(c_sum) - sqrt(c_1) - sqrt(c_2); its sign is that of comparison.

        OverflowError only when the margin itself is beyond float range.
        """
        if self.comparison is Ordering.EQUAL:
            return 0.0
        return _cancellation_free_margin(self.c_sum.coeff, self.c_1.coeff, self.c_2.coeff)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "domain1": format_domain(self.domain1),
            "domain2": format_domain(self.domain2),
            "c_sum": self.c_sum.as_dict(),
            "c1": self.c_1.as_dict(),
            "c2": self.c_2.as_dict(),
            "verdict": str(self.verdict),
            "comparison": self.comparison.name,
            "witness": None if self.witness is None else {"v1": self.witness.v1, "v2": self.witness.v2},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BMCertificate":
        # bool is an int subclass; int() would truncate a float and parse a string
        if type(d["k"]) is not int:
            raise ValueError(f"k must be an integer, got {d['k']!r}")
        domain1, domain2 = _domain_from_dict(d, "domain1"), _domain_from_dict(d, "domain2")
        if not isinstance(domain1, Ellipsoid) or not isinstance(domain2, Ellipsoid):
            raise ValueError("certificate domains must be ellipsoids")
        return cls(
            d["k"],
            domain1,
            domain2,
            PiRational.from_dict(d["c_sum"]),
            PiRational.from_dict(d["c1"]),
            PiRational.from_dict(d["c2"]),
            Verdict(d["verdict"]),
            Ordering[d["comparison"]],
            None if (w := d.get("witness")) is None else _witness_from_dict(w, d["k"]),
        )


def _cancellation_free_margin(s: Fraction, t: Fraction, u: Fraction) -> float:
    """sqrt(pi) (sqrt(s) - sqrt(t) - sqrt(u)) for s, t, u >= 0, with no cancellation at any k.

    With d = s - t - u exact, the value is sqrt(pi) (d - 2 sqrt(tu)) / (sqrt(s) + sqrt(t) + sqrt(u)).
    For d < 0 both terms of d - 2 sqrt(tu) are negative; otherwise it is written
    (d^2 - 4tu) / (d + 2 sqrt(tu)), whose numerator is exact.  No step subtracts two
    rounded values, so 40 significant digits leave only the final rounding to float.
    """
    d = s - t - u
    with localcontext() as ctx:
        ctx.prec = 40
        S, T, U = (Decimal(q.numerator) / q.denominator for q in (s, t, u))
        root_tu = (T * U).sqrt()
        if d < 0:
            gap = Decimal(d.numerator) / d.denominator - 2 * root_tu
        else:
            n = d * d - 4 * t * u
            gap = Decimal(n.numerator) / n.denominator / (Decimal(d.numerator) / d.denominator + 2 * root_tu)
        margin = float(_PI_DECIMAL.sqrt() * gap / (S.sqrt() + T.sqrt() + U.sqrt()))
    if margin == 0 or math.isinf(margin):
        raise OverflowError("the margin is beyond float range")
    return margin


def _domain_from_dict(d: dict, name: str) -> DomainSpec:
    # parse_domain would let re raise a TypeError whose wording names no field and varies by Python version
    if type(d[name]) is not str:
        raise ValueError(f"{name} must be a string, got {type(d[name]).__name__}")
    return parse_domain(d[name])


def _witness_from_dict(w, k: int) -> IndexVector:
    v1, v2 = (w.get("v1"), w.get("v2")) if isinstance(w, dict) else (None, None)
    if type(v1) is not int or type(v2) is not int or v1 < 0 or v2 < 0 or v1 + v2 != k:
        raise ValueError(f'witness must be null or {{"v1": v1, "v2": v2}}, JSON integers >= 0 with sum {k}')
    return IndexVector(v1, v2)


def verify_certificate(cert: BMCertificate, reasons: list[str] | None = None) -> bool:
    """Re-derive every field of a certificate here, never with the engine that wrote it.

    c_sum is checked at the witness by ``cross_check`` (found by bisection over this module's
    own norms when missing; a wrong one can only fail), c_1 against domain1 and c_2 against
    domain2; comparison and verdict are recomputed from them by ``_cmp_root_sum``, which shares
    no code with the engine's ``cmp_sqrt_combination``.  The message of the first failed check
    is appended to reasons.
    """

    def failed(reason: str) -> bool:
        if reasons is not None:
            reasons.append(reason)
        return False

    for field, domain, value, witness in (
        ("c_sum", EllipsoidPair.normalized(cert.domain1, cert.domain2), cert.c_sum, cert.witness),
        ("c1", cert.domain1, cert.c_1, None),
        ("c2", cert.domain2, cert.c_2, None),
    ):
        try:
            cross_check(cert.k, domain, value, witness)
        except ValueError as exc:
            return failed(f"{field}: {exc}")
    comparison = _cmp_root_sum(cert.c_sum.coeff, cert.c_1.coeff, cert.c_2.coeff)
    if (comparison, _VERDICTS[comparison]) != (cert.comparison, cert.verdict):
        got, claimed = f"{comparison.name} ({_VERDICTS[comparison]})", f"{cert.comparison.name} ({cert.verdict})"
        return failed(f"comparison: the three values give {got}, not {claimed}")
    return True
