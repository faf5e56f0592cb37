"""Brunn-Minkowski violation certificates, the two counterexample families,
the exact mean width and the mean-width capacity criterion.

A certificate, ``verify.BMCertificate``, records the exact capacities c_k
of a Minkowski sum and of its two summands together with the exact
ordering of sqrt(c_sum) against sqrt(c_1) + sqrt(c_2); the pi factors
cancel, so the square-root comparison runs on rational coefficients and
needs no floating point.  ``bm_check`` decides that ordering with
``cmp_sqrt_combination``, the engine's comparison, and records the sum's
argmin as the witness.  The record, its file format and its checker
``verify_certificate`` live in ``verify``, which imports nothing of this
module or of the engine.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .domains import DomainSpec, Ellipsoid, EllipsoidPair, Polydisk, format_domain
from .exact import _VERDICTS, Ordering, PiRational, Verdict
from .minkowski import ellipsoid_capacity, sum_capacity_with_argmin
from .verify import BMCertificate


class ReproductionError(RuntimeError):
    """A family certificate failed to violate or missed its closed form."""


def even_family(k: int) -> EllipsoidPair:
    """The even-index counterexample pair (E(1+1/k, 1), E(1, 1+1/k))."""
    if k < 2 or k % 2 != 0:
        raise ValueError(f"even_family requires an even k >= 2, got {k}")
    bump = 1 + Fraction(1, k)
    return EllipsoidPair.normalized(Ellipsoid(bump, 1), Ellipsoid(1, bump))


def odd_family(k: int) -> EllipsoidPair:
    """The odd-index counterexample pair (E(1,1), E(1-1/k, 1))."""
    if k <= 1 or k % 2 != 1:
        raise ValueError(f"odd_family requires an odd k > 1, got {k}")
    return EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(1 - Fraction(1, k), 1))


def cmp(x, y) -> Ordering:
    """Exact total-order comparison of two rationals (or ints)."""
    if x < y:
        return Ordering.LESS
    if x > y:
        return Ordering.GREATER
    return Ordering.EQUAL


def cmp_sqrt_combination(s: Fraction, t: Fraction, u: Fraction) -> Ordering:
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


def bm_check(k: int, pair: EllipsoidPair) -> BMCertificate:
    """Compare sqrt(c_k(sum)) with sqrt(c_k(E1)) + sqrt(c_k(E2)), exactly."""
    c_sum, argmin = sum_capacity_with_argmin(k, pair)
    c_1 = ellipsoid_capacity(k, pair.first)
    c_2 = ellipsoid_capacity(k, pair.second)
    comparison = cmp_sqrt_combination(c_sum.coeff, c_1.coeff, c_2.coeff)
    return BMCertificate(
        k=k,
        domain1=pair.first,
        domain2=pair.second,
        c_sum=c_sum,
        c_1=c_1,
        c_2=c_2,
        verdict=_VERDICTS[comparison],
        comparison=comparison,
        witness=None if pair.proportional else argmin,
    )


def expected_family_coeff(k: int) -> Fraction:
    """Closed-form coefficient of c_k(sum) for the family at index k.

    Even k: 2k + 2 + 1/k.  Odd k: ((k+1)/2) (2 - 1/k)^2.
    """
    if k % 2 == 0:
        return 2 * k + 2 + Fraction(1, k)
    return Fraction(k + 1, 2) * (2 - Fraction(1, k)) ** 2


def _reproduce_one(k: int) -> BMCertificate:
    cert = bm_check(k, even_family(k) if k % 2 == 0 else odd_family(k))
    expected = PiRational(expected_family_coeff(k))
    if cert.c_sum != expected:
        raise ReproductionError(f"k={k}: computed c_sum = {cert.c_sum}, closed form expects {expected}")
    if cert.verdict is not Verdict.VIOLATES:
        raise ReproductionError(f"k={k}: expected verdict Violates, got {cert.verdict}")
    return cert


def reproduce_theorem(k_max: int) -> Iterator[BMCertificate]:
    """An iterator of one violating certificate per k in {2, ..., k_max}, ordered by k.

    k_max is checked at the call.  Each certificate is built, and checked
    against its closed form, as the iterator reaches its k; a Satisfies
    verdict or a closed-form mismatch raises ReproductionError there.
    """
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    return map(_reproduce_one, range(2, k_max + 1))


def mean_width(domain: DomainSpec) -> Fraction:
    """Exact mean width M(K): the average of the support function of K over S^3.

    The support function depends only on p = |z1|^2, which is uniform on
    [0, 1] for a uniform point of S^3 (see ``_kernels.mean_width_estimate``,
    its Monte Carlo cross-check), so M is an integral over p in closed form:

        M(P(a,b)) = 2(a + b)/3,   M(E(a,b)) = 2(a^2 + ab + b^2) / (3(a + b)).

    Support functions add under Minkowski sum, so M(E1 + E2) = M(E1) + M(E2).
    A product with a ball is not 4-dimensional and raises ValueError.
    """
    if isinstance(domain, Polydisk):
        return Fraction(2, 3) * (domain.a + domain.b)
    if isinstance(domain, Ellipsoid):
        a, b = domain.a, domain.b
        return 2 * (a * a + a * b + b * b) / (3 * (a + b))
    if isinstance(domain, EllipsoidPair):
        return mean_width(domain.first) + mean_width(domain.second)
    raise ValueError(
        "mean width supports only 4-dimensional ellipsoids, polydisks and ellipsoid sums, "
        f"got {format_domain(domain)}"
    )


@dataclass(frozen=True)
class CriterionReport:
    """Mean-width criterion at index k: the unit polydisk beats the bound.

    A normalized capacity satisfying the Brunn-Minkowski inequality is
    capped by pi M(K)^2 on centrally symmetric K.  With c_k(P(1,1)) = pi k,
    c_k(B^4(1)) = pi floor((k+1)/2), M(P(1,1)) = 4/3 and M(B^4(1)) = 1, the
    cap fails exactly when k / floor((k+1)/2) > (M(P(1,1)) / M(B^4(1)))^2
    = 16/9, so some c_k violates the inequality for every such k.
    """

    k: int
    violating: bool
    lhs: Fraction
    rhs: Fraction
    c_polydisk: PiRational
    c_ball: PiRational


def ostrover_criterion(k: int) -> CriterionReport:
    """Exact evaluation of k / floor((k+1)/2) > 16/9."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    half = (k + 1) // 2
    lhs = Fraction(k, half)
    rhs = (mean_width(Polydisk(1, 1)) / mean_width(Ellipsoid(1, 1))) ** 2
    return CriterionReport(
        k=k,
        violating=lhs > rhs,
        lhs=lhs,
        rhs=rhs,
        c_polydisk=PiRational(Fraction(k)),
        c_ball=PiRational(Fraction(half)),
    )
