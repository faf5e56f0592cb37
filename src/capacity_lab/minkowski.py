"""The engine: exact Gutt-Hutchings capacities of every supported domain,
as rational multiples of pi; ``capacity`` dispatches on the domain.

For an ellipsoid, the k-th capacity is the k-th smallest element (with
multiplicity) of the merged multiples {i*pi*a^2} and {j*pi*b^2}; the
counting function N(t) = floor(t/a^2) + floor(t/b^2) gives it in closed
form, in O(1) at any k, rather than from a sorted list.  The same closed
form gives the smallest index vector (v1, k - v1) whose norm
max(v1 pi a^2, (k - v1) pi b^2) attains it (``ellipsoid_norm_argmin``).
A polydisk P(a,b) has c_k = k pi min(a^2, b^2), and a product with a
ball factor, in the stabilized regime only, the capacity of its inner
domain; ``capacity`` is the entry point for all of them.

The capacities of a Minkowski sum of two ellipsoids go through the dual
support norm.  The moment-map image of E(a,b) + E(c,d) is the region under the
boundary curve psi -> (pi g^2, pi h^2); g, h and f(psi), which runs from
c/a to d/b, are written out in ``_kernels``, which samples the curve in
floats.  The dual norm of an index vector v = (v1, v2) over that region
has an exact rational branch formula: with

    D = v2 b^2 - v1 a^2,   N = v1 c^2 - v2 d^2,   f0 = N / D,

if D < 0 and f0 lies strictly inside (c/a, d/b), the norm is
pi (b^2 c^2 - a^2 d^2) v1 v2 (1/N + 1/D); otherwise it is
max(v1 pi (a+c)^2, v2 pi (b+d)^2).  Capacities are minima of these norms
over v1 + v2 = k, so every capacity computed here is an exact rational
multiple of pi.
"""

from __future__ import annotations

from collections.abc import Callable
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
)
from .exact import PiRational, format_rational


class StabilizationError(ValueError):
    """Raised when a ball factor is too small for the product reduction."""


def _kth_merged_multiple(k: int, alpha: Fraction, beta: Fraction) -> tuple[Fraction, int]:
    """k-th smallest element of {i*alpha : i >= 1} merged with {j*beta : j >= 1},
    and the smallest v1 in 0..k at which max(v1*alpha, (k - v1)*beta) equals it.

    Ties count twice.  With alpha/beta = p/q in integers, the count of merged
    multiples <= m*alpha is m + floor(mp/q) = floor(m(p+q)/q), which reaches k
    exactly when m >= kq/(p+q).  So m = ceil(kq/(p+q)) for alpha and
    n = ceil(kp/(p+q)) for beta, and the answer is the smaller of m*alpha and
    n*beta: O(1) at any k.  That answer is also the minimum over v1 of
    max(v1*alpha, (k - v1)*beta), first reached at v1 = k - n when it is
    n*beta and at v1 = m otherwise.
    """
    p, q = alpha.numerator * beta.denominator, alpha.denominator * beta.numerator
    m, n = -(-k * q // (p + q)), -(-k * p // (p + q))
    return (n * beta, k - n) if n * q <= m * p else (m * alpha, m)


def ellipsoid_capacity(k: int, e: Ellipsoid) -> PiRational:
    """k-th capacity of E(a,b): the k-th smallest merged multiple of pi a^2, pi b^2."""
    _require_positive_k(k)
    return PiRational(_kth_merged_multiple(k, e.a * e.a, e.b * e.b)[0])


def ellipsoid_norm_argmin(k: int, e: Ellipsoid) -> tuple[PiRational, IndexVector]:
    """Minimum over v1 + v2 = k of max(v1 * pi a^2, v2 * pi b^2), with argmin.

    The minimum is ellipsoid_capacity(k, e) and ties go to the smallest v1,
    both from ``_kth_merged_multiple`` in O(1); the argmin is the witness
    that a proportional sum reports.
    """
    _require_positive_k(k)
    value, v1 = _kth_merged_multiple(k, e.a * e.a, e.b * e.b)
    return PiRational(value), IndexVector(v1, k - v1)


def polydisk_capacity(k: int, p: Polydisk) -> PiRational:
    """k-th capacity of P(a,b): k * pi * min(a^2, b^2)."""
    _require_positive_k(k)
    return PiRational(k * min(p.a * p.a, p.b * p.b))


def _require_nonproportional(pair: EllipsoidPair, op: str) -> None:
    if pair.proportional:
        raise ValueError(
            f"{op} requires a non-proportional pair; a proportional sum is the "
            "ellipsoid E(a+c, b+d), use the ellipsoid operations directly"
        )


def support_norm(v: IndexVector, pair: EllipsoidPair) -> PiRational:
    """Exact dual norm of v over the moment image of the sum.

    Branches on the critical point f0 = N/D described in the module
    docstring; every comparison is exact integer arithmetic.
    """
    _require_nonproportional(pair, "support_norm")
    return PiRational(Fraction(*_norm_coeff(v.k, pair)(v.v1)))


def _norm_coeff(k: int, pair: EllipsoidPair) -> Callable[[int], tuple[int, int]]:
    """v1 -> |(v1, k - v1)|* / pi as an integer pair (num, den) with den > 0.

    a^2, b^2, c^2, d^2, (a+c)^2 and (b+d)^2 are A2/L, ..., BD2/L over one
    common denominator L, and c/a, d/b are lo_num/lo_den, hi_num/hi_den.
    Then D = v2 B2 - v1 A2 and N = v1 C2 - v2 D2 are L times the D and N
    of the module docstring.  The interior branch, D < 0 and
    c/a < N/D < d/b, is lo_num D > lo_den N and hi_den N > hi_num D; its
    value is X v1 v2 (N + D) / (L N D) with X = B2 C2 - A2 D2.  Otherwise
    the value is max(v1 AC2, v2 BD2) / L.
    """
    a, b, c, d = pair.radii
    (A2, B2, C2, D2, AC2, BD2), L = _common_denominator(a * a, b * b, c * c, d * d, (a + c) ** 2, (b + d) ** 2)
    lo, hi = c / a, d / b
    lo_num, lo_den, hi_num, hi_den = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    X = B2 * C2 - A2 * D2

    def h(v1: int) -> tuple[int, int]:
        v2 = k - v1
        D = v2 * B2 - v1 * A2
        if D < 0:
            N = v1 * C2 - v2 * D2
            if lo_num * D > lo_den * N and hi_den * N > hi_num * D:
                return X * v1 * v2 * (N + D), L * N * D
        return max(v1 * AC2, v2 * BD2), L

    return h


def sum_capacity(k: int, pair: EllipsoidPair) -> PiRational:
    """k-th capacity of E(a,b) + E(c,d)."""
    return sum_capacity_with_argmin(k, pair)[0]


def sum_capacity_with_argmin(k: int, pair: EllipsoidPair) -> tuple[PiRational, IndexVector]:
    """Capacity of the sum together with the minimizing index vector.

    Proportional pairs reduce to the ellipsoid E(a+c, b+d).  Otherwise the
    norm is convex in v1, so ``convex_argmin`` bisects over v1 = 0..k for
    the smallest minimizer in O(log k) exact evaluations.
    """
    _require_positive_k(k)
    if pair.proportional:
        return ellipsoid_norm_argmin(k, pair.outer_ellipsoid)
    value, v1 = convex_argmin(_norm_coeff(k, pair), k)
    return PiRational(value), IndexVector(v1, k - v1)


def capacity(k: int, domain: DomainSpec) -> PiRational:
    """k-th capacity of any supported domain.

    A product X x B^m(R) is supported only in the stabilized regime
    R^2 > c_k(X)/pi, where the ball factor is invisible and the capacity is
    c_k(X); a smaller R raises StabilizationError, as the general minimum
    over splittings is not offered.
    """
    _require_positive_k(k)
    if isinstance(domain, Ellipsoid):
        return ellipsoid_capacity(k, domain)
    if isinstance(domain, Polydisk):
        return polydisk_capacity(k, domain)
    if isinstance(domain, EllipsoidPair):
        return sum_capacity(k, domain)
    if isinstance(domain, ProductWithBall):
        inner_cap = capacity(k, domain.inner)
        if domain.R * domain.R <= inner_cap.coeff:
            raise StabilizationError(
                f"stabilization condition unmet: need pi*R^2 > c_{k}(X), i.e. "
                f"R^2 > {format_rational(inner_cap.coeff)}, got R = {format_rational(domain.R)}"
            )
        return inner_cap
    raise TypeError(f"unsupported domain: {domain!r}")
