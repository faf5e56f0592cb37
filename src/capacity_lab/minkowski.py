"""Exact capacities of Minkowski sums of two symplectic ellipsoids,
through the dual support norm.

The moment-map image of E(a,b) + E(c,d) is the region under the
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

from fractions import Fraction
from typing import Callable

from .domains import (
    EllipsoidPair,
    IndexVector,
    _common_denominator,
    _require_positive_k,
    convex_argmin,
    ellipsoid_norm_argmin,
)
from .exact import PiRational


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
