"""Minkowski sums of two symplectic ellipsoids: boundary parameterization,
convexity verification, and exact capacities through the dual support norm.

The boundary of E(a,b) + E(c,d) respects the two complex factors. With
psi in [0, pi/2] it is traced by radii

    g(psi) = cos psi * (a + c^2 / (a f(psi)))
    h(psi) = sin psi * (b + d^2 / (b f(psi)))
    f(psi) = sqrt((c/a)^2 cos^2 psi + (d/b)^2 sin^2 psi)

and the moment-map image of the sum is the region under the curve
psi -> (pi g^2, pi h^2).  The dual norm of an index vector v = (v1, v2)
over that region has an exact rational branch formula: with

    D = v2 b^2 - v1 a^2,   N = v1 c^2 - v2 d^2,   f0 = N / D,

if D < 0 and f0 lies strictly inside (c/a, d/b), the norm is
pi (b^2 c^2 - a^2 d^2) v1 v2 (1/N + 1/D); otherwise it is
max(v1 pi (a+c)^2, v2 pi (b+d)^2).  Capacities are minima of these norms
over v1 + v2 = k, so every capacity computed here is an exact rational
multiple of pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .domains import (
    Ellipsoid,
    EllipsoidPair,
    IndexVector,
    _common_denominator,
    _require_positive_k,
    convex_argmin,
    ellipsoid_norm_argmin,
)
from .exact import PiRational


@dataclass(frozen=True)
class OmegaSample:
    """One point (x1, x2) = (pi g^2, pi h^2) of the moment-image boundary curve."""

    psi: float
    x1: float
    x2: float


@dataclass(frozen=True)
class ConvexityReport:
    ok: bool
    worst_C1: float
    worst_C2: float
    grid: int


@dataclass(frozen=True)
class StrictnessReport:
    """Outcome of comparing c_k(sum) against c_k(E(a+c, b+d))."""

    strict: bool
    c_sum: PiRational
    c_inner: PiRational
    inner_argmin: IndexVector
    criterion_strict: bool
    criterion_agrees: bool


def _require_nonproportional(pair: EllipsoidPair, op: str) -> None:
    if pair.proportional:
        raise ValueError(
            f"{op} requires a non-proportional pair; a proportional sum is the "
            "ellipsoid E(a+c, b+d), use the ellipsoid operations directly"
        )


def _float_radii(pair: EllipsoidPair, op: str) -> tuple[float, float, float, float]:
    """The radii a, b, c, d as floats, for the float paths; refuses a proportional pair."""
    _require_nonproportional(pair, op)
    a, b, c, d = pair.radii
    return float(a), float(b), float(c), float(d)


def omega_curve(pair: EllipsoidPair, samples: int) -> list[OmegaSample]:
    """samples+1 moment-image boundary points at uniformly spaced psi.

    The first and last entries are exactly (pi (a+c)^2, 0) and
    (0, pi (b+d)^2) as floats of the rational radii.  Radii whose curve
    leaves float range raise ValueError.
    """
    _require_nonproportional(pair, "omega_curve")
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    import numpy as np

    from . import _kernels

    a, b, c, d = pair.radii
    psis = 0.5 * math.pi * np.arange(samples + 1) / samples
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            x1, x2 = _kernels.omega_xy(float(a), float(b), float(c), float(d), psis)
        ends = math.pi * float((a + c) ** 2), math.pi * float((b + d) ** 2)
        finite = math.isfinite(max(ends)) and np.isfinite(x1).all() and np.isfinite(x2).all()
    except ArithmeticError:  # a radius or an intermediate beyond float range, or a division by zero
        finite = False
    if not finite:
        raise ValueError("omega_curve samples of these radii lie beyond float range")
    out = [OmegaSample(float(p), float(u), float(w)) for p, u, w in zip(psis, x1, x2)]
    out[0] = OmegaSample(0.0, ends[0], 0.0)
    out[-1] = OmegaSample(float(psis[-1]), 0.0, ends[1])
    return out


def convexity_check(pair: EllipsoidPair, grid: int) -> ConvexityReport:
    """Verify C' < 0 and C'' < 0 at grid interior angles.

    C is the function with C(pi g^2) = pi h^2 along the boundary curve.
    Closed forms are evaluated at psi = j*(pi/2)/(grid+1), j = 1..grid.
    Besides strict negativity, the structural facts are asserted: C' is a
    ratio of positive quantities with a leading minus sign, and C'' has
    the sign of g' (negative on the open quadrant).
    """
    af, bf, cf, df = _float_radii(pair, "convexity_check")
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    import numpy as np

    from . import _kernels

    psis = 0.5 * math.pi * np.arange(1, grid + 1) / (grid + 1)
    c1, c2, gp = _kernels.convexity_grid(af, bf, cf, df, psis)
    signs_match = bool(np.all((c2 < 0) == (gp < 0)))
    ok = bool(np.all(c1 < 0) and np.all(c2 < 0) and np.all(gp < 0) and signs_match)
    return ConvexityReport(ok=ok, worst_C1=float(c1.max()), worst_C2=float(c2.max()), grid=grid)


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


def strictness_check(k: int, pair: EllipsoidPair) -> StrictnessReport:
    """Is c_k(sum) strictly larger than c_k(E(a+c, b+d))?

    ``strict`` is decided from the exact capacities.  The report also
    evaluates the sufficient criterion on the inner ellipsoid's minimizing
    vector v = (v1, k-v1): strictness is implied when
    (v1 c^2 - (k-v1) d^2) / ((k-v1) b^2 - v1 a^2) lies in (c/a, d/b) and
    (k-v1) b^2 < v1 a^2.
    """
    _require_positive_k(k)
    a, b, c, d = pair.radii
    c_inner, argmin = ellipsoid_norm_argmin(k, pair.outer_ellipsoid)
    c_sum = sum_capacity(k, pair)
    strict = c_sum.coeff > c_inner.coeff
    v1, v2 = argmin.v1, argmin.v2
    D = v2 * b * b - v1 * a * a
    N = v1 * c * c - v2 * d * d
    criterion = D < 0 and c / a < N / D < d / b
    return StrictnessReport(
        strict=strict,
        c_sum=c_sum,
        c_inner=c_inner,
        inner_argmin=argmin,
        criterion_strict=criterion,
        criterion_agrees=(criterion == strict),
    )
