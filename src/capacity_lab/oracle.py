"""Exact and floating-point re-derivations of the exact support norms.

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
when D < 0 and f0 is interior, S(f0).  ``cross_check``, the one
re-derivation behind the CLI's --verify, evaluates these in Fractions,
with no float and without the branch formula of ``minkowski``.  The
float oracles ``support_norm_numeric`` (dense scan plus golden-section
refinement on the numpy kernels) and ``s_derivative_signcheck`` (finite
differences) are library cross-checks.  Disagreement with the exact
engine is a test failure, never a fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .domains import (
    DomainSpec,
    Ellipsoid,
    EllipsoidPair,
    EllipsoidSum,
    IndexVector,
    Polydisk,
    ProductWithBall,
    convex_argmin,
    ellipsoid_capacity_bruteforce,
    ellipsoid_norm_argmin,
)
from .exact import PiRational
from .minkowski import sum_capacity_with_argmin

__all__ = [
    "OracleConfig",
    "SignCheckReport",
    "support_norm_numeric",
    "s_profile",
    "s_derivative",
    "s_derivative_signcheck",
    "golden_max",
    "cross_check",
]


@dataclass(frozen=True)
class OracleConfig:
    grid: int = 4096
    refine_iters: int = 80

    def __post_init__(self):
        if self.grid < 64:
            raise ValueError(f"grid must be >= 64, got {self.grid}")
        if self.refine_iters < 1:
            raise ValueError(f"refine_iters must be >= 1, got {self.refine_iters}")


DEFAULT_CONFIG = OracleConfig()

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(fn, lo: float, hi: float, iters: int) -> float:
    """Golden-section maximum of a unimodal fn on [lo, hi], endpoints included."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    best = max(fn(lo), fn(hi))
    for _ in range(iters):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = fn(x1)
    return max(best, f1, f2)


def support_norm_numeric(v: IndexVector, pair: EllipsoidPair, cfg: OracleConfig = DEFAULT_CONFIG) -> float:
    """Numeric maximum of pi (v1 g^2 + v2 h^2) over psi in [0, pi/2]."""
    a, b, c, d = _float_radii(pair, "support_norm_numeric")
    from . import _kernels

    return _kernels.support_max(v.v1, v.v2, a, b, c, d, cfg.grid, cfg.refine_iters)


def cross_check(k: int, domain: DomainSpec, value: PiRational) -> None:
    """Re-derive c_k(domain) independently and exactly; raise ValueError unless it is value.

    Ellipsoids: the minimum of the dual norms over v1 + v2 = k, and for
    k <= 4096 the k-th sorted multiple.  Polydisks: the minimum of the
    rectangle norms.  Proportional sums and stabilized products reduce to
    their outer and inner domains.  Non-proportional sums: the norms h at
    the argmin v1 and at its neighbours v1 +- 1 are the exact maxima of
    the profile S (module docstring), value must be h(v1), and
    h(v1-1) > h(v1) <= h(v1+1) must hold.  The norm is convex in v1, so
    that local minimum is the global one, with ties broken toward the
    smallest v1.  No float and no numpy is involved.
    """
    if isinstance(domain, Ellipsoid):
        against = ellipsoid_norm_argmin(k, domain)[0]
        if against != value:
            raise ValueError(f"norm minimum {against} != {value}")
        if k <= 4096 and ellipsoid_capacity_bruteforce(k, domain) != value:
            raise ValueError("sorted-multiples check disagrees")
    elif isinstance(domain, Polydisk):
        a2, b2 = domain.a**2, domain.b**2
        against = convex_argmin(lambda v1: v1 * a2 + (k - v1) * b2, k)[0]
        if against != value.coeff:
            raise ValueError(f"rectangle norm minimum {against} != {value.coeff}")
    elif isinstance(domain, ProductWithBall):
        cross_check(k, domain.inner, value)
    elif isinstance(domain, EllipsoidSum):
        if domain.pair.proportional:
            cross_check(k, domain.pair.outer_ellipsoid, value)
        else:
            _cross_check_sum(k, domain.pair, value)
    else:
        raise TypeError(f"unsupported domain: {domain!r}")


def _cross_check_sum(k: int, pair: EllipsoidPair, value: PiRational) -> None:
    v1 = sum_capacity_with_argmin(k, pair)[1].v1
    norms = {u: PiRational(_s_max(u, k - u, pair)) for u in (v1 - 1, v1, v1 + 1) if 0 <= u <= k}
    if norms[v1] != value:
        raise ValueError(f"norm at the argmin v1 = {v1} is {norms[v1]}, not {value}")
    if v1 - 1 in norms and not norms[v1 - 1] > norms[v1]:
        raise ValueError(f"v1 = {v1} is not the smallest minimizer: h(v1-1) = {norms[v1 - 1]}")
    if v1 + 1 in norms and not norms[v1 + 1] >= norms[v1]:
        raise ValueError(f"v1 = {v1} is not a local minimum: h(v1+1) = {norms[v1 + 1]}")


def _critical(v1, v2, a, b, c, d):
    """(D, N) of the module docstring; f0 = N/D."""
    return v2 * b * b - v1 * a * a, v1 * c * c - v2 * d * d


def _s_over_pi(v1, v2, a, b, c, d, f):
    """S(f) / pi, exact for Fraction radii and f, float for floats."""
    r2 = (c / a) ** 2
    s2 = (d / b) ** 2
    term1 = v1 * a * a * (s2 - f * f) * (1 + c * c / (a * a * f)) ** 2
    term2 = v2 * b * b * (f * f - r2) * (1 + d * d / (b * b * f)) ** 2
    return (term1 + term2) / (s2 - r2)


def _s_prime_over_pi(v1, v2, a, b, c, d, f):
    """Closed-form S'(f) / pi, exact for Fraction radii and f, float for floats."""
    D, N = _critical(v1, v2, a, b, c, d)
    dp = (d / b) ** 2 - (c / a) ** 2
    return 2 / (dp * f**3) * (f**3 + (c * c * d * d) / (a * a * b * b)) * (D * f - N)


def _s_max(v1: int, v2: int, pair: EllipsoidPair) -> Fraction:
    """|(v1, v2)|* / pi as the exact maximum of S: at c/a, at d/b, or at an interior maximum N/D."""
    a, b, c, d = pair.radii
    lo, hi = c / a, d / b
    D, N = _critical(v1, v2, a, b, c, d)
    candidates = [lo, hi]
    if D < 0 and lo < N / D < hi:
        candidates.append(N / D)
    return max(_s_over_pi(v1, v2, a, b, c, d, f) for f in candidates)


def _float_radii(pair: EllipsoidPair, op: str) -> tuple[float, float, float, float]:
    if pair.proportional:
        raise ValueError(f"{op} requires a non-proportional pair")
    a, b, c, d = pair.radii
    return float(a), float(b), float(c), float(d)


def s_profile(v: IndexVector, pair: EllipsoidPair, f: float) -> float:
    """S(f) for f in [c/a, d/b] (see module docstring)."""
    a, b, c, d = _float_radii(pair, "s_profile")
    if not (c / a - 1e-12 <= f <= d / b + 1e-12):
        raise ValueError(f"f = {f} outside [c/a, d/b] = [{c / a}, {d / b}]")
    return math.pi * _s_over_pi(v.v1, v.v2, a, b, c, d, f)


def s_derivative(v: IndexVector, pair: EllipsoidPair, f: float) -> float:
    """Closed-form S'(f)."""
    return math.pi * _s_prime_over_pi(v.v1, v.v2, *_float_radii(pair, "s_derivative"), f)


@dataclass(frozen=True)
class SignCheckReport:
    ok: bool
    points: int
    sign_mismatches: int
    max_abs_err: float
    max_allowed_err: float
    f0: float | None
    f0_interior: bool
    f0_is_max: bool


def _fd_derivative(fn, f: float, h: float) -> float:
    # five-point central stencil, O(h^4) truncation
    return (-fn(f + 2 * h) + 8 * fn(f + h) - 8 * fn(f - h) + fn(f - 2 * h)) / (12 * h)


def s_derivative_signcheck(
    v: IndexVector, pair: EllipsoidPair, cfg: OracleConfig = DEFAULT_CONFIG
) -> SignCheckReport:
    """Cross-check the closed-form S' against finite differences.

    Samples cfg.grid interior points of (c/a, d/b).  At each point the
    five-point finite difference must match the closed form within
    max(1e-6, 1e-6 |S'|), and the signs must agree wherever |S'| > 1e-6.
    When f0 = N/D is interior with D < 0, also verifies S(f0) >= S(f0 +- eps).
    """
    a, b, c, d = radii = _float_radii(pair, "s_derivative_signcheck")
    lo, hi = c / a, d / b
    span = hi - lo

    def S(f: float) -> float:
        return math.pi * _s_over_pi(v.v1, v.v2, *radii, f)

    def Sp(f: float) -> float:
        return math.pi * _s_prime_over_pi(v.v1, v.v2, *radii, f)

    sign_mismatches = 0
    max_abs_err = 0.0
    max_allowed = 0.0
    ok = True
    n = cfg.grid
    for j in range(1, n + 1):
        f = lo + span * j / (n + 1)
        # step scales with f: S varies on the scale of f near the left end
        h = min(1e-3 * f, 0.25 * min(f - lo, hi - f))
        if h <= 0.0:
            continue
        fd = _fd_derivative(S, f, h)
        closed = Sp(f)
        err = abs(fd - closed)
        allowed = max(1e-6, 1e-6 * abs(closed))
        if err > max_abs_err:
            max_abs_err = err
            max_allowed = allowed
        if err > allowed:
            ok = False
        if abs(closed) > 1e-6 and fd * closed < 0:
            sign_mismatches += 1
            ok = False

    D, N = _critical(v.v1, v.v2, *pair.radii)
    f0 = float(N / D) if D != 0 else None
    f0_interior = f0 is not None and D < 0 and lo < f0 < hi
    f0_is_max = False
    if f0_interior:
        eps = 1e-5 * span
        left = max(f0 - eps, lo)
        right = min(f0 + eps, hi)
        f0_is_max = S(f0) >= S(left) and S(f0) >= S(right)
        if not f0_is_max:
            ok = False

    return SignCheckReport(
        ok=ok,
        points=n,
        sign_mismatches=sign_mismatches,
        max_abs_err=max_abs_err,
        max_allowed_err=max_allowed,
        f0=f0,
        f0_interior=f0_interior,
        f0_is_max=f0_is_max,
    )
