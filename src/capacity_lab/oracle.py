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
differences over the whole f grid at once, as numpy arrays fed to the
same S and S' builders) are library cross-checks; both import numpy
when called.  Disagreement with the exact engine is a test failure,
never a fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .domains import (
    DomainSpec,
    Ellipsoid,
    EllipsoidPair,
    EllipsoidSum,
    IndexVector,
    Polydisk,
    ProductWithBall,
    _common_denominator,
    convex_argmin,
)
from .exact import PiRational
from .minkowski import _float_radii, sum_capacity_with_argmin

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

    Ellipsoids: value / pi = c is the k-th merged multiple of a^2 and b^2
    exactly when floor(c/a^2) + floor(c/b^2) >= k and
    (ceil(c/a^2) - 1) + (ceil(c/b^2) - 1) < k, that is, when at least k
    multiples are <= c and fewer than k are < c: four integer floor
    divisions.  Polydisks: the minimum of the rectangle norms, as integer
    pairs over the common denominator of a^2 and b^2.  Proportional sums
    and stabilized products reduce to their outer and inner domains.
    Non-proportional sums: the norms h at the argmin v1 and at its
    neighbours v1 +- 1 are the exact maxima of the profile S (module
    docstring), value must be h(v1), and h(v1-1) > h(v1) <= h(v1+1) must
    hold.  The norm is convex in v1, so that local minimum is the global
    one, with ties broken toward the smallest v1.  No float and no numpy
    is involved.
    """
    if isinstance(domain, Ellipsoid):
        if not _is_kth_merged_multiple(k, value.coeff, domain.a**2, domain.b**2):
            raise ValueError(f"{value} is not the {k}-th merged multiple of pi a^2 and pi b^2")
    elif isinstance(domain, Polydisk):
        (A, B), L = _common_denominator(domain.a**2, domain.b**2)
        against = convex_argmin(lambda v1: (v1 * A + (k - v1) * B, L), k)[0]
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


def _is_kth_merged_multiple(k: int, c: Fraction, alpha: Fraction, beta: Fraction) -> bool:
    """Is c the k-th smallest of {i alpha : i >= 1} merged with {j beta : j >= 1}, ties counted twice?"""
    at_most = below = 0
    for step in (alpha, beta):
        n, m = c.numerator * step.denominator, c.denominator * step.numerator  # c / step = n / m, m > 0
        at_most += n // m
        below += -(-n // m) - 1
    return at_most >= k > below


def _cross_check_sum(k: int, pair: EllipsoidPair, value: PiRational) -> None:
    v1 = sum_capacity_with_argmin(k, pair)[1].v1
    h = _s_max(pair)
    norms = {u: PiRational(h(u, k - u)) for u in (v1 - 1, v1, v1 + 1) if 0 <= u <= k}
    if norms[v1] != value:
        raise ValueError(f"norm at the argmin v1 = {v1} is {norms[v1]}, not {value}")
    if v1 - 1 in norms and not norms[v1 - 1] > norms[v1]:
        raise ValueError(f"v1 = {v1} is not the smallest minimizer: h(v1-1) = {norms[v1 - 1]}")
    if v1 + 1 in norms and not norms[v1 + 1] >= norms[v1]:
        raise ValueError(f"v1 = {v1} is not a local minimum: h(v1+1) = {norms[v1 + 1]}")


def _critical(v1, v2, a, b, c, d):
    """(D, N) of the module docstring; f0 = N/D."""
    return v2 * b * b - v1 * a * a, v1 * c * c - v2 * d * d


def _s_over_pi(a, b, c, d) -> Callable:
    """(v1, v2, f) -> S(f) / pi for the radii a, b, c, d; exact for Fractions, float for
    floats, elementwise for a numpy array f.

    a^2, b^2, r2 = (c/a)^2, s2 = (d/b)^2 and Dp = s2 - r2 are computed
    once; c^2 / (a^2 f) is r2 / f and d^2 / (b^2 f) is s2 / f.
    """
    a2, b2 = a * a, b * b
    r2, s2 = c * c / a2, d * d / b2
    dp = s2 - r2

    def S(v1, v2, f):
        f2 = f * f
        return (v1 * a2 * (s2 - f2) * (1 + r2 / f) ** 2 + v2 * b2 * (f2 - r2) * (1 + s2 / f) ** 2) / dp

    return S


def _s_prime_over_pi(a, b, c, d) -> Callable:
    """(v1, v2, f) -> closed-form S'(f) / pi, built like ``_s_over_pi``."""
    dp = (d / b) ** 2 - (c / a) ** 2
    K = (c * c * d * d) / (a * a * b * b)

    def Sp(v1, v2, f):
        D, N = _critical(v1, v2, a, b, c, d)
        return 2 / (dp * f**3) * (f**3 + K) * (D * f - N)

    return Sp


def _s_max(pair: EllipsoidPair) -> Callable[[int, int], Fraction]:
    """(v1, v2) -> |(v1, v2)|* / pi as the exact maximum of S: at c/a, at d/b, or at an interior maximum N/D."""
    a, b, c, d = radii = pair.radii
    S = _s_over_pi(*radii)
    lo, hi = c / a, d / b

    def norm(v1: int, v2: int) -> Fraction:
        D, N = _critical(v1, v2, *radii)
        candidates = [lo, hi]
        if D < 0 and lo < N / D < hi:
            candidates.append(N / D)
        return max(S(v1, v2, f) for f in candidates)

    return norm


def s_profile(v: IndexVector, pair: EllipsoidPair, f: float) -> float:
    """S(f) for f in [c/a, d/b] (see module docstring)."""
    a, b, c, d = _float_radii(pair, "s_profile")
    if not (c / a - 1e-12 <= f <= d / b + 1e-12):
        raise ValueError(f"f = {f} outside [c/a, d/b] = [{c / a}, {d / b}]")
    return math.pi * _s_over_pi(a, b, c, d)(v.v1, v.v2, f)


def s_derivative(v: IndexVector, pair: EllipsoidPair, f: float) -> float:
    """Closed-form S'(f)."""
    return math.pi * _s_prime_over_pi(*_float_radii(pair, "s_derivative"))(v.v1, v.v2, f)


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


def _fd_derivative(fn, f, h):
    # five-point central stencil, O(h^4) truncation; f and h may be arrays
    return (-fn(f + 2 * h) + 8 * fn(f + h) - 8 * fn(f - h) + fn(f - 2 * h)) / (12 * h)


def s_derivative_signcheck(
    v: IndexVector, pair: EllipsoidPair, cfg: OracleConfig = DEFAULT_CONFIG
) -> SignCheckReport:
    """Cross-check the closed-form S' against finite differences.

    Samples cfg.grid interior points of (c/a, d/b), all at once as numpy
    arrays.  At each point the five-point finite difference must match the
    closed form within max(1e-6, 1e-6 |S'|), and the signs must agree
    wherever |S'| > 1e-6.  max_abs_err is the largest error (at its first
    point, with that point's allowance), or 0.0 when no error is positive.
    When f0 = N/D is interior with D < 0, also verifies S(f0) >= S(f0 +- eps).
    """
    import numpy as np

    a, b, c, d = radii = _float_radii(pair, "s_derivative_signcheck")
    lo, hi = c / a, d / b
    span = hi - lo
    s_over_pi, s_prime_over_pi = _s_over_pi(*radii), _s_prime_over_pi(*radii)

    def S(f):
        return math.pi * s_over_pi(v.v1, v.v2, f)

    n = cfg.grid
    f = lo + span * np.arange(1, n + 1) / (n + 1)
    # step scales with f: S varies on the scale of f near the left end
    h = np.minimum(1e-3 * f, 0.25 * np.minimum(f - lo, hi - f))
    keep = h > 0.0
    f, h = f[keep], h[keep]
    fd = _fd_derivative(S, f, h)
    closed = math.pi * s_prime_over_pi(v.v1, v.v2, f)
    err = np.abs(fd - closed)
    allowed = np.maximum(1e-6, 1e-6 * np.abs(closed))
    sign_mismatches = int(np.count_nonzero((np.abs(closed) > 1e-6) & (fd * closed < 0)))
    ok = sign_mismatches == 0 and not np.any(err > allowed)
    max_abs_err = max_allowed = 0.0
    if err.size and err.max() > 0.0:
        worst = int(np.argmax(err))
        max_abs_err, max_allowed = float(err[worst]), float(allowed[worst])

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
