"""Independent floating-point oracles for the exact support norms.

Nothing in here feeds back into an exact result.  The oracle maximizes
the boundary objective numerically (dense scan plus golden-section
refinement) and analyzes the reparameterized profile

    S(f) = pi v1 a^2 (1/Dp) (d^2/b^2 - f^2) (1 + c^2/(a^2 f))^2
         + pi v2 b^2 (1/Dp) (f^2 - c^2/a^2) (1 + d^2/(b^2 f))^2

for f in [c/a, d/b], where Dp = d^2/b^2 - c^2/a^2.  S satisfies
S(c/a) = v1 pi (a+c)^2 and S(d/b) = v2 pi (b+d)^2, and its derivative is

    S'(f) = (2 pi / (Dp f^3)) (f^3 + c^2 d^2 / (a^2 b^2)) (D f - N)

with D = v2 b^2 - v1 a^2 and N = v1 c^2 - v2 d^2, so the only possible
interior critical point is f0 = N/D, a maximum exactly when D < 0.
Disagreement with the exact engine is a test failure, never a fallback;
``cross_check`` is the one re-derivation behind the CLI's --verify.
It loads the numpy kernels only for a non-proportional sum, through
``support_norm_numeric``; ``golden_max`` is pure Python and defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .minkowski import sum_capacity_with_argmin, support_norm

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
    tol: float = 1e-9

    def __post_init__(self):
        if self.grid < 64:
            raise ValueError(f"grid must be >= 64, got {self.grid}")
        if self.refine_iters < 1:
            raise ValueError(f"refine_iters must be >= 1, got {self.refine_iters}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


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
    if pair.proportional:
        raise ValueError("support_norm_numeric requires a non-proportional pair")
    from . import _kernels

    a, b, c, d = (float(x) for x in pair.radii)
    return _kernels.support_max(v.v1, v.v2, a, b, c, d, cfg.grid, cfg.refine_iters)


def _relative_gap(exact: float, numeric: float) -> float:
    return abs(exact - numeric) / max(abs(exact), 1e-12)


def cross_check(k: int, domain: DomainSpec, value: PiRational, cfg: OracleConfig = DEFAULT_CONFIG) -> None:
    """Re-derive c_k(domain) independently; raise ValueError unless it is value.

    Ellipsoids: the minimum of the dual norms over v1 + v2 = k, and for
    k <= 4096 the k-th sorted multiple.  Polydisks: the minimum of the
    rectangle norms.  Proportional sums and stabilized products reduce to
    their outer and inner domains.  Non-proportional sums: value must be
    the exact norm at the argmin v1, the numeric oracle at v1 and at its
    neighbours v1 +- 1 must match the exact norms within cfg.tol, and the
    exact norms must satisfy h(v1-1) > h(v1) <= h(v1+1).  The norm is
    convex in v1, so that local minimum is the global one, with ties
    broken toward the smallest v1.
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
        cross_check(k, domain.inner, value, cfg)
    elif isinstance(domain, EllipsoidSum):
        if domain.pair.proportional:
            cross_check(k, domain.pair.outer_ellipsoid, value, cfg)
        else:
            _cross_check_sum(k, domain.pair, value, cfg)
    else:
        raise TypeError(f"unsupported domain: {domain!r}")


def _cross_check_sum(k: int, pair: EllipsoidPair, value: PiRational, cfg: OracleConfig) -> None:
    v1 = sum_capacity_with_argmin(k, pair)[1].v1
    norms = {u: support_norm(IndexVector(u, k - u), pair) for u in (v1 - 1, v1, v1 + 1) if 0 <= u <= k}
    if norms[v1] != value:
        raise ValueError(f"norm at the argmin v1 = {v1} is {norms[v1]}, not {value}")
    for u, norm in norms.items():
        numeric = support_norm_numeric(IndexVector(u, k - u), pair, cfg)
        if _relative_gap(float(norm), numeric) > cfg.tol:
            raise ValueError(f"numeric oracle {numeric!r} vs exact {float(norm)!r} at v1 = {u}")
    if v1 - 1 in norms and not norms[v1 - 1] > norms[v1]:
        raise ValueError(f"v1 = {v1} is not the smallest minimizer: h(v1-1) = {norms[v1 - 1]}")
    if v1 + 1 in norms and not norms[v1 + 1] >= norms[v1]:
        raise ValueError(f"v1 = {v1} is not a local minimum: h(v1+1) = {norms[v1 + 1]}")


def _profile_params(pair: EllipsoidPair) -> tuple[float, float, float, float, float, float]:
    a, b, c, d = (float(x) for x in pair.radii)
    r2 = (c / a) ** 2
    s2 = (d / b) ** 2
    return a, b, c, d, r2, s2


def s_profile(v: IndexVector, pair: EllipsoidPair, f: float) -> float:
    """S(f) for f in [c/a, d/b] (see module docstring)."""
    if pair.proportional:
        raise ValueError("s_profile requires a non-proportional pair")
    a, b, c, d, r2, s2 = _profile_params(pair)
    if not (math.sqrt(r2) - 1e-12 <= f <= math.sqrt(s2) + 1e-12):
        raise ValueError(f"f = {f} outside [c/a, d/b] = [{math.sqrt(r2)}, {math.sqrt(s2)}]")
    dp = s2 - r2
    term1 = v.v1 * a * a * (s2 - f * f) * (1.0 + c * c / (a * a * f)) ** 2
    term2 = v.v2 * b * b * (f * f - r2) * (1.0 + d * d / (b * b * f)) ** 2
    return math.pi * (term1 + term2) / dp


def s_derivative(v: IndexVector, pair: EllipsoidPair, f: float) -> float:
    """Closed-form S'(f)."""
    if pair.proportional:
        raise ValueError("s_derivative requires a non-proportional pair")
    a, b, c, d, r2, s2 = _profile_params(pair)
    dp = s2 - r2
    D = v.v2 * b * b - v.v1 * a * a
    N = v.v1 * c * c - v.v2 * d * d
    return (2.0 * math.pi / (dp * f ** 3)) * (f ** 3 + (c * c * d * d) / (a * a * b * b)) * (D * f - N)


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
    if pair.proportional:
        raise ValueError("s_derivative_signcheck requires a non-proportional pair")
    a, b, c, d = pair.radii
    lo = float(c) / float(a)
    hi = float(d) / float(b)
    span = hi - lo

    def S(f: float) -> float:
        return s_profile(v, pair, f)

    def Sp(f: float) -> float:
        return s_derivative(v, pair, f)

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

    D = v.v2 * b * b - v.v1 * a * a
    N = v.v1 * c * c - v.v2 * d * d
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
