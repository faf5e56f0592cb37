"""Floating-point cross-checks of the exact support norms, for the tests
and the benchmark.  The exact checks live in ``verify``.

``support_norm_numeric`` maximizes the boundary objective over psi on a
dense grid refined by ``golden_max``, and ``s_derivative_signcheck``
compares the closed form of S'(f), the derivative of the profile S of
``verify``'s module docstring, with finite differences.  Both import
numpy when called.  ``_s_over_pi`` and ``_s_prime_over_pi`` are S and S'
in closed form; the tests also evaluate them on Fractions.  Disagreement
with the exact engine is a test failure, never a fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .domains import EllipsoidPair, IndexVector
from .minkowski import _float_radii


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


def _critical(v1, v2, a, b, c, d):
    """(D, N) of ``verify``'s module docstring; f0 = N/D."""
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
        f3 = f**3
        return 2 / (dp * f3) * (f3 + K) * (D * f - N)

    return Sp


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
    if not keep.all():
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
