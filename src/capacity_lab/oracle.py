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
re-derivation behind ``bm.verify_certificate`` and the CLI's --verify,
evaluates these as integer pairs over one common denominator, with no
float and without the branch formula of ``minkowski``.  The verifier
also decides sqrt(c_sum) against sqrt(c_1) + sqrt(c_2) here, with
``_cmp_root_sum``, which is derived apart from the engine's
``exact.cmp_sqrt_combination`` and shares no code with it.  The float
oracles ``support_norm_numeric`` and ``s_derivative_signcheck`` are
library cross-checks that import numpy when called.  Disagreement with
the exact engine is a test failure, never a fallback.
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
    IndexVector,
    Polydisk,
    ProductWithBall,
    _common_denominator,
    _require_positive_k,
    convex_argmin,
    format_domain,
)
from .exact import Ordering, PiRational
from .minkowski import _float_radii, sum_capacity_with_argmin


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


def cross_check(k: int, domain: DomainSpec, value: PiRational, witness: IndexVector | None = None) -> None:
    """Re-derive c_k(domain), k >= 1, independently and exactly; raise ValueError unless it is value.

    Ellipsoids: value / pi = c is the k-th merged multiple of a^2 and b^2 exactly
    when at least k multiples are <= c and fewer than k are < c: four floor
    divisions of integers read off c and the radii.  Polydisks: the minimum of
    the rectangle norms, as integer pairs over the common denominator of a^2 and
    b^2.  Proportional sums and stabilized products reduce to their outer and
    inner domains.  Non-proportional sums: the norms h at the
    argmin v1 and at its neighbours v1 +- 1 are the exact maxima of the
    profile S (module docstring), value must be h(v1), and
    h(v1-1) > h(v1) <= h(v1+1) must hold.  The norm is convex in v1, so
    that local minimum is the global one, with ties broken toward the
    smallest v1.  v1 is the witness's, so no engine runs, or else
    ``sum_capacity_with_argmin``'s; a wrong witness can only fail.  No
    float and no numpy is involved.
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
    if witness is None:
        witness = sum_capacity_with_argmin(k, pair)[1]
    elif witness.k != k:
        raise ValueError(f"witness ({witness.v1}, {witness.v2}) does not sum to k = {k}")
    v1 = witness.v1
    h = _s_max(pair)
    norms = {u: h(u, k - u) for u in (v1 - 1, v1, v1 + 1) if 0 <= u <= k}
    if norms[v1][0] * value.coeff.denominator != value.coeff.numerator * norms[v1][1]:
        raise ValueError(f"norm at the argmin v1 = {v1} is {_pi(norms[v1])}, not {value}")
    if v1 - 1 in norms and not _exceeds(norms[v1 - 1], norms[v1]):
        raise ValueError(f"v1 = {v1} is not the smallest minimizer: h(v1-1) = {_pi(norms[v1 - 1])}")
    if v1 + 1 in norms and _exceeds(norms[v1], norms[v1 + 1]):
        raise ValueError(f"v1 = {v1} is not a local minimum: h(v1+1) = {_pi(norms[v1 + 1])}")


def _cmp_root_sum(s: Fraction, t: Fraction, u: Fraction) -> Ordering:
    """Sign of sqrt(s) - sqrt(t) - sqrt(u) for s, t, u >= 0, derived apart from ``exact.cmp_sqrt_combination``.

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
        f3 = f**3
        return 2 / (dp * f3) * (f3 + K) * (D * f - N)

    return Sp


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
            if p > 0 and R2 * q * q < L * p * p < S2 * q * q:
                X, Y, Z = S(p, q)
                if _exceeds(inner := (v1 * X + v2 * Y, Z), best):
                    best = inner
        return best

    return norm


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
