"""All floating point of the package: numpy kernels, the boundary
samplers, the numeric cross-checks of the exact support norms and the
Monte Carlo mean-width estimator.  It is the only module that imports
numpy, and no exact module or ``verify`` imports it.  Disagreement with
the exact engine is a test failure, never a fallback.

The boundary of E(a,b) + E(c,d) respects the two complex factors.  With
psi in [0, pi/2] and float radii (a, b, c, d) of a normalized pair, it
is traced by

    f(psi)^2 = (c/a)^2 cos^2 psi + (d/b)^2 sin^2 psi
    g(psi)   = cos psi * (a + c^2 / (a f))
    h(psi)   = sin psi * (b + d^2 / (b f))

and the moment-map image of the sum is the region under the curve
psi -> (pi g^2, pi h^2), which ``gh_profiles`` samples.

The numeric norm maximizes the profile S of ``verify``'s module docstring
over [c/a, d/b] as S / pi = v1 X + v2 Y, X = (1 - t) (a + c^2 / (a f))^2,
Y = t (b + d^2 / (b f))^2, with t = sin^2 psi = (f^2 - r2) / (s2 - r2),
r2 = (c/a)^2, s2 = (d/b)^2: ``_s_over_pi`` with nothing divided by
s2 - r2, so nothing cancels for a nearly proportional pair.  S has one
interior critical point at most, so a scan of 257 log-spaced f only
brackets the maximizer: as s2/r2 < 2^1024, two cells span at most
2^(2048/256) in f^2, and 80 golden-section steps leave 2^-95 relative error.
X and Y do not depend on v: the last pair's columns, 6 KB, stay read-only
in a one-entry cache (``_columns``), built once for the norms at v-1, v
and v+1 of one pair, not at import.  ``_s_over_pi`` and ``_s_prime_over_pi``
serve ``s_derivative_signcheck``; the tests also evaluate them on Fractions.

The three oracles of a pair take its floats from ``_scaled_radii`` alone,
and ``_unscaled`` multiplies each result that carries scale back exactly.
Every float oracle but the numeric norm computes inside one guard,
``_float_range``: numpy raises on overflow, and the guard refuses with the
beyond-float-range ValueError.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Callable
from contextlib import contextmanager
from functools import lru_cache
from itertools import repeat

import numpy as np

from .domains import DomainSpec, Ellipsoid, EllipsoidPair, IndexVector, Polydisk, _common_denominator, format_domain
from .exact import _Record
from .minkowski import _require_nonproportional


def backend_name() -> str:
    return "numpy"


def gh_profiles(a: float, b: float, c: float, d: float, psis):
    """(cos psi, sin psi, f, g, h) at the angles psis."""
    cp = np.cos(psis)
    sp = np.sin(psis)
    f = np.sqrt((c * c) / (a * a) * cp * cp + (d * d) / (b * b) * sp * sp)
    g = cp * (a + c * c / (a * f))
    h = sp * (b + d * d / (b * f))
    return cp, sp, f, g, h


@lru_cache(maxsize=1)
def _columns(a: float, b: float, c: float, d: float, grid: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, Callable]:
    """Read-only t, X and Y at the grid+1 points t whose f are log-spaced, and the closure t -> (X, Y)."""
    r2, s2 = c * c / (a * a), d * d / (b * b)
    dp, c2a, d2b = s2 - r2, c * c / a, d * d / b

    def xy(t):  # a float, or a numpy array updated in place: the build holds five arrays at most
        f = dp * t
        f += r2
        f **= 0.5
        x, y = c2a / f + a, d2b / f + b
        x *= x
        x *= 1.0 - t
        y *= y
        y *= t
        return x, y

    # f_j^2 = r2 (s2/r2)^(j/grid): t_j = expm1(j/grid ln(s2/r2)) / expm1(ln(s2/r2)), uniform as s2/r2 -> 1
    t = np.expm1(np.arange(grid + 1) * (max(math.log(s2 / r2), sys.float_info.epsilon) / grid))
    t /= t[-1]
    x, y = xy(t)
    x[0], y[-1] = (a + c) ** 2, (b + d) ** 2
    t.flags.writeable = x.flags.writeable = y.flags.writeable = False
    return t, x, y, xy


def support_max(v1: int, v2: int, a: float, b: float, c: float, d: float, grid: int, iters: int) -> float:
    """Maximum of pi S = pi (v1 X + v2 Y) over [c/a, d/b]: a scan of ``_columns``, then ``golden_max``
    in t around the best point."""
    t, x, y, xy = _columns(a, b, c, d, grid)
    v1, v2 = float(v1), float(v2)
    vals = v1 * x + v2 * y
    i = int(vals.argmax())

    def S(u: float) -> float:
        xu, yu = xy(u)
        return v1 * xu + v2 * yu

    best = golden_max(S, float(t[max(i - 1, 0)]), float(t[min(i + 1, grid)]), iters)
    return math.pi * max(float(vals[i]), best)


def omega_xy(a: float, b: float, c: float, d: float, psis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moment-image coordinates (pi g^2, pi h^2) at the given angles."""
    _, _, _, g, h = gh_profiles(a, b, c, d, psis)
    return np.pi * g * g, np.pi * h * h


def convexity_grid(a: float, b: float, c: float, d: float, psis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(C', C'') arrays at the given interior angles: the first and second derivative of the curve
    x2 = C(x1) traced by (pi g^2, pi h^2), in the f of each angle alone,

        C'  = -(b^2 f + d^2) / (a^2 f + c^2)
        C'' = -f^3 (a^2 d^2 - b^2 c^2)^2 / (2 pi (a^2 f + c^2)^3 (a^2 b^2 f^3 + c^2 d^2)),

    so C'' < 0 exactly when ad != bc.  With r2 = (c/a)^2 and s2 = (d/b)^2, C'' is the product of
    u = b/a^2, B = (s2 - r2)/(f + r2) and q = 1/(1 + r2 s2/f^3), which stay in float range while
    C'' does; the form above can underflow on the way to a normal C''."""
    r2, s2, u = (c * c) / (a * a), (d * d) / (b * b), b / a / a
    cp, sp = np.cos(psis), np.sin(psis)
    f = np.sqrt(r2 * cp * cp + s2 * sp * sp)
    c1 = -(b * b * f + d * d) / (a * a * f + c * c)
    fr = f + r2
    B = (s2 - r2) / fr
    q = 1.0 / (1.0 + r2 / f * (s2 / f) / f)
    return c1, -(u / (2.0 * np.pi)) * (q * B) * (u * (B / fr))


OmegaSample = namedtuple("OmegaSample", "psi x1 x2")
OmegaSample.__doc__ = "One point (x1, x2) = (pi g^2, pi h^2) of the moment-image boundary curve."


class ConvexityReport(_Record):
    __slots__ = _fields = ("ok", "worst_C1", "worst_C2", "grid")


def _scaled_radii(pair: EllipsoidPair, op: str) -> tuple[float, float, float, float, int]:
    """The radii a, b, c, d divided by the 2^e that brings the largest into (1/2, 2), correctly rounded
    from the integers over their common denominator, and e.  Refuses a proportional pair, and radii with
    a scaled square below the least normal float, where the formulas lose digits."""
    _require_nonproportional(pair, op)
    nums, den = _common_denominator(*pair.radii)
    e = max(nums).bit_length() - den.bit_length()
    radii = [(n << max(-e, 0)) / (den << max(e, 0)) for n in nums]
    if min(radii) ** 2 < sys.float_info.min:
        raise ValueError(f"{op} of these radii lies beyond float range")
    return (*radii, e)


@contextmanager
def _float_range(message: str):
    """Run the block with numpy raising on overflow, division by zero and invalid operations, and turn
    any ArithmeticError (numpy's FloatingPointError, Python's OverflowError or ZeroDivisionError) into
    ValueError(message).  Underflow passes, and so does a Python float product or sum that overflows."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except ArithmeticError:
        raise ValueError(message) from None


def _unscaled(x: float, exp: int, op: str) -> float:
    """x * 2^exp, exactly; ValueError unless that is 0 or a finite normal float."""
    if x == 0.0 or (math.isfinite(x) and sys.float_info.min_exp <= math.frexp(x)[1] + exp <= sys.float_info.max_exp):
        return math.ldexp(x, exp)
    raise ValueError(f"{op} of these radii lies beyond float range")


def omega_curve(pair: EllipsoidPair, samples: int) -> list[OmegaSample]:
    """samples+1 moment-image boundary points at uniformly spaced psi; the first and last are exactly
    (pi (a+c)^2, 0) and (0, pi (b+d)^2) as floats of the rational radii.  Radii whose curve leaves
    float range raise ValueError."""
    _require_nonproportional(pair, "omega_curve")
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    a, b, c, d = pair.radii
    psis = 0.5 * math.pi * np.arange(samples + 1) / samples
    with _float_range("omega_curve samples of these radii lie beyond float range"):
        x1, x2 = omega_xy(float(a), float(b), float(c), float(d), psis)
        ends = (np.pi * np.array([float((a + c) ** 2), float((b + d) ** 2)])).tolist()
    # tuple.__new__ builds each OmegaSample in C; calling the class runs its generated Python __new__
    out = list(map(tuple.__new__, repeat(OmegaSample), zip(psis.tolist(), x1.tolist(), x2.tolist())))
    out[0] = OmegaSample(0.0, ends[0], 0.0)
    out[-1] = OmegaSample(float(psis[-1]), 0.0, ends[1])
    return out


def convexity_check(pair: EllipsoidPair, grid: int) -> ConvexityReport:
    """Verify C' < 0 and C'' < 0 for the C with C(pi g^2) = pi h^2 along the boundary curve, by the
    closed forms of ``convexity_grid`` on ``_scaled_radii`` at psi = j*(pi/2)/(grid+1), j = 1..grid;
    worst_C2 is multiplied back by 4^-e.  An overflow of the floats (``_float_range``), or a zero C''
    at any angle, an underflow, raises ValueError: these radii lie beyond float range."""
    a, b, c, d, e = _scaled_radii(pair, "convexity_check")
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    psis = 0.5 * math.pi * np.arange(1, grid + 1) / (grid + 1)
    with _float_range("convexity_check of these radii lies beyond float range"):
        c1, c2 = convexity_grid(a, b, c, d, psis)
    if not c2.all():  # a zero C'' is an underflow, which errstate does not raise
        raise ValueError("convexity_check of these radii lies beyond float range")
    ok = bool(np.all(c1 < 0) and np.all(c2 < 0))
    return ConvexityReport(ok, float(c1.max()), _unscaled(float(c2.max()), -2 * e, "convexity_check"), grid)


# the sign check's points f, and the numeric norm's scan (cells of log f) and golden-section steps
_GRID = 4096
_SCAN = 256
_GOLDEN_STEPS = 80

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(fn, lo: float, hi: float, iters: int) -> float:
    """Golden-section maximum of a unimodal fn on [lo, hi], endpoints included: the largest value fn
    took at the ends or a probe.  Every probe lies in the bracket, whose ends were evaluated, so the
    loop stops early once no float lies strictly inside it; no later step could change the result."""
    x1, x2 = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    best = max(fn(lo), fn(hi))
    for _ in range(iters):
        if math.nextafter(lo, hi) >= hi:
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = fn(x1)
    return max(best, f1, f2)


# the numeric norm's largest radius / smallest: s2/r2 <= ratio^4 stays below 2^1024, where expm1 overflows
_RATIO_BITS = 255


def support_norm_numeric(v: IndexVector, pair: EllipsoidPair) -> float:
    """Numeric maximum of pi S over [c/a, d/b]: ``support_max`` of ``_scaled_radii``, times 4^e.
    ValueError when the largest radius exceeds 2^255 times the smallest, or when the norm is not a
    finite normal float.  It runs outside ``_float_range``: that rule and ``_scaled_radii`` bound every
    intermediate, and no sweep of radii has seen it warn."""
    a, b, c, d, e = _scaled_radii(pair, "support_norm_numeric")
    # the largest scaled radius lies in (1/2, 2), so only a smallest below 2^-254 can break the rule
    if min(a, b, c, d) < 2.0**-250 and max(pair.radii) > min(pair.radii) * (1 << _RATIO_BITS):
        raise ValueError("support_norm_numeric of these radii lies beyond float range")
    return _unscaled(support_max(v.v1, v.v2, a, b, c, d, _SCAN, _GOLDEN_STEPS), 2 * e, "support_norm_numeric")


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


class SignCheckReport(_Record):
    __slots__ = _fields = (
        "ok", "points", "sign_mismatches", "max_abs_err", "max_allowed_err", "f0", "f0_interior", "f0_is_max"
    )


def _fd_derivative(fn, f, h):
    # five-point central stencil, O(h^4) truncation; f and h may be arrays
    return (-fn(f + 2 * h) + 8 * fn(f + h) - 8 * fn(f - h) + fn(f - 2 * h)) / (12 * h)


def s_derivative_signcheck(v: IndexVector, pair: EllipsoidPair) -> SignCheckReport:
    """Cross-check the closed-form S' against finite differences.

    Samples 4096 interior points of (c/a, d/b), all at once as numpy
    arrays, on ``_scaled_radii``.  At each point the five-point finite
    difference must match the closed form within max(1e-6, 1e-6 |S'|), and
    the signs must agree wherever |S'| > 1e-6, 1e-6 in the units of the
    given radii.  max_abs_err is the largest error (at its first point, with
    that point's allowance), or 0.0 when no error is positive.  When
    f0 = N/D is interior with D < 0, also verifies S(f0) >= S(f0 +- eps).
    Radii whose S, S', floor or errors leave float range raise ValueError.
    """
    op = "s_derivative_signcheck"
    a, b, c, d, e = _scaled_radii(pair, op)
    floor = _unscaled(1e-6, -2 * e, op)  # the floor 1e-6 of the given radii, in the scaled units
    lo, hi = c / a, d / b
    span = hi - lo
    with _float_range(f"{op} of these radii lies beyond float range"):
        s_over_pi, s_prime_over_pi = _s_over_pi(a, b, c, d), _s_prime_over_pi(a, b, c, d)

        def S(f):
            return math.pi * s_over_pi(v.v1, v.v2, f)

        n = _GRID
        f = lo + span * np.arange(1, n + 1) / (n + 1)
        # step scales with f: S varies on the scale of f near the left end
        h = np.minimum(1e-3 * f, 0.25 * np.minimum(f - lo, hi - f))
        keep = h > 0.0
        if not keep.all():
            f, h = f[keep], h[keep]
        fd = _fd_derivative(S, f, h)
        closed = math.pi * s_prime_over_pi(v.v1, v.v2, f)
        err = np.abs(fd - closed)
        allowed = np.maximum(floor, 1e-6 * np.abs(closed))
        sign_mismatches = int(np.count_nonzero((np.abs(closed) > floor) & (fd * closed < 0)))
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
            # on np.float64, so that an overflow of S raises as it does on the arrays
            s0, left, right = (S(np.float64(x)) for x in (f0, max(f0 - eps, lo), min(f0 + eps, hi)))
            f0_is_max = bool(s0 >= left and s0 >= right)
            ok = ok and f0_is_max

    max_abs_err, max_allowed = _unscaled(max_abs_err, 2 * e, op), _unscaled(max_allowed, 2 * e, op)
    return SignCheckReport(ok, n, sign_mismatches, max_abs_err, max_allowed, f0, f0_interior, f0_is_max)


def polydisk_support_split(p: np.ndarray, a: float, b: float, out=None, rest=None) -> np.ndarray:
    """Support of P(a,b) on the unit sphere from the plane-split fraction
    p = |(x1,x2)|^2: a sqrt(p) + b sqrt(1-p), in place on out and rest,
    never on p.  Either buffer left as None is allocated."""
    out = np.sqrt(p, out=out)
    out *= a
    rest = np.subtract(1.0, p, out=rest)
    np.sqrt(rest, out=rest)
    rest *= b
    out += rest
    return out


def ellipsoid_support_split(p: np.ndarray, a: float, b: float, out=None, rest=None) -> np.ndarray:
    """Support of E(a,b): sqrt(b^2 + (a^2 - b^2) p), so that a == b yields
    exactly b for every sample; in place on out (allocated when None),
    never on p.  rest is unused; it keeps the signature of
    ``polydisk_support_split``."""
    out = np.multiply(a * a - b * b, p, out=out)
    out += b * b
    return np.sqrt(out, out=out)


class MeanWidthEstimate(_Record):
    __slots__ = _fields = ("mean", "stderr", "samples", "seed")


_CHUNK = 1 << 16


def mean_width_estimate(domain: DomainSpec, samples: int, seed: int) -> MeanWidthEstimate:
    """Monte Carlo mean width of a 4-dimensional ellipsoid or polydisk,
    the float cross-check of ``bm.mean_width``.

    Averages the support function over uniform points of S^3.  Only the
    squared plane-split p = |(x1,x2)|^2 of each point enters the support
    function:

        P(a,b): a sqrt(p) + b sqrt(1-p)
        E(a,b): sqrt(b^2 + (a^2 - b^2) p)

    For a uniform point of S^3 in C^2, the moment coordinate p = |z1|^2 is
    itself uniform on [0, 1] (Archimedes' theorem in dimension 4: p is
    u/(u+w) for independent chi-squared(2) u and w, which is Beta(1,1)).
    So each sample is one uniform draw of p from a seeded generator.

    The samples are drawn in chunks of at most 2^16 points into three
    arrays allocated once per call (1.5 MB, small enough to stay in
    cache); the chunks' means and squared deviations are merged with
    Chan's pairwise update, so memory does not grow with the sample count.
    stderr is the sample standard deviation over sqrt(samples).
    """
    if samples < 100:
        raise ValueError(f"samples must be >= 100, got {samples}")
    if not isinstance(domain, (Ellipsoid, Polydisk)):
        raise ValueError(
            f"mean width supports only 4-dimensional ellipsoids and polydisks, got {format_domain(domain)}"
        )
    split = ellipsoid_support_split if isinstance(domain, Ellipsoid) else polydisk_support_split
    rng = np.random.default_rng(seed)
    size = min(_CHUNK, samples)
    buffers = np.empty(size), np.empty(size), np.empty(size)
    with _float_range("mean_width_estimate of these radii lies beyond float range"):
        # on np.float64, so that an a^2 - b^2 or a moment that overflows raises
        a, b = np.float64(domain.a), np.float64(domain.b)
        count, mean, m2 = 0, np.float64(0.0), np.float64(0.0)
        while count < samples:
            n = min(_CHUNK, samples - count)
            chunk_mean, chunk_m2 = _chunk_moments(rng, n, split, a, b, buffers)
            total = count + n
            delta = chunk_mean - mean
            mean += delta * (n / total)
            m2 += chunk_m2 + delta * delta * (count * n / total)
            count = total
    sd = math.sqrt(m2 / (samples - 1))
    return MeanWidthEstimate(float(mean), sd / math.sqrt(samples), samples, seed)


def _chunk_moments(rng: np.random.Generator, n: int, split, a: float, b: float, buffers) -> tuple[float, float]:
    # Mean and sum of squared deviations of the support values at n uniform
    # draws of p.  Every array is the first n entries of one of the three
    # reused buffers (p, the values, split's scratch), so a chunk allocates
    # nothing; the deviations overwrite the values in place.
    p, out, rest = (buf[:n] for buf in buffers)
    rng.random(out=p)
    values = split(p, a, b, out=out, rest=rest)
    mean = float(values.mean())
    values -= mean
    values *= values
    return mean, float(values.sum())
