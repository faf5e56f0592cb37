"""All floating point of the package: numpy kernels, the boundary
samplers, the numeric cross-checks of the exact support norms and the
Monte Carlo mean-width estimator.

This is the only module that imports numpy, and no exact module or
``verify`` imports it, so an exact computation or its verification
never loads numpy.  Disagreement with the exact engine is a test
failure, never a fallback.

The boundary of E(a,b) + E(c,d) respects the two complex factors.  With
psi in [0, pi/2] and plain float radii (a, b, c, d) of a normalized
pair, it is traced by

    f(psi)^2 = (c/a)^2 cos^2 psi + (d/b)^2 sin^2 psi
    g(psi)   = cos psi * (a + c^2 / (a f))
    h(psi)   = sin psi * (b + d^2 / (b f))

and the moment-map image of the sum is the region under the curve
psi -> (pi g^2, pi h^2).  ``gh_profiles`` is the one array form of these
formulas, and ``_fgh`` is its body, which takes cos psi and sin psi
rather than psi; the only other copy is the scalar golden-section
objective inside ``support_max``, where numpy on a single float costs
several times more than ``math``.  The dense scan of ``support_max`` is
always over the same angles j (pi/2) / grid, j = 0..grid, so their
cosines and sines are computed once per grid and kept, read-only, in a
small bounded cache (``_angle_table``): 16 (grid+1) bytes per table,
64 KB at the oracles' grid of 4096.  The pair's g and h at those
angles do not depend on the index vector, so the last pair's profile is
kept too, read-only, in a one-entry cache (``_profile``) keyed by
(a, b, c, d, grid): the oracle's neighbour check, the norms at v-1, v
and v+1 of one pair, builds it once.  It holds 16 (grid+1) bytes, 64 KB
at grid 4096.  No table or profile is built at import.

``support_norm_numeric`` maximizes the boundary objective over psi on a
dense grid of 4096 angles refined by 80 steps of ``golden_max``, and
``s_derivative_signcheck`` compares, at 4096 points f, the closed form of
S'(f), the derivative of the profile S of ``verify``'s module docstring,
with finite differences; both raise ValueError beyond float range.
``_s_over_pi`` and ``_s_prime_over_pi`` are S and S' in closed form; the
tests also evaluate them on Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .domains import DomainSpec, Ellipsoid, EllipsoidPair, IndexVector, Polydisk, format_domain
from .minkowski import _require_nonproportional

_HALF_PI = 0.5 * math.pi


def backend_name() -> str:
    return "numpy"


def gh_profiles(a: float, b: float, c: float, d: float, psis):
    """(cos psi, sin psi, f, g, h) at the angles psis."""
    cp = np.cos(psis)
    sp = np.sin(psis)
    return cp, sp, *_fgh(a, b, c, d, cp, sp)


def _fgh(a: float, b: float, c: float, d: float, cp, sp):
    """(f, g, h) from cp = cos psi and sp = sin psi."""
    f = np.sqrt((c * c) / (a * a) * cp * cp + (d * d) / (b * b) * sp * sp)
    g = cp * (a + c * c / (a * f))
    h = sp * (b + d * d / (b * f))
    return f, g, h


@lru_cache(maxsize=4)
def _angle_table(grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (cos psi, sin psi) at psi = j (pi/2) / grid, j = 0..grid."""
    psis = _HALF_PI * np.arange(grid + 1) / grid
    cp, sp = np.cos(psis), np.sin(psis)
    cp.flags.writeable = sp.flags.writeable = False
    return cp, sp


@lru_cache(maxsize=1)
def _profile(a: float, b: float, c: float, d: float, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (g, h) of the radii a, b, c, d at the angles of ``_angle_table(grid)``."""
    _, g, h = _fgh(a, b, c, d, *_angle_table(grid))
    g.flags.writeable = h.flags.writeable = False
    return g, h


def support_max(v1: int, v2: int, a: float, b: float, c: float, d: float, grid: int, iters: int) -> float:
    """Maximum of pi*(v1 g^2 + v2 h^2) over psi in [0, pi/2].

    A dense scan over the grid+1 angles of ``_angle_table``, with the
    pair's g and h from ``_profile``, then golden-section ascent on the
    bracket around the best grid point.
    """
    v1, v2 = float(v1), float(v2)
    g, h = _profile(a, b, c, d, grid)
    vals = np.pi * (v1 * g * g + v2 * h * h)
    besti = int(np.argmax(vals))
    r2 = (c * c) / (a * a)
    s2 = (d * d) / (b * b)

    def objective(psi: float) -> float:
        cp = math.cos(psi)
        sp = math.sin(psi)
        f = math.sqrt(r2 * cp * cp + s2 * sp * sp)
        g = cp * (a + c * c / (a * f))
        h = sp * (b + d * d / (b * f))
        return math.pi * (v1 * g * g + v2 * h * h)

    lo = _HALF_PI * max(besti - 1, 0) / grid
    hi = _HALF_PI * min(besti + 1, grid) / grid
    return max(float(vals[besti]), golden_max(objective, lo, hi, iters))


def omega_xy(a: float, b: float, c: float, d: float, psis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moment-image coordinates (pi g^2, pi h^2) at the given angles."""
    _, _, _, g, h = gh_profiles(a, b, c, d, psis)
    return np.pi * g * g, np.pi * h * h


def convexity_grid(a: float, b: float, c: float, d: float, psis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(C', C'', g') arrays at the given interior angles.

    Closed forms of the first and second derivative of the curve
    x2 = C(x1) traced by (pi g^2, pi h^2):

        C'  = -(b^2 f + d^2) / (a^2 f + c^2)
        C'' = a^2 b^2 (r2 - s2)^2 sin cos / (2 pi g g' f (a^2 f + c^2)^2)

    with r2 = (c/a)^2, s2 = (d/b)^2 and
    g' = -sin (a + c^2/(a f)) + cos^2 sin (c^2/(a f^3)) (r2 - s2).
    """
    cp, sp, f, g, _ = gh_profiles(a, b, c, d, psis)
    r2 = (c * c) / (a * a)
    s2 = (d * d) / (b * b)
    gprime = -sp * (a + c * c / (a * f)) + cp * cp * sp * (c * c / (a * f ** 3)) * (r2 - s2)
    denom = a * a * f + c * c
    c1 = -(b * b * f + d * d) / denom
    c2 = (a * a * b * b * (r2 - s2) ** 2 * sp * cp) / (2.0 * np.pi * g * gprime * f * denom ** 2)
    return c1, c2, gprime


class OmegaSample(NamedTuple):
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
    a, b, c, d = pair.radii
    psis = 0.5 * math.pi * np.arange(samples + 1) / samples
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            x1, x2 = omega_xy(float(a), float(b), float(c), float(d), psis)
        ends = math.pi * float((a + c) ** 2), math.pi * float((b + d) ** 2)
        finite = math.isfinite(max(ends)) and np.isfinite(x1).all() and np.isfinite(x2).all()
    except ArithmeticError:  # a radius or an intermediate beyond float range, or a division by zero
        finite = False
    if not finite:
        raise ValueError("omega_curve samples of these radii lie beyond float range")
    out = list(map(OmegaSample, psis.tolist(), x1.tolist(), x2.tolist()))
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
    psis = 0.5 * math.pi * np.arange(1, grid + 1) / (grid + 1)
    c1, c2, gp = convexity_grid(af, bf, cf, df, psis)
    signs_match = bool(np.all((c2 < 0) == (gp < 0)))
    ok = bool(np.all(c1 < 0) and np.all(c2 < 0) and np.all(gp < 0) and signs_match)
    return ConvexityReport(ok=ok, worst_C1=float(c1.max()), worst_C2=float(c2.max()), grid=grid)


# the oracles' one grid size (angles psi, points f) and the numeric norm's golden-section steps
_GRID = 4096
_GOLDEN_STEPS = 80

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


def support_norm_numeric(v: IndexVector, pair: EllipsoidPair) -> float:
    """Numeric maximum of pi (v1 g^2 + v2 h^2) over psi in [0, pi/2]; ValueError beyond float range."""
    a, b, c, d = _float_radii(pair, "support_norm_numeric")
    try:
        norm = support_max(v.v1, v.v2, a, b, c, d, _GRID, _GOLDEN_STEPS)
    except ZeroDivisionError:  # a square of a radius underflows to 0
        norm = math.nan
    if not math.isfinite(norm):
        raise ValueError("support_norm_numeric of these radii lies beyond float range")
    return norm


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


def s_derivative_signcheck(v: IndexVector, pair: EllipsoidPair) -> SignCheckReport:
    """Cross-check the closed-form S' against finite differences.

    Samples 4096 interior points of (c/a, d/b), all at once as numpy
    arrays.  At each point the five-point finite difference must match the
    closed form within max(1e-6, 1e-6 |S'|), and the signs must agree
    wherever |S'| > 1e-6.  max_abs_err is the largest error (at its first
    point, with that point's allowance), or 0.0 when no error is positive.
    When f0 = N/D is interior with D < 0, also verifies S(f0) >= S(f0 +- eps).
    Radii whose S or S' leaves float range raise ValueError.
    """
    a, b, c, d = radii = _float_radii(pair, "s_derivative_signcheck")
    lo, hi = c / a, d / b
    span = hi - lo
    try:
        s_over_pi, s_prime_over_pi = _s_over_pi(*radii), _s_prime_over_pi(*radii)
    except ZeroDivisionError:  # a square of a radius underflows to 0
        raise ValueError("s_derivative_signcheck of these radii lies beyond float range") from None

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
    allowed = np.maximum(1e-6, 1e-6 * np.abs(closed))
    sign_mismatches = int(np.count_nonzero((np.abs(closed) > 1e-6) & (fd * closed < 0)))
    ok = sign_mismatches == 0 and not np.any(err > allowed)
    max_abs_err = max_allowed = 0.0
    top = float(err.max()) if err.size else 0.0
    if not math.isfinite(top):  # an inf or a NaN in S' or in its finite differences
        raise ValueError("s_derivative_signcheck of these radii lies beyond float range")
    if top > 0.0:
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


@dataclass(frozen=True)
class MeanWidthEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int


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
    a, b = float(domain.a), float(domain.b)
    rng = np.random.default_rng(seed)
    size = min(_CHUNK, samples)
    buffers = np.empty(size), np.empty(size), np.empty(size)
    count, mean, m2 = 0, 0.0, 0.0
    while count < samples:
        n = min(_CHUNK, samples - count)
        chunk_mean, chunk_m2 = _chunk_moments(rng, n, split, a, b, buffers)
        total = count + n
        delta = chunk_mean - mean
        mean += delta * (n / total)
        m2 += chunk_m2 + delta * delta * (count * n / total)
        count = total
    sd = math.sqrt(m2 / (samples - 1))
    return MeanWidthEstimate(mean=mean, stderr=sd / math.sqrt(samples), samples=samples, seed=seed)


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
