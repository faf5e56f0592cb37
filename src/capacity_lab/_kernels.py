"""Numpy kernels behind the numeric oracle, the boundary samplers and the
Monte Carlo mean-width estimator.

All kernels take plain float radii (a, b, c, d) of a normalized ellipsoid
pair and work on the boundary parameterization

    f(psi)^2 = (c/a)^2 cos^2 psi + (d/b)^2 sin^2 psi
    g(psi)   = cos psi * (a + c^2 / (a f))
    h(psi)   = sin psi * (b + d^2 / (b f))

``gh_profiles`` is the one array form of these formulas; the only other
copy is the scalar golden-section objective inside ``support_max``, where
numpy on a single float costs several times more than ``math``.

This is the only module that imports numpy at import time.  The float
functions of ``minkowski``, ``oracle`` and ``bm`` import it when
called, so the exact path never loads numpy.  ``golden_max`` is pure
Python and lives in ``oracle``; it is re-exported here for
``support_max``.
"""

from __future__ import annotations

import math

import numpy as np

from .oracle import golden_max

_HALF_PI = 0.5 * math.pi


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


def support_max(v1: int, v2: int, a: float, b: float, c: float, d: float, grid: int, iters: int) -> float:
    """Maximum of pi*(v1 g^2 + v2 h^2) over psi in [0, pi/2].

    A dense scan over grid+1 angles, then golden-section ascent on the
    bracket around the best grid point.
    """
    v1, v2 = float(v1), float(v2)
    _, _, _, g, h = gh_profiles(a, b, c, d, _HALF_PI * np.arange(grid + 1) / grid)
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
