import math
import sys
from fractions import Fraction

import pytest

from capacity_lab import (
    ConvexityReport,
    Ellipsoid,
    EllipsoidPair,
    IndexVector,
    convexity_check,
    s_derivative_signcheck,
    support_norm,
)
from capacity_lab import _kernels, verify
from conftest import float_radii, power_pair, random_nonprop_pair, s_prime_float

F = Fraction

# every golden_max call here, the numeric norm's included, must equal all of its steps
pytestmark = pytest.mark.usefixtures("golden_early_stop_checked")


def ldexp_normal(x: float, exp: int) -> float | None:
    """x * 2^exp when that is 0 or a finite normal float, else None."""
    if x == 0.0 or sys.float_info.min_exp <= math.frexp(x)[1] + exp <= sys.float_info.max_exp:
        return math.ldexp(x, exp)
    return None


def exact_c2_over_pi(a, b, c, d, f):
    """C'' times pi in closed form, exact for Fractions."""
    gap = a * a * d * d - b * b * c * c
    return -(f**3) * gap * gap / (2 * (a * a * f + c * c) ** 3 * (a * a * b * b * f**3 + c * c * d * d))


def exact_worst_convexity(pair: EllipsoidPair, grid: int) -> tuple[float, float]:
    """The largest C' and C'' at ``convexity_check``'s angles, each exact at the float f of its angle."""
    a, b, c, d = pair.radii
    af, bf, cf, df = float_radii(pair)
    psis = [0.5 * math.pi * j / (grid + 1) for j in range(1, grid + 1)]
    fs = [F(math.sqrt((cf * cf) / (af * af) * math.cos(p) ** 2 + (df * df) / (bf * bf) * math.sin(p) ** 2)) for p in psis]
    c1 = max(-(b * b * f + d * d) / (a * a * f + c * c) for f in fs)
    return float(c1), float(max(exact_c2_over_pi(a, b, c, d, f) for f in fs)) / math.pi


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFloatRange:
    """Radii whose values leave float range are refused, as ``omega_curve`` refuses them."""

    # the floor 1e-6 of S', in the units of the radii, is not a normal float
    # in the units of the scaled radii: about 2^-1136 at 10^168, 2^1042 at 10^-160
    @pytest.mark.parametrize("e", [168, -160])
    def test_signcheck_refuses(self, e):
        with pytest.raises(ValueError, match="^s_derivative_signcheck of these radii lies beyond float range$"):
            s_derivative_signcheck(IndexVector(3, 4), power_pair(e))

    # refused for their scale alone by the unscaled floats: at 10^77 the finite
    # differences overflowed, at 10^80 K = c^2 d^2 / (a^2 b^2) was inf/inf
    @pytest.mark.parametrize("e", [77, 80])
    def test_signcheck_in_range_at_a_large_scale(self, e):
        v = IndexVector(3, 4)
        report = s_derivative_signcheck(v, power_pair(e))
        assert report.ok and report.sign_mismatches == 0
        assert report.max_abs_err <= report.max_allowed_err
        assert report.f0 == s_derivative_signcheck(v, power_pair(0)).f0

    def test_signcheck_refuses_s_beyond_float_range_at_f0(self):
        # S(f0) in Python floats raised OverflowError: (34, 'Numerical result out of range').  The
        # radius ratio, 10^300, is now beyond _scaled_radii's, which refuses the pair before any S
        pair = EllipsoidPair.normalized(Ellipsoid(F(10) ** 150, 1), Ellipsoid(F(10) ** -150, 1))
        with pytest.raises(ValueError, match="^s_derivative_signcheck of these radii lies beyond float range$"):
            s_derivative_signcheck(IndexVector(3, 4), pair)

    def test_signcheck_in_range(self):
        assert s_derivative_signcheck(IndexVector(3, 4), power_pair(70)).ok

    # float(10^400) raised OverflowError
    @pytest.mark.parametrize("op", ["convexity_check", "support_norm_numeric", "s_derivative_signcheck"])
    def test_radius_beyond_the_largest_float_refused(self, op):
        pair = EllipsoidPair.normalized(Ellipsoid(F(10) ** 400, 1), Ellipsoid(1, 2))
        args = (pair, 64) if op == "convexity_check" else (IndexVector(3, 4), pair)
        with pytest.raises(ValueError, match=f"^{op} of these radii lies beyond float range$"):
            getattr(_kernels, op)(*args)

    # convexity does not depend on scale; the unscaled floats refused 10^-90 (C''
    # was NaN), 10^-80 (C'' was -inf at every angle) and 10^60 (C'' was -0.0)
    @pytest.mark.parametrize("e", [-90, -80, -52, 0, 50, 60])
    def test_convexity_check_in_range(self, e):
        assert convexity_check(power_pair(e), 64).ok

    # C'' scales as r^-2; the unscaled floats gave -3.34497e105 at 10^-54, not -3.35100e105
    @pytest.mark.parametrize("e", [-90, -54, 60, 150])
    def test_worst_C2_scales_as_the_inverse_square(self, e):
        base, report = convexity_check(power_pair(0), 64), convexity_check(power_pair(e), 64)
        assert report.worst_C1 == pytest.approx(base.worst_C1, rel=1e-12)
        assert report.worst_C2 * float(F(10) ** (2 * e)) == pytest.approx(base.worst_C2, rel=1e-12)

    def test_convexity_check_raises_no_overflow_error(self):
        # (r2 - s2) ** 2 on Python floats raised OverflowError: (34, 'Numerical result out of range')
        thin = EllipsoidPair.normalized(Ellipsoid(1, F(1, 2**264)), Ellipsoid(1, 1))
        report = convexity_check(thin, 64)
        worst_c1, worst_c2 = exact_worst_convexity(thin, 64)
        assert report.ok
        assert report.worst_C1 == pytest.approx(worst_c1, rel=1e-12)
        assert report.worst_C2 == pytest.approx(worst_c2, rel=1e-12)
        # radius ratio 2^520: the smallest scaled radius squares below the least normal float
        wide = EllipsoidPair.normalized(Ellipsoid(2**260, F(1, 2**260)), Ellipsoid(1, 1))
        with pytest.raises(ValueError, match="^convexity_check of these radii lies beyond float range$"):
            convexity_check(wide, 64)


class TestRatioAndScale:
    def test_reports_scale_by_a_power_of_two(self, rng):
        # radii times 2^j: the convexity report is the same with worst_C2 times 4^-j, the sign
        # check's with its errors times 4^j, and where such a value is not a normal float, the
        # ValueError.  The sign check's floor 1e-6 stays in the units of the radii: its ok and
        # mismatch count can only get better as the radii shrink, and its allowance is the larger
        # of 1e-6 and the relative allowance, read off at 2^300 where the floor binds nowhere
        for _ in range(3):
            pair = random_nonprop_pair(rng)
            k = rng.randint(1, 200)
            v1 = rng.randint(0, k)
            v = IndexVector(v1, k - v1)
            conv, sign = convexity_check(pair, 64), s_derivative_signcheck(v, pair)
            relative = s_derivative_signcheck(v, pair.scaled(F(2) ** 300)).max_allowed_err
            assert relative > 1e-6
            for j in [*range(-300, 301, 5), -540, -520, 520, 540]:
                scaled = pair.scaled(F(2) ** j)
                worst_c2 = ldexp_normal(conv.worst_C2, -2 * j)
                if worst_c2 is None:
                    with pytest.raises(ValueError, match="^convexity_check of these radii lies beyond"):
                        convexity_check(scaled, 64)
                else:
                    assert convexity_check(scaled, 64) == ConvexityReport(conv.ok, conv.worst_C1, worst_c2, 64), j
                if abs(j) > 500:  # the floor itself is not a normal float in the scaled units
                    with pytest.raises(ValueError, match="^s_derivative_signcheck of these radii lies beyond"):
                        s_derivative_signcheck(v, scaled)
                    continue
                got = s_derivative_signcheck(v, scaled)
                allowed = max(1e-6, math.ldexp(relative, 2 * (j - 300))) if sign.max_abs_err else 0.0
                assert (got.points, got.f0, got.f0_interior, got.f0_is_max) == (
                    sign.points, sign.f0, sign.f0_interior, sign.f0_is_max
                ), j
                assert (got.max_abs_err, got.max_allowed_err) == (math.ldexp(sign.max_abs_err, 2 * j), allowed), j
                if j <= 0:
                    assert got.ok >= sign.ok and got.sign_mismatches <= sign.sign_mismatches, j


def laurent_product(p, q):
    out = {}
    for i, x in p.items():
        for j, y in q.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def laurent_s(v1, v2, a, b, c, d):
    """S / pi expanded as {power of f: coefficient}, straight from its definition."""
    r2, s2 = (c / a) ** 2, (d / b) ** 2
    bump1 = {0: F(1), -1: c * c / (a * a)}
    bump2 = {0: F(1), -1: d * d / (b * b)}
    t1 = laurent_product({0: v1 * a * a * s2, 2: -v1 * a * a}, laurent_product(bump1, bump1))
    t2 = laurent_product({2: v2 * b * b, 0: -v2 * b * b * r2}, laurent_product(bump2, bump2))
    return {e: (t1.get(e, 0) + t2.get(e, 0)) / (s2 - r2) for e in t1.keys() | t2.keys()}


def laurent_trim(p):
    return {e: x for e, x in p.items() if x}


def laurent_value(p, f):
    return sum(x * f**e for e, x in p.items())


def laurent_derivative(p):
    return {e - 1: e * x for e, x in p.items() if e != 0}


class TestExactProfile:
    def test_derivative_factorisation_is_an_identity(self, rng):
        # f^3 (S' - closed form) is a polynomial of degree <= 4 in f, so
        # vanishing at 8 rational points makes the factorisation exact
        for _ in range(25):
            pair = random_nonprop_pair(rng)
            a, b, c, d = pair.radii
            k = rng.randint(1, 12)
            v1 = rng.randint(0, k)
            S = laurent_s(v1, k - v1, a, b, c, d)
            dS = laurent_derivative(S)
            lo, hi = c / a, d / b
            for j in range(8):
                f = lo + (hi - lo) * F(j, 7)
                assert _kernels._s_over_pi(a, b, c, d)(v1, k - v1, f) == laurent_value(S, f)
                closed = _kernels._s_prime_over_pi(a, b, c, d)(v1, k - v1, f)
                assert closed == laurent_value(dS, f)
                assert s_prime_float(IndexVector(v1, k - v1), pair, float(f)) == pytest.approx(
                    math.pi * float(closed), rel=1e-9, abs=1e-9
                )

    def test_moment_coordinate_derivatives_are_identities(self, rng):
        # x1 = g^2 and x2 = h^2 are S / pi at v = (1, 0) and (0, 1), Laurent polynomials in f:
        # x1' = (2/(Dp f^3))(f^3 + K)(-(a^2 f + c^2)) and x2' = (2/(Dp f^3))(f^3 + K)(b^2 f + d^2),
        # K = c^2 d^2/(a^2 b^2).  So x1' < 0 < x2' on [c/a, d/b], the sign that g' < 0 stood for
        for _ in range(25):
            pair = random_nonprop_pair(rng)
            a, b, c, d = pair.radii
            x1, x2 = laurent_s(1, 0, a, b, c, d), laurent_s(0, 1, a, b, c, d)
            dp, K = (d / b) ** 2 - (c / a) ** 2, c * c * d * d / (a * a * b * b)
            common = {0: 2 / dp, -3: 2 * K / dp}
            assert laurent_trim(laurent_derivative(x1)) == laurent_trim(laurent_product(common, {1: -a * a, 0: -c * c}))
            assert laurent_trim(laurent_derivative(x2)) == laurent_trim(laurent_product(common, {1: b * b, 0: d * d}))

    def test_c2_closed_form_is_the_second_derivative(self, rng):
        # C'' = d^2 x2 / d x1^2 = (x2'' x1' - x2' x1'') / x1'^3 in the f parameter, exactly, at
        # 8 rational points of each interval; pi C'' is the closed form of convexity_grid
        for _ in range(25):
            pair = random_nonprop_pair(rng)
            a, b, c, d = pair.radii
            d1, d2 = laurent_derivative(laurent_s(1, 0, a, b, c, d)), laurent_derivative(laurent_s(0, 1, a, b, c, d))
            dd1, dd2 = laurent_derivative(d1), laurent_derivative(d2)
            lo, hi = c / a, d / b
            for j in range(8):
                f = lo + (hi - lo) * F(j, 7)
                p1, p2 = laurent_value(d1, f), laurent_value(d2, f)
                assert p2 / p1 == -(b * b * f + d * d) / (a * a * f + c * c)
                second = (laurent_value(dd2, f) * p1 - p2 * laurent_value(dd1, f)) / p1**3
                assert second == exact_c2_over_pi(a, b, c, d, f) < 0

    def test_endpoint_values_are_the_corner_norms(self, rng):
        for _ in range(25):
            pair = random_nonprop_pair(rng)
            a, b, c, d = pair.radii
            v1, v2 = rng.randint(0, 9), rng.randint(0, 9)
            S = _kernels._s_over_pi(a, b, c, d)
            assert S(v1, v2, c / a) == v1 * (a + c) ** 2
            assert S(v1, v2, d / b) == v2 * (b + d) ** 2

    def test_exact_maximum_equals_support_norm(self, rng):
        interior = 0
        for _ in range(400):
            pair = random_nonprop_pair(rng, max_height=12)
            a, b, c, d = pair.radii
            k = rng.randint(1, 300)
            v1 = rng.randint(0, k)
            norm = F(*verify._s_max(pair)(v1, k - v1))
            assert norm == support_norm(IndexVector(v1, k - v1), pair).coeff, (pair.radii, v1, k)
            interior += norm > max(v1 * (a + c) ** 2, (k - v1) * (b + d) ** 2)
        # both branches of the support-norm formula occur among the draws
        assert 0 < interior < 400
