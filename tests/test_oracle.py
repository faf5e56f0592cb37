import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capacity_lab import (
    Ellipsoid,
    EllipsoidPair,
    IndexVector,
    PiRational,
    Polydisk,
    ProductWithBall,
    SignCheckReport,
    StabilizationError,
    capacity,
    convexity_check,
    cross_check,
    even_family,
    odd_family,
    s_derivative_signcheck,
    support_norm,
    support_norm_numeric,
)
from capacity_lab import _kernels, verify
from capacity_lab._kernels import (
    _critical,
    _fd_derivative,
    _float_radii,
    _s_over_pi,
    _s_prime_over_pi,
    golden_max,
)
from conftest import random_nonprop_pair

F = Fraction

EVEN2 = even_family(2)
ODD3 = odd_family(3)


def s_float(v: IndexVector, pair: EllipsoidPair, f: float) -> float:
    """S(f) in floats, straight from ``_s_over_pi``."""
    return math.pi * _s_over_pi(*_float_radii(pair, "s_float"))(v.v1, v.v2, f)


def s_prime_float(v: IndexVector, pair: EllipsoidPair, f: float) -> float:
    """Closed-form S'(f) in floats, straight from ``_s_prime_over_pi``."""
    return math.pi * _s_prime_over_pi(*_float_radii(pair, "s_prime_float"))(v.v1, v.v2, f)


class TestOracleConstants:
    def test_grid_4096_and_80_golden_steps(self, rng, monkeypatch):
        # 60 golden-section steps give the same floats as 80 here, so the call itself is checked too
        calls, support_max = [], _kernels.support_max
        monkeypatch.setattr(_kernels, "support_max", lambda *args: calls.append(args[-2:]) or support_max(*args))
        support_norm_numeric(IndexVector(1, 1), EVEN2)
        assert calls == [(4096, 80)]
        monkeypatch.undo()
        for _ in range(50):
            pair = random_nonprop_pair(rng)
            k = rng.randint(1, 200)
            v1 = rng.randint(0, k)
            v = IndexVector(v1, k - v1)
            floats = _float_radii(pair, "pin")
            assert support_norm_numeric(v, pair) == _kernels.support_max(v1, k - v1, *floats, 4096, 80)
            assert s_derivative_signcheck(v, pair).points == 4096


def power_pair(e: int) -> EllipsoidPair:
    """E(r,r) + E(2r,3r) with r = 10^e."""
    r = F(10) ** e
    return EllipsoidPair.normalized(Ellipsoid(r, r), Ellipsoid(2 * r, 3 * r))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestFloatRange:
    """Radii whose values leave float range are refused, as ``omega_curve`` refuses them."""

    # 10^77: the finite differences overflow (max_abs_err was inf); 10^80:
    # K = c^2 d^2 / (a^2 b^2) is inf/inf, so S' is NaN (the report passed with
    # max_abs_err 0.0); 10^-160: a^2 is subnormal (a^2 b^2 underflowed to 0)
    @pytest.mark.parametrize("e", [77, 80, 168, -160])
    def test_signcheck_refuses(self, e):
        with pytest.raises(ValueError, match="^s_derivative_signcheck of these radii lies beyond float range$"):
            s_derivative_signcheck(IndexVector(3, 4), power_pair(e))

    # 10^160: f^2 = (c/a)^2 ... is inf/inf (the norm was NaN); 10^-170: the
    # golden-section objective divided by a^2 = 0 (ZeroDivisionError); 10^-160:
    # a^2 is subnormal, and the norm lost digits (2.01058e-318 for 2.01061e-318)
    @pytest.mark.parametrize("e", [160, -170, -160])
    def test_support_norm_numeric_refuses(self, e):
        with pytest.raises(ValueError, match="^support_norm_numeric of these radii lies beyond float range$"):
            support_norm_numeric(IndexVector(3, 4), power_pair(e))

    @pytest.mark.parametrize("e", [77, 80, -150])
    def test_support_norm_numeric_in_range(self, e):
        v, pair = IndexVector(3, 4), power_pair(e)
        assert support_norm_numeric(v, pair) == pytest.approx(float(support_norm(v, pair)), rel=1e-9)

    def test_signcheck_in_range(self):
        assert s_derivative_signcheck(IndexVector(3, 4), power_pair(70)).ok

    # float(10^400) raised OverflowError
    @pytest.mark.parametrize("op", ["convexity_check", "support_norm_numeric", "s_derivative_signcheck"])
    def test_radius_beyond_the_largest_float_refused(self, op):
        pair = EllipsoidPair.normalized(Ellipsoid(F(10) ** 400, 1), Ellipsoid(1, 2))
        args = (pair, 64) if op == "convexity_check" else (IndexVector(3, 4), pair)
        with pytest.raises(ValueError, match=f"^{op} of these radii lies beyond float range$"):
            getattr(_kernels, op)(*args)

    # convexity does not depend on scale, yet the report failed: 10^-90, C'' was NaN;
    # 10^-80, C'' was -inf at every angle (the true C'' is about -3e157); 10^60, C'' was -0.0
    @pytest.mark.parametrize("e", [-90, -80, 60])
    def test_convexity_check_refuses(self, e):
        with pytest.raises(ValueError, match="^convexity_check of these radii lies beyond float range$"):
            convexity_check(power_pair(e), 64)

    @pytest.mark.parametrize("e", [-52, 0, 50])
    def test_convexity_check_in_range(self, e):
        assert convexity_check(power_pair(e), 64).ok


class TestSupportNormNumeric:
    def test_even_family_value(self):
        got = support_norm_numeric(IndexVector(1, 1), EVEN2)
        assert got == pytest.approx(6.5 * math.pi, rel=1e-9)

    def test_odd_family_value(self):
        got = support_norm_numeric(IndexVector(2, 1), ODD3)
        assert got == pytest.approx(float(F(50, 9)) * math.pi, rel=1e-9)

    def test_endpoint_vectors_tight(self, rng):
        for _ in range(10):
            pair = random_nonprop_pair(rng)
            a, b, c, d = pair.radii
            k = rng.randint(1, 10)
            lo = support_norm_numeric(IndexVector(k, 0), pair)
            hi = support_norm_numeric(IndexVector(0, k), pair)
            assert lo == pytest.approx(k * math.pi * float((a + c) ** 2), rel=1e-12)
            assert hi == pytest.approx(k * math.pi * float((b + d) ** 2), rel=1e-12)

    def test_proportional_rejected(self):
        prop = EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(2, 2))
        with pytest.raises(ValueError):
            support_norm_numeric(IndexVector(1, 1), prop)

    def test_random_agreement_with_exact(self, rng):
        for _ in range(30):
            pair = random_nonprop_pair(rng)
            k = rng.randint(1, 10)
            v1 = rng.randint(0, k)
            v = IndexVector(v1, k - v1)
            exact = float(support_norm(v, pair))
            numeric = support_norm_numeric(v, pair)
            assert abs(exact - numeric) / exact <= 1e-9


class TestCrossCheck:
    @pytest.mark.parametrize(
        "k, R, stabilized",
        [(7, F(1, 10), False), (7, 2, False), (7, F(2 * 10**9 + 1, 10**9), True), (3, 10, True)],
    )
    def test_product_needs_the_stabilization_condition(self, k, R, stabilized):
        # c_7(E(1,1)) = 4 pi and c_3(E(1,1)) = 2 pi: R = 2 sits on the boundary R^2 = c and is refused
        domain, value = ProductWithBall(Ellipsoid(1, 1), 1, R), capacity(k, Ellipsoid(1, 1))
        if stabilized:
            assert capacity(k, domain) == value
            cross_check(k, domain, value)
        else:
            with pytest.raises(StabilizationError):
                capacity(k, domain)
            with pytest.raises(ValueError, match="stabilization condition unmet"):
                cross_check(k, domain, value)

    @pytest.mark.parametrize(
        "k, domain, coeff",
        [
            (0, Ellipsoid(1, 1), 0),
            (-2, Ellipsoid(1, 1), -1),
            (0, Polydisk(1, 1), 0),
            (0, EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(2, 2)), 0),
        ],
    )
    def test_nonpositive_k_refused(self, k, domain, coeff):
        with pytest.raises(ValueError) as exc:
            cross_check(k, domain, PiRational(coeff))
        assert str(exc.value) == f"capacity index k must be a positive integer, got {k}"

    @pytest.mark.parametrize(
        "domain",
        [even_family(10**6), EVEN2, Ellipsoid(F(3, 2), 1), Polydisk(F(3, 2), 1)],
    )
    def test_accepts_exact_values_at_the_cli_cap(self, domain):
        k = 10**6
        value = capacity(k, domain)
        cross_check(k, domain, value)
        with pytest.raises(ValueError):
            cross_check(k, domain, PiRational(value.coeff + F(1, k)))


class TestSProfile:
    def test_lower_endpoint(self, rng):
        for _ in range(10):
            pair = random_nonprop_pair(rng)
            a, b, c, d = pair.radii
            v = IndexVector(rng.randint(0, 5), rng.randint(1, 5))
            got = s_float(v, pair, float(c) / float(a))
            assert got == pytest.approx(v.v1 * math.pi * float((a + c) ** 2), rel=1e-10, abs=1e-10)

    def test_upper_endpoint(self, rng):
        for _ in range(10):
            pair = random_nonprop_pair(rng)
            a, b, c, d = pair.radii
            v = IndexVector(rng.randint(1, 5), rng.randint(0, 5))
            got = s_float(v, pair, float(d) / float(b))
            assert got == pytest.approx(v.v2 * math.pi * float((b + d) ** 2), rel=1e-10, abs=1e-10)

    def test_interior_critical_value_matches_exact(self):
        # even family at v = (1,1): f0 = 1 is interior, S(f0) = 13 pi / 2
        assert s_float(IndexVector(1, 1), EVEN2, 1.0) == pytest.approx(6.5 * math.pi, rel=1e-10)

    def test_f_domain_max_equals_psi_domain_max(self, rng):
        for _ in range(15):
            pair = random_nonprop_pair(rng)
            a, b, c, d = pair.radii
            k = rng.randint(1, 8)
            v1 = rng.randint(0, k)
            v = IndexVector(v1, k - v1)
            lo, hi = float(c) / float(a), float(d) / float(b)
            grid = [lo + (hi - lo) * j / 512 for j in range(513)]
            best_f = max(grid, key=lambda f: s_float(v, pair, f))
            j = grid.index(best_f)
            blo, bhi = grid[max(j - 1, 0)], grid[min(j + 1, 512)]
            f_max = golden_max(lambda f: s_float(v, pair, f), blo, bhi, 80)
            psi_max = support_norm_numeric(v, pair)
            assert f_max == pytest.approx(psi_max, rel=1e-9)


class TestSDerivative:
    def test_even_family_sign_change_at_one(self):
        report = s_derivative_signcheck(IndexVector(1, 1), EVEN2)
        assert report.ok
        assert report.f0 == pytest.approx(1.0)
        assert report.f0_interior and report.f0_is_max
        assert report.sign_mismatches == 0
        # the array reductions come back as plain Python scalars
        assert type(report.ok) is bool and type(report.sign_mismatches) is int
        assert type(report.max_abs_err) is float and type(report.max_allowed_err) is float
        # increasing before f0, decreasing after
        assert s_prime_float(IndexVector(1, 1), EVEN2, 0.9) > 0
        assert s_prime_float(IndexVector(1, 1), EVEN2, 1.1) < 0

    def test_axis_vector_constant_sign(self):
        report = s_derivative_signcheck(IndexVector(3, 0), EVEN2)
        assert report.ok
        assert not report.f0_interior
        a, b, c, d = (float(x) for x in EVEN2.radii)
        lo, hi = c / a, d / b
        samples = [lo + (hi - lo) * j / 40 for j in range(1, 40)]
        signs = {s_prime_float(IndexVector(3, 0), EVEN2, f) > 0 for f in samples}
        assert len(signs) == 1

    def test_finite_difference_agreement_random(self, rng):
        for _ in range(25):
            pair = random_nonprop_pair(rng)
            k = rng.randint(1, 12)
            v1 = rng.randint(0, k)
            report = s_derivative_signcheck(IndexVector(v1, k - v1), pair)
            assert report.ok, (pair, v1, k, report)

    def test_proportional_rejected(self):
        prop = EllipsoidPair.normalized(Ellipsoid(2, 1), Ellipsoid(4, 2))
        with pytest.raises(ValueError):
            s_derivative_signcheck(IndexVector(1, 1), prop)


def reference_signcheck(v: IndexVector, pair: EllipsoidPair, n: int = 4096) -> SignCheckReport:
    """Cross-check the closed-form S' against finite differences.

    Samples n interior points of (c/a, d/b).  At each point the
    five-point finite difference must match the closed form within
    max(1e-6, 1e-6 |S'|), and the signs must agree wherever |S'| > 1e-6.
    When f0 = N/D is interior with D < 0, also verifies S(f0) >= S(f0 +- eps).
    """
    # The scalar loop that the array form of s_derivative_signcheck replaced, kept verbatim.
    a, b, c, d = radii = _float_radii(pair, "s_derivative_signcheck")
    lo, hi = c / a, d / b
    span = hi - lo
    s_over_pi, s_prime_over_pi = _s_over_pi(*radii), _s_prime_over_pi(*radii)

    def S(f: float) -> float:
        return math.pi * s_over_pi(v.v1, v.v2, f)

    def Sp(f: float) -> float:
        return math.pi * s_prime_over_pi(v.v1, v.v2, f)

    sign_mismatches = 0
    max_abs_err = 0.0
    max_allowed = 0.0
    ok = True
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


def reference_array_signcheck(v: IndexVector, pair: EllipsoidPair, n: int = 4096) -> SignCheckReport:
    # s_derivative_signcheck before f**3 was shared in S' and the filter on
    # h > 0 became conditional, kept verbatim with its own S'.
    import numpy as np

    a, b, c, d = radii = _float_radii(pair, "s_derivative_signcheck")
    lo, hi = c / a, d / b
    span = hi - lo
    s_over_pi = _s_over_pi(*radii)
    dp = (d / b) ** 2 - (c / a) ** 2
    K = (c * c * d * d) / (a * a * b * b)

    def s_prime_over_pi(v1, v2, f):
        D, N = _critical(v1, v2, a, b, c, d)
        return 2 / (dp * f**3) * (f**3 + K) * (D * f - N)

    def S(f):
        return math.pi * s_over_pi(v.v1, v.v2, f)

    f = lo + span * np.arange(1, n + 1) / (n + 1)
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


# radii p/q with p, q <= 20, as random_nonprop_pair draws them
small_radius_st = st.builds(F, st.integers(1, 20), st.integers(1, 20))
small_ellipsoid_st = st.builds(Ellipsoid, small_radius_st, small_radius_st)
small_nonprop_pairs_st = st.builds(EllipsoidPair.normalized, small_ellipsoid_st, small_ellipsoid_st).filter(
    lambda p: not p.proportional
)


class TestSignCheckAgainstReference:
    @pytest.mark.parametrize("grid", [4096])
    @settings(max_examples=100, deadline=None)
    @given(pair=small_nonprop_pairs_st, k=st.integers(1, 200), data=st.data())
    def test_array_form_matches_the_scalar_loop(self, grid, pair, k, data):
        v1 = data.draw(st.integers(0, k))
        v = IndexVector(v1, k - v1)
        got, want = s_derivative_signcheck(v, pair), reference_signcheck(v, pair, grid)
        fields = ("ok", "points", "sign_mismatches", "f0", "f0_interior", "f0_is_max")
        assert [getattr(got, x) for x in fields] == [getattr(want, x) for x in fields]
        # the sums and powers round differently, so the largest error may move by round-off
        assert abs(got.max_abs_err - want.max_abs_err) <= 1e-3 * want.max_allowed_err


class TestSignCheckAgainstArrayReference:
    def test_report_equals_the_pre_change_array_form(self, rng):
        for _ in range(60):
            pair = random_nonprop_pair(rng)
            k = rng.randint(1, 200)
            v1 = rng.randint(0, k)
            v = IndexVector(v1, k - v1)
            assert s_derivative_signcheck(v, pair) == reference_array_signcheck(v, pair)

    @pytest.mark.parametrize("gap", [F(1, 10**15), F(1, 10**16)])
    def test_report_equals_the_pre_change_array_form_with_zero_steps(self, gap):
        # c/a and d/b so close in float that some grid points (1e-15) or all of
        # them (1e-16) round onto an end: their step is 0 and they are dropped
        pair = EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(1, 1 + gap))
        a, b, c, d = _float_radii(pair, "zero steps")
        lo, hi = c / a, d / b
        f = [lo + (hi - lo) * j / 4097 for j in range(1, 4097)]
        dropped = {F(1, 10**15): 818, F(1, 10**16): 4096}[gap]
        assert sum(min(1e-3 * x, 0.25 * min(x - lo, hi - x)) <= 0.0 for x in f) == dropped
        for v1, v2 in [(1, 1), (3, 0), (2, 5)]:
            v = IndexVector(v1, v2)
            assert s_derivative_signcheck(v, pair) == reference_array_signcheck(v, pair)


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


class TestUnimodality:
    def test_objective_has_single_peak(self, rng):
        # the psi-grid profile must rise to one bracket and fall after it;
        # tolerance absorbs float noise on near-flat stretches
        for _ in range(25):
            pair = random_nonprop_pair(rng)
            k = rng.randint(1, 12)
            v1 = rng.randint(0, k)
            v = IndexVector(v1, k - v1)
            a, b, c, d = (float(x) for x in pair.radii)
            n = 512
            vals = []
            for j in range(n + 1):
                psi = 0.5 * math.pi * j / n
                cp, sp = math.cos(psi), math.sin(psi)
                f = math.sqrt((c / a) ** 2 * cp * cp + (d / b) ** 2 * sp * sp)
                g = cp * (a + c * c / (a * f))
                h = sp * (b + d * d / (b * f))
                vals.append(math.pi * (v.v1 * g * g + v.v2 * h * h))
            peak = max(range(n + 1), key=vals.__getitem__)
            slack = 1e-9 * vals[peak]
            assert all(vals[j + 1] >= vals[j] - slack for j in range(peak))
            assert all(vals[j + 1] <= vals[j] + slack for j in range(peak, n))
