import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capacity_lab import (
    Ellipsoid,
    EllipsoidPair,
    IndexVector,
    PiRational,
    convexity_check,
    ellipsoid_capacity,
    ellipsoid_norm_argmin,
    even_family,
    odd_family,
    omega_curve,
    sum_capacity,
    sum_capacity_with_argmin,
    support_norm,
)
from capacity_lab import _kernels, minkowski
from capacity_lab.domains import _require_positive_k
from capacity_lab._kernels import _s_over_pi
from conftest import nonprop_pairs_st, pairs_st, random_nonprop_pair

F = Fraction

EVEN2 = even_family(2)   # (E(3/2,1), E(1,3/2))
ODD3 = odd_family(3)     # (E(1,1), E(2/3,1))


def boundary_gh(psi: float, pair: EllipsoidPair) -> tuple[float, float]:
    """Radial coordinates (g, h) of the sum's boundary point at angle psi, from ``gh_profiles``."""
    _, _, _, g, h = _kernels.gh_profiles(*(float(x) for x in pair.radii), psi)
    return float(g), float(h)


class TestBoundaryPoint:
    def test_endpoint_g(self):
        g, h = boundary_gh(0.0, EVEN2)
        assert g == 2.5 and h == 0.0

    def test_objective_matches_profile_at_quarter_pi(self):
        # pi (v1 g^2 + v2 h^2) at psi equals S(f(psi)) for several v
        psi = math.pi / 4
        g, h = boundary_gh(psi, ODD3)
        a, b, c, d = (float(x) for x in ODD3.radii)
        f = math.sqrt((c / a) ** 2 * math.cos(psi) ** 2 + (d / b) ** 2 * math.sin(psi) ** 2)
        for v in [IndexVector(1, 1), IndexVector(2, 1), IndexVector(0, 3)]:
            direct = math.pi * (v.v1 * g**2 + v.v2 * h**2)
            assert direct == pytest.approx(math.pi * _s_over_pi(a, b, c, d)(v.v1, v.v2, f), rel=1e-12)


def reference_cy_map(a1, a2, x):
    # Boundary point of A1(B) + A2(B) at the unit vector x in R^n:
    # A1 x + A2 (A2^T A1^{-1} x / |A2^T A1^{-1} x|)
    w = a2.T @ np.linalg.solve(a1, x)
    return a1 @ x + a2 @ (w / np.linalg.norm(w))


class TestGeneralCyMap:
    def test_specializes_to_aligned_formula(self, rng):
        for _ in range(10):
            pair = random_nonprop_pair(rng, max_height=6)
            a, b, c, d = (float(x) for x in pair.radii)
            a1 = np.diag([a, a, b, b])
            a2 = np.diag([c, c, d, d])
            psi = rng.uniform(0.05, math.pi / 2 - 0.05)
            th1 = rng.uniform(0, 2 * math.pi)
            th2 = rng.uniform(0, 2 * math.pi)
            x = np.array(
                [
                    math.cos(psi) * math.cos(th1),
                    math.cos(psi) * math.sin(th1),
                    math.sin(psi) * math.cos(th2),
                    math.sin(psi) * math.sin(th2),
                ]
            )
            out = reference_cy_map(a1, a2, x)
            g, h = boundary_gh(psi, pair)
            assert math.hypot(out[0], out[1]) == pytest.approx(g, rel=1e-10)
            assert math.hypot(out[2], out[3]) == pytest.approx(h, rel=1e-10)


class TestOmegaCurve:
    def test_endpoints_exact(self):
        a, b, c, d = EVEN2.radii
        curve = omega_curve(EVEN2, 2)
        assert curve[0].x1 == math.pi * float((a + c) ** 2)
        assert curve[0].x2 == 0.0
        assert curve[-1].x1 == 0.0
        assert curve[-1].x2 == math.pi * float((b + d) ** 2)

    def test_point_count(self):
        assert len(omega_curve(EVEN2, 100)) == 101

    def test_samples_minimum(self):
        with pytest.raises(ValueError):
            omega_curve(EVEN2, 1)

    def test_monotone_along_curve(self, rng):
        for _ in range(10):
            pair = random_nonprop_pair(rng)
            curve = omega_curve(pair, 200)
            x1 = [p.x1 for p in curve]
            x2 = [p.x2 for p in curve]
            assert all(u > v for u, v in zip(x1, x1[1:]))
            assert all(u < v for u, v in zip(x2, x2[1:]))

    def test_concavity_midpoint_above_chord(self, rng):
        for _ in range(10):
            pair = random_nonprop_pair(rng)
            curve = omega_curve(pair, 120)
            for left, mid, right in zip(curve, curve[1:], curve[2:]):
                t = (mid.x1 - left.x1) / (right.x1 - left.x1)
                chord = left.x2 + t * (right.x2 - left.x2)
                assert mid.x2 >= chord - 1e-10

    def test_even2_midpoint_strictly_above_inner_chord(self):
        # the inner ellipsoid E(5/2,5/2) has moment triangle hypotenuse
        # x1 + x2 = pi (5/2)^2; the sum's boundary lies strictly above it
        curve = omega_curve(EVEN2, 4)
        mid = curve[2]
        assert mid.x1 + mid.x2 > math.pi * 6.25


class TestConvexityCheck:
    def test_even_family_k2(self):
        report = convexity_check(EVEN2, 1000)
        assert report.ok
        assert report.worst_C1 < 0
        assert report.worst_C2 < 0

    def test_odd_family_k3(self):
        assert convexity_check(ODD3, 1000).ok

    def test_random_pairs(self, rng):
        for _ in range(25):
            assert convexity_check(random_nonprop_pair(rng), 300).ok

    def test_proportional_rejected(self):
        prop = EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(3, 3))
        with pytest.raises(ValueError):
            convexity_check(prop, 10)

    def test_c1_limit_at_zero(self):
        # C' tends to -(b^2 (c/a) + d^2)/(a^2 (c/a) + c^2) as psi -> 0+
        a, b, c, d = (float(x) for x in ODD3.radii)
        f0 = c / a
        expected = -(b * b * f0 + d * d) / (a * a * f0 + c * c)
        c1, _ = _kernels.convexity_grid(a, b, c, d, np.array([1e-9]))
        assert c1[0] == pytest.approx(expected, rel=1e-9)

    def test_c2_matches_finite_difference_of_c1(self, rng):
        # C'' closed form against d(C')/d(x1) by central differences
        pair = random_nonprop_pair(rng, max_height=6)
        a, b, c, d = (float(x) for x in pair.radii)
        for psi in [0.3, 0.7, 1.1, 1.4]:
            eps = 1e-6
            grid = np.array([psi - eps, psi, psi + eps])
            c1, c2 = _kernels.convexity_grid(a, b, c, d, grid)
            x1, _ = _kernels.omega_xy(a, b, c, d, grid)
            fd = (c1[2] - c1[0]) / (x1[2] - x1[0])
            assert c2[1] == pytest.approx(fd, rel=1e-5)


class TestSupportNorm:
    def test_even_family_diagonal_vector(self):
        assert support_norm(IndexVector(1, 1), EVEN2).coeff == F(13, 2)

    def test_axis_vector_hits_endpoint(self, rng):
        for _ in range(10):
            pair = random_nonprop_pair(rng)
            a, b, c, d = pair.radii
            k = rng.randint(1, 12)
            assert support_norm(IndexVector(k, 0), pair).coeff == k * (a + c) ** 2
            assert support_norm(IndexVector(0, k), pair).coeff == k * (b + d) ** 2

    def test_odd_family_vector(self):
        assert support_norm(IndexVector(2, 1), ODD3).coeff == F(50, 9)

    def test_odd_family_closed_form(self):
        # |(n+1, n)|* = pi (n+1) (2 - 1/k)^2 with k = 2n + 1
        for n in range(1, 12):
            k = 2 * n + 1
            pair = odd_family(k)
            got = support_norm(IndexVector(n + 1, n), pair).coeff
            assert got == (n + 1) * (2 - F(1, k)) ** 2

    def test_proportional_pair_rejected(self):
        prop = EllipsoidPair.normalized(Ellipsoid(1, 2), Ellipsoid(2, 4))
        with pytest.raises(ValueError):
            support_norm(IndexVector(1, 1), prop)

    def test_branch_boundary_f0_at_lower_end(self):
        # (E(1,1), E(1/2,1)) with v = (2,1): f0 = 1/2 = c/a, so the max
        # branch applies, and the interior closed form agrees by continuity
        pair = EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(F(1, 2), 1))
        a, b, c, d = pair.radii
        v1, v2 = 2, 1
        D = v2 * b * b - v1 * a * a
        N = v1 * c * c - v2 * d * d
        assert N / D == c / a
        interior = (b * b * c * c - a * a * d * d) * v1 * v2 * (1 / N + 1 / D)
        expected = max(v1 * (a + c) ** 2, v2 * (b + d) ** 2)
        assert interior == expected
        assert support_norm(IndexVector(v1, v2), pair).coeff == expected
        num, den = minkowski._norm_coeff(v1 + v2, pair)(v1)
        assert den > 0 and F(num, den) == expected == reference_norm_coeff(v1 + v2, pair)(v1)

    def test_branch_boundary_f0_at_upper_end(self):
        # (E(1,1), E(1,2)) with v = (2,1): f0 = 2 = d/b
        pair = EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(1, 2))
        a, b, c, d = pair.radii
        v1, v2 = 2, 1
        D = v2 * b * b - v1 * a * a
        N = v1 * c * c - v2 * d * d
        assert N / D == d / b
        interior = (b * b * c * c - a * a * d * d) * v1 * v2 * (1 / N + 1 / D)
        expected = max(v1 * (a + c) ** 2, v2 * (b + d) ** 2)
        assert interior == expected
        assert support_norm(IndexVector(v1, v2), pair).coeff == expected
        num, den = minkowski._norm_coeff(v1 + v2, pair)(v1)
        assert den > 0 and F(num, den) == expected == reference_norm_coeff(v1 + v2, pair)(v1)

    def test_degenerate_direction_D_zero(self):
        # v2 b^2 = v1 a^2 leaves no interior critical point
        pair = EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(F(1, 2), 2))
        value = support_norm(IndexVector(1, 1), pair).coeff
        a, b, c, d = pair.radii
        assert value == max((a + c) ** 2, (b + d) ** 2)


class TestSumCapacity:
    def test_even_k2(self):
        assert sum_capacity(2, EVEN2).coeff == F(13, 2)

    def test_odd_k3(self):
        assert sum_capacity(3, ODD3).coeff == F(50, 9)

    def test_proportional_unit_balls(self):
        pair = EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(1, 1))
        assert sum_capacity(1, pair).coeff == 4

    def test_k_zero_rejected(self):
        for k in (0, True, 2.5):
            with pytest.raises(ValueError):
                sum_capacity(k, EVEN2)
            with pytest.raises(ValueError):
                strictness_check(k, EVEN2)

    def test_argmin_reported(self):
        value, argmin = sum_capacity_with_argmin(2, EVEN2)
        assert value.coeff == F(13, 2)
        assert (argmin.v1, argmin.v2) == (1, 1)

    def test_argmin_tie_breaks_to_smallest_v1(self):
        pair = EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(1, 1))
        _, argmin = sum_capacity_with_argmin(3, pair)
        assert (argmin.v1, argmin.v2) == (1, 2)

    def test_argmin_is_exhaustive_minimum(self, rng):
        for _ in range(15):
            pair = random_nonprop_pair(rng, max_height=8)
            k = rng.randint(1, 12)
            value, argmin = sum_capacity_with_argmin(k, pair)
            norms = [support_norm(IndexVector(v1, k - v1), pair).coeff for v1 in range(k + 1)]
            assert value.coeff == min(norms)
            assert norms[argmin.v1] == value.coeff
            assert all(norms[j] > value.coeff for j in range(argmin.v1))

    @given(nonprop_pairs_st, st.integers(1, 25))
    @settings(max_examples=80, deadline=None)
    def test_pair_symmetry(self, pair, k):
        flipped = EllipsoidPair.normalized(pair.second, pair.first)
        assert sum_capacity(k, pair) == sum_capacity(k, flipped)

    @given(nonprop_pairs_st, st.integers(1, 25))
    @settings(max_examples=80, deadline=None)
    def test_axis_symmetry(self, pair, k):
        e1 = Ellipsoid(pair.first.b, pair.first.a)
        e2 = Ellipsoid(pair.second.b, pair.second.a)
        assert sum_capacity(k, pair) == sum_capacity(k, EllipsoidPair.normalized(e1, e2))

    @given(pairs_st, st.integers(1, 25))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_k(self, pair, k):
        assert sum_capacity(k, pair) <= sum_capacity(k + 1, pair)

    @given(pairs_st, st.integers(1, 25))
    @settings(max_examples=80, deadline=None)
    def test_contains_inner_ellipsoid(self, pair, k):
        inner = pair.outer_ellipsoid
        assert sum_capacity(k, pair) >= ellipsoid_capacity(k, inner)

    @given(pairs_st, st.integers(1, 20), st.sampled_from([F(1, 3), F(1, 2), F(2), F(7, 5)]))
    @settings(max_examples=80, deadline=None)
    def test_conformality(self, pair, k, lam):
        assert sum_capacity(k, pair.scaled(lam)).coeff == lam * lam * sum_capacity(k, pair).coeff

    @given(st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8), st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_proportional_degeneration(self, lam, k):
        e = Ellipsoid(F(3, 2), F(5, 7))
        pair = EllipsoidPair.normalized(e, e.scaled(lam))
        expected = (1 + lam) ** 2 * ellipsoid_capacity(k, e).coeff
        assert sum_capacity(k, pair).coeff == expected


def reference_support_norm_coeff(v1, v2, a, b, c, d):
    """The branch formula as support_norm evaluated it before the per-pair constants were hoisted."""
    a2, b2, c2, d2 = a * a, b * b, c * c, d * d
    D = v2 * b2 - v1 * a2
    N = v1 * c2 - v2 * d2
    if D != 0:
        f0 = N / D
        if D < 0 and c / a < f0 < d / b:
            return (b2 * c2 - a2 * d2) * v1 * v2 * (F(1) / N + F(1) / D)
    return max(v1 * (a + c) ** 2, v2 * (b + d) ** 2)


def reference_sum_argmin(k, pair):
    """The early-stopping linear scan that sum_capacity_with_argmin ran before it bisected."""
    a, b, c, d = pair.radii
    ac2 = (a + c) ** 2
    best = None
    best_v1 = 0
    for v1 in range(k + 1):
        if best is not None and v1 * ac2 >= best:
            break
        coeff = reference_support_norm_coeff(v1, k - v1, a, b, c, d)
        if best is None or coeff < best:
            best = coeff
            best_v1 = v1
    return best, best_v1


def reference_norm_coeff(k, pair):
    """minkowski._norm_coeff as it was before the norms were scaled to integers."""
    a, b, c, d = pair.radii
    a2, b2, c2, d2 = a * a, b * b, c * c, d * d
    lo, hi = c / a, d / b
    cross = b2 * c2 - a2 * d2
    ac2, bd2 = (a + c) ** 2, (b + d) ** 2

    def h(v1: int) -> Fraction:
        v2 = k - v1
        D = v2 * b2 - v1 * a2
        if D < 0:
            N = v1 * c2 - v2 * d2
            if lo * D > N > hi * D:
                return cross * v1 * v2 * (N + D) / (N * D)
        return max(v1 * ac2, v2 * bd2)

    return h


def reference_convex_argmin(h, k):
    """domains.convex_argmin as it was while h returned Fractions."""
    h = cache(h)
    j = bisect_left(range(k), True, key=lambda i: h(i + 1) >= h(i))
    return h(j), j


class TestIntegerNorms:
    @given(nonprop_pairs_st, st.integers(1, 60))
    @settings(max_examples=150, deadline=None)
    def test_integer_norm_equals_the_fraction_reference(self, pair, k):
        h, ref = minkowski._norm_coeff(k, pair), reference_norm_coeff(k, pair)
        for v1 in range(k + 1):
            num, den = h(v1)
            assert den > 0 and F(num, den) == ref(v1)

    @given(nonprop_pairs_st, st.integers(1, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_bisection_matches_the_fraction_reference(self, pair, k):
        value, argmin = sum_capacity_with_argmin(k, pair)
        assert (value.coeff, argmin.v1) == reference_convex_argmin(reference_norm_coeff(k, pair), k)


class TestBisection:
    @given(nonprop_pairs_st, st.integers(1, 60))
    @settings(max_examples=150, deadline=None)
    def test_norm_is_discrete_convex(self, pair, k):
        h = [support_norm(IndexVector(v1, k - v1), pair).coeff for v1 in range(k + 1)]
        assert all(h[j - 1] + h[j + 1] >= 2 * h[j] for j in range(1, k))

    @given(nonprop_pairs_st, st.integers(1, 60))
    @settings(max_examples=150, deadline=None)
    def test_support_norm_matches_reference_formula(self, pair, k):
        a, b, c, d = pair.radii
        for v1 in range(k + 1):
            expected = reference_support_norm_coeff(v1, k - v1, a, b, c, d)
            assert support_norm(IndexVector(v1, k - v1), pair).coeff == expected

    @given(nonprop_pairs_st, st.integers(1, 300))
    @settings(max_examples=200, deadline=None)
    def test_argmin_matches_reference_scan(self, pair, k):
        value, argmin = sum_capacity_with_argmin(k, pair)
        assert (value.coeff, argmin.v1) == reference_sum_argmin(k, pair)

    def test_families_match_reference_scan(self):
        for k in range(2, 61):
            pair = even_family(k) if k % 2 == 0 else odd_family(k)
            value, argmin = sum_capacity_with_argmin(k, pair)
            assert (value.coeff, argmin.v1) == reference_sum_argmin(k, pair)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 99])
    def test_proportional_ball_sum_ties(self, k):
        # sum(E(1,1),E(1,1)) = E(2,2): ties at odd k break to v1 = (k-1)/2
        pair = EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(1, 1))
        value, argmin = sum_capacity_with_argmin(k, pair)
        assert value.coeff == 4 * ((k + 1) // 2)
        assert (argmin.v1, argmin.v2) == (k // 2, k - k // 2)

    def test_even_family_at_the_cli_cap(self):
        k = 10**6
        value, argmin = sum_capacity_with_argmin(k, even_family(k))
        assert value.coeff == 2 * k + 2 + F(1, k)
        assert (argmin.v1, argmin.v2) == (k // 2, k // 2)


@dataclass(frozen=True)
class StrictnessReport:
    """Outcome of comparing c_k(sum) against c_k(E(a+c, b+d))."""

    strict: bool
    c_sum: PiRational
    c_inner: PiRational
    inner_argmin: IndexVector
    criterion_strict: bool
    criterion_agrees: bool


def strictness_check(k: int, pair: EllipsoidPair) -> StrictnessReport:
    """Is c_k(sum) strictly larger than c_k(E(a+c, b+d))?

    ``strict`` is decided from the exact capacities.  The report also
    evaluates the sufficient criterion on the inner ellipsoid's minimizing
    vector v = (v1, k-v1): strictness is implied when
    (v1 c^2 - (k-v1) d^2) / ((k-v1) b^2 - v1 a^2) lies in (c/a, d/b) and
    (k-v1) b^2 < v1 a^2.
    """
    _require_positive_k(k)
    a, b, c, d = pair.radii
    c_inner, argmin = ellipsoid_norm_argmin(k, pair.outer_ellipsoid)
    c_sum = sum_capacity(k, pair)
    strict = c_sum.coeff > c_inner.coeff
    v1, v2 = argmin.v1, argmin.v2
    D = v2 * b * b - v1 * a * a
    N = v1 * c * c - v2 * d * d
    criterion = D < 0 and c / a < N / D < d / b
    return StrictnessReport(
        strict=strict,
        c_sum=c_sum,
        c_inner=c_inner,
        inner_argmin=argmin,
        criterion_strict=criterion,
        criterion_agrees=(criterion == strict),
    )


class TestStrictness:
    def test_even_k2_strict(self):
        report = strictness_check(2, EVEN2)
        assert report.strict
        assert report.c_sum.coeff == F(13, 2)
        assert report.c_inner.coeff == F(25, 4)
        assert report.criterion_strict and report.criterion_agrees

    def test_proportional_never_strict(self):
        pair = EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(1, 1))
        report = strictness_check(1, pair)
        assert not report.strict
        assert not report.criterion_strict
        assert report.criterion_agrees

    def test_k1_matches_min_side(self, rng):
        for _ in range(20):
            pair = random_nonprop_pair(rng)
            a, b, c, d = pair.radii
            report = strictness_check(1, pair)
            assert report.c_sum.coeff == min((a + c) ** 2, (b + d) ** 2)

    def test_containment_always(self, rng):
        for _ in range(25):
            pair = random_nonprop_pair(rng)
            k = rng.randint(1, 15)
            report = strictness_check(k, pair)
            assert report.c_sum >= report.c_inner
            assert report.strict == (report.c_sum > report.c_inner)

    def test_families_criterion_agrees(self):
        for k in [2, 4, 6, 8]:
            assert strictness_check(k, even_family(k)).criterion_agrees
        for k in [3, 5, 7, 9]:
            assert strictness_check(k, odd_family(k)).criterion_agrees
