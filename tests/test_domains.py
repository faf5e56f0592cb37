import heapq
import math
from dataclasses import FrozenInstanceError
from bisect import bisect_left
from fractions import Fraction
from functools import cache
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capacity_lab import (
    DomainParseError,
    Ellipsoid,
    EllipsoidPair,
    IndexVector,
    PiRational,
    Polydisk,
    ProductWithBall,
    StabilizationError,
    capacity,
    ellipsoid_capacity,
    ellipsoid_norm_argmin,
    even_family,
    format_domain,
    odd_family,
    parse_domain,
    polydisk_capacity,
    product_with_ball_capacity,
    sum_capacity,
)
from capacity_lab.domains import _common_denominator, _require_positive_k, convex_argmin
from capacity_lab.minkowski import _kth_merged_multiple
from capacity_lab.verify import _is_kth_merged_multiple
from conftest import ellipsoids_st, radii_st, random_ellipsoid, scale_domain
from reference_parser import reference_parse_domain

F = Fraction


# pairs of ellipsoids, a share of them proportional
pair_operands_st = st.one_of(
    st.tuples(ellipsoids_st, ellipsoids_st),
    st.tuples(ellipsoids_st, radii_st).map(lambda t: (t[0], t[0].scaled(t[1]))),
)


class TestTypes:
    def test_positive_radii_required(self):
        with pytest.raises(ValueError):
            Ellipsoid(0, 1)
        with pytest.raises(ValueError):
            Polydisk(1, F(-1, 2))

    def test_pair_normalization_swaps(self):
        pair = EllipsoidPair.normalized(Ellipsoid(1, 2), Ellipsoid(3, 1))
        # c/a <= d/b must hold after normalization
        a, b, c, d = pair.radii
        assert c * b <= a * d
        assert (pair.first, pair.second) == (Ellipsoid(3, 1), Ellipsoid(1, 2))

    def test_ellipsoid_and_polydisk_stay_distinct(self):
        e, p = Ellipsoid(F(3, 2), 1), Polydisk(F(3, 2), 1)
        assert repr(e) == "Ellipsoid(a=Fraction(3, 2), b=Fraction(1, 1))"
        assert repr(p) == "Polydisk(a=Fraction(3, 2), b=Fraction(1, 1))"
        assert e != p and e == Ellipsoid(F(6, 4), F(2, 2)) and p == Polydisk(F(3, 2), 1)
        assert not isinstance(e, Polydisk) and not isinstance(p, Ellipsoid)
        assert (e.scaled(2), p.scaled(2)) == (Ellipsoid(3, 2), Polydisk(3, 2))
        with pytest.raises(FrozenInstanceError):
            e.a = F(1)
        with pytest.raises(FrozenInstanceError):
            p.c = F(1)

    def test_pair_invariant_enforced(self):
        with pytest.raises(ValueError):
            EllipsoidPair(Ellipsoid(1, 2), Ellipsoid(3, 1))

    def test_proportional_detection(self):
        assert EllipsoidPair.normalized(Ellipsoid(1, 2), Ellipsoid(2, 4)).proportional
        assert not EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(F(2, 3), 1)).proportional

    def test_index_vector_validation(self):
        with pytest.raises(ValueError):
            IndexVector(0, 0)
        with pytest.raises(ValueError):
            IndexVector(-1, 2)
        assert IndexVector(2, 3).k == 5

    @given(pair_operands_st)
    @settings(max_examples=300)
    def test_pair_order_matches_fraction_products(self, operands):
        e1, e2 = operands
        cb, ad = e2.a * e1.b, e1.a * e2.b
        pair = EllipsoidPair.normalized(e1, e2)
        assert (pair.first, pair.second) == ((e2, e1) if cb > ad else (e1, e2))
        assert pair.proportional is (cb == ad)
        if cb > ad:
            with pytest.raises(ValueError, match="c/a <= d/b"):
                EllipsoidPair(e1, e2)
        else:
            assert EllipsoidPair(e1, e2) == pair

    def test_product_no_nesting(self):
        inner = ProductWithBall(Ellipsoid(1, 1), 2, F(10))
        with pytest.raises(ValueError):
            ProductWithBall(inner, 2, F(10))


class TestEllipsoidCapacity:
    def test_unit_ball_first(self):
        assert ellipsoid_capacity(1, Ellipsoid(1, 1)).coeff == 1

    def test_even_family_summand(self):
        assert ellipsoid_capacity(2, Ellipsoid(F(3, 2), 1)).coeff == 2

    def test_odd_family_summand(self):
        assert ellipsoid_capacity(3, Ellipsoid(F(2, 3), 1)).coeff == 1

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            ellipsoid_capacity(0, Ellipsoid(1, 1))

    def test_ball_ceiling_formula(self):
        for k in range(1, 40):
            for r in [F(1), F(3, 2), F(7, 5)]:
                assert ellipsoid_capacity(k, Ellipsoid(r, r)).coeff == r * r * ((k + 1) // 2)

    def test_bruteforce_agreement_to_1000(self, rng):
        for _ in range(25):
            e = random_ellipsoid(rng)
            for k in [1, 2, 3, 17, 100, 999, 1000]:
                assert ellipsoid_capacity(k, e) == ellipsoid_capacity_bruteforce(k, e)

    @given(ellipsoids_st, st.integers(1, 60))
    @settings(max_examples=150)
    def test_bruteforce_agreement_random(self, e, k):
        assert ellipsoid_capacity(k, e) == ellipsoid_capacity_bruteforce(k, e)

    @given(ellipsoids_st, st.integers(1, 60))
    def test_factor_symmetry(self, e, k):
        assert ellipsoid_capacity(k, e) == ellipsoid_capacity(k, Ellipsoid(e.b, e.a))

    @given(ellipsoids_st, st.integers(1, 60))
    def test_monotone_in_k(self, e, k):
        assert ellipsoid_capacity(k, e) <= ellipsoid_capacity(k + 1, e)

    @given(ellipsoids_st, st.integers(1, 40), radii_st)
    def test_conformality(self, e, k, lam):
        scaled = scale_domain(lam, e)
        assert capacity(k, scaled).coeff == lam * lam * capacity(k, e).coeff

    @given(ellipsoids_st, st.integers(1, 40))
    def test_norm_argmin_matches_capacity(self, e, k):
        value, argmin = ellipsoid_norm_argmin(k, e)
        assert value == ellipsoid_capacity(k, e)
        assert argmin.k == k
        assert value.coeff == max(argmin.v1 * e.a**2, argmin.v2 * e.b**2)


def ellipsoid_capacity_bruteforce(k: int, e: Ellipsoid) -> PiRational:
    """O(k) reference for ellipsoid_capacity and for the counting check in ``verify.cross_check``.

    With a^2 = A/den and b^2 = B/den over a common denominator, the integer
    progressions A, 2A, ... and B, 2B, ... are merged lazily up to the k-th.
    """
    _require_positive_k(k)
    alpha, beta = e.a * e.a, e.b * e.b
    den = math.lcm(alpha.denominator, beta.denominator)
    A, B = int(alpha * den), int(beta * den)
    kth = next(islice(heapq.merge(range(A, (k + 1) * A, A), range(B, (k + 1) * B, B)), k - 1, None))
    return PiRational(Fraction(kth, den))


def reference_norm_argmin(k, e):
    """The linear scan that ellipsoid_norm_argmin ran before it bisected."""
    alpha, beta = e.a * e.a, e.b * e.b
    best = None
    best_v1 = 0
    for v1 in range(k + 1):
        value = max(v1 * alpha, (k - v1) * beta)
        if best is None or value < best:
            best = value
            best_v1 = v1
    return best, best_v1


def reference_kth_merged_multiple(k, alpha, beta):
    """The hand-written binary search that ellipsoid_capacity ran before it used bisect."""

    def smallest_reaching(step, other):
        lo, hi = 1, k
        while lo < hi:
            mid = (lo + hi) // 2
            if mid + (mid * step) // other >= k:
                hi = mid
            else:
                lo = mid + 1
        return lo * step

    return min(smallest_reaching(alpha, beta), smallest_reaching(beta, alpha))


def reference_bisect_kth_merged_multiple(k, alpha, beta):
    """The two bisections that ``_kth_merged_multiple`` ran before its closed form.

    For each progression, bisect for the smallest multiplier m in 1..k whose
    count N(m*step) = m + floor(m*step/other) reaches k (m = k always does);
    the answer is the smaller candidate.
    """

    def smallest_reaching(step, other):
        p, q = step.numerator * other.denominator, step.denominator * other.numerator
        i = bisect_left(range(1, k), True, key=lambda m: m + m * p // q >= k)
        return (i + 1) * step

    return min(smallest_reaching(alpha, beta), smallest_reaching(beta, alpha))


radii_50_st = st.builds(F, st.integers(1, 50), st.integers(1, 50))


class TestClosedFormKth:
    """``_kth_merged_multiple``'s m = ceil(kq/(p+q)) against the bisection it replaced."""

    @given(radii_50_st, radii_50_st, st.integers(1, 10**6))
    @settings(max_examples=300)
    def test_matches_the_bisection(self, a, b, k):
        alpha, beta = a * a, b * b
        assert _kth_merged_multiple(k, alpha, beta)[0] == reference_bisect_kth_merged_multiple(k, alpha, beta)

    @given(radii_50_st, radii_50_st, st.integers(1, 10**4))
    @settings(max_examples=200)
    def test_matches_the_bisection_where_the_ceiling_is_exact(self, a, b, j):
        # k a multiple of p + q, so kq/(p+q) and kp/(p+q) are integers
        alpha, beta = a * a, b * b
        ratio = alpha / beta
        k = j * (ratio.numerator + ratio.denominator)
        assert _kth_merged_multiple(k, alpha, beta)[0] == reference_bisect_kth_merged_multiple(k, alpha, beta)

    @pytest.mark.parametrize("e", [Ellipsoid(1, 1), Ellipsoid(2, 1), Ellipsoid(F(3, 2), 1)])
    def test_every_k_to_200(self, e):
        # kq/(p+q) is an integer at every 2nd, 5th and 13th k respectively
        alpha, beta = e.a * e.a, e.b * e.b
        for k in range(1, 201):
            want = reference_bisect_kth_merged_multiple(k, alpha, beta)
            assert _kth_merged_multiple(k, alpha, beta)[0] == want == ellipsoid_capacity_bruteforce(k, e).coeff


def reference_bisect_norm_argmin(k, e):
    """The bisection that ``ellipsoid_norm_argmin`` ran before its closed form.

    a^2 = A/L and b^2 = B/L over one common denominator, so the norms are
    the integer pairs (max(v1 A, v2 B), L); ``convex_argmin`` returns their
    minimum and its smallest minimizer v1.
    """
    (A, B), L = _common_denominator(e.a * e.a, e.b * e.b)
    return convex_argmin(lambda j: (max(j * A, (k - j) * B), L), k)


class TestClosedFormNormArgmin:
    """``ellipsoid_norm_argmin``'s v1 = k - n or m against the bisection it replaced."""

    @given(radii_50_st, radii_50_st, st.integers(1, 10**6))
    @settings(max_examples=300)
    def test_matches_the_bisection(self, a, b, k):
        value, argmin = ellipsoid_norm_argmin(k, Ellipsoid(a, b))
        assert (value.coeff, argmin.v1) == reference_bisect_norm_argmin(k, Ellipsoid(a, b))

    @given(radii_50_st, radii_50_st, st.integers(1, 10**4))
    @settings(max_examples=200)
    def test_matches_the_bisection_where_the_multiples_tie(self, a, b, j):
        # k a multiple of p + q, so m*a^2 = n*b^2 and both progressions reach the k-th value
        ratio = (a * a) / (b * b)
        k = j * (ratio.numerator + ratio.denominator)
        value, argmin = ellipsoid_norm_argmin(k, Ellipsoid(a, b))
        assert (value.coeff, argmin.v1) == reference_bisect_norm_argmin(k, Ellipsoid(a, b))

    @pytest.mark.parametrize("e", [Ellipsoid(1, 1), Ellipsoid(2, 1), Ellipsoid(F(3, 2), 1), Ellipsoid(1, 2)])
    def test_every_k_to_300(self, e):
        for k in range(1, 301):
            value, argmin = ellipsoid_norm_argmin(k, e)
            assert (value.coeff, argmin.v1) == reference_bisect_norm_argmin(k, e)


def reference_sorted_bruteforce(k, e):
    """The sorted materialization that ellipsoid_capacity_bruteforce ran before it merged lazily."""
    alpha, beta = e.a * e.a, e.b * e.b
    merged = sorted([i * alpha for i in range(1, k + 1)] + [j * beta for j in range(1, k + 1)])
    return merged[k - 1]


class TestBruteforce:
    @given(ellipsoids_st, st.integers(1, 300))
    @settings(max_examples=300)
    def test_matches_sorted_reference(self, e, k):
        assert ellipsoid_capacity_bruteforce(k, e).coeff == reference_sorted_bruteforce(k, e)

    @pytest.mark.parametrize("e", [Ellipsoid(1, 1), Ellipsoid(F(3, 2), 1), Ellipsoid(F(7, 5), F(2, 3))])
    def test_matches_sorted_reference_at_the_cross_check_bound(self, e):
        assert ellipsoid_capacity_bruteforce(4096, e).coeff == reference_sorted_bruteforce(4096, e)


def is_kth(k, c, alpha, beta):
    """``verify._is_kth_merged_multiple`` on steps alpha and beta given as Fractions."""
    return _is_kth_merged_multiple(k, c, (alpha.numerator, alpha.denominator), (beta.numerator, beta.denominator))


class TestCountingCheck:
    """``verify._is_kth_merged_multiple``, the O(1) test behind ``cross_check`` on ellipsoids."""

    @given(ellipsoids_st, st.integers(1, 400))
    @settings(max_examples=300)
    def test_accepts_the_capacity_and_rejects_its_neighbours(self, e, k):
        alpha, beta = e.a**2, e.b**2
        c = ellipsoid_capacity(k, e).coeff
        assert is_kth(k, c, alpha, beta)
        assert is_kth(k, ellipsoid_capacity_bruteforce(k, e).coeff, alpha, beta)
        for forged in (c + min(alpha, beta) / 7, c - min(alpha, beta) / 7, c - alpha, c + beta):
            assert not is_kth(k, forged, alpha, beta)

    def test_ties_count_twice(self):
        # E(1,1): the multiples 1, 1, 2, 2, ... so c_3 = c_4 = 2 and c_2 = 1
        one = F(1)
        assert [is_kth(k, F(2), one, one) for k in range(1, 6)] == [False, False, True, True, False]
        assert is_kth(2, one, one, one)

    def test_nonpositive_values_rejected(self):
        for c in (F(0), F(-1), F(-1, 2)):
            assert not is_kth(1, c, F(1), F(2))


def scan_argmin(values):
    best = min(values)
    return best, values.index(best)


convex_sequences_st = st.tuples(
    st.lists(st.integers(-50, 50), min_size=0, max_size=40), st.integers(-1000, 1000)
).map(lambda t: [t[1] + sum(sorted(t[0])[:j]) for j in range(len(t[0]) + 1)])


def reference_bisect_convex_argmin(h, k):
    """``convex_argmin`` as it was before its loop: ``functools.cache`` and ``bisect_left`` with a key."""
    h = cache(h)

    def rises(i):
        n0, d0 = h(i)
        n1, d1 = h(i + 1)
        return n1 * d0 >= n0 * d1

    j = bisect_left(range(k), True, key=rises)
    return Fraction(*h(j)), j


# convex integer sequences with long plateaus (many zero steps), each value
# written num/den over its own denominator 1..4, not in lowest terms
plateau_values_st = st.tuples(st.lists(st.integers(-3, 3), max_size=60), st.integers(-20, 20)).map(
    lambda t: [t[1] + sum(sorted(t[0])[:j]) for j in range(len(t[0]) + 1)]
)
plateau_pairs_st = plateau_values_st.flatmap(
    lambda vs: st.lists(st.integers(1, 4), min_size=len(vs), max_size=len(vs)).map(
        lambda ms: [(v * m, m) for v, m in zip(vs, ms)]
    )
)


class TestConvexArgmin:
    @given(plateau_pairs_st)
    @settings(max_examples=400)
    def test_loop_matches_the_bisect_reference(self, pairs):
        expected = reference_bisect_convex_argmin(lambda j: pairs[j], len(pairs) - 1)
        assert convex_argmin(lambda j: pairs[j], len(pairs) - 1) == expected == scan_argmin([F(*p) for p in pairs])

    @given(convex_sequences_st)
    @settings(max_examples=300)
    def test_matches_scan_on_convex_sequences(self, values):
        assert convex_argmin(lambda j: (values[j], 1), len(values) - 1) == scan_argmin(values)

    def test_constant_sequence_picks_zero(self):
        assert convex_argmin(lambda j: (7, 3), 9) == (F(7, 3), 0)

    @pytest.mark.parametrize(
        "pairs, expected",
        [
            ([(3, 1), (1, 2), (2, 4), (5, 1)], (F(1, 2), 1)),
            ([(1, 2), (2, 4), (9, 1)], (F(1, 2), 0)),
            ([(9, 1), (4, 8), (3, 6), (1, 1)], (F(1, 2), 1)),
        ],
    )
    def test_ties_across_unequal_denominators_go_to_the_smaller_index(self, pairs, expected):
        assert convex_argmin(lambda j: pairs[j], len(pairs) - 1) == expected

    def test_each_value_computed_once(self):
        calls = []

        def h(j):
            calls.append(j)
            return (j - 600) ** 2, 1

        assert convex_argmin(h, 10**6) == (0, 600)
        assert len(calls) == len(set(calls)) <= 2 * 21

    @given(ellipsoids_st, st.integers(1, 60))
    @settings(max_examples=200)
    def test_norm_argmin_matches_reference_scan(self, e, k):
        value, argmin = ellipsoid_norm_argmin(k, e)
        assert (value.coeff, argmin.v1) == reference_norm_argmin(k, e)

    @given(st.builds(Polydisk, radii_st, radii_st), st.integers(1, 60))
    def test_rectangle_norm_matches_reference_scan(self, p, k):
        a2, b2 = p.a**2, p.b**2
        values = [v1 * a2 + (k - v1) * b2 for v1 in range(k + 1)]
        L = math.lcm(a2.denominator, b2.denominator)
        A, B = int(a2 * L), int(b2 * L)
        assert convex_argmin(lambda v1: (v1 * A + (k - v1) * B, L), k) == scan_argmin(values)

    @given(ellipsoids_st, st.integers(1, 10**6))
    @settings(max_examples=200)
    def test_kth_merged_multiple_matches_reference_search(self, e, k):
        expected = reference_kth_merged_multiple(k, e.a * e.a, e.b * e.b)
        assert ellipsoid_capacity(k, e).coeff == expected

    @pytest.mark.parametrize("k", [1, 3, 5, 99, 10**6 + 1])
    def test_ball_tie_breaks_to_smallest_v1(self, k):
        # max(v1, k - v1) is smallest at v1 = (k-1)/2 and (k+1)/2 for odd k
        value, argmin = ellipsoid_norm_argmin(k, Ellipsoid(1, 1))
        assert (value.coeff, argmin.v1, argmin.v2) == ((k + 1) // 2, (k - 1) // 2, (k + 1) // 2)

    def test_large_k_matches_capacity(self):
        k = 10**6
        e = Ellipsoid(F(3, 2), 1)
        value, argmin = ellipsoid_norm_argmin(k, e)
        assert value == ellipsoid_capacity(k, e)
        assert value.coeff == max(argmin.v1 * e.a**2, argmin.v2 * e.b**2)
        assert max((argmin.v1 - 1) * e.a**2, (argmin.v2 + 1) * e.b**2) > value.coeff


class TestPolydiskCapacity:
    def test_unit_polydisk(self):
        assert polydisk_capacity(5, Polydisk(1, 1)).coeff == 5

    def test_min_square(self):
        assert polydisk_capacity(1, Polydisk(2, 3)).coeff == 4
        assert polydisk_capacity(3, Polydisk(1, 2)).coeff == 3

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            polydisk_capacity(0, Polydisk(1, 1))

    @given(st.builds(Polydisk, radii_st, radii_st), st.integers(1, 40))
    def test_rectangle_norm_minimum(self, p, k):
        # independent route: minimize v1 a^2 + v2 b^2 over the splittings
        a2, b2 = p.a**2, p.b**2
        brute = min(v1 * a2 + (k - v1) * b2 for v1 in range(k + 1))
        assert polydisk_capacity(k, p).coeff == brute

    @given(st.builds(Polydisk, radii_st, radii_st), st.integers(1, 40))
    def test_factor_symmetry(self, p, k):
        assert polydisk_capacity(k, p) == polydisk_capacity(k, Polydisk(p.b, p.a))


def ellipsoid_product_capacity(k: int, e1: Ellipsoid, e2: Ellipsoid) -> PiRational:
    """Capacity of the 8-dimensional product E1 x E2 via min over splittings.

    c_k(X x Y) = min over i + j = k of c_i(X) + c_j(Y), with c_0 = 0: an
    independent check of the stabilization shortcut.  The DomainSpec
    grammar deliberately does not expose general products, so this
    reference lives with its one test.
    """
    _require_positive_k(k)
    best = None
    for i in range(k + 1):
        ci = ellipsoid_capacity(i, e1).coeff if i else Fraction(0)
        cj = ellipsoid_capacity(k - i, e2).coeff if k - i else Fraction(0)
        total = ci + cj
        if best is None or total < best:
            best = total
    return PiRational(best)


class TestProductWithBall:
    def test_even_summand_stabilized(self):
        assert product_with_ball_capacity(2, Ellipsoid(F(3, 2), 1), 2, F(10)).coeff == 2

    def test_big_ball_keeps_c1(self):
        assert product_with_ball_capacity(1, Ellipsoid(1, 1), 4, F(2)).coeff == 1

    def test_sum_inner_domain(self):
        dom = odd_family(3)
        assert product_with_ball_capacity(3, dom, 2, F(10)).coeff == F(50, 9)

    def test_small_ball_refused(self):
        with pytest.raises(StabilizationError):
            product_with_ball_capacity(1, Ellipsoid(1, 1), 2, F(1))

    def test_nested_product_refused(self):
        with pytest.raises(ValueError, match="cannot nest another product"):
            product_with_ball_capacity(2, ProductWithBall(Ellipsoid(1, 1), 2, 10), 2, 20)

    @pytest.mark.parametrize(
        "m, R, message",
        [(0, 20, "ball dimension m must be >= 1, got 0"), (2, -1, "R must be a positive rational, got -1")],
    )
    def test_invalid_ball_refused(self, m, R, message):
        with pytest.raises(ValueError) as exc:
            product_with_ball_capacity(2, Ellipsoid(1, 1), m, R)
        assert str(exc.value) == message

    def test_boundary_radius_refused(self):
        # R^2 = c_k/pi exactly is still too small
        with pytest.raises(StabilizationError):
            product_with_ball_capacity(2, Ellipsoid(1, 1), 2, F(1))

    def test_min_split_oracle_agrees(self, rng):
        # against the 8-dimensional product formula with an exact ball factor
        for _ in range(15):
            e = random_ellipsoid(rng, max_height=6)
            for k in [1, 2, 5, 9]:
                ck = ellipsoid_capacity(k, e).coeff
                big = F(50)
                assert big * big > ck
                ball = Ellipsoid(big, big)
                assert ellipsoid_product_capacity(k, e, ball) == product_with_ball_capacity(k, e, 4, big)


class TestDispatchAndScaling:
    def test_dispatch_matches_direct(self):
        assert capacity(1, Ellipsoid(1, 1)).coeff == 1
        assert capacity(4, Polydisk(1, 1)).coeff == 4
        assert capacity(2, parse_domain("sum(E(3/2,1),E(1,3/2))")).coeff == F(13, 2)
        assert capacity(2, parse_domain("prod(E(3/2,1),2,10)")).coeff == 2

    @given(pair_operands_st, st.integers(1, 60))
    def test_capacity_of_a_pair_is_its_sum_capacity(self, operands, k):
        pair = EllipsoidPair.normalized(*operands)
        assert capacity(k, pair) == sum_capacity(k, pair)

    def test_capacity_of_a_proportional_pair(self):
        pair = EllipsoidPair.normalized(Ellipsoid(2, 4), Ellipsoid(1, 2))
        assert pair.proportional
        for k in (1, 2, 5, 40, 10**6):
            assert capacity(k, pair) == sum_capacity(k, pair) == ellipsoid_capacity(k, Ellipsoid(3, 6))

    def test_scale_examples(self):
        assert scale_domain(F(2), Ellipsoid(1, 1)) == Ellipsoid(2, 2)
        assert scale_domain(F(1, 2), Polydisk(2, 4)) == Polydisk(1, 2)
        dom = parse_domain("prod(E(1,1),2,10)")
        scaled = scale_domain(F(3), dom)
        assert scaled.R == 30 and scaled.inner == Ellipsoid(3, 3)

    def test_scale_identity(self):
        for text in ["E(3/2,1)", "P(1,2)", "sum(E(1,1),E(2/3,1))", "prod(P(1,1),2,7)"]:
            dom = parse_domain(text)
            assert scale_domain(F(1), dom) == dom

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale_domain(F(0), Ellipsoid(1, 1))

    @given(st.integers(1, 30))
    def test_sum_conformality_via_dispatch(self, k):
        dom = parse_domain("sum(E(1,1),E(2/3,1))")
        lam = F(7, 5)
        assert capacity(k, scale_domain(lam, dom)).coeff == lam * lam * capacity(k, dom).coeff


class TestDomainGrammar:
    @pytest.mark.parametrize(
        "text",
        [
            "E(3/2,1)",
            "P(1,1)",
            "sum(E(3/2,1),E(1,3/2))",
            "prod(E(1,1),2,10)",
            "prod(sum(E(1,1),E(2/3,1)),4,35/2)",
        ],
    )
    def test_round_trip(self, text):
        dom = parse_domain(text)
        assert parse_domain(format_domain(dom)) == dom

    def test_whitespace_tolerated(self):
        assert parse_domain(" E( 3/2 , 1 ) ") == Ellipsoid(F(3, 2), 1)

    def test_error_carries_position(self):
        with pytest.raises(DomainParseError) as exc:
            parse_domain("E(3/2;1)")
        assert "position" in str(exc.value)
        assert ";" in str(exc.value)

    def test_unknown_kind_named(self):
        with pytest.raises(DomainParseError) as exc:
            parse_domain("Q(1,1)")
        assert "Q" in str(exc.value)

    def test_trailing_garbage(self):
        with pytest.raises(DomainParseError):
            parse_domain("E(1,1)x")

    def test_sum_requires_ellipsoids(self):
        with pytest.raises(DomainParseError):
            parse_domain("sum(P(1,1),E(1,1))")

    def test_nested_prod_rejected(self):
        with pytest.raises(DomainParseError):
            parse_domain("prod(prod(E(1,1),2,5),2,5)")

    def test_bad_rational_token(self):
        with pytest.raises(DomainParseError) as exc:
            parse_domain("E(3//2,1)")
        assert "3//2" in str(exc.value)


_LONG_TAIL = "E(1,1)" + "x" * 10**6
_LONG_TOKEN = "E(" + "1" * 10**6 + ",1)"

# Each literal with the domain it parses to, or the exact type and message
# of the error it raises.  ValueError rows lex and parse but name a value
# that a domain refuses.
PARSE_TABLE = [
    ("E(3/2,1)", Ellipsoid(F(3, 2), 1)),
    (" E( 3/2 , 1 ) ", Ellipsoid(F(3, 2), 1)),
    ("\tP(1,\n2)\n", Polydisk(1, 2)),
    ("\x1cE(1,\u00a01)\u3000", Ellipsoid(1, 1)),  # str.isspace whitespace beyond ASCII
    ("\u200bE(1,1)", (DomainParseError, "expected a domain name, found '\\u200b' at position 0 in '\\u200bE(1,1)'")),
    ("E(6/4,2/2)", Ellipsoid(F(3, 2), 1)),
    ("e(1,1)", Ellipsoid(1, 1)),
    ("E(007,010)", Ellipsoid(7, 10)),
    ("P(٣,1)", Polydisk(3, 1)),  # ARABIC-INDIC DIGIT THREE is a decimal digit
    ("sum(E(1,1),E(2/3,1))", EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(F(2, 3), 1))),
    ("SUM( e(1,3/2) , E(3/2,1) )", EllipsoidPair.normalized(Ellipsoid(1, F(3, 2)), Ellipsoid(F(3, 2), 1))),
    ("prod(E(1,1),2,10)", ProductWithBall(Ellipsoid(1, 1), 2, 10)),
    (
        "prod(sum(E(1,1),E(2/3,1)),4,35/2)",
        ProductWithBall(EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(F(2, 3), 1)), 4, F(35, 2)),
    ),
    ("prod(P(1,1), 2 , 20/2)", ProductWithBall(Polydisk(1, 1), 2, 10)),
    ("E(-1,1)", (ValueError, "a must be a positive rational, got -1")),
    ("P(1,-3/6)", (ValueError, "b must be a positive rational, got -1/2")),
    ("E(0,1)", (ValueError, "a must be a positive rational, got 0")),
    ("prod(E(1,1),-2,10)", (ValueError, "ball dimension m must be >= 1, got -2")),
    ("prod(E(1,1),2,-10)", (ValueError, "R must be a positive rational, got -10")),
    # '²' and '①' are str.isdigit but not decimal: they stay inside the token
    ("E(²,1)", (DomainParseError, "bad rational token '²' at position 2 in 'E(²,1)'")),
    ("E(1²,1)", (DomainParseError, "bad rational token '1²' at position 2 in 'E(1²,1)'")),
    ("E(①,1)", (DomainParseError, "bad rational token '①' at position 2 in 'E(①,1)'")),
    ("E(½,1)", (DomainParseError, "expected a rational, found '½' at position 2 in 'E(½,1)'")),
    ("E(1/0,1)", (DomainParseError, "bad rational token '1/0' at position 2 in 'E(1/0,1)'")),
    ("E(--1,1)", (DomainParseError, "bad rational token '--1' at position 2 in 'E(--1,1)'")),
    ("E(1/2/3,1)", (DomainParseError, "bad rational token '1/2/3' at position 2 in 'E(1/2/3,1)'")),
    ("E(3//2,1)", (DomainParseError, "bad rational token '3//2' at position 2 in 'E(3//2,1)'")),
    ("E(1,-)", (DomainParseError, "bad rational token '-' at position 4 in 'E(1,-)'")),
    ("E(1 / 2,1)", (DomainParseError, "expected ',', found '/' at position 4 in 'E(1 / 2,1)'")),
    ("E(,1)", (DomainParseError, "expected a rational, found ',' at position 2 in 'E(,1)'")),
    ("E(3/2;1)", (DomainParseError, "expected ',', found ';' at position 5 in 'E(3/2;1)'")),
    ("E(1,1", (DomainParseError, "expected ')', found 'end of input' at position 5 in 'E(1,1'")),
    ("E(1,1)x", (DomainParseError, "unexpected trailing input 'x' at position 6 in 'E(1,1)x'")),
    ("E(1,1))", (DomainParseError, "unexpected trailing input ')' at position 6 in 'E(1,1))'")),
    ("", (DomainParseError, "expected a domain name, found 'end of input' at position 0 in ''")),
    ("Q(1,1)", (DomainParseError, "unknown domain kind 'Q' at position 0 in 'Q(1,1)'")),
    (
        "sum(P(1,1),E(1,1))",
        (DomainParseError, "sum(...) takes two ellipsoids at position 0 in 'sum(P(1,1),E(1,1))'"),
    ),
    (
        "sum(E(1,1),P(1,1))",
        (DomainParseError, "sum(...) takes two ellipsoids at position 0 in 'sum(E(1,1),P(1,1))'"),
    ),
    (
        "prod(prod(E(1,1),1,2),1,2)",
        (DomainParseError, "prod(...) cannot nest another prod at position 0 in 'prod(prod(E(1,1),1,2),1,2)'"),
    ),
    (
        "prod(E(1,1),3/2,10)",
        (DomainParseError, "expected an integer, found '3/2' at position 15 in 'prod(E(1,1),3/2,10)'"),
    ),
    (
        "sum(" * 5000,
        (DomainParseError, f"sum(...) takes two ellipsoids at position 0 in {'sum(' * 10!r}..."),
    ),
    (
        _LONG_TAIL,
        (DomainParseError, f"unexpected trailing input {'x' * 40!r}... at position 6 in {_LONG_TAIL[:46]!r}..."),
    ),
    (
        _LONG_TOKEN,
        (DomainParseError, f"bad rational token {'1' * 40!r}... at position 2 in {_LONG_TOKEN[:42]!r}..."),
    ),
]


def _outcome(parse, text):
    """The domain parse returns, or the type and message of what it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


# text drawn from the grammar's words and characters, digits that are no
# decimal digits ('²'), numbers that are no digits ('½') and other letters
literal_text_st = st.lists(
    st.one_of(
        st.sampled_from(["E", "P", "e", "p", "sum", "prod", "SUM", "(", ")", ",", "/", "-", " ", "\t", "²", "½"]),
        st.sampled_from("0123456789"),
        st.characters(categories=["Lu", "Ll", "Lo", "No", "Nd"]),
        st.sampled_from(["E(", "3/2", "E(1,1)", "E(3/2, 1)", "P(2,1/3)", "1/0"]),
    ),
    max_size=16,
).map("".join)


class TestParseTable:
    @pytest.mark.parametrize("text, expected", PARSE_TABLE, ids=[repr(t[:24]) for t, _ in PARSE_TABLE])
    def test_literal(self, text, expected):
        if not isinstance(expected, tuple):
            assert parse_domain(text) == expected
            return
        kind, message = expected
        with pytest.raises(ValueError) as exc:
            parse_domain(text)
        assert (type(exc.value), str(exc.value)) == (kind, message)

    @given(literal_text_st)
    @settings(max_examples=1500)
    def test_matches_the_reference_scanner(self, text):
        assert _outcome(parse_domain, text) == _outcome(reference_parse_domain, text)

    @given(pair_operands_st)
    def test_sum_round_trip(self, operands):
        pair = EllipsoidPair.normalized(*operands)
        assert parse_domain(format_domain(pair)) == pair
        assert parse_domain(f"prod({format_domain(pair)},2,7)") == ProductWithBall(pair, 2, 7)

    @pytest.mark.parametrize("k", [2, 4, 100, 10**6])
    def test_even_family_round_trip(self, k):
        assert format_domain(even_family(k)) == f"sum(E({k + 1}/{k},1),E(1,{k + 1}/{k}))"
        assert parse_domain(format_domain(even_family(k))) == even_family(k)

    def test_sum_keeps_the_swap(self):
        dom = parse_domain("SUM( e(1,3/2) , E(3/2,1) )")
        assert dom.first == Ellipsoid(F(3, 2), 1)
