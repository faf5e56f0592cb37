"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Exact criteria use zero tolerance; numeric criteria
pin the tolerances stated below.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from capacity_lab import (
    Ellipsoid,
    EllipsoidSum,
    IndexVector,
    OracleConfig,
    Polydisk,
    Verdict,
    bm_check,
    capacity,
    convexity_check,
    ellipsoid_capacity,
    even_family,
    expected_family_coeff,
    mean_width,
    mean_width_estimate,
    odd_family,
    product_with_ball_capacity,
    ostrover_criterion,
    s_derivative_signcheck,
    scale_domain,
    sum_capacity,
    support_norm,
    support_norm_numeric,
)
from conftest import random_nonprop_pair, random_pair

F = Fraction


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description} ({time.perf_counter() - start:.2f}s)")


def test_criterion_01_even_family_exact_and_violating():
    with criterion(1, "even k in 2..200: c_sum = pi(2k+2+1/k) exactly, verdict Violates, < 2 s"):
        start = time.perf_counter()
        for k in range(2, 201, 2):
            pair = even_family(k)
            got = sum_capacity(k, pair).coeff
            assert got == 2 * k + 2 + F(1, k), f"k={k}: {got}"
            assert got == expected_family_coeff(k)
            assert bm_check(k, pair).verdict is Verdict.VIOLATES, f"k={k}"
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"even-family sweep took {elapsed:.2f}s"


def test_criterion_02_odd_family_exact_and_violating():
    with criterion(2, "odd k in 3..199: c_sum = pi((k+1)/2)(2-1/k)^2 exactly, verdict Violates, < 2 s"):
        start = time.perf_counter()
        for k in range(3, 200, 2):
            pair = odd_family(k)
            got = sum_capacity(k, pair).coeff
            assert got == F(k + 1, 2) * (2 - F(1, k)) ** 2, f"k={k}: {got}"
            assert got == expected_family_coeff(k)
            assert bm_check(k, pair).verdict is Verdict.VIOLATES, f"k={k}"
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"odd-family sweep took {elapsed:.2f}s"


def test_criterion_03_spot_exact_values():
    with criterion(3, "spot values: c2(E(3/2,1))=2pi, c2(sum)=13pi/2, c3(E(2/3,1))=pi, c3(sum)=50pi/9"):
        assert ellipsoid_capacity(2, Ellipsoid(F(3, 2), 1)).coeff == 2
        assert sum_capacity(2, even_family(2)).coeff == F(13, 2)
        assert ellipsoid_capacity(3, Ellipsoid(F(2, 3), 1)).coeff == 1
        assert sum_capacity(3, odd_family(3)).coeff == F(50, 9)


def test_criterion_04_oracle_agreement():
    with criterion(4, "100 random pairs, all v with v1+v2 <= 12: |exact - numeric|/exact <= 1e-9, < 30 s"):
        start = time.perf_counter()
        rng = random.Random(424242)
        cfg = OracleConfig(grid=4096, refine_iters=80)
        pairs = [random_nonprop_pair(rng, max_height=20) for _ in range(100)]
        checked = 0
        for pair in pairs:
            for k in range(1, 13):
                for v1 in range(k + 1):
                    v = IndexVector(v1, k - v1)
                    exact = float(support_norm(v, pair))
                    numeric = support_norm_numeric(v, pair, cfg)
                    assert abs(exact - numeric) / exact <= 1e-9, (pair.radii, (v1, k - v1))
                    checked += 1
        elapsed = time.perf_counter() - start
        assert checked == 100 * 90
        assert elapsed < 30.0, f"oracle sweep took {elapsed:.2f}s"


def test_criterion_05_gradient_check_1000_triples():
    with criterion(5, "finite-difference S' matches closed form within max(1e-6, 1e-6|S'|), 1000 triples"):
        rng = random.Random(5150)
        cfg = OracleConfig(grid=64)
        triples = 0
        while triples < 1000:
            pair = random_nonprop_pair(rng, max_height=20)
            k = rng.randint(1, 12)
            v1 = rng.randint(0, k)
            report = s_derivative_signcheck(IndexVector(v1, k - v1), pair, cfg)
            assert report.ok, (pair.radii, (v1, k - v1), report)
            assert report.sign_mismatches == 0
            triples += report.points


def test_criterion_06_convexity_families_and_random():
    with criterion(6, "C' < 0 and C'' < 0 at 1000 grid points: families k in 2..50 plus 100 random pairs"):
        for k in range(2, 51):
            pair = even_family(k) if k % 2 == 0 else odd_family(k)
            report = convexity_check(pair, 1000)
            assert report.ok, f"family k={k}: {report}"
            assert report.worst_C1 < 0 and report.worst_C2 < 0
        rng = random.Random(660)
        for _ in range(100):
            pair = random_nonprop_pair(rng, max_height=20)
            report = convexity_check(pair, 1000)
            assert report.ok, f"{pair.radii}: {report}"


def test_criterion_07_monotone_containment_conformal():
    with criterion(7, "containment vs E(a+c,b+d), monotone in k, conformality exact for 4 scale factors"):
        rng = random.Random(777)
        test_pairs = [even_family(k) for k in range(2, 41, 2)]
        test_pairs += [odd_family(k) for k in range(3, 41, 2)]
        test_pairs += [random_pair(rng) for _ in range(30)]
        lambdas = [F(1, 3), F(1, 2), F(2), F(7, 5)]
        for pair in test_pairs:
            inner = pair.outer_ellipsoid
            previous = None
            for k in range(1, 21):
                c_sum = sum_capacity(k, pair)
                assert c_sum >= ellipsoid_capacity(k, inner), (pair.radii, k)
                if previous is not None:
                    assert c_sum >= previous, (pair.radii, k)
                previous = c_sum
        for pair in test_pairs[:12]:
            for k in (1, 3, 8, 17):
                base = sum_capacity(k, pair).coeff
                for lam in lambdas:
                    assert sum_capacity(k, pair.scaled(lam)).coeff == lam * lam * base
        # conformality through the generic dispatcher as well
        dom = EllipsoidSum(even_family(2))
        for lam in lambdas:
            assert capacity(5, scale_domain(lam, dom)).coeff == lam * lam * capacity(5, dom).coeff


def test_criterion_08_k1_brunn_minkowski_holds():
    with criterion(8, "k = 1: no violation on 200 random rational ellipsoid pairs"):
        rng = random.Random(888)
        for _ in range(200):
            pair = random_pair(rng, max_height=20)
            assert bm_check(1, pair).verdict is not Verdict.VIOLATES, pair.radii


def test_criterion_09_mean_width():
    with criterion(9, "M(P(1,1)) = 4/3 and M(E(1,1)) = 1 exactly; 10^6 seeded samples within 3 stderr, < 10 s"):
        assert mean_width(Polydisk(1, 1)) == F(4, 3)
        assert mean_width(Ellipsoid(1, 1)) == 1
        start = time.perf_counter()
        est = mean_width_estimate(Polydisk(1, 1), 1_000_000, seed=42)
        assert abs(est.mean - 4 / 3) <= 3 * est.stderr, est
        assert est.stderr < 2e-3, est
        ball = mean_width_estimate(Ellipsoid(1, 1), 1_000_000, seed=42)
        assert ball.mean == 1.0 and ball.stderr == 0.0, ball
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"mean-width run took {elapsed:.2f}s"


def test_criterion_10_ostrover_truth_table():
    with criterion(10, "criterion true exactly on even k and odd k in {9,...,19} within 1..20"):
        expected_true = {2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 9, 11, 13, 15, 17, 19}
        for k in range(1, 21):
            got = ostrover_criterion(k).violating
            assert got == (k in expected_true), f"k={k}"
        for k in (1, 3, 5, 7):
            assert not ostrover_criterion(k).violating


def test_criterion_11_product_stabilization():
    with criterion(11, "c_k(X x B(10)) = c_k(X) exactly for both families, k <= 20"):
        R = F(10)
        for k in range(2, 21):
            pair = even_family(k) if k % 2 == 0 else odd_family(k)
            dom = EllipsoidSum(pair)
            direct = sum_capacity(k, pair)
            assert product_with_ball_capacity(k, dom, 2, R) == direct
            assert product_with_ball_capacity(k, dom, 6, R) == direct
            for e in (pair.first, pair.second):
                assert product_with_ball_capacity(k, e, 2, R) == ellipsoid_capacity(k, e)
