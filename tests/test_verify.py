from dataclasses import replace
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
    bm_check,
    capacity,
    cross_check,
    even_family,
    expected_family_coeff,
    odd_family,
    support_norm,
    verify,
    verify_certificate,
)
from capacity_lab import bm, minkowski
from capacity_lab._kernels import _critical, _s_over_pi
from capacity_lab.bm import cmp_sqrt_combination
from capacity_lab.exact import Ordering
from capacity_lab.verify import _cmp_root_sum
from conftest import nonprop_pairs_st, random_nonprop_pair

F = Fraction

EVEN2 = even_family(2)
ODD3 = odd_family(3)


nonnegative_st = st.fractions(min_value=0, max_value=50, max_denominator=30)


class TestRootSumComparison:
    """``verify._cmp_root_sum``, the verifier's comparison, against the engine's ``cmp_sqrt_combination``."""

    @given(nonnegative_st, nonnegative_st, nonnegative_st)
    @settings(max_examples=500)
    def test_matches_the_engine(self, s, t, u):
        assert _cmp_root_sum(s, t, u) is cmp_sqrt_combination(s, t, u)

    @given(nonnegative_st, st.integers(0, 12), st.integers(0, 12), st.sampled_from([-1, 0, 1]))
    @settings(max_examples=300)
    def test_matches_the_engine_at_and_next_to_equality(self, r, i, j, step):
        # sqrt(s) = sqrt(t) + sqrt(u) exactly for t = i^2 r, u = j^2 r, s = (i + j)^2 r
        s, t, u = (i + j) ** 2 * r + F(step, 10**9), i * i * r, j * j * r
        if s >= 0:
            assert _cmp_root_sum(s, t, u) is cmp_sqrt_combination(s, t, u)
        if step == 0:
            assert _cmp_root_sum(s, t, u) is Ordering.EQUAL

    @pytest.mark.parametrize(
        "s, t, u, expected",
        [
            (F(1), F(4), F(0), Ordering.LESS),  # s < t
            (F(4), F(1), F(9), Ordering.LESS),  # e = s + t - u < 0
            (F(9), F(1), F(4), Ordering.EQUAL),  # 3 = 1 + 2
            (F(2), F(0), F(2), Ordering.EQUAL),  # e = 0 with t = 0
            (F(2), F(1), F(1), Ordering.LESS),  # e = 2, e^2 < 4st
            (F(13, 2), F(2), F(2), Ordering.LESS),  # the even family at k = 2
            (F(10), F(1), F(4), Ordering.GREATER),
        ],
    )
    def test_branches(self, s, t, u, expected):
        assert _cmp_root_sum(s, t, u) is expected


def reference_s_max(pair: EllipsoidPair):
    """(v1, v2) -> |(v1, v2)|* / pi as the largest of S at c/a, at d/b and at an interior
    maximum N/D, each evaluated in Fractions.

    The Fraction form that the integer-pair ``verify._s_max`` replaced, kept as its reference.
    """
    a, b, c, d = radii = pair.radii
    S = _s_over_pi(*radii)
    lo, hi = c / a, d / b

    def norm(v1: int, v2: int) -> F:
        D, N = _critical(v1, v2, *radii)
        candidates = [lo, hi]
        if D < 0 and lo < N / D < hi:
            candidates.append(N / D)
        return max(S(v1, v2, f) for f in candidates)

    return norm


def endpoint_critical_points():
    """(pair, k, v1) with D < 0 and N/D exactly c/a or d/b, over small radii."""
    radii = sorted({F(p, q) for p in range(1, 4) for q in range(1, 4)})
    found = {"c/a": [], "d/b": []}
    for a, b, c, d in ((a, b, c, d) for a in radii for b in radii for c in radii for d in radii):
        pair = EllipsoidPair.normalized(Ellipsoid(a, b), Ellipsoid(c, d))
        if pair.proportional:
            continue
        a, b, c, d = pair.radii
        for k in range(1, 7):
            for v1 in range(k + 1):
                D, N = _critical(v1, k - v1, a, b, c, d)
                if D < 0 and N / D in (c / a, d / b):
                    found["c/a" if N / D == c / a else "d/b"].append((pair, k, v1))
    return found


class TestIntegerSMax:
    @settings(max_examples=200, deadline=None)
    @given(pair=nonprop_pairs_st, k=st.integers(1, 300), data=st.data())
    def test_matches_the_fraction_reference(self, pair, k, data):
        h, want = verify._s_max(pair), reference_s_max(pair)
        for v1 in (0, k, data.draw(st.integers(0, k))):
            num, den = h(v1, k - v1)
            assert den > 0
            assert F(num, den) == want(v1, k - v1), (pair.radii, k, v1)

    def test_critical_point_on_an_endpoint(self):
        found = endpoint_critical_points()
        assert found["c/a"] and found["d/b"]
        for cases in found.values():
            for pair, k, v1 in cases:
                assert F(*verify._s_max(pair)(v1, k - v1)) == reference_s_max(pair)(v1, k - v1)


class TestCrossCheck:
    """``verify.cross_check``: exact and forged values on each kind of domain, its witness paths and
    the engine faults it catches; its other tests are in test_oracle.py."""

    DOMAINS = [
        Ellipsoid(F(3, 2), 1),
        Polydisk(2, 3),
        EVEN2,
        ODD3,
        EllipsoidPair.normalized(Ellipsoid(1, 2), Ellipsoid(2, 4)),
        ProductWithBall(Ellipsoid(1, 1), 2, 10),
    ]

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_accepts_exact_values(self, domain):
        for k in (1, 2, 3, 7, 40):
            cross_check(k, domain, capacity(k, domain))

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_rejects_forged_value(self, domain):
        forged = PiRational(capacity(5, domain).coeff + F(1, 1000))
        with pytest.raises(ValueError):
            cross_check(5, domain, forged)

    def test_witness_less_sums_run_no_engine(self, monkeypatch):
        # the verifier finds v1 with its own norms, so an engine that fails on every call goes unnoticed
        cases = [(k, even_family(k)) for k in (2, 4000, 10**6)] + [(3, ODD3), (7, odd_family(7))]
        cases += [(5, EllipsoidPair.normalized(Ellipsoid(F(1, 3), F(1, 4)), Ellipsoid(F(1, 4), F(1, 3))))]
        certs = [bm_check(k, pair) for k, pair in cases]
        values = [capacity(k, pair) for k, pair in cases]

        def engine(*args):
            pytest.fail("the verifier ran the engine")

        monkeypatch.setattr(minkowski, "sum_capacity_with_argmin", engine)
        monkeypatch.setattr(minkowski, "_norm_coeff", engine)
        monkeypatch.setattr(bm, "bm_check", engine)
        for (k, pair), value, cert in zip(cases, values, certs):
            cross_check(k, pair, value)
            with pytest.raises(ValueError, match=f"norm at the argmin v1 = {cert.witness.v1} is"):
                cross_check(k, pair, PiRational(value.coeff + F(1, 10**9)))
            assert verify_certificate(replace(cert, witness=None)) is True

    def test_witness_less_argmin_is_the_engines(self, rng):
        # a forged value names the verifier's own v1, which must be the engine's smallest minimizer
        for _ in range(40):
            pair = random_nonprop_pair(rng)
            k = rng.choice([rng.randint(1, 60), rng.randint(1, 10**6)])
            value, argmin = minkowski.sum_capacity_with_argmin(k, pair)
            with pytest.raises(ValueError, match=f"norm at the argmin v1 = {argmin.v1} is"):
                cross_check(k, pair, PiRational(value.coeff * 2))

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_rejects_a_shifted_witness(self, shift):
        k, pair = 4000, even_family(4000)
        value, argmin = minkowski.sum_capacity_with_argmin(k, pair)
        cross_check(k, pair, value, argmin)
        shifted = IndexVector(argmin.v1 + shift, argmin.v2 - shift)
        with pytest.raises(ValueError):
            cross_check(k, pair, value, shifted)
        # nor does the witness's own norm pass: it is not the minimum
        with pytest.raises(ValueError, match="minimizer|local minimum"):
            cross_check(k, pair, support_norm(shifted, pair), shifted)

    @pytest.mark.parametrize("k", [5, 7])
    def test_rejects_the_larger_of_tied_minimizers(self, k):
        # at odd k this symmetric pair ties h((k-1)/2) = h((k+1)/2); the argmin is the smaller index
        pair = EllipsoidPair.normalized(Ellipsoid(F(1, 3), F(1, 4)), Ellipsoid(F(1, 4), F(1, 3)))
        value, argmin = minkowski.sum_capacity_with_argmin(k, pair)
        later = IndexVector(argmin.v1 + 1, argmin.v2 - 1)
        assert argmin.v1 == (k - 1) // 2 and support_norm(later, pair) == value
        cross_check(k, pair, value, argmin)
        with pytest.raises(ValueError, match="smallest minimizer"):
            cross_check(k, pair, value, later)

    def test_witness_never_runs_the_engine(self, monkeypatch):
        k, pair = 10**6, even_family(10**6)
        value, argmin = minkowski.sum_capacity_with_argmin(k, pair)
        monkeypatch.setattr(minkowski, "sum_capacity_with_argmin", lambda *args: pytest.fail("engine ran"))
        cross_check(k, pair, value, argmin)

    def test_witness_must_sum_to_k(self):
        value, argmin = minkowski.sum_capacity_with_argmin(4, EVEN2)
        with pytest.raises(ValueError, match="does not sum to k"):
            cross_check(5, EVEN2, value, argmin)

    @pytest.mark.parametrize(
        "domain",
        [Ellipsoid(F(3, 2), 1), Polydisk(2, 3), EllipsoidPair.normalized(Ellipsoid(1, 2), Ellipsoid(2, 4))],
    )
    def test_witness_only_on_a_nonproportional_sum(self, domain):
        with pytest.raises(ValueError, match="no argmin to witness"):
            cross_check(3, domain, capacity(3, domain), IndexVector(1, 2))

    def test_accepts_random_sums(self, rng):
        for _ in range(10):
            domain = random_nonprop_pair(rng)
            k = rng.randint(1, 60)
            cross_check(k, domain, capacity(k, domain))

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_rejects_a_shifted_argmin(self, monkeypatch, shift):
        # v1 = 2000 is the unique minimizer at k = 4000 for this pair; an engine
        # that names a shifted v1 and its norm does not fool the verifier
        k, pair = 4000, even_family(4000)
        v1 = 2000 + shift
        norm = support_norm(IndexVector(v1, k - v1), pair)
        monkeypatch.setattr(minkowski, "sum_capacity_with_argmin", lambda k, pair: (norm, IndexVector(v1, k - v1)))
        with pytest.raises(ValueError, match="norm at the argmin v1 = 2000 is"):
            cross_check(k, pair, norm)

    @pytest.mark.parametrize("k", [2, 40, 4000])
    def test_rejects_a_wrong_branch_norm(self, monkeypatch, k):
        # a _norm_coeff that always takes the corner branch; the even-family
        # argmin v1 = k/2 is interior, so the engine's value comes out wrong
        def corner_only(k, pair):
            a, b, c, d = pair.radii

            def h(v1):
                corner = max(v1 * (a + c) ** 2, (k - v1) * (b + d) ** 2)
                return corner.numerator, corner.denominator

            return h

        domain = even_family(k)
        monkeypatch.setattr(minkowski, "_norm_coeff", corner_only)
        forged = capacity(k, domain)
        assert forged.coeff != expected_family_coeff(k)
        with pytest.raises(ValueError):
            cross_check(k, domain, forged)

    def test_unsupported_domain(self):
        with pytest.raises(TypeError):
            cross_check(2, "E(1,1)", PiRational(1))
