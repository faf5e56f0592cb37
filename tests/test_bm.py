import json
import math
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capacity_lab import (
    BMCertificate,
    Ellipsoid,
    EllipsoidPair,
    IndexVector,
    MeanWidthEstimate,
    Ordering,
    PiRational,
    Polydisk,
    ReproductionError,
    Verdict,
    bm_check,
    capacity,
    cross_check,
    even_family,
    expected_family_coeff,
    mean_width,
    mean_width_estimate,
    odd_family,
    ostrover_criterion,
    parse_domain,
    reproduce_theorem,
    verify_certificate,
)
from capacity_lab import _kernels, bm, minkowski
from conftest import ellipsoids_st, pairs_st, radii_st

F = Fraction

# pi to 110 significant digits
PI_110 = Decimal("3.1415926535897932384626433832795028841971693993751058209749445923078164062862089986280348253421170679821480865")


def reference_margin(cert: BMCertificate) -> Decimal:
    """sqrt(pi c_sum) - sqrt(pi c_1) - sqrt(pi c_2) at 100 significant digits, far beyond any cancellation here."""
    with localcontext() as ctx:
        ctx.prec = 100
        s, t, u = (Decimal(v.coeff.numerator) / v.coeff.denominator for v in (cert.c_sum, cert.c_1, cert.c_2))
        return PI_110.sqrt() * (s.sqrt() - t.sqrt() - u.sqrt())


class TestFamilies:
    def test_even_instances(self):
        assert even_family(2).radii == (F(3, 2), 1, 1, F(3, 2))
        assert even_family(4).first == Ellipsoid(F(5, 4), 1)
        assert even_family(100).first == Ellipsoid(F(101, 100), 1)

    def test_odd_instances(self):
        assert odd_family(3).radii == (1, 1, F(2, 3), 1)
        assert odd_family(5).second == Ellipsoid(F(4, 5), 1)
        assert odd_family(199).second == Ellipsoid(F(198, 199), 1)

    def test_parity_enforced(self):
        with pytest.raises(ValueError):
            even_family(3)
        with pytest.raises(ValueError):
            even_family(0)
        with pytest.raises(ValueError):
            odd_family(4)
        with pytest.raises(ValueError):
            odd_family(1)

    def test_families_not_proportional(self):
        assert not even_family(2).proportional
        assert not odd_family(3).proportional


class TestBmCheck:
    def test_even_k2(self):
        cert = bm_check(2, even_family(2))
        assert cert.verdict is Verdict.VIOLATES
        assert cert.c_sum.coeff == F(13, 2)
        assert cert.c_1.coeff == 2 and cert.c_2.coeff == 2
        assert cert.margin() < 0

    def test_odd_k3(self):
        cert = bm_check(3, odd_family(3))
        assert cert.verdict is Verdict.VIOLATES
        assert cert.c_sum.coeff == F(50, 9)
        assert {cert.c_1.coeff, cert.c_2.coeff} == {2, 1}

    def test_proportional_equality(self):
        pair = EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(1, 1))
        cert = bm_check(1, pair)
        assert cert.verdict is Verdict.EQUALITY
        assert cert.comparison is Ordering.EQUAL
        assert cert.c_sum.coeff == 4
        assert cert.witness is None

    def test_equality_margin_is_zero(self):
        # float square roots of 18, 2 and 8 leave 8.9e-16
        assert bm_check(4, EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(2, 2))).margin() == 0.0
        radii = sorted({F(p, q) for p in range(1, 7) for q in range(1, 7)})
        for a in radii[::3]:
            for lam in (F(1, 3), F(1, 2), 1, 2, F(5, 2)):
                for k in range(1, 9):
                    e = Ellipsoid(a, 1)
                    cert = bm_check(k, EllipsoidPair.normalized(e, e.scaled(lam)))
                    assert cert.comparison is Ordering.EQUAL
                    assert cert.margin() == 0.0

    @given(pairs_st, st.integers(1, 15))
    @settings(max_examples=60, deadline=None)
    def test_verdict_matches_comparison(self, pair, k):
        cert = bm_check(k, pair)
        assert (cert.verdict is Verdict.VIOLATES) == (cert.comparison is Ordering.LESS)
        assert (cert.verdict is Verdict.EQUALITY) == (cert.comparison is Ordering.EQUAL)
        # the float margin always has the sign of the exact comparison
        assert (cert.margin() > 0) - (cert.margin() < 0) == cert.comparison

    @given(pairs_st, st.integers(1, 30), st.sampled_from([1, 250, 520, 700]))
    @settings(max_examples=60, deadline=None)
    def test_margin_scales_exactly_beyond_float_range(self, pair, k, m):
        # scaling both ellipsoids by 2^m multiplies each c_k by 4^m and the margin by 2^m
        # exactly; beyond m = 511 the coefficients themselves exceed float range
        cert, big = bm_check(k, pair), bm_check(k, pair.scaled(2**m))
        assert big.comparison is cert.comparison
        assert big.margin() == math.ldexp(cert.margin(), m)

    def test_margin_sign_where_the_float_difference_cancels(self):
        # sqrt(pi c) rounds to the same float for c_sum and c1 + c2 here; the plain
        # difference read -2.50662827463 for a pair that satisfies the inequality
        X = 10**155
        cert = bm_check(2, EllipsoidPair.normalized(Ellipsoid(X, X), Ellipsoid(1, 2)))
        assert cert.comparison is Ordering.GREATER and cert.verdict is Verdict.SATISFIES
        assert cert.margin() == pytest.approx(1.0382794271800316, rel=1e-15)

    @pytest.mark.parametrize("eps", [F(1, 10**30), F(-1, 10**30), F(1, 2**60), F(-1, 2**60)])
    def test_margin_sign_next_to_equality(self, eps):
        # sqrt(4 + eps) - 1 - 1 = eps/4 - ..., far below the rounding of sqrt(4 pi)
        cert = replace(bm_check(1, even_family(2)), c_sum=PiRational(4 + eps), c_1=PiRational(1), c_2=PiRational(1))
        cert = replace(cert, comparison=Ordering(1 if eps > 0 else -1))
        assert cert.margin() == pytest.approx(math.sqrt(math.pi) * float(eps) / 4, rel=1e-9, abs=0)

    def test_margin_beyond_float_range_raises(self):
        with pytest.raises(OverflowError):
            bm_check(2, even_family(2).scaled(2**1100)).margin()

    @pytest.mark.parametrize("k", [2, 3, 40, 999, 10**5, 10**6 - 1, 10**6])
    def test_family_margin_is_correctly_rounded(self, k):
        # a difference of three rounded square roots read -0.0012533125705 at k = 10^6,
        # against the correctly rounded -0.00125331257067
        cert = bm_check(k, even_family(k) if k % 2 == 0 else odd_family(k))
        assert cert.margin() == float(reference_margin(cert))

    @given(pairs_st, st.integers(1, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_margin_is_correctly_rounded(self, pair, k):
        cert = bm_check(k, pair)
        if cert.comparison is not Ordering.EQUAL:
            assert cert.margin() == float(reference_margin(cert))

    @given(pairs_st)
    @settings(max_examples=150, deadline=None)
    def test_k1_never_violates(self, pair):
        assert bm_check(1, pair).verdict is not Verdict.VIOLATES


class TestReproduce:
    def test_closed_forms(self):
        assert expected_family_coeff(2) == F(13, 2)
        assert expected_family_coeff(3) == F(50, 9)
        assert expected_family_coeff(4) == F(41, 4)

    def test_small_run(self):
        certs = list(reproduce_theorem(12))
        assert [c.k for c in certs] == list(range(2, 13))
        for cert in certs:
            assert cert.verdict is Verdict.VIOLATES
            assert cert.c_sum.coeff == expected_family_coeff(cert.k)

    def test_k_max_validated(self):
        # by the call itself, before any next()
        with pytest.raises(ValueError, match="^k_max must be >= 2, got 1$"):
            reproduce_theorem(1)

    def test_certificates_are_built_as_they_are_read(self, monkeypatch):
        built = []
        monkeypatch.setattr(bm, "bm_check", lambda k, pair: built.append(k) or bm_check(k, pair))
        certs = reproduce_theorem(10**6)
        assert iter(certs) is certs and built == []
        assert next(certs).k == 2 and next(certs).k == 3
        assert built == [2, 3]

    def test_a_failure_surfaces_at_its_k(self, monkeypatch):
        monkeypatch.setattr(bm, "expected_family_coeff", lambda k: expected_family_coeff(k) + (k == 4))
        certs = reproduce_theorem(5)
        assert [next(certs).k, next(certs).k] == [2, 3]
        with pytest.raises(ReproductionError, match="^k=4: computed c_sum = 41/4·π, closed form expects 45/4·π$"):
            next(certs)


class TestCertificates:
    def test_round_trip_exact(self):
        cert = bm_check(2, even_family(2))
        again = BMCertificate.from_dict(json.loads(json.dumps(cert.to_dict())))
        assert again == cert
        assert verify_certificate(again)

    def test_schema_fields(self):
        d = bm_check(3, odd_family(3)).to_dict()
        assert set(d) == {"k", "domain1", "domain2", "c_sum", "c1", "c2", "verdict", "comparison", "witness"}
        assert d["c_sum"] == {"num": 50, "den": 9}
        assert d["verdict"] == "Violates"
        assert d["witness"] == {"v1": 2, "v2": 1}
        assert bm_check(3, EllipsoidPair.normalized(Ellipsoid(1, 2), Ellipsoid(2, 4))).to_dict()["witness"] is None

    def test_k_zero_certificate_fails(self):
        zero = {"num": 0, "den": 1}
        d = {
            "k": 0,
            "domain1": "E(1,1)",
            "domain2": "E(2,2)",
            "c_sum": zero,
            "c1": zero,
            "c2": zero,
            "verdict": "Equality",
            "comparison": "EQUAL",
            "witness": None,
        }
        reasons = []
        assert verify_certificate(BMCertificate.from_dict(d), reasons) is False
        assert reasons == ["c_sum: capacity index k must be a positive integer, got 0"]

    def test_witness_is_the_argmin(self):
        for k in (2, 3, 40, 10**6):
            pair = even_family(k) if k % 2 == 0 else odd_family(k)
            cert = bm_check(k, pair)
            assert (cert.c_sum, cert.witness) == minkowski.sum_capacity_with_argmin(k, pair)

    @given(pairs_st, st.integers(1, 60))
    @settings(max_examples=80, deadline=None)
    def test_every_certificate_verifies_with_and_without_witness(self, pair, k):
        cert = bm_check(k, pair)
        assert verify_certificate(cert) is True
        assert verify_certificate(replace(cert, witness=None)) is True
        d = json.loads(json.dumps(cert.to_dict()))
        del d["witness"]
        assert BMCertificate.from_dict(d) == replace(cert, witness=None)
        assert verify_certificate(BMCertificate.from_dict(d)) is True

    def test_verifier_runs_no_engine(self, monkeypatch):
        certs = [bm_check(k, even_family(k)) for k in (2, 4000, 10**6)] + [bm_check(3, odd_family(3))]
        domains = [(k, parse_domain(text)) for k, text in [(7, "E(3/2,1)"), (7, "P(2,3)"), (5, "prod(E(1,1),2,10)")]]
        values = [capacity(k, domain) for k, domain in domains]

        def engine(*args):
            pytest.fail("the verifier ran the engine")

        monkeypatch.setattr(bm, "bm_check", engine)
        monkeypatch.setattr(bm, "sum_capacity_with_argmin", engine)
        monkeypatch.setattr(bm, "cmp_sqrt_combination", engine)
        for name in ("_norm_coeff", "sum_capacity_with_argmin", "capacity", "ellipsoid_capacity",
                     "_kth_merged_multiple"):
            monkeypatch.setattr(minkowski, name, engine)
        for cert in certs:
            assert verify_certificate(cert) is True
        for (k, domain), value in zip(domains, values):
            cross_check(k, domain, value)

    def test_patched_engine_is_caught(self, monkeypatch):
        # an engine that adds 1 to every norm keeps the argmin but writes c_sum = 45/4 instead of 41/4
        norm_coeff = minkowski._norm_coeff

        def plus_one(k, pair):
            h = norm_coeff(k, pair)
            return lambda v1: (h(v1)[0] + h(v1)[1], h(v1)[1])

        monkeypatch.setattr(minkowski, "_norm_coeff", plus_one)
        cert = bm_check(4, even_family(4))
        assert cert.c_sum.coeff == F(45, 4)
        again = BMCertificate.from_dict(json.loads(json.dumps(cert.to_dict())))
        for forged in (cert, again, replace(cert, witness=None)):
            reasons = []
            assert verify_certificate(forged, reasons) is False
            assert reasons[0].startswith("c_sum: norm at the argmin v1 = 2 is 41/4·π")

    def test_patched_engine_comparison_is_caught(self, monkeypatch):
        # the verifier decides the comparison with its own code, so a flipped engine comparison shows
        engine = bm.cmp_sqrt_combination

        def flipped(s, t, u):
            return Ordering(-engine(s, t, u))

        monkeypatch.setattr(bm, "cmp_sqrt_combination", flipped)
        cert = bm_check(4, even_family(4))
        assert (cert.comparison, cert.verdict) == (Ordering.GREATER, Verdict.SATISFIES)
        again = BMCertificate.from_dict(json.loads(json.dumps(cert.to_dict())))
        for forged in (cert, again, replace(cert, witness=None)):
            reasons = []
            assert verify_certificate(forged, reasons) is False
            assert reasons == ["comparison: the three values give LESS (Violates), not GREATER (Satisfies)"]

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_shifted_witness_fails(self, shift):
        cert = bm_check(4000, even_family(4000))
        w = cert.witness
        assert not verify_certificate(replace(cert, witness=IndexVector(w.v1 + shift, w.v2 - shift)))

    def test_forged_c1_fails(self):
        cert = bm_check(3, odd_family(3))
        reasons = []
        assert not verify_certificate(replace(cert, c_1=PiRational(cert.c_1.coeff + 1)), reasons)
        assert reasons[0].startswith("c1: ")

    def test_swapped_capacities_fail(self):
        # c_3(E(1,1)) = 2 pi and c_3(E(2/3,1)) = pi: swapping them claims c_3(E(1,1)) = pi
        cert = bm_check(3, EllipsoidPair.normalized(Ellipsoid(1, 1), Ellipsoid(F(2, 3), 1)))
        assert (cert.c_1.coeff, cert.c_2.coeff) == (2, 1)
        assert not verify_certificate(replace(cert, c_1=cert.c_2, c_2=cert.c_1))
        # swapping the domains together with their capacities is the same certificate
        both = replace(cert, domain1=cert.domain2, domain2=cert.domain1, c_1=cert.c_2, c_2=cert.c_1)
        assert verify_certificate(both) is True

    def test_forged_comparison_fails(self):
        cert = bm_check(2, even_family(2))
        reasons = []
        assert not verify_certificate(replace(cert, comparison=Ordering.GREATER, verdict=Verdict.SATISFIES), reasons)
        assert reasons[0].startswith("comparison: ")

    def test_witness_on_proportional_pair_fails(self):
        cert = bm_check(3, EllipsoidPair.normalized(Ellipsoid(1, 2), Ellipsoid(2, 4)))
        assert verify_certificate(cert) is True
        reasons = []
        assert not verify_certificate(replace(cert, witness=IndexVector(1, 2)), reasons)
        assert "no argmin to witness" in reasons[0]

    @pytest.mark.parametrize(
        "witness",
        [True, 2.0, "2", [1, 1], {"v1": True, "v2": 1}, {"v1": 1.0, "v2": 1}, {"v1": "1", "v2": 1},
         {"v1": -1, "v2": 3}, {"v1": 1, "v2": 2}, {"v1": 1}],
    )
    def test_malformed_witness_refused(self, witness):
        d = bm_check(2, even_family(2)).to_dict()
        d["witness"] = witness
        with pytest.raises(ValueError, match="witness"):
            BMCertificate.from_dict(d)

    def test_tampered_value_fails(self):
        cert = bm_check(2, even_family(2))
        forged = replace(cert, c_sum=PiRational(F(99)))
        assert not verify_certificate(forged)

    def test_tampered_verdict_fails(self):
        cert = bm_check(2, even_family(2))
        forged = replace(cert, verdict=Verdict.SATISFIES)
        assert not verify_certificate(forged)
        reasons = []
        assert verify_certificate(replace(cert, verdict=Verdict.EQUALITY), reasons) is False
        assert reasons == ["comparison: the three values give LESS (Violates), not LESS (Equality)"]


def _quadrature_mean_width(domain, n=200_000) -> float:
    # psi in [0, pi/2] carries density sin(2 psi) on the unit 3-sphere
    psi = (np.arange(n) + 0.5) * (math.pi / 2) / n
    if isinstance(domain, Polydisk):
        vals = float(domain.a) * np.cos(psi) + float(domain.b) * np.sin(psi)
    else:
        vals = np.sqrt(float(domain.a) ** 2 * np.cos(psi) ** 2 + float(domain.b) ** 2 * np.sin(psi) ** 2)
    return float(np.sum(vals * np.sin(2 * psi)) * (math.pi / 2) / n)


def reference_gaussian_chunk_moments(rng, n, split, a, b, buffers=None):
    # The per-chunk body before one uniform draw of p replaced it, kept
    # verbatim; it allocates its own arrays, so it ignores the buffers.
    gauss = rng.standard_normal((n, 4))
    u = gauss[:, 0] ** 2 + gauss[:, 1] ** 2
    w = gauss[:, 2] ** 2 + gauss[:, 3] ** 2
    values = split(u / (u + w), a, b)
    mean = float(values.mean())
    return mean, float(((values - mean) ** 2).sum())


def _ks_uniform_statistic(p) -> float:
    # Kolmogorov-Smirnov distance between the empirical law of p and U[0, 1]
    p = np.sort(p)
    n = len(p)
    return float(max((np.arange(1, n + 1) / n - p).max(), (p - np.arange(n) / n).max()))


def _closed_form_mean_width(domain) -> float:
    a, b = float(domain.a), float(domain.b)
    if isinstance(domain, Polydisk):
        return 2 * (a + b) / 3
    return 2 * (a * a + a * b + b * b) / (3 * (a + b))


MEAN_WIDTH_DOMAINS = [Polydisk(F(3, 2), F(1, 2)), Ellipsoid(2, F(1, 3)), Polydisk(1, 1)]

polydisks_st = st.builds(Polydisk, radii_st, radii_st)


class TestExactMeanWidth:
    @given(st.one_of(polydisks_st, ellipsoids_st))
    @settings(max_examples=100, deadline=None)
    def test_closed_forms_and_quadrature(self, dom):
        a, b = dom.a, dom.b
        closed = 2 * (a + b) / 3 if isinstance(dom, Polydisk) else 2 * (a * a + a * b + b * b) / (3 * (a + b))
        assert mean_width(dom) == closed
        assert type(mean_width(dom)) is F
        assert float(mean_width(dom)) == pytest.approx(_quadrature_mean_width(dom), rel=0, abs=1e-9)

    # a ball's support function is constant, so its stderr is 0 and only
    # rounding is left (test_ball_is_exact, test_scaled_ball)
    @given(st.one_of(polydisks_st, ellipsoids_st.filter(lambda e: e.a != e.b)), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_monte_carlo_within_five_stderr(self, dom, seed):
        est = mean_width_estimate(dom, 400_000, seed)
        assert abs(est.mean - float(mean_width(dom))) <= 5 * est.stderr

    @given(pairs_st)
    @settings(max_examples=100, deadline=None)
    def test_sum_adds(self, pair):
        assert mean_width(pair) == mean_width(pair.first) + mean_width(pair.second)


class TestMeanWidth:
    def test_unit_polydisk_value(self):
        est = mean_width_estimate(Polydisk(1, 1), 200_000, seed=42)
        assert abs(est.mean - 4 / 3) <= 4 * est.stderr
        assert est.stderr < 5e-3

    def test_quadrature_oracle_unit_polydisk(self):
        assert _quadrature_mean_width(Polydisk(1, 1)) == pytest.approx(4 / 3, abs=1e-9)

    def test_quadrature_vs_monte_carlo(self):
        for dom in [Polydisk(F(3, 2), F(1, 2)), Ellipsoid(2, F(1, 3))]:
            est = mean_width_estimate(dom, 400_000, seed=11)
            assert abs(est.mean - _quadrature_mean_width(dom)) <= 5 * est.stderr

    def test_ball_is_exact(self):
        est = mean_width_estimate(Ellipsoid(1, 1), 1000, seed=0)
        assert est.mean == 1.0
        assert est.stderr == 0.0

    def test_scaled_ball(self):
        est = mean_width_estimate(Ellipsoid(2, 2), 1000, seed=0)
        assert est.mean == 2.0
        assert est.stderr == 0.0

    def test_memory_bounded_by_chunk(self):
        def peak(samples):
            tracemalloc.start()
            try:
                mean_width_estimate(Polydisk(1, 1), samples, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # a buffer of every sample would add 8 bytes each: about 1.24x here
        assert peak(4 << 20) <= 1.1 * peak((1 << 20) + 1)

    def test_peak_memory_of_one_uniform_chunk(self):
        mean_width_estimate(Polydisk(1, 1), 100, seed=0)  # loads numpy and the kernels
        tracemalloc.start()
        try:
            mean_width_estimate(Polydisk(1, 1), (1 << 20) + 1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # four Gaussians per sample peaked at 80 MB, one uniform with
        # out-of-place kernels at 34 MB, three fresh 2^20-sample arrays per
        # chunk at 25 MB; three reused 2^16-sample buffers take 1.6 MB
        assert peak <= 2.5e6

    @pytest.mark.parametrize("dom", MEAN_WIDTH_DOMAINS)
    def test_chunks_merge_to_the_one_pass_moments(self, dom):
        # the chunks draw one contiguous stream, so one pass over all of it
        # gives the same moments up to the order of summation
        n = 3 * _kernels._CHUNK + 17
        split = _kernels.polydisk_support_split if isinstance(dom, Polydisk) else _kernels.ellipsoid_support_split
        values = split(np.random.default_rng(8).random(n), float(dom.a), float(dom.b))
        mean = float(values.mean())
        stderr = math.sqrt(float(((values - mean) ** 2).sum()) / (n - 1)) / math.sqrt(n)
        est = mean_width_estimate(dom, n, seed=8)
        assert est.mean == pytest.approx(mean, rel=1e-13)
        assert est.stderr == pytest.approx(stderr, rel=1e-10)

    @pytest.mark.parametrize("dom", MEAN_WIDTH_DOMAINS)
    def test_one_uniform_per_sample(self, dom):
        n = 50_000
        split = _kernels.polydisk_support_split if isinstance(dom, Polydisk) else _kernels.ellipsoid_support_split
        values = split(np.random.default_rng(3).random(n), float(dom.a), float(dom.b))
        mean = float(values.mean())
        stderr = math.sqrt(float(((values - mean) ** 2).sum()) / (n - 1)) / math.sqrt(n)
        assert mean_width_estimate(dom, n, seed=3) == MeanWidthEstimate(mean, stderr, n, 3)

    @pytest.mark.parametrize("dom", MEAN_WIDTH_DOMAINS + [Ellipsoid(F(3, 2), 1), Polydisk(F(1, 4), 3)])
    def test_closed_form_mean_width(self, dom):
        est = mean_width_estimate(dom, 400_000, seed=5)
        assert abs(est.mean - _closed_form_mean_width(dom)) <= 4 * est.stderr
        assert abs(est.mean - float(mean_width(dom))) <= 4 * est.stderr

    @pytest.mark.parametrize("dom", MEAN_WIDTH_DOMAINS)
    def test_agrees_with_gaussian_reference(self, dom, monkeypatch):
        new = mean_width_estimate(dom, 400_000, seed=13)
        monkeypatch.setattr(_kernels, "_chunk_moments", reference_gaussian_chunk_moments)
        old = mean_width_estimate(dom, 400_000, seed=13)
        assert new != old
        assert abs(new.mean - old.mean) <= 5 * math.hypot(new.stderr, old.stderr)

    def test_gaussian_moment_coordinate_is_uniform(self):
        n = 200_000
        drawn = []

        def record(p, a, b):
            drawn.append(p)
            return p

        reference_gaussian_chunk_moments(np.random.default_rng(2024), n, record, 0.0, 0.0)
        bound = 1.63 / math.sqrt(n)  # the 1% critical value
        assert _ks_uniform_statistic(drawn[0]) < bound
        # the statistic sees a law that is not uniform: p^2 is Beta(1/2, 1)
        assert _ks_uniform_statistic(drawn[0] ** 2) > 10 * bound

    def test_seed_reproducible(self):
        a = mean_width_estimate(Polydisk(1, 1), 50_000, seed=7)
        b = mean_width_estimate(Polydisk(1, 1), 50_000, seed=7)
        assert a == b

    def test_disjoint_seeds_consistent(self):
        a = mean_width_estimate(Polydisk(1, 1), 1_000_000, seed=1)
        b = mean_width_estimate(Polydisk(1, 1), 1_000_000, seed=2)
        combined = math.hypot(a.stderr, b.stderr)
        assert abs(a.mean - b.mean) <= 6 * combined

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            mean_width_estimate(Polydisk(1, 1), 99, seed=0)

    def test_unsupported_domain(self):
        with pytest.raises(ValueError):
            mean_width_estimate(odd_family(3), 1000, seed=0)


class TestOstroverCriterion:
    def test_truth_table_1_to_20(self):
        expected_true = set(range(2, 21, 2)) | {9, 11, 13, 15, 17, 19}
        for k in range(1, 21):
            assert ostrover_criterion(k).violating == (k in expected_true)
            assert ostrover_criterion(k).rhs == F(16, 9)

    def test_examples(self):
        assert ostrover_criterion(2).violating
        assert not ostrover_criterion(7).violating
        assert ostrover_criterion(9).violating

    def test_report_values(self):
        rep = ostrover_criterion(7)
        assert rep.lhs == F(7, 4)
        assert rep.rhs == F(16, 9)
        assert rep.c_polydisk.coeff == 7
        assert rep.c_ball.coeff == 4

    def test_k_validated(self):
        with pytest.raises(ValueError):
            ostrover_criterion(0)

    def test_criterion_implies_family_violation(self):
        for k in range(2, 40):
            rep = ostrover_criterion(k)
            if rep.violating:
                pair = even_family(k) if k % 2 == 0 else odd_family(k)
                assert bm_check(k, pair).verdict is Verdict.VIOLATES
