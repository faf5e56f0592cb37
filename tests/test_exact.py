import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capacity_lab import (
    BMCertificate,
    CriterionReport,
    Ellipsoid,
    EllipsoidPair,
    IndexVector,
    Ordering,
    PiRational,
    Polydisk,
    ProductWithBall,
    Verdict,
    format_decimal,
    format_rational,
)
from capacity_lab.bm import cmp_sqrt_combination
from capacity_lab.domains import _TwoRadii
from conftest import record_contract
from reference_parser import parse_rational

nonneg_st = st.fractions(min_value=0, max_value=Fraction(1000), max_denominator=50)


class TestRationalParsing:
    def test_integer_form(self):
        assert parse_rational("7") == Fraction(7)
        assert parse_rational("-3") == Fraction(-3)

    def test_fraction_form(self):
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational(" -10/4 ") == Fraction(-5, 2)

    def test_rejects_garbage(self):
        for bad in ["", "a/b", "1.5", "3/", "/2", "1/0"]:
            with pytest.raises(ValueError):
                parse_rational(bad)

    def test_format_round_trip(self):
        for q in [Fraction(13, 2), Fraction(4), Fraction(-5, 3), Fraction(0)]:
            assert parse_rational(format_rational(q)) == q


class TestFractionArithmetic:
    # operations ride on Fraction; pin the contract anyway
    def test_add(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)

    def test_mul_reciprocal(self):
        assert Fraction(2, 3) * Fraction(3, 2) == 1

    def test_cmp(self):
        assert Fraction(9, 4) > 2

    def test_division_by_zero_is_reported(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 2) / Fraction(0)

    @given(st.fractions(max_denominator=100), st.fractions(max_denominator=100))
    def test_canonical_form(self, x, y):
        z = x * y + x - y
        assert math.gcd(abs(z.numerator), z.denominator) == 1
        assert z.denominator > 0


class TestCmpSqrtCombination:
    def test_equal_case(self):
        assert cmp_sqrt_combination(Fraction(4), Fraction(1), Fraction(1)) is Ordering.EQUAL

    def test_even_family_violation(self):
        # sqrt(13/2) against sqrt(2) + sqrt(2): 13/2 < (2 sqrt 2)^2 = 8
        assert cmp_sqrt_combination(Fraction(13, 2), Fraction(2), Fraction(2)) is Ordering.LESS

    def test_greater(self):
        assert cmp_sqrt_combination(Fraction(9), Fraction(1), Fraction(1)) is Ordering.GREATER

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cmp_sqrt_combination(Fraction(-1), Fraction(0), Fraction(0))

    @given(nonneg_st, nonneg_st, nonneg_st)
    @settings(max_examples=300)
    def test_agrees_with_float(self, s, t, u):
        diff = math.sqrt(float(s)) - math.sqrt(float(t)) - math.sqrt(float(u))
        if abs(diff) > 1e-6:
            expected = Ordering.GREATER if diff > 0 else Ordering.LESS
            assert cmp_sqrt_combination(s, t, u) is expected

    @given(nonneg_st, nonneg_st, nonneg_st)
    def test_symmetric_in_t_u(self, s, t, u):
        assert cmp_sqrt_combination(s, t, u) is cmp_sqrt_combination(s, u, t)

    @given(
        st.fractions(min_value=0, max_value=50, max_denominator=12),
        st.fractions(min_value=0, max_value=50, max_denominator=12),
        st.fractions(min_value=0, max_value=50, max_denominator=12),
    )
    def test_perfect_square_products_hit_equal(self, p, w, z):
        # t = p w^2 and u = p z^2 make sqrt(t) + sqrt(u) = sqrt(p (w+z)^2)
        t = p * w * w
        u = p * z * z
        s = p * (w + z) ** 2
        assert cmp_sqrt_combination(s, t, u) is Ordering.EQUAL


class TestPiRational:
    def test_str_forms(self):
        assert str(PiRational(Fraction(13, 2))) == "13/2·π"
        assert str(PiRational(Fraction(2))) == "2·π"

    def test_decimal_12_digits(self):
        assert PiRational(Fraction(13, 2)).decimal() == "20.4203522483"
        assert PiRational(Fraction(1)).decimal() == "3.14159265359"

    def test_decimal_handles_huge_coefficients(self):
        huge = PiRational(Fraction(10**400, 3))
        assert "e+" in huge.decimal()

    def test_plain_decimal(self):
        assert format_decimal(Fraction(4, 3)) == "1.33333333333"
        assert format_decimal(Fraction(1)) == "1"
        assert format_decimal(Fraction(10**400, 3)) == "3.33333333333e+399"

    def test_render(self):
        assert PiRational(Fraction(2)).render() == "2·π = 6.28318530718"

    def test_float(self):
        assert float(PiRational(Fraction(2))) == pytest.approx(2 * math.pi)

    def test_ordering_and_arithmetic(self):
        a = PiRational(Fraction(1, 2))
        b = PiRational(Fraction(2, 3))
        assert a < b

    def test_dict_round_trip(self):
        v = PiRational(Fraction(-50, 9))
        assert PiRational.from_dict(v.as_dict()) == v

    @given(st.fractions(max_denominator=1000))
    def test_as_dict_is_canonical(self, q):
        d = PiRational(q).as_dict()
        assert math.gcd(abs(d["num"]), d["den"]) == 1
        assert d["den"] > 0


F = Fraction
E32, E23 = Ellipsoid(F(3, 2), 1), Ellipsoid(1, F(3, 2))

# (record class, positional arguments, the same with one field changed, the repr a frozen dataclass gave)
RECORDS = [
    (PiRational, (F(3, 2),), (F(2),), "PiRational(coeff=Fraction(3, 2))"),
    (_TwoRadii, (F(3, 2), 1), (F(3, 2), 2), "_TwoRadii(a=Fraction(3, 2), b=Fraction(1, 1))"),
    (Ellipsoid, (F(3, 2), 1), (F(3, 2), 2), "Ellipsoid(a=Fraction(3, 2), b=Fraction(1, 1))"),
    (Polydisk, (2, F(1, 3)), (2, F(1, 2)), "Polydisk(a=Fraction(2, 1), b=Fraction(1, 3))"),
    (
        EllipsoidPair,
        (Ellipsoid(1, 2), Ellipsoid(2, 4)),
        (Ellipsoid(1, 2), Ellipsoid(2, 5)),
        "EllipsoidPair(first=Ellipsoid(a=Fraction(1, 1), b=Fraction(2, 1)), "
        "second=Ellipsoid(a=Fraction(2, 1), b=Fraction(4, 1)))",
    ),
    (
        ProductWithBall,
        (E32, 2, 10),
        (E32, 2, 11),
        "ProductWithBall(inner=Ellipsoid(a=Fraction(3, 2), b=Fraction(1, 1)), m=2, R=Fraction(10, 1))",
    ),
    (IndexVector, (1, 2), (1, 3), "IndexVector(v1=1, v2=2)"),
    (
        BMCertificate,
        (2, E32, E23, PiRational(F(13, 2)), PiRational(2), PiRational(2), Verdict.VIOLATES, Ordering.LESS,
         IndexVector(1, 1)),
        (2, E32, E23, PiRational(F(13, 2)), PiRational(2), PiRational(2), Verdict.VIOLATES, Ordering.LESS, None),
        "BMCertificate(k=2, domain1=Ellipsoid(a=Fraction(3, 2), b=Fraction(1, 1)), "
        "domain2=Ellipsoid(a=Fraction(1, 1), b=Fraction(3, 2)), c_sum=PiRational(coeff=Fraction(13, 2)), "
        "c_1=PiRational(coeff=Fraction(2, 1)), c_2=PiRational(coeff=Fraction(2, 1)), "
        "verdict=<Verdict.VIOLATES: 'Violates'>, comparison=<Ordering.LESS: -1>, witness=IndexVector(v1=1, v2=1))",
    ),
    (
        CriterionReport,
        (3, False, F(3, 2), F(16, 9), PiRational(3), PiRational(2)),
        (3, False, F(3, 2), F(16, 9), PiRational(3), PiRational(1)),
        "CriterionReport(k=3, violating=False, lhs=Fraction(3, 2), rhs=Fraction(16, 9), "
        "c_polydisk=PiRational(coeff=Fraction(3, 1)), c_ball=PiRational(coeff=Fraction(2, 1)))",
    ),
]


@pytest.mark.parametrize("cls, args, changed, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, args, changed, text):
    """What a frozen dataclass gave each value record, now from ``exact._Record``."""
    record_contract(cls, args, changed, text)


# the arguments of the BMCertificate and CriterionReport rows above
CERT_ARGS, CRITERION_ARGS = RECORDS[7][1], RECORDS[8][1]
# (record class, arguments, keyword arguments, the TypeError message)
BAD_CALLS = [
    (BMCertificate, CERT_ARGS[:8], {}, "BMCertificate() missing required arguments: 'witness'"),
    (
        CriterionReport,
        (3, False),
        {"rhs": F(16, 9)},
        "CriterionReport() missing required arguments: 'lhs', 'c_polydisk', 'c_ball'",
    ),
    (CriterionReport, (*CRITERION_ARGS, None), {}, "CriterionReport() takes 6 arguments but 7 were given"),
    (CriterionReport, CRITERION_ARGS, {"margin": 0}, "CriterionReport() got an unexpected keyword argument 'margin'"),
    (
        CriterionReport,
        CRITERION_ARGS[:2],
        {"violating": True},
        "CriterionReport() got multiple values for argument 'violating'",
    ),
]


@pytest.mark.parametrize(
    "cls, args, named, message", BAD_CALLS, ids=["missing", "missing-by-name", "extra", "unknown", "twice"]
)
def test_record_constructor_refuses(cls, args, named, message):
    with pytest.raises(TypeError) as info:
        cls(*args, **named)
    assert str(info.value) == message


def test_copies_run_the_constructor_checks():
    # a record built around its constructor is refused when copied or unpickled
    bad = object.__new__(IndexVector)
    object.__setattr__(bad, "v1", -1)
    object.__setattr__(bad, "v2", 3)
    for again in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        with pytest.raises(ValueError, match="nonnegative"):
            again(bad)
