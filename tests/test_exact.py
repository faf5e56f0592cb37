import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capacity_lab import Ordering, PiRational, format_decimal, format_rational
from capacity_lab.bm import cmp_sqrt_combination
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
        assert format_decimal(Fraction(2, 3), digits=3) == "0.667"

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
