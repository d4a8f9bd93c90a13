"""Tests for GF(2) polynomials and the feedback-polynomial tables."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gf2.polynomial import GF2Polynomial, _prime_divisors
from repro.gf2.primitive import (
    PRIMITIVE_TAPS,
    default_feedback_polynomial,
    irreducible_polynomial,
    polynomial_from_taps,
    primitive_polynomial,
)


class TestPolynomialBasics:
    def test_from_exponents(self):
        p = GF2Polynomial.from_exponents([4, 1, 0])
        assert p.value == 0b10011
        assert p.degree == 4
        assert str(p) == "x^4 + x + 1"

    def test_from_coefficients(self):
        p = GF2Polynomial.from_coefficients([1, 1, 0, 0, 1])
        assert p == GF2Polynomial.from_exponents([4, 1, 0])

    def test_from_coefficients_rejects_non_binary(self):
        with pytest.raises(ValueError):
            GF2Polynomial.from_coefficients([1, 2])

    def test_zero_one_x(self):
        assert GF2Polynomial.zero().is_zero()
        assert GF2Polynomial.one().degree == 0
        assert GF2Polynomial.x().degree == 1

    def test_degree_of_zero(self):
        assert GF2Polynomial.zero().degree == -1

    def test_exponents_and_weight(self):
        p = GF2Polynomial.from_exponents([5, 2, 0])
        assert p.exponents() == [5, 2, 0]
        assert p.weight() == 3
        assert p.coefficient(2) == 1
        assert p.coefficient(3) == 0

    def test_addition_is_xor(self):
        a = GF2Polynomial.from_exponents([3, 1])
        b = GF2Polynomial.from_exponents([3, 0])
        assert (a + b) == GF2Polynomial.from_exponents([1, 0])

    def test_multiplication_known(self):
        # (x + 1)(x + 1) = x^2 + 1 over GF(2)
        p = GF2Polynomial.from_exponents([1, 0])
        assert (p * p) == GF2Polynomial.from_exponents([2, 0])

    def test_divmod(self):
        a = GF2Polynomial.from_exponents([4, 1, 0])
        b = GF2Polynomial.from_exponents([2, 1])
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_mod_and_floordiv_operators(self):
        a = GF2Polynomial.from_exponents([5, 2])
        b = GF2Polynomial.from_exponents([3, 0])
        assert (a // b) * b + (a % b) == a

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GF2Polynomial.one() % GF2Polynomial.zero()

    def test_gcd(self):
        # gcd((x+1)(x^2+x+1), (x+1)) = x+1
        a = GF2Polynomial.from_exponents([1, 0]) * GF2Polynomial.from_exponents([2, 1, 0])
        b = GF2Polynomial.from_exponents([1, 0])
        assert a.gcd(b) == b

    def test_evaluate(self):
        p = GF2Polynomial.from_exponents([3, 1, 0])
        assert p.evaluate(0) == 1  # constant term
        assert p.evaluate(1) == 1  # odd number of terms

    def test_str_of_zero(self):
        assert str(GF2Polynomial.zero()) == "0"


class TestIrreducibility:
    def test_known_irreducible(self):
        assert GF2Polynomial.from_exponents([4, 1, 0]).is_irreducible()
        assert GF2Polynomial.from_exponents([2, 1, 0]).is_irreducible()
        assert GF2Polynomial.from_exponents([3, 1, 0]).is_irreducible()

    def test_known_reducible(self):
        # x^2 + 1 = (x+1)^2
        assert not GF2Polynomial.from_exponents([2, 0]).is_irreducible()
        # x^4 + x^3 + x + 1 is divisible by x + 1 (even number of terms)
        assert not GF2Polynomial.from_exponents([4, 3, 1, 0]).is_irreducible()

    def test_degree_one(self):
        assert GF2Polynomial.from_exponents([1, 0]).is_irreducible()
        assert GF2Polynomial.x().is_irreducible()

    def test_constants_not_irreducible(self):
        assert not GF2Polynomial.one().is_irreducible()
        assert not GF2Polynomial.zero().is_irreducible()

    def test_primitivity_small(self):
        # x^4 + x + 1 is primitive; x^4 + x^3 + x^2 + x + 1 is irreducible
        # but has order 5, not 15.
        assert GF2Polynomial.from_exponents([4, 1, 0]).is_primitive()
        non_primitive = GF2Polynomial.from_exponents([4, 3, 2, 1, 0])
        assert non_primitive.is_irreducible()
        assert not non_primitive.is_primitive()

    def test_primitivity_guard_on_large_degree(self):
        with pytest.raises(ValueError):
            GF2Polynomial.from_exponents([40, 38, 21, 19, 0]).is_primitive()


class TestFeedbackPolynomials:
    def test_table_covers_expected_range(self):
        degrees = sorted(PRIMITIVE_TAPS)
        assert degrees[0] == 2
        assert degrees[-1] == 100
        assert degrees == list(range(2, 101))

    @pytest.mark.parametrize("degree", [8, 16, 24, 32, 44, 56, 64, 85, 100])
    def test_table_entries_are_irreducible(self, degree):
        poly = polynomial_from_taps(degree, PRIMITIVE_TAPS[degree])
        assert poly.degree == degree
        assert poly.is_irreducible()

    @pytest.mark.parametrize("degree", list(range(2, 17)))
    def test_small_table_entries_are_primitive(self, degree):
        poly = polynomial_from_taps(degree, PRIMITIVE_TAPS[degree])
        assert poly.is_primitive()

    @pytest.mark.parametrize("degree", [2, 5, 13, 24, 39, 44, 56, 85, 101, 123])
    def test_primitive_polynomial_returns_irreducible(self, degree):
        poly = primitive_polynomial(degree)
        assert poly.degree == degree
        assert poly.is_irreducible()

    def test_irreducible_polynomial_search(self):
        for degree in (3, 9, 21, 33):
            poly = irreducible_polynomial(degree)
            assert poly.degree == degree
            assert poly.is_irreducible()

    def test_irreducible_polynomial_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            irreducible_polynomial(0)

    def test_default_policy(self):
        poly = default_feedback_polynomial(24)
        assert poly.degree == 24
        assert poly.is_irreducible()


# ----------------------------------------------------------------------
# Property-based tests
# ----------------------------------------------------------------------
poly_values = st.integers(min_value=1, max_value=(1 << 20) - 1)


@given(poly_values, poly_values)
@settings(max_examples=60, deadline=None)
def test_divmod_property(a_val, b_val):
    a = GF2Polynomial(a_val)
    b = GF2Polynomial(b_val)
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@given(poly_values, poly_values)
@settings(max_examples=60, deadline=None)
def test_gcd_divides_both(a_val, b_val):
    a = GF2Polynomial(a_val)
    b = GF2Polynomial(b_val)
    g = a.gcd(b)
    assert (a % g).is_zero()
    assert (b % g).is_zero()


@given(poly_values, poly_values)
@settings(max_examples=60, deadline=None)
def test_multiplication_degree_adds(a_val, b_val):
    a = GF2Polynomial(a_val)
    b = GF2Polynomial(b_val)
    assert (a * b).degree == a.degree + b.degree


def test_prime_divisors_helper():
    assert _prime_divisors(1) == []
    assert _prime_divisors(12) == [2, 3]
    assert _prime_divisors(97) == [97]
    assert _prime_divisors(60) == [2, 3, 5]
