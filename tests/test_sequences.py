"""Unit tests for the number and polynomial sequence tables."""

from __future__ import annotations

import threading
from fractions import Fraction

import pytest

from bek.exactmath import (
    ONE,
    ZERO,
    binomial,
    poly,
    poly_add,
    poly_derivative,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_shift,
    poly_sub,
)
from bek.sequences import (
    SequenceCache,
    bernoulli_number,
    bernoulli_poly,
    euler_number,
    euler_poly,
    euler_poly_at_zero,
    genocchi_number,
)

# reference table: first seven values of each sequence
TABLE_B = [Fraction(1), Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42)]
TABLE_E = [1, 0, -1, 0, 5, 0, -61]
TABLE_G = [0, 1, -1, 0, 1, 0, -3]


def _euler_poly_about_half(n: int):
    """E_n(x) = sum_j C(n, j) (E_j / 2^j) (x - 1/2)^{n-j}: the expansion
    around the midpoint, through the Euler numbers instead of E_j(0)."""
    base = poly([Fraction(-1, 2), 1])
    power = ONE
    out = ZERO
    # power tracks (x - 1/2)^(n - j) as j descends from n to 0
    for j in range(n, -1, -1):
        out = poly_add(out, poly_scale(binomial(n, j) * euler_number(j) / Fraction(2) ** j, power))
        power = poly_mul(power, base)
    return out


class TestNumberTables:
    def test_first_seven_values(self):
        for n in range(7):
            assert bernoulli_number(n) == TABLE_B[n]
            assert euler_number(n) == TABLE_E[n]
            assert genocchi_number(n) == TABLE_G[n]

    def test_frozen_deep_values(self):
        assert bernoulli_number(12) == Fraction(-691, 2730)
        assert euler_number(8) == 1385

    def test_odd_entries_vanish(self):
        for n in range(3, 41, 2):
            assert bernoulli_number(n) == 0
        for n in range(1, 41, 2):
            assert euler_number(n) == 0

    def test_defining_recurrence(self):
        # sum_{j<=m} C(m+1,j) B_j = 0 for m >= 1
        for m in range(1, 25):
            total = sum(binomial(m + 1, j) * bernoulli_number(j) for j in range(m + 1))
            assert total == 0

    def test_genocchi_link(self):
        for n in range(20):
            assert genocchi_number(n) == 2 * (1 - Fraction(2) ** n) * bernoulli_number(n)
            assert genocchi_number(n).denominator == 1

    def test_euler_numbers_are_integers(self):
        for n in range(24):
            assert euler_number(n) == int(euler_number(n))


class TestPolynomialTables:
    def test_frozen_polys(self):
        assert bernoulli_poly(2) == poly([Fraction(1, 6), -1, 1])
        assert euler_poly(3) == poly([Fraction(1, 4), 0, Fraction(-3, 2), 1])
        assert euler_poly(6) == poly([0, -3, 0, 5, 0, -3, 1])

    def test_value_at_zero(self):
        for n in range(20):
            assert poly_eval(bernoulli_poly(n), 0) == bernoulli_number(n)
            assert poly_eval(euler_poly(n), 0) == euler_poly_at_zero(n)

    def test_euler_poly_matches_midpoint_expansion(self):
        for n in range(41):
            assert euler_poly(n) == _euler_poly_about_half(n)

    def test_euler_poly_at_zero_from_genocchi(self):
        for n in range(20):
            assert euler_poly_at_zero(n) == genocchi_number(n + 1) / Fraction(n + 1)

    def test_euler_number_is_scaled_midpoint(self):
        for n in range(20):
            assert euler_number(n) == Fraction(2) ** n * poly_eval(euler_poly(n), Fraction(1, 2))

    def test_derivative_descent(self):
        for n in range(1, 18):
            assert poly_derivative(bernoulli_poly(n)) == tuple(
                n * c for c in bernoulli_poly(n - 1)
            )
            assert poly_derivative(euler_poly(n)) == tuple(n * c for c in euler_poly(n - 1))

    def test_forward_difference_characterization(self):
        # B_n(x+1) - B_n(x) = n x^{n-1}; E_n(x+1) + E_n(x) = 2 x^n
        for n in range(1, 15):
            diff = poly_sub(poly_shift(bernoulli_poly(n), 1), bernoulli_poly(n))
            assert diff == poly([0] * (n - 1) + [n])
            mean = poly_add(poly_shift(euler_poly(n), 1), euler_poly(n))
            assert mean == poly([0] * n + [2])

    def test_monic_of_degree_n(self):
        for n in range(12):
            assert len(bernoulli_poly(n)) == n + 1 and bernoulli_poly(n)[-1] == 1
            assert len(euler_poly(n)) == n + 1 and euler_poly(n)[-1] == 1


class TestCacheBehaviour:
    def test_instances_are_isolated(self):
        fresh = SequenceCache()
        assert fresh.bernoulli_number(10) == bernoulli_number(10)
        assert fresh.euler_poly(5) == euler_poly(5)

    def test_concurrent_fill_is_consistent(self):
        cache = SequenceCache()
        results: list[Fraction] = []
        errors: list[BaseException] = []

        def worker():
            try:
                results.append(cache.bernoulli_number(40))
                results.append(cache.euler_number(30))
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert results.count(bernoulli_number(40)) == 8
        assert results.count(euler_number(30)) == 8

    def test_rejects_negative_index(self):
        cache = SequenceCache()
        for fn in (
            cache.bernoulli_number,
            cache.genocchi_number,
            cache.euler_number,
            cache.euler_poly_at_zero,
            cache.bernoulli_poly,
            cache.euler_poly,
        ):
            with pytest.raises(ValueError):
                fn(-1)


class TestSympyOracle:
    """Independent values from SymPy for n <= 60.  SymPy takes B_1 = +1/2,
    so the number-level Bernoulli check skips n = 1."""

    N = 60

    def test_numbers(self):
        sympy = pytest.importorskip("sympy")
        for n in range(self.N + 1):
            assert euler_number(n) == int(sympy.euler(n))
            if n != 1:
                b = sympy.bernoulli(n)
                assert bernoulli_number(n) == Fraction(int(b.p), int(b.q))

    def test_polynomials(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def coeffs(expr):
            return poly(Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, x).all_coeffs()))

        for n in range(self.N + 1):
            assert bernoulli_poly(n) == coeffs(sympy.bernoulli(n, x))
            assert euler_poly(n) == coeffs(sympy.euler(n, x))
