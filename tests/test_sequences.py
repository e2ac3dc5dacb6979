"""Unit tests for the number and polynomial sequence tables."""

from __future__ import annotations

import sys
import threading
from fractions import Fraction
from math import comb

import pytest

from bek.exactmath import (
    ONE,
    ZERO,
    binomial,
    poly,
    poly_add,
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
from walks import poly_derivative

# reference table: first seven values of each sequence
TABLE_B = [Fraction(1), Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42)]
TABLE_E = [1, 0, -1, 0, 5, 0, -61]
TABLE_G = [0, 1, -1, 0, 1, 0, -3]

# OEIS A000111, the zigzag numbers A_0..A_29: secant numbers at even n,
# tangent numbers at odd n
ZIGZAG = [
    1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792, 2702765, 22368256,
    199360981, 1903757312, 19391512145, 209865342976, 2404879675441,
    29088885112832, 370371188237525, 4951498053124096, 69348874393137901,
    1015423886506852352, 15514534163557086905, 246921480190207983616,
    4087072509293123892361, 70251601603943959887872,
    1252259641403629865468285, 23119184187809597841473536,
]

# The classical Fraction recurrences, kept as oracles for the zigzag fill.
ORACLE_N = 300


def _reference_bernoulli(top: int) -> list[Fraction]:
    """B_m from sum_{j<=m} C(m+1, j) B_j = 0, solved for B_m."""
    out = [Fraction(1)]
    for m in range(1, top + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += comb(m + 1, j) * out[j]
        out.append(-acc / (m + 1))
    return out


def _reference_euler(euler_zero: list[Fraction]) -> list[Fraction]:
    """E_m = 2^m E_m(1/2) = sum_j C(m, j) E_j(0) 2^j."""
    out = []
    for m in range(len(euler_zero)):
        acc = Fraction(0)
        for j in range(m + 1):
            acc += comb(m, j) * euler_zero[j] * Fraction(2) ** j
        out.append(acc)
    return out


def _reference_appell(values: list[Fraction]) -> tuple:
    """sum_j C(m, j) values[j] x^{m-j} through `comb * Fraction` and `poly`."""
    m = len(values) - 1
    coeffs = [Fraction(0)] * (m + 1)
    for j in range(m + 1):
        coeffs[m - j] = comb(m, j) * values[j]
    return poly(coeffs)


@pytest.fixture(scope="module")
def reference_tables() -> dict:
    bern = _reference_bernoulli(ORACLE_N + 1)
    genocchi = [2 * (1 - Fraction(2) ** m) * b for m, b in enumerate(bern)]
    euler_zero = [genocchi[m + 1] / (m + 1) for m in range(ORACLE_N + 1)]
    return {
        "bernoulli_number": bern[: ORACLE_N + 1],
        "genocchi_number": genocchi[: ORACLE_N + 1],
        "euler_poly_at_zero": euler_zero,
        "euler_number": _reference_euler(euler_zero),
        "bernoulli_poly": [_reference_appell(bern[: m + 1]) for m in range(ORACLE_N + 1)],
        "euler_poly": [_reference_appell(euler_zero[: m + 1]) for m in range(ORACLE_N + 1)],
    }


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


class TestZigzagFill:
    def test_zigzag_prefix_matches_oeis(self):
        cache = SequenceCache()
        assert [cache.zigzag_number(n) for n in range(len(ZIGZAG))] == ZIGZAG
        assert all(type(cache.zigzag_number(n)) is int for n in range(len(ZIGZAG)))

    @pytest.mark.parametrize("table", [
        "bernoulli_number", "genocchi_number", "euler_poly_at_zero",
        "euler_number", "bernoulli_poly", "euler_poly",
    ])
    def test_fresh_cache_matches_reference_routes(self, reference_tables, table):
        # filled in one call up to the top, so every entry comes from the
        # zigzag fill of a fresh cache, not from tables shared with other tests
        fill = getattr(SequenceCache(), table)
        fill(ORACLE_N)
        for n, expected in enumerate(reference_tables[table]):
            value = fill(n)
            assert value == expected, (table, n)
            if isinstance(expected, tuple):
                assert type(value) is tuple
                assert all(type(c) is Fraction for c in value), (table, n)
            else:
                assert type(value) is Fraction, (table, n)


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

    def test_filled_entries_are_read_without_the_lock(self):
        cache = SequenceCache()
        expected = (cache.bernoulli_poly(30), cache.euler_poly(30), cache.euler_number(30))
        got: list = []

        def reader():
            got.append((cache.bernoulli_poly(30), cache.euler_poly(30), cache.euler_number(30)))

        with cache._lock:  # as a fill in another thread would hold it
            thread = threading.Thread(target=reader)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert got == [expected]

    def test_reads_stay_consistent_during_a_fill(self):
        cache = SequenceCache()
        top = 40
        expected = [
            (cache.bernoulli_number(n), cache.euler_number(n), cache.genocchi_number(n),
             cache.bernoulli_poly(n), cache.euler_poly(n))
            for n in range(top)
        ]
        done = threading.Event()
        mismatches: list[int] = []
        sweeps: list[int] = []

        def reader():
            count = 0
            while not done.is_set():
                for n in range(top):
                    got = (cache.bernoulli_number(n), cache.euler_number(n), cache.genocchi_number(n),
                           cache.bernoulli_poly(n), cache.euler_poly(n))
                    if got != expected[n]:
                        mismatches.append(n)
                count += 1
            sweeps.append(count)

        def filler():
            try:
                cache.euler_poly(250)
                cache.bernoulli_poly(250)
            finally:
                done.set()

        threads = [threading.Thread(target=reader) for _ in range(4)] + [threading.Thread(target=filler)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            done.set()
        assert not any(t.is_alive() for t in threads)
        assert not mismatches
        assert len(sweeps) == 4
        assert cache.bernoulli_poly(250) == bernoulli_poly(250)
        assert cache.euler_poly(250) == euler_poly(250)

    def test_rejects_negative_index(self):
        cache = SequenceCache()
        for fn in (
            cache.zigzag_number,
            cache.bernoulli_number,
            cache.genocchi_number,
            cache.euler_number,
            cache.euler_poly_at_zero,
            cache.bernoulli_poly,
            cache.euler_poly,
        ):
            with pytest.raises(ValueError):
                fn(-1)

    def test_rejects_a_bool_or_non_int_index_before_any_fill(self):
        # True would otherwise read index 1: B_1 = -1/2
        cache = SequenceCache()
        tables = [list(table) for table in vars(cache).values() if isinstance(table, list)]
        for name in ("zigzag_number", "bernoulli_number", "genocchi_number", "euler_number",
                     "euler_poly_at_zero", "bernoulli_poly", "euler_poly"):
            for bad in (True, False, 1.0, Fraction(2), "3", None):
                with pytest.raises(ValueError, match=f"^{name} requires an integer n >= 0, got n="):
                    getattr(cache, name)(bad)
        assert [list(table) for table in vars(cache).values() if isinstance(table, list)] == tables
        for fn in (bernoulli_number, genocchi_number, euler_number, euler_poly_at_zero, bernoulli_poly, euler_poly):
            fn(3)
            with pytest.raises(ValueError):
                fn(True)


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
