"""Unit tests for the exact arithmetic kernel."""

from __future__ import annotations

import ast
import math
import numbers
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bek
from bek import exactmath
from bek.exactmath import (
    ONE,
    ZERO,
    as_exact,
    binomial,
    harmonic,
    harmonic_second,
    harmonic_shifted,
    is_exact,
    pochhammer,
    pochhammer_parts,
    poly,
    poly_add,
    poly_eval,
    poly_lincomb,
    poly_mul,
    poly_scale,
    poly_shift,
    poly_shift_operator,
    poly_sub,
    rising_weights,
    series_product,
    series_work,
    subset_series,
)
from bek.identities import REGISTRY
from walks import poly_derivative, subset_walk

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
small_polys = st.lists(rationals, max_size=6).map(poly)
# coefficients with large, mostly coprime denominators stress the common
# denominator of the integer-numerator kernel
wide_rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9)
wide_polys = st.lists(wide_rationals, max_size=8).map(poly)
scalars = st.one_of(st.integers(-30, 30), rationals, wide_rationals, st.just(0), st.just(Fraction(0)))


def _fold(terms) -> tuple:
    """The scaled-add loop that poly_lincomb replaces."""
    acc = ZERO
    for c, p in terms:
        acc = poly_add(acc, poly_scale(c, p))
    return acc


def _schoolbook_mul(p, q) -> tuple:
    """The Fraction convolution that the integer poly_mul replaced."""
    if not p or not q:
        return ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


@st.composite
def subset_series_cases(draw):
    """k = 0..5 factors of up to six coefficients, each with a shift of one
    or two coefficients (zero shifts included), and a truncation d from
    below the factors' lengths to above them."""
    k = draw(st.integers(0, 5))
    factors = draw(st.lists(st.one_of(small_polys, wide_polys), min_size=k, max_size=k))
    shift = st.one_of(st.just(ZERO), st.lists(st.one_of(rationals, wide_rationals), min_size=1, max_size=2).map(poly),
                      rationals.map(lambda c: poly([0, c])))
    shifts = draw(st.lists(shift, min_size=k, max_size=k))
    return factors, shifts, draw(st.integers(-1, 10))


def _all_fractions(p) -> bool:
    return all(type(c) is Fraction for c in p)


class TestCombinatorics:
    def test_binomial_frozen_values(self):
        assert binomial(6, 2) == 15
        assert binomial(0, 0) == 1
        assert binomial(10, 10) == 1

    def test_binomial_out_of_range_is_zero(self):
        assert binomial(3, 5) == 0
        assert binomial(3, -1) == 0

    def test_binomial_rejects_negative_n(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(0, 20), st.integers(-2, 22))
    def test_binomial_matches_stdlib(self, n, k):
        expected = math.comb(n, k) if 0 <= k <= n else 0
        assert binomial(n, k) == expected

    def test_pochhammer_frozen_values(self):
        assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
        assert pochhammer(Fraction(3), 0) == 1
        assert pochhammer(Fraction(1), 5) == 120

    @given(rationals, st.integers(0, 8), st.integers(0, 8))
    def test_pochhammer_splits_multiplicatively(self, z, m, k):
        assert pochhammer(z, m + k) == pochhammer(z, m) * pochhammer(z + m, k)

    @given(st.one_of(st.integers(-400, 400), rationals, wide_rationals), st.integers(0, 300))
    def test_pochhammer_matches_the_running_product(self, z, k):
        # the product tree against one Fraction multiplication per factor,
        # on both sides of its 16-factor leaves
        expected = Fraction(1)
        for i in range(k):
            expected *= z + i
        assert pochhammer(z, k) == expected
        assert type(pochhammer(z, k)) is Fraction


class TestMemoizedScalars:
    @given(st.integers(-12, 12), st.integers(0, 10))
    def test_pochhammer_int_and_fraction_agree(self, z, k):
        expected = Fraction(1)
        for i in range(k):
            expected *= z + i
        assert pochhammer(z, k) == pochhammer(Fraction(z), k) == expected
        assert type(pochhammer(z, k)) is Fraction
        assert type(pochhammer(Fraction(z), k)) is Fraction

    @given(st.integers(1, 9), st.integers(0, 12))
    def test_harmonic_shifted_int_and_fraction_agree(self, a, n):
        expected = sum((Fraction(1, a + j) for j in range(n)), Fraction(0))
        assert harmonic_shifted(a, n) == harmonic_shifted(Fraction(a), n) == expected
        assert type(harmonic_shifted(a, n)) is Fraction

    @given(st.integers(0, 30))
    def test_harmonics_match_direct_sums(self, n):
        assert harmonic(n) == sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))
        assert harmonic_second(n) == sum((Fraction(1, j * j) for j in range(1, n + 1)), Fraction(0))
        # a cached value is returned unchanged on a repeated call
        assert harmonic(n) == harmonic(n) and harmonic_second(n) == harmonic_second(n)

    @given(st.fractions(min_value=-20, max_value=20, max_denominator=9), st.integers(0, 12))
    def test_pochhammer_parts_are_the_unreduced_pochhammer(self, z, k):
        num, den = pochhammer_parts(z, k)
        assert Fraction(num, den) == pochhammer(z, k) and den == z.denominator ** k
        assert type(num) is int and type(den) is int

    def test_pochhammer_parts_refuse_as_pochhammer(self):
        assert pochhammer_parts(Fraction(6, 4), 2) == (3 * 5, 4)
        for z, k in ((0.5, 2), (True, 2), (Fraction(1, 2), -1), (Fraction(1, 2), 1.0)):
            with pytest.raises(ValueError):
                pochhammer_parts(z, k)

    def test_pochhammer_is_memoized_on_integers(self):
        exactmath._pochhammer.cache_clear()
        assert pochhammer(Fraction(3), 4) == pochhammer(3, 4) == 360
        assert pochhammer(Fraction(6, 4), 2) == Fraction(15, 4)
        info = exactmath._pochhammer.cache_info()
        assert (info.currsize, info.misses, info.hits) == (2, 2, 1)
        assert all(type(pochhammer(z, 3)) is Fraction for z in (2, Fraction(2), Fraction(1, 3)))

    @pytest.mark.parametrize("call, message", [
        (lambda: pochhammer(1.5, 2), "pochhammer argument 1.5 is not a rational number"),
        (lambda: pochhammer(True, 2), "pochhammer argument True is not a rational number"),
        (lambda: pochhammer(Fraction(1, 2), 2.0), "pochhammer order 2.0 is not an integer"),
        (lambda: pochhammer(3, False), "pochhammer order False is not an integer"),
        (lambda: poly([0.1]), "coefficient 0.1 is not a rational number"),
        (lambda: poly([Fraction(1), "2"]), "coefficient '2' is not a rational number"),
        (lambda: poly_eval(poly([1, 1]), 0.5), "point 0.5 is not a rational number"),
        (lambda: binomial(True, 1), "binomial argument True is not an integer"),
        (lambda: binomial(4, 1.0), "binomial argument 1.0 is not an integer"),
    ])
    def test_scalar_helpers_apply_the_input_rule(self, call, message):
        # a float was read as its binary fraction, and a bool as an int
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    def test_scalar_helpers_read_numpy_integers(self):
        assert pochhammer(np.int64(3), np.int32(2)) == 12 and binomial(np.int64(5), np.uint8(2)) == 10
        # the memo holds ints, so a later product does not wrap at 64 bits
        assert type(pochhammer(3, 2).numerator) is int and pochhammer(3, 2) * 10**30 == 12 * 10**30
        assert poly([np.int64(2), 1]) == (Fraction(2), Fraction(1))
        assert poly_eval(poly([1, 1]), np.int64(2)) == 3

    def test_negative_arguments_still_raise(self):
        # exceptions are not cached: every call raises again
        for _ in range(2):
            with pytest.raises(ValueError):
                pochhammer(Fraction(1, 2), -1)
            with pytest.raises(ValueError):
                pochhammer(3, -2)
            with pytest.raises(ValueError):
                harmonic(-1)
            with pytest.raises(ValueError):
                harmonic_second(-1)
            with pytest.raises(ValueError):
                harmonic_shifted(Fraction(1), -1)
            with pytest.raises(ValueError):
                harmonic_shifted(-2, 3)


class TestHarmonics:
    def test_harmonic_values(self):
        assert harmonic(0) == 0
        assert harmonic(4) == Fraction(25, 12)

    def test_harmonic_shifted_values(self):
        assert harmonic_shifted(Fraction(2), 3) == Fraction(13, 12)
        # at a=1 the shifted sum is the plain harmonic number
        for n in range(8):
            assert harmonic_shifted(Fraction(1), n) == harmonic(n)

    def test_harmonic_shifted_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            harmonic_shifted(Fraction(0), 3)

    def test_harmonic_second_values(self):
        assert harmonic_second(3) == Fraction(49, 36)
        assert harmonic_second(1) == 1


def _shifted_sum(a, m) -> Fraction:
    return sum((Fraction(1) / (a + j) for j in range(m)), Fraction(0))


class TestScalarTables:
    """`rising_weights` and the harmonic numbers read growing tables, each
    entry one step from the one before it: asked in any order, from any
    thread, they give the from-scratch values, and they fill without
    recursion."""

    @given(st.one_of(rationals, st.integers(-12, 0)), st.permutations(range(16)))
    def test_rising_weights_match_the_quotient_in_any_order(self, a, order):
        # at a = 0 and at a negative integer, (a)_l vanishes from l = 1 - a on
        for n in order:
            expected = tuple(pochhammer(a, l) / math.factorial(l) for l in range(n + 1))
            assert rising_weights(a, n) == expected
            assert all(type(w) is Fraction for w in rising_weights(a, n))
        if a.denominator == 1:
            assert rising_weights(int(a), 15) == rising_weights(Fraction(a), 15)

    @given(st.fractions(min_value=Fraction(1, 12), max_value=40, max_denominator=12), st.permutations(range(16)))
    def test_harmonic_numbers_match_the_sums_in_any_order(self, a, order):
        for n in order:
            assert harmonic_shifted(a, n) == _shifted_sum(a, n)
            assert harmonic(n) == _shifted_sum(1, n)
            assert harmonic_second(n) == sum((Fraction(1, j * j) for j in range(1, n + 1)), Fraction(0))
        if a.denominator == 1:
            assert harmonic_shifted(int(a), 15) == harmonic_shifted(Fraction(a), 15) == _shifted_sum(a, 15)

    def test_large_indices_fill_without_recursion(self):
        assert len(rising_weights(Fraction(1, 3), 5000)) == 5001
        assert rising_weights(Fraction(1, 3), 5000)[5000] == pochhammer(Fraction(1, 3), 5000) / math.factorial(5000)
        assert harmonic(5000) - harmonic(4999) == Fraction(1, 5000)
        assert harmonic_second(5000) - harmonic_second(4999) == Fraction(1, 5000 ** 2)

    def test_threads_filling_one_table_agree(self):
        # a parameter no other test reads, so the threads fill its tables
        # together, one entry at a time, more threads than cores, switching
        # often: an entry appended twice would shift every later one
        a, top, count = Fraction(997, 991), 400, 4
        results: list = []

        def fill():
            for m in range(top + 1):
                rising_weights(a, m)
                harmonic_shifted(a, m)
            results.append((rising_weights(a, top), harmonic_shifted(a, top)))

        threads = [threading.Thread(target=fill) for _ in range(count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        expected = (tuple(pochhammer(a, l) / math.factorial(l) for l in range(top + 1)), _shifted_sum(a, top))
        assert results == [expected] * count

    def test_a_returned_series_cannot_change_the_table(self):
        a = Fraction(5, 7)
        weights = rising_weights(a, 6)
        with pytest.raises(TypeError):
            weights[2] = Fraction(0)  # a tuple, not the table itself
        assert rising_weights(a, 6) == weights and rising_weights(a, 6)[2] == a * (a + 1) / 2
        assert rising_weights(a, 9)[:7] == weights

    def test_the_input_rule_applies_before_any_table_is_read(self):
        # 0.5 and Fraction(1, 2) are equal and hash alike, and True reads as 1
        assert harmonic_shifted(Fraction(1, 2), 3) == Fraction(46, 15)
        for call in (lambda: harmonic(True), lambda: harmonic_second(True), lambda: harmonic_shifted(0.5, 3),
                     lambda: harmonic_shifted(Fraction(1), True), lambda: harmonic(2.0), lambda: rising_weights(0.5, 3),
                     lambda: rising_weights(True, 3), lambda: rising_weights(Fraction(1, 2), True),
                     lambda: rising_weights(Fraction(1, 2), -1), lambda: harmonic_shifted("1/2", 3)):
            with pytest.raises(ValueError):
                call()


class TestPolynomials:
    def test_constructor_trims_and_converts(self):
        assert poly([1, 0, 0]) == (Fraction(1),)
        assert poly([]) == ZERO
        assert poly([0]) == ZERO

    def test_eval_frozen(self):
        p = poly([Fraction(1, 6), -1, 1])
        assert poly_eval(p, Fraction(1, 2)) == Fraction(-1, 12)

    @given(small_polys, small_polys, rationals)
    def test_add_matches_pointwise(self, p, q, x):
        assert poly_eval(poly_add(p, q), x) == poly_eval(p, x) + poly_eval(q, x)

    @given(small_polys, small_polys, rationals)
    def test_mul_matches_pointwise(self, p, q, x):
        assert poly_eval(poly_mul(p, q), x) == poly_eval(p, x) * poly_eval(q, x)

    @given(small_polys, rationals, rationals)
    def test_shift_is_argument_translation(self, p, u, x):
        assert poly_eval(poly_shift(p, u), x) == poly_eval(p, x + u)

    @given(small_polys, rationals)
    def test_scale_matches_pointwise(self, p, c):
        assert poly_scale(c, p) == poly_mul(poly([c]), p)

    @given(small_polys, small_polys)
    def test_sub_inverts_add(self, p, q):
        assert poly_sub(poly_add(p, q), q) == p

    def test_derivative_power_rule(self):
        assert poly_derivative(poly([5, 0, 0, 2])) == poly([0, 0, 6])
        assert poly_derivative(ONE) == ZERO
        assert poly_derivative(ZERO) == ZERO

    @given(small_polys, small_polys)
    def test_derivative_product_rule(self, p, q):
        lhs = poly_derivative(poly_mul(p, q))
        rhs = poly_add(poly_mul(poly_derivative(p), q), poly_mul(p, poly_derivative(q)))
        assert lhs == rhs


class TestIntegerKernel:
    @given(st.lists(st.tuples(scalars, st.one_of(small_polys, wide_polys)), max_size=8))
    def test_lincomb_matches_fold(self, terms):
        out = poly_lincomb(terms)
        assert out == _fold(terms)
        assert _all_fractions(out)
        assert poly_lincomb(iter(terms)) == out

    def test_lincomb_of_nothing_is_zero(self):
        p = poly([Fraction(1, 3), 2])
        assert poly_lincomb([]) == ZERO
        assert poly_lincomb([(5, ZERO), (0, p), (Fraction(0), p)]) == ZERO

    @given(scalars, st.one_of(small_polys, wide_polys), st.one_of(small_polys, wide_polys))
    def test_lincomb_cancels_to_zero(self, c, p, q):
        assert poly_lincomb([(c, p), (1, q), (-c, p), (-1, q)]) == ZERO

    def test_lincomb_trims_cancelled_leading_terms(self):
        p = poly([1, Fraction(2, 3), Fraction(5, 7), 4])
        q = poly([Fraction(1, 2), Fraction(2, 3), 1, 2])
        out = poly_lincomb([(1, p), (-2, q)])
        assert out == poly([0, Fraction(-2, 3), Fraction(-9, 7)])
        assert len(out) == 3

    @given(st.one_of(small_polys, wide_polys), st.one_of(small_polys, wide_polys))
    def test_mul_matches_schoolbook(self, p, q):
        out = poly_mul(p, q)
        assert out == _schoolbook_mul(p, q)
        assert _all_fractions(out)

    def test_mul_frozen(self):
        assert poly_mul(poly([Fraction(-1, 2), 1]), poly([Fraction(1, 3), 1])) == poly(
            [Fraction(-1, 6), Fraction(-1, 6), 1]
        )
        assert poly_mul(ZERO, ONE) == ZERO

    @given(st.lists(st.one_of(small_polys, wide_polys), max_size=5), st.integers(-1, 12))
    def test_series_product_matches_truncated_fold(self, factors, d):
        full = ONE
        for f in factors:
            full = poly_mul(full, f)
        out = series_product(factors, d)
        assert out == poly(full[: d + 1])
        assert _all_fractions(out)
        assert series_product(iter(factors), d) == out

    def test_series_product_frozen(self):
        # 1/(1 - t) squared is sum (m + 1) t^m
        geometric = poly([1] * 8)
        assert series_product((geometric, geometric), 4) == poly([1, 2, 3, 4, 5])
        # a product whose kept coefficients cancel comes back trimmed
        assert series_product((poly([0, 0, 1]), poly([1, 1])), 1) == ZERO
        assert series_product((), 3) == ONE
        assert series_product((geometric,), -1) == ZERO

    @settings(max_examples=150, deadline=None)
    @given(subset_series_cases())
    def test_subset_series_matches_the_subset_walk(self, case):
        factors, shifts, d = case
        out = subset_series(factors, shifts, d)
        assert out == poly(subset_walk(factors, shifts, d))
        assert _all_fractions(out)

    def test_subset_series_frozen(self):
        geometric = poly([1] * 8)
        # (1/(1-t) + t)^2 - 1/(1-t)^2 = 2t/(1-t) + t^2 = 2t + 3t^2 + 2t^3 + ...
        assert subset_series([geometric] * 2, [(0, 1)] * 2, 3) == poly([0, 2, 3, 2])
        # (A - 2)^2 - A^2 = 4 - 4A
        assert subset_series([geometric] * 2, [(-2,)] * 2, 2) == poly([0, -4, -4])
        assert subset_series([], [], 3) == ZERO
        assert subset_series([geometric], [ZERO], 5) == ZERO
        with pytest.raises(ValueError):
            subset_series([geometric], [], 2)

    @given(st.one_of(small_polys, wide_polys), st.lists(scalars, max_size=4), scalars, scalars)
    def test_shift_operator_matches_fold(self, p, shifts, alpha, beta):
        # (alpha, beta) with distinct denominators exercise their common one
        expected = p
        for u in shifts:
            expected = poly_add(poly_scale(alpha, poly_shift(expected, u)), poly_scale(beta, expected))
        out = poly_shift_operator(p, shifts, alpha, beta)
        assert out == expected
        assert _all_fractions(out)

    def test_shift_operator_frozen(self):
        p = poly([Fraction(1, 3), -2, 0, 1])
        # (T_1 - 1)(x^3 - 2x + 1/3) = 3x^2 + 3x - 1, and a second step gives 6x + 6
        assert poly_shift_operator(p, (1,), 1, -1) == poly([-1, 3, 3])
        assert poly_shift_operator(p, (1, 1), 1, -1) == poly([6, 6])
        # the mean (p(x) + p(x + 2))/2 = x^3 + 3x^2 + 4x + 7/3
        assert poly_shift_operator(p, (2,), Fraction(1, 2), Fraction(1, 2)) == poly([Fraction(7, 3), 4, 3, 1])
        assert poly_shift_operator(p, (Fraction(1, 3), Fraction(-1, 2)), 1, 0) == poly_shift(p, Fraction(-1, 6))
        assert poly_shift_operator(p, (), 5, 7) == p
        assert poly_shift_operator(ZERO, (1, 2), 1, -1) == ZERO


# The k-fold entries, whose lines' products `series_work` bounds, and the
# slot parameters their lines take: each k takes the first k of the cycle.
K_FOLD = ("theorem2", "theorem4", "kth-matiyasevich")
SLOT_CYCLE = (Fraction(7, 3), Fraction(5, 4), Fraction(1, 2), Fraction(1), Fraction(2)) * 4


class TestSeriesWork:
    """`series_work` bounds the integer coefficient products that
    `_mul_into` forms for a one-point line of each k-fold entry, and a line
    forms the products of its largest n once, so a line forms no more than
    the sum of the bound over its points.  A change that forms more
    products than the bound, or a bound that drops one, fails here."""

    # gapped, unsorted and repeated lines, and the default grids' shape
    LINES = ([3, 7, 12, 30], [30, 2, 2, 17], [20, 0], list(range(0, 15)), [5, 5, 5])

    @pytest.fixture
    def counted(self, monkeypatch):
        """The products `_mul_into` forms, in a one-entry list."""
        count = [0]
        mul_into = exactmath._mul_into

        def counting(out, p, q):
            count[0] += sum(max(min(len(q), len(out) - i), 0) for i, a in enumerate(p) if a)
            mul_into(out, p, q)

        monkeypatch.setattr(exactmath, "_mul_into", counting)
        return count

    @staticmethod
    def _count(counted, name, ns, k):
        """The products of one line of the entry, both sides."""
        (_, fn), = REGISTRY[name].displays
        counted[0] = 0
        fn(ns, k) if name == "kth-matiyasevich" else fn(ns, SLOT_CYCLE[:k], k)
        return counted[0]

    def test_a_point_is_within_the_bound(self, counted):
        for name in K_FOLD:
            for k in range(REGISTRY[name].k_min, 9):
                for n in range(0, 31, 5):
                    count, work = self._count(counted, name, [n], k), series_work(k, n)
                    assert count <= work, (name, k, n)
                    # and the bound is not loose where the cap is set: the
                    # products of k series are most of it at large k
                    assert k < 8 or n < 5 or 2 * count > work, (name, k, n)
        assert [series_work(k, -1) for k in (1, 2, 16)] == [0, 0, 0]

    def test_a_line_forms_its_largest_point_once(self, counted):
        for name in K_FOLD:
            for k in range(REGISTRY[name].k_min, 6):
                for ns in self.LINES:
                    count = self._count(counted, name, ns, k)
                    assert count == self._count(counted, name, [max(ns)], k), (name, k, ns)
                    assert count <= sum(series_work(k, n) for n in ns), (name, k, ns)


def _private_kernel_imports(source: str) -> list[str]:
    """The `_`-prefixed names of `bek.exactmath` that a module imports, or
    reads off a module alias of it."""
    tree = ast.parse(source)
    found, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.level == 1 and node.module == "exactmath") or node.module == "bek.exactmath":
                found += [a.name for a in node.names if a.name.startswith("_")]
            elif (node.level == 1 and node.module is None) or node.module == "bek":
                aliases |= {a.asname or a.name for a in node.names if a.name == "exactmath"}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name == "bek.exactmath" and a.asname}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")):
            found.append(node.attr)
    return found


class TestLayering:
    """No other module imports a private name of the kernel (`_int_lincomb`,
    `_taylor_shift`, ...) or reads one off the module: the kernel's
    helpers are reached only through its public routines.  Integer
    numerators over one denominator do cross the boundary: the kernel's
    `int_form` forms them, `sequences.appell` takes them, and `identities`
    reads a line's Appell numbers in that form (`_appell_line`)."""

    def test_no_module_imports_a_private_kernel_name(self):
        package = Path(bek.__file__).parent
        offenders = {
            path.name: names
            for path in sorted(package.glob("*.py"))
            if path.name != "exactmath.py" and (names := _private_kernel_imports(path.read_text()))
        }
        assert offenders == {}

    @pytest.mark.parametrize("name, kernel", [("poly_add", "poly_lincomb"), ("poly_sub", "poly_lincomb"),
                                              ("poly_scale", "poly_lincomb"), ("poly_mul", "series_product")])
    def test_elementary_operations_are_one_kernel_call(self, name, kernel):
        # one implementation per job: a sum or a product of polynomials is
        # formed only by the integer-form kernel routines
        (node,) = [n for n in ast.parse(Path(exactmath.__file__).read_text()).body
                   if isinstance(n, ast.FunctionDef) and n.name == name]
        body = node.body[1:] if ast.get_docstring(node) else node.body
        (stmt,) = body
        assert isinstance(stmt, ast.Return) and isinstance(stmt.value, ast.Call)
        assert getattr(stmt.value.func, "id", None) == kernel

    def test_the_kernel_keeps_one_series_representation(self):
        # every left side is a product of number series: no function of the
        # kernel takes a family of polynomials, the one memo is a scalar's,
        # and the one work count is the number series'
        functions = {node.name: node for node in ast.parse(Path(exactmath.__file__).read_text()).body
                     if isinstance(node, ast.FunctionDef)}
        assert not [name for name, node in functions.items() if "family" in (arg.arg for arg in node.args.args)]
        assert [name for name, node in functions.items() if node.decorator_list] == ["_pochhammer"]
        assert [name for name in functions if "work" in name] == ["series_work"]

    def test_the_scan_sees_each_form_of_import(self):
        assert _private_kernel_imports("from .exactmath import Poly, _int_lincomb, _taylor_shift") == [
            "_int_lincomb", "_taylor_shift"]
        assert _private_kernel_imports("from bek.exactmath import _from_int_form") == ["_from_int_form"]
        assert _private_kernel_imports("from . import exactmath as em\nem._int_lincomb(terms)") == ["_int_lincomb"]
        assert _private_kernel_imports("import bek.exactmath as em\nem._taylor_shift(n, u)") == ["_taylor_shift"]
        assert _private_kernel_imports("from .exactmath import poly_shift_operator\nfrom .sequences import _x") == []



# The number kinds of the package's one input rule.
KINDS = ("Integral", "Rational", "Real")


def _kinds_outside_the_rule(source: str) -> list[str]:
    """Each use of a number kind (by name, or as an attribute such as
    `numbers.Rational`) that is not an argument of `is_exact` or
    `as_exact`, as source text; imports are not uses."""
    tree = ast.parse(source)
    allowed = {id(arg) for node in ast.walk(tree) if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("is_exact", "as_exact")
               for arg in node.args}
    return [ast.unparse(node) for node in ast.walk(tree)
            if (getattr(node, "id", None) in KINDS or isinstance(node, ast.Attribute) and node.attr in KINDS)
            and id(node) not in allowed]


class TestOneInputRule:
    """What counts as an integer or a rational input is stated once, by
    `is_exact` and `as_exact`: a `numbers` kind, never a bool.  Every
    other module states it through them."""

    ACCEPTED = {
        numbers.Integral: (0, -3, 10**30, np.int64(4), np.int32(-1), np.uint8(7)),
        numbers.Rational: (0, -3, np.int64(4), Fraction(1, 3), Fraction(-7, 2), bek.Rational(5)),
        numbers.Real: (0, np.int64(4), Fraction(1, 3), 0.5, float("nan"), float("-inf"), np.float64(2.5)),
    }
    REFUSED = {
        numbers.Integral: (True, False, np.bool_(True), 1.0, 1.5, Fraction(1), Fraction(3, 2), "2", None, 1j),
        numbers.Rational: (True, False, 0.5, 1.0, float("nan"), np.float64(0.5), "1/2", "1", None, 1j),
        numbers.Real: (True, False, "1", "0.5", None, 1j, Fraction),
    }

    @pytest.mark.parametrize("kind", list(ACCEPTED), ids=lambda kind: kind.__name__)
    def test_is_exact(self, kind):
        assert all(is_exact(v, kind) for v in self.ACCEPTED[kind])
        assert not any(is_exact(v, kind) for v in self.REFUSED[kind])

    def test_as_exact_converts_after_checking_every_value(self):
        ints = as_exact((np.int64(4), 2, np.uint8(7)), numbers.Integral, "n")
        assert ints == (4, 2, 7) and all(type(v) is int for v in ints)
        fracs = as_exact((np.int64(4), 2, Fraction(1, 3)), numbers.Rational, "shape")
        assert fracs == (4, 2, Fraction(1, 3)) and all(type(v) is Fraction for v in fracs)
        # built from int parts: Fraction(np.int64(4)) keeps the NumPy numerator
        assert all(type(v.numerator) is int and type(v.denominator) is int for v in fracs)
        assert as_exact(iter(()), numbers.Integral, "n") == ()

    @pytest.mark.parametrize("kind, what, expected", [
        (numbers.Integral, "exponent", "an integer"), (numbers.Rational, "verify_lemma2 weight", "a rational number")])
    def test_as_exact_names_what_and_the_value(self, kind, what, expected):
        for v in self.REFUSED[kind]:
            with pytest.raises(ValueError) as refused:
                as_exact((1, v), kind, what)
            assert str(refused.value) == f"{what} {v!r} is not {expected}"

    def test_the_rule_is_stated_once(self):
        package = Path(bek.__file__).parent
        offenders = {path.name: uses for path in sorted(package.glob("*.py"))
                     if path.name != "exactmath.py" and (uses := _kinds_outside_the_rule(path.read_text()))}
        assert offenders == {}
        defined = {(path.name, node.name) for path in package.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.FunctionDef)}
        assert not defined & {("identities.py", "_is_int"), ("stochastic.py", "_exact")}

    def test_the_scan_sees_each_use_of_a_kind(self):
        assert _kinds_outside_the_rule("from numbers import Integral\nas_exact(v, Integral, 'n')") == []
        assert _kinds_outside_the_rule("is_exact(v, numbers.Rational) and is_exact(w, Real)") == []
        assert _kinds_outside_the_rule("isinstance(v, Integral)") == ["Integral"]
        assert _kinds_outside_the_rule("isinstance(v, numbers.Rational)") == ["numbers.Rational"]
        assert _kinds_outside_the_rule("kinds = (Real,)\nis_exact(v, kinds[0])") == ["Real"]
        assert _kinds_outside_the_rule("as_exact((Integral,), Rational, 'x')") == ["Integral"]
