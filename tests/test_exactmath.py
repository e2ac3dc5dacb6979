"""Unit tests for the exact arithmetic kernel."""

from __future__ import annotations

import ast
import inspect
import math
import textwrap
from fractions import Fraction
from functools import lru_cache, reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bek
from bek import exactmath
from bek.exactmath import (
    ONE,
    ZERO,
    binomial,
    convolution_coefficient,
    convolution_work,
    harmonic,
    harmonic_second,
    harmonic_shifted,
    pochhammer,
    poly,
    poly_add,
    poly_compose_linear,
    poly_eval,
    poly_lincomb,
    poly_mul,
    poly_scale,
    poly_shift,
    poly_shift_operator,
    poly_sub,
    series_product,
    subset_series,
)
from bek.sequences import bernoulli_poly, euler_poly
from walks import composition_parts, poly_derivative, subset_walk

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


@lru_cache(maxsize=None)
def _walk_product(family, parts):
    return reduce(poly_mul, map(family, parts), ONE)


def _composition_walk(family, n, weights, scale):
    """scale * sum over the weak compositions l of n of prod_i w_i[l_i]
    times the poly_mul fold of the family(l_i): the walk that
    convolution_coefficient replaces."""
    terms = []
    for parts in composition_parts(n, len(weights)):
        c = math.prod(w[l] for w, l in zip(weights, parts))
        terms.append((scale * c, _walk_product(family, tuple(sorted(parts)))))
    return poly_lincomb(terms)


@st.composite
def convolutions(draw):
    """A family, n <= 14 and k = 1..5 slots of signed rational weights, and
    a scale.  A slot may be all zero or zero at the middle index n // 2,
    and the slots may all be one list, as in the equal-slot left sides."""
    family = draw(st.sampled_from([bernoulli_poly, euler_poly]))
    n = draw(st.integers(0, 14))
    full = st.lists(st.one_of(rationals, wide_rationals), min_size=n + 1, max_size=n + 1)
    middle_zero = full.map(lambda w: [*w[: n // 2], Fraction(0), *w[n // 2 + 1:]])
    slot = st.one_of(full, middle_zero, st.just([Fraction(0)] * (n + 1)), st.just([0] * (n + 1)))
    k = draw(st.integers(1, 5))
    weights = [draw(slot)] * k if draw(st.booleans()) else draw(st.lists(slot, min_size=k, max_size=k))
    return family, n, weights, draw(scalars)


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

    def test_pochhammer_is_memoized_on_integers(self):
        exactmath._pochhammer.cache_clear()
        assert pochhammer(Fraction(3), 4) == pochhammer(3, 4) == 360
        assert pochhammer(Fraction(6, 4), 2) == pochhammer(1.5, 2) == Fraction(15, 4)
        info = exactmath._pochhammer.cache_info()
        assert (info.currsize, info.misses, info.hits) == (2, 2, 2)
        assert all(type(pochhammer(z, 3)) is Fraction for z in (2, Fraction(2), Fraction(1, 3)))

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


class TestPolynomials:
    def test_constructor_trims_and_converts(self):
        assert poly([1, 0, 0]) == (Fraction(1),)
        assert poly([]) == ZERO
        assert poly([0]) == ZERO

    def test_eval_frozen(self):
        p = poly([Fraction(1, 6), -1, 1])
        assert poly_eval(p, Fraction(1, 2)) == Fraction(-1, 12)

    def test_compose_linear_frozen(self):
        p = poly([Fraction(1, 6), -1, 1])
        assert poly_compose_linear(p, 2) == poly([Fraction(1, 6), -2, 4])

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

    @settings(max_examples=80, deadline=None)
    @given(convolutions())
    def test_convolution_coefficient_matches_the_composition_walk(self, case):
        family, n, weights, scale = case
        out = convolution_coefficient(family, n, weights, scale)
        assert out == _composition_walk(family, n, weights, scale)
        assert _all_fractions(out)

    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("family", [bernoulli_poly, euler_poly])
    def test_convolution_coefficient_at_odd_and_even_n(self, family, n, k):
        # equal slots, distinct slots, and a zero at the middle index
        ramp = [Fraction(l + 1, 2 * l + 3) for l in range(n + 1)]
        other = [Fraction(3 - l, l + 2) for l in range(n + 1)]
        holed = [*ramp[: n // 2], 0, *ramp[n // 2 + 1:]]
        for weights in ([ramp] * k, [ramp, other, *[holed] * (k - 2)], [holed, *[other] * (k - 1)]):
            assert convolution_coefficient(family, n, weights, 3) == _composition_walk(family, n, weights, 3)

    def test_convolution_coefficient_frozen(self):
        # one slot reads off its last term: 2 * 1/2 * B_2(x)
        assert convolution_coefficient(bernoulli_poly, 2, [[5, 7, Fraction(1, 2)]], 2) == bernoulli_poly(2)
        # two slots of ones: B_0 B_2 + B_1 B_1 + B_2 B_0 = 3x^2 - 3x + 7/12
        assert convolution_coefficient(bernoulli_poly, 2, [[1, 1, 1]] * 2, 1) == poly([Fraction(7, 12), -3, 3])
        assert convolution_coefficient(bernoulli_poly, 2, [[1, 1, 1], [0, 0, 0], [1, 1, 1]], 1) == ZERO
        assert convolution_coefficient(bernoulli_poly, -1, [[]] * 2, 1) == ZERO
        with pytest.raises(ValueError):
            convolution_coefficient(bernoulli_poly, 2, [], 1)
        with pytest.raises(ValueError):
            convolution_coefficient(bernoulli_poly, 2, [[1, 1, 1], [1, 1]], 1)

    def test_each_family_and_degree_has_its_own_forms(self):
        exactmath._family_forms.cache_clear()
        calls = [(bernoulli_poly, 5), (euler_poly, 5), (bernoulli_poly, 4), (euler_poly, 4)]
        for family, n in calls * 2:
            convolution_coefficient(family, n, [[1] * (n + 1)] * 2, 1)
        info = exactmath._family_forms.cache_info()
        assert (info.currsize, info.misses, info.hits) == (4, 4, 4)
        for family, n in calls:
            nums, den = exactmath._family_forms(family, n)
            assert [tuple(Fraction(v, den) for v in p) for p in nums] == [family(l) for l in range(n + 1)]

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


def _mutant_pair_kernel(old: str, new: str):
    """A copy of `exactmath._paired_coefficient` with `old` replaced by
    `new` in its source, compiled against the module's names."""
    source = textwrap.dedent(inspect.getsource(exactmath._paired_coefficient))
    assert source.count(old) == 1
    namespace = dict(vars(exactmath))
    exec(source.replace(old, new), namespace)
    return namespace["_paired_coefficient"]


class TestPairedKernelMutations:
    """Each unordered pair of polynomials is multiplied once, weighted by
    w0[l] w1[m] + w0[m] w1[l], and the middle pair l = m once: breaking
    either in a copy of the kernel is caught against the composition walk."""

    CASES = [(family, n, weights) for family in (bernoulli_poly, euler_poly) for n in (4, 5)
             for weights in ([[Fraction(l + 1, 3) for l in range(n + 1)], [Fraction(2, l + 1) for l in range(n + 1)]],
                             [[Fraction(l + 1, 3) for l in range(n + 1)]] * 3)]

    def _caught(self, monkeypatch, kernel):
        monkeypatch.setattr(exactmath, "_paired_coefficient", kernel)
        return [(family, n, len(weights)) for family, n, weights in self.CASES
                if convolution_coefficient(family, n, weights, 1) != _composition_walk(family, n, weights, 1)]

    def test_the_unmutated_copy_agrees(self, monkeypatch):
        assert self._caught(monkeypatch, _mutant_pair_kernel("if l < m else", "if l < m else")) == []

    def test_middle_pair_counted_twice(self, monkeypatch):
        caught = self._caught(monkeypatch, _mutant_pair_kernel("if l < m else", "if l <= m else"))
        # an even n has a middle pair at the top; three slots meet one in the prefix at every n
        assert caught == [(f, n, k) for f in (bernoulli_poly, euler_poly) for n, k in ((4, 2), (4, 3), (5, 3))]

    def test_swapped_term_dropped(self, monkeypatch):
        caught = self._caught(monkeypatch, _mutant_pair_kernel("w0[l] * w1[m] + w0[m] * w1[l]", "w0[l] * w1[m]"))
        assert caught == [(f, n, k) for f in (bernoulli_poly, euler_poly) for n in (4, 5) for k in (2, 3)]


class TestConvolutionWork:
    """`convolution_work` bounds the integer coefficient products that
    `_mul_into` forms for one `convolution_coefficient`, and meets the count
    at n = 0 from two slots on, so a kernel change that forms more products
    than the bound, or a bound that drops one, fails here."""

    def test_the_count_is_within_the_bound(self, monkeypatch):
        count = 0
        mul_into = exactmath._mul_into

        def counted(out, p, q):
            nonlocal count
            count += sum(max(min(len(q), len(out) - i), 0) for i, a in enumerate(p) if a)
            mul_into(out, p, q)

        monkeypatch.setattr(exactmath, "_mul_into", counted)
        for family in (bernoulli_poly, euler_poly):
            for k in range(1, 9):
                for n in range(0, 31, 5):
                    count = 0
                    convolution_coefficient(family, n, [[1] * (n + 1)] * k, 1)
                    work = convolution_work(k, n)
                    assert count <= work, (family.__name__, k, n)
                    # one slot only scales P_n, and forms no product
                    assert n or count == (work if k >= 2 else 0), (family.__name__, k, n)
        assert [convolution_work(k, -1) for k in (1, 2, 16)] == [0, 0, 0]


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
    """The kernel's integer-numerator format (`_int_form`, `_taylor_shift`,
    ...) is known to `bek.exactmath` alone: other modules reach it only
    through the kernel's public routines."""

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

    def test_the_scan_sees_each_form_of_import(self):
        assert _private_kernel_imports("from .exactmath import Poly, _int_form, _taylor_shift") == [
            "_int_form", "_taylor_shift"]
        assert _private_kernel_imports("from bek.exactmath import _from_int_form") == ["_from_int_form"]
        assert _private_kernel_imports("from . import exactmath as em\nem._int_form(p)") == ["_int_form"]
        assert _private_kernel_imports("import bek.exactmath as em\nem._taylor_shift(n, u)") == ["_taylor_shift"]
        assert _private_kernel_imports("from .exactmath import poly_shift_operator\nfrom .sequences import _x") == []
