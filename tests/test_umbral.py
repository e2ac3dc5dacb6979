"""Unit tests for the symbolic moment layer and its operator lemmas."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import bek.umbral as umbral
from bek.exactmath import (
    ZERO,
    _from_int_form,
    _int_form,
    _taylor_shift,
    poly,
    poly_add,
    poly_lincomb,
    poly_scale,
    poly_shift,
    poly_sub,
    subset_series,
)
from bek.sequences import bernoulli_number, bernoulli_poly, euler_poly, euler_poly_at_zero
from bek.umbral import (
    DifferenceOp,
    OpVariant,
    SymbolId,
    SymbolKind,
    UmbralExpr,
    X,
    apply_delta,
    bernoulli_symbol,
    discrete_mean,
    discrete_symbol,
    euler_symbol,
    forward_difference,
    umbral_eval,
    umbral_moment_eval,
    umbral_pow,
    umbral_substitute,
    uniform_symbol,
    verify_annihilation,
    verify_general_f,
    verify_lemma1,
    verify_lemma2,
    verify_lemma3,
    verify_lemma4,
)
from walks import composition_parts, multinomial, poly_derivative

F = Fraction


def _rand_fracs(seed: int, count: int, nonzero: bool = False) -> list[Fraction]:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        v = F(rng.randint(-6, 6), rng.randint(1, 6))
        if nonzero and v == 0:
            continue
        out.append(v)
    return out


def _sum_one_tuples(seed: int, k: int, count: int) -> list[tuple[Fraction, ...]]:
    tuples = []
    rng_values = _rand_fracs(seed, count * max(k - 1, 1))
    for i in range(count):
        head = rng_values[i * (k - 1):(i + 1) * (k - 1)] if k > 1 else []
        tuples.append(tuple(head) + (1 - sum(head, F(0)),))
    return tuples


class TestExpressionAlgebra:
    def test_equality_ignores_term_order(self):
        b = bernoulli_symbol()
        e1 = umbral_pow([(1, X), (1, b)], 2)
        e2 = umbral_pow([(1, b), (1, X)], 2)
        assert e1 == e2

    def test_linear_ops(self):
        b = bernoulli_symbol()
        p1 = umbral_pow([(1, X), (1, b)], 3)
        doubled = p1 + p1
        assert doubled == 2 * p1
        assert p1 - p1 == UmbralExpr.zero()
        assert umbral_eval(p1 * UmbralExpr.constant(F(2))) == poly_scale(2, bernoulli_poly(3))

    def test_duplicate_symbols_merge(self):
        b = bernoulli_symbol()
        merged = umbral_pow([(F(1, 2), b), (F(1, 2), b)], 5)
        assert umbral_eval(merged) == poly([bernoulli_number(5)])


class TestMoments:
    def test_basic_moments(self):
        for n in range(12):
            assert umbral_eval(umbral_pow([(1, bernoulli_symbol())], n)) == poly([bernoulli_number(n)])
            assert umbral_eval(umbral_pow([(1, euler_symbol())], n)) == poly([euler_poly_at_zero(n)])
            assert umbral_eval(umbral_pow([(1, uniform_symbol())], n)) == poly([F(1, n + 1)])
        assert umbral_eval(umbral_pow([(1, discrete_symbol())], 0)) == poly([1])
        for n in range(1, 12):
            assert umbral_eval(umbral_pow([(1, discrete_symbol())], n)) == poly([F(1, 2)])

    def test_independent_symbols_multiply(self):
        b1, b2 = bernoulli_symbol(1), bernoulli_symbol(2)
        e = umbral_pow([(1, b1), (1, b2)], 2)
        expected = (
            bernoulli_number(2)
            + 2 * bernoulli_number(1) * bernoulli_number(1)
            + bernoulli_number(2)
        )
        assert umbral_eval(e) == poly([expected])

    def test_same_index_symbols_share_moments(self):
        # (B + B)^2 with one symbol is (2B)^2 -> 4 B_2, not the square of pairs
        b = bernoulli_symbol()
        assert umbral_eval(umbral_pow([(1, b), (1, b)], 2)) == poly([4 * bernoulli_number(2)])

    def test_shift_correspondence(self):
        for n in range(16):
            assert umbral_eval(umbral_pow([(1, X), (1, bernoulli_symbol())], n)) == bernoulli_poly(n)
            assert umbral_eval(umbral_pow([(1, X), (1, euler_symbol())], n)) == euler_poly(n)

    def test_scaled_argument(self):
        # (x + u B)^n evaluates to u^n B_n(x/u) for u != 0
        u = F(2, 3)
        for n in range(8):
            got = umbral_eval(umbral_pow([(1, X), (u, bernoulli_symbol())], n))
            explicit = poly_scale(
                u ** n,
                poly([c * (1 / u) ** i for i, c in enumerate(bernoulli_poly(n))]),
            )
            assert got == explicit

    def test_substitute_matches_pow_combination(self):
        f = poly([F(3), 0, F(-1, 2), 1])
        affine = [(1, X), (F(1, 2), bernoulli_symbol())]
        via_sub = umbral_eval(umbral_substitute(f, affine))
        via_pow = ZERO
        for m, c in enumerate(f):
            via_pow = poly_add(via_pow, poly_scale(c, umbral_eval(umbral_pow(affine, m))))
        assert via_sub == via_pow


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
symbols = st.builds(SymbolId, st.sampled_from(list(SymbolKind)), st.integers(0, 2))


@st.composite
def affine_forms(draw):
    """Symbol terms of all four kinds, some repeated and some cancelling to
    a zero coefficient, plus an x term that is absent, 0, 1 or non-unit."""
    terms = []
    for sid in draw(st.lists(symbols, max_size=4)):
        c = draw(rationals)
        terms.append((c, sid))
        if draw(st.booleans()):
            terms.append((draw(st.sampled_from([-c, c, F(1, 2)])), sid))
    x_coeff = draw(st.sampled_from([None, F(0), F(1), F(-3, 2), F(2)]))
    if x_coeff is not None:
        terms.insert(draw(st.integers(0, len(terms))), (x_coeff, X))
    return terms


def _oracle_agrees(f, affine) -> bool:
    """The moment evaluation of f at the affine form equals the evaluated
    expansion."""
    return umbral_moment_eval(f, affine) == umbral_eval(umbral_substitute(f, affine))


class TestMomentEval:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(rationals, max_size=13).map(poly), affine_forms())
    def test_matches_expansion_oracle(self, f, affine):
        assert _oracle_agrees(f, affine)

    def test_zero_polynomial_and_constant(self):
        affine = [(1, X), (F(1, 3), euler_symbol())]
        assert umbral_moment_eval(ZERO, affine) == ZERO
        assert umbral_moment_eval(poly([F(5, 2)]), affine) == poly([F(5, 2)])

    def test_shift_correspondence(self):
        for n in range(16):
            monomial = poly([0] * n + [1])
            assert umbral_moment_eval(monomial, [(1, X), (1, bernoulli_symbol())]) == bernoulli_poly(n)
            assert umbral_moment_eval(monomial, [(1, X), (1, euler_symbol())]) == euler_poly(n)


def _walk_umbral_pow(affine, n):
    """The multinomial walk that the slot-by-slot expansion replaced, kept
    as the reference of umbral_pow: repeated terms merged, the x slot first
    and the symbols in canonical order, then one term C(n; e) prod_i c_i^e_i
    per weak composition e of n over the slots."""
    x_coeff, sym_coeffs = F(0), {}
    for c, s in affine:
        if s is X:
            x_coeff += c
        else:
            sym_coeffs[s] = sym_coeffs.get(s, F(0)) + c
    slots = [(x_coeff, None)] + sorted(((c, s) for s, c in sym_coeffs.items() if c),
                                       key=lambda slot: (slot[1].kind.value, slot[1].index))
    terms = {}
    for parts in composition_parts(n, len(slots)):
        coeff = F(multinomial(n, parts))
        for (c, _), e in zip(slots, parts):
            coeff *= c ** e
        if coeff:
            terms[parts[0], tuple((s, e) for (_, s), e in zip(slots[1:], parts[1:]) if e)] = coeff
    return UmbralExpr(terms)


class TestExpansionAgainstTheWalk:
    @settings(max_examples=150, deadline=None)
    @given(affine_forms(), st.integers(0, 12))
    def test_pow_matches_the_walk(self, affine, n):
        got = umbral_pow(affine, n)
        assert got == _walk_umbral_pow(affine, n)
        assert all(type(c) is F and c for c in got.terms.values())

    @settings(max_examples=100, deadline=None)
    @given(st.lists(rationals, max_size=13).map(poly), affine_forms())
    def test_substitute_matches_the_walk(self, f, affine):
        expected = UmbralExpr.zero()
        for m, c in enumerate(f):
            expected = expected + _walk_umbral_pow(affine, m) * c
        assert umbral_substitute(f, affine) == expected

    def test_shifted_symbols_match_the_walk(self):
        # the powers (x + S)^n of the symbol evaluations, to the top degree
        # of the acceptance criterion
        for symbol in (bernoulli_symbol(), euler_symbol()):
            for n in range(31):
                affine = [(1, X), (1, symbol)]
                assert umbral_pow(affine, n) == _walk_umbral_pow(affine, n)

    def test_empty_form_and_negative_power(self):
        assert umbral_pow([], 0) == UmbralExpr.constant(1)
        assert umbral_pow([(F(1, 2), X), (F(-1, 2), X)], 3) == UmbralExpr.zero()
        assert umbral_substitute(ZERO, [(1, X), (1, bernoulli_symbol())]) == UmbralExpr.zero()
        with pytest.raises(ValueError):
            umbral_pow([(1, X)], -1)

    # Each form's last slot has a non-zero moment sum over the dropped terms
    # c^m f_m S^m.
    MUTATION_CASES = [
        (poly([0, 0, 1]), [(1, X), (1, bernoulli_symbol())]),
        (poly([1, 2, 3]), [(F(1, 2), X), (1, uniform_symbol()), (F(2, 3), euler_symbol(1))]),
        (poly([0, 1]), [(3, discrete_symbol(2)), (1, X)]),
        (poly([0, 0, 0, 0, 1]), [(F(1, 2), bernoulli_symbol(1)), (F(-1, 3), bernoulli_symbol(2))]),
    ]

    def test_the_oracle_sees_a_dropped_top_term(self, monkeypatch):
        """Without the e = j term c^j S^j of its last slot the expansion no
        longer matches the moment evaluation."""
        original = umbral._expand_slot
        for f, affine in self.MUTATION_CASES:
            assert _oracle_agrees(f, affine)
            last = max((s for _, s in affine if s is not X), key=umbral._sym_key)

            def mutant(powers, c, sid, j, scale=1):
                out = original(powers, c, sid, j, scale)
                if sid == last:
                    del out[0, ((sid, j),) if j else ()]
                return out

            with monkeypatch.context() as mp:
                mp.setattr(umbral, "_expand_slot", mutant)
                assert not _oracle_agrees(f, affine)


class TestAnnihilation:
    def test_bernoulli_uniform(self):
        pair = (bernoulli_symbol(), uniform_symbol())
        assert all(verify_annihilation(pair, n) for n in range(1, 25))

    def test_euler_discrete(self):
        pair = (euler_symbol(), discrete_symbol())
        assert all(verify_annihilation(pair, n) for n in range(1, 25))

    def test_mismatched_pair_fails(self):
        # A mismatched pair still annihilates the odd powers, by reflection:
        # E[(B + D)^n] = (B_n(0) + B_n(1))/2 and
        # E[(T + U)^n] = (E_{n+1}(1) - E_{n+1}(0))/(n+1) vanish for odd n.
        for pair in [(bernoulli_symbol(), discrete_symbol()), (euler_symbol(), uniform_symbol())]:
            for n in range(1, 21):
                assert verify_annihilation(pair, n) == (n % 2 == 1)

    def test_requires_positive_power(self):
        with pytest.raises(ValueError):
            verify_annihilation((bernoulli_symbol(), uniform_symbol()), 0)


def _fraction_shift(p, u):
    """The Fraction double loop that the integer-numerator poly_shift
    replaced, kept as the reference Taylor shift."""
    if u == 0:
        return p
    out = [F(0)] * len(p)
    for i, c in enumerate(p):
        if c == 0:
            continue
        for j in range(i + 1):
            out[j] += c * math.comb(i, j) * F(u) ** (i - j)
    return poly(out)


def _fraction_apply_delta(op, p):
    """The Fraction apply_delta that the integer-numerator one replaced,
    kept as the reference operator composition."""
    for u in op.shifts:
        if op.variant is OpVariant.FORWARD:
            p = poly_sub(_fraction_shift(p, u), p)
        else:
            p = poly_scale(F(1, 2), poly_add(p, _fraction_shift(p, u)))
    return p


class TestDifferenceOperators:
    def test_forward_difference(self):
        p = poly([0, 0, 1])
        op = forward_difference(F(1))
        assert apply_delta(op, p) == poly([1, 2])

    def test_discrete_mean(self):
        p = poly([0, 1])
        op = discrete_mean(F(3))
        assert apply_delta(op, p) == poly([F(3, 2), 1])

    def test_composition_over_shifts(self):
        p = poly([1, -2, 0, 1])
        op = forward_difference(F(1, 2), F(1, 3))
        step1 = poly_sub(_fraction_shift(p, F(1, 2)), p)
        step2 = poly_sub(_fraction_shift(step1, F(1, 3)), step1)
        assert apply_delta(op, p) == step2

    def test_forward_equals_twice_centered_mean_minus_identity(self):
        p = poly([2, 0, 5, 1])
        u = F(2, 5)
        fwd = apply_delta(forward_difference(u), p)
        mean = apply_delta(discrete_mean(u), p)
        assert fwd == poly_sub(poly_scale(2, mean), poly_scale(2, p))


shift_values = st.one_of(
    st.just(F(0)),
    st.integers(-6, 6).map(F),
    st.fractions(min_value=-6, max_value=6, max_denominator=9),
)
shift_polys = st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12), max_size=15).map(poly)


class TestIntegerShiftOracle:
    """The integer-numerator Taylor shift against the Fraction reference.

    This oracle is needed because the lemma verifiers cannot catch a wrong
    shift direction: both sides of lemmas 1 and 3 use the same shift, and
    the lemmas hold for any family T_u with T_{u+v} = T_u T_v, the shift
    p(x) -> p(x - u) included.
    """

    @settings(max_examples=150, deadline=None)
    @given(shift_polys, st.lists(shift_values, min_size=1, max_size=5))
    def test_matches_fraction_reference(self, p, shifts):
        for u in shifts:
            got = poly_shift(p, u)
            assert got == _fraction_shift(p, u)
            assert all(type(c) is F for c in got)
        for variant in OpVariant:
            op = DifferenceOp(tuple(shifts), variant)
            got = apply_delta(op, p)
            assert got == _fraction_apply_delta(op, p)
            assert all(type(c) is F for c in got)

    def test_frozen_shifts(self):
        p = poly([F(1, 3), -2, 0, F(5, 7), 1])
        # p(x - 1/2), as SymPy expands it
        assert poly_shift(p, F(-1, 2)) == poly([F(439, 336), F(-55, 28), F(3, 7), F(-9, 7), 1])
        shifts = (F(0), F(-3, 4), F(5, 3), F(-2), F(1, 6))
        for variant in OpVariant:
            op = DifferenceOp(shifts, variant)
            assert apply_delta(op, p) == _fraction_apply_delta(op, p)
        assert apply_delta(forward_difference(F(0)), p) == ZERO
        assert apply_delta(discrete_mean(F(0)), p) == p
        assert apply_delta(forward_difference(F(2, 3)), ZERO) == ZERO


class TestLemmas:
    def test_lemma1_fixed_tuples(self):
        for k, shifts in [(1, (F(1),)), (2, (F(1, 2), F(1, 3))), (3, (F(1), F(-1, 2), F(2)))]:
            for m in range(7):
                assert verify_lemma1(k, shifts, poly([0] * m + [1]))

    def test_lemma3_fixed_tuples(self):
        for k, shifts in [(1, (F(1),)), (2, (F(1, 2), F(1, 3))), (3, (F(1), F(-1, 2), F(2))), (4, (F(1), F(1), F(1, 2), F(1, 4)))]:
            for m in range(7):
                assert verify_lemma3(k, shifts, poly([0] * m + [1]))

    def test_lemma2_random_sum_one_tuples(self):
        for k in (1, 2, 3):
            for u in _sum_one_tuples(7 * k, k, 5):
                for n in range(9):
                    assert verify_lemma2(k, u, n)

    def test_lemma2_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            verify_lemma2(2, (F(1), F(1)), 3)

    def test_lemma2_runs_outside_verify_general_f(self, monkeypatch):
        # a traced verify_general_f must not also count lemma 2's calls
        def refuse(*args):
            raise AssertionError("verify_lemma2 called verify_general_f")
        monkeypatch.setattr(umbral, "verify_general_f", refuse)
        assert verify_lemma2(2, (F(1, 3), F(2, 3)), 4)
        with pytest.raises(ValueError, match="verify_lemma2"):
            verify_lemma2(2, (F(1), F(1)), 3)

    def test_lemma4_random_sum_one_tuples(self):
        for k in (1, 2, 3):
            for u in _sum_one_tuples(11 * k, k, 5):
                for n in range(9):
                    assert verify_lemma4(k, u, n)

    def test_lemma4_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            verify_lemma4(2, (F(1), F(1)), 3)

    def test_general_f_polynomials(self):
        for k in (1, 2, 3):
            for i, u in enumerate(_sum_one_tuples(13 * k, k, 4)):
                f = poly(_rand_fracs(100 + i + k, 8))
                assert verify_general_f(k, u, f)

    def test_lemma1_detects_wrong_subset_weights(self):
        # dropping a subset breaks the identity; simulate by a wrong shift tuple
        # comparison: lemma statement with duplicated shift must still hold
        shifts = (F(1, 2), F(1, 2))
        for m in range(6):
            assert verify_lemma1(2, shifts, poly([0] * m + [1]))


def _anchor_swapped_to_euler(index: int = 0):
    return euler_symbol(0) if index == 0 else SymbolId(SymbolKind.BERNOULLI, index)


def _lemma4_with_signs(k, u, n, sign):
    """verify_lemma4 with the subset weight (-2)^{...} replaced by sign(j)."""
    es = [euler_symbol(i) for i in range(k + 1)]
    weighted = [(F(1), X)] + [(u[i], es[i + 1]) for i in range(k)]
    if k % 2 == 0:
        lhs = umbral_moment_eval(poly([0] * n + [n + 1]), weighted)
        anchor, power = bernoulli_symbol(0), n + 1
    else:
        lhs = umbral_moment_eval(poly([0] * n + [1]), weighted)
        anchor, power = es[0], n
    rhs = poly_lincomb(
        (sign(j), umbral_moment_eval(
            poly([0] * power + [1]),
            [(F(1), X), (F(1), anchor)] + [(u[i], es[i + 1]) for i in range(k) if i not in subset],
        ))
        for j in range(1, k + 1)
        for subset in itertools.combinations(range(k), j)
    )
    return lhs == rhs


class TestCorruptedLemmas:
    """Each rerouted verifier must reject its identity once corrupted."""

    TUPLES = [(F(1),), (F(1, 2), F(1, 2)), (F(3), F(-2)), (F(2, 3), F(-1, 3), F(2, 3)), (F(1, 4),) * 4]

    # A Bernoulli and an Euler symbol share the moments 1 and -1/2 of
    # orders 0 and 1, so the swapped anchor shows from n = 2 on.
    def test_lemma2_with_euler_anchor(self, monkeypatch):
        monkeypatch.setattr(umbral, "bernoulli_symbol", _anchor_swapped_to_euler)
        for u in self.TUPLES:
            got = [verify_lemma2(len(u), u, n) for n in range(10)]
            assert got == [True, True] + [False] * 8

    def test_general_f_with_euler_anchor(self, monkeypatch):
        monkeypatch.setattr(umbral, "bernoulli_symbol", _anchor_swapped_to_euler)
        for i, u in enumerate(self.TUPLES):
            for degree in range(2, 10):
                f = poly(_rand_fracs(300 + 10 * i + degree, degree, nonzero=True) + [F(1)])
                assert not verify_general_f(len(u), u, f)

    def test_subset_series_without_t1(self, monkeypatch):
        # the last symbol's egf loses its t^1 coefficient inside the subset
        # sum; at k = 1 the sum is the shift alone, whatever the egf is
        def corrupted(factors, shifts, d):
            factors = list(factors)
            factors[-1] = poly([factors[-1][0], 0, *factors[-1][2:]])
            return subset_series(factors, shifts, d)

        monkeypatch.setattr(umbral, "subset_series", corrupted)
        for i, u in enumerate(self.TUPLES):
            k = len(u)
            f = poly(_rand_fracs(400 + i, 5, nonzero=True) + [F(1)])
            got = [verify_lemma2(k, u, n) for n in range(2, 8)] + [verify_lemma4(k, u, n) for n in range(2, 8)]
            assert got + [verify_general_f(k, u, f)] == [k == 1] * 13, u

    def test_lemma4_with_wrong_sign_power(self):
        for u in self.TUPLES:
            k = len(u)
            shift = 0 if k % 2 == 0 else 1
            for n in range(9):
                assert _lemma4_with_signs(k, u, n, lambda j: (-2) ** (j - shift))
                assert verify_lemma4(k, u, n)
                assert not _lemma4_with_signs(k, u, n, lambda j: (-2) ** (j - shift + 1))


# ---------------------------------------------------------------------------
# The bodies that the shared subset expansions and the kernel's shift
# operator replaced, kept as references.  Each returns both sides.
# ---------------------------------------------------------------------------


def _reference_int_apply_delta(op, p):
    """apply_delta as it composed its shifts on integer numerators itself:
    a forward step subtracts the input scaled by s^d (over D s^d), a mean
    step adds it (over 2 D s^d)."""
    nums, den = _int_form(p)
    for u in op.shifts:
        if not nums:
            break
        scale = u.denominator ** (len(nums) - 1)
        shifted = _taylor_shift(nums, u)
        if op.variant is OpVariant.FORWARD:
            nums = [a - scale * b for a, b in zip(shifted, nums)]
            while nums and not nums[-1]:
                nums.pop()
        else:
            nums = [a + scale * b for a, b in zip(shifted, nums)]
            scale *= 2
        den *= scale
    return _from_int_form(nums, den)


def _reference_anchored(anchor, u, syms, subset):
    """x + anchor + sum_{i not in subset} u_i syms[i+1]."""
    return [(F(1), X), (F(1), anchor)] + [(u[i], syms[i + 1]) for i in range(len(u)) if i not in subset]


def _reference_subsets(k):
    for j in range(1, k + 1):
        for subset in itertools.combinations(range(k), j):
            yield j, subset


def _reference_lemma2(k, u, n):
    syms = [umbral.bernoulli_symbol(i) for i in range(k + 1)]
    weighted = [(F(1), X)] + [(u[i], syms[i + 1]) for i in range(k)]
    lhs = umbral_moment_eval(poly([0] * n + [F(1, math.factorial(n))]), weighted)
    rhs = poly_lincomb(
        (math.prod(u[i] for i in subset) / math.factorial(n + 1 - j),
         umbral_moment_eval(poly([0] * (n + 1 - j) + [1]), _reference_anchored(syms[0], u, syms, subset)))
        for j, subset in _reference_subsets(k)
        if j <= n + 1
    )
    return lhs, rhs


def _reference_lemma4(k, u, n):
    es = [euler_symbol(i) for i in range(k + 1)]
    weighted = [(F(1), X)] + [(u[i], es[i + 1]) for i in range(k)]
    if k % 2 == 0:
        lhs = umbral_moment_eval(poly([0] * n + [n + 1]), weighted)
        anchor, power, sign_shift = umbral.bernoulli_symbol(0), n + 1, 0
    else:
        lhs = umbral_moment_eval(poly([0] * n + [1]), weighted)
        anchor, power, sign_shift = es[0], n, 1
    rhs = poly_lincomb(
        ((-2) ** (j - sign_shift), umbral_moment_eval(poly([0] * power + [1]), _reference_anchored(anchor, u, es, subset)))
        for j, subset in _reference_subsets(k)
    )
    return lhs, rhs


def _reference_general_f(k, u, f):
    syms = [umbral.bernoulli_symbol(i) for i in range(k + 1)]
    lhs = umbral_moment_eval(f, [(F(1), X)] + [(u[i], syms[i + 1]) for i in range(k)])
    derivs = [f]
    for _ in range(k - 1):
        derivs.append(poly_derivative(derivs[-1]))
    rhs = poly_lincomb(
        (math.prod(u[i] for i in subset), umbral_moment_eval(derivs[j - 1], _reference_anchored(syms[0], u, syms, subset)))
        for j, subset in _reference_subsets(k)
    )
    return lhs, rhs


lemma_weights = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def sum_one_tuples(draw):
    """k = 1..4 rationals that sum to 1."""
    head = draw(st.lists(lemma_weights, min_size=0, max_size=3))
    return (*head, 1 - sum(head, F(0)))


class TestSharedExpansionsAgainstReferences:
    """The shared subset-expansion helper, as the verifiers call it, builds
    the same right side as the hand-written loop it replaced, and the
    verifier returns the reference verdict."""

    @staticmethod
    def _recorded(call):
        """The verdict of call() and the right sides `_symbol_subset_sum` built for it."""
        sums, original = [], umbral._symbol_subset_sum

        def record(*args):
            sums.append(original(*args))
            return sums[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(umbral, "_symbol_subset_sum", record)
            return call(), sums

    @settings(max_examples=60, deadline=None)
    @given(sum_one_tuples(), st.integers(0, 10))
    def test_lemma2(self, u, n):
        lhs, rhs = _reference_lemma2(len(u), u, n)
        verdict, sums = self._recorded(lambda: verify_lemma2(len(u), u, n))
        assert verdict == (lhs == rhs) and sums == [rhs]

    @settings(max_examples=60, deadline=None)
    @given(sum_one_tuples(), st.integers(0, 10))
    def test_lemma4(self, u, n):
        lhs, rhs = _reference_lemma4(len(u), u, n)
        verdict, sums = self._recorded(lambda: verify_lemma4(len(u), u, n))
        assert verdict == (lhs == rhs) and sums == [rhs]

    @settings(max_examples=60, deadline=None)
    @given(sum_one_tuples(), st.lists(lemma_weights, max_size=11).map(poly))
    def test_general_f(self, u, f):
        lhs, rhs = _reference_general_f(len(u), u, f)
        verdict, sums = self._recorded(lambda: verify_general_f(len(u), u, f))
        assert verdict == (lhs == rhs) and sums == [rhs]

    # the hypothesis draws stop at k = 4; the walks stay cheap up to k = 8
    @pytest.mark.parametrize("k", [5, 6, 7, 8])
    def test_wide_k(self, k):
        for i, u in enumerate(_sum_one_tuples(17 * k, k, 2)):
            cases = [(_reference_lemma2, verify_lemma2, n) for n in (0, 1, 4, 9)]
            cases += [(_reference_lemma4, verify_lemma4, n) for n in (0, 1, 4, 9)]
            cases += [(_reference_general_f, verify_general_f, poly(_rand_fracs(500 + 10 * k + i, degree)))
                      for degree in (3, 9)]
            for reference, verifier, arg in cases:
                lhs, rhs = reference(k, u, arg)
                verdict, sums = self._recorded(lambda: verifier(k, u, arg))
                assert verdict and lhs == rhs and sums == [rhs], (verifier.__name__, u, arg)

    # with the Euler anchor both sides move apart from n = 2 on, so the
    # verdicts compared here are False as well as True
    @settings(max_examples=30, deadline=None)
    @given(sum_one_tuples(), st.integers(0, 10))
    def test_lemma2_with_euler_anchor(self, u, n):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(umbral, "bernoulli_symbol", _anchor_swapped_to_euler)
            lhs, rhs = _reference_lemma2(len(u), u, n)
            verdict, sums = self._recorded(lambda: verify_lemma2(len(u), u, n))
        assert verdict == (lhs == rhs) and sums == [rhs]

    @settings(max_examples=150, deadline=None)
    @given(shift_polys, st.lists(shift_values, min_size=1, max_size=5))
    def test_apply_delta(self, p, shifts):
        for variant in OpVariant:
            op = DifferenceOp(tuple(shifts), variant)
            assert apply_delta(op, p) == _reference_int_apply_delta(op, p)
