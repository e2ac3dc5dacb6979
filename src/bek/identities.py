"""Registry of exact convolution identities and the verification engine.

Every entry evaluates both sides of one displayed identity as exact
polynomials in x over the rationals (number-level identities produce
degree-0 polynomials) and never shares work between the two sides beyond
the memoized sequence tables, so a sign slip on either side cannot cancel.
Parameters stated for real values are verified on positive rational
instances.  What a report checks is exact equality of every coefficient
at the listed points (each n, and each parameter set of the grids below),
and nothing more: each side is a rational function of the parameters,
and agreement at a few parameter points does not prove agreement at all
of them.

Two families of scalar identities involve gamma-function factors at
non-integer arguments; those are evaluated in a normalized form with both
sides divided by the common gamma factors, which turns every coefficient
into a ratio of rising factorials and keeps the arithmetic exact.

An entry is one `IdentitySpec` declaration in `REGISTRY`: its name, summary
and displays (label and evaluator), its degree floor `n_min`, default top
`n_max` and step, its positive parameters with their default sets, and for
a k-fold entry `k_min` and the default ks.  The validity predicate, its
text, the default grid and the evaluator call all follow from those
fields, and every evaluator, public or not, checks its inputs against that
one predicate (`_checked`).  To add an identity, write a function fn(n, *params[, k]) that
returns its two sides, as polynomials or numbers, and declare it.  A
convolution left side, scale * sum over l_1+...+l_k = n of prod_i w_i(l_i)
P_{l_1}(x)...P_{l_k}(x) with P = B or E, is declared as its slot weights:
`_convolution` takes the family P, one list w_i(0..n) per slot (0 where a
term is absent) and the scale, and reads the sum off one truncated series
product, as the coefficient of t^n in prod_i sum_l w_i(l) P_l(x) t^l.
An `a_vec` parameter takes the k-tuple sets of `_tuple_sets_for_k`, and
any other parameter needs its default sets declared.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import factorial
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .exactmath import (
    ONE,
    Poly,
    ZERO,
    binomial,
    convolution_coefficient,
    harmonic,
    harmonic_second,
    harmonic_shifted,
    pochhammer,
    poly,
    poly_compose_linear,
    poly_lincomb,
    poly_mul,
    poly_sub,
    series_product,
    subset_series,
)
from .sequences import (
    bernoulli_number,
    bernoulli_poly,
    euler_poly,
    euler_poly_at_zero,
)


class DomainError(ValueError):
    """Requested inputs violate an identity's validity predicate."""


class UnknownIdentityError(KeyError):
    """Requested name is not in the registry."""


def _is_int(v: object) -> bool:
    """An integer input; a bool is an int subclass, but never a valid one."""
    return isinstance(v, int) and not isinstance(v, bool)


# The memoized products of Bernoulli and Euler polynomials for a sorted
# index multiset.  No module of the package calls them: the left sides are
# series coefficients (`_convolution`).  The hand-written reference left
# sides of the tests form their products with them, and the benchmark
# worker reads their cache statistics.
@lru_cache(maxsize=None)
def _bern_product(indices: tuple[int, ...]) -> Poly:
    """Product of Bernoulli polynomials for a sorted index multiset."""
    out = ONE
    for i in indices:
        out = poly_mul(out, bernoulli_poly(i))
    return out


@lru_cache(maxsize=None)
def _euler_product(indices: tuple[int, ...]) -> Poly:
    """Product of Euler polynomials for a sorted index multiset."""
    out = ONE
    for i in indices:
        out = poly_mul(out, euler_poly(i))
    return out


def _coeff(p: Poly, m: int) -> Fraction:
    """The coefficient of t^m in p, zero beyond its length."""
    return p[m] if m < len(p) else Fraction(0)


def _convolution(family: Callable[[int], Poly], n: int, weights: Sequence[Sequence[Fraction | int]],
                 scale: Fraction | int) -> Poly:
    """scale * sum over weak compositions l of n into len(weights) parts of
    prod_i weights[i][l_i] * P_{l_1}(x)...P_{l_k}(x), with P = family.

    That sum is the coefficient of t^n in prod_i sum_l weights[i][l] P_l(x)
    t^l, read off one truncated series product: no composition is walked.
    """
    return convolution_coefficient(family, n, weights, scale)


def _rising_weights(a: Fraction, n: int) -> list[Fraction]:
    """(a)_l / l! for l = 0..n: the slot weight of a parameter a."""
    return [pochhammer(a, l) / factorial(l) for l in range(n + 1)]


def _inverse_factorials(n: int) -> list[Fraction]:
    """1/l! for l = 0..n."""
    return [Fraction(1, factorial(l)) for l in range(n + 1)]


def _reciprocals(n: int) -> list[Fraction]:
    """1/l for l = 1..n, and 0 at l = 0."""
    return [Fraction(0), *(Fraction(1, l) for l in range(1, n + 1))]


def _harmonic_tails(n: int) -> list[Fraction]:
    """(H_{n-1} - H_{l-1}) / l for l = 1..n, and 0 at l = 0."""
    return [Fraction(0), *((harmonic(n - 1) - harmonic(l - 1)) / l for l in range(1, n + 1))]


def _theorem_lhs(family: Callable[[int], Poly], n: int, a_vec: Sequence[Fraction]) -> Poly:
    """n!/(sum a)_n sum_l prod_i (a_i)_{l_i}/l_i! P_{l_1}(x)...P_{l_k}(x),
    P = family, the left side of theorems 1-4."""
    return _convolution(family, n, [_rising_weights(a, n) for a in a_vec], factorial(n) / pochhammer(sum(a_vec), n))


def _subset_series_rhs(a_vec: tuple[Fraction, ...], moment: Callable[[int], Fraction], shifts: Sequence[Poly],
                       d: int, w: Fraction, base: Callable[[int], Poly]) -> Poly:
    """sum_{l_0=0}^{d} w/l_0! [t^(d-l_0)] q / (sum a)_{d-l_0} P_{l_0}(x),
    P = base, the right side of theorems 2 and 4.  With A_i(t) = sum_l
    (a_i)_l moment(l) t^l / l! truncated after t^d, q(t) = prod_i (A_i(t) +
    s_i(t)) - prod_i A_i(t) = `subset_series` sums, over the non-empty index
    subsets J, the products of the s_i for i in J and the other A_i."""
    series = [poly(pochhammer(ai, l) * moment(l) / factorial(l) for l in range(d + 1)) for ai in a_vec]
    q = subset_series(series, shifts, d)
    total = sum(a_vec)
    return poly_lincomb(
        (w / factorial(l0) * _coeff(q, d - l0) / pochhammer(total, d - l0), base(l0))
        for l0 in range(d + 1)
    )


# ---------------------------------------------------------------------------
# theorem-level evaluators (public API)
# ---------------------------------------------------------------------------


def eval_theorem1(n: int, a: Fraction, b: Fraction) -> tuple[Poly, Poly]:
    """Both sides of the two-parameter quadratic Bernoulli convolution.

    LHS: sum_l C(n,l) (a)_l (b)_{n-l} / (a+b)_n B_l(x) B_{n-l}(x).
    RHS: sum_l C(n,l) (a (b)_l + b (a)_l) / (a+b)_{l+1} B_l B_{n-l}(x)
         + n a b / ((a+b+1)(a+b)) B_{n-1}(x).
    """
    (pt,) = _checked("theorem1", [{"n": n, "a": a, "b": b}])[1]
    a, b = pt["a"], pt["b"]
    lhs = _theorem_lhs(bernoulli_poly, n, (a, b))
    rhs = poly_lincomb([
        *((binomial(n, l) * (a * pochhammer(b, l) + b * pochhammer(a, l)) / pochhammer(a + b, l + 1)
           * bernoulli_number(l), bernoulli_poly(n - l))
          for l in range(n + 1)),
        (n * a * b / ((a + b + 1) * (a + b)), bernoulli_poly(n - 1)),
    ])
    return lhs, rhs


def eval_theorem2(n: int, a_vec: Sequence[Fraction], k: int | None = None) -> tuple[Poly, Poly]:
    """Both sides of the k-parameter multinomial Bernoulli convolution.

    LHS runs over weak compositions l_1+...+l_k = n with weight
    multinomial(n; l) prod_i (a_i)_{l_i} / (sum a)_n on prod_i B_{l_i}(x).
    RHS runs over non-empty index subsets J and compositions
    l_0+...+l_{k-j} = n+1-j (j = |J|), with weight
    prod_{i in J} a_i * n!/(n+1-j)! * multinomial * prod (a_c)_{l_i}
    / (sum a)_{n+1-l_0} on B_{l_0}(x) prod B_{l_i}; subsets with j > n+1
    contribute nothing.  The subset and composition sums are read off one
    product of series: the RHS is `_subset_series_rhs` with moments B_l,
    shifts s_i = a_i t, d = n+1, w = n! and P = B (its l_0 = n+1 term is
    zero, as q has no constant term).
    """
    a_vec = _checked("theorem2", [{"n": n, "k": k, "a_vec": a_vec}])[1][0]["a_vec"]
    lhs = _theorem_lhs(bernoulli_poly, n, a_vec)
    shifts = [(Fraction(0), ai) for ai in a_vec]
    rhs = _subset_series_rhs(a_vec, bernoulli_number, shifts, n + 1, Fraction(factorial(n)), bernoulli_poly)
    return lhs, rhs


def eval_theorem3(n: int, a: Fraction, b: Fraction) -> tuple[Poly, Poly]:
    """Both sides of the two-parameter quadratic Euler convolution.

    LHS: sum_l C(n,l) (a)_l (b)_{n-l} / (a+b)_n E_l(x) E_{n-l}(x).
    RHS: 4/(n+1) B_{n+1}(x)
         - 2/(n+1) sum_{l=0}^{n+1} C(n+1,l) ((a)_l + (b)_l)/(a+b)_l E_l(0) B_{n+1-l}(x).
    """
    (pt,) = _checked("theorem3", [{"n": n, "a": a, "b": b}])[1]
    a, b = pt["a"], pt["b"]
    lhs = _theorem_lhs(euler_poly, n, (a, b))
    rhs = poly_lincomb([
        (Fraction(4, n + 1), bernoulli_poly(n + 1)),
        *((Fraction(-2, n + 1) * binomial(n + 1, l) * (pochhammer(a, l) + pochhammer(b, l)) / pochhammer(a + b, l)
           * euler_poly_at_zero(l), bernoulli_poly(n + 1 - l))
          for l in range(n + 2)),
    ])
    return lhs, rhs


def eval_theorem4(n: int, a_vec: Sequence[Fraction], k: int | None = None) -> tuple[Poly, Poly]:
    """Both sides of the k-parameter multinomial Euler convolution.

    The LHS mirrors the Bernoulli case with Euler polynomial factors.  The
    RHS depends on the parity of k: for even k it is
    sum_j (-2)^j/(n+1) sum_{|J|=j} sum over compositions of n+1 of
    multinomial * prod (a_c)_{l_i} / (sum a)_{n+1-l_0} B_{l_0}(x)
    prod E_{l_i}(0); for odd k the outer weight is (-2)^{j-1}, the
    compositions have sum n, the leading factor is E_{l_0}(x), and the
    denominator index drops to n - l_0.  k = 1 is the trivial identity.
    The subset and composition sums are read off one product of series:
    the RHS is `_subset_series_rhs` with moments E_l(0), shifts s_i = -2,
    and d = n+1, w = n!, P = B for even k, d = n, w = -n!/2, P = E for
    odd k.
    """
    a_vec = _checked("theorem4", [{"n": n, "k": k, "a_vec": a_vec}])[1][0]["a_vec"]
    lhs = _theorem_lhs(euler_poly, n, a_vec)
    if len(a_vec) % 2 == 0:
        d, w, base = n + 1, Fraction(factorial(n)), bernoulli_poly
    else:
        d, w, base = n, Fraction(-factorial(n), 2), euler_poly
    rhs = _subset_series_rhs(a_vec, euler_poly_at_zero, [(Fraction(-2),)] * len(a_vec), d, w, base)
    return lhs, rhs


# ---------------------------------------------------------------------------
# corollary-level evaluators
# ---------------------------------------------------------------------------


def _euler_12(n: int) -> tuple[Fraction, Fraction]:
    lhs = sum(
        (Fraction(binomial(n, j)) * bernoulli_number(j) * bernoulli_number(n - j) for j in range(n + 1)),
        Fraction(0),
    )
    return lhs, -n * bernoulli_number(n - 1) - (n - 1) * bernoulli_number(n)


def _miki(n: int) -> tuple[Fraction, Fraction]:
    plain = Fraction(0)
    weighted = Fraction(0)
    for j in range(2, n - 1):
        term = bernoulli_number(j) * bernoulli_number(n - j) / Fraction(j * (n - j))
        plain += term
        weighted += binomial(n, j) * term
    return plain - weighted, 2 * harmonic(n) * bernoulli_number(n) / n


def _matiyasevich(n: int) -> tuple[Fraction, Fraction]:
    plain = Fraction(0)
    weighted = Fraction(0)
    for j in range(2, n - 1):
        prod = bernoulli_number(j) * bernoulli_number(n - j)
        plain += prod
        weighted += binomial(n + 2, j) * prod
    return (n + 2) * plain - 2 * weighted, n * (n + 1) * bernoulli_number(n)


def _corollary1(n: int) -> tuple[Poly, Poly]:
    lhs = _convolution(bernoulli_poly, n, [[1] * (n + 1)] * 2, n + 2)
    rhs = poly_lincomb([
        *((2 * binomial(n + 2, l + 2) * bernoulli_number(l), bernoulli_poly(n - l)) for l in range(n + 1)),
        (binomial(n + 2, 3), bernoulli_poly(n - 1)),
    ])
    return lhs, rhs


def _corollary2(n: int) -> tuple[Fraction, Fraction]:
    lhs = Fraction(0)
    rhs = Fraction(0)
    for l in range(n + 1):
        prod = bernoulli_number(l) * bernoulli_number(n - l)
        lhs += prod
        rhs += binomial(n + 2, l + 2) * prod
    return (n + 2) * lhs, 2 * rhs


def _corollary3(n: int, a: Fraction) -> tuple[Poly, Poly]:
    lhs = _convolution(bernoulli_poly, n, [_rising_weights(a, n), _reciprocals(n)], factorial(n) / pochhammer(a, n))
    rhs = poly_lincomb([
        *((binomial(n, l) * (a * factorial(l - 1) + pochhammer(a, l)) / pochhammer(a, l + 1) * bernoulli_number(l),
           bernoulli_poly(n - l))
          for l in range(1, n + 1)),
        (Fraction(n) / (a + 1), bernoulli_poly(n - 1)),
        (harmonic_shifted(a, n), bernoulli_poly(n)),
    ])
    return lhs, rhs


def _corollary4_first(n: int) -> tuple[Poly, Poly]:
    lhs = _convolution(bernoulli_poly, n, [_reciprocals(n)] * 2, Fraction(n, 2))
    rhs = poly_lincomb([
        *((binomial(n, l) * bernoulli_number(l) / l, bernoulli_poly(n - l)) for l in range(1, n + 1)),
        (Fraction(n, 2), bernoulli_poly(n - 1)),
        (harmonic(n - 1), bernoulli_poly(n)),
    ])
    return lhs, rhs


def _corollary4_second(n: int) -> tuple[Poly, Poly]:
    lhs = _convolution(bernoulli_poly, n, [range(1, n + 2), _reciprocals(n)], n + 2)
    rhs = poly_lincomb([
        *((binomial(n + 2, l + 2) * Fraction(l * l + l + 2, l) * bernoulli_number(l), bernoulli_poly(n - l))
          for l in range(1, n + 1)),
        (Fraction((n + 1) * (n + 2) * n, 3), bernoulli_poly(n - 1)),
        ((n + 1) * (n + 2) * harmonic_shifted(Fraction(2), n), bernoulli_poly(n)),
    ])
    return lhs, rhs


def _eq_2_12(n: int) -> tuple[Poly, Poly]:
    lhs = _convolution(bernoulli_poly, n, [[1] * (n + 1), _reciprocals(n)], 1)
    rhs = poly_lincomb([
        *((binomial(n, l) * bernoulli_number(l) / l, bernoulli_poly(n - l)) for l in range(1, n + 1)),
        (Fraction(n, 2), bernoulli_poly(n - 1)),
        (harmonic(n), bernoulli_poly(n)),
    ])
    return lhs, rhs


def _corollary5(n: int) -> tuple[Poly, Poly]:
    lhs = poly_lincomb(
        (binomial(n, l) * bernoulli_number(l), bernoulli_poly(n - l)) for l in range(n + 1)
    )
    rhs = poly_lincomb([
        (n, poly_mul(poly([-1, 1]), bernoulli_poly(n - 1))),
        (-(n - 1), bernoulli_poly(n)),
    ])
    return lhs, rhs


def _corollary6(n: int) -> tuple[Poly, Poly]:
    lhs = poly_lincomb(
        (binomial(n, l) * bernoulli_number(l) / Fraction(2) ** l, bernoulli_poly(n - l)) for l in range(n + 1)
    )
    rhs = poly_lincomb([
        (Fraction(n) / Fraction(2) ** n, poly_mul(poly([-1, 2]), poly_compose_linear(bernoulli_poly(n - 1), 2))),
        (Fraction(-(n - 1)) / Fraction(2) ** n, poly_compose_linear(bernoulli_poly(n), 2)),
        (Fraction(-n, 4), bernoulli_poly(n - 1)),
    ])
    return lhs, rhs


def _eq_2_15(n: int) -> tuple[Poly, Poly]:
    lhs = _convolution(bernoulli_poly, n, [_inverse_factorials(n)] * 2, Fraction(factorial(n), 2 ** n))
    rhs = poly_lincomb([
        *((binomial(n, l) * bernoulli_number(l) / Fraction(2) ** l, bernoulli_poly(n - l)) for l in range(n + 1)),
        (Fraction(n, 4), bernoulli_poly(n - 1)),
    ])
    return lhs, rhs


def _corollary7(n: int) -> tuple[Poly, Poly]:
    lhs = _convolution(bernoulli_poly, n, [_harmonic_tails(n), _reciprocals(n)], n)
    rhs = poly_lincomb([
        *((binomial(n, l) * (harmonic(l) + Fraction(1, l)) * bernoulli_number(l) / l, bernoulli_poly(n - l))
          for l in range(1, n + 1)),
        (n, bernoulli_poly(n - 1)),
        (Fraction(1, 2) * (harmonic(n - 1) ** 2 + 3 * harmonic_second(n - 1)), bernoulli_poly(n)),
    ])
    return lhs, rhs


def _eq_4_0a(n: int) -> tuple[Poly, Poly]:
    lhs = _convolution(bernoulli_poly, n, [[1] * (n + 1)] * 3, n + 3)
    # for fixed i the (j, l) sum is [t^(n-i)] b(t)^2, b = sum_l B_l t^l
    b = poly(bernoulli_number(l) for l in range(n + 1))
    square = series_product((b, b), n)
    rhs = poly_lincomb([
        *((3 * binomial(n + 3, i) * _coeff(square, n - i), bernoulli_poly(i)) for i in range(n + 1)),
        *((3 * binomial(n + 3, i) * bernoulli_number(n - 1 - i), bernoulli_poly(i)) for i in range(n)),
        (binomial(n + 3, 5), bernoulli_poly(n - 2)),
    ])
    return lhs, rhs


def _kth_matiyasevich(n: int, k: int) -> tuple[Fraction, Fraction]:
    """The k-fold sums are read off b(t) = sum_{l<=n} B_l t^l: the left side
    is [t^n] b^k, the right side sum_{l_0} C(n+k, l_0) B_{l_0} [t^(n+1-l_0)]
    ((b + t)^k - b^k) / (n+k), whose subset sum is over j of C(k, j) t^j b^(k-j)."""
    b = poly(bernoulli_number(l) for l in range(n + 1))
    lhs = _coeff(series_product([b] * k, n), n)
    q = subset_series([b] * k, [(Fraction(0), Fraction(1))] * k, n + 1)
    rhs = sum((binomial(n + k, l0) * bernoulli_number(l0) * _coeff(q, n + 1 - l0) for l0 in range(n + 2)), Fraction(0))
    return lhs, rhs / (n + k)


def _eq_6_9(n: int, eps: Fraction) -> tuple[Poly, Poly]:
    lhs = _convolution(bernoulli_poly, n, [_rising_weights(eps, n)] * 3, 1 / pochhammer(3 * eps, n))
    # for fixed i the (j, l) sum is [t^(n-i)] of the square of
    # sum_l (eps)_l B_l t^l / l!
    series = poly(pochhammer(eps, l) * bernoulli_number(l) / factorial(l) for l in range(n + 1))
    square = series_product((series, series), n)
    rhs = poly_lincomb([
        *((3 * eps / pochhammer(3 * eps, n - i + 1) / factorial(i) * _coeff(square, n - i), bernoulli_poly(i))
          for i in range(n + 1)),
        *((3 * eps * eps * pochhammer(eps, j) / pochhammer(3 * eps, j + 2)
           * bernoulli_number(j) / (factorial(n - 1 - j) * factorial(j)),
           bernoulli_poly(n - 1 - j))
          for j in range(n)),
        (eps ** 3 / pochhammer(3 * eps, 3) / factorial(n - 2), bernoulli_poly(n - 2)),
    ])
    return lhs, rhs


def _corollary8(n: int) -> tuple[Poly, Poly]:
    lhs = _convolution(bernoulli_poly, n, [_inverse_factorials(n)] * 3, factorial(n))
    # for fixed i the (j, l) sum is [t^(n-i)] of the square of sum_l B_l t^l / l!
    series = poly(bernoulli_number(l) / factorial(l) for l in range(n + 1))
    square = series_product((series, series), n)
    rhs = poly_lincomb([
        *((Fraction(factorial(n), factorial(i)) * Fraction(3) ** i * _coeff(square, n - i), bernoulli_poly(i))
          for i in range(n + 1)),
        *((n * binomial(n - 1, i) * Fraction(3) ** i * bernoulli_number(n - 1 - i), bernoulli_poly(i))
          for i in range(n)),
        (n * (n - 1) * Fraction(3) ** (n - 3), bernoulli_poly(n - 2)),
    ])
    return lhs, rhs


def _corollary9(n: int) -> tuple[Fraction, Fraction]:
    """Both sides of the third-order harmonic-weighted number convolution.

    With b_m = B_m / m, the two cubic sums over i+j+l = n, i, j, l >= 1, are
    s1 = sum b_i b_j b_l (left side, s1/3) and
    s2 = sum C(n-1, i-1) b_i b_j b_l (right side).  Both are evaluated as
    sum_i w_i b_i [t^(n-i)] b(t)^2 with b(t) = sum_{m>=1} b_m t^m, and each
    side squares b(t) itself.
    """
    h1 = harmonic
    h2 = harmonic_second

    def bb(m: int) -> Fraction:
        return bernoulli_number(m)

    def cubic_sum(weight: Callable[[int], int]) -> Fraction:
        b = poly([0, *(bb(m) / m for m in range(1, n - 1))])
        square = series_product((b, b), n - 1)
        return sum((weight(i) * bb(i) / i * _coeff(square, n - i) for i in range(1, n - 1)), Fraction(0))

    s1 = cubic_sum(lambda i: 1)
    s2 = cubic_sum(lambda i: binomial(n - 1, i - 1))
    s3 = Fraction(0)
    for l in range(1, n - 1):
        s3 += binomial(n - 1, l + 1) * (bb(l) / l) * (bb(n - l - 1) / (n - l - 1))
    s4 = Fraction(0)
    s5 = Fraction(0)
    for l in range(1, n):
        s4 += (3 * h1(n - 1) - 2 * h1(l - 1) + Fraction(1, n)) * (bb(l) / l) * (bb(n - l) / (n - l))
        s5 += binomial(n - 1, l - 1) * (2 * h1(l) + Fraction(1, l)) * (bb(l) / l) * (bb(n - l) / l)
    rhs = (
        s2
        + s3
        + s4
        - 2 * s5
        + Fraction(n - 1, 6) * bb(n - 2)
        + (Fraction(1, (n - 1) * n) - 3) * bb(n - 1)
        - 2
        * (Fraction(2, n) * h1(n - 1) + h1(n - 1) ** 2 + 2 * h2(n - 1) + Fraction(3, n * n))
        * bb(n)
        / n
    )
    return Fraction(1, 3) * s1, rhs


def _corollary10_first(n: int) -> tuple[Poly, Poly]:
    lhs = _convolution(euler_poly, n - 1, [_reciprocals(n - 1)] * 2, 1)
    rhs = poly_lincomb([
        *((4 * binomial(n - 2, l - 1) * harmonic(l - 1) * euler_poly_at_zero(l) / Fraction(l * (n - l)),
           bernoulli_poly(n - l))
          for l in range(1, n)),
        (2 * harmonic(n - 2) / Fraction(n - 1), euler_poly(n - 1)),
        (4 * harmonic(n - 1) / Fraction(n - 1) * euler_poly_at_zero(n) / n, ONE),
    ])
    return lhs, rhs


def _corollary10_second(n: int) -> tuple[Poly, Poly]:
    lhs = _convolution(euler_poly, n, [_harmonic_tails(n), _reciprocals(n)], 1)
    rhs = poly_lincomb([
        (Fraction(1, 2) * (harmonic(n - 1) ** 2 + 3 * harmonic_second(n - 1)) / n, euler_poly(n)),
        *((binomial(n - 1, l - 1)
           * (harmonic(l - 1) ** 2 + 3 * harmonic_second(l - 1))
           * euler_poly_at_zero(l)
           / Fraction(l * (n + 1 - l)),
           bernoulli_poly(n + 1 - l))
          for l in range(1, n + 1)),
        ((harmonic(n) ** 2 + 3 * harmonic_second(n)) / Fraction(n) * euler_poly_at_zero(n + 1) / (n + 1), ONE),
    ])
    return lhs, rhs


def _corollary11_first(n: int) -> tuple[Poly, Poly]:
    # the centred pairs E_l(x) E_{n-l}(x) - E_l(0) E_{n-l}(0): the
    # convolution less its value at x = 0
    centre = sum(
        (euler_poly_at_zero(l) * euler_poly_at_zero(n - l) / (l * (n - l)) for l in range(1, n)), Fraction(0)
    )
    lhs = poly_sub(_convolution(euler_poly, n, [_reciprocals(n)] * 2, 1), poly([centre]))
    # for fixed i the (j, l) sum over j, l >= 1 is [t^(n-i)] e(t)^2, with
    # e = sum_{m>=1} E_m(0)/m t^m
    e = poly([0, *(euler_poly_at_zero(m) / m for m in range(1, n + 1))])
    square = series_product((e, e), n)
    rhs = poly_lincomb([
        *((binomial(n - 1, i) * _coeff(square, n - i), euler_poly(i)) for i in range(1, n)),
        (2 * harmonic(n - 1) / Fraction(n), euler_poly(n)),
    ])
    return lhs, rhs


def _centered_euler_pair(c: Fraction, l: int, m: int) -> Iterator[tuple[Fraction, Poly]]:
    """The terms of c (E_l(x) E_m(x) - E_l(0) E_m(0))."""
    yield c, poly_mul(euler_poly(l), euler_poly(m))
    yield -c * euler_poly_at_zero(l) * euler_poly_at_zero(m), ONE


def _corollary11_second(n: int) -> tuple[Poly, Poly]:
    lhs = _convolution(euler_poly, n, [_reciprocals(n)] * 3, Fraction(1, 3))
    # for fixed i, H_{j+l-1} = H_{n-i-1}, and by symmetry the (j, l) sum is
    # 2 [t^(n-i)] h(t) e(t) - 3 H_{n-i-1} [t^(n-i)] e(t)^2, with
    # h = sum_{m>=1} H_{m-1} E_m(0)/m t^m
    e = poly([0, *(euler_poly_at_zero(m) / m for m in range(1, n + 1))])
    h = poly([0, *(harmonic(m - 1) * euler_poly_at_zero(m) / m for m in range(1, n + 1))])
    square = series_product((e, e), n)
    cross = series_product((h, e), n)
    rhs = poly_lincomb([
        (-2 * (harmonic(n - 1) ** 2 + 2 * harmonic_second(n - 1)) / Fraction(n), euler_poly(n)),
        *((binomial(n - 1, i) * (2 * _coeff(cross, n - i) - 3 * harmonic(n - i - 1) * _coeff(square, n - i)),
           euler_poly(i))
          for i in range(1, n)),
        *chain.from_iterable(
            _centered_euler_pair(
                (3 * harmonic(n - 1) - harmonic(l - 1) - harmonic(n - l - 1)) / Fraction(l * (n - l)), l, n - l
            )
            for l in range(1, n)
        ),
    ])
    return lhs, rhs


def _ds_lhs(n: int, p: Fraction) -> Fraction:
    out = Fraction(0)
    for l in range(1, n):
        out += (
            pochhammer(p + 1, 2 * l - 1)
            / factorial(2 * l - 1)
            * pochhammer(p + 1, 2 * n - 2 * l - 1)
            / factorial(2 * n - 2 * l - 1)
            * (bernoulli_number(2 * l) / (2 * l))
            * (bernoulli_number(2 * n - 2 * l) / (2 * n - 2 * l))
        )
    return out


def _ds_cross_term(n: int, p: Fraction) -> Fraction:
    out = Fraction(0)
    for l in range(1, n + 1):
        out += (
            binomial(2 * n, 2 * l)
            * pochhammer(p + 1, 2 * l - 1)
            * pochhammer(2 * p + 1, 2 * n - 1)
            / pochhammer(2 * p + 1, 2 * l)
            * bernoulli_number(2 * l)
            * bernoulli_number(2 * n - 2 * l)
        )
    return Fraction(2) / factorial(2 * n) * out


def eval_dunne_schubert(n: int, p: Fraction) -> tuple[Fraction, Fraction]:
    """Both sides of the rising-factorial weighted even-index sum, in the
    normalized form with the common squared gamma factor divided out."""
    p = _checked("dunne-schubert", [{"n": n, "p": p}])[1][0]["p"]
    lead = Fraction(0)
    for l in range(1, 2 * n):
        lead += pochhammer(p + 1, l - 1) * pochhammer(2 * p + 1, 2 * n - 1) / pochhammer(2 * p + 1, l)
    rhs = 2 * bernoulli_number(2 * n) / Fraction(factorial(2 * n)) * lead + _ds_cross_term(n, p)
    return _ds_lhs(n, p), rhs


def eval_eq72(n: int, p: Fraction) -> tuple[Fraction, Fraction]:
    """Variant right-hand side of the same normalized even-index sum, with
    the difference of rising factorials collected into the leading term."""
    p = _checked("eq-7-2", [{"n": n, "p": p}])[1][0]["p"]
    lead = (
        (pochhammer(2 * p, 2 * n) - 2 * pochhammer(p, 2 * n))
        * bernoulli_number(2 * n)
        / (p * p * factorial(2 * n))
    )
    return _ds_lhs(n, p), lead + _ds_cross_term(n, p)


def gamma_sum_identity(n: int, p: Fraction) -> tuple[Fraction, Fraction]:
    """Both sides of the telescoping rising-factorial ratio sum, normalized
    so every term is a ratio of rising factorials."""
    p = _checked("gamma-sum", [{"n": n, "p": p}])[1][0]["p"]
    lhs = Fraction(0)
    for l in range(1, 2 * n):
        lhs += pochhammer(p, l) / pochhammer(2 * p + 1, l)
    rhs = 1 - pochhammer(p, 2 * n) / (p * pochhammer(2 * p + 1, 2 * n - 1))
    return lhs, rhs


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


Point = Mapping[str, object]

# The order in which a point's inputs are printed, in messages and reports.
INPUT_ORDER = ("n", "k", "a", "b", "a_vec", "p", "epsilon", "display")


def _pos(v: object) -> bool:
    return (_is_int(v) or isinstance(v, Fraction)) and v > 0


def _valid_param(key: str, v: object, k: object) -> bool:
    """A positive rational, or for `a_vec` a tuple of k of them."""
    if key == "a_vec":
        return isinstance(v, tuple) and len(v) == k and all(_pos(x) for x in v)
    return _pos(v)


def _as_poly(side: Poly | Fraction) -> Poly:
    """A side as a polynomial in x; a number becomes a constant."""
    return side if isinstance(side, tuple) else poly([side])


def _k_fold_n_max(k: int | None) -> int:
    """Largest default n of a k-fold entry.  The range shrinks as k grows,
    and it is kept because the default grid, and with it the `verify-all`
    output, depends on it."""
    if k is None or k <= 2:
        return 20
    return {3: 14, 4: 10}.get(k, max(2, 14 - 2 * k))


@dataclass(frozen=True)
class IdentitySpec:
    """A registry entry, declared as data.

    `displays` pairs each displayed identity of the entry with the function
    that returns its (lhs, rhs); the label is "" when there is one display.
    Each function is called as fn(n, *params, k): the parameters in
    `param_names` order, and k only for a k-fold entry (`k_min` set).  A
    side may be a polynomial or a number, which is lifted to a constant.

    The domain is integer n in n_min, n_min + n_step, ... (`n_step` 2 from
    an even n_min for an even-degree identity), each parameter a
    positive rational (`a_vec` a tuple of k of them), and for a k-fold
    entry integer k >= k_min.  The validity predicate and its text, the
    default grid and `evaluate` all follow from these fields; `evaluate` is
    a field only so that a caller can swap it for a wrapped one.
    """

    name: str
    summary: str
    displays: tuple[tuple[str, Callable[..., tuple[Poly | Fraction, Poly | Fraction]]], ...]
    n_min: int
    n_max: int
    n_step: int = 1
    param_names: tuple[str, ...] = ()
    param_sets: tuple[dict, ...] = ({},)
    k_min: int | None = None
    default_ks: tuple[int, ...] = ()
    evaluate: Callable[[Point], list[tuple[str, Poly, Poly]]] | None = None

    def __post_init__(self) -> None:
        if self.evaluate is None:
            displays = self.displays
            keys = self.param_names + (("k",) if self.takes_k else ())

            def evaluate(pt: Point) -> list[tuple[str, Poly, Poly]]:
                args = [pt[key] for key in keys]
                return [(label, *map(_as_poly, fn(pt["n"], *args))) for label, fn in displays]

            object.__setattr__(self, "evaluate", evaluate)

    @property
    def takes_k(self) -> bool:
        return self.k_min is not None

    @property
    def validity_text(self) -> str:
        text = f"{'integer' if self.n_step == 1 else 'even'} n >= {self.n_min}"
        if self.takes_k:
            if "a_vec" in self.param_names:
                return f"{text}, integer k >= {self.k_min}, a_vec of k positive rationals"
            return f"{text} and integer k >= {self.k_min}"
        if self.param_names:
            return f"{text} with rational " + " and ".join(f"{key} > 0" for key in self.param_names)
        return text

    def validity(self, pt: Point) -> bool:
        n, k = pt.get("n"), pt.get("k")
        if not (_is_int(n) and n >= self.n_min and (n - self.n_min) % self.n_step == 0):
            return False
        if self.takes_k and not (_is_int(k) and k >= self.k_min):
            return False
        return all(_valid_param(key, pt.get(key), k) for key in self.param_names)

    def default_n(self, k: int | None) -> tuple[int, ...]:
        n_max = min(self.n_max, _k_fold_n_max(k)) if self.takes_k else self.n_max
        return tuple(range(self.n_min, n_max + 1, self.n_step))

    def default_param_sets(self, k: int | None) -> tuple[dict, ...]:
        return _tuple_sets_for_k(k) if "a_vec" in self.param_names else self.param_sets


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity at one grid point (and display, if several)."""

    identity: str
    inputs: dict
    status: str
    lhs: Poly
    rhs: Poly
    difference: Poly
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"


_SINGLE_A_SET: tuple[dict, ...] = tuple(
    {"a": v} for v in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(7, 3))
)

_P_SET: tuple[dict, ...] = tuple(
    {"p": v} for v in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3))
)

_EPS_SET: tuple[dict, ...] = tuple({"epsilon": v} for v in (Fraction(1), Fraction(1, 2), Fraction(3)))

# The default a_vec tuples for k <= 3; `_tuple_sets_for_k` builds the rest.
_TUPLE_SETS: dict[int, tuple[tuple[Fraction, ...], ...]] = {
    1: ((Fraction(1),), (Fraction(2),), (Fraction(1, 2),)),
    2: (
        (Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(1)),
        (Fraction(1, 2), Fraction(3, 2)),
        (Fraction(7, 3), Fraction(5, 4)),
    ),
    3: (
        (Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(2), Fraction(1, 2)),
        (Fraction(2), Fraction(3, 2), Fraction(1, 2)),
    ),
}

# The pair identities take the k = 2 tuples as (a, b).
_PAIR_SETS: tuple[dict, ...] = tuple({"a": a, "b": b} for a, b in _TUPLE_SETS[2])

_TUPLE_BASE = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2))


def _tuple_sets_for_k(k: int | None) -> tuple[dict, ...]:
    if k is None:
        raise ValueError("parameter tuples need an explicit k")
    if k in _TUPLE_SETS:
        vecs = _TUPLE_SETS[k]
    else:
        vecs = (
            tuple(Fraction(1) for _ in range(k)),
            tuple(_TUPLE_BASE[i % 4] for i in range(k)),
            tuple(Fraction(1, 2) for _ in range(k)),
        )
    return tuple({"a_vec": v} for v in vecs)


REGISTRY: dict[str, IdentitySpec] = {spec.name: spec for spec in (
    IdentitySpec("euler-1-2", "binomial self-convolution of Bernoulli numbers in closed form",
                 (("", _euler_12),), n_min=1, n_max=60),
    IdentitySpec("miki", "difference of plain and binomial quadratic Bernoulli sums with a harmonic right side",
                 (("", _miki),), n_min=4, n_max=60),
    IdentitySpec("matiyasevich", "weighted difference of quadratic Bernoulli sums",
                 (("", _matiyasevich),), n_min=4, n_max=60),
    IdentitySpec("theorem1", "two-parameter weighted convolution of Bernoulli polynomial pairs",
                 (("", eval_theorem1),), n_min=1, n_max=30, param_names=("a", "b"), param_sets=_PAIR_SETS),
    IdentitySpec("corollary1", "unweighted quadratic Bernoulli polynomial convolution",
                 (("", _corollary1),), n_min=1, n_max=30),
    IdentitySpec("corollary2", "number-level quadratic Bernoulli convolution at even degree",
                 (("", _corollary2),), n_min=4, n_max=60, n_step=2),
    IdentitySpec("corollary3", "one-parameter degeneration of the pair convolution with a shifted-harmonic term",
                 (("", _corollary3),), n_min=1, n_max=30, param_names=("a",), param_sets=_SINGLE_A_SET),
    IdentitySpec("corollary4", "harmonic-weighted quadratic Bernoulli convolutions (two displays)",
                 (("a=1", _corollary4_first), ("a=2", _corollary4_second)), n_min=1, n_max=30),
    IdentitySpec("eq-2-12", "asymmetric harmonic-weighted quadratic Bernoulli convolution",
                 (("", _eq_2_12),), n_min=1, n_max=30),
    IdentitySpec("corollary5", "binomial number-to-polynomial Bernoulli convolution in closed form",
                 (("", _corollary5),), n_min=1, n_max=30),
    IdentitySpec("corollary6", "half-scaled binomial convolution with an argument-doubled right side",
                 (("", _corollary6),), n_min=1, n_max=30),
    IdentitySpec("eq-2-15", "binomial quadratic Bernoulli convolution at half scale",
                 (("", _eq_2_15),), n_min=1, n_max=30),
    IdentitySpec("corollary7", "double-harmonic weighted quadratic Bernoulli convolution",
                 (("", _corollary7),), n_min=1, n_max=30),
    IdentitySpec("theorem2", "k-parameter weighted multinomial convolution of Bernoulli polynomials",
                 (("", eval_theorem2),), n_min=0, n_max=20, param_names=("a_vec",), k_min=2, default_ks=(2, 3, 4)),
    IdentitySpec("eq-4-0a", "unweighted cubic Bernoulli polynomial convolution",
                 (("", _eq_4_0a),), n_min=3, n_max=12),
    IdentitySpec("kth-matiyasevich", "k-fold Bernoulli number convolution in binomial form",
                 (("", _kth_matiyasevich),), n_min=0, n_max=20, k_min=2, default_ks=(2, 3, 4)),
    IdentitySpec("theorem3", "two-parameter weighted convolution of Euler polynomial pairs",
                 (("", eval_theorem3),), n_min=1, n_max=30, param_names=("a", "b"), param_sets=_PAIR_SETS),
    IdentitySpec("theorem4", "k-parameter weighted multinomial convolution of Euler polynomials",
                 (("", eval_theorem4),), n_min=0, n_max=20, param_names=("a_vec",), k_min=1, default_ks=(1, 2, 3, 4)),
    IdentitySpec("eq-6-9", "epsilon-weighted cubic Bernoulli convolution with factorial normalization",
                 (("", _eq_6_9),), n_min=2, n_max=20, param_names=("epsilon",), param_sets=_EPS_SET),
    IdentitySpec("corollary8", "multinomial cubic Bernoulli polynomial convolution",
                 (("", _corollary8),), n_min=2, n_max=30),
    IdentitySpec("corollary9", "third-order harmonic-weighted Bernoulli number convolution",
                 (("", _corollary9),), n_min=2, n_max=60),
    IdentitySpec("corollary10", "harmonic-weighted quadratic Euler polynomial convolutions (two displays)",
                 (("first", _corollary10_first), ("second", _corollary10_second)), n_min=2, n_max=30),
    IdentitySpec("corollary11", "cubic Euler polynomial convolutions with harmonic weights (two displays)",
                 (("first", _corollary11_first), ("second", _corollary11_second)), n_min=2, n_max=30),
    IdentitySpec("dunne-schubert", "rising-factorial weighted even-index Bernoulli sum, normalized form",
                 (("", eval_dunne_schubert),), n_min=2, n_max=15, param_names=("p",), param_sets=_P_SET),
    IdentitySpec("eq-7-2", "variant right side of the rising-factorial weighted even-index sum",
                 (("", eval_eq72),), n_min=2, n_max=15, param_names=("p",), param_sets=_P_SET),
    IdentitySpec("gamma-sum", "telescoping rising-factorial ratio sum",
                 (("", gamma_sum_identity),), n_min=1, n_max=30, param_names=("p",), param_sets=_P_SET),
)}


def _refuse_foreign_inputs(entry: IdentitySpec, params: Mapping[str, object], k: object) -> None:
    """Refuse a parameter the entry does not take, or a k for an entry
    that takes none."""
    allowed = set(entry.param_names)
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise DomainError(
            f"{entry.name} does not take parameter(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed)) or '(none)'}"
        )
    if not entry.takes_k and k is not None:
        raise DomainError(f"{entry.name} does not take k")


def _checked(name: str, points: Iterable[Point] | None,
             registry: Mapping[str, IdentitySpec] | None = None) -> tuple[IdentitySpec, list[dict]]:
    """The entry `name` of the registry (REGISTRY by default) and copies of
    the points (its default grid if None) checked against its declaration:
    the one domain check of `verify`, `eval_corollary` and the public
    evaluators.  A k of None is no k, a k-fold point without one takes the
    length of its `a_vec`, a list `a_vec` is read as a tuple, and in a
    checked point every parameter is a Fraction."""
    reg = REGISTRY if registry is None else registry
    entry = reg.get(name)
    if entry is None:
        raise UnknownIdentityError(f"unknown identity {name!r}; valid names: {', '.join(reg)}")
    checked = []
    for pt in build_points(entry) if points is None else points:
        pt = {key: v for key, v in pt.items() if key != "k" or v is not None}
        _refuse_foreign_inputs(entry, {key: v for key, v in pt.items() if key not in ("n", "k")}, pt.get("k"))
        if isinstance(pt.get("a_vec"), list):
            pt["a_vec"] = tuple(pt["a_vec"])
        if entry.takes_k and "k" not in pt and isinstance(pt.get("a_vec"), tuple):
            pt["k"] = len(pt["a_vec"])
        if not entry.validity(pt):
            raise DomainError(f"{name}: {point_text(pt)} violates validity: {entry.validity_text}")
        for key in entry.param_names:
            pt[key] = tuple(map(Fraction, pt[key])) if key == "a_vec" else Fraction(pt[key])
        checked.append(pt)
    return entry, checked


def eval_corollary(name: str, n: int, params: Mapping[str, object] | None = None) -> tuple[Poly, Poly]:
    """Evaluate both sides of any registry entry at a single point.

    `params` supplies the entry's named parameters (and `k` where the entry
    takes one); any other input is refused, with the message of
    `build_points`.  Entries with several displays accept a `display`
    selector; without one the first display is returned.
    """
    params = dict(params or {})
    display = params.pop("display", None)
    entry, (point,) = _checked(name, [{"n": n, **params}])
    displays = entry.evaluate(point)
    if display is None:
        return displays[0][1], displays[0][2]
    for label, lhs, rhs in displays:
        if label == display:
            return lhs, rhs
    raise DomainError(f"{name}: no display {display!r}; available: {[d[0] for d in displays]}")


def point_text(pt: Point) -> str:
    """Deterministic one-line rendering of a grid point, for messages and
    the inputs cell of a csv report: each value as str(), with the entries
    of an a_vec tuple or list (as in a report's json inputs) joined by ','.
    A point refused as invalid renders as given, whatever its values."""
    chunks = []
    for key in INPUT_ORDER:
        if key in pt:
            v = pt[key]
            joined = key == "a_vec" and isinstance(v, (tuple, list))
            chunks.append(f"{key}=" + (",".join(map(str, v)) if joined else str(v)))
    return " ".join(chunks)


def build_points(
    entry: IdentitySpec,
    n_values: Iterable[int] | None = None,
    k: int | None = None,
    params: Mapping[str, object] | None = None,
) -> list[dict]:
    """Construct the ordered grid for an entry, honouring overrides.

    With no overrides this is the entry's full default desk-scale grid.  An
    explicit n range, k, or parameter set replaces the corresponding default
    axis; everything else keeps its default.
    """
    params = dict(params) if params else None
    _refuse_foreign_inputs(entry, params or {}, k)
    if entry.takes_k:
        if k is not None:
            ks: tuple[int | None, ...] = (k,)
        elif params and isinstance(params.get("a_vec"), tuple):
            ks = (len(params["a_vec"]),)
        else:
            ks = entry.default_ks
    else:
        ks = (None,)
    points: list[dict] = []
    for kk in ks:
        ns = tuple(n_values) if n_values is not None else entry.default_n(kk)
        param_sets = (params,) if params else entry.default_param_sets(kk)
        for pset in param_sets:
            for n in ns:
                pt: dict = {"n": n}
                if kk is not None:
                    pt["k"] = kk
                pt.update(pset)
                points.append(pt)
    return points


def verify(
    name: str,
    points: Iterable[Point] | None = None,
    registry: Mapping[str, IdentitySpec] | None = None,
) -> list[IdentityReport]:
    """Run one registry entry over a grid and report each point.

    Points must satisfy the entry's validity predicate and name only its
    inputs; an offending point raises DomainError before any evaluation
    runs, and a report's inputs are its checked point.  A failing identity
    never raises: it produces a fail report with the difference retained.
    """
    entry, grid = _checked(name, points, registry)
    reports: list[IdentityReport] = []
    for pt in grid:
        start = time.perf_counter()
        displays = entry.evaluate(pt)
        # one evaluation serves every display of the point: split its time
        # evenly, so that the reports' times add up to the measured total
        elapsed = (time.perf_counter() - start) / len(displays)
        for label, lhs, rhs in displays:
            diff = poly_sub(lhs, rhs)
            inputs = dict(pt)
            if label:
                inputs["display"] = label
            reports.append(IdentityReport(
                identity=name,
                inputs=inputs,
                status="pass" if diff == ZERO else "fail",
                lhs=lhs,
                rhs=rhs,
                difference=diff,
                elapsed=elapsed,
            ))
    return reports
