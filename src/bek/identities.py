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
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import factorial, prod
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .exactmath import (
    ONE,
    Poly,
    ZERO,
    binomial,
    composition_parts,
    harmonic,
    harmonic_second,
    harmonic_shifted,
    multinomial,
    pochhammer,
    poly,
    poly_add,
    poly_compose_linear,
    poly_lincomb,
    poly_mul,
    poly_sub,
    series_product,
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


def _const(v: Fraction) -> Poly:
    return poly([v])


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(message)


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


def _sorted_key(parts: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(parts))


def _coeff(p: Poly, m: int) -> Fraction:
    """The coefficient of t^m in p, zero beyond its length."""
    return p[m] if m < len(p) else Fraction(0)


# ---------------------------------------------------------------------------
# theorem-level evaluators (public API)
# ---------------------------------------------------------------------------


def eval_theorem1(n: int, a: Fraction, b: Fraction) -> tuple[Poly, Poly]:
    """Both sides of the two-parameter quadratic Bernoulli convolution.

    LHS: sum_l C(n,l) (a)_l (b)_{n-l} / (a+b)_n B_l(x) B_{n-l}(x).
    RHS: sum_l C(n,l) (a (b)_l + b (a)_l) / (a+b)_{l+1} B_l B_{n-l}(x)
         + n a b / ((a+b+1)(a+b)) B_{n-1}(x).
    """
    _require(isinstance(n, int) and n >= 1, f"requires integer n >= 1, got n={n}")
    a, b = Fraction(a), Fraction(b)
    _require(a > 0 and b > 0, f"requires a > 0 and b > 0, got a={a}, b={b}")
    lhs = poly_lincomb(
        (binomial(n, l) * pochhammer(a, l) * pochhammer(b, n - l) / pochhammer(a + b, n),
         _bern_product((min(l, n - l), max(l, n - l))))
        for l in range(n + 1)
    )
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
    contribute nothing.

    The RHS is evaluated without enumerating subsets or compositions.  With
    A_i(t) = sum_l (a_i)_l B_l t^l / l! (truncated after t^(n+1)), the
    subset-and-composition sum for fixed l_0 is a coefficient of

        q(t) = sum_{J != {}} prod_{i in J} a_i t prod_{i not in J} A_i(t)
             = prod_i (A_i(t) + a_i t) - prod_i A_i(t),

    and RHS = sum_{l_0=0}^{n} n!/l_0! [t^(n+1-l_0)] q / (sum a)_{n+1-l_0}
    B_{l_0}(x).
    """
    _require(isinstance(n, int) and n >= 0, f"requires integer n >= 0, got n={n}")
    a_vec = tuple(Fraction(v) for v in a_vec)
    if k is None:
        k = len(a_vec)
    _require(k >= 2, f"requires k >= 2, got k={k}")
    _require(len(a_vec) == k, f"requires len(a_vec) == k, got {len(a_vec)} != {k}")
    _require(all(v > 0 for v in a_vec), f"requires positive parameters, got {a_vec}")
    total = sum(a_vec)
    denom = pochhammer(total, n)
    lhs = poly_lincomb(
        (multinomial(n, parts) * prod(pochhammer(ai, li) for ai, li in zip(a_vec, parts)) / denom,
         _bern_product(_sorted_key(parts)))
        for parts in composition_parts(n, k)
    )
    d = n + 1
    series = [poly(pochhammer(ai, l) * bernoulli_number(l) / factorial(l) for l in range(d + 1)) for ai in a_vec]
    q = poly_sub(
        series_product((poly_add(s, (Fraction(0), ai)) for s, ai in zip(series, a_vec)), d),
        series_product(series, d),
    )
    rhs = poly_lincomb(
        (Fraction(factorial(n), factorial(l0)) * _coeff(q, d - l0) / pochhammer(total, d - l0), bernoulli_poly(l0))
        for l0 in range(n + 1)
    )
    return lhs, rhs


def eval_theorem3(n: int, a: Fraction, b: Fraction) -> tuple[Poly, Poly]:
    """Both sides of the two-parameter quadratic Euler convolution.

    LHS: sum_l C(n,l) (a)_l (b)_{n-l} / (a+b)_n E_l(x) E_{n-l}(x).
    RHS: 4/(n+1) B_{n+1}(x)
         - 2/(n+1) sum_{l=0}^{n+1} C(n+1,l) ((a)_l + (b)_l)/(a+b)_l E_l(0) B_{n+1-l}(x).
    """
    _require(isinstance(n, int) and n >= 1, f"requires integer n >= 1, got n={n}")
    a, b = Fraction(a), Fraction(b)
    _require(a > 0 and b > 0, f"requires a > 0 and b > 0, got a={a}, b={b}")
    lhs = poly_lincomb(
        (binomial(n, l) * pochhammer(a, l) * pochhammer(b, n - l) / pochhammer(a + b, n),
         _euler_product((min(l, n - l), max(l, n - l))))
        for l in range(n + 1)
    )
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

    The RHS is evaluated without enumerating subsets or compositions.  With
    D = n+1 (even k) or n (odd k), A_i(t) = sum_l (a_i)_l E_l(0) t^l / l!
    truncated after t^D, and

        q(t) = sum_{J != {}} (-2)^|J| prod_{i not in J} A_i(t)
             = prod_i (A_i(t) - 2) - prod_i A_i(t),

    the RHS is sum_{l_0=0}^{D} w/l_0! [t^(D-l_0)] q / (sum a)_{D-l_0} P_{l_0}(x),
    with w = n! and P = B for even k, w = -n!/2 and P = E for odd k.
    """
    _require(isinstance(n, int) and n >= 0, f"requires integer n >= 0, got n={n}")
    a_vec = tuple(Fraction(v) for v in a_vec)
    if k is None:
        k = len(a_vec)
    _require(k >= 1, f"requires k >= 1, got k={k}")
    _require(len(a_vec) == k, f"requires len(a_vec) == k, got {len(a_vec)} != {k}")
    _require(all(v > 0 for v in a_vec), f"requires positive parameters, got {a_vec}")
    total = sum(a_vec)
    denom = pochhammer(total, n)
    lhs = poly_lincomb(
        (multinomial(n, parts) * prod(pochhammer(ai, li) for ai, li in zip(a_vec, parts)) / denom,
         _euler_product(_sorted_key(parts)))
        for parts in composition_parts(n, k)
    )
    if k % 2 == 0:
        d, weight, base = n + 1, Fraction(factorial(n)), bernoulli_poly
    else:
        d, weight, base = n, Fraction(-factorial(n), 2), euler_poly
    series = [poly(pochhammer(ai, l) * euler_poly_at_zero(l) / factorial(l) for l in range(d + 1)) for ai in a_vec]
    q = poly_sub(
        series_product((poly_add(s, (Fraction(-2),)) for s in series), d),
        series_product(series, d),
    )
    rhs = poly_lincomb(
        (weight / factorial(l0) * _coeff(q, d - l0) / pochhammer(total, d - l0), base(l0))
        for l0 in range(d + 1)
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# corollary-level evaluators
# ---------------------------------------------------------------------------


def _euler_12(n: int) -> tuple[Poly, Poly]:
    lhs = sum(
        (Fraction(binomial(n, j)) * bernoulli_number(j) * bernoulli_number(n - j) for j in range(n + 1)),
        Fraction(0),
    )
    rhs = -n * bernoulli_number(n - 1) - (n - 1) * bernoulli_number(n)
    return _const(lhs), _const(rhs)


def _miki(n: int) -> tuple[Poly, Poly]:
    plain = Fraction(0)
    weighted = Fraction(0)
    for j in range(2, n - 1):
        term = bernoulli_number(j) * bernoulli_number(n - j) / Fraction(j * (n - j))
        plain += term
        weighted += binomial(n, j) * term
    rhs = 2 * harmonic(n) * bernoulli_number(n) / n
    return _const(plain - weighted), _const(rhs)


def _matiyasevich(n: int) -> tuple[Poly, Poly]:
    plain = Fraction(0)
    weighted = Fraction(0)
    for j in range(2, n - 1):
        prod = bernoulli_number(j) * bernoulli_number(n - j)
        plain += prod
        weighted += binomial(n + 2, j) * prod
    lhs = (n + 2) * plain - 2 * weighted
    rhs = n * (n + 1) * bernoulli_number(n)
    return _const(lhs), _const(rhs)


def _corollary1(n: int) -> tuple[Poly, Poly]:
    lhs = poly_lincomb((n + 2, _bern_product((min(l, n - l), max(l, n - l)))) for l in range(n + 1))
    rhs = poly_lincomb([
        *((2 * binomial(n + 2, l + 2) * bernoulli_number(l), bernoulli_poly(n - l)) for l in range(n + 1)),
        (binomial(n + 2, 3), bernoulli_poly(n - 1)),
    ])
    return lhs, rhs


def _corollary2(n: int) -> tuple[Poly, Poly]:
    lhs = Fraction(0)
    rhs = Fraction(0)
    for l in range(n + 1):
        prod = bernoulli_number(l) * bernoulli_number(n - l)
        lhs += prod
        rhs += binomial(n + 2, l + 2) * prod
    return _const((n + 2) * lhs), _const(2 * rhs)


def _corollary3(n: int, a: Fraction) -> tuple[Poly, Poly]:
    lhs = poly_lincomb(
        (binomial(n, l) * pochhammer(a, l) * factorial(n - l - 1) / pochhammer(a, n),
         _bern_product((min(l, n - l), max(l, n - l))))
        for l in range(n)
    )
    rhs = poly_lincomb([
        *((binomial(n, l) * (a * factorial(l - 1) + pochhammer(a, l)) / pochhammer(a, l + 1) * bernoulli_number(l),
           bernoulli_poly(n - l))
          for l in range(1, n + 1)),
        (Fraction(n) / (a + 1), bernoulli_poly(n - 1)),
        (harmonic_shifted(a, n), bernoulli_poly(n)),
    ])
    return lhs, rhs


def _corollary4_first(n: int) -> tuple[Poly, Poly]:
    lhs = poly_lincomb(
        (Fraction(n, 2 * l * (n - l)), _bern_product((min(l, n - l), max(l, n - l)))) for l in range(1, n)
    )
    rhs = poly_lincomb([
        *((binomial(n, l) * bernoulli_number(l) / l, bernoulli_poly(n - l)) for l in range(1, n + 1)),
        (Fraction(n, 2), bernoulli_poly(n - 1)),
        (harmonic(n - 1), bernoulli_poly(n)),
    ])
    return lhs, rhs


def _corollary4_second(n: int) -> tuple[Poly, Poly]:
    lhs = poly_lincomb(
        (Fraction((n + 2) * (l + 1), n - l), _bern_product((min(l, n - l), max(l, n - l)))) for l in range(n)
    )
    rhs = poly_lincomb([
        *((binomial(n + 2, l + 2) * Fraction(l * l + l + 2, l) * bernoulli_number(l), bernoulli_poly(n - l))
          for l in range(1, n + 1)),
        (Fraction((n + 1) * (n + 2) * n, 3), bernoulli_poly(n - 1)),
        ((n + 1) * (n + 2) * harmonic_shifted(Fraction(2), n), bernoulli_poly(n)),
    ])
    return lhs, rhs


def _eq_2_12(n: int) -> tuple[Poly, Poly]:
    lhs = poly_lincomb(
        (Fraction(1, n - l), _bern_product((min(l, n - l), max(l, n - l)))) for l in range(n)
    )
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
    lhs = poly_lincomb(
        (Fraction(binomial(n, l), 2 ** n), _bern_product((min(l, n - l), max(l, n - l)))) for l in range(n + 1)
    )
    rhs = poly_lincomb([
        *((binomial(n, l) * bernoulli_number(l) / Fraction(2) ** l, bernoulli_poly(n - l)) for l in range(n + 1)),
        (Fraction(n, 4), bernoulli_poly(n - 1)),
    ])
    return lhs, rhs


def _corollary7(n: int) -> tuple[Poly, Poly]:
    lhs = poly_lincomb(
        (n * (harmonic(n - 1) - harmonic(l - 1)) / Fraction(l * (n - l)),
         _bern_product((min(l, n - l), max(l, n - l))))
        for l in range(1, n)
    )
    rhs = poly_lincomb([
        *((binomial(n, l) * (harmonic(l) + Fraction(1, l)) * bernoulli_number(l) / l, bernoulli_poly(n - l))
          for l in range(1, n + 1)),
        (n, bernoulli_poly(n - 1)),
        (Fraction(1, 2) * (harmonic(n - 1) ** 2 + 3 * harmonic_second(n - 1)), bernoulli_poly(n)),
    ])
    return lhs, rhs


def _eq_4_0a(n: int) -> tuple[Poly, Poly]:
    lhs = poly_lincomb((n + 3, _bern_product(_sorted_key(parts))) for parts in composition_parts(n, 3))
    rhs = poly_lincomb([
        *((3 * binomial(n + 3, i) * bernoulli_number(j) * bernoulli_number(l), bernoulli_poly(i))
          for i, j, l in composition_parts(n, 3)),
        *((3 * binomial(n + 3, i) * bernoulli_number(j), bernoulli_poly(i))
          for i, j in composition_parts(n - 1, 2)),
        (binomial(n + 3, 5), bernoulli_poly(n - 2)),
    ])
    return lhs, rhs


def _kth_matiyasevich(n: int, k: int) -> tuple[Poly, Poly]:
    lhs = Fraction(0)
    for parts in composition_parts(n, k):
        c = Fraction(1)
        for li in parts:
            c *= bernoulli_number(li)
        lhs += c
    rhs = Fraction(0)
    for j in range(1, min(k, n + 1) + 1):
        inner = Fraction(0)
        for parts in composition_parts(n + 1 - j, k - j + 1):
            c = Fraction(binomial(n + k, parts[0]))
            for li in parts:
                c *= bernoulli_number(li)
            inner += c
        rhs += binomial(k, j) * inner
    rhs /= n + k
    return _const(lhs), _const(rhs)


def _eq_6_9(n: int, eps: Fraction) -> tuple[Poly, Poly]:
    lhs = poly_lincomb(
        (pochhammer(eps, i) * pochhammer(eps, j) * pochhammer(eps, l) / pochhammer(3 * eps, n)
         / (factorial(i) * factorial(j) * factorial(l)),
         _bern_product(_sorted_key((i, j, l))))
        for i, j, l in composition_parts(n, 3)
    )
    # for fixed i the (j, l) sum is [t^(n-i)] of the square of
    # sum_l (eps)_l B_l t^l / l!
    series = poly(pochhammer(eps, l) * bernoulli_number(l) / factorial(l) for l in range(n + 1))
    square = series_product((series, series), n)
    rhs = poly_lincomb([
        *((3 * eps / pochhammer(3 * eps, n - i + 1) / factorial(i) * _coeff(square, n - i), bernoulli_poly(i))
          for i in range(n + 1)),
        *((3 * eps * eps * pochhammer(eps, j) / pochhammer(3 * eps, j + 2)
           * bernoulli_number(j) / (factorial(i) * factorial(j)),
           bernoulli_poly(i))
          for i, j in composition_parts(n - 1, 2)),
        (eps ** 3 / pochhammer(3 * eps, 3) / factorial(n - 2), bernoulli_poly(n - 2)),
    ])
    return lhs, rhs


def _corollary8(n: int) -> tuple[Poly, Poly]:
    lhs = poly_lincomb(
        (multinomial(n, parts), _bern_product(_sorted_key(parts))) for parts in composition_parts(n, 3)
    )
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


def _corollary9(n: int) -> tuple[Poly, Poly]:
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
    lhs = Fraction(1, 3) * s1
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
    return _const(lhs), _const(rhs)


def _corollary10_first(n: int) -> tuple[Poly, Poly]:
    lhs = poly_lincomb(
        (Fraction(1, l * (n - l - 1)), _euler_product(_sorted_key((l, n - l - 1)))) for l in range(1, n - 1)
    )
    rhs = poly_lincomb([
        *((4 * binomial(n - 2, l - 1) * harmonic(l - 1) * euler_poly_at_zero(l) / Fraction(l * (n - l)),
           bernoulli_poly(n - l))
          for l in range(1, n)),
        (2 * harmonic(n - 2) / Fraction(n - 1), euler_poly(n - 1)),
        (4 * harmonic(n - 1) / Fraction(n - 1) * euler_poly_at_zero(n) / n, ONE),
    ])
    return lhs, rhs


def _corollary10_second(n: int) -> tuple[Poly, Poly]:
    lhs = poly_lincomb(
        ((harmonic(n - 1) - harmonic(l - 1)) / Fraction(l * (n - l)), _euler_product(_sorted_key((l, n - l))))
        for l in range(1, n)
    )
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


def _centered_euler_pair(c: Fraction, l: int, m: int) -> Iterator[tuple[Fraction, Poly]]:
    """The terms of c (E_l(x) E_m(x) - E_l(0) E_m(0))."""
    yield c, _euler_product(_sorted_key((l, m)))
    yield -c * euler_poly_at_zero(l) * euler_poly_at_zero(m), ONE


def _corollary11_first(n: int) -> tuple[Poly, Poly]:
    lhs = poly_lincomb(chain.from_iterable(
        _centered_euler_pair(Fraction(1, l * (n - l)), l, n - l) for l in range(1, n)
    ))
    rhs = poly_lincomb([
        *((binomial(n - 1, i) * (euler_poly_at_zero(j) / j) * (euler_poly_at_zero(l) / l), euler_poly(i))
          for i, j, l in composition_parts(n, 3) if i >= 1 and j >= 1 and l >= 1),
        (2 * harmonic(n - 1) / Fraction(n), euler_poly(n)),
    ])
    return lhs, rhs


def _corollary11_second(n: int) -> tuple[Poly, Poly]:
    lhs = poly_lincomb(
        (Fraction(1, 3 * i * j * l), _euler_product(_sorted_key((i, j, l))))
        for i, j, l in composition_parts(n, 3) if i >= 1 and j >= 1 and l >= 1
    )
    rhs = poly_lincomb([
        (-2 * (harmonic(n - 1) ** 2 + 2 * harmonic_second(n - 1)) / Fraction(n), euler_poly(n)),
        *((binomial(n - 1, i)
           * (harmonic(j - 1) + harmonic(l - 1) - 3 * harmonic(j + l - 1))
           * euler_poly_at_zero(j)
           * euler_poly_at_zero(l)
           / Fraction(j * l),
           euler_poly(i))
          for i, j, l in composition_parts(n, 3) if i >= 1 and j >= 1 and l >= 1),
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
    _require(isinstance(n, int) and n >= 2, f"requires integer n >= 2, got n={n}")
    p = Fraction(p)
    _require(p > 0, f"requires p > 0, got p={p}")
    lead = Fraction(0)
    for l in range(1, 2 * n):
        lead += pochhammer(p + 1, l - 1) * pochhammer(2 * p + 1, 2 * n - 1) / pochhammer(2 * p + 1, l)
    rhs = 2 * bernoulli_number(2 * n) / Fraction(factorial(2 * n)) * lead + _ds_cross_term(n, p)
    return _ds_lhs(n, p), rhs


def eval_eq72(n: int, p: Fraction) -> tuple[Fraction, Fraction]:
    """Variant right-hand side of the same normalized even-index sum, with
    the difference of rising factorials collected into the leading term."""
    _require(isinstance(n, int) and n >= 2, f"requires integer n >= 2, got n={n}")
    p = Fraction(p)
    _require(p > 0, f"requires p > 0, got p={p}")
    lead = (
        (pochhammer(2 * p, 2 * n) - 2 * pochhammer(p, 2 * n))
        * bernoulli_number(2 * n)
        / (p * p * factorial(2 * n))
    )
    return _ds_lhs(n, p), lead + _ds_cross_term(n, p)


def gamma_sum_identity(n: int, p: Fraction) -> tuple[Fraction, Fraction]:
    """Both sides of the telescoping rising-factorial ratio sum, normalized
    so every term is a ratio of rising factorials."""
    _require(isinstance(n, int) and n >= 1, f"requires integer n >= 1, got n={n}")
    p = Fraction(p)
    _require(p > 0, f"requires p > 0, got p={p}")
    lhs = Fraction(0)
    for l in range(1, 2 * n):
        lhs += pochhammer(p, l) / pochhammer(2 * p + 1, l)
    rhs = 1 - pochhammer(p, 2 * n) / (p * pochhammer(2 * p + 1, 2 * n - 1))
    return lhs, rhs


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


Point = Mapping[str, object]


@dataclass(frozen=True)
class IdentitySpec:
    """A registry entry: metadata, validity predicate, evaluator, default grid."""

    name: str
    summary: str
    param_names: tuple[str, ...]
    takes_k: bool
    validity_text: str
    validity: Callable[[Point], bool]
    evaluate: Callable[[Point], list[tuple[str, Poly, Poly]]]
    default_ks: tuple[int, ...]
    default_n: Callable[[int | None], tuple[int, ...]]
    default_param_sets: Callable[[int | None], tuple[dict, ...]]


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


REGISTRY: dict[str, IdentitySpec] = {}


def _register(spec: IdentitySpec) -> None:
    if spec.name in REGISTRY:
        raise ValueError(f"duplicate registry key {spec.name!r}")
    REGISTRY[spec.name] = spec


_PAIR_SETS: tuple[dict, ...] = (
    {"a": Fraction(1), "b": Fraction(1)},
    {"a": Fraction(2), "b": Fraction(1)},
    {"a": Fraction(1, 2), "b": Fraction(3, 2)},
    {"a": Fraction(7, 3), "b": Fraction(5, 4)},
)

_SINGLE_A_SET: tuple[dict, ...] = tuple(
    {"a": v} for v in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(7, 3))
)

_P_SET: tuple[dict, ...] = tuple(
    {"p": v} for v in (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3))
)

_EPS_SET: tuple[dict, ...] = tuple({"epsilon": v} for v in (Fraction(1), Fraction(1, 2), Fraction(3)))

_TUPLE_SETS: dict[int, tuple[tuple[Fraction, ...], ...]] = {
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
    4: (
        (Fraction(1), Fraction(1), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)),
        (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
    ),
}

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


def _conv_default_n(k: int | None) -> tuple[int, ...]:
    """Desk-scale degree ranges for the k-fold convolutions."""
    if k is None or k <= 2:
        return tuple(range(0, 21))
    if k == 3:
        return tuple(range(0, 15))
    if k == 4:
        return tuple(range(0, 11))
    return tuple(range(0, max(3, 15 - 2 * k)))


def _n_range(lo: int, hi: int, step: int = 1) -> Callable[[int | None], tuple[int, ...]]:
    values = tuple(range(lo, hi + 1, step))
    return lambda k: values


def _no_params(k: int | None) -> tuple[dict, ...]:
    return ({},)


def _is_rat(v: object) -> bool:
    return isinstance(v, (int, Fraction))


def _pos(v: object) -> bool:
    return _is_rat(v) and v > 0


def _valid_avec(pt: Point, k_min: int) -> bool:
    n = pt.get("n")
    k = pt.get("k")
    vec = pt.get("a_vec")
    if not (isinstance(n, int) and n >= 0 and isinstance(k, int) and k >= k_min):
        return False
    return isinstance(vec, tuple) and len(vec) == k and all(_pos(v) for v in vec)


def _single(fn: Callable[..., tuple[Poly, Poly]], *keys: str) -> Callable[[Point], list[tuple[str, Poly, Poly]]]:
    def evaluate(pt: Point) -> list[tuple[str, Poly, Poly]]:
        lhs, rhs = fn(*(pt[key] for key in keys))
        return [("", lhs, rhs)]

    return evaluate


def _single_scalar(fn: Callable[..., tuple[Fraction, Fraction]], *keys: str) -> Callable[[Point], list[tuple[str, Poly, Poly]]]:
    def evaluate(pt: Point) -> list[tuple[str, Poly, Poly]]:
        lhs, rhs = fn(*(pt[key] for key in keys))
        return [("", _const(lhs), _const(rhs))]

    return evaluate


_register(IdentitySpec(
    name="euler-1-2",
    summary="binomial self-convolution of Bernoulli numbers in closed form",
    param_names=(),
    takes_k=False,
    validity_text="integer n >= 1",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 1,
    evaluate=_single(_euler_12, "n"),
    default_ks=(),
    default_n=_n_range(1, 60),
    default_param_sets=_no_params,
))

_register(IdentitySpec(
    name="miki",
    summary="difference of plain and binomial quadratic Bernoulli sums with a harmonic right side",
    param_names=(),
    takes_k=False,
    validity_text="integer n >= 4",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 4,
    evaluate=_single(_miki, "n"),
    default_ks=(),
    default_n=_n_range(4, 60),
    default_param_sets=_no_params,
))

_register(IdentitySpec(
    name="matiyasevich",
    summary="weighted difference of quadratic Bernoulli sums",
    param_names=(),
    takes_k=False,
    validity_text="integer n >= 4",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 4,
    evaluate=_single(_matiyasevich, "n"),
    default_ks=(),
    default_n=_n_range(4, 60),
    default_param_sets=_no_params,
))

_register(IdentitySpec(
    name="theorem1",
    summary="two-parameter weighted convolution of Bernoulli polynomial pairs",
    param_names=("a", "b"),
    takes_k=False,
    validity_text="integer n >= 1 with rational a > 0 and b > 0",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 1 and _pos(pt.get("a")) and _pos(pt.get("b")),
    evaluate=_single(eval_theorem1, "n", "a", "b"),
    default_ks=(),
    default_n=_n_range(1, 30),
    default_param_sets=lambda k: _PAIR_SETS,
))

_register(IdentitySpec(
    name="corollary1",
    summary="unweighted quadratic Bernoulli polynomial convolution",
    param_names=(),
    takes_k=False,
    validity_text="integer n >= 1",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 1,
    evaluate=_single(_corollary1, "n"),
    default_ks=(),
    default_n=_n_range(1, 30),
    default_param_sets=_no_params,
))

_register(IdentitySpec(
    name="corollary2",
    summary="number-level quadratic Bernoulli convolution at even degree",
    param_names=(),
    takes_k=False,
    validity_text="even n >= 4",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 4 and pt["n"] % 2 == 0,
    evaluate=_single(_corollary2, "n"),
    default_ks=(),
    default_n=_n_range(4, 60, 2),
    default_param_sets=_no_params,
))

_register(IdentitySpec(
    name="corollary3",
    summary="one-parameter degeneration of the pair convolution with a shifted-harmonic term",
    param_names=("a",),
    takes_k=False,
    validity_text="integer n >= 1 with rational a > 0",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 1 and _pos(pt.get("a")),
    evaluate=_single(_corollary3, "n", "a"),
    default_ks=(),
    default_n=_n_range(1, 30),
    default_param_sets=lambda k: _SINGLE_A_SET,
))


def _corollary4_eval(pt: Point) -> list[tuple[str, Poly, Poly]]:
    n = pt["n"]
    l1, r1 = _corollary4_first(n)
    l2, r2 = _corollary4_second(n)
    return [("a=1", l1, r1), ("a=2", l2, r2)]


_register(IdentitySpec(
    name="corollary4",
    summary="harmonic-weighted quadratic Bernoulli convolutions (two displays)",
    param_names=(),
    takes_k=False,
    validity_text="integer n >= 1",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 1,
    evaluate=_corollary4_eval,
    default_ks=(),
    default_n=_n_range(1, 30),
    default_param_sets=_no_params,
))

_register(IdentitySpec(
    name="eq-2-12",
    summary="asymmetric harmonic-weighted quadratic Bernoulli convolution",
    param_names=(),
    takes_k=False,
    validity_text="integer n >= 1",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 1,
    evaluate=_single(_eq_2_12, "n"),
    default_ks=(),
    default_n=_n_range(1, 30),
    default_param_sets=_no_params,
))

_register(IdentitySpec(
    name="corollary5",
    summary="binomial number-to-polynomial Bernoulli convolution in closed form",
    param_names=(),
    takes_k=False,
    validity_text="integer n >= 1",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 1,
    evaluate=_single(_corollary5, "n"),
    default_ks=(),
    default_n=_n_range(1, 30),
    default_param_sets=_no_params,
))

_register(IdentitySpec(
    name="corollary6",
    summary="half-scaled binomial convolution with an argument-doubled right side",
    param_names=(),
    takes_k=False,
    validity_text="integer n >= 1",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 1,
    evaluate=_single(_corollary6, "n"),
    default_ks=(),
    default_n=_n_range(1, 30),
    default_param_sets=_no_params,
))

_register(IdentitySpec(
    name="eq-2-15",
    summary="binomial quadratic Bernoulli convolution at half scale",
    param_names=(),
    takes_k=False,
    validity_text="integer n >= 1",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 1,
    evaluate=_single(_eq_2_15, "n"),
    default_ks=(),
    default_n=_n_range(1, 30),
    default_param_sets=_no_params,
))

_register(IdentitySpec(
    name="corollary7",
    summary="double-harmonic weighted quadratic Bernoulli convolution",
    param_names=(),
    takes_k=False,
    validity_text="integer n >= 1",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 1,
    evaluate=_single(_corollary7, "n"),
    default_ks=(),
    default_n=_n_range(1, 30),
    default_param_sets=_no_params,
))

_register(IdentitySpec(
    name="theorem2",
    summary="k-parameter weighted multinomial convolution of Bernoulli polynomials",
    param_names=("a_vec",),
    takes_k=True,
    validity_text="integer n >= 0, integer k >= 2, a_vec of k positive rationals",
    validity=lambda pt: _valid_avec(pt, 2),
    evaluate=lambda pt: [("", *eval_theorem2(pt["n"], pt["a_vec"], pt["k"]))],
    default_ks=(2, 3, 4),
    default_n=_conv_default_n,
    default_param_sets=_tuple_sets_for_k,
))

_register(IdentitySpec(
    name="eq-4-0a",
    summary="unweighted cubic Bernoulli polynomial convolution",
    param_names=(),
    takes_k=False,
    validity_text="integer n >= 3",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 3,
    evaluate=_single(_eq_4_0a, "n"),
    default_ks=(),
    default_n=_n_range(3, 12),
    default_param_sets=_no_params,
))

_register(IdentitySpec(
    name="kth-matiyasevich",
    summary="k-fold Bernoulli number convolution in binomial form",
    param_names=(),
    takes_k=True,
    validity_text="integer n >= 0 and integer k >= 2",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 0 and isinstance(pt.get("k"), int) and pt["k"] >= 2,
    evaluate=lambda pt: [("", *_kth_matiyasevich(pt["n"], pt["k"]))],
    default_ks=(2, 3, 4),
    default_n=_conv_default_n,
    default_param_sets=_no_params,
))

_register(IdentitySpec(
    name="theorem3",
    summary="two-parameter weighted convolution of Euler polynomial pairs",
    param_names=("a", "b"),
    takes_k=False,
    validity_text="integer n >= 1 with rational a > 0 and b > 0",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 1 and _pos(pt.get("a")) and _pos(pt.get("b")),
    evaluate=_single(eval_theorem3, "n", "a", "b"),
    default_ks=(),
    default_n=_n_range(1, 30),
    default_param_sets=lambda k: _PAIR_SETS,
))

_register(IdentitySpec(
    name="theorem4",
    summary="k-parameter weighted multinomial convolution of Euler polynomials",
    param_names=("a_vec",),
    takes_k=True,
    validity_text="integer n >= 0, integer k >= 1, a_vec of k positive rationals",
    validity=lambda pt: _valid_avec(pt, 1),
    evaluate=lambda pt: [("", *eval_theorem4(pt["n"], pt["a_vec"], pt["k"]))],
    default_ks=(1, 2, 3, 4),
    default_n=_conv_default_n,
    default_param_sets=lambda k: (
        ({"a_vec": (Fraction(1),)}, {"a_vec": (Fraction(2),)}, {"a_vec": (Fraction(1, 2),)})
        if k == 1
        else _tuple_sets_for_k(k)
    ),
))

_register(IdentitySpec(
    name="eq-6-9",
    summary="epsilon-weighted cubic Bernoulli convolution with factorial normalization",
    param_names=("epsilon",),
    takes_k=False,
    validity_text="integer n >= 2 with rational epsilon > 0",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 2 and _pos(pt.get("epsilon")),
    evaluate=_single(_eq_6_9, "n", "epsilon"),
    default_ks=(),
    default_n=_n_range(2, 20),
    default_param_sets=lambda k: _EPS_SET,
))

_register(IdentitySpec(
    name="corollary8",
    summary="multinomial cubic Bernoulli polynomial convolution",
    param_names=(),
    takes_k=False,
    validity_text="integer n >= 2",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 2,
    evaluate=_single(_corollary8, "n"),
    default_ks=(),
    default_n=_n_range(2, 30),
    default_param_sets=_no_params,
))

_register(IdentitySpec(
    name="corollary9",
    summary="third-order harmonic-weighted Bernoulli number convolution",
    param_names=(),
    takes_k=False,
    validity_text="integer n >= 2",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 2,
    evaluate=_single(_corollary9, "n"),
    default_ks=(),
    default_n=_n_range(2, 60),
    default_param_sets=_no_params,
))


def _corollary10_eval(pt: Point) -> list[tuple[str, Poly, Poly]]:
    n = pt["n"]
    l1, r1 = _corollary10_first(n)
    l2, r2 = _corollary10_second(n)
    return [("first", l1, r1), ("second", l2, r2)]


_register(IdentitySpec(
    name="corollary10",
    summary="harmonic-weighted quadratic Euler polynomial convolutions (two displays)",
    param_names=(),
    takes_k=False,
    validity_text="integer n >= 2",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 2,
    evaluate=_corollary10_eval,
    default_ks=(),
    default_n=_n_range(2, 30),
    default_param_sets=_no_params,
))


def _corollary11_eval(pt: Point) -> list[tuple[str, Poly, Poly]]:
    n = pt["n"]
    l1, r1 = _corollary11_first(n)
    l2, r2 = _corollary11_second(n)
    return [("first", l1, r1), ("second", l2, r2)]


_register(IdentitySpec(
    name="corollary11",
    summary="cubic Euler polynomial convolutions with harmonic weights (two displays)",
    param_names=(),
    takes_k=False,
    validity_text="integer n >= 2",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 2,
    evaluate=_corollary11_eval,
    default_ks=(),
    default_n=_n_range(2, 30),
    default_param_sets=_no_params,
))

_register(IdentitySpec(
    name="dunne-schubert",
    summary="rising-factorial weighted even-index Bernoulli sum, normalized form",
    param_names=("p",),
    takes_k=False,
    validity_text="integer n >= 2 with rational p > 0",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 2 and _pos(pt.get("p")),
    evaluate=_single_scalar(eval_dunne_schubert, "n", "p"),
    default_ks=(),
    default_n=_n_range(2, 15),
    default_param_sets=lambda k: _P_SET,
))

_register(IdentitySpec(
    name="eq-7-2",
    summary="variant right side of the rising-factorial weighted even-index sum",
    param_names=("p",),
    takes_k=False,
    validity_text="integer n >= 2 with rational p > 0",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 2 and _pos(pt.get("p")),
    evaluate=_single_scalar(eval_eq72, "n", "p"),
    default_ks=(),
    default_n=_n_range(2, 15),
    default_param_sets=lambda k: _P_SET,
))

_register(IdentitySpec(
    name="gamma-sum",
    summary="telescoping rising-factorial ratio sum",
    param_names=("p",),
    takes_k=False,
    validity_text="integer n >= 1 with rational p > 0",
    validity=lambda pt: isinstance(pt.get("n"), int) and pt["n"] >= 1 and _pos(pt.get("p")),
    evaluate=_single_scalar(gamma_sum_identity, "n", "p"),
    default_ks=(),
    default_n=_n_range(1, 30),
    default_param_sets=lambda k: _P_SET,
))


def eval_corollary(name: str, n: int, params: Mapping[str, object] | None = None) -> tuple[Poly, Poly]:
    """Evaluate both sides of any registry entry at a single point.

    `params` supplies the entry's named parameters (and `k` where the entry
    takes one).  Entries with several displays accept a `display` selector;
    without one the first display is returned.
    """
    entry = REGISTRY.get(name)
    if entry is None:
        raise UnknownIdentityError(f"unknown identity {name!r}; valid names: {', '.join(REGISTRY)}")
    params = dict(params or {})
    display = params.pop("display", None)
    point: dict = {"n": n, **params}
    if entry.takes_k and "k" not in point and isinstance(point.get("a_vec"), tuple):
        point["k"] = len(point["a_vec"])
    if not entry.validity(point):
        raise DomainError(f"{name}: {point_text(point)} violates validity: {entry.validity_text}")
    displays = entry.evaluate(point)
    if display is None:
        return displays[0][1], displays[0][2]
    for label, lhs, rhs in displays:
        if label == display:
            return lhs, rhs
    raise DomainError(f"{name}: no display {display!r}; available: {[d[0] for d in displays]}")


def point_text(pt: Point) -> str:
    """Deterministic one-line rendering of a grid point, for messages."""
    order = ("n", "k", "a", "b", "a_vec", "p", "epsilon", "display")
    chunks = []
    for key in order:
        if key in pt:
            v = pt[key]
            if isinstance(v, tuple):
                chunks.append(f"{key}=" + ",".join(str(Fraction(x)) for x in v))
            else:
                chunks.append(f"{key}={v}")
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
    if params:
        allowed = set(entry.param_names)
        unknown = sorted(set(params) - allowed)
        if unknown:
            raise DomainError(
                f"{entry.name} does not take parameter(s) {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(allowed)) or '(none)'}"
            )
    if not entry.takes_k and k is not None:
        raise DomainError(f"{entry.name} does not take k")
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

    Points must satisfy the entry's validity predicate; an offending point
    raises DomainError before any evaluation runs.  A failing identity never
    raises: it produces a fail report with the difference retained.
    """
    reg = registry if registry is not None else REGISTRY
    entry = reg.get(name)
    if entry is None:
        raise UnknownIdentityError(f"unknown identity {name!r}; valid names: {', '.join(reg)}")
    grid = [dict(pt) for pt in points] if points is not None else build_points(entry)
    for pt in grid:
        if not entry.validity(pt):
            raise DomainError(f"{name}: {point_text(pt)} violates validity: {entry.validity_text}")
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
