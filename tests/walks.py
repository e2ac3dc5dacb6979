"""Weak-composition and subset walks for the tests' reference sums.

The package reads every multi-index sum off a truncated series product or
a slot-by-slot binomial expansion.  The tests keep the plain sums over
weak compositions, weighted by multinomial coefficients, and over index
subsets as independent references, and these helpers are what those
references walk.  The derivative of a polynomial, which only the tests'
references form, lives here too, and so does the schoolbook product of
series whose coefficients are polynomials in x, the reference that the
package's number-series left sides are checked against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial
from operator import sub
from typing import Callable, Iterator, Sequence

from bek.exactmath import ONE, ZERO, poly_lincomb, poly_mul, poly_scale


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Multinomial coefficient n! / prod(parts_i!).

    The parts must be non-negative and sum to n; anything else signals a
    malformed index tuple and is rejected.
    """
    if n < 0:
        raise ValueError(f"multinomial requires n >= 0, got n={n}")
    if any(p < 0 for p in parts):
        raise ValueError(f"multinomial parts must be non-negative, got {parts!r}")
    if sum(parts) != n:
        raise ValueError(f"multinomial parts {parts!r} do not sum to n={n}")
    out = factorial(n)
    for p in parts:
        out //= factorial(p)
    return out


def composition_parts(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All weak compositions of n into k parts, as tuples, lexicographically.

    Each composition appears exactly once; there are C(n+k-1, k-1) of them.
    A negative n yields nothing; this encodes the empty index set of a
    vacuous summation range.  The k - 1 cut points 0 <= c_1 <= ... <= n
    (stars and bars) come from `itertools.combinations_with_replacement`
    in lexicographic order, which is the lexicographic order of the parts
    (c_1, c_2 - c_1, ..., n - c_{k-1}); nothing recurses, so k is bounded
    only by the C(n+k-1, k-1) outputs.
    """
    if k < 1:
        raise ValueError(f"compositions require k >= 1, got k={k}")
    if n < 0:
        return
    end = (n,)
    for cuts in combinations_with_replacement(range(n + 1), k - 1):
        yield (*map(sub, cuts + end, (0,) + cuts),)


def subset_walk(factors: Sequence[Sequence[Fraction]], shifts: Sequence[Sequence[Fraction]],
                d: int) -> list[Fraction]:
    """The coefficients of t^0..t^d of the sum over the non-empty subsets J
    of range(len(factors)) of prod_{i in J} shifts[i] prod_{i not in J}
    factors[i], each product a schoolbook fold of Fraction series."""
    k = len(factors)
    total = [Fraction(0)] * (d + 1)
    for size in range(1, k + 1):
        for subset in combinations(range(k), size):
            term = [Fraction(1)] + [Fraction(0)] * d
            for i in range(k):
                f = shifts[i] if i in subset else factors[i]
                term = [sum((term[m] * f[j - m] for m in range(j + 1) if j - m < len(f)), Fraction(0))
                        for j in range(d + 1)]
            total = [a + b for a, b in zip(total, term)]
    return total


def poly_derivative(p: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The derivative of a polynomial given as its trimmed ascending
    coefficients; the leading one times the degree is not zero, so the
    result needs no trimming."""
    return tuple(i * c for i, c in enumerate(p) if i > 0)


def weighted_convolution(family: Callable[[int], tuple], weights: Sequence[Sequence[Fraction]],
                         top: int) -> list[tuple]:
    """[t^n] prod_i sum_l weights[i][l] family(l) t^l for n = 0..top: a
    schoolbook product of series whose coefficients are polynomials in x,
    truncated after t^top, each coefficient product one `poly_mul`."""
    product = [ONE, *[ZERO] * top]
    for w in weights:
        slot = [poly_scale(w[l], family(l)) for l in range(top + 1)]
        product = [poly_lincomb((1, poly_mul(product[i], slot[n - i])) for i in range(n + 1))
                   for n in range(top + 1)]
    return product
