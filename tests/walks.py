"""Weak-composition walks for the tests' reference sums.

The package reads every multi-index sum off a truncated series product or
a slot-by-slot binomial expansion.  The tests keep the plain sums over
weak compositions, weighted by multinomial coefficients, as independent
references, and these two helpers are what those references walk.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import factorial
from operator import sub
from typing import Iterator, Sequence


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
