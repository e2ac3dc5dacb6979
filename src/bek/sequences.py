"""Memoized Bernoulli, Euler, and Genocchi numbers and polynomials.

All values are exact rationals.  The numbers come from one integer table,
the zigzag numbers A_n (OEIS A000111): the tangent numbers A_{2n-1} and
the secant numbers A_{2n}.  Each A_n is the last entry of row n of
Seidel's boustrophedon, and each row is the running sums of the previous
row read backwards, so the whole table costs integer additions only
(Knuth & Buckholtz, Math. Comp. 21, 1967; Brent & Harvey,
arXiv:1108.0286).  From it

    B_{2n} = (-1)^(n-1) 2n A_{2n-1} / (4^n (4^n - 1)),    E_{2n} = (-1)^n A_{2n},

one `Fraction` per entry, with B_1 = -1/2 and the other odd entries zero.
The Genocchi numbers follow as G_n = 2(1 - 2^n) B_n and the zero values
as E_n(0) = G_{n+1}/(n+1).  The polynomials come from their Appell
expansions B_n(x) = sum_j C(n, j) B_j x^{n-j} and E_n(x) = sum_j C(n, j)
E_j(0) x^{n-j}, each coefficient one `Fraction` built from the binomial
times the numerator over the denominator, with no polynomial products.
`appell` takes integer numerators and their denominators: the tables pass
each number's own (one shared denominator for B_0..B_n would slow the
fill, as the lcm grows with n), and the identities, which expand their
own Appell numbers with the same function, pass the one denominator of a
line.  It also takes a scale and an argument lam x.
Unit tests recompute each table by the classical `Fraction` recurrences
and by an independent second route (for E_n(x), the expansion around
x = 1/2 in powers of (x - 1/2)).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from typing import Sequence

from .exactmath import GrowingTables, Poly


class SequenceCache(GrowingTables):
    """Growable tables of sequence values (`GrowingTables`): immutable once
    filled, filled under one lock, read without it."""

    def __init__(self) -> None:
        super().__init__()
        self._zigzag: list[int] = [1]
        # the last row of Seidel's boustrophedon; it ends in the last A_n
        self._seidel_row: list[int] = [1]
        self._bernoulli: list[Fraction] = []
        self._genocchi: list[Fraction] = []
        self._euler_zero: list[Fraction] = []
        self._euler_num: list[Fraction] = []
        self._bernoulli_poly: list[Poly] = []
        self._euler_poly: list[Poly] = []
        # the numerators and denominators of B_n and E_n(0), for `appell`
        self._bernoulli_parts: tuple[list[int], list[int]] = ([], [])
        self._euler_zero_parts: tuple[list[int], list[int]] = ([], [])

    def _next_zigzag(self, m: int) -> int:
        # row m is 0 followed by the running sums of row m - 1 reversed
        self._seidel_row = list(accumulate(reversed(self._seidel_row), initial=0))
        return self._seidel_row[-1]

    def zigzag_number(self, n: int) -> int:
        """A_n, the number of alternating permutations of n elements."""
        return self._entry("zigzag_number", self._zigzag, n, self._next_zigzag)

    def _bernoulli_at(self, m: int) -> Fraction:
        if m == 0:
            return Fraction(1)
        if m == 1:
            return Fraction(-1, 2)
        if m % 2:
            return Fraction(0)
        four = 4 ** (m // 2)
        tangent = m * self.zigzag_number(m - 1)
        return Fraction(tangent if m % 4 else -tangent, four * (four - 1))

    def bernoulli_number(self, n: int) -> Fraction:
        """Exact B_n; B_1 = -1/2 and odd entries vanish from B_3 on."""
        return self._entry("bernoulli_number", self._bernoulli, n, self._bernoulli_at)

    def _genocchi_at(self, m: int) -> Fraction:
        b = self.bernoulli_number(m)
        return Fraction(2 * (1 - 2**m) * b.numerator // b.denominator)

    def genocchi_number(self, n: int) -> Fraction:
        """Exact G_n = 2(1 - 2^n) B_n; always an integer."""
        return self._entry("genocchi_number", self._genocchi, n, self._genocchi_at)

    def _euler_zero_at(self, m: int) -> Fraction:
        return Fraction(self.genocchi_number(m + 1).numerator, m + 1)

    def euler_poly_at_zero(self, n: int) -> Fraction:
        """Exact E_n(0) = G_{n+1} / (n+1)."""
        return self._entry("euler_poly_at_zero", self._euler_zero, n, self._euler_zero_at)

    def _euler_at(self, m: int) -> Fraction:
        if m % 2:
            return Fraction(0)
        secant = self.zigzag_number(m)
        return Fraction(-secant if m % 4 else secant)

    def euler_number(self, n: int) -> Fraction:
        """Exact E_n = (-1)^(n/2) A_n for even n; an integer, zero for odd n."""
        return self._entry("euler_number", self._euler_num, n, self._euler_at)

    @staticmethod
    def _appell_row(values: list[Fraction], parts: tuple[list[int], list[int]], m: int) -> Poly:
        """The Appell polynomial of values[0..m], each number over its own
        denominator, read off the numerator and denominator lists `parts`,
        which grow with the number table."""
        nums, dens = parts
        for v in values[len(nums): m + 1]:
            nums.append(v.numerator)
            dens.append(v.denominator)
        return appell(nums[: m + 1], dens[: m + 1])

    def _bernoulli_poly_at(self, m: int) -> Poly:
        self.bernoulli_number(m)
        return self._appell_row(self._bernoulli, self._bernoulli_parts, m)

    def bernoulli_poly(self, n: int) -> Poly:
        """Exact B_n(x) = sum_j C(n, j) B_j x^{n-j}; monic of degree n."""
        return self._entry("bernoulli_poly", self._bernoulli_poly, n, self._bernoulli_poly_at)

    def _euler_poly_at(self, m: int) -> Poly:
        self.euler_poly_at_zero(m)
        return self._appell_row(self._euler_zero, self._euler_zero_parts, m)

    def euler_poly(self, n: int) -> Poly:
        """Exact E_n(x) = sum_j C(n, j) E_j(0) x^{n-j}; monic of degree n."""
        return self._entry("euler_poly", self._euler_poly, n, self._euler_poly_at)


def appell(nums: Sequence[int], dens: Sequence[int] | int, scale: Fraction | int = 1, lam: int = 1) -> Poly:
    """scale sum_j C(m, j) (nums[j] / dens[j]) (lam x)^{m-j} for m =
    len(nums) - 1 and a positive integer lam: the Appell polynomial of the
    numbers nums[j] / dens[j], scaled, at lam x.  `dens` holds each
    number's own positive denominator, or is one int that all of them
    share.  Each coefficient is one `Fraction` of integers, and zero leading
    values, whose terms vanish, are trimmed."""
    m = len(nums) - 1
    scale = Fraction(scale)
    den = scale.denominator
    coeffs = [Fraction(0)] * (m + 1)
    weight = scale.numerator * lam ** m  # the numerator of scale C(m, j) lam^(m-j)
    for j, (num, d) in enumerate(zip(nums, repeat(dens) if isinstance(dens, int) else dens)):
        if num:
            coeffs[m - j] = Fraction(weight * num, den * d)
        weight = weight * (m - j) // ((j + 1) * lam)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


# the module functions read one shared cache
_SHARED = SequenceCache()
bernoulli_number = _SHARED.bernoulli_number
genocchi_number = _SHARED.genocchi_number
euler_number = _SHARED.euler_number
euler_poly_at_zero = _SHARED.euler_poly_at_zero
bernoulli_poly = _SHARED.bernoulli_poly
euler_poly = _SHARED.euler_poly
