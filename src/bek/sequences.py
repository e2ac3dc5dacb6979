"""Memoized Bernoulli, Euler, and Genocchi numbers and polynomials.

All values are exact rationals.  Bernoulli numbers come from the classical
recurrence sum_{j=0}^{n} C(n+1, j) B_j = 0 solved for B_n.  The Euler-side
values are bootstrapped without circularity: Genocchi numbers from G_n =
2(1 - 2^n) B_n, the zero values E_n(0) = G_{n+1}/(n+1), the Euler numbers as
E_n = 2^n E_n(1/2) with the half-point value read off the zero-anchored
expansion, and finally the Euler polynomials from their Appell expansion
E_n(x) = sum_j C(n, j) E_j(0) x^{n-j}, filled coefficient by coefficient
like the Bernoulli polynomials, with no polynomial products.  Unit tests
recompute each table by an independent second route readily available
from the others (for E_n(x), the expansion around x = 1/2 in powers of
(x - 1/2)).
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb

from .exactmath import Poly, poly


class SequenceCache:
    """Growable tables of sequence values; entries are immutable once filled.

    Fills are serialized with a re-entrant lock; reads of already-computed
    entries are safe from any thread.  Recomputation is deterministic, so
    independent caches always agree.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._bernoulli: list[Fraction] = [Fraction(1)]
        self._genocchi: list[Fraction] = []
        self._euler_zero: list[Fraction] = []
        self._euler_num: list[Fraction] = []
        self._bernoulli_poly: list[Poly] = []
        self._euler_poly: list[Poly] = []

    def bernoulli_number(self, n: int) -> Fraction:
        """Exact B_n; B_1 = -1/2 and odd entries vanish from B_3 on."""
        if n < 0:
            raise ValueError(f"bernoulli_number requires n >= 0, got n={n}")
        with self._lock:
            while len(self._bernoulli) <= n:
                m = len(self._bernoulli)
                acc = Fraction(0)
                for j in range(m):
                    acc += comb(m + 1, j) * self._bernoulli[j]
                self._bernoulli.append(-acc / (m + 1))
        return self._bernoulli[n]

    def genocchi_number(self, n: int) -> Fraction:
        """Exact G_n = 2(1 - 2^n) B_n; always an integer."""
        if n < 0:
            raise ValueError(f"genocchi_number requires n >= 0, got n={n}")
        with self._lock:
            while len(self._genocchi) <= n:
                m = len(self._genocchi)
                self._genocchi.append(2 * (1 - Fraction(2) ** m) * self.bernoulli_number(m))
        return self._genocchi[n]

    def euler_poly_at_zero(self, n: int) -> Fraction:
        """Exact E_n(0) = G_{n+1} / (n+1)."""
        if n < 0:
            raise ValueError(f"euler_poly_at_zero requires n >= 0, got n={n}")
        with self._lock:
            while len(self._euler_zero) <= n:
                m = len(self._euler_zero)
                self._euler_zero.append(self.genocchi_number(m + 1) / (m + 1))
        return self._euler_zero[n]

    def euler_number(self, n: int) -> Fraction:
        """Exact E_n = 2^n E_n(1/2); an integer, zero for odd n.

        The half-point value is expanded through the zero values, giving
        E_n = sum_j C(n, j) E_j(0) 2^j without needing E_n(x) itself.
        """
        if n < 0:
            raise ValueError(f"euler_number requires n >= 0, got n={n}")
        with self._lock:
            while len(self._euler_num) <= n:
                m = len(self._euler_num)
                acc = Fraction(0)
                for j in range(m + 1):
                    acc += comb(m, j) * self.euler_poly_at_zero(j) * Fraction(2) ** j
                self._euler_num.append(acc)
        return self._euler_num[n]

    def bernoulli_poly(self, n: int) -> Poly:
        """Exact B_n(x) = sum_j C(n, j) B_j x^{n-j}; monic of degree n."""
        if n < 0:
            raise ValueError(f"bernoulli_poly requires n >= 0, got n={n}")
        with self._lock:
            while len(self._bernoulli_poly) <= n:
                m = len(self._bernoulli_poly)
                coeffs = [Fraction(0)] * (m + 1)
                for j in range(m + 1):
                    coeffs[m - j] = comb(m, j) * self.bernoulli_number(j)
                self._bernoulli_poly.append(poly(coeffs))
        return self._bernoulli_poly[n]

    def euler_poly(self, n: int) -> Poly:
        """Exact E_n(x) = sum_j C(n, j) E_j(0) x^{n-j}; monic of degree n."""
        if n < 0:
            raise ValueError(f"euler_poly requires n >= 0, got n={n}")
        with self._lock:
            while len(self._euler_poly) <= n:
                m = len(self._euler_poly)
                coeffs = [Fraction(0)] * (m + 1)
                for j in range(m + 1):
                    coeffs[m - j] = comb(m, j) * self.euler_poly_at_zero(j)
                self._euler_poly.append(poly(coeffs))
        return self._euler_poly[n]


_SHARED = SequenceCache()


def bernoulli_number(n: int) -> Fraction:
    return _SHARED.bernoulli_number(n)


def genocchi_number(n: int) -> Fraction:
    return _SHARED.genocchi_number(n)


def euler_number(n: int) -> Fraction:
    return _SHARED.euler_number(n)


def euler_poly_at_zero(n: int) -> Fraction:
    return _SHARED.euler_poly_at_zero(n)


def bernoulli_poly(n: int) -> Poly:
    return _SHARED.bernoulli_poly(n)


def euler_poly(n: int) -> Poly:
    return _SHARED.euler_poly(n)
