"""Exact scalar and polynomial arithmetic kernel.

Scalars are arbitrary-precision rationals (`fractions.Fraction`, always in
lowest terms).  Polynomials are immutable tuples of Fractions indexed by
power of x, with trailing zeros trimmed; the zero polynomial is the empty
tuple and has degree -1 by convention.  Everything in this module is a pure
function on immutable values, so concurrent use needs no locking; the
memoized scalar helpers use `functools.lru_cache`, which is thread safe.

The kernel operations, the truncated power-series product
`series_product`, the subset expansion `subset_series`, the weighted
convolution coefficient `convolution_coefficient` (one coefficient of a
truncated product of series whose coefficients are polynomials), the
linear combination `poly_lincomb` and the shift operators
`poly_shift_operator`, work internally in the layout of FLINT's
`fmpq_poly`: integer numerators over one positive common denominator.  The
inner loops then multiply and add plain integers, and one Fraction per
output coefficient is built at the end, instead of a Fraction (with its
gcd) per coefficient product or per scaled term.  Each other polynomial
operation of that kind is one call of these: `poly_add`, `poly_sub` and
`poly_scale` of `poly_lincomb`, `poly_mul` of `series_product`, and the
Taylor shift `poly_shift` of `poly_shift_operator`.  The products share
one schoolbook loop, `_mul_into`, and the integer form of the polynomials
a convolution reads is built once per family and degree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, gcd, lcm, prod
from typing import Callable, Iterable, Sequence

Rational = Fraction
Poly = tuple[Fraction, ...]

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)
X: Poly = (Fraction(0), Fraction(1))


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); 0 outside 0 <= k <= n.  Requires n >= 0."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def pochhammer(z: Fraction | int, k: int) -> Fraction:
    """Rising factorial z(z+1)...(z+k-1); the empty product 1 when k = 0.

    For z = p/q this is prod_{i<k} (p + i q) / q^k, an integer product
    with a single reduction at the end.  The memo is keyed on (p, q, k):
    a key holding the Fraction would hash it in Python on every call.
    """
    if k < 0:
        raise ValueError(f"pochhammer requires k >= 0, got k={k}")
    if type(z) is not Fraction and type(z) is not int:
        z = Fraction(z)
    return _pochhammer(z.numerator, z.denominator, k)


@lru_cache(maxsize=None)
def _pochhammer(p: int, q: int, k: int) -> Fraction:
    return Fraction(_rising_product(p, q, 0, k), q ** k)


def _rising_product(p: int, q: int, lo: int, hi: int) -> int:
    """prod_{lo <= i < hi} (p + i q) as a balanced product tree.

    Multiplying halves of similar size keeps the big multiplications
    balanced, where a running product pays one long-by-short product per
    factor.
    """
    if hi - lo <= 16:
        out = 1
        for i in range(lo, hi):
            out *= p + i * q
        return out
    mid = (lo + hi) // 2
    return _rising_product(p, q, lo, mid) * _rising_product(p, q, mid, hi)


@lru_cache(maxsize=None)
def harmonic(n: int) -> Fraction:
    """Harmonic number H_n = sum_{j=1}^{n} 1/j, with H_0 = 0."""
    if n < 0:
        raise ValueError(f"harmonic requires n >= 0, got n={n}")
    return harmonic_shifted(1, n)


@lru_cache(maxsize=None)
def harmonic_shifted(a: Fraction | int, n: int) -> Fraction:
    """Shifted harmonic number sum_{j=0}^{n-1} 1/(j+a) for a > 0; 0 at n = 0.

    The shift a = 1 recovers the ordinary harmonic numbers.
    """
    if n < 0:
        raise ValueError(f"harmonic_shifted requires n >= 0, got n={n}")
    if a <= 0:
        raise ValueError(f"harmonic_shifted requires a > 0, got a={a}")
    out = Fraction(0)
    for j in range(n):
        out += 1 / (Fraction(a) + j)
    return out


@lru_cache(maxsize=None)
def harmonic_second(n: int) -> Fraction:
    """Second-order harmonic number sum_{j=1}^{n} 1/j^2, with value 0 at n = 0."""
    if n < 0:
        raise ValueError(f"harmonic_second requires n >= 0, got n={n}")
    out = Fraction(0)
    for j in range(1, n + 1):
        out += Fraction(1, j * j)
    return out


def poly(coeffs: Iterable[Fraction | int]) -> Poly:
    """Build a polynomial from coefficients in ascending power order."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_add(p: Poly, q: Poly) -> Poly:
    return poly_lincomb(((1, p), (1, q)))


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_lincomb(((1, p), (-1, q)))


def poly_scale(c: Fraction | int, p: Poly) -> Poly:
    return poly_lincomb(((c, p),))


def _int_form(p: Poly) -> tuple[list[int], int]:
    """Integer numerators of p over the least common denominator of its
    coefficients, as (numerators, denominator)."""
    den = 1
    for c in p:
        d = c.denominator
        if den % d:
            den = den // gcd(den, d) * d
    return [c.numerator * (den // c.denominator) for c in p], den


def _from_int_form(nums: list[int], den: int) -> Poly:
    """The polynomial with integer numerators `nums` over `den`, trimmed."""
    while nums and not nums[-1]:
        nums.pop()
    return tuple(Fraction(v, den) for v in nums)


def poly_lincomb(terms: Iterable[tuple[Fraction | int, Poly]]) -> Poly:
    """Exact linear combination sum_i c_i p_i of (c_i, p_i) pairs.

    The sum is accumulated as integer numerators over one common
    denominator (the lcm of the terms' denominators, grown as terms arrive)
    and converted to Fractions once.
    """
    acc: list[int] = []
    den = 1
    for c, p in terms:
        if not c or not p:
            continue
        nums, p_den = _int_form(p)
        term_den = c.denominator * p_den
        grow = term_den // gcd(den, term_den)
        if grow != 1:
            den *= grow
            acc = [v * grow for v in acc]
        scale = c.numerator * (den // term_den)
        if len(acc) < len(nums):
            acc.extend([0] * (len(nums) - len(acc)))
        for i, v in enumerate(nums):
            acc[i] += scale * v
    return _from_int_form(acc, den)


def _mul_into(out: list[int], p: Sequence[int], q: Sequence[int]) -> None:
    """Add the product of the integer polynomials p and q into `out`,
    dropping every term of degree len(out) or more: the one schoolbook loop
    behind `series_product` and `convolution_coefficient`."""
    size = len(out)
    for i, a in enumerate(p):
        if a:
            for k, b in zip(range(i, size), q):
                out[k] += a * b


def poly_mul(p: Poly, q: Poly) -> Poly:
    """Exact coefficient convolution of p and q: their untruncated series product."""
    return series_product((p, q), len(p) + len(q) - 2)


def _truncated_product(factors: Iterable[Sequence[int]], d: int) -> list[int]:
    """The integer series product of the factors, truncated after t^d."""
    nums = [1][: d + 1]
    for f in factors:
        out = [0] * max(min(len(nums) + len(f) - 1, d + 1), 0)
        _mul_into(out, nums, f)
        nums = out
    return nums


def series_product(factors: Iterable[Poly], d: int) -> Poly:
    """Product of the factors as power series in t, truncated after t^d (the
    empty product is ONE), on integer numerators, with no product term above
    t^d ever formed."""
    forms = [_int_form(f[: d + 1]) for f in factors]
    return _from_int_form(_truncated_product((nums for nums, _ in forms), d), prod(den for _, den in forms))


def subset_series(factors: Sequence[Poly], shifts: Sequence[Poly], d: int) -> Poly:
    """prod_i (A_i + s_i) - prod_i A_i truncated after t^d, for A_i =
    factors[i] and s_i = shifts[i]: the sum over the non-empty index
    subsets J of prod_{i in J} s_i prod_{i not in J} A_i.  A_i and A_i + s_i
    share one integer form (the shift's numerators are added in place), so
    the two products share one denominator and are subtracted on integers."""
    plain, shifted, den = [], [], 1
    for f, s in zip(factors, shifts, strict=True):
        f, s = f[: d + 1], s[: d + 1]
        nums, f_den = _int_form(f + s)
        plain.append(nums[: len(f)])
        shifted.append([a + b for a, b in zip_longest(nums[: len(f)], nums[len(f):], fillvalue=0)])
        den *= f_den
    pairs = zip_longest(_truncated_product(shifted, d), _truncated_product(plain, d), fillvalue=0)
    return _from_int_form([a - b for a, b in pairs], den)


@lru_cache(maxsize=None)
def _family_forms(family: Callable[[int], Poly], n: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The integer form of family(0), ..., family(n): their numerators over
    the lcm of all their denominators, as (numerators, denominator).  Built
    once per (family, n), so family must be a pure function of its index;
    the key hashes the function, not its values."""
    terms = [family(l) for l in range(n + 1)]
    den = lcm(*(c.denominator for p in terms for c in p))
    return tuple(tuple(c.numerator * (den // c.denominator) for c in p) for p in terms), den


def _coefficient_of_product(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], j: int) -> list[int]:
    """The coefficient of t^j in a(t) b(t), for series whose coefficients
    are integer polynomials in x; b has at least j + 1 coefficients."""
    pairs = [(p, q) for p, q in zip(a, reversed(b[: j + 1])) if p and q]
    out = [0] * max((len(p) + len(q) - 1 for p, q in pairs), default=0)
    for p, q in pairs:
        _mul_into(out, p, q)
    return out


def _paired_coefficient(nums: Sequence[Sequence[int]], w0: Sequence[int], w1: Sequence[int], j: int) -> list[int]:
    """The coefficient of t^j in S_0(t) S_1(t), S_i = sum_l w_i[l] nums[l] t^l,
    with each unordered pair of polynomials multiplied once:
    sum over l <= j - l of (w0[l] w1[j-l] + w0[j-l] w1[l]) nums[l] nums[j-l],
    the middle term l = j/2 counted once, and only the shorter factor of
    each product scaled."""
    pairs = []
    for l in range(j // 2 + 1):
        m = j - l
        c = w0[l] * w1[m] + w0[m] * w1[l] if l < m else w0[l] * w1[l]
        p, q = nums[l], nums[m]
        if c and p and q:
            pairs.append((c, p, q) if len(p) <= len(q) else (c, q, p))
    out = [0] * max((len(p) + len(q) - 1 for _, p, q in pairs), default=0)
    for c, p, q in pairs:
        _mul_into(out, [c * v for v in p], q)
    return out


def convolution_coefficient(family: Callable[[int], Poly], n: int, weights: Sequence[Sequence[Fraction | int]],
                            scale: Fraction | int) -> Poly:
    """scale * [t^n] prod_i S_i(t), with S_i(t) = sum_l weights[i][l] P_l t^l
    and P_l = family(l): the sum over the weak compositions l of n into
    len(weights) parts of scale * prod_i weights[i][l_i] * the product of
    the P_{l_i}.

    Each weight list has n + 1 entries, and there is at least one slot.
    P_0..P_n share one integer form over their common denominator, built
    once per (family, n) (`_family_forms`), and each slot's weights another
    over theirs, so every S_i is a series of integer polynomials.  The
    first two slots form a prefix series truncated after t^n, each
    unordered pair of polynomials multiplied once (`_paired_coefficient`);
    the slots after them but the last are multiplied into it in turn, the
    last contributes only to the coefficient of t^n (of the pair itself,
    for two slots), and the denominators and the scale are applied once,
    to that coefficient.
    """
    if not weights or any(len(w) != n + 1 for w in weights):
        raise ValueError(f"convolution needs at least one slot of {n + 1} weights")
    if n < 0:
        return ZERO
    nums, terms_den = _family_forms(family, n)
    ints, den = [], 1
    for w in weights:
        w_den = lcm(*(v.denominator for v in w))
        ints.append([v.numerator * (w_den // v.denominator) for v in w])
        den *= terms_den * w_den
    scale = Fraction(scale)
    if len(ints) == 1:
        top = [ints[0][n] * v for v in nums[n]]
    elif len(ints) == 2:
        top = _paired_coefficient(nums, ints[0], ints[1], n)
    else:
        series = [[[c * v for v in p] if c else [] for c, p in zip(w, nums)] for w in ints[2:]]
        prefix = [_paired_coefficient(nums, ints[0], ints[1], j) for j in range(n + 1)]
        for s in series[:-1]:
            prefix = [_coefficient_of_product(prefix, s, j) for j in range(n + 1)]
        top = _coefficient_of_product(prefix, series[-1], n)
    return _from_int_form([scale.numerator * v for v in top], den * scale.denominator)


def convolution_work(k: int, n: int) -> int:
    """A bound on the integer coefficient products `convolution_coefficient`
    forms at n with k slots, and 0 for n < 0: C(n + 4, 4) in each of its
    k - 2 middle steps and C(n + 3, 3) in its last.  It is exact at n = 0
    for k >= 2; the first step multiplies each unordered pair once, so it
    forms about half its count, and one slot forms no product.  A change
    to that loop must keep the bound, which a test counts it against."""
    return max(k - 2, 0) * comb(n + 4, 4) + comb(n + 3, 3) if n >= 0 else 0


def poly_eval(p: Poly, x0: Fraction | int) -> Fraction:
    """Evaluate p at a rational point by Horner's rule."""
    out = Fraction(0)
    for c in reversed(p):
        out = out * x0 + c
    return out


def poly_compose_linear(p: Poly, c: Fraction | int) -> Poly:
    """The polynomial x -> p(c*x)."""
    out = [a * Fraction(c) ** i for i, a in enumerate(p)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _taylor_shift(nums: list[int], u: Fraction) -> list[int]:
    """Numerators of s^d p(x + u) for p with integer numerators `nums` (of
    degree d = len(nums) - 1) and the shift u = r/s in lowest terms.

    s^d p(x + r/s) = sum_i nums_i s^(d-i) (s x + r)^i, so the numerators
    scaled by the powers of s are shifted by the integer r in y = s x
    (Horner's repeated synthetic division, integer operations only), and
    the coefficient of y^j is scaled back by s^j.  Over a denominator D for
    p, the result is p(x + u) over D s^d.
    """
    r, s = u.numerator, u.denominator
    d = len(nums) - 1
    s_pows = [1]
    for _ in range(d):
        s_pows.append(s_pows[-1] * s)
    out = [a * s_pows[d - i] for i, a in enumerate(nums)]
    if r:
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                out[j] += r * out[j + 1]
    return [v * s_pows[j] for j, v in enumerate(out)]


def poly_shift_operator(p: Poly, shifts: Iterable[Fraction | int],
                        alpha: Fraction | int, beta: Fraction | int) -> Poly:
    """The composition prod_u (alpha T_u + beta) applied to p, with
    T_u p(x) = p(x + u): the forward difference is (1, -1), the two-point
    mean (1/2, 1/2) and the plain shift (1, 0); the factors commute.

    With alpha = a/L and beta = b/L over the lcm L of their denominators,
    p over D and u = r/s, `_taylor_shift` gives p(x + u) over D s^d, so a
    step is a T_u p + b p on integers over D s^d L.  Fractions are built
    once, at the end.
    """
    common = lcm(alpha.denominator, beta.denominator)
    a, b = alpha.numerator * (common // alpha.denominator), beta.numerator * (common // beta.denominator)
    nums, den = _int_form(p)
    for u in shifts:
        if not nums:
            break
        scale = u.denominator ** (len(nums) - 1)
        b_scale = b * scale
        nums = [a * v + b_scale * w for v, w in zip(_taylor_shift(nums, u), nums)]
        while nums and not nums[-1]:
            nums.pop()
        den *= scale * common
    return _from_int_form(nums, den)


def poly_shift(p: Poly, u: Fraction | int) -> Poly:
    """The polynomial x -> p(x + u), by exact Taylor shift on integer numerators."""
    return poly_shift_operator(p, (Fraction(u),), 1, 0)
