"""Exact scalar and polynomial arithmetic kernel.

Scalars are arbitrary-precision rationals (`fractions.Fraction`, always in
lowest terms).  Polynomials are immutable tuples of Fractions indexed by
power of x, with trailing zeros trimmed; the zero polynomial is the empty
tuple and has degree -1 by convention.  Everything in this module is a pure
function on immutable values, so concurrent use needs no locking; the
memoized scalar helpers use `functools.lru_cache` or a `GrowingTables`
fill lock, both thread safe.

The kernel operations, the truncated power-series product
`series_product` (every convolution left side of `identities` is read
off products of series of numbers), the subset expansion `subset_series`,
the linear combination `poly_lincomb`, the shift operators
`poly_shift_operator` and their subset sum `shift_subset_sum` (the
weighted sum over every subset of the shifts of the operators composed
over it), work internally in the layout of FLINT's
`fmpq_poly`: integer numerators over one positive common denominator.  The
inner loops then multiply and add plain integers, and one Fraction per
output coefficient is built at the end, instead of a Fraction (with its
gcd) per coefficient product or per scaled term.  Each other polynomial
operation of that kind is one call of these: `poly_add`, `poly_sub` and
`poly_scale` of `poly_lincomb`, `poly_mul` of `series_product`, and the
Taylor shift `poly_shift` of `poly_shift_operator`.  The products share
one schoolbook loop, `_mul_into`, whose work on the lines of the k-fold
entries `series_work` bounds, the shift operators one step,
`_operator_step`, and the linear combinations one accumulator,
`_int_lincomb`.  `int_form` puts any rationals in that layout, and
`series_form` multiplies series in it, for the kernel and for the
callers that read integers: `identities`, which reads a line's Appell
numbers and a left side's slot products in it, and `umbral`'s moment
evaluation.

The scalar sequences `rising_weights`, `harmonic`, `harmonic_second` and
`harmonic_shifted` read growing tables (`GrowingTables`), one per
sequence and, for a parameter a, one per a: each new entry is one
operation on the one before it, so a call costs the entries it adds.

The package's one input rule is stated here as well: `is_exact` and
`as_exact` decide what counts as an integer or a rational input, and every
layer checks its caller's values through them before it compares or
converts any.
"""

from __future__ import annotations

import numbers
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, gcd, lcm, prod
from typing import Callable, Iterable, Sequence, TypeVar

Rational = Fraction
Poly = tuple[Fraction, ...]

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)

T = TypeVar("T")


def is_exact(v: object, kind: type) -> bool:
    """v is a number of the kind (`numbers.Integral`, `numbers.Rational` or
    `numbers.Real`) and not a bool: a bool is an int, but never a valid
    input.  A float is not Rational, and a string is no number at all."""
    return isinstance(v, kind) and not isinstance(v, bool)


def as_exact(values: Iterable[object], kind: type, what: str) -> tuple:
    """The values as Fractions (kind `numbers.Rational`) or ints (kind
    `numbers.Integral`), each checked by `is_exact` before any is
    converted: int() would truncate 1.5, and Fraction() read a float or a
    string.  A refusal is a ValueError naming `what` and the value.  A
    Fraction is built from int numerator and denominator: Fraction(v) keeps
    a NumPy integer's own numerator, whose arithmetic wraps at 64 bits."""
    values = tuple(values)
    for v in values:
        if not is_exact(v, kind):
            raise ValueError(f"{what} {v!r} is not {'a rational number' if kind is numbers.Rational else 'an integer'}")
    if kind is numbers.Rational:
        return tuple(Fraction(int(v.numerator), int(v.denominator)) for v in values)
    return tuple(map(int, values))


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); 0 outside 0 <= k <= n.  Requires n >= 0."""
    if type(n) is not int or type(k) is not int:
        n, k = as_exact((n, k), numbers.Integral, "binomial argument")
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
    if type(z) is not Fraction and type(z) is not int:
        (z,) = as_exact((z,), numbers.Rational, "pochhammer argument")
    if type(k) is not int:
        (k,) = as_exact((k,), numbers.Integral, "pochhammer order")
    if k < 0:
        raise ValueError(f"pochhammer requires k >= 0, got k={k}")
    return _pochhammer(z.numerator, z.denominator, k)


def pochhammer_parts(z: Fraction | int, k: int) -> tuple[int, int]:
    """The rising factorial (z)_k as an unreduced numerator and positive
    denominator, prod_{i<k} (p + i q) and q^k for z = p/q: for a caller that
    only multiplies or divides such values, and need not pay for the
    reduction of each.  Not memoized."""
    (z,) = as_exact((z,), numbers.Rational, "pochhammer argument")
    (k,) = as_exact((k,), numbers.Integral, "pochhammer order")
    if k < 0:
        raise ValueError(f"pochhammer requires k >= 0, got k={k}")
    return _rising_product(z.numerator, z.denominator, 0, k), z.denominator ** k


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


class GrowingTables:
    """Growable tables of values; entries are immutable once filled.

    Fills are serialized with a re-entrant lock; reads of already-computed
    entries are safe from any thread, and they do not take the lock, since
    a table only ever grows by appending.  Recomputation is deterministic,
    so independent instances always agree.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()

    def _entry(self, name: str, table: list[T], n: int, fill: Callable[[int], T]) -> T:
        """table[n], appending fill(m) for each missing index m first.  A
        bool is an int subclass, but never an index."""
        if type(n) is int and 0 <= n < len(table):
            return table[n]
        if type(n) is not int or n < 0:
            raise ValueError(f"{name} requires an integer n >= 0, got n={n!r}")
        with self._lock:
            while len(table) <= n:
                table.append(fill(len(table)))
        return table[n]


# The scalar tables: sum_{j<m} 1/j^2, and per rational a, keyed on its
# (numerator, denominator), (a)_m/m! and sum_{j<m} 1/(j + a).
_TABLES = GrowingTables()
_HARMONIC_SECOND: list[Fraction] = [Fraction(0)]
_RISING: dict[tuple[int, int], list[Fraction]] = {}
_SHIFTED: dict[tuple[int, int], list[Fraction]] = {}


def rising_weights(a: Fraction | int, n: int) -> tuple[Fraction, ...]:
    """(a)_l / l! for l = 0..n: the coefficients of (1 - t)^(-a) up to t^n,
    from a table per a grown by w_l = w_{l-1} (a + l - 1) / l."""
    (a,) = as_exact((a,), numbers.Rational, "rising_weights a")
    p, q = a.numerator, a.denominator
    table = _RISING.get((p, q)) or _RISING.setdefault((p, q), [Fraction(1)])
    _TABLES._entry("rising_weights", table, n, lambda m: table[m - 1] * Fraction(p + (m - 1) * q, q * m))
    return tuple(table[: n + 1])


def _shifted(name: str, p: int, q: int, n: int) -> Fraction:
    """sum_{j<n} 1/(j + p/q), from a table per p/q grown by 1/(p/q + m - 1)."""
    table = _SHIFTED.get((p, q)) or _SHIFTED.setdefault((p, q), [Fraction(0)])
    return _TABLES._entry(name, table, n, lambda m: table[m - 1] + Fraction(q, p + (m - 1) * q))


def harmonic(n: int) -> Fraction:
    """Harmonic number H_n = sum_{j=1}^{n} 1/j, with H_0 = 0."""
    return _shifted("harmonic", 1, 1, n)


def harmonic_shifted(a: Fraction | int, n: int) -> Fraction:
    """Shifted harmonic number sum_{j=0}^{n-1} 1/(j+a) for a > 0; 0 at n = 0.

    The shift a = 1 recovers the ordinary harmonic numbers.
    """
    (a,) = as_exact((a,), numbers.Rational, "harmonic_shifted a")
    if a <= 0:
        raise ValueError(f"harmonic_shifted requires a > 0, got a={a}")
    return _shifted("harmonic_shifted", a.numerator, a.denominator, n)


def harmonic_second(n: int) -> Fraction:
    """Second-order harmonic number sum_{j=1}^{n} 1/j^2, with value 0 at n = 0."""
    table = _HARMONIC_SECOND
    return _TABLES._entry("harmonic_second", table, n, lambda m: table[m - 1] + Fraction(1, m * m))


def poly(coeffs: Iterable[Fraction | int]) -> Poly:
    """Build a polynomial from coefficients in ascending power order."""
    out = list(coeffs)
    if not all(type(c) is Fraction for c in out):
        out = list(as_exact(out, numbers.Rational, "coefficient"))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_add(p: Poly, q: Poly) -> Poly:
    return poly_lincomb(((1, p), (1, q)))


def poly_sub(p: Poly, q: Poly) -> Poly:
    return poly_lincomb(((1, p), (-1, q)))


def poly_scale(c: Fraction | int, p: Poly) -> Poly:
    return poly_lincomb(((c, p),))


def int_form(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of the values (a polynomial's coefficients, a
    line's numbers) over the least common denominator of their
    denominators, as (numerators, denominator)."""
    p = tuple(values)
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
    return _from_int_form(*_int_lincomb((c, *int_form(p)) for c, p in terms if c and p))


def _int_lincomb(terms: Iterable[tuple[Fraction | int, Sequence[int], int]]) -> tuple[list[int], int]:
    """sum_i c_i p_i for (c_i, numerators of p_i, denominator of p_i)
    triples, as integer numerators over the lcm of the terms'
    denominators, grown as terms arrive: the accumulator of `poly_lincomb`
    and `shift_subset_sum`."""
    acc: list[int] = []
    den = 1
    for c, nums, p_den in terms:
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
    return acc, den


def _mul_into(out: list[int], p: Sequence[int], q: Sequence[int]) -> None:
    """Add the product of the integer polynomials p and q into `out`,
    dropping every term of degree len(out) or more: the one schoolbook loop
    behind `series_product` and `subset_series`."""
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


def series_form(forms: Iterable[tuple[Sequence[int], int]], d: int) -> tuple[list[int], int]:
    """Product of the series given as integer forms (numerators,
    denominator), truncated after t^d, as its numerators over the product of
    the denominators, unreduced and untrimmed: for a caller that reads
    integers, and the one product of `series_product`."""
    forms = list(forms)
    return _truncated_product((nums for nums, _ in forms), d), prod(den for _, den in forms)


def series_product(factors: Iterable[Poly], d: int) -> Poly:
    """Product of the factors as power series in t, truncated after t^d (the
    empty product is ONE), on integer numerators, with no product term above
    t^d ever formed."""
    return _from_int_form(*series_form([int_form(f[: d + 1]) for f in factors], d))


def series_work(k: int, n: int) -> int:
    """A bound on the integer coefficient products `_mul_into` forms for
    one point n of a line of a k-fold entry (theorem2, theorem4 or
    kth-matiyasevich), and 0 for n < 0: (3k + 2) C(n + 3, 2).  A product
    of k factors truncated after t^d forms at most (d + 1) + (k - 1)
    C(d + 2, 2) <= k C(d + 2, 2) of them: its first factor meets the empty
    product's one coefficient, and each later one the d + 1 coefficients
    of the partial product.  Such a line forms, for its largest n, one
    product of k series after t^n, one `subset_series` of k factors after
    t^(n+1), which is two products, and one product of two series after
    t^(n+1); each is formed once for the line, so a line forms no more
    than the sum of the bound over its points.  A change to those lines
    or to the product loop must keep the bound, which a test counts them
    against."""
    return (3 * k + 2) * comb(n + 3, 2) if n >= 0 else 0


def subset_series(factors: Sequence[Poly], shifts: Sequence[Poly], d: int) -> Poly:
    """prod_i (A_i + s_i) - prod_i A_i truncated after t^d, for A_i =
    factors[i] and s_i = shifts[i]: the sum over the non-empty index
    subsets J of prod_{i in J} s_i prod_{i not in J} A_i.  A_i and A_i + s_i
    share one integer form (the shift's numerators are added in place), so
    the two products share one denominator and are subtracted on integers."""
    plain, shifted, den = [], [], 1
    for f, s in zip(factors, shifts, strict=True):
        f, s = f[: d + 1], s[: d + 1]
        nums, f_den = int_form(f + s)
        plain.append(nums[: len(f)])
        shifted.append([a + b for a, b in zip_longest(nums[: len(f)], nums[len(f):], fillvalue=0)])
        den *= f_den
    pairs = zip_longest(_truncated_product(shifted, d), _truncated_product(plain, d), fillvalue=0)
    return _from_int_form([a - b for a, b in pairs], den)


def poly_eval(p: Poly, x0: Fraction | int) -> Fraction:
    """Evaluate p at a rational point by Horner's rule."""
    if type(x0) is not Fraction and type(x0) is not int:
        (x0,) = as_exact((x0,), numbers.Rational, "point")
    out = Fraction(0)
    for c in reversed(p):
        out = out * x0 + c
    return out


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


def _operator_ints(alpha: Fraction | int, beta: Fraction | int) -> tuple[int, int, int]:
    """alpha = a/L and beta = b/L over the lcm L of their denominators, as (a, b, L)."""
    common = lcm(alpha.denominator, beta.denominator)
    return alpha.numerator * (common // alpha.denominator), beta.numerator * (common // beta.denominator), common


def _operator_step(nums: list[int], u: Fraction | int, a: int, b: int) -> tuple[list[int], int]:
    """The numerators of s^d (a T_u + b) p, trimmed, and s^d, for p with
    integer numerators `nums` of degree d and u = r/s: `_taylor_shift`
    gives p(x + u) over s^d, so a step is a T_u p + b s^d p on integers.
    The one shift step of `poly_shift_operator` and `shift_subset_sum`."""
    scale = u.denominator ** max(len(nums) - 1, 0)
    b_scale = b * scale
    out = [a * v + b_scale * w for v, w in zip(_taylor_shift(nums, u), nums)]
    while out and not out[-1]:
        out.pop()
    return out, scale


def poly_shift_operator(p: Poly, shifts: Iterable[Fraction | int],
                        alpha: Fraction | int, beta: Fraction | int) -> Poly:
    """The composition prod_u (alpha T_u + beta) applied to p, with
    T_u p(x) = p(x + u): the forward difference is (1, -1), the two-point
    mean (1/2, 1/2) and the plain shift (1, 0); the factors commute.

    With alpha = a/L and beta = b/L over the lcm L of their denominators,
    p over D and u = r/s, a step (`_operator_step`) is a T_u p + b p on
    integers over D s^d L.  Fractions are built once, at the end.
    """
    a, b, common = _operator_ints(alpha, beta)
    nums, den = int_form(p)
    for u in shifts:
        if not nums:
            break
        nums, scale = _operator_step(nums, u, a, b)
        den *= scale * common
    return _from_int_form(nums, den)


def shift_subset_sum(p: Poly, shifts: Sequence[Fraction | int], alpha: Fraction | int, beta: Fraction | int,
                     weights: Sequence[Fraction | int]) -> Poly:
    """sum over the subsets J of range(k), k = len(shifts), of
    weights[|J|] prod_{j in J} (alpha T_{u_j} + beta) p: the subset sum of
    lemmas 1 and 3, with one weight per subset size 0..k.

    The subsets are walked by size, and the image of each is one
    `_operator_step` from the image of J less its last index, so the k
    shifts cost 2^k - 1 steps, where applying each subset's operator
    afresh costs k 2^(k-1).  Only the previous size's images are kept;
    each is added on integers into one accumulator over a growing common
    denominator (`_int_lincomb`), and Fractions are built once, at the end.
    """
    if len(weights) != len(shifts) + 1:
        raise ValueError(f"shift_subset_sum needs one weight per subset size 0..{len(shifts)}, got {len(weights)}")
    a, b, common = _operator_ints(alpha, beta)

    def images() -> Iterable[tuple[Fraction | int, list[int], int]]:
        level = [(-1, *int_form(p))]  # (last index, numerators, denominator) per subset of the size
        for w in weights:
            if w:
                yield from ((w, nums, den) for _, nums, den in level)
            grown = []
            for last, nums, den in level:
                for i in range(last + 1, len(shifts)):
                    image, scale = _operator_step(nums, shifts[i], a, b)
                    grown.append((i, image, den * scale * common))
            level = grown

    return _from_int_form(*_int_lincomb(images()))


def poly_shift(p: Poly, u: Fraction | int) -> Poly:
    """The polynomial x -> p(x + u), by exact Taylor shift on integer numerators."""
    return poly_shift_operator(p, (Fraction(u),), 1, 0)
