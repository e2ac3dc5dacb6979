"""Exact scalar and polynomial arithmetic kernel.

Scalars are arbitrary-precision rationals (`fractions.Fraction`, always in
lowest terms).  Polynomials are immutable tuples of Fractions indexed by
power of x, with trailing zeros trimmed; the zero polynomial is the empty
tuple and has degree -1 by convention.  Everything in this module is a pure
function on immutable values, so concurrent use needs no locking; the
memoized scalar helpers use `functools.lru_cache` or a `GrowingTables`
fill lock, both thread safe.

The kernel operations, the truncated power-series product
`series_product`, the subset expansion `subset_series`, the weighted
convolution coefficients `convolution_coefficients` (coefficients of one
truncated product of series whose coefficients are polynomials, read at
each n of a line), the
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
a convolution reads is built once per family and top degree.

A convolution's first two slots read one more memo, the pair table
`_pair_product`: the product of P_l and P_m in their own integer forms,
over d_l d_m, keyed on (family, l, m) with l <= m.  It does not depend on
a line's top degree or weights, so every two-slot line of a family, and
the prefix of every longer one, reads the same products; a line only
scales and adds them.  It is an `lru_cache` of 4096 entries, which holds
both families up to the CLI's largest n, and its factors' own integer
forms are one more, `_own_form`, built once per (family, l).  Both are
thread safe as the other memos are: an entry is an immutable tuple, a
pure function of its key, and two threads that miss on one key form
equal values.

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
    behind `series_product` and `convolution_coefficients`."""
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


@lru_cache(maxsize=1024)
def _own_form(family: Callable[[int], Poly], l: int) -> tuple[int, ...]:
    """The numerators of P_l = family(l) over d_l, the lcm of its
    denominators: its own integer form, built once per (family, l) for
    every pair product it enters."""
    return tuple(_int_form(family(l))[0])


# 4096 entries hold every pair l + m <= 70 (the CLI's largest n) of both
# families, 2 x 1296 of them in 5.4 MB; a longer line evicts the oldest.
@lru_cache(maxsize=4096)
def _pair_product(family: Callable[[int], Poly], l: int, m: int) -> tuple[int, ...]:
    """The product of P_l = family(l) and P_m = family(m), l <= m, in their
    own integer forms (`_own_form`): its numerators over d_l d_m.  Unlike
    the family forms it depends on no top degree, so every line of a
    family reads the same entry."""
    p, q = _own_form(family, l), _own_form(family, m)
    out = [0] * (len(p) + len(q) - 1)
    _mul_into(out, p, q)
    return tuple(out)


def _paired_coefficient(family: Callable[[int], Poly], w0: Sequence[int], w1: Sequence[int], j: int) -> list[int]:
    """The coefficient of t^j in S_0(t) S_1(t), S_i = sum_l w_i[l] P_l t^l
    and P_l = family(l), over T^2 for weights that carry the factor T/d_l:
    sum over l <= j - l of (w0[l] w1[j-l] + w0[j-l] w1[l]) Q_{l,j-l}, Q the
    pair products of `_pair_product` (over d_l d_m), the middle term
    l = j/2 counted once and no pair of weight 0 read."""
    out = []
    for l in range(j // 2 + 1):
        m = j - l
        c = w0[l] * w1[m] + w0[m] * w1[l] if l < m else w0[l] * w1[l]
        if c:
            out = [a + c * v for a, v in zip_longest(out, _pair_product(family, l, m), fillvalue=0)]
    return out


def convolution_coefficients(family: Callable[[int], Poly], ns: Sequence[int],
                             weights: Sequence[Sequence[Fraction | int]],
                             scales: Sequence[Fraction | int]) -> list[Poly]:
    """scales[j] * [t^n] prod_i S_i(t) at each n = ns[j], with S_i(t) =
    sum_l weights[i][l] P_l t^l and P_l = family(l): the sum over the weak
    compositions l of n into len(weights) parts of scales[j] * prod_i
    weights[i][l_i] * the product of the P_{l_i}.  Zero at an n < 0.

    The ns may come in any order, with gaps and repeats.  Each weight list
    has N + 1 entries, N = max(ns), and is read at l <= n for each n, so it
    must not depend on n; there is at least one slot.  P_0..P_N share one
    integer form over their common denominator, built once per (family, N)
    (`_family_forms`), and each slot's weights another over theirs, so
    every S_i is a series of integer polynomials.  The first two slots form
    a prefix series truncated after t^N (`_paired_coefficient`), a weighted
    sum of the pair products P_l P_m, l <= m, which the pair table
    (`_pair_product`) forms once per process, and the slots after them but
    the last are multiplied into it in turn, once for the whole line; the
    last contributes only the coefficient of t^n, read once per distinct n
    (for two slots, the pair's own coefficient).  The denominators and the
    scale are applied once, to that coefficient.
    """
    if len(scales) != len(ns):
        raise ValueError(f"convolution needs one scale per n, got {len(scales)} for {len(ns)}")
    top_n = max(ns, default=-1)
    if not weights or any(len(w) != top_n + 1 for w in weights):
        raise ValueError(f"convolution needs at least one slot of {top_n + 1} weights")
    if top_n < 0:
        return [ZERO] * len(ns)
    nums, terms_den = _family_forms(family, top_n)
    ints, den = [], 1
    for w in weights:
        w_den = lcm(*(v.denominator for v in w))
        ints.append([v.numerator * (w_den // v.denominator) for v in w])
        den *= terms_den * w_den
    distinct = {n for n in ns if n >= 0}
    if len(ints) == 1:
        tops = {n: [ints[0][n] * v for v in nums[n]] for n in distinct}
    else:
        # The pair products are over d_l d_m, so each weight of the first
        # two slots takes the factor T/d_l that puts every pair over T^2.
        # T/d_l is the gcd of T and P_l's numerators over T: for each prime,
        # the coefficient whose denominator holds it most often has a
        # numerator free of it.
        rescale = [gcd(terms_den, *p) for p in nums]
        w0, w1 = ([v * r for v, r in zip(w, rescale)] for w in ints[:2])
        if len(ints) == 2:
            tops = {n: _paired_coefficient(family, w0, w1, n) for n in distinct}
        else:
            series = [[[c * v for v in p] if c else [] for c, p in zip(w, nums)] for w in ints[2:]]
            prefix = [_paired_coefficient(family, w0, w1, j) for j in range(top_n + 1)]
            for s in series[:-1]:
                prefix = [_coefficient_of_product(prefix, s, j) for j in range(top_n + 1)]
            tops = {n: _coefficient_of_product(prefix, series[-1], n) for n in distinct}
    return [_from_int_form([scale.numerator * v for v in tops[n]], den * scale.denominator) if n >= 0 else ZERO
            for n, scale in zip(ns, map(Fraction, scales))]


def convolution_work(k: int, n: int) -> int:
    """A bound on the integer coefficient products `convolution_coefficients`
    forms for a one-point line at n with k slots, and 0 for n < 0:
    C(n + 4, 4) in each of its k - 2 middle steps and C(n + 3, 3) in its
    last.  It bounds a line over a cold pair table, and is exact there at
    n = 0 for k >= 2: the first step multiplies each unordered pair once,
    so it forms about half its count, and a pair the table already holds
    is not formed again; one slot forms no product.  A line forms the
    prefix of its largest n once and its last step once per distinct n,
    so its count stays within the sum of the bound over its points.  A
    change to that loop must keep the bound, which a test counts it
    against."""
    return max(k - 2, 0) * comb(n + 4, 4) + comb(n + 3, 3) if n >= 0 else 0


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
