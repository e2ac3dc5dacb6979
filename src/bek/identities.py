"""Registry of exact convolution identities and the verification engine.

Every entry evaluates both sides of one displayed identity as exact
polynomials in x over the rationals (number-level identities produce
degree-0 polynomials) and never shares work between the two sides beyond
memos whose values depend on their keys alone, the sequence tables.  So a
sign slip on either side cannot cancel.  The one display whose two sides
are both jet lines, corollary11's second, reads them at different
eps-orders, and a test corrupts each piece of a jet line to see both of
its sides move and the display fail.
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
fields.  `verify` checks a grid, and `eval_corollary` and the public
evaluators one point, against that one predicate (`_checked`), once per
point; the declared functions check nothing themselves.

The identities are families in n, so a display is evaluated along a line:
points of one entry that differ only in n.  To add an identity, write a
function fn(ns, *params[, k]) that returns its two sides at each n, as
polynomials or numbers, and declare it; work that does not depend on n
(a series, a prefix sum, a factor of l alone) is formed once for the
line.  A quadratic number sum, sum_{j+m=n} u_j v_m, is a series
coefficient: the coefficient of t^n in one truncated `series_product` of
sum_j u_j t^j and sum_m v_m t^m (`_number_series`), formed once for the
line, where a binomial C(n, j) is n! times 1/j! and 1/m! in the two
series and a term is left out by a zero coefficient.  A convolution left
side is scale * sum over l_1+...+l_k = n of prod_i w_i(l_i)
P_{l_1}(x)...P_{l_k}(x) with P = B or E.  Its numbers are read off
products of number series for the line, sum_l w(l) P_l(0) t^l per slot,
with each P_l(0) read off the polynomial P_l(x), never off the number
sequences the right sides read (`_slot_product`).  Where every slot
weight is a Pochhammer weight (a)_l/l! (1 and l+1 are a = 1 and 2) or a
harmonic weight 1/l or H_{l-1}/l, which are [eps^1] and [eps^2] of the
Pochhammer weight (eps)_l/l!, the sum is one line of `_jet_lhs`: it takes
the family P, the fixed Pochhammer parameters, the eps-order of each
harmonic slot and one scale per n, and reads the line off its products
and the truncated jet of (A+j+E)_{n-j}/(n-j)! in E.  With no eps-slot
that is a Pochhammer line: the left sides of theorems 1-4 (through their
shared scale n!/(A)_n, `_theorem_lhs`), corollary1, eq-4-0a and eq-6-9;
with eps-slots, those of corollary3, corollary4, eq-2-12, corollary7,
corollary10 and corollary11.  Where every slot weight is 1/l!, the sum is
an Appell polynomial at kx, not a jet of that sum (`_exponential_lhs`):
the left sides of eq-2-15 and corollary8.  A weight that depends
on n through a harmonic number, (H_{n-1} - H_{l-1})/l, is H_{n-1} r_l -
h_l with r_l = 1/l and h_l = H_{l-1}/l, so its pair sum is H_{n-1}
[t^n] R^2 - [t^n] H R, R and H the series of r and h: two jet lines, at
orders (1, 1) and (2, 1), whose slots are free of n, with the harmonic
number in the scales.  A sum of the polynomials with number weights,
sum_{i<=m} s_{m-i} lam^i P_i(x)/i! with s free of m, is itself an Appell
polynomial (the umbral calculus; Roman, The Umbral Calculus, ch. 2): its
numbers A_r = r! [t^r] s(t) pi(t), pi_r = lam^r P_r(0)/r!, are read off
one `series_product` for the line (`_appell_numbers`), as
integer numerators over one denominator, and at each m `sequences.appell`
expands A_0..A_m, as it expands B_n(x) and E_n(x) themselves, so an n
costs numbers, not polynomials.  A binomial sum
sum_l C(m, l) c_l B_{m-l}(x) is the case s_l = c_l/l!, and a binomial
other than C(m, l) is written as C(m, l) times a factor of m and a factor
of l.  A term kappa C(m, l) P_{m-l}(x), kappa free of m and under the
sum's scale, adds kappa/l! to s_l (kappa m B_{m-1}(x) adds kappa to s_1),
and a term alpha_m P_m(x) adds alpha_m P_r(0) to the numbers of that m
(`_plus_numbers`), by integer multiply-adds against the P_r(0) over one
denominator, formed once per sequence and top (`_number_form`).  No sum
skips a vanishing term.
An `a_vec` parameter takes the k-tuple sets of `_tuple_sets_for_k`, and
any other parameter needs its default sets declared.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, groupby, product
from math import factorial, lcm, prod
from numbers import Integral, Rational
from typing import Callable, Iterable, Mapping, Sequence

from .exactmath import (
    ONE,
    Poly,
    ZERO,
    as_exact,
    harmonic,
    harmonic_second,
    harmonic_shifted,
    is_exact,
    pochhammer,
    poly,
    poly_lincomb,
    poly_mul,
    poly_sub,
    rising_weights,
    series_product,
    subset_series,
)
from .sequences import (
    appell,
    bernoulli_number,
    bernoulli_poly,
    euler_poly,
    euler_poly_at_zero,
)


class DomainError(ValueError):
    """Requested inputs violate an identity's validity predicate."""


class UnknownIdentityError(KeyError):
    """Requested name is not in the registry.  Its str is its message,
    unquoted, as for any other exception."""

    __str__ = Exception.__str__


# The memoized products of Bernoulli and Euler polynomials for a sorted
# index multiset.  Nothing calls them: the left sides are series
# coefficients, and the tests form their reference products without them.
# Only the benchmark worker reads them, for their cache statistics, so they
# stay until the benchmark stops reading them (ROADMAP item 1).
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


def _inverse_factorials(n: int) -> list[Fraction]:
    """1/l! for l = 0..n."""
    return [Fraction(1, factorial(l)) for l in range(n + 1)]


def _reciprocals(n: int) -> list[Fraction]:
    """1/l for l = 1..n, and 0 at l = 0."""
    return [Fraction(0), *(Fraction(1, l) for l in range(1, n + 1))]


def _harmonic_reciprocals(n: int) -> list[Fraction]:
    """H_{l-1} / l for l = 1..n, and 0 at l = 0."""
    return [Fraction(0), *(harmonic(l - 1) / l for l in range(1, n + 1))]


# Numbers over one denominator: integer numerators and that positive denominator.
Numbers = tuple[list[int], int]


def _over_lcm(values: Iterable[Fraction]) -> Numbers:
    """The values as integer numerators over the lcm of their denominators."""
    values = list(values)
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


@lru_cache(maxsize=64)
def _number_form(number: Callable[[int], Fraction], top: int) -> tuple[tuple[int, ...], int]:
    """number(0..top) over one denominator, formed once per number sequence
    and top for every line that reads it."""
    nums, den = _over_lcm(number(r) for r in range(top + 1))
    return tuple(nums), den


def _appell_numbers(s: Sequence[Fraction], number: Callable[[int], Fraction], top: int,
                    lam: int = 1) -> Numbers:
    """A_r = r! [t^r] s(t) pi(t) for r = 0..top, with pi_r = lam^r number(r)/r!,
    over one denominator: the numbers of the Appell polynomial sum_{i<=m}
    s_{m-i} lam^i P_i(x)/i! = `appell`(A_0..A_m, 1/m!, lam) at every m <=
    top, P_i the polynomials of `number` (B_i(x) for the Bernoulli numbers,
    E_i(x) for E_i(0)).  One series product serves the whole line, where s
    holds factors of the index m - i alone."""
    pi = _number_series(number, top, lambda r: Fraction(lam ** r, factorial(r)))
    product = series_product((s, pi), top)
    return _over_lcm(factorial(r) * _coeff(product, r) for r in range(top + 1))


def _plus_numbers(numbers: Numbers, n: int, alpha: Fraction, number: Callable[[int], Fraction],
                  last: Fraction = Fraction(0)) -> Numbers:
    """values_r + alpha number(r) for r = 0..n, and `last` more at r = n,
    over one denominator, where values_r is the r-th of the line's Appell
    numbers `numbers`: an alpha P_n(x) term added to the Appell polynomial
    of the values.  number(0..N), N the line's top, are read over one
    denominator formed once per number sequence and N (`_number_form`), so
    an n costs integer multiply-adds."""
    nums, den = numbers
    p_nums, p_den = _number_form(number, len(nums) - 1)
    alpha_den = alpha.denominator * p_den
    out_den = lcm(den, alpha_den, last.denominator)
    up, times = out_den // den, alpha.numerator * (out_den // alpha_den)
    out = [up * v + times * p for v, p in zip(nums[: n + 1], p_nums)]
    out[n] += last.numerator * (out_den // last.denominator)
    return out, out_den


def _slot_product(family: Callable[[int], Poly], weights: Sequence[Sequence[Fraction]], top: int) -> list[Fraction]:
    """h_j = [t^j] prod_i sum_l weights[i][l] P_l(0) t^l for j = 0..top,
    with P_l(0) read off the polynomial family(l) itself: the numbers of a
    left side, formed by one `series_product` for the line.  One slot
    multiplies nothing."""
    at_zero = [family(l)[0] for l in range(top + 1)]
    series = [[w * p for w, p in zip(slot, at_zero)] for slot in weights]
    h = series[0] if len(series) == 1 else series_product(series, top)
    return [_coeff(h, j) for j in range(top + 1)]


def _exponential_lhs(family: Callable[[int], Poly], ns: Sequence[int], k: int,
                     scales: Sequence[Fraction | int]) -> list[Poly]:
    """scale sum over l_1+...+l_k = n of prod_i P_{l_i}(x)/l_i!, P = family,
    at each n = ns[j] with scale = scales[j].  A slot sum_l P_l(x) t^l/l!
    is e^(xt) beta(t), beta = sum_l P_l(0) t^l/l!, so the k-fold sum is
    [t^n] e^(kxt) beta^k: 1/n! times the Appell polynomial at kx of c_j =
    j! [t^j] beta^k, one product of number series for the line."""
    top = max(ns)
    h = _slot_product(family, [_inverse_factorials(top)] * k, top)
    nums, den = _over_lcm(factorial(j) * h_j for j, h_j in enumerate(h))
    return [appell(nums[: n + 1], den, Fraction(scale) / factorial(n), k) for n, scale in zip(ns, scales)]


def _theorem_lhs(family: Callable[[int], Poly], ns: Sequence[int], a_vec: Sequence[Fraction]) -> list[Poly]:
    """n!/(sum a)_n sum_l prod_i (a_i)_{l_i}/l_i! P_{l_1}(x)...P_{l_k}(x),
    P = family, the left side of theorems 1-4, at each n."""
    rising_sum = rising_weights(sum(a_vec), max(ns))  # (sum a)_n/n!
    return _jet_lhs(family, ns, a_vec, (), [1 / rising_sum[n] for n in ns])


def _leibniz_terms(orders: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """(m, M!/prod_i m_i!) for each m <= orders, M = |m|: with E = sum_i
    eps_i, [prod_i eps_i^(d_i)] of f(E) prod_i g_i(eps_i), d = orders, is
    the sum over these m of the weight times [E^M] f times prod_i
    [eps_i^(d_i - m_i)] g_i, the weight being the multinomial coefficient
    of prod_i eps_i^(m_i) in E^M."""
    return [(m, factorial(sum(m)) // prod(map(factorial, m))) for m in product(*(range(d + 1) for d in orders))]


def _jet_lhs(family: Callable[[int], Poly], ns: Sequence[int], fixed: Sequence[Fraction], orders: Sequence[int],
             scales: Sequence[Fraction | int]) -> list[Poly]:
    """scale sum over l_1+...+l_k = n of prod_i w_i(l_i) P_{l_i}(x), P =
    family, at each n = ns[j] with scale = scales[j], for a Pochhammer slot
    w(l) = (a)_l/l! per a of `fixed` and an eps-slot w(l) = [eps^d]
    (eps)_l/l! per order d of `orders`: 1/l at d = 1 and H_{l-1}/l at d =
    2, both 0 at l = 0.  With no eps-slot it is a Pochhammer line.

    As P is an Appell sequence, one Pochhammer slot is sum_l (a)_l/l!
    P_l(x) t^l = (1-xt)^(-a) G_a(t/(1-xt)), G_a(s) = sum_l (a)_l/l! P_l(0)
    s^l, so the sum of Pochhammer slots alone, A = sum a, is sum_j
    [s^j] prod_a G_a (A+j)_{n-j}/(n-j)! x^{n-j} (Roman, The Umbral
    Calculus, ch. 2).  An eps-slot takes [eps_i^(d_i)] of that sum with
    eps_i among its parameters.  With A_0 = sum fixed, E = sum eps_i and D
    = sum d_i it is sum_j x^(n-j) sum_{M<=D} c_{j,M} [E^M]
    (A_0+j+E)_{n-j}/(n-j)!, where c_{j,M} is the sum over the terms m of
    `_leibniz_terms` with |m| = M of their weight times [s^j] prod_a G_a
    prod_i g_{d_i-m_i}, g_e(s) = sum_l [eps^e]((eps)_l/l!) P_l(0) s^l and
    g_0 = 1.  The c do not depend on n: one `_slot_product` per distinct
    multiset of the d_i - m_i serves the whole line.  The inner sum is
    [E^D] of C_j(E) (A_0+j+E)_r/r!, r = n-j, with C_j(E) = sum_M c_{j,M}
    E^(D-M): for A_0 = p/q each jet starts at C_j, as integer numerators,
    and grows in r, for every j at once, by one multiply by p + (j+r) q +
    qE, cut after E^D, so its numerators are over q^r r!.  The x^r
    coefficient at n is the E^D numerator of the jet of j = n - r, one
    Fraction."""
    top, depth = max(ns), sum(orders)
    eps_weights = {1: _reciprocals, 2: _harmonic_reciprocals}
    slots = [rising_weights(a, top) for a in fixed]
    weights: dict[tuple[int, ...], list[int]] = {}
    for m, weight in _leibniz_terms(orders):
        rest = tuple(sorted(d - mi for d, mi in zip(orders, m) if d > mi))
        weights.setdefault(rest, [0] * (depth + 1))[depth - sum(m)] += weight
    products = [(by_power, _slot_product(family, [*slots, *(eps_weights[e](top) for e in rest)], top))
                for rest, by_power in weights.items()]
    den = lcm(*(h_j.denominator for _, h in products for h_j in h))
    jets = [[0] * (top + 1) for _ in range(depth + 1)]  # [E^i] C_j(E) numerators over den, a row per i
    for by_power, h in products:
        for row, weight in zip(jets, by_power):
            if weight:
                for j, h_j in enumerate(h):
                    row[j] += weight * h_j.numerator * (den // h_j.denominator)
    start = Fraction(sum(fixed))
    p, q = start.numerator, start.denominator
    read = []  # read[r][j]: [E^D] C_j(E) (A_0+j+E)_r/r! numerators over den q^r r!
    for r in range(top + 1):
        read.append(jets[-1])
        u = [p + (j + r) * q for j in range(top - r)]
        jets = [[uj * a + q * b for uj, a, b in zip(u, row, below)] for row, below in zip(jets, [[0] * top, *jets])]
    dens = list(accumulate(range(1, top + 1), lambda d, r: d * q * r, initial=den))  # den q^r r!
    out = []
    for n, scale in zip(ns, map(Fraction, scales)):
        coeffs = [Fraction(scale.numerator * read[r][n - r], scale.denominator * dens[r]) for r in range(n + 1)]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        out.append(tuple(coeffs))
    return out


def _harmonic_pair_sums(family: Callable[[int], Poly], ns: Sequence[int], plain: Sequence[Fraction | int],
                        weighted: Sequence[Fraction | int]) -> list[Poly]:
    """plain_j [t^n] R^2 - weighted_j [t^n] H R at each n = ns[j], with R =
    sum_l P_l(x) t^l / l, H = sum_l H_{l-1} P_l(x) t^l / l and P = family:
    the sum over 0 < l < n of (plain_j - weighted_j H_{l-1}) / (l (n-l))
    P_l(x) P_{n-l}(x).  At plain_j = c H_{n-1} and weighted_j = c it is the
    pair sum of the harmonic weights c (H_{n-1} - H_{l-1}) / (l (n-l)),
    which depend on n, read off two jet lines whose slots do not, at
    eps-orders (1, 1) and (2, 1)."""
    return [poly_sub(p, q) for p, q in zip(_jet_lhs(family, ns, (), (1, 1), plain),
                                           _jet_lhs(family, ns, (), (2, 1), weighted))]


def _subset_series_rhs(a_vec: tuple[Fraction, ...], moment: Callable[[int], Fraction], shifts: Sequence[Poly],
                       terms: Sequence[tuple[int, Fraction]], number: Callable[[int], Fraction]) -> list[Poly]:
    """sum_{l_0=0}^{d} w/l_0! [t^(d-l_0)] q / (sum a)_{d-l_0} P_{l_0}(x),
    P the polynomials of `number`, for each (d, w) of `terms`: the right
    side of theorems 2 and 4 along a line.  With A_i(t) = sum_l (a_i)_l
    moment(l) t^l / l!, q(t) = prod_i (A_i(t) + s_i(t)) - prod_i A_i(t) =
    `subset_series` sums, over the non-empty index subsets J, the products
    of the s_i for i in J and the other A_i.  Its coefficients do not
    depend on where the series are cut, so one q, truncated after the
    largest d, serves the whole line, and so do the Appell numbers of g_r =
    q_r / (sum a)_r: the sum is w/d! times their Appell polynomial, whose
    x^j coefficient is w [t^(d-j)] (g pi) / j!."""
    top = max(d for d, _ in terms)
    series = [poly(w * moment(l) for l, w in enumerate(rising_weights(ai, top))) for ai in a_vec]
    q = subset_series(series, shifts, top)
    total = sum(a_vec)
    nums, den = _appell_numbers([_coeff(q, r) / pochhammer(total, r) for r in range(top + 1)], number, top)
    return [appell(nums[: d + 1], den, w / factorial(d)) for d, w in terms]


def _number_series(number: Callable[[int], Fraction], top: int, weight: Callable[[int], Fraction | int],
                   lo: int = 0) -> list[Fraction]:
    """weight(l) number(l) for l = lo..top, and 0 below lo: the coefficients
    of sum_{l>=lo} weight(l) number(l) t^l, for `series_product`."""
    return [Fraction(0)] * lo + [weight(l) * number(l) for l in range(lo, top + 1)]


# ---------------------------------------------------------------------------
# theorem-level evaluators (public API)
# ---------------------------------------------------------------------------


def eval_theorem1(n: int, a: Fraction, b: Fraction) -> tuple[Poly, Poly]:
    """Both sides of the two-parameter quadratic Bernoulli convolution.

    LHS: sum_l C(n,l) (a)_l (b)_{n-l} / (a+b)_n B_l(x) B_{n-l}(x).
    RHS: sum_l C(n,l) (a (b)_l + b (a)_l) / (a+b)_{l+1} B_l B_{n-l}(x)
         + n a b / ((a+b+1)(a+b)) B_{n-1}(x).
    """
    return _sides_at("theorem1", n, {"a": a, "b": b})


def _theorem1(ns: Sequence[int], a: Fraction, b: Fraction) -> list[tuple[Poly, Poly]]:
    lhs = _theorem_lhs(bernoulli_poly, ns, (a, b))
    s = _number_series(bernoulli_number, max(ns), lambda l: (a * pochhammer(b, l) + b * pochhammer(a, l))
                       / (pochhammer(a + b, l + 1) * factorial(l)))
    # n a b / ((a+b+1)(a+b)) B_{n-1}(x) is C(n, 1) B_{n-1}(x) times a factor
    # free of n: a term l = 1 of the sum
    s[1] += a * b / ((a + b + 1) * (a + b))
    nums, den = _appell_numbers(s, bernoulli_number, max(ns))
    return list(zip(lhs, (appell(nums[: n + 1], den) for n in ns)))


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
    return _sides_at("theorem2", n, {"a_vec": a_vec, "k": k})


def _theorem2(ns: Sequence[int], a_vec: tuple[Fraction, ...], k: int) -> list[tuple[Poly, Poly]]:
    lhs = _theorem_lhs(bernoulli_poly, ns, a_vec)
    shifts = [(Fraction(0), ai) for ai in a_vec]
    rhs = _subset_series_rhs(a_vec, bernoulli_number, shifts, [(n + 1, Fraction(factorial(n))) for n in ns],
                             bernoulli_number)
    return list(zip(lhs, rhs))


def eval_theorem3(n: int, a: Fraction, b: Fraction) -> tuple[Poly, Poly]:
    """Both sides of the two-parameter quadratic Euler convolution.

    LHS: sum_l C(n,l) (a)_l (b)_{n-l} / (a+b)_n E_l(x) E_{n-l}(x).
    RHS: 4/(n+1) B_{n+1}(x)
         - 2/(n+1) sum_{l=0}^{n+1} C(n+1,l) ((a)_l + (b)_l)/(a+b)_l E_l(0) B_{n+1-l}(x).
    """
    return _sides_at("theorem3", n, {"a": a, "b": b})


def _theorem3(ns: Sequence[int], a: Fraction, b: Fraction) -> list[tuple[Poly, Poly]]:
    lhs = _theorem_lhs(euler_poly, ns, (a, b))
    s = _number_series(euler_poly_at_zero, max(ns) + 1,
                       lambda l: (pochhammer(a, l) + pochhammer(b, l)) / (pochhammer(a + b, l) * factorial(l)))
    # 4/(n+1) B_{n+1}(x) is a term l = 0 of the sum, scaled by -2/(n+1)
    s[0] -= 2
    nums, den = _appell_numbers(s, bernoulli_number, max(ns) + 1)
    return list(zip(lhs, (appell(nums[: n + 2], den, Fraction(-2, n + 1)) for n in ns)))


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
    return _sides_at("theorem4", n, {"a_vec": a_vec, "k": k})


def _theorem4(ns: Sequence[int], a_vec: tuple[Fraction, ...], k: int) -> list[tuple[Poly, Poly]]:
    lhs = _theorem_lhs(euler_poly, ns, a_vec)
    if len(a_vec) % 2 == 0:
        terms, number = [(n + 1, Fraction(factorial(n))) for n in ns], bernoulli_number
    else:
        terms, number = [(n, Fraction(-factorial(n), 2)) for n in ns], euler_poly_at_zero
    rhs = _subset_series_rhs(a_vec, euler_poly_at_zero, [(Fraction(-2),)] * len(a_vec), terms, number)
    return list(zip(lhs, rhs))


# ---------------------------------------------------------------------------
# corollary-level evaluators
# ---------------------------------------------------------------------------


def _euler_12(ns: Sequence[int]) -> list[tuple[Fraction, Fraction]]:
    # sum_j C(n, j) B_j B_{n-j} = n! [t^n] beta^2, beta = sum_l B_l t^l / l!
    top = max(ns)
    beta = _number_series(bernoulli_number, top, lambda l: Fraction(1, factorial(l)))
    square = series_product((beta, beta), top)
    return [(factorial(n) * _coeff(square, n), -n * bernoulli_number(n - 1) - (n - 1) * bernoulli_number(n))
            for n in ns]


def _miki(ns: Sequence[int]) -> list[tuple[Fraction, Fraction]]:
    # the sums over 2 <= j <= n-2 are [t^n] c^2 and n! [t^n] gamma^2, with
    # c = sum_{l>=2} B_l t^l / l and gamma = sum_{l>=2} B_l t^l / (l l!)
    top = max(ns)
    c = _number_series(bernoulli_number, top, lambda l: Fraction(1, l), 2)
    gamma = _number_series(bernoulli_number, top, lambda l: Fraction(1, l * factorial(l)), 2)
    plain, weighted = series_product((c, c), top), series_product((gamma, gamma), top)
    return [(_coeff(plain, n) - factorial(n) * _coeff(weighted, n), 2 * harmonic(n) * bernoulli_number(n) / n)
            for n in ns]


def _matiyasevich(ns: Sequence[int]) -> list[tuple[Fraction, Fraction]]:
    # the sums over 2 <= j <= n-2 are [t^n] b^2 and, as C(n+2, j) = (n+2)!
    # / (j! (n+2-j)!), (n+2)! [t^n] beta phi, with b, beta and phi the sums
    # over l >= 2 of B_l t^l times 1, 1/l! and 1/(l+2)!
    top = max(ns)
    b = _number_series(bernoulli_number, top, lambda l: 1, 2)
    beta = _number_series(bernoulli_number, top, lambda l: Fraction(1, factorial(l)), 2)
    phi = _number_series(bernoulli_number, top, lambda l: Fraction(1, factorial(l + 2)), 2)
    plain, weighted = series_product((b, b), top), series_product((beta, phi), top)
    return [((n + 2) * _coeff(plain, n) - 2 * factorial(n + 2) * _coeff(weighted, n), n * (n + 1) * bernoulli_number(n))
            for n in ns]


def _corollary1(ns: Sequence[int]) -> list[tuple[Poly, Poly]]:
    lhs = _jet_lhs(bernoulli_poly, ns, (Fraction(1),) * 2, (), [n + 2 for n in ns])
    # 2 C(n+2, l+2) B_l = (n+1)(n+2) C(n, l) 2 B_l / ((l+1)(l+2)), and
    # C(n+2, 3) B_{n-1}(x) = (n+1)(n+2) C(n, 1) B_{n-1}(x) / 6 is a term l = 1
    s = _number_series(bernoulli_number, max(ns), lambda l: Fraction(2, (l + 1) * (l + 2) * factorial(l)))
    s[1] += Fraction(1, 6)
    nums, den = _appell_numbers(s, bernoulli_number, max(ns))
    return list(zip(lhs, (appell(nums[: n + 1], den, (n + 1) * (n + 2)) for n in ns)))


def _corollary2(ns: Sequence[int]) -> list[tuple[Fraction, Fraction]]:
    # the left side is (n+2) [t^n] b^2, b = sum_l B_l t^l, and the right side,
    # as C(n+2, l+2) = (n+2)! / ((l+2)! (n-l)!), 2 (n+2)! [t^n] phi beta, with
    # phi = sum_l B_l t^l / (l+2)! and beta = sum_l B_l t^l / l!
    top = max(ns)
    b = _number_series(bernoulli_number, top, lambda l: 1)
    lhs = series_product((b, b), top)
    phi = _number_series(bernoulli_number, top, lambda l: Fraction(1, factorial(l + 2)))
    beta = _number_series(bernoulli_number, top, lambda l: Fraction(1, factorial(l)))
    rhs = series_product((phi, beta), top)
    return [((n + 2) * _coeff(lhs, n), 2 * factorial(n + 2) * _coeff(rhs, n)) for n in ns]


def _corollary3(ns: Sequence[int], a: Fraction) -> list[tuple[Poly, Poly]]:
    top = max(ns)
    lhs = _jet_lhs(bernoulli_poly, ns, (a,), (1,), [factorial(n) / pochhammer(a, n) for n in ns])
    s = _number_series(bernoulli_number, top,
                       lambda l: (a * factorial(l - 1) + pochhammer(a, l)) / (pochhammer(a, l + 1) * factorial(l)), 1)
    s[1] += 1 / (a + 1)
    numbers = _appell_numbers(s, bernoulli_number, top)
    rhs = [appell(*_plus_numbers(numbers, n, harmonic_shifted(a, n), bernoulli_number)) for n in ns]
    return list(zip(lhs, rhs))


def _corollary4_first(ns: Sequence[int]) -> list[tuple[Poly, Poly]]:
    top = max(ns)
    lhs = _jet_lhs(bernoulli_poly, ns, (), (1, 1), [Fraction(n, 2) for n in ns])
    s = _number_series(bernoulli_number, top, lambda l: Fraction(1, l * factorial(l)), 1)
    s[1] += Fraction(1, 2)
    numbers = _appell_numbers(s, bernoulli_number, top)
    rhs = [appell(*_plus_numbers(numbers, n, harmonic(n - 1), bernoulli_number)) for n in ns]
    return list(zip(lhs, rhs))


def _corollary4_second(ns: Sequence[int]) -> list[tuple[Poly, Poly]]:
    top = max(ns)
    lhs = _jet_lhs(bernoulli_poly, ns, (Fraction(2),), (1,), [n + 2 for n in ns])
    # C(n+2, l+2) (l^2+l+2)/l B_l = (n+1)(n+2) C(n, l) (l^2+l+2)/(l(l+1)(l+2)) B_l
    s = _number_series(bernoulli_number, top,
                       lambda l: Fraction(l * l + l + 2, l * (l + 1) * (l + 2) * factorial(l)), 1)
    s[1] += Fraction(1, 3)
    numbers = _appell_numbers(s, bernoulli_number, top)
    rhs = [appell(*_plus_numbers(numbers, n, harmonic_shifted(Fraction(2), n), bernoulli_number), (n + 1) * (n + 2))
           for n in ns]
    return list(zip(lhs, rhs))


def _eq_2_12(ns: Sequence[int]) -> list[tuple[Poly, Poly]]:
    top = max(ns)
    lhs = _jet_lhs(bernoulli_poly, ns, (Fraction(1),), (1,), [1] * len(ns))
    s = _number_series(bernoulli_number, top, lambda l: Fraction(1, l * factorial(l)), 1)
    s[1] += Fraction(1, 2)
    numbers = _appell_numbers(s, bernoulli_number, top)
    rhs = [appell(*_plus_numbers(numbers, n, harmonic(n), bernoulli_number)) for n in ns]
    return list(zip(lhs, rhs))


def _corollary5(ns: Sequence[int]) -> list[tuple[Poly, Poly]]:
    s = _number_series(bernoulli_number, max(ns), lambda l: Fraction(1, factorial(l)))
    nums, den = _appell_numbers(s, bernoulli_number, max(ns))
    lhs = [appell(nums[: n + 1], den) for n in ns]
    rhs = [poly_lincomb([(n, poly_mul(poly([-1, 1]), bernoulli_poly(n - 1))), (-(n - 1), bernoulli_poly(n))])
           for n in ns]
    return list(zip(lhs, rhs))


def _corollary6(ns: Sequence[int]) -> list[tuple[Poly, Poly]]:
    s = _number_series(bernoulli_number, max(ns), lambda l: Fraction(1, 2 ** l * factorial(l)))
    nums, den = _appell_numbers(s, bernoulli_number, max(ns))
    lhs = [appell(nums[: n + 1], den) for n in ns]
    # B_m(2x) is the Appell polynomial of B_0..B_m at 2x
    b_nums, b_den = _number_form(bernoulli_number, max(ns))
    rhs = [poly_lincomb([
        (Fraction(n, 2 ** n), poly_mul(poly([-1, 2]), appell(b_nums[:n], b_den, 1, 2))),
        (Fraction(-(n - 1), 2 ** n), appell(b_nums[: n + 1], b_den, 1, 2)),
        (Fraction(-n, 4), bernoulli_poly(n - 1)),
    ]) for n in ns]
    return list(zip(lhs, rhs))


def _eq_2_15(ns: Sequence[int]) -> list[tuple[Poly, Poly]]:
    lhs = _exponential_lhs(bernoulli_poly, ns, 2, [Fraction(factorial(n), 2 ** n) for n in ns])
    s = _number_series(bernoulli_number, max(ns), lambda l: Fraction(1, 2 ** l * factorial(l)))
    s[1] += Fraction(1, 4)
    nums, den = _appell_numbers(s, bernoulli_number, max(ns))
    return list(zip(lhs, (appell(nums[: n + 1], den) for n in ns)))


def _corollary7(ns: Sequence[int]) -> list[tuple[Poly, Poly]]:
    lhs = _harmonic_pair_sums(bernoulli_poly, ns, [n * harmonic(n - 1) for n in ns], ns)
    s = _number_series(bernoulli_number, max(ns), lambda l: (harmonic(l) + Fraction(1, l)) / (l * factorial(l)), 1)
    s[1] += 1
    numbers = _appell_numbers(s, bernoulli_number, max(ns))
    rhs = [appell(*_plus_numbers(numbers, n, (harmonic(n - 1) ** 2 + 3 * harmonic_second(n - 1)) / 2,
                                 bernoulli_number))
           for n in ns]
    return list(zip(lhs, rhs))


def _eq_4_0a(ns: Sequence[int]) -> list[tuple[Poly, Poly]]:
    top = max(ns)
    lhs = _jet_lhs(bernoulli_poly, ns, (Fraction(1),) * 3, (), [n + 3 for n in ns])
    # for fixed i the (j, l) sum is [t^(n-i)] b(t)^2, b = sum_l B_l t^l, and
    # as C(n+3, i) = (n+3)! / (i! (n+3-i)!) the three terms are 3 (n+3)!
    # sum_i s_{n-i} B_i(x)/i!, s_r = ([t^r] b^2 + B_{r-1} + [r = 2]/3) / (r+3)!
    b = _number_series(bernoulli_number, top, lambda l: 1)
    square = series_product((b, b), top)
    s = [(_coeff(square, r) + before + Fraction(int(r == 2), 3)) / factorial(r + 3)
         for r, before in enumerate([0, *b[:top]])]
    nums, den = _appell_numbers(s, bernoulli_number, top)
    return list(zip(lhs, (appell(nums[: n + 1], den, Fraction(3 * factorial(n + 3), factorial(n))) for n in ns)))


def _kth_matiyasevich(ns: Sequence[int], k: int) -> list[tuple[Fraction, Fraction]]:
    """The k-fold sums are read off b(t) = sum_{l<=N} B_l t^l, N the largest
    n: the left side is [t^n] b^k, the right side sum_{l_0} C(n+k, l_0)
    B_{l_0} q_{n+1-l_0} / (n+k) with q = (b + t)^k - b^k, whose subset sum
    is over j of C(k, j) t^j b^(k-j).  As C(n+k, l_0) = (n+k)! / (l_0!
    (r+k-1)!) at r = n+1-l_0, the right side is (n+k)! [t^(n+1)] beta q~ /
    (n+k), beta_l = B_l / l! and q~_r = q_r / (r+k-1)!.  Neither side reads
    a B_l with l > n + 1, so b^k, q and beta q~ are formed once for the
    line."""
    top = max(ns)
    b = poly(bernoulli_number(l) for l in range(top + 1))
    power = series_product([b] * k, top)
    q = subset_series([b] * k, [(Fraction(0), Fraction(1))] * k, top + 1)
    beta = _number_series(bernoulli_number, top + 1, lambda l: Fraction(1, factorial(l)))
    weighted = series_product((beta, [_coeff(q, r) / factorial(r + k - 1) for r in range(top + 2)]), top + 1)
    return [(_coeff(power, n), factorial(n + k) * _coeff(weighted, n + 1) / (n + k)) for n in ns]


def _eq_6_9(ns: Sequence[int], eps: Fraction) -> list[tuple[Poly, Poly]]:
    top = max(ns)
    lhs = _jet_lhs(bernoulli_poly, ns, (eps,) * 3, (), [1 / pochhammer(3 * eps, n) for n in ns])
    # for fixed i the (j, l) sum is [t^(n-i)] of the square of c(t) =
    # sum_l (eps)_l B_l t^l / l!, and the three terms are sum_i s_{n-i}
    # B_i(x)/i!, s_r = 3 eps ([t^r] c^2 + eps c_{r-1} + [r = 2] eps^2/3) / (3 eps)_{r+1}
    series = [w * bernoulli_number(l) for l, w in enumerate(rising_weights(eps, top))]
    square = series_product((series, series), top)
    s = [3 * eps * (_coeff(square, r) + eps * before + Fraction(int(r == 2), 3) * eps * eps)
         / pochhammer(3 * eps, r + 1)
         for r, before in enumerate([0, *series[:top]])]
    nums, den = _appell_numbers(s, bernoulli_number, top)
    return list(zip(lhs, (appell(nums[: n + 1], den, Fraction(1, factorial(n))) for n in ns)))


def _corollary8(ns: Sequence[int]) -> list[tuple[Poly, Poly]]:
    top = max(ns)
    lhs = _exponential_lhs(bernoulli_poly, ns, 3, [factorial(n) for n in ns])
    # for fixed i the (j, l) sum is [t^(n-i)] of the square of beta(t) =
    # sum_l B_l t^l / l!, and the three terms are n! sum_i s_{n-i} 3^i
    # B_i(x)/i!, s_r = [t^r] beta^2 + beta_{r-1} + [r = 2]/3
    beta = _number_series(bernoulli_number, top, lambda l: Fraction(1, factorial(l)))
    square = series_product((beta, beta), top)
    s = [_coeff(square, r) + before + Fraction(int(r == 2), 3) for r, before in enumerate([0, *beta[:top]])]
    nums, den = _appell_numbers(s, bernoulli_number, top, 3)
    return list(zip(lhs, (appell(nums[: n + 1], den, 1, 3) for n in ns)))


def _corollary9(ns: Sequence[int]) -> list[tuple[Fraction, Fraction]]:
    """Both sides of the third-order harmonic-weighted number convolution.

    With b_m = B_m / m and b(t) = sum_{m>=1} b_m t^m, the two cubic sums
    over i+j+l = n, i, j, l >= 1, are s1 = sum b_i b_j b_l = [t^n] b^3
    (left side, s1/3) and s2 = sum C(n-1, i-1) b_i b_j b_l = (n-1)! [t^n]
    beta sigma (right side), with beta_i = b_i/(i-1)! = B_i/i! and sigma_r
    = [t^r] b^2 / r!.  The pair sums over l + m = n-1 or n are read off
    series whose t^0 coefficient is 0: s3 = (n-1)! [t^(n-1)] u beta, s4 =
    (3 H_{n-1} + 1/n) [t^n] b^2 - 2 [t^n] h b and s5 = (n-1)! [t^n] g beta,
    with u_l = b_l/(l+1)!, h_l = H_{l-1} b_l and g_l = (2 H_l + 1/l) b_l/l!.
    s2 + s3 - 2 s5 is then (n-1)! [t^n] beta v, v_r = sigma_r + u_{r-1} -
    2 g_r.  One b^2, cut after t^N for N the largest n, serves both sides
    and the whole line.
    """
    h1 = harmonic
    h2 = harmonic_second
    top = max(ns)
    b = _number_series(bernoulli_number, top, lambda m: Fraction(1, m), 1)
    beta = _number_series(bernoulli_number, top, lambda m: Fraction(1, factorial(m)), 1)
    u = _number_series(bernoulli_number, top, lambda l: Fraction(1, l * factorial(l + 1)), 1)
    h = _number_series(bernoulli_number, top, lambda l: h1(l - 1) / l, 1)
    g = _number_series(bernoulli_number, top, lambda l: (2 * h1(l) + Fraction(1, l)) / (l * factorial(l)), 1)
    square = series_product((b, b), top)
    cube, cross = series_product((square, b), top), series_product((h, b), top)
    v = [_coeff(square, r) / factorial(r) + before - 2 * g_r for r, (before, g_r) in enumerate(zip([0, *u], g))]
    weighted = series_product((beta, v), top)
    out = []
    for n in ns:
        s4 = (3 * h1(n - 1) + Fraction(1, n)) * _coeff(square, n) - 2 * _coeff(cross, n)
        harmonics = Fraction(2, n) * h1(n - 1) + h1(n - 1) ** 2 + 2 * h2(n - 1) + Fraction(3, n * n)
        rhs = (factorial(n - 1) * _coeff(weighted, n) + s4
               + Fraction(n - 1, 6) * bernoulli_number(n - 2)
               + (Fraction(1, (n - 1) * n) - 3) * bernoulli_number(n - 1) - 2 * harmonics * b[n])
        out.append((_coeff(cube, n) / 3, rhs))
    return out


def _corollary10_first(ns: Sequence[int]) -> list[tuple[Poly, Poly]]:
    top = max(ns)
    lhs = _jet_lhs(euler_poly, [n - 1 for n in ns], (), (1, 1), [1] * len(ns))
    # the sum over l of 4 C(n-2, l-1)/(l (n-l)) H_{l-1} E_l(0) B_{n-l}(x):
    # Bernoulli polynomials, so its Appell numbers are read with
    # bernoulli_number; 4 C(n-2, l-1)/(l (n-l)) = 4 C(n, l)/(n (n-1)), and
    # the constant term is the term l = n
    s = _number_series(euler_poly_at_zero, top, lambda l: 4 * harmonic(l - 1) / factorial(l), 1)
    nums, den = _appell_numbers(s, bernoulli_number, top)
    rhs = [poly_lincomb([(Fraction(1, n * (n - 1)), appell(nums[: n + 1], den)),
                         (2 * harmonic(n - 2) / Fraction(n - 1), euler_poly(n - 1))])
           for n in ns]
    return list(zip(lhs, rhs))


def _corollary10_second(ns: Sequence[int]) -> list[tuple[Poly, Poly]]:
    lhs = _harmonic_pair_sums(euler_poly, ns, [harmonic(n - 1) for n in ns], [1] * len(ns))
    # the sum over l of C(n-1, l-1)/(l (n+1-l)) (H_{l-1}^2 + 3 H^(2)_{l-1})
    # E_l(0) B_{n+1-l}(x): Bernoulli polynomials, so its Appell numbers are
    # read with bernoulli_number; C(n-1, l-1)/(l (n+1-l)) = C(n+1, l)/(n (n+1)),
    # and the constant term is the term l = n + 1
    s = _number_series(euler_poly_at_zero, max(ns) + 1,
                       lambda l: (harmonic(l - 1) ** 2 + 3 * harmonic_second(l - 1)) / factorial(l), 1)
    nums, den = _appell_numbers(s, bernoulli_number, max(ns) + 1)
    rhs = [poly_lincomb([(Fraction(1, 2) * (harmonic(n - 1) ** 2 + 3 * harmonic_second(n - 1)) / n, euler_poly(n)),
                         (Fraction(1, n * (n + 1)), appell(nums[: n + 2], den))])
           for n in ns]
    return list(zip(lhs, rhs))


def _corollary11_first(ns: Sequence[int]) -> list[tuple[Poly, Poly]]:
    top = max(ns)
    # the centred pairs E_l(x) E_{n-l}(x) - E_l(0) E_{n-l}(0): the
    # convolution less its value at x = 0, [t^n] e(t)^2 with
    # e = sum_{m>=1} E_m(0)/m t^m
    e = _number_series(euler_poly_at_zero, top, lambda m: Fraction(1, m), 1)
    centre = series_product((e, e), top)
    lhs = [poly_sub(p, poly([_coeff(centre, n)]))
           for n, p in zip(ns, _jet_lhs(euler_poly, ns, (), (1, 1), [1] * len(ns)))]
    # for fixed i the (j, l) sum over j, l >= 1 is [t^(n-i)] e(t)^2, from
    # the right side's own e; as C(n-1, i) = (n-1)! / (i! (n-1-i)!) the
    # i-sum is (n-1)! sum_i s_{n-i} E_i(x)/i!, s_r = [t^r] e^2 / (r-1)!, less
    # its constant term i = 0, s_n (n-1)! = [t^n] e^2
    e = _number_series(euler_poly_at_zero, top, lambda m: Fraction(1, m), 1)
    square = series_product((e, e), top)
    numbers = _appell_numbers([Fraction(0), *(_coeff(square, r) / factorial(r - 1) for r in range(1, top + 1))],
                              euler_poly_at_zero, top)
    rhs = [appell(*_plus_numbers(numbers, n, 2 * harmonic(n - 1), euler_poly_at_zero, -n * _coeff(square, n)),
                  Fraction(1, n))
           for n in ns]
    return list(zip(lhs, rhs))


def _corollary11_second(ns: Sequence[int]) -> list[tuple[Poly, Poly]]:
    top = max(ns)
    lhs = _jet_lhs(euler_poly, ns, (), (1, 1, 1), [Fraction(1, 3)] * len(ns))
    # for fixed i, H_{j+l-1} = H_{n-i-1}, and by symmetry the (j, l) sum is
    # 2 [t^(n-i)] h(t) e(t) - 3 H_{n-i-1} [t^(n-i)] e(t)^2, with e_m =
    # E_m(0)/m and h_m = H_{m-1} e_m; the i-sum over 1 <= i <= n-1 is (n-1)!
    # sum_i s_{n-i} E_i(x)/i!, s_r = (2 [t^r] h e - 3 H_{r-1} [t^r] e^2) / (r-1)!,
    # less its term i = 0.  The pair sum's weights c_l = (3 H_{n-1} -
    # H_{l-1} - H_{n-l-1}) / (l (n-l)) are symmetric in l <-> n-l, and its
    # centring constant sum_l c_l E_l(0) E_{n-l}(0) = 3 H_{n-1} [t^n] e^2 -
    # 2 [t^n] h e is that term i = 0 with its sign changed: the two cancel,
    # and the side is the whole i-sum plus the uncentred pair sum
    e = _number_series(euler_poly_at_zero, top, lambda m: Fraction(1, m), 1)
    h = _number_series(euler_poly_at_zero, top, lambda m: harmonic(m - 1) / m, 1)
    square = series_product((e, e), top)
    cross = series_product((h, e), top)
    s = [Fraction(0), *((2 * _coeff(cross, r) - 3 * harmonic(r - 1) * _coeff(square, r)) / factorial(r - 1)
                        for r in range(1, top + 1))]
    numbers = _appell_numbers(s, euler_poly_at_zero, top)
    # by the same symmetry the uncentred pair sum's weights are (3 H_{n-1}
    # - 2 H_{l-1}) / (l (n-l))
    pair_sums = _harmonic_pair_sums(euler_poly, ns, [3 * harmonic(n - 1) for n in ns], [2] * len(ns))
    rhs = [poly_lincomb([
        (Fraction(1, n), appell(*_plus_numbers(
            numbers, n, -2 * (harmonic(n - 1) ** 2 + 2 * harmonic_second(n - 1)), euler_poly_at_zero))),
        (1, pair_sum),
    ]) for n, pair_sum in zip(ns, pair_sums)]
    return list(zip(lhs, rhs))


def _ds_lhs(ns: Sequence[int], p: Fraction) -> list[Fraction]:
    """sum_{l=1}^{n-1} c_l c_{n-l} = [t^n] c(t)^2 at each n, c_m = (p + 1)_{2m-1}
    /(2m-1)! B_{2m}/(2m) and c_0 = 0, with c formed once for the line."""
    w = rising_weights(p + 1, 2 * max(ns) - 1)
    c = [Fraction(0), *(w[2 * m - 1] * (bernoulli_number(2 * m) / (2 * m)) for m in range(1, max(ns)))]
    square = series_product((c, c), max(ns))
    return [_coeff(square, n) for n in ns]


def _ds_cross_terms(ns: Sequence[int], p: Fraction) -> list[Fraction]:
    """2/(2n)! sum_{l=1}^{n} C(2n, 2l) (p+1)_{2l-1} (2p+1)_{2n-1}/(2p+1)_{2l}
    B_{2l} B_{2n-2l} at each n: 2 (2p+1)_{2n-1} [s^n] f(s) g(s), with f_l =
    (p+1)_{2l-1}/(2p+1)_{2l} B_{2l}/(2l)! (f_0 = 0) and g_m = B_{2m}/(2m)!,
    formed once for the line."""
    top = max(ns)
    f = [Fraction(0), *(pochhammer(p + 1, 2 * l - 1) / pochhammer(2 * p + 1, 2 * l) * bernoulli_number(2 * l)
                        / factorial(2 * l) for l in range(1, top + 1))]
    g = [bernoulli_number(2 * m) / factorial(2 * m) for m in range(top + 1)]
    cross = series_product((f, g), top)
    return [2 * pochhammer(2 * p + 1, 2 * n - 1) * _coeff(cross, n) for n in ns]


def eval_dunne_schubert(n: int, p: Fraction) -> tuple[Fraction, Fraction]:
    """Both sides of the rising-factorial weighted even-index sum, in the
    normalized form with the common squared gamma factor divided out."""
    return _sides_at("dunne-schubert", n, {"p": p})


def _dunne_schubert(ns: Sequence[int], p: Fraction) -> list[tuple[Fraction, Fraction]]:
    # the running sums of (p+1)_{l-1}/(2p+1)_l over l = 1..2N-1; the lead
    # is (2p+1)_{2n-1} times the one at 2n - 1
    partial = list(accumulate((pochhammer(p + 1, l - 1) / pochhammer(2 * p + 1, l) for l in range(1, 2 * max(ns))),
                              initial=Fraction(0)))
    rhs = [2 * bernoulli_number(2 * n) / Fraction(factorial(2 * n)) * pochhammer(2 * p + 1, 2 * n - 1)
           * partial[2 * n - 1] + cross
           for n, cross in zip(ns, _ds_cross_terms(ns, p))]
    return list(zip(_ds_lhs(ns, p), rhs))


def eval_eq72(n: int, p: Fraction) -> tuple[Fraction, Fraction]:
    """Variant right-hand side of the same normalized even-index sum, with
    the difference of rising factorials collected into the leading term."""
    return _sides_at("eq-7-2", n, {"p": p})


def _eq_7_2(ns: Sequence[int], p: Fraction) -> list[tuple[Fraction, Fraction]]:
    rhs = [(pochhammer(2 * p, 2 * n) - 2 * pochhammer(p, 2 * n)) * bernoulli_number(2 * n) / (p * p * factorial(2 * n))
           + cross
           for n, cross in zip(ns, _ds_cross_terms(ns, p))]
    return list(zip(_ds_lhs(ns, p), rhs))


def gamma_sum_identity(n: int, p: Fraction) -> tuple[Fraction, Fraction]:
    """Both sides of the telescoping rising-factorial ratio sum, normalized
    so every term is a ratio of rising factorials."""
    return _sides_at("gamma-sum", n, {"p": p})


def _gamma_sum(ns: Sequence[int], p: Fraction) -> list[tuple[Fraction, Fraction]]:
    # the running sums of (p)_l / (2p+1)_l over l = 1..2N-1
    partial = list(accumulate((pochhammer(p, l) / pochhammer(2 * p + 1, l) for l in range(1, 2 * max(ns))),
                              initial=Fraction(0)))
    return [(partial[2 * n - 1], 1 - pochhammer(p, 2 * n) / (p * pochhammer(2 * p + 1, 2 * n - 1))) for n in ns]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


Point = Mapping[str, object]
# Points of one entry that differ only in n, in order; a bare point is a
# line of one.
Line = Sequence[Point]

# The order in which a point's inputs are printed, in messages and reports.
INPUT_ORDER = ("n", "k", "a", "b", "a_vec", "p", "epsilon", "display")


def _pos(v: object) -> bool:
    return is_exact(v, Rational) and v > 0


def _valid_param(key: str, v: object, k: object) -> bool:
    """A positive rational, or for `a_vec` a tuple of k of them."""
    if key == "a_vec":
        return isinstance(v, tuple) and len(v) == k and all(_pos(x) for x in v)
    return _pos(v)


def _as_line(points: Line | Point) -> Line:
    return [points] if isinstance(points, Mapping) else points


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
    that returns its sides; the label is "" when there is one display.
    Each function is called along a line, points that differ only in n, as
    fn(ns, *params, k) (`sides`): the n of each point, the parameters in
    `param_names` order, and k only for a k-fold entry (`k_min` set), at
    points already checked.  It returns one (lhs, rhs) per n, in order, and
    may share work between the points of the line, never between the two
    sides.  A side may be a polynomial or a number, which is lifted to a
    constant.

    The domain is integer n in n_min, n_min + n_step, ... (`n_step` 2 from
    an even n_min for an even-degree identity), each parameter a
    positive rational (`a_vec` a tuple of k of them), and for a k-fold
    entry integer k >= k_min.  The validity predicate and its text, the
    default grid and `evaluate` all follow from these fields; `evaluate` is
    a field only so that a caller can swap it for a wrapped one.  Its
    default, `evaluate_displays`, is bound to the entry it is built for,
    also when `dataclasses.replace` builds it; a wrapped one is kept.
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
    evaluate: Callable[[Line | Point], list[tuple[str, Poly, Poly]]] | None = None

    def __post_init__(self) -> None:
        if self.evaluate is None or getattr(self.evaluate, "__func__", None) is IdentitySpec.evaluate_displays:
            object.__setattr__(self, "evaluate", self.evaluate_displays)

    def evaluate_displays(self, line: Line | Point) -> list[tuple[str, Poly, Poly]]:
        """Both sides of every display along a checked line, point by point
        and each point's displays in order: the default `evaluate`."""
        line = _as_line(line)
        per_display = [self.sides(fn, line) for _, fn in self.displays]
        return [(label, *map(_as_poly, sides[i]))
                for i in range(len(line)) for (label, _), sides in zip(self.displays, per_display)]

    def sides(self, fn: Callable[..., list[tuple[Poly | Fraction, Poly | Fraction]]],
              line: Line | Point) -> list[tuple[Poly | Fraction, Poly | Fraction]]:
        """The sides of the display function fn at each point of a checked
        line, called as fn(ns, *params, k): the one statement of the call
        convention."""
        line = _as_line(line)
        pt = line[0]
        return fn([p["n"] for p in line], *(pt[key] for key in self.param_names),
                  *((pt["k"],) if self.takes_k else ()))

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
        if not (is_exact(n, Integral) and n >= self.n_min and (n - self.n_min) % self.n_step == 0):
            return False
        if self.takes_k and not (is_exact(k, Integral) and k >= self.k_min):
            return False
        return all(_valid_param(key, pt.get(key), k) for key in self.param_names)

    def default_n(self, k: int | None) -> range:
        n_max = min(self.n_max, _k_fold_n_max(k)) if self.takes_k else self.n_max
        return range(self.n_min, n_max + 1, self.n_step)

    def default_param_sets(self, k: int | None) -> tuple[dict, ...]:
        return _tuple_sets_for_k(k) if "a_vec" in self.param_names else self.param_sets


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one identity at one grid point (and display, if several).
    The status is "pass", "fail", or "error" when the evaluation of the
    point's line raised; an error report has empty sides and `error` says
    which line raised what."""

    identity: str
    inputs: dict
    status: str
    lhs: Poly
    rhs: Poly
    difference: Poly
    elapsed: float
    error: str = ""

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
                 (("", _theorem1),), n_min=1, n_max=30, param_names=("a", "b"), param_sets=_PAIR_SETS),
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
                 (("", _theorem2),), n_min=0, n_max=20, param_names=("a_vec",), k_min=2, default_ks=(2, 3, 4)),
    IdentitySpec("eq-4-0a", "unweighted cubic Bernoulli polynomial convolution",
                 (("", _eq_4_0a),), n_min=3, n_max=12),
    IdentitySpec("kth-matiyasevich", "k-fold Bernoulli number convolution in binomial form",
                 (("", _kth_matiyasevich),), n_min=0, n_max=20, k_min=2, default_ks=(2, 3, 4)),
    IdentitySpec("theorem3", "two-parameter weighted convolution of Euler polynomial pairs",
                 (("", _theorem3),), n_min=1, n_max=30, param_names=("a", "b"), param_sets=_PAIR_SETS),
    IdentitySpec("theorem4", "k-parameter weighted multinomial convolution of Euler polynomials",
                 (("", _theorem4),), n_min=0, n_max=20, param_names=("a_vec",), k_min=1, default_ks=(1, 2, 3, 4)),
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
                 (("", _dunne_schubert),), n_min=2, n_max=15, param_names=("p",), param_sets=_P_SET),
    IdentitySpec("eq-7-2", "variant right side of the rising-factorial weighted even-index sum",
                 (("", _eq_7_2),), n_min=2, n_max=15, param_names=("p",), param_sets=_P_SET),
    IdentitySpec("gamma-sum", "telescoping rising-factorial ratio sum",
                 (("", _gamma_sum),), n_min=1, n_max=30, param_names=("p",), param_sets=_P_SET),
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
    the one domain check of `verify` and of the single-point door
    `_sides_at`.  A k of None is no k, a k-fold point without one takes the
    length of its `a_vec`, a list `a_vec` is read as a tuple, and in a
    checked point n and k are ints and every parameter is a Fraction,
    whatever `numbers` type came in."""
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
        for key, v in pt.items():
            pt[key] = (int(v) if key in ("n", "k") else as_exact(v, Rational, key) if key == "a_vec"
                       else as_exact((v,), Rational, key)[0])
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
    return tuple(map(_as_poly, _sides_at(name, n, params, display)))


def _sides_at(name: str, n: object, params: Mapping[str, object],
              display: str | None = None) -> tuple[Poly | Fraction, Poly | Fraction]:
    """The sides of one display of a REGISTRY entry (the first if display is
    None) at one point, as its function returns them.  The point is checked
    once, and no other display is evaluated: the one door of
    `eval_corollary` and the public evaluators, a line of one point."""
    entry, line = _checked(name, [{"n": n, **params}])
    for label, fn in entry.displays:
        if display is None or label == display:
            return entry.sides(fn, line)[0]
    raise DomainError(f"{name}: no display {display!r}; available: {[label for label, _ in entry.displays]}")


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
    axis; everything else keeps its default.  The n values are read once,
    and a list `a_vec` is read as a tuple, whose length is the k when none
    is given.
    """
    n_values = tuple(n_values) if n_values is not None else None
    params = dict(params) if params else None
    _refuse_foreign_inputs(entry, params or {}, k)
    if params and isinstance(params.get("a_vec"), list):
        params["a_vec"] = tuple(params["a_vec"])
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
        ns = n_values if n_values is not None else entry.default_n(kk)
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
    runs, and a report's inputs are its checked point.  Each run of
    consecutive points that differ only in n is evaluated as one line, and
    reported point by point in grid order.  A failing identity never
    raises: it produces a fail report with the difference retained.  Nor
    does a line whose evaluation raises, which at checked points is a
    defect of the program, not of its input: each display of each of its
    points gets an error report with empty sides, and the other lines are
    evaluated as usual.
    """
    entry, grid = _checked(name, points, registry)
    reports: list[IdentityReport] = []
    for _, run in groupby(grid, key=lambda pt: {**pt, "n": None}):
        line = list(run)
        start = time.perf_counter()
        try:
            displays, error = entry.evaluate(line), ""
        except Exception as exc:
            where = point_text({**line[0], "n": ",".join(str(pt["n"]) for pt in line)})
            error = f"{name}: {where}: {type(exc).__name__}: {exc}"
            displays = [(label, ZERO, ZERO) for _ in line for label, _ in entry.displays]
        # one evaluation serves every point and display of the line: split
        # its time evenly, so that the reports' times add up to the measured total
        elapsed = (time.perf_counter() - start) / len(displays)
        per_point = len(displays) // len(line)
        for i, (label, lhs, rhs) in enumerate(displays):
            pt = line[i // per_point]
            # equal tuples are equal polynomials, whose difference is ZERO;
            # only unequal sides are subtracted, so a fail keeps its difference
            diff = ZERO if lhs == rhs else poly_sub(lhs, rhs)
            inputs = dict(pt)
            if label:
                inputs["display"] = label
            reports.append(IdentityReport(
                identity=name,
                inputs=inputs,
                status="error" if error else "pass" if diff == ZERO else "fail",
                lhs=lhs,
                rhs=rhs,
                difference=diff,
                elapsed=elapsed,
                error=error,
            ))
    return reports
