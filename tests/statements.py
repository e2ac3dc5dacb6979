"""One executable statement per display of the identity registry.

`STATEMENTS[(name, label)](point)` returns (lhs, rhs) of one displayed
identity at one grid point, written the way the identity states it:
multi-index sums walk their compositions and index subsets
(`walks.py`), a sum over l keeps its binomials as stated (C(n+2, l+2),
C(n-2, l-1)/(l(n-l)), C(n-1, i), ...), an extra term such as
kappa n B_{n-1}(x) or alpha_n B_n(x) stands apart from the sum, and a
number sum is a plain loop of `Fraction`s.  Sides are polynomials for
the polynomial identities and numbers for the number identities, as the
registry's displays return them.

A statement shares nothing with the display it checks but the sequence
tables, the scalar helpers and `poly_lincomb`: a product of Bernoulli or
Euler polynomials is the memoized `poly_mul` fold `folded_product`, and
no statement calls a series kernel (`series_product`, `subset_series`,
`sequences.appell`) or reads anything of `bek.identities`, whose left
sides are read off products of number series (the harmonic ones off their
eps-jets).  So an algebra error in a display is not repeated
here, and the tests compare the two exactly on every default point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import factorial, prod

from bek.exactmath import (
    ONE,
    binomial,
    harmonic,
    harmonic_second,
    harmonic_shifted,
    pochhammer,
    poly,
    poly_lincomb,
    poly_mul,
    poly_sub,
)
from bek.sequences import bernoulli_number as B, bernoulli_poly, euler_poly, euler_poly_at_zero as E
from walks import composition_parts, multinomial

F = Fraction


@lru_cache(maxsize=None)
def folded_product(family, parts):
    """family(l) multiplied over a sorted index tuple, one `poly_mul` at a time."""
    return reduce(poly_mul, map(family, parts), ONE)


def _bp(*parts):
    return folded_product(bernoulli_poly, tuple(sorted(parts)))


def _ep(*parts):
    return folded_product(euler_poly, tuple(sorted(parts)))


def _sum(terms):
    return sum(terms, F(0))


def _at_2x(p):
    """The polynomial x -> p(2x)."""
    return poly(c * 2 ** i for i, c in enumerate(p))


def _centred(l, m):
    """E_l(x) E_m(x) - E_l(0) E_m(0)."""
    return poly_sub(_ep(l, m), poly([E(l) * E(m)]))


def _harmonic_squares(m):
    """H_m^2 + 3 H_m^(2)."""
    return harmonic(m) ** 2 + 3 * harmonic_second(m)


def _inner(n, k):
    """The weak compositions of n into k parts with every part >= 1."""
    return [parts for parts in composition_parts(n, k) if min(parts) >= 1]


def _weighted_lhs(product, n, a_vec):
    """sum over l_1+...+l_k = n of multinomial(n; l) prod_i (a_i)_{l_i} / (sum a)_n
    P_{l_1}(x)...P_{l_k}(x): the left side of theorems 1-4."""
    return poly_lincomb((multinomial(n, parts) * prod(pochhammer(a, l) for a, l in zip(a_vec, parts))
                         / pochhammer(sum(a_vec), n), product(*parts))
                        for parts in composition_parts(n, len(a_vec)))


def _euler_1_2(pt):
    n = pt["n"]
    return _sum(binomial(n, j) * B(j) * B(n - j) for j in range(n + 1)), -n * B(n - 1) - (n - 1) * B(n)


def _miki(pt):
    n = pt["n"]
    pairs = [(j, B(j) * B(n - j) / (j * (n - j))) for j in range(2, n - 1)]
    return (_sum(term for _, term in pairs) - _sum(binomial(n, j) * term for j, term in pairs),
            2 * harmonic(n) * B(n) / n)


def _matiyasevich(pt):
    n = pt["n"]
    js = range(2, n - 1)
    return ((n + 2) * _sum(B(j) * B(n - j) for j in js) - 2 * _sum(binomial(n + 2, j) * B(j) * B(n - j) for j in js),
            n * (n + 1) * B(n))


def _theorem1(pt, number=B, polynomial=bernoulli_poly):
    """The right side reads its numbers and polynomials from `number` and
    `polynomial`, so that a corrupted table can be stated too."""
    n, a, b = pt["n"], pt["a"], pt["b"]
    rhs = poly_lincomb([
        *((binomial(n, l) * (a * pochhammer(b, l) + b * pochhammer(a, l)) / pochhammer(a + b, l + 1) * number(l),
           polynomial(n - l)) for l in range(n + 1)),
        (n * a * b / ((a + b + 1) * (a + b)), polynomial(n - 1)),
    ])
    return _weighted_lhs(_bp, n, (a, b)), rhs


def _theorem2(pt):
    # over the non-empty subsets J, j = |J| <= n + 1, and the compositions
    # l_0 + ... + l_{k-j} = n + 1 - j of the other slots
    n, a_vec = pt["n"], pt["a_vec"]
    k, total = len(a_vec), sum(a_vec)
    terms = []
    for j in range(1, min(k, n + 1) + 1):
        for subset in combinations(range(k), j):
            rest = [a for i, a in enumerate(a_vec) if i not in subset]
            weight = prod(a_vec[i] for i in subset) * F(factorial(n), factorial(n + 1 - j))
            for l0, *ls in composition_parts(n + 1 - j, k - j + 1):
                terms.append((weight * multinomial(n + 1 - j, (l0, *ls))
                              * prod(pochhammer(a, l) * B(l) for a, l in zip(rest, ls)) / pochhammer(total, n + 1 - l0),
                              bernoulli_poly(l0)))
    return _weighted_lhs(_bp, n, a_vec), poly_lincomb(terms)


def _theorem3(pt):
    n, a, b = pt["n"], pt["a"], pt["b"]
    rhs = poly_lincomb([
        (F(4, n + 1), bernoulli_poly(n + 1)),
        *((F(-2, n + 1) * binomial(n + 1, l) * (pochhammer(a, l) + pochhammer(b, l)) / pochhammer(a + b, l) * E(l),
           bernoulli_poly(n + 1 - l)) for l in range(n + 2)),
    ])
    return _weighted_lhs(_ep, n, (a, b)), rhs


def _theorem4(pt):
    # even k: (-2)^j/(n+1) over the compositions of n + 1, on B_{l_0}(x);
    # odd k: (-2)^(j-1) over the compositions of n, on E_{l_0}(x)
    n, a_vec = pt["n"], pt["a_vec"]
    k, total = len(a_vec), sum(a_vec)
    even = k % 2 == 0
    d = n + 1 if even else n
    terms = []
    for j in range(1, k + 1):
        outer = F(-2) ** j / (n + 1) if even else F(-2) ** (j - 1)
        for subset in combinations(range(k), j):
            rest = [a for i, a in enumerate(a_vec) if i not in subset]
            for l0, *ls in composition_parts(d, k - j + 1):
                terms.append((outer * multinomial(d, (l0, *ls))
                              * prod(pochhammer(a, l) * E(l) for a, l in zip(rest, ls)) / pochhammer(total, d - l0),
                              bernoulli_poly(l0) if even else euler_poly(l0)))
    return _weighted_lhs(_ep, n, a_vec), poly_lincomb(terms)


def _corollary1(pt):
    n = pt["n"]
    rhs = poly_lincomb([*((2 * binomial(n + 2, l + 2) * B(l), bernoulli_poly(n - l)) for l in range(n + 1)),
                        (binomial(n + 2, 3), bernoulli_poly(n - 1))])
    return poly_lincomb((n + 2, _bp(l, n - l)) for l in range(n + 1)), rhs


def _corollary2(pt):
    n = pt["n"]
    return ((n + 2) * _sum(B(l) * B(n - l) for l in range(n + 1)),
            2 * _sum(binomial(n + 2, l + 2) * B(l) * B(n - l) for l in range(n + 1)))


def _corollary3(pt):
    n, a = pt["n"], pt["a"]
    lhs = poly_lincomb((binomial(n, l) * pochhammer(a, l) * factorial(n - l - 1) / pochhammer(a, n), _bp(l, n - l))
                       for l in range(n))
    rhs = poly_lincomb([
        *((binomial(n, l) * (a * factorial(l - 1) + pochhammer(a, l)) / pochhammer(a, l + 1) * B(l),
           bernoulli_poly(n - l)) for l in range(1, n + 1)),
        (n / (a + 1), bernoulli_poly(n - 1)),
        (harmonic_shifted(a, n), bernoulli_poly(n)),
    ])
    return lhs, rhs


def _corollary4_first(pt):
    n = pt["n"]
    rhs = poly_lincomb([*((binomial(n, l) * B(l) / l, bernoulli_poly(n - l)) for l in range(1, n + 1)),
                        (F(n, 2), bernoulli_poly(n - 1)), (harmonic(n - 1), bernoulli_poly(n))])
    return poly_lincomb((F(n, 2 * l * (n - l)), _bp(l, n - l)) for l in range(1, n)), rhs


def _corollary4_second(pt):
    n = pt["n"]
    rhs = poly_lincomb([
        *((binomial(n + 2, l + 2) * F(l * l + l + 2, l) * B(l), bernoulli_poly(n - l)) for l in range(1, n + 1)),
        (F(n * (n + 1) * (n + 2), 3), bernoulli_poly(n - 1)),
        ((n + 1) * (n + 2) * harmonic_shifted(F(2), n), bernoulli_poly(n)),
    ])
    return poly_lincomb((F((n + 2) * (l + 1), n - l), _bp(l, n - l)) for l in range(n)), rhs


def _eq_2_12(pt):
    n = pt["n"]
    rhs = poly_lincomb([*((binomial(n, l) * B(l) / l, bernoulli_poly(n - l)) for l in range(1, n + 1)),
                        (F(n, 2), bernoulli_poly(n - 1)), (harmonic(n), bernoulli_poly(n))])
    return poly_lincomb((F(1, n - l), _bp(l, n - l)) for l in range(n)), rhs


def _corollary5(pt):
    n = pt["n"]
    rhs = poly_lincomb([(n, poly_mul(poly([-1, 1]), bernoulli_poly(n - 1))), (-(n - 1), bernoulli_poly(n))])
    return poly_lincomb((binomial(n, l) * B(l), bernoulli_poly(n - l)) for l in range(n + 1)), rhs


def _corollary6(pt):
    n = pt["n"]
    rhs = poly_lincomb([(F(n, 2 ** n), poly_mul(poly([-1, 2]), _at_2x(bernoulli_poly(n - 1)))),
                        (F(-(n - 1), 2 ** n), _at_2x(bernoulli_poly(n))),
                        (F(-n, 4), bernoulli_poly(n - 1))])
    return poly_lincomb((binomial(n, l) * B(l) / 2 ** l, bernoulli_poly(n - l)) for l in range(n + 1)), rhs


def _eq_2_15(pt):
    n = pt["n"]
    rhs = poly_lincomb([*((binomial(n, l) * B(l) / 2 ** l, bernoulli_poly(n - l)) for l in range(n + 1)),
                        (F(n, 4), bernoulli_poly(n - 1))])
    return poly_lincomb((F(binomial(n, l), 2 ** n), _bp(l, n - l)) for l in range(n + 1)), rhs


def _corollary7(pt):
    n = pt["n"]
    lhs = poly_lincomb((n * (harmonic(n - 1) - harmonic(l - 1)) / (l * (n - l)), _bp(l, n - l)) for l in range(1, n))
    rhs = poly_lincomb([
        *((binomial(n, l) * (harmonic(l) + F(1, l)) * B(l) / l, bernoulli_poly(n - l)) for l in range(1, n + 1)),
        (n, bernoulli_poly(n - 1)),
        (_harmonic_squares(n - 1) / 2, bernoulli_poly(n)),
    ])
    return lhs, rhs


def _eq_4_0a(pt):
    n = pt["n"]
    rhs = poly_lincomb([
        *((3 * binomial(n + 3, i) * B(j) * B(l), bernoulli_poly(i)) for i, j, l in composition_parts(n, 3)),
        *((3 * binomial(n + 3, i) * B(j), bernoulli_poly(i)) for i, j in composition_parts(n - 1, 2)),
        (binomial(n + 3, 5), bernoulli_poly(n - 2)),
    ])
    return poly_lincomb((n + 3, _bp(*parts)) for parts in composition_parts(n, 3)), rhs


def _kth_matiyasevich(pt):
    n, k = pt["n"], pt["k"]
    rhs = _sum(binomial(k, j) * binomial(n + k, parts[0]) * prod(B(l) for l in parts)
               for j in range(1, min(k, n + 1) + 1) for parts in composition_parts(n + 1 - j, k - j + 1))
    return _sum(prod(B(l) for l in parts) for parts in composition_parts(n, k)), rhs / (n + k)


def _eq_6_9(pt):
    n, eps = pt["n"], pt["epsilon"]
    lhs = poly_lincomb((pochhammer(eps, i) * pochhammer(eps, j) * pochhammer(eps, l) / pochhammer(3 * eps, n)
                        / (factorial(i) * factorial(j) * factorial(l)), _bp(i, j, l))
                       for i, j, l in composition_parts(n, 3))
    rhs = poly_lincomb([
        *((3 * eps * pochhammer(eps, j) * pochhammer(eps, l) / pochhammer(3 * eps, j + l + 1)
           * B(j) * B(l) / (factorial(i) * factorial(j) * factorial(l)), bernoulli_poly(i))
          for i, j, l in composition_parts(n, 3)),
        *((3 * eps * eps * pochhammer(eps, j) / pochhammer(3 * eps, j + 2) * B(j) / (factorial(i) * factorial(j)),
           bernoulli_poly(i)) for i, j in composition_parts(n - 1, 2)),
        (eps ** 3 / pochhammer(3 * eps, 3) / factorial(n - 2), bernoulli_poly(n - 2)),
    ])
    return lhs, rhs


def _corollary8(pt):
    n = pt["n"]
    rhs = poly_lincomb([
        *((multinomial(n, (i, j, l)) * F(3) ** i * B(j) * B(l), bernoulli_poly(i))
          for i, j, l in composition_parts(n, 3)),
        *((n * binomial(n - 1, i) * F(3) ** i * B(n - 1 - i), bernoulli_poly(i)) for i in range(n)),
        (n * (n - 1) * F(3) ** (n - 3), bernoulli_poly(n - 2)),
    ])
    return poly_lincomb((multinomial(n, parts), _bp(*parts)) for parts in composition_parts(n, 3)), rhs


def _corollary9(pt):
    n = pt["n"]
    h1, h2 = harmonic, harmonic_second
    cubes = [(i, B(i) / i * B(j) / j * B(l) / l) for i, j, l in _inner(n, 3)]
    s2 = _sum(binomial(n - 1, i - 1) * term for i, term in cubes)
    s3 = _sum(binomial(n - 1, l + 1) * B(l) / l * B(n - l - 1) / (n - l - 1) for l in range(1, n - 1))
    s4 = _sum((3 * h1(n - 1) - 2 * h1(l - 1) + F(1, n)) * B(l) / l * B(n - l) / (n - l) for l in range(1, n))
    s5 = _sum(binomial(n - 1, l - 1) * (2 * h1(l) + F(1, l)) * B(l) / l * B(n - l) / l for l in range(1, n))
    rhs = (s2 + s3 + s4 - 2 * s5 + F(n - 1, 6) * B(n - 2) + (F(1, (n - 1) * n) - 3) * B(n - 1)
           - 2 * (F(2, n) * h1(n - 1) + h1(n - 1) ** 2 + 2 * h2(n - 1) + F(3, n * n)) * B(n) / n)
    return _sum(term for _, term in cubes) / 3, rhs


def _corollary10_first(pt):
    # the constant term is the term l = n of the sum
    n = pt["n"]
    rhs = poly_lincomb([
        *((4 * binomial(n - 2, l - 1) * F(1, l * (n - l)) * harmonic(l - 1) * E(l), bernoulli_poly(n - l))
          for l in range(1, n)),
        (4 * harmonic(n - 1) * E(n) / (n * (n - 1)), ONE),
        (2 * harmonic(n - 2) / (n - 1), euler_poly(n - 1)),
    ])
    return poly_lincomb((F(1, l * (n - l - 1)), _ep(l, n - l - 1)) for l in range(1, n - 1)), rhs


def _corollary10_second(pt):
    # the constant term is the term l = n + 1 of the sum
    n = pt["n"]
    h = _harmonic_squares
    lhs = poly_lincomb(((harmonic(n - 1) - harmonic(l - 1)) / (l * (n - l)), _ep(l, n - l)) for l in range(1, n))
    rhs = poly_lincomb([
        (h(n - 1) / (2 * n), euler_poly(n)),
        *((binomial(n - 1, l - 1) * F(1, l * (n + 1 - l)) * h(l - 1) * E(l), bernoulli_poly(n + 1 - l))
          for l in range(1, n + 1)),
        (h(n) * E(n + 1) / (n * (n + 1)), ONE),
    ])
    return lhs, rhs


def _corollary11_first(pt):
    n = pt["n"]
    rhs = poly_lincomb([*((binomial(n - 1, i) * E(j) / j * E(l) / l, euler_poly(i)) for i, j, l in _inner(n, 3)),
                        (2 * harmonic(n - 1) / n, euler_poly(n))])
    return poly_lincomb((F(1, l * (n - l)), _centred(l, n - l)) for l in range(1, n)), rhs


def _corollary11_second(pt):
    n = pt["n"]
    rhs = poly_lincomb([
        (-2 * (harmonic(n - 1) ** 2 + 2 * harmonic_second(n - 1)) / n, euler_poly(n)),
        *((binomial(n - 1, i) * (harmonic(j - 1) + harmonic(l - 1) - 3 * harmonic(j + l - 1)) * E(j) * E(l) / (j * l),
           euler_poly(i)) for i, j, l in _inner(n, 3)),
        *(((3 * harmonic(n - 1) - harmonic(l - 1) - harmonic(n - l - 1)) / (l * (n - l)), _centred(l, n - l))
          for l in range(1, n)),
    ])
    return poly_lincomb((F(1, 3 * i * j * l), _ep(i, j, l)) for i, j, l in _inner(n, 3)), rhs


def _ds_lhs(n, p):
    c = [F(0), *(pochhammer(p + 1, 2 * m - 1) / factorial(2 * m - 1) * B(2 * m) / (2 * m) for m in range(1, n))]
    return _sum(c[l] * c[n - l] for l in range(1, n))


def _ds_cross(n, p):
    return 2 * pochhammer(2 * p + 1, 2 * n - 1) / factorial(2 * n) * _sum(
        binomial(2 * n, 2 * l) * pochhammer(p + 1, 2 * l - 1) / pochhammer(2 * p + 1, 2 * l) * B(2 * l) * B(2 * n - 2 * l)
        for l in range(1, n + 1))


def _dunne_schubert(pt):
    n, p = pt["n"], pt["p"]
    lead = _sum(pochhammer(p + 1, l - 1) / pochhammer(2 * p + 1, l) for l in range(1, 2 * n))
    return _ds_lhs(n, p), 2 * B(2 * n) / factorial(2 * n) * pochhammer(2 * p + 1, 2 * n - 1) * lead + _ds_cross(n, p)


def _eq_7_2(pt):
    n, p = pt["n"], pt["p"]
    return (_ds_lhs(n, p), (pochhammer(2 * p, 2 * n) - 2 * pochhammer(p, 2 * n)) * B(2 * n) / (p * p * factorial(2 * n))
            + _ds_cross(n, p))


def _gamma_sum(pt):
    n, p = pt["n"], pt["p"]
    return (_sum(pochhammer(p, l) / pochhammer(2 * p + 1, l) for l in range(1, 2 * n)),
            1 - pochhammer(p, 2 * n) / (p * pochhammer(2 * p + 1, 2 * n - 1)))


STATEMENTS = {
    ("euler-1-2", ""): _euler_1_2,
    ("miki", ""): _miki,
    ("matiyasevich", ""): _matiyasevich,
    ("theorem1", ""): _theorem1,
    ("corollary1", ""): _corollary1,
    ("corollary2", ""): _corollary2,
    ("corollary3", ""): _corollary3,
    ("corollary4", "a=1"): _corollary4_first,
    ("corollary4", "a=2"): _corollary4_second,
    ("eq-2-12", ""): _eq_2_12,
    ("corollary5", ""): _corollary5,
    ("corollary6", ""): _corollary6,
    ("eq-2-15", ""): _eq_2_15,
    ("corollary7", ""): _corollary7,
    ("theorem2", ""): _theorem2,
    ("eq-4-0a", ""): _eq_4_0a,
    ("kth-matiyasevich", ""): _kth_matiyasevich,
    ("theorem3", ""): _theorem3,
    ("theorem4", ""): _theorem4,
    ("eq-6-9", ""): _eq_6_9,
    ("corollary8", ""): _corollary8,
    ("corollary9", ""): _corollary9,
    ("corollary10", "first"): _corollary10_first,
    ("corollary10", "second"): _corollary10_second,
    ("corollary11", "first"): _corollary11_first,
    ("corollary11", "second"): _corollary11_second,
    ("dunne-schubert", ""): _dunne_schubert,
    ("eq-7-2", ""): _eq_7_2,
    ("gamma-sum", ""): _gamma_sum,
}
