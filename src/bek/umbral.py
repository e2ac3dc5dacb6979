"""Formal moment-symbol calculus with difference operators.

An expression is a finite rational combination of monomials x^e * S_1^{e_1}
* ... * S_m^{e_m} in the formal variable x and moment symbols S_i.  Each
symbol kind carries a prescribed moment sequence; evaluation replaces every
symbol power by its moment, multiplicatively across distinct (independent)
symbols, and returns an exact polynomial in x.  The moments are

    bernoulli^n         -> B_n
    euler^n             -> E_n(0)
    uniform-continuous^n -> 1/(n+1)
    uniform-discrete^n  -> 1 for n = 0, else 1/2

The verifiers of the symbol lemmas do not expand: `umbral_moment_eval`
evaluates f(a x + sum_i c_i S_i) straight from the moment sequences, since
the moments of a sum of independent symbols are the binomial convolution
of their scaled moments.  The expansion (`umbral_pow`, `umbral_substitute`,
`umbral_eval`), one distinct slot at a time by the binomial theorem, stays
as the independent oracle the tests compare against.

On top of the expressions sit the forward difference f -> f(x+u) - f(x)
and the two-point mean f -> (f(x) + f(x+u))/2, both applied by the
kernel's `poly_shift_operator`, and verifiers for the subset expansions
these operators and symbols satisfy.  Each family is stated once: one
kernel `shift_subset_sum` is the right side of lemmas 1 and 3, every
subset's operator image weighted by its size, and one `subset_series` of
moment egfs (`_symbol_subset_sum`) the right side of lemma 4 and of the
expansion for an arbitrary f, lemma 2's at x^n/n!.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from numbers import Integral, Rational
from typing import Mapping, Sequence

from .exactmath import (
    GrowingTables,
    Poly,
    ZERO,
    as_exact,
    int_form,
    poly,
    poly_shift_operator,
    series_form,
    shift_subset_sum,
    subset_series,
)
from .sequences import bernoulli_number, euler_poly_at_zero


class SymbolKind(Enum):
    BERNOULLI = "bernoulli"
    EULER = "euler"
    UNIFORM_CONTINUOUS = "uniform-continuous"
    UNIFORM_DISCRETE = "uniform-discrete"


@dataclass(frozen=True)
class SymbolId:
    """A moment symbol; distinct (kind, index) pairs are independent."""

    kind: SymbolKind
    index: int = 0


class _FormalVariable:
    """Singleton marker for the polynomial variable x in affine forms."""

    _instance: "_FormalVariable | None" = None

    def __new__(cls) -> "_FormalVariable":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "x"


X = _FormalVariable()


def bernoulli_symbol(index: int = 0) -> SymbolId:
    return SymbolId(SymbolKind.BERNOULLI, index)


def euler_symbol(index: int = 0) -> SymbolId:
    return SymbolId(SymbolKind.EULER, index)


def uniform_symbol(index: int = 0) -> SymbolId:
    return SymbolId(SymbolKind.UNIFORM_CONTINUOUS, index)


def discrete_symbol(index: int = 0) -> SymbolId:
    return SymbolId(SymbolKind.UNIFORM_DISCRETE, index)


def _sym_key(s: SymbolId) -> tuple[str, int]:
    return (s.kind.value, s.index)


# Monomial key: (exponent of x, symbol powers sorted by canonical symbol order).
Monomial = tuple[int, tuple[tuple[SymbolId, int], ...]]

AffineTerm = tuple[Fraction | int, "SymbolId | _FormalVariable"]


def _merge_sym_pows(
    a: tuple[tuple[SymbolId, int], ...], b: tuple[tuple[SymbolId, int], ...]
) -> tuple[tuple[SymbolId, int], ...]:
    if not a:
        return b
    if not b:
        return a
    merged: dict[SymbolId, int] = dict(a)
    for sid, e in b:
        merged[sid] = merged.get(sid, 0) + e
    return tuple(sorted(merged.items(), key=lambda it: _sym_key(it[0])))


@dataclass(frozen=True, eq=False)
class UmbralExpr:
    """A rational combination of x-and-symbol monomials; no zero terms stored."""

    terms: Mapping[Monomial, Fraction]

    @staticmethod
    def zero() -> "UmbralExpr":
        return UmbralExpr({})

    @staticmethod
    def constant(c: Fraction | int) -> "UmbralExpr":
        c = Fraction(c)
        return UmbralExpr({} if c == 0 else {(0, ()): c})

    def __add__(self, other: "UmbralExpr") -> "UmbralExpr":
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return UmbralExpr(out)

    def __mul__(self, other: "UmbralExpr | Fraction | int") -> "UmbralExpr":
        if isinstance(other, UmbralExpr):
            out: dict[Monomial, Fraction] = {}
            for (xa, sa), ca in self.terms.items():
                for (xb, sb), cb in other.terms.items():
                    mono = (xa + xb, _merge_sym_pows(sa, sb))
                    s = out.get(mono, Fraction(0)) + ca * cb
                    if s:
                        out[mono] = s
                    else:
                        out.pop(mono, None)
            return UmbralExpr(out)
        c = Fraction(other)
        if c == 0:
            return UmbralExpr({})
        return UmbralExpr({m: c * v for m, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UmbralExpr):
            return NotImplemented
        return dict(self.terms) == dict(other.terms)


def _merge_affine(affine: Sequence[AffineTerm]) -> tuple[Fraction, dict[SymbolId, Fraction]]:
    """The coefficient of X and the non-zero coefficient of each distinct
    symbol, with repeated terms added up; each coefficient must be a
    rational number, and each term X or a symbol."""
    x_coeff = Fraction(0)
    sym_coeffs: dict[SymbolId, Fraction] = {}
    for c, (_, s) in zip(as_exact((c for c, _ in affine), Rational, "affine coefficient"), affine):
        if s is X:
            x_coeff += c
        elif isinstance(s, SymbolId):
            sym_coeffs[s] = sym_coeffs.get(s, Fraction(0)) + c
        else:
            raise ValueError(f"affine term {s!r} is neither X nor a SymbolId")
    return x_coeff, {sid: c for sid, c in sym_coeffs.items() if c}


def _monomial(m: int, c: Fraction | int = 1) -> Poly:
    """The polynomial c x^m."""
    return poly([0] * m + [c])


def _expand_slot(powers: Sequence[Mapping[Monomial, Fraction]], c: Fraction, sid: SymbolId, j: int,
                 scale: Fraction | int = 1) -> dict[Monomial, Fraction]:
    """The terms of scale (P + c S)^j for the symbol S = sid, given the
    powers P^i as powers[i], by the binomial theorem:
    sum_e C(j, e) c^e S^e P^(j-e).  S sorts after every symbol in P."""
    out = {}
    c_e = scale
    for e in range(j + 1):
        coeff = comb(j, e) * c_e
        for (x_exp, sym_pows), v in powers[j - e].items():
            out[x_exp, (*sym_pows, (sid, e)) if e else sym_pows] = coeff * v
        c_e *= c
    return out


def umbral_substitute(f: Poly, affine: Sequence[AffineTerm]) -> UmbralExpr:
    """f evaluated at an affine symbol combination: sum_m f_m (affine)^m.

    The affine form a x + sum_i c_i S_i is expanded one distinct slot at a
    time, x first and then the symbols in canonical order (repeated terms
    are merged up front, and a zero coefficient drops its slot).  The x
    slot gives the powers (a x)^j directly; each symbol slot multiplies
    into the partial sum P by the binomial theorem.  Every symbol slot
    but the last builds all powers of P up to deg f; the last forms only
    the powers m with f_m != 0, each scaled by f_m.  A power of P is
    homogeneous of its degree, so no two terms share a monomial and
    nothing cancels.
    """
    x_coeff, sym_coeffs = _merge_affine(affine)
    sids = sorted(sym_coeffs, key=_sym_key)
    if not sids:
        return UmbralExpr({(m, ()): v for m, c in enumerate(f) if c and (v := c * x_coeff**m)})
    powers = [{(j, ()): v} if (v := x_coeff**j) else {} for j in range(len(f))]
    for sid in sids[:-1]:
        powers = [_expand_slot(powers, sym_coeffs[sid], sid, j) for j in range(len(f))]
    last = sids[-1]
    terms: dict[Monomial, Fraction] = {}
    for m, c in enumerate(f):
        if c:
            terms.update(_expand_slot(powers, sym_coeffs[last], last, m, c))
    return UmbralExpr(terms)


def umbral_pow(affine: Sequence[AffineTerm], n: int) -> UmbralExpr:
    """Full expansion of (sum_i c_i * s_i)^n: `umbral_substitute` at x^n.

    Each s_i is a SymbolId or the formal variable X.  Repeated symbols are
    merged up front (their coefficients add), so the expansion runs over
    distinct slots only.
    """
    if (n := as_exact((n,), Integral, "umbral_pow n")[0]) < 0:
        raise ValueError(f"umbral_pow requires n >= 0, got n={n}")
    return umbral_substitute(_monomial(n), affine)


_MOMENTS = {
    SymbolKind.BERNOULLI: bernoulli_number,
    SymbolKind.EULER: euler_poly_at_zero,
    SymbolKind.UNIFORM_CONTINUOUS: lambda n: Fraction(1, n + 1),
    SymbolKind.UNIFORM_DISCRETE: lambda n: Fraction(1) if n == 0 else Fraction(1, 2),
}


def umbral_eval(e: UmbralExpr) -> Poly:
    """Replace symbol powers by moments, multiplicatively across symbols.

    The formal variable stays; the result is an exact polynomial in x.
    """
    acc: dict[int, Fraction] = {}
    for (x_exp, sym_pows), coeff in e.terms.items():
        val = coeff
        for sid, exp in sym_pows:
            val *= _MOMENTS[sid.kind](exp)
            if val == 0:
                break
        if val:
            acc[x_exp] = acc.get(x_exp, Fraction(0)) + val
    if not acc:
        return ZERO
    top = max(acc)
    return poly([acc.get(i, Fraction(0)) for i in range(top + 1)])


_EGF_TABLES = GrowingTables()


@lru_cache(maxsize=4096)
def _egf_table(kind: SymbolKind, c: Fraction) -> list[Fraction]:
    """The growing coefficient table of `_moment_egf` for (kind, c); the
    cache bounds the number of tables."""
    return []


def _moment_egf(kind: SymbolKind, c: Fraction, d: int) -> Poly:
    """sum_{j<=d} c^j mu(j) t^j / j!: the exponential generating function of
    the moments mu of a symbol of this kind, scaled by c, truncated at t^d.
    One table per (kind, c) holds the coefficients, so a larger d adds only
    the coefficients above the largest d asked before."""
    if d < 0:
        return ZERO
    table, moment = _egf_table(kind, c), _MOMENTS[kind]
    _EGF_TABLES._entry("moment egf", table, d, lambda j: c**j * moment(j) / factorial(j))
    return poly(table[: d + 1])


def umbral_moment_eval(f: Poly, affine: Sequence[AffineTerm]) -> Poly:
    """Moment evaluation of f at a x + sum_i c_i S_i: umbral_eval of
    umbral_substitute(f, affine), without expanding, since the moment egf of
    a sum of independent symbols is the product of their scaled ones."""
    a, sym_coeffs = _merge_affine(affine)
    return _egf_moment_eval(f, [_moment_egf(sid.kind, c, len(f) - 1) for sid, c in sym_coeffs.items()], a)


def _egf_moment_eval(f: Poly, egfs: Sequence[Poly], a: Fraction = Fraction(1)) -> Poly:
    """E[f(a x + Y)] for a Y of moment egf G(t) = sum_j M_j t^j / j! =
    prod(egfs): for d = deg f, sum_m f_m sum_i C(m, i) a^i M_{m-i} x^i, whose
    x^i coefficient a^i / i! sum_j (i+j)! f_{i+j} G_j is read off one
    truncated series product of f reversed and the egfs, on integer
    numerators.  f comes first, so the product skips its zero coefficients
    (all but one of a monomial's)."""
    if not f:
        return ZERO
    d = len(f) - 1
    f_nums, f_den = int_form(f)
    f_rev = [f_nums[m] * factorial(m) for m in range(d, -1, -1)]
    # corr[d - i] = sum_j (i+j)! f_{i+j} G_j over den: only t^0..t^d of the product are read
    corr, den = series_form([(f_rev, f_den), *(int_form(g[: d + 1]) for g in egfs)], d)
    corr += [0] * (d + 1 - len(corr))
    if not a:
        return (Fraction(corr[d], den),) if corr[d] else ZERO
    p, q = a.numerator, a.denominator
    out, scale_num, scale_den = [], 1, den
    for i in range(d + 1):
        out.append(Fraction(corr[d - i] * scale_num, scale_den))
        scale_num, scale_den = scale_num * p, scale_den * (i + 1) * q
    while out and not out[-1]:  # G_0 = 0 (lemma 4 at even k) zeroes f_d a^d G_0
        out.pop()
    return tuple(out)


class OpVariant(Enum):
    """The value of a variant is the (alpha, beta) of its single-shift
    factor alpha T_u + beta, where T_u p(x) = p(x + u)."""

    FORWARD = (1, -1)
    DISCRETE_MEAN = (Fraction(1, 2), Fraction(1, 2))


@dataclass(frozen=True)
class DifferenceOp:
    """A composition of single-shift difference or two-point-mean operators.

    The single-shift factors commute, so the order of `shifts` is
    immaterial; it is kept as given for determinism.
    """

    shifts: tuple[Fraction, ...]
    variant: OpVariant


def forward_difference(*shifts: Fraction | int) -> DifferenceOp:
    return DifferenceOp(as_exact(shifts, Rational, "forward_difference shift"), OpVariant.FORWARD)


def discrete_mean(*shifts: Fraction | int) -> DifferenceOp:
    return DifferenceOp(as_exact(shifts, Rational, "discrete_mean shift"), OpVariant.DISCRETE_MEAN)


def apply_delta(op: DifferenceOp, p: Poly) -> Poly:
    """Apply the operator composition to an exact polynomial, by the
    kernel's `poly_shift_operator` on integer numerators."""
    return poly_shift_operator(p, op.shifts, *op.variant.value)


def _checked(name: str, k: int, values: Sequence, *n: int, weights: bool = True) -> list[Fraction]:
    """The shifts or weights of verifier `name` as Fractions, once they pass
    its checks: an integer k >= 1 and k rational values, an integer n >= 0
    if one is given, and weights summing to 1.  Each value is checked as a
    number before it is compared."""
    if (k := as_exact((k,), Integral, f"{name} k")[0]) < 1 or len(values) != k:
        raise ValueError(f"{name} requires len({'u' if weights else 'shifts'}) == k >= 1, got k={k}")
    if any(m < 0 for m in as_exact(n, Integral, f"{name} n")):
        raise ValueError(f"{name} requires n >= 0, got n={n[0]}")
    values = list(as_exact(values, Rational, f"{name} {'weight' if weights else 'shift'}"))
    if weights and sum(values) != 1:
        raise ValueError(f"{name} requires the weights to sum to 1")
    return values


def _symbol_subset_sum(f: Poly, shifts: Sequence[Poly], drop: int, anchor: SymbolId,
                       symbols: Sequence[SymbolId], u: Sequence[Fraction]) -> Poly:
    """E[f(x + anchor + Y)], Y of egf t^-drop (prod_i (G_i + s_i) - prod_i G_i)
    and G_i the egf of u_i S_i, S_i = symbols[i]: as E[f(x + Z)] = sum_j
    [t^j] E[e^(tZ)] f^(j)(x), the sum over J != {} of E[(t^-drop prod_{i in J}
    s_i)(d/dx) f(x + anchor + sum_{i not in J} u_i S_i)].  Shifts u_i t, drop 1
    give the expansion for an arbitrary f; shifts -2, drop 0 lemma 4."""
    d = len(f) - 1
    q = subset_series([_moment_egf(s.kind, c, d) for s, c in zip(symbols, u)], shifts, d + drop)
    return _egf_moment_eval(f, (_moment_egf(anchor.kind, Fraction(1), d), q[drop:]))


def verify_lemma1(k: int, shifts: Sequence[Fraction], test_poly: Poly) -> bool:
    """Forward difference at the summed shift equals the sum over all
    non-empty shift subsets of the composed single-shift differences."""
    shifts = _checked("verify_lemma1", k, shifts, weights=False)
    lhs = apply_delta(DifferenceOp((sum(shifts),), OpVariant.FORWARD), test_poly)
    return lhs == shift_subset_sum(test_poly, shifts, *OpVariant.FORWARD.value, [0] + [1] * len(shifts))


def verify_lemma3(k: int, shifts: Sequence[Fraction], test_poly: Poly) -> bool:
    """Two-point-mean analogue of the subset expansion.

    The mean at the summed shift equals, for even k, the identity minus the
    alternating subset sum sum_j (-2)^{j-1} sum_{|J|=j} delta_J, and for odd
    k the alternating subset sum itself.
    """
    shifts = _checked("verify_lemma3", k, shifts, weights=False)
    sign = -1 if k % 2 == 0 else 1
    lhs = apply_delta(DifferenceOp((sum(shifts),), OpVariant.DISCRETE_MEAN), test_poly)
    # at even k the identity is the weight of the empty subset
    weights = [int(sign < 0)] + [sign * (-2) ** (j - 1) for j in range(1, len(shifts) + 1)]
    return lhs == shift_subset_sum(test_poly, shifts, *OpVariant.DISCRETE_MEAN.value, weights)


def verify_lemma2(k: int, u: Sequence[Fraction], n: int) -> bool:
    """Subset expansion of a weighted power of independent Bernoulli symbols.

    With weights summing to 1, (x + u_1 S_1 + ... + u_k S_k)^n / n! equals
    sum over non-empty subsets J of u_J / (n+1-|J|)! times
    (x + S_0 + sum_{i not in J} u_i S_i)^{n+1-|J|}, where S_0..S_k are
    independent Bernoulli symbols and terms with |J| > n+1 vanish.  This is
    `verify_general_f` at f(x) = x^n / n!.
    """
    return _general_f_holds(_checked("verify_lemma2", k, u, n), _monomial(n, Fraction(1, factorial(n))))


def verify_lemma4(k: int, u: Sequence[Fraction], n: int) -> bool:
    """Subset expansion of a weighted power of independent Euler symbols.

    With weights summing to 1: for even k, (n+1) (x + sum u_i T_i)^n equals
    sum_j (-2)^j sum_{|J|=j} (x + S + sum_{i not in J} u_i T_i)^{n+1} with a
    Bernoulli symbol S; for odd k, (x + sum u_i T_i)^n equals
    sum_j (-2)^{j-1} sum_{|J|=j} (x + T_0 + sum_{i not in J} u_i T_i)^n.
    Both sides are compared after exact moment evaluation.
    """
    u = _checked("verify_lemma4", k, u, n)
    symbols = [euler_symbol(i) for i in range(1, k + 1)]
    if k % 2 == 0:  # the subset weight (-2)^|J| is the shift; odd k's (-2)^-1 goes into g
        f, anchor, g = _monomial(n, n + 1), bernoulli_symbol(0), _monomial(n + 1)
    else:
        f, anchor, g = _monomial(n), euler_symbol(0), _monomial(n, Fraction(-1, 2))
    rhs = _symbol_subset_sum(g, [(Fraction(-2),)] * k, 0, anchor, symbols, u)
    return umbral_moment_eval(f, [(Fraction(1), X), *zip(u, symbols)]) == rhs


def verify_annihilation(symbol_pair: tuple[SymbolId, SymbolId], n: int) -> bool:
    """True iff the moment evaluation of (S + T)^n is identically zero.

    Holds for n >= 1 when (S, T) is a Bernoulli symbol with a continuous
    uniform symbol, or an Euler symbol with a discrete uniform symbol.
    """
    if (n := as_exact((n,), Integral, "verify_annihilation n")[0]) < 1:
        raise ValueError(f"verify_annihilation requires n >= 1, got n={n}")
    s, t = symbol_pair
    return umbral_moment_eval(_monomial(n), [(Fraction(1), s), (Fraction(1), t)]) == ZERO


def verify_general_f(k: int, u: Sequence[Fraction], f: Poly) -> bool:
    """Polynomial form of the subset expansion for an arbitrary function.

    f(x + u_1 S_1 + ... + u_k S_k) equals sum over non-empty subsets J of
    u_J f^(|J|-1)(x + S_0 + sum_{i not in J} u_i S_i), with independent
    Bernoulli symbols S_0..S_k and weights summing to 1, compared after
    exact moment evaluation.
    """
    return _general_f_holds(_checked("verify_general_f", k, u), f)


def _general_f_holds(u: list[Fraction], f: Poly) -> bool:
    """The comparison of `verify_general_f` for checked weights u, shared
    with lemma 2 so that a trace of either verifier counts its own calls."""
    symbols = [bernoulli_symbol(i) for i in range(1, len(u) + 1)]
    rhs = _symbol_subset_sum(f, [(Fraction(0), c) for c in u], 1, bernoulli_symbol(0), symbols, u)
    return umbral_moment_eval(f, [(Fraction(1), X), *zip(u, symbols)]) == rhs
