"""Unit tests for the identity registry and verification engine."""

from __future__ import annotations

import ast
import dataclasses
import inspect
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, combinations
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bek.exactmath import (
    ONE,
    ZERO,
    binomial,
    harmonic,
    harmonic_second,
    pochhammer,
    poly,
    poly_add,
    poly_lincomb,
    poly_mul,
    poly_scale,
    poly_sub,
    series_product,
    subset_series,
)
from bek import identities
from bek.identities import (
    REGISTRY,
    DomainError,
    IdentityReport,
    UnknownIdentityError,
    build_points,
    eval_corollary,
    eval_dunne_schubert,
    eval_eq72,
    eval_theorem1,
    eval_theorem2,
    eval_theorem3,
    eval_theorem4,
    gamma_sum_identity,
    point_text,
    verify,
)
from bek.sequences import bernoulli_number, bernoulli_poly, euler_poly, euler_poly_at_zero
from walks import composition_parts, multinomial

F = Fraction

EXPECTED_NAMES = [
    "euler-1-2", "miki", "matiyasevich", "theorem1", "corollary1", "corollary2",
    "corollary3", "corollary4", "eq-2-12", "corollary5", "corollary6", "eq-2-15",
    "corollary7", "theorem2", "eq-4-0a", "kth-matiyasevich", "theorem3", "theorem4",
    "eq-6-9", "corollary8", "corollary9", "corollary10", "corollary11",
    "dunne-schubert", "eq-7-2", "gamma-sum",
]

# the declared domain texts of the k-fold theorems, as their messages end
THEOREM2_RULE = "violates validity: integer n >= 0, integer k >= 2, a_vec of k positive rationals"
THEOREM4_RULE = "violates validity: integer n >= 0, integer k >= 1, a_vec of k positive rationals"


class TestRegistryShape:
    def test_names_and_order(self):
        assert list(REGISTRY) == EXPECTED_NAMES

    def test_entries_are_well_formed(self):
        for entry in REGISTRY.values():
            assert entry.summary
            assert entry.validity_text
            if entry.takes_k:
                assert entry.default_ks
            ks = entry.default_ks or (None,)
            for kk in ks:
                assert entry.default_n(kk)
                assert entry.default_param_sets(kk)

    # The declaration contract: each predicate accepts its whole default grid
    # and refuses the points just outside the declared domain.  The floor and
    # step are read off the default grid, which starts at the floor.

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_predicate_accepts_the_default_grid(self, name):
        entry = REGISTRY[name]
        assert all(entry.validity(pt) for pt in build_points(entry))

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_predicate_refuses_n_outside_the_declared_range(self, name):
        entry = REGISTRY[name]
        for kk in entry.default_ks or (None,):
            ns = entry.default_n(kk)
            base = build_points(entry, n_values=ns[:1], k=kk)[0]
            assert entry.validity(base)
            bad_ns = [ns[0] - 1, float(ns[0]), str(ns[0]), None]
            if len(ns) > 1 and ns[1] - ns[0] > 1:
                bad_ns.append(ns[0] + 1)
            for bad in bad_ns:
                assert not entry.validity({**base, "n": bad}), (name, bad)
            assert not entry.validity({key: v for key, v in base.items() if key != "n"})

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_predicate_refuses_bad_scalar_parameters(self, name):
        entry = REGISTRY[name]
        scalars = [p for p in entry.param_names if p != "a_vec"]
        for kk in entry.default_ks or (None,):
            base = build_points(entry, k=kk)[0]
            for key in scalars:
                missing = {k: v for k, v in base.items() if k != key}
                assert not entry.validity(missing), (name, key)
                for bad in (0, F(0), -1, F(-1), 0.5, 1.0):
                    assert not entry.validity({**base, key: bad}), (name, key, bad)

    @pytest.mark.parametrize("name", [n for n in EXPECTED_NAMES if REGISTRY[n].takes_k])
    def test_predicate_refuses_bad_k_and_a_vec(self, name):
        entry = REGISTRY[name]
        k_min = min(entry.default_ks)
        takes_vec = "a_vec" in entry.param_names
        low = {"n": 2, "k": k_min - 1}
        if takes_vec:
            low["a_vec"] = (F(1),) * (k_min - 1)
        assert not entry.validity(low)
        for kk in entry.default_ks:
            base = build_points(entry, k=kk)[0]
            assert not entry.validity({key: v for key, v in base.items() if key != "k"})
            assert not entry.validity({**base, "k": float(kk)})
            if takes_vec:
                vec = base["a_vec"]
                for wrong in (vec + (F(1),), vec[:-1]):
                    assert not entry.validity({**base, "a_vec": wrong}), (name, kk, wrong)
                assert not entry.validity({**base, "a_vec": list(vec)})
                assert not entry.validity({**base, "a_vec": vec[:-1] + (F(0),)})
                assert not entry.validity({**base, "a_vec": vec[:-1] + (0.5,)})


class TestBoolInputs:
    """bool is an int subclass, but True and False are never a degree, a k,
    a parameter or an a_vec entry."""

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_predicate_refuses_bools(self, name):
        entry = REGISTRY[name]
        for kk in entry.default_ks or (None,):
            base = build_points(entry, k=kk)[0]
            keys = ["n", *(["k"] if entry.takes_k else []), *(p for p in entry.param_names if p != "a_vec")]
            for key in keys:
                for flag in (True, False):
                    assert not entry.validity({**base, key: flag}), (name, key, flag)
            if "a_vec" in entry.param_names:
                assert not entry.validity({**base, "a_vec": base["a_vec"][:-1] + (True,)})
                assert not entry.validity({**base, "a_vec": (True,) * kk})

    def test_verify_refuses_a_bool_point(self):
        with pytest.raises(DomainError, match="violates validity"):
            verify("theorem1", points=[{"n": True, "a": True, "b": F(1)}])
        assert verify("theorem1", points=[{"n": 1, "a": 1, "b": F(1)}])[0].passed

    @pytest.mark.parametrize("call, message", [
        (lambda: eval_theorem1(True, F(1), F(1)),
         "theorem1: n=True a=1 b=1 violates validity: integer n >= 1 with rational a > 0 and b > 0"),
        (lambda: eval_theorem2(True, (F(1), F(1))),
         f"theorem2: n=True k=2 a_vec=1,1 {THEOREM2_RULE}"),
        (lambda: eval_theorem3(True, F(1), F(1)),
         "theorem3: n=True a=1 b=1 violates validity: integer n >= 1 with rational a > 0 and b > 0"),
        (lambda: eval_theorem4(True, (F(2),)),
         f"theorem4: n=True k=1 a_vec=2 {THEOREM4_RULE}"),
        (lambda: eval_theorem4(False, (F(2),)),
         f"theorem4: n=False k=1 a_vec=2 {THEOREM4_RULE}"),
        (lambda: eval_dunne_schubert(True, F(1)),
         "dunne-schubert: n=True p=1 violates validity: integer n >= 2 with rational p > 0"),
        (lambda: eval_eq72(True, F(1)), "eq-7-2: n=True p=1 violates validity: integer n >= 2 with rational p > 0"),
        (lambda: gamma_sum_identity(True, F(1)),
         "gamma-sum: n=True p=1 violates validity: integer n >= 1 with rational p > 0"),
    ])
    def test_public_evaluators_refuse_a_bool_n(self, call, message):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message


class TestFrozenValues:
    def test_theorem1_degree_one(self):
        lhs, rhs = eval_theorem1(1, F(1), F(1))
        assert lhs == rhs == poly([F(-1, 2), 1])

    def test_corollary5_degree_one(self):
        lhs, rhs = eval_corollary("corollary5", 1)
        assert lhs == rhs == poly([-1, 1])

    def test_miki_n4(self):
        (report,) = verify("miki", points=[{"n": 4}])
        assert report.passed
        assert report.lhs == report.rhs == poly([F(-5, 144)])

    def test_matiyasevich_n4(self):
        (report,) = verify("matiyasevich", points=[{"n": 4}])
        assert report.passed
        assert report.lhs == poly([F(-2, 3)])

    def test_corollary9_n4(self):
        lhs, rhs = eval_corollary("corollary9", 4)
        assert lhs == rhs == poly([F(1, 48)])

    def test_dunne_schubert_normalized_values(self):
        assert eval_dunne_schubert(2, F(1)) == (F(1, 36), F(1, 36))
        lhs, rhs = eval_eq72(3, F(1, 2))
        assert lhs == rhs == F(-7, 1536)

    def test_gamma_sum_values(self):
        assert gamma_sum_identity(1, F(1)) == (F(1, 3), F(1, 3))
        assert gamma_sum_identity(2, F(1)) == (F(3, 5), F(3, 5))


class TestDomains:
    def test_theorem1_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            eval_theorem1(0, F(1), F(1))
        with pytest.raises(DomainError):
            eval_theorem1(3, F(0), F(1))
        with pytest.raises(DomainError):
            eval_theorem1(3, F(1), F(-2))

    def test_theorem2_rejects_mismatched_k(self):
        with pytest.raises(DomainError):
            eval_theorem2(3, (F(1), F(1)), k=3)
        with pytest.raises(DomainError):
            eval_theorem2(3, (F(1),))
        with pytest.raises(DomainError):
            eval_theorem2(-1, (F(1), F(1)))

    def test_theorem4_accepts_k1_rejects_k0(self):
        lhs, rhs = eval_theorem4(5, (F(2),))
        assert lhs == rhs
        with pytest.raises(DomainError):
            eval_theorem4(5, ())

    def test_corollary2_floor_documented(self):
        # the even-degree number identity genuinely fails at n=2, hence the
        # validity floor: sides are 7/3 against 13/3
        n = 2
        lhs = (n + 2) * sum(
            bernoulli_number(l) * bernoulli_number(n - l) for l in range(n + 1)
        )
        rhs = 2 * sum(
            binomial(n + 2, l + 2) * bernoulli_number(l) * bernoulli_number(n - l)
            for l in range(n + 1)
        )
        assert lhs == F(7, 3) and rhs == F(13, 3) and lhs != rhs
        with pytest.raises(DomainError):
            verify("corollary2", points=[{"n": 2}])

    def test_validity_error_names_predicate(self):
        with pytest.raises(DomainError, match="even n >= 4"):
            verify("corollary2", points=[{"n": 3}])

    def test_unknown_identity_lists_names(self):
        with pytest.raises(UnknownIdentityError, match="gamma-sum"):
            verify("not-a-thing")

    def test_eval_corollary_requires_params(self):
        with pytest.raises(DomainError):
            eval_corollary("theorem1", 3)
        with pytest.raises(DomainError):
            eval_corollary("eq-6-9", 3)

    @pytest.mark.parametrize("name, n, params, build, message", [
        ("theorem1", 3, {"a": 1, "b": 1, "c": 5}, {"params": {"a": F(1), "b": F(1), "c": F(5)}},
         "theorem1 does not take parameter(s) c; allowed: a, b"),
        ("miki", 5, {"k": 3}, {"k": 3}, "miki does not take k"),
    ])
    def test_eval_corollary_refuses_what_build_points_refuses(self, name, n, params, build, message):
        for call in (lambda: eval_corollary(name, n, params), lambda: build_points(REGISTRY[name], **build)):
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == message


class TestDisplays:
    def test_corollary4_displays_differ(self):
        first = eval_corollary("corollary4", 5, {"display": "a=1"})
        second = eval_corollary("corollary4", 5, {"display": "a=2"})
        assert first[0] == first[1]
        assert second[0] == second[1]
        assert first[0] != second[0]

    def test_corollary10_display_labels(self):
        reports = verify("corollary10", points=[{"n": 4}])
        assert [r.inputs["display"] for r in reports] == ["first", "second"]

    def test_default_display_is_first(self):
        assert eval_corollary("corollary11", 4) == eval_corollary("corollary11", 4, {"display": "first"})

    def test_unknown_display_rejected(self):
        with pytest.raises(DomainError):
            eval_corollary("corollary4", 5, {"display": "third"})


class TestCrossChecks:
    def test_theorem2_k2_matches_theorem1(self):
        for n in range(1, 9):
            for a, b in [(F(1), F(1)), (F(1, 2), F(3, 2))]:
                assert eval_theorem2(n, (a, b)) == eval_theorem1(n, a, b)

    def test_theorem4_k2_matches_theorem3(self):
        for n in range(1, 9):
            for a, b in [(F(1), F(1)), (F(2), F(1, 2))]:
                assert eval_theorem4(n, (a, b)) == eval_theorem3(n, a, b)

    def test_theorem4_k1_sides_identical(self):
        for n in range(0, 9):
            lhs, rhs = eval_theorem4(n, (F(7, 3),))
            assert lhs == rhs

    def test_corollary3_at_one_degenerates_to_harmonic_form(self):
        for n in range(1, 11):
            assert eval_corollary("corollary3", n, {"a": F(1)}) == eval_corollary("eq-2-12", n)

    def test_theorem3_unit_parameters_match_scaled_display(self):
        # (n+1)(n+2) times the unit-parameter pair convolution equals the
        # unweighted display with leading coefficient 4(n+2)
        from bek.exactmath import poly_add, poly_mul
        from bek.sequences import euler_poly

        for n in range(1, 9):
            lhs, rhs = eval_theorem3(n, F(1), F(1))
            scale = (n + 1) * (n + 2)
            disp_lhs = ZERO
            for l in range(n + 1):
                disp_lhs = poly_add(disp_lhs, poly_mul(euler_poly(l), euler_poly(n - l)))
            disp_lhs = poly_scale(F(n + 2), disp_lhs)
            disp_rhs = poly_scale(F(4 * (n + 2)), bernoulli_poly(n + 1))
            for l in range(n + 2):
                disp_rhs = poly_add(
                    disp_rhs,
                    poly_scale(
                        F(-4 * binomial(n + 2, l)) * euler_poly_at_zero(n + 1 - l),
                        bernoulli_poly(l),
                    ),
                )
            assert poly_scale(scale, lhs) == disp_lhs
            assert poly_scale(scale, rhs) == disp_rhs


class TestVerifyEngine:
    def test_reports_carry_inputs_and_timing(self):
        reports = verify("theorem1", points=[{"n": 2, "a": F(2), "b": F(1)}])
        assert len(reports) == 1
        r = reports[0]
        assert r.identity == "theorem1"
        assert r.inputs == {"n": 2, "a": F(2), "b": F(1)}
        assert r.status == "pass" and r.passed
        assert r.difference == ZERO
        assert r.elapsed >= 0.0

    def test_build_points_defaults(self):
        entry = REGISTRY["theorem1"]
        points = build_points(entry)
        assert len(points) == 30 * 4
        assert points[0] == {"n": 1, "a": F(1), "b": F(1)}

    def test_build_points_overrides(self):
        entry = REGISTRY["theorem1"]
        points = build_points(entry, n_values=(3, 4), params={"a": F(5), "b": F(1)})
        assert points == [
            {"n": 3, "a": F(5), "b": F(1)},
            {"n": 4, "a": F(5), "b": F(1)},
        ]

    def test_build_points_infers_k_from_a_vec(self):
        entry = REGISTRY["theorem2"]
        points = build_points(entry, n_values=(2,), params={"a_vec": (F(1), F(2), F(3))})
        assert points == [{"n": 2, "k": 3, "a_vec": (F(1), F(2), F(3))}]

    def test_build_points_k_defaults_per_k(self):
        entry = REGISTRY["theorem2"]
        points = build_points(entry, k=4)
        assert all(pt["k"] == 4 and len(pt["a_vec"]) == 4 for pt in points)
        assert {pt["n"] for pt in points} == set(range(0, 11))

    def test_build_points_rejects_unknown_param(self):
        with pytest.raises(DomainError):
            build_points(REGISTRY["theorem1"], params={"q": F(1)})

    def test_build_points_rejects_k_on_plain_entry(self):
        with pytest.raises(DomainError):
            build_points(REGISTRY["miki"], k=2)

    def test_registry_override_is_honoured(self):
        broken_rhs_entry = dataclasses.replace(
            REGISTRY["gamma-sum"],
            evaluate=lambda pt: [("", poly([F(1)]), poly([F(2)]))],
        )
        registry = dict(REGISTRY)
        registry["gamma-sum"] = broken_rhs_entry
        reports = verify("gamma-sum", points=[{"n": 1, "p": F(1)}], registry=registry)
        assert reports[0].status == "fail"
        assert reports[0].difference == poly([-1])
        # the shared registry is untouched
        assert verify("gamma-sum", points=[{"n": 1, "p": F(1)}])[0].passed

    def test_point_text_ordering(self):
        text = point_text({"a_vec": (F(1), F(1, 2)), "n": 3, "k": 2})
        assert text == "n=3 k=2 a_vec=1,1/2"
        # a refused point renders as given: a float stays a float, and only
        # an a_vec is joined
        assert point_text({"n": 2, "a": [1], "a_vec": (0.1, None)}) == "n=2 a=[1] a_vec=0.1,None"


class TestSmallGridSweep:
    """One cheap in-domain point per entry; the full grids run in acceptance."""

    CHEAP_POINTS = {
        "euler-1-2": {"n": 7},
        "miki": {"n": 6},
        "matiyasevich": {"n": 6},
        "theorem1": {"n": 4, "a": F(7, 3), "b": F(5, 4)},
        "corollary1": {"n": 5},
        "corollary2": {"n": 8},
        "corollary3": {"n": 4, "a": F(3, 2)},
        "corollary4": {"n": 5},
        "eq-2-12": {"n": 5},
        "corollary5": {"n": 5},
        "corollary6": {"n": 5},
        "eq-2-15": {"n": 5},
        "corollary7": {"n": 5},
        "theorem2": {"n": 4, "k": 3, "a_vec": (F(2), F(3, 2), F(1, 2))},
        "eq-4-0a": {"n": 5},
        "kth-matiyasevich": {"n": 6, "k": 3},
        "theorem3": {"n": 4, "a": F(7, 3), "b": F(5, 4)},
        "theorem4": {"n": 4, "k": 3, "a_vec": (F(1), F(2), F(1, 2))},
        "eq-6-9": {"n": 4, "epsilon": F(3)},
        "corollary8": {"n": 6},
        "corollary9": {"n": 9},
        "corollary10": {"n": 6},
        "corollary11": {"n": 6},
        "dunne-schubert": {"n": 3, "p": F(7, 3)},
        "eq-7-2": {"n": 3, "p": F(7, 3)},
        "gamma-sum": {"n": 4, "p": F(1, 2)},
    }

    def test_every_entry_has_a_cheap_point(self):
        assert set(self.CHEAP_POINTS) == set(REGISTRY)

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_entry_passes_on_cheap_point(self, name):
        reports = verify(name, points=[self.CHEAP_POINTS[name]])
        assert reports and all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# The composition-enumerating sums that the generating-function
# evaluation replaced (right sides, and both sides of kth-matiyasevich),
# kept as the reference it is compared against.
# ---------------------------------------------------------------------------


def _theorem2_rhs_reference(n, a_vec):
    k = len(a_vec)
    total = sum(a_vec)

    def rhs_terms():
        for j in range(1, min(k, n + 1) + 1):
            prefactor = F(factorial(n), factorial(n + 1 - j))
            for subset in combinations(range(k), j):
                a_j = prod(a_vec[i] for i in subset)
                complement = [a_vec[i] for i in range(k) if i not in subset]
                for parts in composition_parts(n + 1 - j, k - j + 1):
                    l0, rest = parts[0], parts[1:]
                    c = a_j * prefactor * multinomial(n + 1 - j, parts)
                    for ai, li in zip(complement, rest):
                        c *= pochhammer(ai, li) * bernoulli_number(li)
                    if c:
                        yield c / pochhammer(total, n + 1 - l0), bernoulli_poly(l0)

    return poly_lincomb(rhs_terms())


def _theorem4_rhs_reference(n, a_vec):
    k = len(a_vec)
    total = sum(a_vec)
    even = k % 2 == 0
    total_parts = (n + 1) if even else n

    def rhs_terms():
        for j in range(1, k + 1):
            for subset in combinations(range(k), j):
                complement = [a_vec[i] for i in range(k) if i not in subset]
                for parts in composition_parts(total_parts, k - j + 1):
                    l0, rest = parts[0], parts[1:]
                    c = F(multinomial(total_parts, parts))
                    for ai, li in zip(complement, rest):
                        c *= pochhammer(ai, li) * euler_poly_at_zero(li)
                    if not c:
                        continue
                    if even:
                        yield c * F(-2) ** j / (n + 1) / pochhammer(total, n + 1 - l0), bernoulli_poly(l0)
                    else:
                        yield c * F(-2) ** (j - 1) / pochhammer(total, n - l0), euler_poly(l0)

    return poly_lincomb(rhs_terms())


def _corollary8_rhs_reference(n):
    return poly_lincomb([
        *((multinomial(n, (i, j, l)) * F(3) ** i * bernoulli_number(j) * bernoulli_number(l),
           bernoulli_poly(i))
          for i, j, l in composition_parts(n, 3)),
        *((n * binomial(n - 1, i) * F(3) ** i * bernoulli_number(n - 1 - i), bernoulli_poly(i))
          for i in range(n)),
        (n * (n - 1) * F(3) ** (n - 3), bernoulli_poly(n - 2)),
    ])


def _eq_6_9_rhs_reference(n, eps):
    return poly_lincomb([
        *((3 * eps * pochhammer(eps, j) * pochhammer(eps, l) / pochhammer(3 * eps, j + l + 1)
           * bernoulli_number(j) * bernoulli_number(l) / (factorial(i) * factorial(j) * factorial(l)),
           bernoulli_poly(i))
          for i, j, l in composition_parts(n, 3)),
        *((3 * eps * eps * pochhammer(eps, j) / pochhammer(3 * eps, j + 2)
           * bernoulli_number(j) / (factorial(i) * factorial(j)),
           bernoulli_poly(i))
          for i, j in composition_parts(n - 1, 2)),
        (eps ** 3 / pochhammer(3 * eps, 3) / factorial(n - 2), bernoulli_poly(n - 2)),
    ])


def _eq_4_0a_rhs_reference(n):
    return poly_lincomb([
        *((3 * binomial(n + 3, i) * bernoulli_number(j) * bernoulli_number(l), bernoulli_poly(i))
          for i, j, l in composition_parts(n, 3)),
        *((3 * binomial(n + 3, i) * bernoulli_number(j), bernoulli_poly(i))
          for i, j in composition_parts(n - 1, 2)),
        (binomial(n + 3, 5), bernoulli_poly(n - 2)),
    ])


def _kth_matiyasevich_reference(n, k):
    lhs = sum((prod(bernoulli_number(li) for li in parts) for parts in composition_parts(n, k)), F(0))
    rhs = F(0)
    for j in range(1, min(k, n + 1) + 1):
        inner = sum((binomial(n + k, parts[0]) * prod(bernoulli_number(li) for li in parts)
                     for parts in composition_parts(n + 1 - j, k - j + 1)), F(0))
        rhs += binomial(k, j) * inner
    return lhs, rhs / (n + k)


def _corollary11_first_rhs_reference(n):
    return poly_lincomb([
        *((binomial(n - 1, i) * (euler_poly_at_zero(j) / j) * (euler_poly_at_zero(l) / l), euler_poly(i))
          for i, j, l in composition_parts(n, 3) if i >= 1 and j >= 1 and l >= 1),
        (2 * harmonic(n - 1) / F(n), euler_poly(n)),
    ])


def _centered_pair_reference(c, l, m):
    """The terms of c (E_l(x) E_m(x) - E_l(0) E_m(0)), from poly_mul."""
    return [(c, poly_mul(euler_poly(l), euler_poly(m))), (-c * euler_poly_at_zero(l) * euler_poly_at_zero(m), ONE)]


def _corollary11_second_rhs_reference(n):
    return poly_lincomb([
        (-2 * (harmonic(n - 1) ** 2 + 2 * harmonic_second(n - 1)) / F(n), euler_poly(n)),
        *((binomial(n - 1, i) * (harmonic(j - 1) + harmonic(l - 1) - 3 * harmonic(j + l - 1))
           * euler_poly_at_zero(j) * euler_poly_at_zero(l) / F(j * l), euler_poly(i))
          for i, j, l in composition_parts(n, 3) if i >= 1 and j >= 1 and l >= 1),
        *chain.from_iterable(
            _centered_pair_reference((3 * harmonic(n - 1) - harmonic(l - 1) - harmonic(n - l - 1)) / F(l * (n - l)),
                                     l, n - l)
            for l in range(1, n)),
    ])


def _corollary9_reference(n):
    h1 = harmonic
    h2 = harmonic_second
    bb = bernoulli_number
    s1 = F(0)
    s2 = F(0)
    for i, j, l in composition_parts(n, 3):
        if i < 1 or j < 1 or l < 1:
            continue
        term = (bb(i) / i) * (bb(j) / j) * (bb(l) / l)
        s1 += term
        s2 += binomial(n - 1, i - 1) * term
    s3 = F(0)
    for l in range(1, n - 1):
        s3 += binomial(n - 1, l + 1) * (bb(l) / l) * (bb(n - l - 1) / (n - l - 1))
    s4 = F(0)
    s5 = F(0)
    for l in range(1, n):
        s4 += (3 * h1(n - 1) - 2 * h1(l - 1) + F(1, n)) * (bb(l) / l) * (bb(n - l) / (n - l))
        s5 += binomial(n - 1, l - 1) * (2 * h1(l) + F(1, l)) * (bb(l) / l) * (bb(n - l) / l)
    rhs = (
        s2 + s3 + s4 - 2 * s5
        + F(n - 1, 6) * bb(n - 2)
        + (F(1, (n - 1) * n) - 3) * bb(n - 1)
        - 2 * (F(2, n) * h1(n - 1) + h1(n - 1) ** 2 + 2 * h2(n - 1) + F(3, n * n)) * bb(n) / n
    )
    return poly([F(1, 3) * s1]), poly([rhs])


positive_rationals = st.builds(F, st.integers(1, 7), st.integers(1, 7))


@st.composite
def parameter_tuples(draw, k_min):
    """k positive rationals drawn from a pool of at most k, so repeats are common."""
    k = draw(st.integers(k_min, 5))
    pool = draw(st.lists(positive_rationals, min_size=1, max_size=k))
    return tuple(draw(st.sampled_from(pool)) for _ in range(k))


class TestGeneratingFunctionRightSides:
    """The series-product right sides agree with the composition sums."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 8), parameter_tuples(2))
    def test_theorem2(self, n, a_vec):
        lhs, rhs = eval_theorem2(n, a_vec)
        assert rhs == _theorem2_rhs_reference(n, a_vec)
        assert lhs == rhs

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 8), parameter_tuples(1))
    def test_theorem4(self, n, a_vec):
        lhs, rhs = eval_theorem4(n, a_vec)
        assert rhs == _theorem4_rhs_reference(n, a_vec)
        assert lhs == rhs

    def test_corollary8_default_grid(self):
        for pt in build_points(REGISTRY["corollary8"]):
            assert eval_corollary("corollary8", pt["n"])[1] == _corollary8_rhs_reference(pt["n"])

    def test_eq_6_9_default_grid(self):
        for pt in build_points(REGISTRY["eq-6-9"]):
            n, eps = pt["n"], pt["epsilon"]
            assert eval_corollary("eq-6-9", n, {"epsilon": eps})[1] == _eq_6_9_rhs_reference(n, eps)

    def test_corollary9_default_grid(self):
        for pt in build_points(REGISTRY["corollary9"]):
            assert eval_corollary("corollary9", pt["n"]) == _corollary9_reference(pt["n"])

    def test_eq_4_0a_default_grid(self):
        for pt in build_points(REGISTRY["eq-4-0a"]):
            assert eval_corollary("eq-4-0a", pt["n"])[1] == _eq_4_0a_rhs_reference(pt["n"])

    def test_kth_matiyasevich_default_grid(self):
        for pt in build_points(REGISTRY["kth-matiyasevich"]):
            n, k = pt["n"], pt["k"]
            assert identities._kth_matiyasevich(n, k) == _kth_matiyasevich_reference(n, k), pt

    def test_corollary11_default_grid(self):
        for pt in build_points(REGISTRY["corollary11"]):
            n = pt["n"]
            assert identities._corollary11_first(n)[1] == _corollary11_first_rhs_reference(n)
            assert identities._corollary11_second(n)[1] == _corollary11_second_rhs_reference(n)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 12), st.integers(2, 6))
    def test_kth_matiyasevich(self, n, k):
        lhs, rhs = identities._kth_matiyasevich(n, k)
        assert (lhs, rhs) == _kth_matiyasevich_reference(n, k)
        assert lhs == rhs

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 40))
    def test_corollary11(self, n):
        first, second = identities._corollary11_first(n), identities._corollary11_second(n)
        assert first == (LHS_REFERENCES["corollary11", "first"](n), _corollary11_first_rhs_reference(n))
        assert second == (LHS_REFERENCES["corollary11", "second"](n), _corollary11_second_rhs_reference(n))


def _theorem2_rhs_copy(n, a_vec, drop_t_term=False):
    """The right side of eval_theorem2, with the a_i t term optionally dropped."""
    d = n + 1
    series = [poly(pochhammer(ai, l) * bernoulli_number(l) / factorial(l) for l in range(d + 1)) for ai in a_vec]
    shifted = series if drop_t_term else [poly_add(s, (F(0), ai)) for s, ai in zip(series, a_vec)]
    q = poly_sub(series_product(shifted, d), series_product(series, d))
    q += (F(0),) * (d + 1 - len(q))
    return poly_lincomb(
        (F(factorial(n), factorial(l0)) * q[d - l0] / pochhammer(sum(a_vec), d - l0), bernoulli_poly(l0))
        for l0 in range(n + 1)
    )


def _theorem4_rhs_copy(n, a_vec, shift=F(-2)):
    """The right side of eval_theorem4, with A_i - 2 replaced by A_i + shift."""
    if len(a_vec) % 2 == 0:
        d, weight, base = n + 1, F(factorial(n)), bernoulli_poly
    else:
        d, weight, base = n, F(-factorial(n), 2), euler_poly
    series = [poly(pochhammer(ai, l) * euler_poly_at_zero(l) / factorial(l) for l in range(d + 1)) for ai in a_vec]
    q = poly_sub(series_product([poly_add(s, (shift,)) for s in series], d), series_product(series, d))
    q += (F(0),) * (d + 1 - len(q))
    return poly_lincomb(
        (weight / factorial(l0) * q[d - l0] / pochhammer(sum(a_vec), d - l0), base(l0))
        for l0 in range(d + 1)
    )


class TestCorruptedSeries:
    """A corrupted series product is caught at the entry's first default
    point with n >= 2; the uncorrupted copy agrees with the real evaluator."""

    @staticmethod
    def _first_point(name):
        return next(pt for pt in build_points(REGISTRY[name]) if pt["n"] >= 2)

    def test_theorem2_without_the_t_term(self):
        pt = self._first_point("theorem2")
        lhs, rhs = eval_theorem2(pt["n"], pt["a_vec"])
        assert lhs == rhs == _theorem2_rhs_copy(pt["n"], pt["a_vec"])
        assert _theorem2_rhs_copy(pt["n"], pt["a_vec"], drop_t_term=True) != lhs

    def test_theorem4_with_a_shift_of_one(self):
        pt = self._first_point("theorem4")
        lhs, rhs = eval_theorem4(pt["n"], pt["a_vec"])
        assert lhs == rhs == _theorem4_rhs_copy(pt["n"], pt["a_vec"])
        assert _theorem4_rhs_copy(pt["n"], pt["a_vec"], shift=F(-1)) != lhs


def _without_t1(factors):
    """The factors with the t^1 coefficient of the last one dropped."""
    factors = list(factors)
    if factors and len(factors[-1]) > 1:
        factors[-1] = poly([factors[-1][0], 0, *factors[-1][2:]])
    return factors


# The kernel's two series products, each corrupted by `_without_t1`.
CORRUPTED_PRODUCTS = {
    "series_product": lambda factors, d: series_product(_without_t1(factors), d),
    "subset_series": lambda factors, shifts, d: subset_series(_without_t1(factors), shifts, d),
}


# The displays whose right side reads its sums off `series_product` or
# `subset_series`.
SERIES_DISPLAYS = [
    ("theorem2", ""), ("eq-4-0a", ""), ("kth-matiyasevich", ""), ("theorem4", ""), ("eq-6-9", ""),
    ("corollary8", ""), ("corollary9", ""), ("corollary11", "first"), ("corollary11", "second"),
]


def _first_points_from_three(name):
    """The entry's first default point with n >= 3, one for each default k."""
    entry = REGISTRY[name]
    return [next(pt for pt in build_points(entry, k=kk) if pt["n"] >= 3) for kk in entry.default_ks or (None,)]


class TestCorruptedSeriesProduct:
    """A `series_product` or `subset_series` without the t^1 coefficient of
    its last factor is caught by every display whose right side calls one."""

    def test_the_list_names_every_series_display(self, monkeypatch):
        seen = set()

        def spy(kernel):
            def call(*args):
                seen.add(current)
                return kernel(*args)
            return call

        for name in CORRUPTED_PRODUCTS:
            monkeypatch.setattr(identities, name, spy(getattr(identities, name)))
        for name, entry in REGISTRY.items():
            for label, _ in entry.displays:
                current = (name, label)
                fn, args = _display(name, label)
                for pt in _first_points_from_three(name):
                    fn(*args(pt))
        assert seen == set(SERIES_DISPLAYS)

    def test_dropped_t1_coefficient(self, monkeypatch):
        for name, corrupted in CORRUPTED_PRODUCTS.items():
            monkeypatch.setattr(identities, name, corrupted)
        survivors = []
        for name, label in SERIES_DISPLAYS:
            fn, args = _display(name, label)
            for pt in _first_points_from_three(name):
                lhs, rhs = fn(*args(pt))
                if lhs == rhs:
                    survivors.append((name, label, pt.get("k")))
        # theorem4 at k = 1 is the trivial identity: there q(t) = (A_1 - 2) -
        # A_1 is the shift alone, whatever the series A_1 is
        assert survivors == [("theorem4", "", 1)]


# ---------------------------------------------------------------------------
# The hand-written left sides that the weighted convolution `_convolution`
# replaced, kept as the reference it is compared against.  They walk the
# compositions and form their products with the module's memoized product
# tables, which no module of the package calls any more, so they share
# nothing with the series product but the polynomials B_l(x) and E_l(x).
# ---------------------------------------------------------------------------


def _B(*parts):
    return identities._bern_product(tuple(sorted(parts)))


def _E(*parts):
    return identities._euler_product(tuple(sorted(parts)))


def _pair_lhs_reference(product, n, a, b):
    return poly_lincomb(
        (binomial(n, l) * pochhammer(a, l) * pochhammer(b, n - l) / pochhammer(a + b, n), product(l, n - l))
        for l in range(n + 1)
    )


def _multinomial_lhs_reference(product, n, a_vec):
    denom = pochhammer(sum(a_vec), n)
    return poly_lincomb(
        (multinomial(n, parts) * prod(pochhammer(ai, li) for ai, li in zip(a_vec, parts)) / denom, product(*parts))
        for parts in composition_parts(n, len(a_vec))
    )


LHS_REFERENCES = {
    ("theorem1", ""): lambda n, a, b: _pair_lhs_reference(_B, n, a, b),
    ("theorem2", ""): lambda n, a_vec, k: _multinomial_lhs_reference(_B, n, a_vec),
    ("theorem3", ""): lambda n, a, b: _pair_lhs_reference(_E, n, a, b),
    ("theorem4", ""): lambda n, a_vec, k: _multinomial_lhs_reference(_E, n, a_vec),
    ("corollary1", ""): lambda n: poly_lincomb((n + 2, _B(l, n - l)) for l in range(n + 1)),
    ("corollary3", ""): lambda n, a: poly_lincomb(
        (binomial(n, l) * pochhammer(a, l) * factorial(n - l - 1) / pochhammer(a, n), _B(l, n - l))
        for l in range(n)),
    ("corollary4", "a=1"): lambda n: poly_lincomb(
        (F(n, 2 * l * (n - l)), _B(l, n - l)) for l in range(1, n)),
    ("corollary4", "a=2"): lambda n: poly_lincomb(
        (F((n + 2) * (l + 1), n - l), _B(l, n - l)) for l in range(n)),
    ("eq-2-12", ""): lambda n: poly_lincomb((F(1, n - l), _B(l, n - l)) for l in range(n)),
    ("eq-2-15", ""): lambda n: poly_lincomb((F(binomial(n, l), 2 ** n), _B(l, n - l)) for l in range(n + 1)),
    ("corollary7", ""): lambda n: poly_lincomb(
        (n * (harmonic(n - 1) - harmonic(l - 1)) / F(l * (n - l)), _B(l, n - l)) for l in range(1, n)),
    ("eq-4-0a", ""): lambda n: poly_lincomb((n + 3, _B(*parts)) for parts in composition_parts(n, 3)),
    ("eq-6-9", ""): lambda n, eps: poly_lincomb(
        (pochhammer(eps, i) * pochhammer(eps, j) * pochhammer(eps, l) / pochhammer(3 * eps, n)
         / (factorial(i) * factorial(j) * factorial(l)), _B(i, j, l))
        for i, j, l in composition_parts(n, 3)),
    ("corollary8", ""): lambda n: poly_lincomb(
        (multinomial(n, parts), _B(*parts)) for parts in composition_parts(n, 3)),
    ("corollary10", "first"): lambda n: poly_lincomb(
        (F(1, l * (n - l - 1)), _E(l, n - l - 1)) for l in range(1, n - 1)),
    ("corollary10", "second"): lambda n: poly_lincomb(
        ((harmonic(n - 1) - harmonic(l - 1)) / F(l * (n - l)), _E(l, n - l)) for l in range(1, n)),
    ("corollary11", "first"): lambda n: poly_lincomb(chain.from_iterable(
        ((F(1, l * (n - l)), _E(l, n - l)), (-euler_poly_at_zero(l) * euler_poly_at_zero(n - l) / (l * (n - l)), ONE))
        for l in range(1, n))),
    ("corollary11", "second"): lambda n: poly_lincomb(
        (F(1, 3 * i * j * l), _E(i, j, l))
        for i, j, l in composition_parts(n, 3) if i >= 1 and j >= 1 and l >= 1),
}

CONVERTED = list(LHS_REFERENCES)


def _display(name, label):
    """A display's evaluator and the arguments it takes at a grid point."""
    entry = REGISTRY[name]
    keys = entry.param_names + (("k",) if entry.takes_k else ())
    return dict(entry.displays)[label], lambda pt: [pt["n"], *(pt[key] for key in keys)]


def _points_with_terms(name, label):
    """The default points with n >= 2 whose left side is not zero: at n = 2
    the left sides of corollary10's first and corollary11's second display
    are empty sums, and no corruption of the walk can show there."""
    _, args = _display(name, label)
    return [pt for pt in build_points(REGISTRY[name])
            if pt["n"] >= 2 and LHS_REFERENCES[name, label](*args(pt)) != ZERO]


class TestConvolutionLeftSides:
    """Every declared left side equals the loop it replaced."""

    def test_eighteen_displays_are_converted(self):
        assert len(CONVERTED) == 18

    @pytest.mark.parametrize("name, label", CONVERTED)
    def test_default_grid_matches_the_reference(self, name, label):
        fn, args = _display(name, label)
        for pt in build_points(REGISTRY[name]):
            assert fn(*args(pt))[0] == LHS_REFERENCES[name, label](*args(pt)), pt

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 8), parameter_tuples(2))
    def test_theorem2(self, n, a_vec):
        assert eval_theorem2(n, a_vec)[0] == _multinomial_lhs_reference(_B, n, a_vec)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 8), parameter_tuples(1))
    def test_theorem4(self, n, a_vec):
        assert eval_theorem4(n, a_vec)[0] == _multinomial_lhs_reference(_E, n, a_vec)

    @pytest.mark.parametrize("call, message", [
        (lambda: eval_theorem2(3, (F(1), F(1)), k=3), f"theorem2: n=3 k=3 a_vec=1,1 {THEOREM2_RULE}"),
        (lambda: eval_theorem2(3, (F(1),)), f"theorem2: n=3 k=1 a_vec=1 {THEOREM2_RULE}"),
        (lambda: eval_theorem2(-1, (F(1), F(1))), f"theorem2: n=-1 k=2 a_vec=1,1 {THEOREM2_RULE}"),
        (lambda: eval_theorem2(2, (F(1), F(0))), f"theorem2: n=2 k=2 a_vec=1,0 {THEOREM2_RULE}"),
        (lambda: eval_theorem4(5, ()), f"theorem4: n=5 k=0 a_vec= {THEOREM4_RULE}"),
        (lambda: eval_theorem4(5, (F(1),), k=2), f"theorem4: n=5 k=2 a_vec=1 {THEOREM4_RULE}"),
        (lambda: eval_theorem4(F(1, 2), (F(1),)), f"theorem4: n=1/2 k=1 a_vec=1 {THEOREM4_RULE}"),
        (lambda: eval_theorem4(3, (F(1),), k=True), f"theorem4: n=3 k=True a_vec=1 {THEOREM4_RULE}"),
        (lambda: eval_theorem2(3, (F(1), F(2)), k=2.0), f"theorem2: n=3 k=2.0 a_vec=1,2 {THEOREM2_RULE}"),
    ])
    def test_k_fold_argument_messages(self, call, message):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message


@lru_cache(maxsize=None)
def _folded_product(family, parts):
    return reduce(poly_mul, map(family, parts), ONE)


def _convolution_copy(family, n, weights, scale, drop_last=False):
    """`_convolution` as a walk over the compositions, optionally without
    the last composition that contributes a term.  The last composition of
    all, (n, 0, ..., 0), has zero weight in every entry with a 1/l slot, so
    dropping it would change nothing there."""
    terms = [
        (scale * c, _folded_product(family, tuple(sorted(parts))))
        for parts in composition_parts(n, len(weights))
        if (c := prod(w[l] for w, l in zip(weights, parts)))
    ]
    return poly_lincomb(terms[:-1] if drop_last else terms)


class TestCorruptedConvolution:
    """A corrupted `_convolution` is caught by every converted display."""

    def test_the_uncorrupted_copy_agrees(self, monkeypatch):
        expected = {(name, label): _display(name, label) for name, label in CONVERTED}
        expected = {key: fn(*args(_points_with_terms(*key)[0])) for key, (fn, args) in expected.items()}
        monkeypatch.setattr(identities, "_convolution", _convolution_copy)
        for (name, label), sides in expected.items():
            fn, args = _display(name, label)
            assert fn(*args(_points_with_terms(name, label)[0])) == sides

    def test_dropped_last_composition(self, monkeypatch):
        monkeypatch.setattr(identities, "_convolution",
                            lambda family, n, weights, scale: _convolution_copy(family, n, weights, scale, True))
        survivors = []
        for name, label in CONVERTED:
            fn, args = _display(name, label)
            lhs, rhs = fn(*args(_points_with_terms(name, label)[0]))
            if lhs == rhs:
                survivors.append((name, label))
        assert survivors == []

    def test_dropped_scale(self, monkeypatch):
        # Dropping a scale of 1 changes nothing, so each display is checked
        # at its first point with terms whose scale is not 1; four displays
        # have scale 1 at every point and cannot catch this.
        real = identities._convolution
        scales = []

        def without_scale(family, n, weights, scale):
            scales.append(scale)
            return real(family, n, weights, 1)

        monkeypatch.setattr(identities, "_convolution", without_scale)
        survivors, unit_scale = [], []
        for name, label in CONVERTED:
            fn, args = _display(name, label)
            for pt in _points_with_terms(name, label):
                scales.clear()
                lhs, rhs = fn(*args(pt))
                if scales != [1]:
                    if lhs == rhs:
                        survivors.append((name, label, pt))
                    break
            else:
                unit_scale.append((name, label))
        assert survivors == []
        assert unit_scale == [("eq-2-12", ""), ("corollary10", "first"), ("corollary10", "second"),
                              ("corollary11", "first")]


PRODUCT_TABLES = {"_bern_product", "_euler_product"}
SOURCES = {path.name: path.read_text() for path in sorted(Path(identities.__file__).parent.glob("*.py"))}


def _callers(source, names):
    """The functions of a module source that call one of `names` by name or
    as an attribute ("<module>" for a call outside any function)."""
    callers = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", getattr(child.func, "attr", None)) in names:
                callers.add(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return callers


def _called_names(node):
    return {c.func.id for c in ast.walk(node) if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}


# The display whose left side is the convolution less its constant term.
CENTRED = {("corollary11", "first")}


class TestConvolutionDesign:
    """Products of Bernoulli and Euler polynomials are formed in one place,
    as one series coefficient, and no composition is walked for them."""

    @staticmethod
    def _functions():
        tree = ast.parse(SOURCES["identities.py"])
        return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    def test_no_module_calls_the_product_tables(self):
        assert {name: found for name, source in SOURCES.items() if (found := _callers(source, PRODUCT_TABLES))} == {}

    def test_the_identities_walk_no_compositions(self):
        assert _callers(SOURCES["identities.py"], {"composition_parts"}) == set()

    def test_only_the_convolution_calls_the_kernel(self):
        assert {name: found for name, source in SOURCES.items()
                if (found := _callers(source, {"convolution_coefficient"}))} == {"identities.py": {"_convolution"}}

    def test_each_converted_left_side_is_a_declaration(self):
        functions = self._functions()
        assert "_convolution" in _called_names(functions["_theorem_lhs"])
        for name, label in CONVERTED:
            fn, _ = _display(name, label)
            (assign,) = [node for node in ast.walk(functions[fn.__name__]) if isinstance(node, ast.Assign)
                         and [getattr(t, "id", None) for t in node.targets] == ["lhs"]]
            value = assign.value
            assert isinstance(value, ast.Call), name
            if (name, label) in CENTRED:
                assert value.func.id == "poly_sub", name
                value, constant = value.args
                assert not _called_names(constant) & {"_convolution", "composition_parts", *PRODUCT_TABLES}, name
            assert value.func.id in ("_convolution", "_theorem_lhs"), name
            assert not _called_names(value) & {"composition_parts", *PRODUCT_TABLES}, name

    def test_the_scan_sees_each_caller(self):
        source = (
            "X = _bern_product((1,))\n"
            "def f(n):\n    return identities._euler_product((n,))\n"
            "class C:\n    def g(self):\n        def h():\n            return _bern_product(())\n        return h\n"
            "def k(p):\n    return p(_bern_product)\n"
            "def m(n):\n    return sum(len(l) for l in composition_parts(n, 1))\n"
        )
        assert _callers(source, PRODUCT_TABLES) == {"<module>", "f", "h"}
        assert _callers(source, {"composition_parts"}) == {"m"}


class TestOneSubsetExpansion:
    """The subset expansion prod_i (A_i + s_i) - prod_i A_i is one kernel
    call, `subset_series`, in each function that reads it.  Only lemmas 1
    and 3 walk subsets: their subset sum is the statement."""

    def test_only_the_operator_expansion_walks_subsets(self):
        assert {name: found for name, source in SOURCES.items()
                if (found := _callers(source, {"_subsets"}))} == {"umbral.py": {"_operator_expansion"}}

    def test_the_three_users_call_the_kernel(self):
        assert {name: found for name, source in SOURCES.items() if (found := _callers(source, {"subset_series"}))} == {
            "identities.py": {"_subset_series_rhs", "_kth_matiyasevich"}, "umbral.py": {"_symbol_subset_sum"}}

    def test_no_second_subset_expansion_in_the_identities(self):
        imported = {alias.name for node in ast.walk(ast.parse(SOURCES["identities.py"]))
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not imported & {"poly_add", "_bernoulli_powers"}
        assert not hasattr(identities, "_bernoulli_powers")


# The public evaluators, by the registry entry whose declaration states
# their domain, with the exact signatures they keep.
PUBLIC_EVALUATORS = {
    "theorem1": (eval_theorem1, "(n: 'int', a: 'Fraction', b: 'Fraction') -> 'tuple[Poly, Poly]'"),
    "theorem2": (eval_theorem2,
                 "(n: 'int', a_vec: 'Sequence[Fraction]', k: 'int | None' = None) -> 'tuple[Poly, Poly]'"),
    "theorem3": (eval_theorem3, "(n: 'int', a: 'Fraction', b: 'Fraction') -> 'tuple[Poly, Poly]'"),
    "theorem4": (eval_theorem4,
                 "(n: 'int', a_vec: 'Sequence[Fraction]', k: 'int | None' = None) -> 'tuple[Poly, Poly]'"),
    "dunne-schubert": (eval_dunne_schubert, "(n: 'int', p: 'Fraction') -> 'tuple[Fraction, Fraction]'"),
    "eq-7-2": (eval_eq72, "(n: 'int', p: 'Fraction') -> 'tuple[Fraction, Fraction]'"),
    "gamma-sum": (gamma_sum_identity, "(n: 'int', p: 'Fraction') -> 'tuple[Fraction, Fraction]'"),
}

# ints, Fractions, zero and negative values, floats, strings, bools and None
SCALAR_INPUTS = (1, 3, F(1, 2), F(7, 3), 0, F(0), -1, F(-3, 2), 0.5, 1.0, "1/2", "2", True, False, None)
N_INPUTS = (0, 1, 2, 3, -1, F(2), 2.0, "2", True, False)
# tuples and lists, of good and bad entries, of the right and wrong lengths
A_VEC_INPUTS = ((F(1), F(1, 2)), [1, F(1, 2)], (2,), [F(3, 2)], (), (F(1), 0), (1, F(-1)), (0.5, 1),
                ("1", 1), (True, 1), [1, 2, F(1, 3)], "1,2", None,
                [None, 1], ["abc", 1], [float("nan"), 1], [float("inf"), 1])
K_INPUTS = (None, 0, 1, 2, 3, True, 2.0, "2")


# the entries whose sides are numbers
SCALAR_ENTRIES = {"dunne-schubert", "eq-7-2", "gamma-sum"}


def _outcome(call, side_type=object):
    """The sides of a call, each as a polynomial, or its DomainError; each
    side must be a side_type."""
    try:
        sides = call()
    except DomainError as exc:
        return "refused", str(exc)
    assert all(isinstance(side, side_type) for side in sides)
    return "sides", *map(identities._as_poly, sides)


class TestOneDomainRule:
    """The public evaluators check their inputs through the registry
    declaration, as `eval_corollary` and `verify` do: one helper raises the
    "violates validity" error, and the evaluators convert nothing themselves."""

    @staticmethod
    def _cases(name):
        """(n, the evaluator's arguments, the same as `eval_corollary`
        params) over the inputs above; a scalar value goes into every
        parameter, and into the first with the others good."""
        entry = REGISTRY[name]
        if "a_vec" in entry.param_names:
            for n in (0, 2, -1, True, 2.0):
                for a_vec in A_VEC_INPUTS:
                    for k in K_INPUTS:
                        yield n, (a_vec, k), {"a_vec": a_vec, "k": k}
            return
        for n in N_INPUTS:
            for v in SCALAR_INPUTS:
                for values in {(v,) * len(entry.param_names), (v, F(3, 2))[:len(entry.param_names)]}:
                    yield n, values, dict(zip(entry.param_names, values))

    @pytest.mark.parametrize("name", PUBLIC_EVALUATORS)
    def test_the_evaluator_accepts_and_refuses_as_eval_corollary(self, name):
        fn = PUBLIC_EVALUATORS[name][0]
        side_type = Fraction if name in SCALAR_ENTRIES else tuple
        outcomes = set()
        for n, args, params in self._cases(name):
            mine = _outcome(lambda: fn(n, *args), side_type)
            assert mine == _outcome(lambda: eval_corollary(name, n, params)), (name, n, args)
            outcomes.add(mine[0])
        assert outcomes == {"sides", "refused"}

    @pytest.mark.parametrize("name", PUBLIC_EVALUATORS)
    def test_the_signature_is_kept(self, name):
        fn, signature = PUBLIC_EVALUATORS[name]
        assert str(inspect.signature(fn)) == signature
        assert REGISTRY[name].displays == (("", fn),)

    def test_floats_and_strings_are_refused(self):
        for call in (lambda: eval_theorem1(2, 0.5, 1), lambda: eval_theorem2(2, [0.1, 1]),
                     lambda: gamma_sum_identity(2, "1/2"), lambda: eval_theorem4(2, (F(1), "1"))):
            with pytest.raises(DomainError, match="violates validity"):
                call()

    def test_a_list_a_vec_is_read_as_a_tuple(self):
        assert eval_theorem2(3, [1, F(1, 2)]) == eval_theorem2(3, (F(1), F(1, 2)), k=2)
        (report,) = verify("theorem4", [{"n": 3, "a_vec": [2, F(1, 2), 1]}])
        assert report.passed and report.inputs == {"n": 3, "a_vec": (F(2), F(1, 2), F(1)), "k": 3}

    def test_one_function_raises_the_validity_error(self):
        raisers = set()
        for module, source in SOURCES.items():
            for fn in ast.walk(ast.parse(source)):
                if isinstance(fn, ast.FunctionDef) and any(
                        isinstance(node, ast.Raise) and "violates validity" in ast.unparse(node)
                        for node in ast.walk(fn)):
                    raisers.add((module, fn.name))
        assert raisers == {("identities.py", "_checked")}
        for source in SOURCES.values():
            defined = {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}
            assert not defined & {"_require", "_k_fold_params"}

    def test_no_public_evaluator_converts_its_arguments(self):
        functions = TestConvolutionDesign._functions()
        for fn, _ in PUBLIC_EVALUATORS.values():
            node = functions[fn.__name__]
            arguments = {arg.arg for arg in node.args.args}
            converted = [ast.unparse(call) for call in ast.walk(node) if isinstance(call, ast.Call)
                         and getattr(call.func, "id", None) == "Fraction"
                         and any(isinstance(arg, ast.Name) and arg.id in arguments for arg in call.args)]
            assert converted == [], fn.__name__
            assert "_checked" in _called_names(node), fn.__name__
