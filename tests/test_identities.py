"""Unit tests for the identity registry and verification engine."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import io
from fractions import Fraction
from itertools import groupby, islice
from math import factorial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bek.exactmath import (
    ZERO,
    binomial,
    harmonic,
    harmonic_second,
    poly,
    poly_add,
    poly_lincomb,
    poly_mul,
    poly_scale,
    poly_sub,
    series_product,
    subset_series,
)
from bek import cli, exactmath, identities
from bek.identities import (
    REGISTRY,
    DomainError,
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
from statements import STATEMENTS
from walks import weighted_convolution

F = Fraction


def _at(fn, n, *args):
    """The sides of the line display fn at one n: a line of one point."""
    (sides,) = fn([n], *args)
    return sides

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

    def test_unknown_identity_error_reads_as_its_message(self):
        # a KeyError's str quotes its message; this one's does not
        assert str(UnknownIdentityError("m")) == "m"

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

    @pytest.mark.parametrize("vec_type", [tuple, list])
    def test_build_points_infers_k_from_a_vec(self, vec_type):
        # a list a_vec is read as a tuple, as `verify` reads it; it built
        # the default ks' 47 points, which the k-of-a_vec check refused
        entry = REGISTRY["theorem2"]
        points = build_points(entry, n_values=(2,), params={"a_vec": vec_type((F(1), F(2), F(3)))})
        assert points == [{"n": 2, "k": 3, "a_vec": (F(1), F(2), F(3))}]
        points = build_points(entry, params={"a_vec": vec_type((F(1), F(2)))})
        assert len(points) == 21 and all(pt["k"] == 2 and pt["a_vec"] == (F(1), F(2)) for pt in points)
        assert all(r.passed for r in verify("theorem2", points))

    def test_build_points_reads_one_shot_n_values_once(self):
        # every default k reads the n values, which a generator yields once
        entry = REGISTRY["theorem2"]
        assert len(entry.default_ks) > 1
        assert build_points(entry, n_values=(n for n in [3, 4])) == build_points(entry, n_values=(3, 4))

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

    def test_replaced_displays_are_the_ones_verified(self, monkeypatch):
        # the default evaluate was bound to the entry `replace` copied, so
        # verify evaluated the old displays while eval_corollary ran the new
        entry = REGISTRY["miki"]
        replaced = dataclasses.replace(entry, displays=(("", lambda ns: [(poly([F(1)]), poly([F(2)]))] * len(ns)),))
        assert replaced.evaluate.__self__ is replaced and entry.evaluate.__self__ is entry
        (report,) = verify("miki", points=[{"n": 4}], registry={"miki": replaced})
        assert report.status == "fail" and report.difference == poly([-1])
        monkeypatch.setitem(REGISTRY, "miki", replaced)
        assert eval_corollary("miki", 4) == (poly([F(1)]), poly([F(2)]))

    def test_a_wrapped_evaluate_is_kept(self):
        calls = []
        entry = REGISTRY["miki"]

        def wrapped(line, evaluate=entry.evaluate):
            calls.append([pt["n"] for pt in line])
            return evaluate(line)

        replaced = dataclasses.replace(dataclasses.replace(entry, evaluate=wrapped), summary="wrapped")
        assert replaced.evaluate is wrapped
        assert [r.passed for r in verify("miki", points=[{"n": 4}, {"n": 5}], registry={"miki": replaced})] == [
            True, True]
        # the two points differ only in n: one line, one call
        assert calls == [[4, 5]]

    def test_a_pass_subtracts_nothing(self, monkeypatch):
        # equal sides are equal tuples: no poly_sub runs, and the report's
        # rhs cells are its lhs cells
        subtracted = []
        monkeypatch.setattr(identities, "poly_sub", lambda p, q: subtracted.append((p, q)) or poly_sub(p, q))
        reports = [*verify("theorem1", points=[{"n": 6, "a": F(2), "b": F(1, 3)}]),
                   *verify("corollary4", points=[{"n": 7}]), *verify("miki", points=[{"n": 8}])]
        assert [r.status for r in reports] == ["pass"] * 4 and subtracted == []
        assert all(r.difference == ZERO and r.lhs == r.rhs for r in reports)
        payloads = [cli._report_payload(r, False) for r in reports]
        assert all(row["rhs"] == row["lhs"] == [str(c) for c in r.rhs] for row, r in zip(payloads, reports))

    @pytest.mark.parametrize("index", [2, 3])
    def test_a_corrupted_right_side_term_fails_with_its_difference(self, monkeypatch, index):
        # B_2 is a term of the right side, B_3 = 0 one that vanishes.  The
        # right side reads the corrupted B_index twice: in the factor c_index
        # of its sum and, through its Appell numbers, in every B_r(x) with r
        # >= index, which gains C(r, index)/7 x^(r-index).  The difference
        # is the stated right side at the true values less the same side at
        # the corrupted ones
        pt = {"n": 6, "a": F(2), "b": F(1, 3)}
        true_bernoulli = identities.bernoulli_number
        monkeypatch.setattr(identities, "bernoulli_number", lambda m: true_bernoulli(m) + F(int(m == index), 7))
        (report,) = verify("theorem1", points=[pt])

        def corrupted_poly(r):
            gain = poly([0] * (r - index) + [F(binomial(r, index), 7)]) if r >= index else ZERO
            return poly_add(bernoulli_poly(r), gain)

        statement = STATEMENTS["theorem1", ""]
        expected = poly_sub(statement(pt)[1], statement(pt, identities.bernoulli_number, corrupted_poly)[1])
        assert report.status == "fail"
        assert report.difference == expected != ZERO
        assert report.difference == poly_sub(report.lhs, report.rhs)
        row = cli._report_payload(report, False)
        assert row["rhs"] == [str(c) for c in report.rhs] != row["lhs"]

    @pytest.mark.parametrize("label, n, index", [("first", 7, 7), ("first", 8, 8), ("second", 6, 7),
                                                 ("second", 7, 8)])
    def test_a_corrupted_constant_term_of_corollary10_fails_with_its_difference(self, monkeypatch, label, n, index):
        # the constant term of each display is the last term of its Appell
        # sum, E_n(0) for the first and E_{n+1}(0) for the second: odd
        # indices are terms, even ones vanish, and a corrupted even one is
        # caught too
        true_euler = identities.euler_poly_at_zero
        monkeypatch.setattr(identities, "euler_poly_at_zero", lambda m: true_euler(m) + F(int(m == index), 7))
        (report,) = [r for r in verify("corollary10", points=[{"n": n}]) if r.inputs["display"] == label]
        weight = (4 * harmonic(n - 1) / (n * (n - 1)) if label == "first"
                  else (harmonic(n) ** 2 + 3 * harmonic_second(n)) / (n * (n + 1)))
        assert (true_euler(index) == 0) == (index % 2 == 0)
        assert report.status == "fail"
        assert report.difference == poly([-weight / 7]) != ZERO
        assert report.difference == poly_sub(report.lhs, report.rhs)

    def test_point_text_ordering(self):
        text = point_text({"a_vec": (F(1), F(1, 2)), "n": 3, "k": 2})
        assert text == "n=3 k=2 a_vec=1,1/2"
        # a refused point renders as given: a float stays a float, and only
        # an a_vec is joined
        assert point_text({"n": 2, "a": [1], "a_vec": (0.1, None)}) == "n=2 a=[1] a_vec=0.1,None"


def _report_cells(reports):
    """What a report says, without its time."""
    return [(r.identity, r.inputs, r.status, r.lhs, r.rhs, r.difference) for r in reports]


class TestLines:
    """`verify` evaluates each run of points that differ only in n as one
    line, and reports exactly what one point at a time would."""

    def test_every_display_takes_a_line(self):
        # fn(ns, *params[, k]), the call of `IdentitySpec.sides`
        for name, entry in REGISTRY.items():
            for label, fn in entry.displays:
                names = list(inspect.signature(fn).parameters)
                assert names[0] == "ns" and len(names) == 1 + len(entry.param_names) + entry.takes_k, (name, label)

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_verify_matches_the_door_point_by_point(self, name):
        reports = verify(name)
        assert len(reports) == len(build_points(REGISTRY[name])) * len(REGISTRY[name].displays)
        for r in reports:
            params = {key: v for key, v in r.inputs.items() if key not in ("n", "display")}
            sides = identities._sides_at(name, r.inputs["n"], params, r.inputs.get("display"))
            assert (r.lhs, r.rhs) == tuple(map(identities._as_poly, sides)), r.inputs

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_a_gapped_unsorted_repeated_grid(self, name):
        entry = REGISTRY[name]
        k = entry.default_ks[-1] if entry.takes_k else None
        ns = list(entry.default_n(k))
        picks = (ns[-1], ns[0], ns[len(ns) // 2], ns[0], ns[-2])
        lines = [build_points(entry, picks, k, params or None) for params in entry.default_param_sets(k)[:2]]
        # two lines, and the same points interleaved: lines of one point
        for grid in (lines[0] + lines[-1], [pt for pair in zip(lines[0], lines[-1]) for pt in pair]):
            reports = verify(name, grid)
            assert all(r.passed for r in reports)
            assert _report_cells(reports) == _report_cells([r for pt in grid for r in verify(name, [pt])])

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_a_line_corrupted_at_one_n_fails_there_only(self, name):
        entry = REGISTRY[name]
        k = entry.default_ks[0] if entry.takes_k else None
        line = build_points(entry, None, k, entry.default_param_sets(k)[0] or None)
        bad = line[len(line) // 2]["n"]
        (label, fn), *others = entry.displays

        def corrupted(ns, *args):
            return [(lhs, poly_add(identities._as_poly(rhs), poly([F(1, 997)])) if n == bad else rhs)
                    for n, (lhs, rhs) in zip(ns, fn(ns, *args))]

        registry = {name: dataclasses.replace(entry, displays=((label, corrupted), *others))}
        failed = [(r.inputs["n"], r.inputs.get("display", "")) for r in verify(name, line, registry) if not r.passed]
        assert failed == [(bad, label)]

    def test_a_line_time_is_split_over_its_reports(self, monkeypatch):
        # a clock that only the evaluation advances, by 1/4 s a point: each
        # line's reports share its time evenly and add up to it
        clock = [0.0]
        monkeypatch.setattr(identities, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        entry = REGISTRY["theorem1"]

        def timed(line, evaluate=entry.evaluate):
            clock[0] += 0.25 * len(line)
            return evaluate(line)

        grid = [*build_points(entry, (1, 2, 3), params={"a": F(1), "b": F(1)}),
                *build_points(entry, (4, 5), params={"a": F(2), "b": F(1)})]
        reports = verify("theorem1", grid, {"theorem1": dataclasses.replace(entry, evaluate=timed)})
        assert [r.elapsed for r in reports] == [0.25] * 5
        assert sum(r.elapsed for r in reports[:3]) == 0.75 and sum(r.elapsed for r in reports[3:]) == 0.5


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
# Every display against its statement (`statements.py`), both sides, at
# every default point.
# ---------------------------------------------------------------------------


def _along_default_lines(name, label):
    """(the grid point, the display's sides there) at each default point of
    an entry, each line of the grid evaluated at once, as `verify` does."""
    entry = REGISTRY[name]
    fn = dict(entry.displays)[label]
    for _, run in groupby(build_points(entry), key=lambda pt: {**pt, "n": None}):
        line = list(run)
        yield from zip(line, entry.sides(fn, line))


positive_rationals = st.builds(F, st.integers(1, 7), st.integers(1, 7))


@st.composite
def parameter_tuples(draw, k_min):
    """k positive rationals drawn from a pool of at most k, so repeats are common."""
    k = draw(st.integers(k_min, 5))
    pool = draw(st.lists(positive_rationals, min_size=1, max_size=k))
    return tuple(draw(st.sampled_from(pool)) for _ in range(k))


class TestStatements:
    """Each display equals its statement exactly, both sides, on its whole
    default grid and at a point off it; the k-fold and long displays at
    random points too."""

    def test_every_display_has_one_statement(self):
        assert list(STATEMENTS) == [(name, label) for name, entry in REGISTRY.items() for label, _ in entry.displays]
        assert len(STATEMENTS) == 29

    @pytest.mark.parametrize("name, label", list(STATEMENTS))
    def test_default_grid_matches_the_statement(self, name, label):
        checked = 0
        for checked, (pt, sides) in enumerate(_along_default_lines(name, label), 1):
            assert sides == STATEMENTS[name, label](pt), pt
        assert checked == len(build_points(REGISTRY[name]))

    @pytest.mark.parametrize("name, label", list(STATEMENTS))
    def test_a_point_off_the_grid_matches_the_statement(self, name, label):
        # the first default point with n one step past the top of its line and
        # every rational parameter raised by 1/7: a point no default grid holds
        entry = REGISTRY[name]
        pt = build_points(entry)[0]
        pt["n"] = max(entry.default_n(pt.get("k"))) + entry.n_step
        for key in entry.param_names:
            pt[key] = tuple(v + F(1, 7) for v in pt[key]) if key == "a_vec" else pt[key] + F(1, 7)
        assert entry.validity(pt) and pt not in build_points(entry)
        (sides,) = entry.sides(dict(entry.displays)[label], [pt])
        assert sides == STATEMENTS[name, label](pt)
        assert sides[0] == sides[1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 8), parameter_tuples(2))
    def test_theorem2(self, n, a_vec):
        lhs, rhs = eval_theorem2(n, a_vec)
        assert (lhs, rhs) == STATEMENTS["theorem2", ""]({"n": n, "k": len(a_vec), "a_vec": a_vec})
        assert lhs == rhs

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 8), parameter_tuples(1))
    def test_theorem4(self, n, a_vec):
        lhs, rhs = eval_theorem4(n, a_vec)
        assert (lhs, rhs) == STATEMENTS["theorem4", ""]({"n": n, "k": len(a_vec), "a_vec": a_vec})
        assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 12), st.integers(2, 6))
    def test_kth_matiyasevich(self, n, k):
        lhs, rhs = _at(identities._kth_matiyasevich, n, k)
        assert (lhs, rhs) == STATEMENTS["kth-matiyasevich", ""]({"n": n, "k": k})
        assert lhs == rhs

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 40))
    def test_corollary11(self, n):
        assert _at(identities._corollary11_first, n) == STATEMENTS["corollary11", "first"]({"n": n})
        assert _at(identities._corollary11_second, n) == STATEMENTS["corollary11", "second"]({"n": n})


class TestQuadraticNumberSums:
    """Every quadratic number sum is a series coefficient, and the pair
    helpers are gone."""

    def test_no_pair_helper_is_left(self):
        for name in ("_each_n", "_nonzero_pairs", "_euler_centre"):
            assert not hasattr(identities, name), name


def _appell_reference(s, family, m, scale, lam, alpha, c):
    """scale (m! sum_{i<=m} s_{m-i} lam^i P_i(x)/i! + alpha P_m(lam x) + c),
    P = family and s_r = 0 past the end of s, as one `poly_lincomb` of the
    polynomials themselves."""
    at_lam_x = poly(coeff * lam ** k for k, coeff in enumerate(family(m)))
    terms = [(factorial(m) * (s[m - i] if m - i < len(s) else 0) * F(lam ** i, factorial(i)), family(i))
             for i in range(m + 1)]
    return poly_scale(scale, poly_lincomb([*terms, (alpha, at_lam_x), (c, poly([1]))]))


# The two number sequences the right sides read, with their polynomials.
APPELL_FAMILIES = [(bernoulli_number, bernoulli_poly), (euler_poly_at_zero, euler_poly)]


class TestAppellNumbers:
    """Every sum over P_i(x) with number weights is read off the Appell
    numbers of one series product per line, by `_appell_line`."""

    def test_a_dropped_folded_term_fails_with_its_difference(self, monkeypatch):
        # theorem1's n kappa B_{n-1}(x) = C(n, 1) kappa B_{n-1}(x) is folded
        # into the factor of l = 1 of its sum: without it, each n of a line
        # fails by exactly that term
        a, b = F(2), F(1, 3)
        kappa = a * b / ((a + b + 1) * (a + b))
        real = identities._appell_line
        monkeypatch.setattr(identities, "_appell_line",
                            lambda s, *rest, **terms: real([s[0], s[1] - kappa, *s[2:]], *rest, **terms))
        reports = verify("theorem1", build_points(REGISTRY["theorem1"], range(1, 9), params={"a": a, "b": b}))
        assert [r.status for r in reports] == ["fail"] * 8
        for r in reports:
            n = r.inputs["n"]
            assert r.difference == poly_scale(kappa * n, bernoulli_poly(n - 1)) == poly_sub(r.lhs, r.rhs), n

    def test_each_n_costs_numbers_not_polynomials(self, monkeypatch):
        # over a default `verify-all` (1,828 reports), the identities hand
        # `poly_lincomb` at most 330 polynomial terms (324) and call
        # `poly_mul` at most 60 times (corollary5's and corollary6's x - 1
        # and 2x - 1 factors), counted by wrapping both; the term sums handed
        # it 15,456 terms, and corollary11's pair sum formed 225 products
        terms, products = [], []
        real_lincomb, real_mul = identities.poly_lincomb, identities.poly_mul

        def counted(pairs):
            pairs = list(pairs)
            terms.append(len(pairs))
            return real_lincomb(pairs)

        monkeypatch.setattr(identities, "poly_lincomb", counted)
        monkeypatch.setattr(identities, "poly_mul", lambda p, q: products.append(1) or real_mul(p, q))
        reports = [r for name in REGISTRY for r in verify(name)]
        assert len(reports) == 1828 and all(r.passed for r in reports)
        assert sum(terms) <= 330
        assert len(products) <= 60

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.fractions(max_denominator=60), min_size=1, max_size=12), st.data())
    def test_the_reader_matches_its_reference(self, s, data):
        # random degrees up to one past the last coefficient of s, with
        # their scales, at lam = 1 or 3, with no alpha term, an alpha term,
        # or an alpha term and a constant
        number, family = data.draw(st.sampled_from(APPELL_FAMILIES))
        lam = data.draw(st.sampled_from([1, 3]))
        degrees = data.draw(st.lists(st.integers(0, len(s)), min_size=1, max_size=5))
        size = st.lists(st.fractions(max_denominator=30), min_size=len(degrees), max_size=len(degrees))
        scales = data.draw(size)
        terms = data.draw(st.sampled_from(["none", "alphas", "both"]))
        alphas = None if terms == "none" else data.draw(size)
        constants = data.draw(size) if terms == "both" else None
        line = identities._appell_line(s, number, degrees, scales, lam, alphas, constants)
        zeros = [0] * len(degrees)
        assert line == [_appell_reference(s, family, m, scale, lam, alpha, c)
                        for m, scale, alpha, c in zip(degrees, scales, alphas or zeros, constants or zeros)]

    @pytest.mark.parametrize("number, family", APPELL_FAMILIES, ids=["bernoulli", "euler"])
    @pytest.mark.parametrize("lam", [1, 3])
    def test_the_reader_covers_each_term(self, number, family, lam):
        # every degree from 0 to one past the top of s, with a nonzero
        # alpha and a nonzero constant at each, and without them
        s = [F(1, 2), F(-3), F(0), F(5, 7), F(2, 9)]
        degrees = list(range(len(s) + 1))
        scales = [F(2, m + 3) for m in degrees]
        alphas = [F(m + 1, 4) for m in degrees]
        constants = [F(-1, m + 2) for m in degrees]
        with_terms = identities._appell_line(s, number, degrees, scales, lam, alphas=alphas, constants=constants)
        assert with_terms == [_appell_reference(s, family, m, scale, lam, alpha, c)
                              for m, scale, alpha, c in zip(degrees, scales, alphas, constants)]
        assert identities._appell_line(s, number, degrees, scales, lam, alphas=alphas) == [
            _appell_reference(s, family, m, scale, lam, alpha, 0) for m, scale, alpha in zip(degrees, scales, alphas)]
        assert identities._appell_line(s, number, degrees, scales, lam) == [
            _appell_reference(s, family, m, scale, lam, 0, 0) for m, scale in zip(degrees, scales)]


class TestCorruptedSeries:
    """A corrupted subset expansion, as `identities` calls it, fails
    `verify` at the entry's first default point with n >= 2."""

    @staticmethod
    def _fails_under(monkeypatch, name, expected_shift, corrupted_shift):
        real = identities.subset_series

        def corrupted(factors, shifts, d):
            assert all(s == expected_shift for s in shifts)
            return real(factors, [corrupted_shift(s) for s in shifts], d)

        monkeypatch.setattr(identities, "subset_series", corrupted)
        pt = next(pt for pt in build_points(REGISTRY[name]) if pt["n"] >= 2)
        (report,) = verify(name, [pt])
        assert report.status == "fail"
        assert report.difference == poly_sub(report.lhs, report.rhs) != ZERO

    def test_theorem2_without_the_t_term(self, monkeypatch):
        # the shifts a_i t of theorem2's first point, a = (1, 1), become 0
        self._fails_under(monkeypatch, "theorem2", poly([0, 1]), lambda s: ZERO)

    def test_theorem4_with_a_shift_of_one(self, monkeypatch):
        self._fails_under(monkeypatch, "theorem4", poly([-2]), lambda s: poly([-1]))


def _without(factors, power):
    """The factors with the t^power coefficient of the last one dropped."""
    factors = list(factors)
    if factors and len(factors[-1]) > power:
        last = factors[-1]
        factors[-1] = poly([*last[:power], 0, *last[power + 1:]])
    return factors


# The kernel's two series products, as `_corrupted` wraps them.
SERIES_KERNELS = {"series_product": series_product, "subset_series": subset_series}


def _corrupted(name, power):
    kernel = SERIES_KERNELS[name]
    return lambda factors, *rest: kernel(_without(factors, power), *rest)


# The displays whose sides read their sums off `series_product` or
# `subset_series`: all but gamma-sum's.
SERIES_DISPLAYS = [key for key in STATEMENTS if key != ("gamma-sum", "")]


def _first_points_from_three(name):
    """The entry's first default point with n >= 3, one for each default k."""
    entry = REGISTRY[name]
    return [next(pt for pt in build_points(entry, k=kk) if pt["n"] >= 3) for kk in entry.default_ks or (None,)]


class TestCorruptedSeriesProduct:
    """A `series_product` or `subset_series` without the t^1 or the t^2
    coefficient of its last factor is caught by every display that calls
    one, under at least one of the two."""

    def test_the_list_names_every_series_display(self, monkeypatch):
        seen = set()

        def spy(kernel):
            def call(*args):
                seen.add(current)
                return kernel(*args)
            return call

        for name in SERIES_KERNELS:
            monkeypatch.setattr(identities, name, spy(getattr(identities, name)))
        for name, entry in REGISTRY.items():
            for label, _ in entry.displays:
                current = (name, label)
                fn, args = _display(name, label)
                for pt in _first_points_from_three(name):
                    _at(fn, *args(pt))
        assert seen == set(SERIES_DISPLAYS)

    def test_dropped_t1_coefficient(self, monkeypatch):
        # t^1 of the last factor pairs with B_{n-1} = 0 in miki, matiyasevich
        # and corollary2, or their series start at t^2, so a dropped t^1
        # cannot show there; a dropped t^2 misses kth-matiyasevich, theorem4
        # at k >= 2 and both corollary11 displays.  Each display is checked
        # at its first default point from n = 3 and at the one after it
        caught = {}
        for power in (1, 2):
            for name in SERIES_KERNELS:
                monkeypatch.setattr(identities, name, _corrupted(name, power))
            for name, label in SERIES_DISPLAYS:
                fn, args = _display(name, label)
                for pt in _first_points_from_three(name):
                    for step in (0, 1):
                        lhs, rhs = _at(fn, *args({**pt, "n": pt["n"] + step}))
                        if lhs != rhs:
                            caught.setdefault((name, label, pt.get("k")), set()).add(step)
        keys = [(name, label, pt.get("k")) for name, label in SERIES_DISPLAYS for pt in _first_points_from_three(name)]
        # theorem4 at k = 1 is caught too: the Appell numbers of its q(t),
        # the shift alone, are one more series product.  At n = 3 the factors
        # of corollary10's first sum, 4 H_{l-1} E_l(0)/l!, vanish below l = 3
        # (H_0 = E_2(0) = 0), so its Appell numbers read no t^1 or t^2 of
        # the Bernoulli series there; its left side's jet products do, and
        # catch it at n = 3
        assert [key for key in keys if key not in caught] == []
        assert [key for key in keys if 0 not in caught[key]] == []


# The 18 displays whose left side is a weighted convolution, declared by its
# slot weights.  Nine, whose slot weights are Pochhammer weights (a)_l/l!
# or 1/l!, read it off one product of number series per line; the nine
# with the harmonic weights 1/l or H_{l-1}/l read it off the eps-jets of
# number series (`_jet_lhs`).
NUMBER_SERIES_LEFT = [
    ("theorem1", ""), ("theorem2", ""), ("theorem3", ""), ("theorem4", ""), ("corollary1", ""), ("eq-2-15", ""),
    ("eq-4-0a", ""), ("eq-6-9", ""), ("corollary8", ""),
]
JET_LEFT = [
    ("corollary3", ""), ("corollary4", "a=1"), ("corollary4", "a=2"), ("eq-2-12", ""), ("corollary7", ""),
    ("corollary10", "first"), ("corollary10", "second"), ("corollary11", "first"), ("corollary11", "second"),
]
CONVERTED = NUMBER_SERIES_LEFT + JET_LEFT


def _display(name, label):
    """A display's evaluator and the arguments it takes at a grid point."""
    entry = REGISTRY[name]
    keys = entry.param_names + (("k",) if entry.takes_k else ())
    return dict(entry.displays)[label], lambda pt: [pt["n"], *(pt[key] for key in keys)]


def _points_with_terms(name, label):
    """The default points with n >= 2 whose stated left side is not zero, in
    grid order: at n = 2 the left sides of corollary10's first and
    corollary11's second display are empty sums, and no corruption of the
    walk can show there."""
    return (pt for pt in build_points(REGISTRY[name]) if pt["n"] >= 2 and STATEMENTS[name, label](pt)[0] != ZERO)


class TestConvolutionLeftSides:
    """Eighteen left sides are declared convolutions, and the k-fold
    evaluators name the rule a refused point breaks."""

    def test_eighteen_displays_are_converted(self):
        assert len(set(NUMBER_SERIES_LEFT)) == len(set(JET_LEFT)) == 9
        assert len(set(CONVERTED)) == 18 and set(CONVERTED) < set(STATEMENTS)

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


# The jet displays with an order-2 slot, H_{l-1}/l: the pair sums of
# `_harmonic_pair_sums`, on the left side or, for corollary11's second
# display, on the right.
ORDER_TWO = [("corollary7", ""), ("corollary10", "second"), ("corollary11", "second")]
# The jet displays whose lines have scale 1 at every point: a dropped scale
# cannot show there.
UNIT_SCALE = [("eq-2-12", ""), ("corollary10", "first"), ("corollary11", "first")]
# The jet displays with one eps-slot, whose multinomial terms have one part.
ONE_EPS_SLOT = [("corollary3", ""), ("corollary4", "a=2"), ("eq-2-12", "")]


class TestCorruptedJets:
    """A corrupted jet line fails each harmonic display that reads the
    corrupted piece, at its first three default points with terms.  Both
    sides of corollary11's second display are jet lines, (1, 1, 1) on the
    left and the pair sums (1, 1) and (2, 1) on the right; each corruption
    moves each of its sides that reads the piece, and the display fails."""

    @staticmethod
    def _sides():
        return {key: [_at(fn, *args(pt)) for pt in islice(_points_with_terms(*key), 3)]
                for key in JET_LEFT for fn, args in [_display(*key)]}

    def _corrupted(self, monkeypatch, **patches):
        """The true sides, the sides under the patches of `identities`, and
        the displays that fail under them."""
        true_sides = self._sides()
        for name, value in patches.items():
            monkeypatch.setattr(identities, name, value)
        sides = self._sides()
        failing = [key for key in JET_LEFT if any(lhs != rhs for lhs, rhs in sides[key])]
        return true_sides, sides, failing

    @staticmethod
    def _moved(true_sides, sides, key):
        """Which of the display's two sides moved: (lhs, rhs)."""
        return tuple(any(a[i] != b[i] for a, b in zip(true_sides[key], sides[key])) for i in (0, 1))

    def test_dropped_multinomial_term(self, monkeypatch):
        # the last term, m = d, puts every eps order on the jet
        # (A_0+j+E)_r/r!: for two or more eps-slots it is a cross term of
        # E^D, weight D!/prod d_i! > 1
        real = identities._leibniz_terms
        true_sides, sides, failing = self._corrupted(monkeypatch, _leibniz_terms=lambda orders: real(orders)[:-1])
        assert failing == JET_LEFT
        assert self._moved(true_sides, sides, ("corollary11", "second")) == (True, True)

    def test_dropped_cross_term(self, monkeypatch):
        # the first term with two non-zero parts, m = (0, ..., 1, 1): one
        # eps order of each of the last two slots on the jet
        real = identities._leibniz_terms

        def without_cross(orders):
            terms = real(orders)
            cross = [i for i, (m, _) in enumerate(terms) if sum(1 for part in m if part) == 2]
            return [term for i, term in enumerate(terms) if i != cross[0]] if cross else terms

        true_sides, sides, failing = self._corrupted(monkeypatch, _leibniz_terms=without_cross)
        assert failing == [key for key in JET_LEFT if key not in ONE_EPS_SLOT]
        assert all(sides[key] == true_sides[key] for key in ONE_EPS_SLOT)
        assert self._moved(true_sides, sides, ("corollary11", "second")) == (True, True)

    def test_shifted_second_order_weight(self, monkeypatch):
        # H_l/l in place of H_{l-1}/l in g_2: only an order-2 slot reads it,
        # on the right side alone of corollary11's second display
        true_sides, sides, failing = self._corrupted(
            monkeypatch, _harmonic_reciprocals=lambda n: [F(0), *(harmonic(l) / l for l in range(1, n + 1))])
        assert failing == ORDER_TWO
        assert all(sides[key] == true_sides[key] for key in JET_LEFT if key not in ORDER_TWO)
        assert self._moved(true_sides, sides, ("corollary11", "second")) == (False, True)

    def test_corrupted_p1_at_zero_as_the_jet_reads_it(self, monkeypatch):
        # the jet lines read P_1(0) off the polynomial P_1(x): every left
        # side moves, and so do the pair sums of corollary11's right side
        patches = {family: (lambda l, real=getattr(identities, family):
                            poly([real(l)[0] + F(int(l == 1), 7), *real(l)[1:]]))
                   for family in ("bernoulli_poly", "euler_poly")}
        true_sides, sides, failing = self._corrupted(monkeypatch, **patches)
        assert failing == JET_LEFT
        assert all(self._moved(true_sides, sides, key)[0] for key in JET_LEFT)
        assert self._moved(true_sides, sides, ("corollary11", "second")) == (True, True)

    def test_dropped_scale(self, monkeypatch):
        # a scale of 1 cannot be dropped, so each display is checked at its
        # first point with terms where a scale of its lines is not 1; the
        # unit-scale displays have no such point
        real = identities._jet_lhs
        scales = []

        def unscaled(family, ns, fixed, orders, line_scales):
            scales.extend(line_scales)
            return real(family, ns, fixed, orders, [1] * len(ns))

        survivors, unit_scale = [], []
        for key in JET_LEFT:
            fn, args = _display(*key)
            for pt in _points_with_terms(*key):
                true_sides = _at(fn, *args(pt))
                scales.clear()
                monkeypatch.setattr(identities, "_jet_lhs", unscaled)
                sides = _at(fn, *args(pt))
                monkeypatch.setattr(identities, "_jet_lhs", real)
                if any(scale != 1 for scale in scales):
                    if sides[0] == sides[1]:
                        survivors.append(key)
                    if key == ("corollary11", "second"):
                        assert sides[0] != true_sides[0] and sides[1] != true_sides[1]
                    break
            else:
                unit_scale.append(key)
        assert survivors == [] and unit_scale == UNIT_SCALE


PRODUCT_TABLES = {"_bern_product", "_euler_product"}
# The polynomial convolution kernel, deleted once every left side became a
# product of number series, and the Pochhammer left-side builder, folded
# into `_jet_lhs` as a line with no eps-slot.
DELETED_KERNEL = {"convolution_coefficients", "_pair_product", "_own_form", "_paired_coefficient",
                  "_coefficient_of_product", "convolution_work", "_rising_lhs"}
# the series kernels of the displays, which no statement may share
SERIES_KERNEL_NAMES = {"series_product", "subset_series", "_jet_lhs", "appell"}
SOURCES = {path.name: path.read_text() for path in sorted(Path(identities.__file__).parent.glob("*.py"))}
TEST_SOURCES = {path.name: path.read_text() for path in sorted(Path(__file__).parent.glob("*.py"))}


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


def _read_names(source):
    """Every name a module source reads, bare or as an attribute, and every
    name and module part it imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for module in (getattr(node, "module", None) or "", *(alias.name for alias in node.names)):
                names.update(module.split("."))
    return names


def _called_names(node):
    return {c.func.id for c in ast.walk(node) if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}


# The display whose left side is the convolution less its constant term.
CENTRED = {("corollary11", "first")}
# The jet line, and the pair sums of harmonic weights that depend on n,
# which are two jet lines.
JET_CALLS = {"_jet_lhs", "_harmonic_pair_sums"}


class TestConvolutionDesign:
    """Products of Bernoulli and Euler polynomials are read off products of
    number series, one call per line, and no composition is walked for
    them."""

    @staticmethod
    def _functions():
        tree = ast.parse(SOURCES["identities.py"])
        return {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}

    def test_no_module_calls_the_product_tables(self):
        # nor does any test: only the benchmark worker reads them
        assert {name: found for name, source in SOURCES.items() if (found := _callers(source, PRODUCT_TABLES))} == {}
        readers = {name: found for name, source in TEST_SOURCES.items() if (found := _read_names(source) & PRODUCT_TABLES)}
        assert readers == {}

    def test_the_statements_share_no_kernel_with_the_displays(self):
        # no series kernel, no product table and nothing of `bek.identities`
        names = _read_names(TEST_SOURCES["statements.py"])
        assert names & (SERIES_KERNEL_NAMES | PRODUCT_TABLES | {"identities"}) == set()
        assert {"poly_mul", "composition_parts"} <= names

    def test_the_identities_walk_no_compositions(self):
        assert _callers(SOURCES["identities.py"], {"composition_parts"}) == set()

    def test_no_module_names_a_deleted_function(self):
        assert {name: found for name, source in SOURCES.items() if (found := _read_names(source) & DELETED_KERNEL)} == {}

    def test_each_harmonic_left_side_is_one_jet_call(self):
        # one call for the line, never on a one-point line [n], and none in
        # a loop; for the centred display, the line's coefficients each less
        # a constant formed without it
        functions = self._functions()
        for key in JET_LEFT:
            fn, _ = _display(*key)
            (assign,) = [node for node in ast.walk(functions[fn.__name__]) if isinstance(node, ast.Assign)
                         and [getattr(t, "id", None) for t in node.targets] == ["lhs"]]
            value = assign.value
            calls = [call for call in ast.walk(value) if isinstance(call, ast.Call)
                     and getattr(call.func, "id", None) in JET_CALLS]
            assert len(calls) == 1 and not isinstance(calls[0].args[1], ast.List), key
            assert not _repeated_calls(functions[fn.__name__], JET_CALLS), key
            assert not _called_names(value) & {"composition_parts", *PRODUCT_TABLES}, key
            if key in CENTRED:
                assert isinstance(value, ast.ListComp) and value.elt.func.id == "poly_sub", key
                assert not _called_names(value.elt) & JET_CALLS, key
            else:
                assert isinstance(value, ast.Call) and value.func.id in JET_CALLS, key

    def test_the_pair_sums_are_two_jet_lines(self):
        # at orders (1, 1) and (2, 1), for the line; corollary11's second
        # display reads its left side at (1, 1, 1) and its right side's
        # pair sums off them
        functions = self._functions()
        calls = [call for call in ast.walk(functions["_harmonic_pair_sums"]) if isinstance(call, ast.Call)
                 and getattr(call.func, "id", None) == "_jet_lhs"]
        assert [ast.unparse(call.args[3]) for call in calls] == ["(1, 1)", "(2, 1)"]
        assert all(ast.unparse(call.args[1]) == "ns" for call in calls)
        assert not _repeated_calls(functions["_harmonic_pair_sums"], {"_jet_lhs"})
        second = functions["_corollary11_second"]
        assert [ast.unparse(call.args[3]) for call in ast.walk(second) if isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "_jet_lhs"] == ["(1, 1, 1)"]
        assert "_harmonic_pair_sums" in _called_names(second)

    def test_the_jet_path_reads_no_right_side_number(self):
        # P_l(0) is read off the polynomial family(l), in `_slot_product`
        # alone, never off the number sequences that the right sides read,
        # and no left side reaches a right side's series
        functions = self._functions()
        reached = _reachable(functions, functions["_jet_lhs"]) | {"_jet_lhs"}
        bodies = [functions[f] for f in reached]
        read = {node.id for body in bodies for node in ast.walk(body) if isinstance(node, ast.Name)}
        assert not read & VANISHING
        assert not set().union(*map(_called_names, bodies)) & {"subset_series", "_subset_series_rhs"}
        assert "_slot_product" in reached
        readers = {name: {ast.unparse(node) for node in ast.walk(fn) if isinstance(node, ast.Subscript)
                          and isinstance(node.value, ast.Call) and getattr(node.value.func, "id", None) == "family"}
                   for name, fn in functions.items()}
        assert {name: found for name, found in readers.items() if found} == {"_slot_product": {"family(l)[0]"}}
        for key in JET_LEFT:
            fn, _ = _display(*key)
            (assign,) = [node for node in ast.walk(functions[fn.__name__]) if isinstance(node, ast.Assign)
                         and [getattr(t, "id", None) for t in node.targets] == ["lhs"]]
            assert not {node.id for node in ast.walk(assign.value) if isinstance(node, ast.Name)} & VANISHING, key

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
        assert _read_names(source) >= PRODUCT_TABLES | {"identities", "p"}
        assert _read_names("from bek.identities import x as y\nimport bek.series") >= {"identities", "x", "series"}


# The left-side call of each number-series display: the theorems through
# their shared scale n!/(A)_n, the other Pochhammer lines as jet lines with
# no eps-slot, and the 1/l! lines, whose x-part is e^(kxt), on their own.
NUMBER_LHS_CALL = {"theorem1": "_theorem_lhs", "theorem2": "_theorem_lhs", "theorem3": "_theorem_lhs",
                   "theorem4": "_theorem_lhs", "corollary1": "_jet_lhs", "eq-4-0a": "_jet_lhs", "eq-6-9": "_jet_lhs",
                   "eq-2-15": "_exponential_lhs", "corollary8": "_exponential_lhs"}
# The left-side calls of the number-series displays, and the calls their
# left sides never make.
NUMBER_LHS_CALLS = set(NUMBER_LHS_CALL.values())
NOT_ON_THE_NUMBER_PATH = {"_harmonic_pair_sums", "subset_series", "_subset_series_rhs"}


def _reachable(functions, node):
    """The module functions that node calls by name, and the functions
    those call, in turn."""
    seen, todo = set(), [node]
    while todo:
        for name in _called_names(todo.pop()) & set(functions) - seen:
            seen.add(name)
            todo.append(functions[name])
    return seen


def _repeated_calls(node, names):
    """The calls of `names` that a loop or a comprehension of node repeats:
    in a loop's body or condition, or in a comprehension's element, its
    conditions or an inner iterable, but not in the iterable it walks
    first, which is evaluated once."""
    repeated = []
    for loop in ast.walk(node):
        if isinstance(loop, (ast.For, ast.While)):
            parts = [*loop.body, *loop.orelse, *([loop.test] if isinstance(loop, ast.While) else [])]
        elif isinstance(loop, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            first, *inner = loop.generators
            parts = [*([loop.key, loop.value] if isinstance(loop, ast.DictComp) else [loop.elt]), *first.ifs,
                     *(part for gen in inner for part in (gen.iter, *gen.ifs))]
        else:
            continue
        repeated += [call for part in parts for call in ast.walk(part)
                     if isinstance(call, ast.Call) and getattr(call.func, "id", None) in names]
    return repeated


class TestNumberSeriesDesign:
    """The nine left sides with Pochhammer or 1/l! slot weights are one
    call per line that forms one product of number series, on a path of
    their own: no polynomial kernel, no right side's series, and none of
    the names of the numbers the right sides read."""

    def test_each_left_side_is_one_number_series_call(self):
        functions = TestConvolutionDesign._functions()
        for name, label in NUMBER_SERIES_LEFT:
            fn, _ = _display(name, label)
            (assign,) = [node for node in ast.walk(functions[fn.__name__]) if isinstance(node, ast.Assign)
                         and [getattr(t, "id", None) for t in node.targets] == ["lhs"]]
            value = assign.value
            assert isinstance(value, ast.Call) and value.func.id == NUMBER_LHS_CALL[name], name
            assert ast.unparse(value.args[1]) == "ns", name
            if value.func.id == "_jet_lhs":
                assert ast.unparse(value.args[3]) == "()", name
            reached = _reachable(functions, value)
            assert "_slot_product" in reached, name
            bodies = [value, *(functions[f] for f in reached)]
            assert not set().union(*map(_called_names, bodies)) & NOT_ON_THE_NUMBER_PATH, name
            read = {node.id for body in bodies for node in ast.walk(body) if isinstance(node, ast.Name)}
            assert not read & VANISHING, name
            # one product per line: no loop forms a product or a slot
            # product, but the jet's loop over its Leibniz terms, which a
            # line with no eps-slot runs once (test_one_slot_product_per_line)
            assert not any(_repeated_calls(body, {"series_product", "_slot_product", *NUMBER_LHS_CALLS})
                           for body in bodies if body is not functions["_jet_lhs"]), name
        assert [call.func.id for call in ast.walk(functions["_slot_product"]) if isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "series_product"] == ["series_product"]
        (call,) = [call for call in ast.walk(functions["_theorem_lhs"]) if isinstance(call, ast.Call)
                   and getattr(call.func, "id", None) in NUMBER_LHS_CALLS]
        assert call.func.id == "_jet_lhs" and ast.unparse(call.args[3]) == "()"

    def test_one_slot_product_per_line(self, monkeypatch):
        # a line of six n forms one product of number series, for each
        # default k; no right side forms one
        calls = []
        real = identities._slot_product
        monkeypatch.setattr(identities, "_slot_product", lambda *args: calls.append(args) or real(*args))
        for name, label in NUMBER_SERIES_LEFT:
            fn, args = _display(name, label)
            for pt in _first_points_from_three(name):
                calls.clear()
                fn(range(3, 9), *args(pt)[1:])
                assert len(calls) == 1, (name, pt)

    def test_one_slot_multiplies_nothing(self, monkeypatch):
        # theorem4 at k = 1: its one slot series is its numbers
        ns, a_vec = range(11), (F(5, 4),)
        expected = [poly_scale(factorial(n) / exactmath.pochhammer(F(5, 4), n), coeff) for n, coeff in
                    enumerate(weighted_convolution(euler_poly, [exactmath.rising_weights(F(5, 4), 10)], 10))]
        monkeypatch.setattr(identities, "series_product", lambda *args: pytest.fail("one slot was multiplied"))
        assert identities._theorem_lhs(euler_poly, ns, a_vec) == expected

    def test_the_scans_see_loops_and_nested_calls(self):
        source = ("def f(ns):\n    return [g(n) for n in ns]\n"
                  "def g(n):\n    for i in range(n):\n        h(i)\n    return k(n)\n"
                  "def h(i):\n    return i\ndef k(n):\n    return n\n")
        functions = {node.name: node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}
        assert _reachable(functions, functions["f"]) == {"g", "h", "k"}
        assert [call.func.id for call in _repeated_calls(functions["g"], {"h", "k"})] == ["h"]
        assert [call.func.id for call in _repeated_calls(functions["f"], {"g"})] == ["g"]
        # the iterable a comprehension walks first is evaluated once
        once = "def f(ns):\n    return [p for n, p in zip(ns, g(ns)) if p]\n"
        assert _repeated_calls(ast.parse(once), {"g"}) == []
        assert len(_repeated_calls(ast.parse("x = [q for p in g(1) for q in g(p)]"), {"g"})) == 1


class TestCorruptedNumberSeries:
    """A corrupted left-side number fails every number-series display at its
    first default point from n = 3, for each default k: a dropped h_1, a
    P_1(0) corrupted as the left side reads it, and a dropped scale."""

    @staticmethod
    def _sides():
        return {(name, label, pt.get("k")): _at(fn, *args(pt)) for name, label in NUMBER_SERIES_LEFT
                for fn, args in [_display(name, label)] for pt in _first_points_from_three(name)}

    def test_dropped_h1(self, monkeypatch):
        # h_1 = P_1(0) sum_i w_i(1) is not 0 in either family, and it is the
        # x^(n-1) coefficient's one number
        real = identities._slot_product
        monkeypatch.setattr(identities, "_slot_product", lambda *args: [F(0) if j == 1 else h_j
                                                                         for j, h_j in enumerate(real(*args))])
        assert [key for key, (lhs, rhs) in self._sides().items() if lhs == rhs] == []

    def test_corrupted_p1_at_zero_as_the_left_side_reads_it(self, monkeypatch):
        # the left side reads P_1(0) off the polynomial P_1(x), which no right
        # side of the nine reads: each left side moves, and no right side
        true_sides = self._sides()
        for family in ("bernoulli_poly", "euler_poly"):
            real = getattr(identities, family)
            monkeypatch.setattr(identities, family,
                                lambda l, real=real: poly([real(l)[0] + F(int(l == 1), 7), *real(l)[1:]]))
        sides = self._sides()
        assert [key for key in sides if sides[key][0] == true_sides[key][0]] == []
        assert all(sides[key][1] == true_sides[key][1] for key in sides)

    def test_dropped_scale(self, monkeypatch):
        # a scale of 1 cannot be dropped, so each display is checked, for
        # each default k, at its first default point where a scale of its
        # line is not 1
        scales = []

        def unscaled(real):
            def call(*args):
                *head, line_scales = args
                scales.extend(line_scales)
                return real(*head, [1] * len(line_scales))
            return call

        for helper in ("_jet_lhs", "_exponential_lhs"):
            monkeypatch.setattr(identities, helper, unscaled(getattr(identities, helper)))
        survivors, unit_scale = [], []
        for name, label in NUMBER_SERIES_LEFT:
            fn, args = _display(name, label)
            entry = REGISTRY[name]
            for kk in entry.default_ks or (None,):
                for pt in build_points(entry, k=kk):
                    scales.clear()
                    lhs, rhs = _at(fn, *args(pt))
                    if any(scale != 1 for scale in scales):
                        if lhs == rhs:
                            survivors.append((name, pt))
                        break
                else:
                    unit_scale.append((name, kk))
        assert survivors == [] and unit_scale == []


# Slot parameters of the exactness tests: each k takes the k-tuples that
# start at 7/3, 5/4 and 1/2 of this cycle.
SLOT_CYCLE = (F(7, 3), F(5, 4), F(1, 2), F(1), F(2))


def _reference_lhs(family, ns, weights, scales):
    """scale [t^n] prod_i sum_l weights[i][l] family(l) t^l at each n of the
    line: the schoolbook product of polynomial-coefficient series of
    `walks`, which forms every coefficient product by `poly_mul`."""
    coefficients = weighted_convolution(family, weights, max(ns))
    return [poly_scale(scale, coefficients[n]) for n, scale in zip(ns, scales)]


# The eps-slot weights, [eps^d] (eps)_l/l! at d = 1 and 2, as the reference
# states them.
EPS_WEIGHTS = {1: lambda top: [F(0), *(F(1, l) for l in range(1, top + 1))],
               2: lambda top: [F(0), *(harmonic(l - 1) / l for l in range(1, top + 1))]}


class TestNumberSeriesExactness:
    """The number-series left sides equal the schoolbook product of
    polynomial-coefficient series that they replace, exactly."""

    @pytest.mark.parametrize("family", [bernoulli_poly, euler_poly], ids=["B", "E"])
    @pytest.mark.parametrize("k", range(1, 6))
    def test_rising_slots(self, family, k):
        ns = range(41)
        for start in range(3):
            a_vec = (SLOT_CYCLE * 2)[start:start + k]
            weights = [exactmath.rising_weights(a, 40) for a in a_vec]
            for scales in ([factorial(n) / exactmath.pochhammer(sum(a_vec), n) for n in ns],
                           [F(n + 1, 3) for n in ns]):
                assert identities._jet_lhs(family, ns, a_vec, (), scales) == _reference_lhs(family, ns, weights, scales)

    @pytest.mark.parametrize("family", [bernoulli_poly, euler_poly], ids=["B", "E"])
    @pytest.mark.parametrize("k", [2, 3])
    def test_inverse_factorial_slots(self, family, k):
        ns = range(41)
        weights = [[F(1, factorial(l)) for l in ns]] * k
        for scales in ([factorial(n) for n in ns], [F(factorial(n), 2 ** n) for n in ns]):
            assert identities._exponential_lhs(family, ns, k, scales) == _reference_lhs(family, ns, weights, scales)

    @pytest.mark.parametrize("name, family", [("theorem2", bernoulli_poly), ("theorem4", euler_poly)])
    def test_a_theorem_line_to_the_largest_cli_n(self, name, family):
        # k = 3 at n = 0..70, and the line's right side agrees at each n
        a_vec, ns = SLOT_CYCLE[:3], range(71)
        sides = dict(REGISTRY[name].displays)[""](ns, a_vec, 3)
        weights = [exactmath.rising_weights(a, 70) for a in a_vec]
        scales = [factorial(n) / exactmath.pochhammer(sum(a_vec), n) for n in ns]
        assert [lhs for lhs, _ in sides] == _reference_lhs(family, ns, weights, scales)
        assert all(lhs == rhs for lhs, rhs in sides)

    @pytest.mark.parametrize("family", [bernoulli_poly, euler_poly], ids=["B", "E"])
    @pytest.mark.parametrize("fixed, orders", [
        *((fixed, orders) for orders in [(1,), (1, 1), (2, 1), (1, 1, 1)]
          for fixed in [(), (F(7, 3),), (F(1),), (F(2),)]),
        ((F(7, 3),), ()), ((F(7, 3), F(5, 4)), ()), ((F(1, 2), F(1), F(2)), ()),
    ], ids=str)
    def test_jet_slots(self, family, fixed, orders):
        # out of order, with gaps and repeats, to n = 30; orders () is a
        # Pochhammer line
        ns = [30, 4, 17, 0, 17, 2, 9, 1]
        weights = [*(exactmath.rising_weights(a, 30) for a in fixed), *(EPS_WEIGHTS[d](30) for d in orders)]
        scales = [F(n + 1, 3) if n % 2 else F(-2, n + 5) for n in ns]
        assert identities._jet_lhs(family, ns, fixed, orders, scales) == _reference_lhs(family, ns, weights, scales)


def _top_level_callers(source, names):
    """The module-level functions of a source that call one of `names`, by
    name or as an attribute, in their own body or a function nested in it."""
    return {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
            and any(isinstance(call, ast.Call) and getattr(call.func, "id", getattr(call.func, "attr", None)) in names
                    for call in ast.walk(node))}


class TestOneSubsetExpansion:
    """The subset expansion prod_i (A_i + s_i) - prod_i A_i is one kernel
    call, `subset_series`, in each function that reads it.  Lemmas 1 and 3,
    whose subset sum of shift operators is the statement, are one call
    each of the one kernel routine that walks shift subsets,
    `shift_subset_sum`."""

    def test_only_the_kernel_walks_shift_subsets(self):
        # no module names a subset walk; the one shift step, whose only
        # caller of `_taylor_shift` it is, is taken by the composition of
        # one operator and by the subset sum alone; and nothing but the
        # lemmas' left sides and `poly_shift` calls an operator
        assert not any(_read_names(source) & {"combinations", "_subsets"} for source in SOURCES.values())
        assert {name: found for name, source in SOURCES.items()
                if (found := _top_level_callers(source, {"_taylor_shift"}))} == {"exactmath.py": {"_operator_step"}}
        assert {name: found for name, source in SOURCES.items()
                if (found := _top_level_callers(source, {"_operator_step"}))} == {
            "exactmath.py": {"poly_shift_operator", "shift_subset_sum"}}
        operators = {"poly_shift_operator", "poly_shift", "apply_delta", "shift_subset_sum"}
        assert {name: found for name, source in SOURCES.items() if (found := _callers(source, operators))} == {
            "exactmath.py": {"poly_shift"}, "umbral.py": {"apply_delta", "verify_lemma1", "verify_lemma3"}}
        functions = {node.name: node for node in ast.parse(SOURCES["umbral.py"]).body if isinstance(node, ast.FunctionDef)}
        for verifier in ("verify_lemma1", "verify_lemma3"):
            calls = [call.func.id for call in ast.walk(functions[verifier])
                     if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)]
            assert calls.count("shift_subset_sum") == calls.count("apply_delta") == 1, verifier

    def test_the_shift_scan_sees_nested_calls(self):
        source = "def f(p):\n    def g():\n        return _operator_step(p)\n    return g\ndef h():\n    return 1\n"
        assert _top_level_callers(source, {"_operator_step"}) == {"f"}
        assert _callers(source, {"_operator_step"}) == {"g"}

    def test_the_three_users_call_the_kernel(self):
        assert {name: found for name, source in SOURCES.items() if (found := _callers(source, {"subset_series"}))} == {
            "identities.py": {"_subset_series_rhs", "_kth_matiyasevich"}, "umbral.py": {"_symbol_subset_sum"}}

    def test_no_second_subset_expansion_in_the_identities(self):
        imported = {alias.name for node in ast.walk(ast.parse(SOURCES["identities.py"]))
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not imported & {"poly_add", "_bernoulli_powers"}
        assert not hasattr(identities, "_bernoulli_powers")


# The 13 displays whose binomial sums are Appell sums.
APPELL_DISPLAYS = [
    ("theorem1", ""), ("theorem3", ""), ("corollary1", ""), ("corollary3", ""), ("corollary4", "a=1"),
    ("corollary4", "a=2"), ("eq-2-12", ""), ("corollary5", ""), ("corollary6", ""), ("eq-2-15", ""),
    ("corollary7", ""), ("corollary10", "first"), ("corollary10", "second"),
]
VANISHING = {"bernoulli_number", "euler_poly_at_zero"}


def _vanishing_term_tests(source):
    """The functions of a module source, innermost first, with a
    comprehension condition that calls bernoulli_number or
    euler_poly_at_zero or tests a factor list (a subscript)."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.comprehension) and any(
                    isinstance(sub, ast.Subscript)
                    or isinstance(sub, ast.Call) and getattr(sub.func, "id", None) in VANISHING
                    for condition in child.ifs for sub in ast.walk(condition)):
                found.add(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


# The functions that read a line of Appell polynomials: each display with a
# sum of polynomials with number weights (the right sides, and the left
# sides of corollary5 and corollary6) and the subset-series right side of
# theorems 2 and 4.
APPELL_READERS = {
    "_theorem1", "_theorem3", "_corollary1", "_corollary3", "_corollary4_first", "_corollary4_second", "_eq_2_12",
    "_corollary5", "_corollary6", "_eq_2_15", "_corollary7", "_eq_4_0a", "_eq_6_9", "_corollary8",
    "_corollary10_first", "_corollary10_second", "_corollary11_first", "_corollary11_second", "_subset_series_rhs",
}
# The left-side builders, which read no right side's number sequence.
LEFT_SIDE_BUILDERS = ("_exponential_lhs", "_jet_lhs", "_slot_product", "_theorem_lhs", "_harmonic_pair_sums")
# The helpers that formed and sliced Appell numbers in the display functions.
NUMERATOR_PLUMBING = ("_appell_numbers", "_plus_numbers", "_over_lcm", "Numbers")


class TestOneAppellSum:
    """Every binomial sum scale sum_l C(m, l) c_l B_{m-l}(x) is the Appell
    polynomial of numbers read off one series product per line
    (`_appell_line`), and no sum skips a vanishing term."""

    def test_one_reader_reads_every_appell_line(self):
        # no left-side builder reaches it, and no display expands Appell
        # numbers itself but corollary6, whose B_m(2x) is the Appell
        # polynomial of B_0..B_m at 2x and not a sum of the reader's form
        functions = TestConvolutionDesign._functions()
        assert _callers(SOURCES["identities.py"], {"_appell_line"}) == APPELL_READERS
        assert [name for name in LEFT_SIDE_BUILDERS if "_appell_line" in _reachable(functions, functions[name])] == []
        displays = {fn.__name__ for entry in REGISTRY.values() for _, fn in entry.displays}
        assert {name for name in displays if "appell" in _called_names(functions[name])} == {"_corollary6"}
        assert _callers(SOURCES["identities.py"], {"_number_form"}) == {"_appell_line", "_corollary6"}
        assert _callers(SOURCES["identities.py"], {"int_form"}) == {"_number_form", "_appell_line", "_exponential_lhs"}

    def test_the_numerator_plumbing_is_gone(self):
        tree = ast.parse(SOURCES["identities.py"])
        defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                    if isinstance(target, ast.Name)}
        assert "_appell_line" in defined and "REGISTRY" in defined
        assert defined & set(NUMERATOR_PLUMBING) == set()
        assert _read_names(SOURCES["identities.py"]) & set(NUMERATOR_PLUMBING) == set()

    def test_no_sum_skips_a_vanishing_term(self):
        assert _vanishing_term_tests(SOURCES["identities.py"]) == set()

    def test_no_term_generator_is_left(self):
        for name in ("_appell", "_centered_euler_pair"):
            assert not hasattr(identities, name), name

    def test_the_scan_sees_each_condition(self):
        source = (
            "def f(n):\n    return [l for l in range(n) if bernoulli_number(l)]\n"
            "def g(c, n):\n    return sum(c[l] for l in range(n) if c[l])\n"
            "def h(n):\n    def inner(m):\n        return [l for l in range(m) if l and euler_poly_at_zero(l)]\n"
            "    return inner\n"
            "def k(n):\n    return [l for l in range(n) if l % 2] + [bernoulli_number(l) for l in range(n)]\n"
        )
        assert _vanishing_term_tests(source) == {"f", "g", "inner"}

    @pytest.mark.parametrize("name, label", APPELL_DISPLAYS)
    def test_each_binomial_sum_is_an_appell_sum(self, name, label):
        # the display reads its line off `_appell_line`; no comprehension
        # but the one over the line's ns calls `binomial`, and no constant
        # term stands apart
        fn = TestConvolutionDesign._functions()[_display(name, label)[0].__name__]
        assert "_appell_line" in _called_names(fn)
        for node in ast.walk(fn):
            if isinstance(node, (ast.ListComp, ast.GeneratorExp)) and [
                    ast.unparse(gen.target) for gen in node.generators] != ["n"]:
                assert "binomial" not in _called_names(node), ast.unparse(node)
        assert "ONE" not in {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}


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

# the one checked single-point door of `eval_corollary` and the public evaluators
DOOR = "_sides_at"


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
        # the registry declares the private body behind the evaluator, which
        # takes the same arguments along a line, ns for n and k without a
        # default
        ((label, body),) = REGISTRY[name].displays
        assert label == "" and body.__name__.startswith("_") and getattr(identities, body.__name__) is body
        assert list(inspect.signature(body).parameters) == ["ns", *list(inspect.signature(fn).parameters)[1:]]

    def test_floats_and_strings_are_refused(self):
        for call in (lambda: eval_theorem1(2, 0.5, 1), lambda: eval_theorem2(2, [0.1, 1]),
                     lambda: gamma_sum_identity(2, "1/2"), lambda: eval_theorem4(2, (F(1), "1"))):
            with pytest.raises(DomainError, match="violates validity"):
                call()

    def test_a_list_a_vec_is_read_as_a_tuple(self):
        assert eval_theorem2(3, [1, F(1, 2)]) == eval_theorem2(3, (F(1), F(1, 2)), k=2)
        (report,) = verify("theorem4", [{"n": 3, "a_vec": [2, F(1, 2), 1]}])
        assert report.passed and report.inputs == {"n": 3, "a_vec": (F(2), F(1, 2), F(1)), "k": 3}

    def test_a_numbers_integer_is_read_as_an_int(self):
        # the rule of `exactmath.is_exact`: a NumPy integer is a
        # numbers.Integral, so it is a valid n, k or parameter, and a checked
        # point holds it as an int or a Fraction
        (report,) = verify("miki", [{"n": np.int64(4)}])
        assert report.passed and report.inputs == {"n": 4} and type(report.inputs["n"]) is int
        (report,) = verify("theorem2", [{"n": np.int32(3), "k": np.int64(2), "a_vec": (np.int64(2), F(1, 2))}])
        assert report.passed and report.inputs == {"n": 3, "k": 2, "a_vec": (F(2), F(1, 2))}
        assert [type(report.inputs[key]) for key in ("n", "k")] == [int, int]
        assert all(type(a) is Fraction for a in report.inputs["a_vec"])
        (report,) = verify("gamma-sum", [{"n": 2, "p": np.int64(3)}])
        assert report.passed and type(report.inputs["p"]) is Fraction
        # Fraction(np.int64(3)) keeps the NumPy numerator, whose products
        # wrap at 64 bits: theorem1 failed at n = 20, and left a wrapped
        # entry in the pochhammer memo for every later caller
        (report,) = verify("theorem1", [{"n": 20, "a": np.int64(3), "b": np.int64(5)}])
        assert report.passed and [type(report.inputs[key].numerator) for key in ("a", "b")] == [int, int]

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
            assert _called_names(node) == {DOOR}, fn.__name__


class TestOneCheckPerPoint:
    """Each point is checked once: `verify` checks its grid, and every
    single-point call, `eval_corollary` or a public evaluator, goes through
    one door that checks its point and evaluates only the requested
    display.  No declared function checks anything itself."""

    @pytest.fixture
    def checks(self, monkeypatch):
        """The names that `_checked` is called with, in order."""
        names = []
        real = identities._checked

        def counted(name, *args, **kwargs):
            names.append(name)
            return real(name, *args, **kwargs)

        monkeypatch.setattr(identities, "_checked", counted)
        monkeypatch.setattr(cli, "_checked", counted)
        return names

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_verify_checks_its_grid_once(self, name, checks):
        reports = verify(name, build_points(REGISTRY[name])[:3])
        assert reports and all(r.passed for r in reports)
        assert checks == [name]

    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_a_single_point_call_checks_once(self, name, checks):
        pt = build_points(REGISTRY[name])[0]
        lhs, rhs = eval_corollary(name, pt["n"], {key: v for key, v in pt.items() if key != "n"})
        assert lhs == rhs and checks == [name]
        if name in PUBLIC_EVALUATORS:
            checks.clear()
            fn = PUBLIC_EVALUATORS[name][0]
            args = [pt[key] for key in REGISTRY[name].param_names]
            assert fn(pt["n"], *args) == fn(pt["n"], *args, *((pt["k"],) if "k" in pt else ()))
            assert checks == [name, name]

    def test_a_verify_all_run_checks_once_per_entry(self, checks):
        out = io.StringIO()
        assert cli.run(cli.RunConfig("verify-all", format="json"), out=out) == 0
        assert checks == list(REGISTRY)

    def test_a_verify_all_run_evaluates_once_per_line(self):
        # one `evaluate` call per (k, parameter set) line of the default
        # grids, each with every n of the line: the 73 lines of the grid
        lines = []

        def counted(entry):
            def evaluate(line, real=entry.evaluate):
                lines.append((entry.name, [pt["n"] for pt in line]))
                return real(line)
            return dataclasses.replace(entry, evaluate=evaluate)

        registry = {name: counted(entry) for name, entry in REGISTRY.items()}
        assert cli.run(cli.RunConfig("verify-all", format="json"), out=io.StringIO(), registry=registry) == 0
        assert lines == [(name, list(entry.default_n(k))) for name, entry in REGISTRY.items()
                         for k in entry.default_ks or (None,) for _ in entry.default_param_sets(k)]
        assert len(lines) == 73

    def test_a_verify_run_checks_its_lookup_and_its_grid(self, checks):
        out = io.StringIO()
        assert cli.run(cli.RunConfig("verify", identity="theorem2", n_range=range(0, 5), k=3), out=out) == 0
        assert checks == ["theorem2", "theorem2"]

    @pytest.mark.parametrize("name, wanted", [("corollary4", "a=1"), ("corollary4", "a=2"), ("corollary4", None),
                                              ("corollary11", "second"), ("corollary11", None)])
    def test_only_the_requested_display_is_evaluated(self, name, wanted, monkeypatch):
        entry = REGISTRY[name]
        first = entry.displays[0][0]

        def refuse(*args):
            raise AssertionError("an unrequested display was evaluated")

        displays = tuple((label, fn if label == (wanted or first) else refuse) for label, fn in entry.displays)
        monkeypatch.setitem(REGISTRY, name, dataclasses.replace(entry, displays=displays))
        params = {} if wanted is None else {"display": wanted}
        lhs, rhs = eval_corollary(name, 4, params)
        assert lhs == rhs != ZERO
        # `verify` evaluates every display: the refusal is raised, and
        # reported as an error of each display at the point
        reports = verify(name, [{"n": 4}])
        assert [r.status for r in reports] == ["error"] * len(displays)
        assert all(r.error.endswith("AssertionError: an unrequested display was evaluated") for r in reports)

    def test_no_declared_function_checks(self):
        functions = TestConvolutionDesign._functions()
        for name, entry in REGISTRY.items():
            for label, fn in entry.displays:
                assert not _called_names(functions[fn.__name__]) & {"_checked", DOOR}, (name, label)
        assert _callers(SOURCES["identities.py"], {"_checked"}) == {"verify", DOOR}
        assert _callers(SOURCES["identities.py"], {DOOR}) == {
            "eval_corollary", *(fn.__name__ for fn, _ in PUBLIC_EVALUATORS.values())}

    def test_each_public_evaluator_is_one_door_call(self):
        functions = TestConvolutionDesign._functions()
        for name, (fn, _) in PUBLIC_EVALUATORS.items():
            node = functions[fn.__name__]
            body = node.body[1:] if ast.get_docstring(node) else node.body
            assert len(body) == 1 and isinstance(body[0], ast.Return), fn.__name__
            call = body[0].value
            assert isinstance(call, ast.Call) and call.func.id == DOOR, fn.__name__
            assert call.args[0].value == name, fn.__name__
