"""Acceptance gate: one test per shipped criterion.

Each test prints a single `CRITERION n: PASS` / `FAIL` line on the real
terminal (outside pytest capture) so the gate can be read off the run log,
then asserts the same condition so pytest records it too.  Tolerances are
exact equality everywhere except the Monte Carlo layer, which is pinned at
4 standard errors with a fixed seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from bek.cli import RunConfig, run
from bek.exactmath import binomial, poly, poly_add
from bek.identities import (
    REGISTRY,
    build_points,
    eval_theorem1,
    eval_theorem2,
    eval_theorem3,
    eval_theorem4,
    gamma_sum_identity,
    verify,
)
from bek.sequences import bernoulli_number, bernoulli_poly, euler_poly
from bek.stochastic import MomentQuery, dirichlet_moment_mc, normalization_check
from bek.umbral import (
    X,
    bernoulli_symbol,
    discrete_symbol,
    euler_symbol,
    umbral_eval,
    umbral_pow,
    uniform_symbol,
    verify_annihilation,
    verify_general_f,
    verify_lemma1,
    verify_lemma2,
    verify_lemma3,
    verify_lemma4,
)

F = Fraction

PAIR_GRID = {(F(1), F(1)), (F(2), F(1)), (F(1, 2), F(3, 2)), (F(7, 3), F(5, 4))}
P_GRID = {F(1, 2), F(1), F(3, 2), F(2), F(7, 3)}
MC_QUERIES = (
    ((F(1), F(1)), (1, 1)),
    ((F(1), F(2), F(1, 2)), (2, 1, 3)),
    ((F(2), F(2), F(2), F(2)), (1, 1, 1, 1)),
)

# sha256 of `bek verify-all --format json`.  The output is the behaviour
# contract of every refactor (each coefficient of each report), so this
# digest only changes with a change that alters the output on purpose, such
# as a new default grid, and that change says so.
VERIFY_ALL_JSON_SHA256 = "8d717d4bf277b593aeab3fa8bf35dc960082ff4f3c963a445577793e388a1aa0"

TABLE_B = ["1", "-1/2", "1/6", "0", "-1/30", "0", "1/42"]
TABLE_E = ["1", "0", "-1", "0", "5", "0", "-61"]
TABLE_G = ["0", "1", "-1", "0", "1", "0", "-3"]
TABLE_B_POLYS = [
    ["1"],
    ["-1/2", "1"],
    ["1/6", "-1", "1"],
    ["0", "1/2", "-3/2", "1"],
    ["-1/30", "0", "1", "-2", "1"],
    ["0", "-1/6", "0", "5/3", "-5/2", "1"],
    ["1/42", "0", "-1/2", "0", "5/2", "-3", "1"],
]
TABLE_E_POLYS = [
    ["1"],
    ["-1/2", "1"],
    ["0", "-1", "1"],
    ["1/4", "0", "-3/2", "1"],
    ["0", "1", "0", "-2", "1"],
    ["-1/2", "0", "5/2", "0", "-5/2", "1"],
    ["0", "-3", "0", "5", "0", "-3", "1"],
]


@contextmanager
def _criterion(label: str, capsys):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\n{label}: FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"\n{label}: PASS", flush=True)


def _verify_default(name: str):
    return verify(name)


def _all_pass(reports) -> bool:
    return bool(reports) and all(r.passed for r in reports)


def _rand_fracs(rng: random.Random, count: int) -> list[Fraction]:
    return [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(count)]


def _sum_one_tuple(rng: random.Random, k: int) -> tuple[Fraction, ...]:
    head = _rand_fracs(rng, k - 1) if k > 1 else []
    return tuple(head) + (1 - sum(head, F(0)),)


def _rand_poly(rng: random.Random, degree: int) -> list[Fraction]:
    coeffs = _rand_fracs(rng, degree)
    lead = F(rng.randint(1, 6), rng.randint(1, 6))
    return poly(coeffs + [lead])


def test_criterion_01_reference_tables(capsys):
    with _criterion("CRITERION 1 (reference tables)", capsys):
        started = time.perf_counter()
        out = io.StringIO()
        code = run(RunConfig(command="tables", max_n=6, format="json"), out=out)
        elapsed = time.perf_counter() - started
        assert code == 0
        rows = json.loads(out.getvalue())["rows"]
        assert [r["n"] for r in rows] == list(range(7))
        assert [r["B"] for r in rows] == TABLE_B
        assert [r["E"] for r in rows] == TABLE_E
        assert [r["G"] for r in rows] == TABLE_G
        assert [r["B_poly"] for r in rows] == TABLE_B_POLYS
        assert [r["E_poly"] for r in rows] == TABLE_E_POLYS
        assert elapsed < 1.0


def test_criterion_02_two_parameter_bernoulli_convolution(capsys):
    with _criterion("CRITERION 2 (two-parameter Bernoulli convolution)", capsys):
        started = time.perf_counter()
        reports = _verify_default("theorem1")
        elapsed = time.perf_counter() - started
        assert {r.inputs["n"] for r in reports} == set(range(1, 31))
        assert {(r.inputs["a"], r.inputs["b"]) for r in reports} == PAIR_GRID
        assert len(reports) == 120
        assert _all_pass(reports)
        assert elapsed < 10.0


def test_criterion_03_k_fold_bernoulli_convolution(capsys):
    with _criterion("CRITERION 3 (k-fold Bernoulli convolution)", capsys):
        started = time.perf_counter()
        reports = _verify_default("theorem2")
        assert _all_pass(reports)
        n_max = {2: 20, 3: 14, 4: 10}
        vecs_by_k: dict[int, set] = {}
        for r in reports:
            k = r.inputs["k"]
            assert 0 <= r.inputs["n"] <= n_max[k]
            vecs_by_k.setdefault(k, set()).add(tuple(r.inputs["a_vec"]))
        for k, vecs in sorted(vecs_by_k.items()):
            assert len(vecs) >= 3
            assert tuple(F(1) for _ in range(k)) in vecs
        for a_vec in sorted(vecs_by_k[2]):
            for n in range(1, 21):
                assert eval_theorem2(n, a_vec) == eval_theorem1(n, a_vec[0], a_vec[1])
        linear = _verify_default("eq-4-0a")
        assert {r.inputs["n"] for r in linear} == set(range(3, 13))
        assert _all_pass(linear)
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0


def test_criterion_04_euler_family_convolutions(capsys):
    with _criterion("CRITERION 4 (Euler-family convolutions)", capsys):
        euler_pair = _verify_default("theorem3")
        assert {r.inputs["n"] for r in euler_pair} == set(range(1, 31))
        assert {(r.inputs["a"], r.inputs["b"]) for r in euler_pair} == PAIR_GRID
        assert _all_pass(euler_pair)
        mixed = _verify_default("theorem4")
        assert _all_pass(mixed)
        ks = {r.inputs["k"] for r in mixed}
        assert {2, 3, 4} <= ks
        for a_vec in sorted({tuple(r.inputs["a_vec"]) for r in mixed if r.inputs["k"] == 2}):
            for n in range(1, 21):
                assert eval_theorem4(n, a_vec) == eval_theorem3(n, a_vec[0], a_vec[1])
        for a in (F(1), F(1, 2), F(7, 3)):
            for n in range(0, 13):
                lhs, rhs = eval_theorem4(n, (a,), k=1)
                assert lhs == rhs


def test_criterion_05_classical_quadratic_identities(capsys):
    with _criterion("CRITERION 5 (classical quadratic identities)", capsys):
        linear = verify("euler-1-2", build_points(REGISTRY["euler-1-2"], tuple(range(1, 61)), None, None))
        assert len(linear) == 60 and _all_pass(linear)
        for name, value in (("miki", F(-5, 144)), ("matiyasevich", F(-2, 3))):
            entry = REGISTRY[name]
            reports = verify(name, build_points(entry, tuple(range(4, 61, 2)), None, None))
            assert len(reports) == 29 and _all_pass(reports)
            ((_, lhs, rhs),) = entry.evaluate({"n": 4})
            assert lhs == rhs == poly([value])


def test_criterion_06_corollary_sweep(capsys):
    with _criterion("CRITERION 6 (corollary sweep)", capsys):
        names = [f"corollary{i}" for i in range(1, 12)] + ["eq-2-12", "eq-2-15", "eq-6-9"]
        by_name = {name: _verify_default(name) for name in names}
        for name, reports in by_name.items():
            assert _all_pass(reports), name
        assert {r.inputs["n"] for r in by_name["corollary2"]} == set(range(4, 61, 2))
        assert max(r.inputs["n"] for r in by_name["corollary9"]) == 60
        for name in ("corollary1", "corollary5", "eq-2-12", "eq-2-15"):
            assert max(r.inputs["n"] for r in by_name[name]) == 30
        eps_reports = by_name["eq-6-9"]
        assert {r.inputs["epsilon"] for r in eps_reports} == {F(1), F(1, 2), F(3)}
        assert {r.inputs["n"] for r in eps_reports} == set(range(2, 21))


def test_criterion_07_normalized_ratio_identities(capsys):
    with _criterion("CRITERION 7 (normalized ratio identities)", capsys):
        for name in ("dunne-schubert", "eq-7-2"):
            reports = _verify_default(name)
            assert {r.inputs["n"] for r in reports} == set(range(2, 16))
            assert {r.inputs["p"] for r in reports} == P_GRID
            assert _all_pass(reports)
        assert _all_pass(_verify_default("miki"))
        for n in range(2, 13):
            lhs = sum(bernoulli_number(2 * l) * bernoulli_number(2 * n - 2 * l)
                      for l in range(1, n + 1))
            rhs = F(1, n + 1) * sum(
                binomial(2 * n + 2, 2 * l + 2) * bernoulli_number(2 * l) * bernoulli_number(2 * n - 2 * l)
                for l in range(1, n + 1)
            ) + 2 * n * bernoulli_number(2 * n)
            assert lhs == rhs
        ratio = _verify_default("gamma-sum")
        assert {r.inputs["n"] for r in ratio} == set(range(1, 31))
        assert {r.inputs["p"] for r in ratio} == P_GRID
        assert _all_pass(ratio)
        lhs, rhs = gamma_sum_identity(1, F(1))
        assert lhs == rhs == F(1, 3)


def test_criterion_08_symbolic_layer(capsys):
    with _criterion("CRITERION 8 (symbolic layer)", capsys):
        for n in range(1, 51):
            assert verify_annihilation((bernoulli_symbol(), uniform_symbol()), n)
            assert verify_annihilation((euler_symbol(), discrete_symbol()), n)
        for n in range(0, 31):
            assert umbral_eval(umbral_pow([(1, X), (1, bernoulli_symbol())], n)) == bernoulli_poly(n)
            assert umbral_eval(umbral_pow([(1, X), (1, euler_symbol())], n)) == euler_poly(n)
        for k in range(1, 5):
            rng = random.Random(1000 + k)
            for _ in range(10):
                shifts = _rand_fracs(rng, k)
                for m in range(0, 11):
                    monomial = poly([0] * m + [1])
                    assert verify_lemma1(k, shifts, monomial)
                    assert verify_lemma3(k, shifts, monomial)
        for k in (2, 3):
            for n in range(0, 13):
                rng = random.Random(2000 + 13 * k + n)
                f = _rand_poly(rng, n)
                for _ in range(20):
                    u = _sum_one_tuple(rng, k)
                    assert verify_lemma2(k, u, n)
                    assert verify_lemma4(k, u, n)
                    assert verify_general_f(k, u, f)


def test_criterion_09_stochastic_layer(capsys):
    with _criterion("CRITERION 9 (stochastic layer)", capsys):
        started = time.perf_counter()
        for a_vec in ((F(1), F(1)), (F(1), F(2), F(1, 2)), (F(2), F(2), F(2), F(2))):
            for n in range(0, 13):
                assert normalization_check(a_vec, n) == 1
        for a_vec, l_vec in MC_QUERIES:
            estimate = dirichlet_moment_mc(MomentQuery(a_vec, l_vec, 1_000_000, 42))
            assert estimate.within(4.0)
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0


def test_criterion_10_mutation_detection(capsys):
    with _criterion("CRITERION 10 (mutation detection)", capsys):
        original = REGISTRY["euler-1-2"].evaluate

        def sign_flipped(line):
            # flips -n*B_{n-1} to +n*B_{n-1} on the closed-form side, at
            # each point of the line
            return [(label, lhs, poly_add(rhs, poly([2 * pt["n"] * bernoulli_number(pt["n"] - 1)])))
                    for pt, (label, lhs, rhs) in zip(line, original(line), strict=True)]

        registry = dict(REGISTRY)
        registry["euler-1-2"] = dataclasses.replace(REGISTRY["euler-1-2"], evaluate=sign_flipped)
        out = io.StringIO()
        code = run(
            RunConfig(command="verify", identity="euler-1-2",
                      n_range=tuple(range(1, 13)), format="json"),
            registry=registry, out=out,
        )
        assert code == 1
        reports = json.loads(out.getvalue())
        assert any(r["status"] == "fail" for r in reports)
        clean = verify("euler-1-2", build_points(REGISTRY["euler-1-2"], tuple(range(1, 13)), None, None))
        assert _all_pass(clean)
        # every entry, at its first default point: a small rational added to
        # the right side's constant or top coefficient must be caught
        delta = F(1, 997)
        for name, entry in REGISTRY.items():
            point = build_points(entry)[0]
            assert _all_pass(verify(name, [point]))
            for top in (False, True):
                def perturbed(pt, evaluate=entry.evaluate, top=top):
                    out = []
                    for label, lhs, rhs in evaluate(pt):
                        power = max(len(rhs) - 1, 0) if top else 0
                        out.append((label, lhs, poly_add(rhs, poly([0] * power + [delta]))))
                    return out

                registry = {name: dataclasses.replace(entry, evaluate=perturbed)}
                reports = verify(name, [point], registry=registry)
                assert reports and all(r.status == "fail" for r in reports), (name, top)


def test_full_sweep_budget(capsys):
    with _criterion("FULL SWEEP BUDGET (all entries < 5 min)", capsys):
        out = io.StringIO()
        started = time.perf_counter()
        code = run(RunConfig(command="verify-all", format="json"), out=out)
        elapsed = time.perf_counter() - started
        assert code == 0
        reports = json.loads(out.getvalue())
        assert len(reports) > 1000
        assert all(r["status"] == "pass" for r in reports)
        assert {r["identity"] for r in reports} == set(REGISTRY)
        assert elapsed < 300.0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == VERIFY_ALL_JSON_SHA256
