"""Tests of the benchmark's own checkers, at tiny sizes.

    python3 -m pytest -q perfbench/test_checks.py

Each workload runs on tiny inputs and passes its checks; each checker
rejects an output with one value corrupted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import spans
import workloads
from workloads import Output

bek = workloads.import_bek()

TINY_SWEEP = ("euler-1-2", "corollary1", "corollary2", "theorem1", "corollary4", "theorem2", "gamma-sum")


def tiny_sweep_inputs(seed: int) -> list[dict]:
    return [
        {**inv, "n": inv["n"][:3]}
        for inv in workloads.sweep_inputs(seed)
        if inv["identity"] in TINY_SWEEP and inv["k"] in (None, 2)
    ]


def _tiny_umbral_check(check: list) -> bool:
    kind, arg = check[0], check[1]
    if kind == "annihilation":
        return check[2] <= 3
    if kind in ("lemma1", "lemma3"):
        return arg <= 2 and len(check[3]) <= 4
    if kind in ("lemma2", "lemma4"):
        return arg == 2 and check[3] <= 3
    return arg == 2 and len(check[3]) <= 4  # general_f: f of degree <= 3


def tiny_umbral_inputs(seed: int) -> dict:
    inputs = workloads.umbral_inputs(seed)
    return {"checks": [c for c in inputs["checks"] if _tiny_umbral_check(c)], "symbol_eval_max_n": 5}


@pytest.fixture(scope="module")
def sweep_run():
    inputs = tiny_sweep_inputs(5)
    return inputs, workloads.run_sweep(bek, inputs)


@pytest.fixture(scope="module")
def tables_run():
    inputs = {**workloads.tables_inputs(5), "max_n": 12}
    return inputs, workloads.run_tables(bek, inputs)


@pytest.fixture(scope="module")
def umbral_run():
    inputs = tiny_umbral_inputs(5)
    return inputs, workloads.run_umbral(bek, inputs)


@pytest.fixture(scope="module")
def mc_run():
    # fewer samples for the three shape queries; the concentrated query keeps its own
    queries = workloads.mc_inputs(5)
    inputs = [{**q, "samples": 20_000} for q in queries[:-1]] + queries[-1:]
    return inputs, workloads.run_mc(bek, inputs)


def _edit(outputs: list[Output], index: int, change) -> list[Output]:
    doc = json.loads(outputs[index].text)
    change(doc)
    edited = list(outputs)
    edited[index] = Output(outputs[index].code, json.dumps(doc))
    return edited


def _bump(cells: list[str], i: int) -> None:
    cells[i] = str(Fraction(cells[i]) + Fraction(1, 7))


def test_sweep_passes(sweep_run):
    inputs, outputs = sweep_run
    verdict = checks.check_sweep(inputs, outputs, seed=5)
    assert verdict.errors == []
    assert verdict.failed == 0
    assert verdict.attempted == workloads.sweep_items(inputs) > 0


def test_sweep_rejects_one_perturbed_coefficient(sweep_run):
    inputs, outputs = sweep_run
    index = next(i for i, inv in enumerate(inputs) if inv["identity"] == "theorem2")
    corrupted = _edit(outputs, index, lambda reports: _bump(reports[-1]["rhs"], 0))
    verdict = checks.check_sweep(inputs, corrupted, seed=5)
    assert verdict.failed == 1
    assert verdict.errors


def test_sweep_rejects_a_missing_report(sweep_run):
    inputs, outputs = sweep_run
    verdict = checks.check_sweep(inputs, _edit(outputs, 0, lambda reports: reports.pop()), seed=5)
    assert verdict.failed == 1
    assert verdict.errors


def test_sympy_recomputation_sees_a_wrong_left_side(sweep_run):
    inputs, outputs = sweep_run
    for inv, out in zip(inputs, outputs):
        for report in json.loads(out.text):
            key = checks._key(report["identity"], report["inputs"])
            if report["identity"] in checks.SYMPY_ENTRIES:
                lhs = checks.poly_of(report["lhs"])
                assert checks.sympy_lhs(key) == lhs
                assert checks.sympy_lhs(key) != lhs + [Fraction(1)]


def test_tables_pass(tables_run):
    inputs, outputs = tables_run
    verdict = checks.check_tables(inputs, outputs)
    assert (verdict.attempted, verdict.failed, verdict.errors) == (13, 0, [])


@pytest.mark.parametrize("column", ["B_poly", "E_poly", "B", "E", "G"])
def test_tables_reject_one_perturbed_value(tables_run, column):
    inputs, outputs = tables_run

    def corrupt(doc):
        row = doc["rows"][9]
        if isinstance(row[column], list):
            _bump(row[column], 3)
        else:
            row[column] = str(Fraction(row[column]) + 1)

    verdict = checks.check_tables(inputs, _edit(outputs, 0, corrupt))
    assert verdict.failed >= 1
    assert verdict.errors


def test_polynomial_relations_fix_the_polynomials():
    # B_2(x) = x^2 - x + 1/6 and E_2(x) = x^2 - x; shifting either constant breaks them.
    assert checks.bernoulli_poly_ok(2, [Fraction(1, 6), Fraction(-1), Fraction(1)])
    assert not checks.bernoulli_poly_ok(2, [Fraction(1, 5), Fraction(-1), Fraction(1)])
    assert checks.euler_poly_ok(2, [Fraction(0), Fraction(-1), Fraction(1)])
    assert not checks.euler_poly_ok(2, [Fraction(1, 9), Fraction(-1), Fraction(1)])


def test_umbral_passes(umbral_run):
    inputs, outputs = umbral_run
    verdict = checks.check_umbral(inputs, outputs)
    assert verdict.errors == []
    assert verdict.attempted == workloads.umbral_items(inputs)


def test_umbral_rejects_a_false_result_and_a_wrong_evaluation(umbral_run):
    inputs, outputs = umbral_run

    def corrupt(doc):
        doc["results"][4] = False
        _bump(doc["symbol_eval"]["euler"][4], 2)

    verdict = checks.check_umbral(inputs, _edit(outputs, 0, corrupt))
    assert verdict.failed == 2
    assert len(verdict.errors) == 2


def test_mc_counts_only_the_concentrated_query(mc_run):
    inputs, outputs = mc_run
    verdict = checks.check_mc(inputs, outputs)
    assert (verdict.attempted, verdict.failed, verdict.errors) == (4, 1, [])
    assert json.loads(outputs[-1].text)[0]["stderr"] == 0.0


def test_mc_rejects_a_mean_moved_by_ten_standard_errors(mc_run):
    inputs, outputs = mc_run

    def corrupt(rows):
        rows[0]["mean"] += 10 * rows[0]["stderr"]

    verdict = checks.check_mc(inputs, _edit(outputs, 0, corrupt))
    assert verdict.failed == 2
    assert verdict.errors


def test_mc_rejects_a_wrong_exact_moment(mc_run):
    inputs, outputs = mc_run

    def corrupt(rows):
        rows[0]["exact"] = "1/3"

    assert checks.check_mc(inputs, _edit(outputs, 1, corrupt)).errors


def closure_umbral_inputs(seed: int) -> dict:
    """The k = 3 subset checks at n = 6, 7: large enough that the verifiers'
    own argument handling is a small part of the round, as in the workload."""
    inputs = workloads.umbral_inputs(seed)

    def degree(check: list) -> int:
        return check[3] if check[0] in ("lemma2", "lemma4") else len(check[3]) - 1

    checks_ = [c for c in inputs["checks"]
               if c[0] in ("lemma2", "lemma4", "general_f") and c[1] == 3 and degree(c) in (6, 7)]
    return {"checks": checks_, "symbol_eval_max_n": 5}


def test_traced_round_passes_the_closure_check():
    import worker

    inputs = closure_umbral_inputs(9)
    outputs, sampler, _, figures = worker.traced_round(workloads.WORKLOADS["umbral"], inputs)
    assert checks.check_umbral(inputs, outputs).errors == []
    assert figures["umbral.verify_general_f.s"] > 0
    assert abs(figures["trace.unattributed_s"]) <= 0.05 * sampler.wall_s + 0.01
    assert figures["trace.catch_all_s"] <= spans.CATCH_ALL_SHARE * sampler.wall_s
    # the wrappers are gone again
    assert not hasattr(bek.umbral.umbral_pow, "__wrapped__")
    assert not hasattr(bek.umbral.UmbralExpr.__add__, "__wrapped__")


def test_closure_check_fails_when_a_layer_is_not_wrapped(monkeypatch):
    import worker

    monkeypatch.setattr(spans, "LAYER_METHODS", ())
    inputs = closure_umbral_inputs(9)
    _, sampler, _, figures = worker.traced_round(workloads.WORKLOADS["umbral"], inputs)
    assert figures["trace.catch_all_s"] > spans.CATCH_ALL_SHARE * sampler.wall_s


def test_run_without_sources_exits_nonzero_without_a_result(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
