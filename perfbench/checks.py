"""Output checks made apart from the program.

Nothing here imports `bek`.  Every emitted document is parsed back into
exact rationals and checked against properties the mathematics fixes, or
against an independent computation (SymPy for the sweep's plain
product-sum entries, rising factorials for the Monte Carlo moments).
No check compares against a saved copy of earlier output.

Each checker returns a Verdict: the operations attempted, the ones that
failed, and the errors that make the output wrong.  Every failed report,
row or check of the exact workloads is also an error.  A Monte Carlo query
that misses its statistical tolerance is a failed operation but not an
error: the program then says so itself, and that is correct output.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

SIGMA = 4.0
SYMPY_POINTS_PER_ENTRY = 2
SYMPY_ENTRIES = ("corollary1", "corollary2", "euler-1-2", "theorem1")

_RATIONAL = re.compile(r"^-?\d+(/[1-9]\d*)?$")


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def error(self, message: str, failed: int = 1) -> None:
        self.failed += failed
        self.errors.append(message)


def rational(text: str) -> Fraction:
    if not isinstance(text, str) or not _RATIONAL.match(text):
        raise ValueError(f"not an exact rational: {text!r}")
    return Fraction(text)


def poly_of(cells: list) -> list[Fraction]:
    """Ascending coefficients, trailing zeros dropped."""
    out = [rational(c) for c in cells]
    while out and out[-1] == 0:
        out.pop()
    return out


# ---------------------------------------------------------------------------
# Bernoulli and Euler polynomials, by the relations that fix them
# ---------------------------------------------------------------------------


def _integer_form(coeffs: list[Fraction]) -> tuple[list[int], int]:
    d = lcm(*(c.denominator for c in coeffs)) if coeffs else 1
    return [int(c * d) for c in coeffs], d


def _shift_by_one(c: list[int]) -> list[int]:
    """Coefficients of p(x + 1) from those of p(x), in integers."""
    a = list(c)
    m = len(a)
    for i in range(m - 1):
        for j in range(m - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def bernoulli_poly_ok(n: int, coeffs: list[Fraction]) -> bool:
    """B_n(x+1) - B_n(x) = n x^(n-1) and, for n >= 1, the integral over [0, 1] is 0.

    The difference equation fixes B_n up to a constant and the integral
    fixes the constant; B_0 = 1.
    """
    if n == 0:
        return coeffs == [1]
    c, d = _integer_form(coeffs)
    diff = [s - v for s, v in zip(_shift_by_one(c), c)]
    target = [0] * max(len(diff), n)
    target[n - 1] = n * d
    diff += [0] * (len(target) - len(diff))
    if diff != target:
        return False
    return sum(Fraction(v, i + 1) for i, v in enumerate(coeffs)) == 0


def euler_poly_ok(n: int, coeffs: list[Fraction]) -> bool:
    """E_n(x) + E_n(x+1) = 2 x^n, which has exactly one polynomial solution."""
    c, d = _integer_form(coeffs)
    total = [s + v for s, v in zip(_shift_by_one(c), c)]
    target = [0] * max(len(total), n + 1)
    target[n] = 2 * d
    total += [0] * (len(target) - len(total))
    return total == target


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def check_tables(inputs: dict, outputs: list) -> Verdict:
    max_n = inputs["max_n"]
    v = Verdict(attempted=max_n + 1)
    (out,) = outputs
    try:
        doc = json.loads(out.text)
        rows = doc["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        v.error(f"tables: unreadable output: {exc}", failed=max_n + 1)
        return v
    if out.code != 0:
        v.errors.append(f"tables: exit code {out.code}")
    if doc.get("max_n") != max_n or [r.get("n") for r in rows] != list(range(max_n + 1)):
        v.error("tables: rows do not run over n = 0..max_n", failed=0)
        return v
    euler_at_zero: list[Fraction] = []
    for row in rows:
        n = row["n"]
        try:
            bp, ep = poly_of(row["B_poly"]), poly_of(row["E_poly"])
            numbers = {key: rational(row[key]) for key in ("B", "E", "G")}
        except (ValueError, KeyError) as exc:
            v.error(f"tables: row {n} unreadable: {exc}")
            euler_at_zero.append(Fraction(0))
            continue
        euler_at_zero.append(ep[0] if ep else Fraction(0))
        problems = []
        if not bernoulli_poly_ok(n, bp):
            problems.append("B_n(x)")
        if not euler_poly_ok(n, ep):
            problems.append("E_n(x)")
        if numbers["B"] != (bp[0] if bp else 0):
            problems.append("B_n != B_n(0)")
        if numbers["E"] != 2**n * _eval(ep, Fraction(1, 2)):
            problems.append("E_n != 2^n E_n(1/2)")
        if numbers["G"] != (n * euler_at_zero[n - 1] if n else 0):
            problems.append("G_n != n E_{n-1}(0)")
        if problems:
            v.error(f"tables: row {n}: " + ", ".join(problems))
    return v


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _key(identity: str, inputs: dict) -> tuple:
    items = []
    for name, value in inputs.items():
        if name in ("n", "k"):
            value = int(value)
        elif name == "display":
            if not value:
                continue
        elif isinstance(value, (list, tuple)):
            value = tuple(rational(str(x)) for x in value)
        else:
            value = rational(str(value))
        items.append((name, value))
    return (identity, tuple(sorted(items, key=lambda it: it[0])))


def expected_reports(invocations: list[dict]) -> Counter:
    expected: Counter = Counter()
    for inv in invocations:
        for n in inv["n"]:
            for display in inv["displays"]:
                inputs = {"n": n, **inv["params"], "display": display}
                if inv["k"] is not None:
                    inputs["k"] = inv["k"]
                expected[_key(inv["identity"], inputs)] += 1
    return expected


def check_sweep(invocations: list[dict], outputs: list, seed: int) -> Verdict:
    expected = expected_reports(invocations)
    v = Verdict(attempted=sum(expected.values()))
    seen: Counter = Counter()
    lhs_of: dict[tuple, list[Fraction]] = {}
    for inv, out in zip(invocations, outputs):
        try:
            reports = json.loads(out.text)
        except ValueError as exc:
            v.errors.append(f"sweep: {inv['identity']}: unreadable output ({exc})")
            continue
        all_pass = True
        for r in reports:
            try:
                key = _key(r["identity"], r["inputs"])
                lhs, rhs, diff = (poly_of(r[side]) for side in ("lhs", "rhs", "difference"))
            except (ValueError, KeyError, TypeError) as exc:
                v.error(f"sweep: {inv['identity']}: unreadable report ({exc})")
                all_pass = False
                continue
            seen[key] += 1
            lhs_of[key] = lhs
            if lhs != rhs or diff or r["status"] != "pass":
                v.error(f"sweep: {key}: lhs != rhs or a failing status")
                all_pass = False
        if out.code != (0 if all_pass else 1):
            v.errors.append(f"sweep: {inv['identity']}: exit code {out.code}")
    missing = expected - seen
    if missing:
        v.error(f"sweep: {sum(missing.values())} expected reports missing, e.g. {next(iter(missing))}",
                failed=sum(missing.values()))
    extra = seen - expected
    if extra:
        v.errors.append(f"sweep: {sum(extra.values())} reports not in the grid, e.g. {next(iter(extra))}")
    for key in sympy_sample(invocations, seed, SYMPY_POINTS_PER_ENTRY):
        if key in lhs_of and lhs_of[key] != sympy_lhs(key):
            v.error(f"sweep: {key}: left side differs from the SymPy recomputation")
    return v


def sympy_sample(invocations: list[dict], seed: int, per_entry: int) -> list[tuple]:
    """A seeded choice of grid points of the plain product-sum entries."""
    rng = random.Random(seed)
    keys = []
    for name in SYMPY_ENTRIES:
        points = sorted(
            (k for k in expected_reports([inv for inv in invocations if inv["identity"] == name])),
            key=repr,
        )
        keys += rng.sample(points, min(per_entry, len(points)))
    return keys


def sympy_lhs(key: tuple) -> list[Fraction]:
    """Left side of a plain product-sum entry, recomputed with SymPy.

    SymPy's B_1 is +1/2 while the program uses -1/2, so number-level
    Bernoulli values go through `_b`; polynomial values agree.
    """
    import sympy

    name, items = key
    inputs = dict(items)
    n = inputs["n"]
    x = sympy.Symbol("x")

    def _b(j: int):
        return sympy.Rational(-1, 2) if j == 1 else sympy.bernoulli(j)

    def bpoly(j: int):
        return sympy.Poly(sympy.bernoulli(j, x), x, domain="QQ")

    if name == "euler-1-2":
        value = sum((sympy.binomial(n, j) * _b(j) * _b(n - j) for j in range(n + 1)), sympy.Integer(0))
        return poly_of([str(value)])
    if name == "corollary2":
        value = (n + 2) * sum((_b(j) * _b(n - j) for j in range(n + 1)), sympy.Integer(0))
        return poly_of([str(value)])
    total = sympy.Poly(0, x, domain="QQ")
    if name == "corollary1":
        for j in range(n + 1):
            total += bpoly(j) * bpoly(n - j)
        total *= n + 2
    else:  # theorem1
        a = sympy.Rational(inputs["a"].numerator, inputs["a"].denominator)
        b = sympy.Rational(inputs["b"].numerator, inputs["b"].denominator)
        for j in range(n + 1):
            weight = sympy.binomial(n, j) * sympy.rf(a, j) * sympy.rf(b, n - j) / sympy.rf(a + b, n)
            total += bpoly(j) * bpoly(n - j) * weight
    return poly_of([str(c) for c in reversed(total.all_coeffs())])


# ---------------------------------------------------------------------------
# umbral
# ---------------------------------------------------------------------------


def check_umbral(inputs: dict, outputs: list) -> Verdict:
    checks = inputs["checks"]
    top = inputs["symbol_eval_max_n"]
    v = Verdict(attempted=len(checks) + 2 * (top + 1))
    (out,) = outputs
    try:
        doc = json.loads(out.text)
        results, evals = doc["results"], doc["symbol_eval"]
    except (ValueError, KeyError, TypeError) as exc:
        v.error(f"umbral: unreadable output: {exc}", failed=v.attempted)
        return v
    if len(results) != len(checks):
        v.error(f"umbral: {len(results)} results for {len(checks)} checks", failed=len(checks))
    for check, ok in zip(checks, results):
        if ok is not True:
            v.error(f"umbral: {check[0]} k={check[1]} returned {ok!r}")
    relations = {"bernoulli": bernoulli_poly_ok, "euler": euler_poly_ok}
    for kind, holds in relations.items():
        polys = evals.get(kind, [])
        if len(polys) != top + 1:
            v.error(f"umbral: {len(polys)} evaluations of (x + S)^n for {kind}", failed=top + 1)
            continue
        for n, cells in enumerate(polys):
            try:
                ok = holds(n, poly_of(cells))
            except ValueError:
                ok = False
            if not ok:
                v.error(f"umbral: evaluation of (x + S)^{n} is not the {kind} polynomial")
    return v


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------


def rising(z: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out *= z + i
    return out


def exact_moment(a: tuple, l: tuple) -> Fraction:
    out = Fraction(1)
    for ai, li in zip(a, l):
        out *= rising(Fraction(ai), li)
    return out / rising(sum(Fraction(ai) for ai in a), sum(l))


def check_mc(queries: list[dict], outputs: list) -> Verdict:
    v = Verdict(attempted=len(queries))
    for q, out in zip(queries, outputs):
        label = f"mc a={','.join(map(str, q['a']))} l={','.join(map(str, q['l']))}"
        try:
            (row,) = json.loads(out.text)
            exact = rational(row["exact"])
            mean, stderr, status = float(row["mean"]), float(row["stderr"]), row["status"]
            echoed = ([rational(x) for x in row["a_vec"]], row["l_vec"], row["samples"], row["seed"])
        except (ValueError, KeyError, TypeError) as exc:
            v.error(f"{label}: unreadable output ({exc})")
            continue
        if echoed != (list(q["a"]), list(q["l"]), q["samples"], q["seed"]):
            v.error(f"{label}: output is for other inputs {echoed}")
            continue
        if exact != exact_moment(q["a"], q["l"]):
            v.error(f"{label}: exact moment {exact} is wrong")
            continue
        within = stderr > 0.0 and abs(mean - float(exact)) <= SIGMA * stderr
        if not within:
            v.failed += 1
        # A zero standard error passes in the program only on an exact hit,
        # which this check still counts as failed; any other disagreement
        # between the program's status and this check is wrong output.
        if (status == "pass") != within and stderr > 0.0:
            v.errors.append(f"{label}: status {status!r} but the 4-sigma check says {within}")
        if out.code != (0 if status == "pass" else 1):
            v.errors.append(f"{label}: exit code {out.code} with status {status!r}")
    return v


CHECKERS = {
    "sweep": lambda inputs, outputs, seed: check_sweep(inputs, outputs, seed),
    "tables": lambda inputs, outputs, seed: check_tables(inputs, outputs),
    "umbral": lambda inputs, outputs, seed: check_umbral(inputs, outputs),
    "mc": lambda inputs, outputs, seed: check_mc(inputs, outputs),
}
