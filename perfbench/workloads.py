"""Workload inputs, and one round of each workload.

Every input is built here from the seed and the constants below, and `bek`
receives only those explicit inputs: no round relies on a default grid or
a default sample count of the program.  A round is one closed loop with a
single client: each call into `bek` waits for the one before it.

    workload  one round                                    items      operations
    sweep     73 `bek verify` invocations (JSON) over     reports    reports
              the committed grid, in a seeded order
    tables    one `bek tables --max-n 150` (JSON)          table rows table rows
    umbral    seeded grid of the six umbral verifiers      checks     checks
              plus symbol evaluation of (x + S)^n
    mc        three `bek mc` queries with seeded seeds,    samples    queries
              plus the concentrated query (fixed inputs)
"""

from __future__ import annotations

import importlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GRID_FILE = HERE / "sweep_grid.json"

TABLES_MAX_N = 150

# Umbral grid shape, after the symbolic-layer acceptance criterion.
ANNIHILATION_MAX_N = 40
SYMBOL_EVAL_MAX_N = 30
DELTA_KS = (1, 2, 3, 4)
DELTA_TUPLES = 2
DELTA_MAX_DEGREE = 10
SUBSET_KS = (2, 3)
SUBSET_MAX_N = 12
SUBSET_TUPLES = 2

# The three query shapes of `bek mc`'s built-in grid, written out here so
# that the workload does not follow later changes to that grid.
MC_SHAPES: tuple[tuple[tuple[Fraction, ...], tuple[int, ...]], ...] = (
    ((Fraction(1), Fraction(1)), (1, 1)),
    ((Fraction(1), Fraction(2), Fraction(1, 2)), (2, 1, 3)),
    ((Fraction(2), Fraction(2), Fraction(2), Fraction(2)), (1, 1, 1, 1)),
)
MC_SAMPLES = 2_000_000
# A strongly concentrated Dirichlet moment.  The one-pass variance in
# `dirichlet_moment_mc` cancels to exactly 0 here, so the standard error
# reads 0 and the query fails on every run.  Its inputs are fixed, not
# drawn from the seed, so the failure is the same in every round.
MC_CONCENTRATED = ((Fraction(10**8), Fraction(10**8)), (1, 1), 200_000, 42)


def import_bek():
    """Import `bek` from the source tree next to this directory, or exit."""
    if not (SRC / "bek" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no bek sources at {SRC}")
    sys.path.insert(0, str(SRC))
    bek = importlib.import_module("bek")
    for name in ("cli", "exactmath", "identities", "sequences", "stochastic", "umbral"):
        importlib.import_module(f"bek.{name}")
    if Path(bek.__file__).resolve().parent != SRC / "bek":
        raise SystemExit(f"perfbench: imported bek from {bek.__file__}, not from {SRC}")
    return bek


@dataclass
class Output:
    """What one call into `bek` returned: exit code and emitted text."""

    code: int
    text: str


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def load_grid() -> list[dict]:
    return json.loads(GRID_FILE.read_text())


def parse_params(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        out[key] = tuple(Fraction(v) for v in value) if isinstance(value, list) else Fraction(value)
    return out


def sweep_inputs(seed: int) -> list[dict]:
    """The committed grid, one entry per invocation, in a seeded order."""
    order = load_grid()
    random.Random(seed).shuffle(order)
    return order


def sweep_items(invocations: list[dict]) -> int:
    return sum(len(inv["n"]) * len(inv["displays"]) for inv in invocations)


def run_sweep(bek, invocations: list[dict], registry=None) -> list[Output]:
    cli = bek.cli
    configs = [
        cli.RunConfig(
            command="verify",
            identity=inv["identity"],
            n_range=tuple(inv["n"]),
            k=inv["k"],
            params=parse_params(inv["params"]) or None,
            format="json",
        )
        for inv in invocations
    ]
    outputs = []
    for config in configs:
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(config, registry=registry, out=out, err=err)
        outputs.append(Output(code, out.getvalue() + err.getvalue()))
    return outputs


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def tables_inputs(seed: int) -> dict:
    """The table size; it does not depend on the seed."""
    return {"max_n": TABLES_MAX_N}


def tables_items(inputs: dict) -> int:
    return inputs["max_n"] + 1


def run_tables(bek, inputs: dict, registry=None) -> list[Output]:
    cli = bek.cli
    config = cli.RunConfig(command="tables", max_n=inputs["max_n"], format="json")
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(config, out=out, err=err)
    return [Output(code, out.getvalue() + err.getvalue())]


# ---------------------------------------------------------------------------
# umbral
# ---------------------------------------------------------------------------


def _nonzero_frac(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6))


def _sum_one_tuple(rng: random.Random, k: int) -> tuple[Fraction, ...]:
    """k non-zero rationals summing to 1."""
    while True:
        head = [_nonzero_frac(rng) for _ in range(k - 1)]
        last = 1 - sum(head, Fraction(0))
        if last != 0:
            return tuple(head) + (last,)


def umbral_inputs(seed: int) -> dict:
    """The seeded check grid; rationals have numerators and denominators up to 6."""
    rng = random.Random(seed)
    checks: list[list] = []
    for n in range(1, ANNIHILATION_MAX_N + 1):
        checks.append(["annihilation", ["bernoulli", "uniform-continuous"], n])
        checks.append(["annihilation", ["euler", "uniform-discrete"], n])
    for k in DELTA_KS:
        for _ in range(DELTA_TUPLES):
            shifts = [_nonzero_frac(rng) for _ in range(k)]
            for m in range(DELTA_MAX_DEGREE + 1):
                monomial = [0] * m + [1]
                checks.append(["lemma1", k, shifts, monomial])
                checks.append(["lemma3", k, shifts, monomial])
    for k in SUBSET_KS:
        for n in range(SUBSET_MAX_N + 1):
            f = [_nonzero_frac(rng) for _ in range(n + 1)]
            for _ in range(SUBSET_TUPLES):
                u = list(_sum_one_tuple(rng, k))
                checks.append(["lemma2", k, u, n])
                checks.append(["lemma4", k, u, n])
                checks.append(["general_f", k, u, f])
    return {"checks": checks, "symbol_eval_max_n": SYMBOL_EVAL_MAX_N}


def umbral_items(inputs: dict) -> int:
    return len(inputs["checks"]) + 2 * (inputs["symbol_eval_max_n"] + 1)


_SYMBOL_MAKERS = {
    "bernoulli": "bernoulli_symbol",
    "euler": "euler_symbol",
    "uniform-continuous": "uniform_symbol",
    "uniform-discrete": "discrete_symbol",
}


def run_umbral(bek, inputs: dict, registry=None) -> list[Output]:
    # Names are looked up on the module at every call, so the traced run
    # sees its wrappers.
    um = bek.umbral
    results = []
    for check in inputs["checks"]:
        kind = check[0]
        if kind == "annihilation":
            pair = tuple(getattr(um, _SYMBOL_MAKERS[s])() for s in check[1])
            ok = um.verify_annihilation(pair, check[2])
        elif kind in ("lemma1", "lemma3"):
            fn = um.verify_lemma1 if kind == "lemma1" else um.verify_lemma3
            ok = fn(check[1], check[2], bek.exactmath.poly(check[3]))
        elif kind in ("lemma2", "lemma4"):
            fn = um.verify_lemma2 if kind == "lemma2" else um.verify_lemma4
            ok = fn(check[1], check[2], check[3])
        else:
            ok = um.verify_general_f(check[1], check[2], bek.exactmath.poly(check[3]))
        results.append(ok)
    symbol_evals = {}
    for kind in ("bernoulli", "euler"):
        symbol = getattr(um, _SYMBOL_MAKERS[kind])()
        symbol_evals[kind] = [
            [str(c) for c in um.umbral_eval(um.umbral_pow([(1, um.X), (1, symbol)], n))]
            for n in range(inputs["symbol_eval_max_n"] + 1)
        ]
    text = json.dumps({"results": results, "symbol_eval": symbol_evals})
    return [Output(0, text)]


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------


def mc_inputs(seed: int) -> list[dict]:
    """The three query shapes with seeded seeds, then the concentrated query."""
    rng = random.Random(seed)
    queries = [
        {"a": a, "l": l, "samples": MC_SAMPLES, "seed": rng.randrange(2**31)}
        for a, l in MC_SHAPES
    ]
    a, l, concentrated_samples, concentrated_seed = MC_CONCENTRATED
    queries.append({"a": a, "l": l, "samples": concentrated_samples, "seed": concentrated_seed})
    return queries


def mc_items(queries: list[dict]) -> int:
    return sum(q["samples"] for q in queries)


def run_mc(bek, queries: list[dict], registry=None) -> list[Output]:
    cli = bek.cli
    configs = [
        cli.RunConfig(command="mc", a_vec=q["a"], l_vec=q["l"], samples=q["samples"],
                      seed=q["seed"], sigma=4.0, format="json")
        for q in queries
    ]
    outputs = []
    for config in configs:
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(config, out=out, err=err)
        outputs.append(Output(code, out.getvalue() + err.getvalue()))
    return outputs


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    items: Callable
    run: Callable
    slice: str = "fraction"  # see speed.SLICES


WORKLOADS: dict[str, Workload] = {
    "sweep": Workload(sweep_inputs, sweep_items, run_sweep),
    "tables": Workload(tables_inputs, tables_items, run_tables),
    "umbral": Workload(umbral_inputs, umbral_items, run_umbral),
    "mc": Workload(mc_inputs, mc_items, run_mc, slice="numpy"),
}
