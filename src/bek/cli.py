"""Command-line front end: batch verification, table printing, Monte Carlo.

Exit codes: 0 all checks pass, 1 at least one identity or statistical
failure or an evaluation that raised (a defect, reported with every other
report and one stderr line per line that raised), 2 usage or domain
error.  All rational output is exact "p/q" text; polynomials serialize
as ascending coefficient arrays (an empty array is the zero polynomial).
Evaluation times are reported as 0 unless --timings is given, so that
repeated runs with one config are byte-identical in json and csv modes.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite
from numbers import Integral, Rational, Real
from typing import Iterable, Mapping, Sequence, TextIO

from .exactmath import Poly, as_exact, is_exact, series_work
from .identities import (
    INPUT_ORDER,
    REGISTRY,
    IdentityReport,
    IdentitySpec,
    UnknownIdentityError,
    _checked,
    build_points,
    point_text,
    verify,
)
from .sequences import (
    bernoulli_number,
    bernoulli_poly,
    euler_number,
    euler_poly,
    genocchi_number,
)
from .stochastic import MomentQuery, dirichlet_moment_mc

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")

# Input budgets: the largest accepted input.  What each cap was measured
# to take is kept in one place, the "Input budgets" table of README.md.
# `bek tables` writes its rows one at a time, so what it holds is the
# cached B_n(x) and E_n(x), which grow as N^3.  Each further n value of a
# `bek verify` range adds its own time.
#
# `exactmath.series_work(k, n)` bounds the integer coefficient products
# that a line of a k-fold entry (`takes_k`) forms for a point at (k, n):
# each side of theorem2, theorem4 and kth-matiyasevich is read off
# products of k series of numbers, truncated after t^n or t^(n+1).  The
# sum of that bound over a grid's points is capped, and so is k.  A
# product costs more as k grows, since its integers grow, so a grid of
# smaller k at the same count finishes sooner.  The cap is the work of
# theorem2 at the k and n caps on its three default parameter sets.  It
# bounds k and n; the height cap bounds the size of the parameters, whose
# slot weights (a)_l / l! grow with it.
#
# `bek mc` draws one gamma per shape and sample.  Its exact moment
# multiplies out (sum a)_{sum l} as one integer product tree; the cap
# bounds sum l, not the size of the shapes.  `MomentQuery` refuses shapes
# below `stochastic.MIN_MC_SHAPE` (1/20); MAX_MC_SAMPLES * MAX_MC_SHAPES =
# 10^9 draws at that floor expect fewer than 10^-6 subnormal ones.
MAX_TABLES_N = 700
MAX_VERIFY_N = 70
MAX_VERIFY_K = 16
MAX_VERIFY_WORK = 3 * series_work(MAX_VERIFY_K, MAX_VERIFY_N)
MAX_PARAM_HEIGHT = 127
MAX_MC_SAMPLES = 100_000_000
MAX_MC_SHAPES = 10
MAX_MC_EXPONENT_SUM = 100_000


def _refuse_above(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise ValueError(f"{flag} {value} is above its input budget cap of {cap}")


def _refuse_tall_params(params: Mapping | None) -> None:
    """Refuse a --params rational whose numerator or denominator is above
    the height cap, before any point is built."""
    for key, value in (params or {}).items():
        for v in value if isinstance(value, (tuple, list)) else (value,):
            if is_exact(v, Rational) and max(abs(v.numerator), v.denominator) > MAX_PARAM_HEIGHT:
                raise ValueError(f"--params {key} value {v} is above its input budget cap of height {MAX_PARAM_HEIGHT}")


def _refuse_work(points: Sequence[Mapping]) -> None:
    """Refuse a k-fold grid whose lines together may form more integer
    coefficient products than the cap."""
    work = sum(series_work(pt["k"], pt["n"]) for pt in points)
    if work > MAX_VERIFY_WORK:
        raise ValueError(
            f"the grid's lines form up to {work} coefficient products, "
            f"above its input budget cap of {MAX_VERIFY_WORK}"
        )


def parse_rational(text: str) -> Fraction:
    """Exact rational from 'p/q' or integer text; no floating forms."""
    token = text.strip()
    if not _RATIONAL_RE.match(token):
        raise ValueError(f"expected an integer or p/q rational, got {text!r}")
    return Fraction(token)


def parse_n_range(text: str) -> range:
    """Inclusive integer range 'A..B', or a single integer.

    The range stays unexpanded, so an oversized one costs nothing before
    the input budget refuses it."""
    token = text.strip()
    if ".." in token:
        lo_text, hi_text = token.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return range(lo, hi + 1)
    n = int(token)
    return range(n, n + 1)


def parse_params(text: str) -> dict:
    """Comma list of name=value pairs; bare values extend the last name.

    'a=1/2,b=3/2' gives two scalars; 'a_vec=1,2,1/2' gives one tuple.
    """
    grouped: dict[str, list[str]] = {}
    current: str | None = None
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"empty token in parameter list {text!r}")
        if "=" in token:
            key, _, value = token.partition("=")
            key = key.strip()
            if not key:
                raise ValueError(f"missing parameter name in {token!r}")
            if key in grouped:
                raise ValueError(f"duplicate parameter {key!r}")
            grouped[key] = [value.strip()]
            current = key
        else:
            if current is None:
                raise ValueError(f"value {token!r} appears before any parameter name")
            grouped[current].append(token)
    parsed: dict = {}
    for key, values in grouped.items():
        if key == "a_vec":
            parsed[key] = tuple(parse_rational(v) for v in values)
        elif len(values) == 1:
            parsed[key] = parse_rational(values[0])
        else:
            raise ValueError(f"parameter {key!r} takes a single value, got {values}")
    return parsed


def _parse_rational_list(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(v) for v in text.split(","))


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in text.split(","))


@dataclass
class RunConfig:
    """One parsed invocation; `run` consumes it without touching argv."""

    command: str
    identity: str | None = None
    n_range: Iterable[int] | None = None
    k: int | None = None
    params: dict | None = None
    format: str = "text"
    seed: int = 42
    samples: int = 1_000_000
    sigma: float = 4.0
    max_n: int = 6
    a_vec: tuple[Fraction, ...] | None = None
    l_vec: tuple[int, ...] | None = None
    timings: bool = False


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _poly_cells(p: Poly) -> list[str]:
    """The coefficients as 'p/q' or integer text: the one decimal
    conversion of a polynomial, which every format reads."""
    return [str(c) for c in p]


def _poly_text(p: Poly) -> str:
    return "[" + ", ".join(_poly_cells(p)) + "]"


def _render_cells(cells: Sequence[str]) -> str:
    """The polynomial with these coefficient cells in descending powers,
    e.g. 'x^2 - x + 1/6'.  A cell's sign is its leading '-' and its
    absolute value the rest of it."""
    text: list[str] = []
    for i in range(len(cells) - 1, -1, -1):
        cell = cells[i]
        if cell == "0":
            continue
        negative = cell[0] == "-"
        body = cell[1:] if negative else cell
        if i:
            body = ("" if body == "1" else body + "*") + ("x" if i == 1 else f"x^{i}")
        if text:
            text.append(" - " if negative else " + ")
        elif negative:
            text.append("-")
        text.append(body)
    return "".join(text) if text else "0"


def format_poly(p: Poly) -> str:
    """Human rendering in descending powers, e.g. 'x^2 - x + 1/6'."""
    return _render_cells(_poly_cells(p))


_json_text = json.encoder.encode_basestring_ascii


def _json_row(row: Mapping[str, int | float | str | bool | None | list | Mapping], pad: str) -> str:
    """json.dumps(row, indent=2) of a row of ints, finite floats, strings,
    bools, None, lists of strings or of ints and nested rows of those, with
    pad after every line break.  json.dumps runs its pure-Python encoder
    whenever indent is set; this joins the strings escaped by its C one."""
    if not row:
        return "{}"
    field, item = "\n" + pad + "  ", "\n" + pad + "    "

    def value(v: int | float | str | bool | None | list | Mapping) -> str:
        if isinstance(v, str):
            return _json_text(v)
        if isinstance(v, int):
            return int.__repr__(v) if type(v) is not bool else "true" if v else "false"
        if isinstance(v, list):
            if not v:
                return "[]"
            return "[" + item + ("," + item).join(map(_json_text if isinstance(v[0], str) else value, v)) + field + "]"
        if isinstance(v, float):
            return float.__repr__(v)
        if v is None:
            return "null"
        return _json_row(v, pad + "  ")

    fields = ("," + field).join(_json_text(k) + ": " + value(v) for k, v in row.items())
    return "{" + field + fields + "\n" + pad + "}"


def _write_json(rows: Iterable[Mapping], out: TextIO, pad: str = "") -> None:
    """Write json.dumps(list(rows), indent=2) with pad after every line
    break, a row at a time."""
    out.write("[")
    line = "\n" + pad + "  "
    sep = ""
    for row in rows:
        out.write(sep + line + _json_row(row, pad + "  "))
        sep = ","
    out.write("\n" + pad + "]" if sep else "]")


# the fields of a verify report and of a tables row that hold polynomials,
# whose csv cells are their coefficients joined by ';'
_POLY_FIELDS = frozenset({"lhs", "rhs", "difference", "B_poly", "E_poly"})


def _csv_cell(key: str, v: object) -> object:
    """The csv cell of a row's value: a list joined by ';' (a polynomial)
    or ',' (a vector), a nested row (a grid point) as `point_text`, a bool
    in lower case; csv.writer writes None as an empty cell."""
    if isinstance(v, list):
        return (";" if key in _POLY_FIELDS else ",").join(map(str, v))
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Mapping):
        return point_text(v)
    return v


def _write_rows(fmt: str, rows: Iterable[Mapping], out: TextIO) -> None:
    """Write the rows, streamed, as a json array or as csv lines under a
    header of the first row's keys: the csv format of every command, and the
    json format of every command but `tables`."""
    if fmt == "json":
        _write_json(rows, out)
        out.write("\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    for i, row in enumerate(rows):
        if not i:
            writer.writerow(row)
        writer.writerow([_csv_cell(k, v) for k, v in row.items()])


def _exact_text(value: Fraction) -> str:
    """str(value) at any size.  Python caps int-to-decimal conversion at
    4300 digits by default (3.11 and later, and security backports); the
    cap is lifted for this one conversion and then put back."""
    get_cap = getattr(sys, "get_int_max_str_digits", None)
    if get_cap is None:
        return str(value)
    cap = get_cap()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(cap)


def _inputs_payload(inputs: Mapping) -> dict:
    """A checked point (`identities._checked`) in INPUT_ORDER: n and k as
    the ints they are, every other value, a rational or a display label,
    as str."""
    payload: dict = {}
    for key in INPUT_ORDER:
        if key in inputs:
            value = inputs[key]
            payload[key] = value if key in ("n", "k") else [str(v) for v in value] if key == "a_vec" else str(value)
    return payload


def _report_payload(report: IdentityReport, timings: bool) -> dict:
    # the sides of a pass are one polynomial, so they share their cells
    lhs = _poly_cells(report.lhs)
    return {
        "identity": report.identity,
        "inputs": _inputs_payload(report.inputs),
        "status": report.status,
        "lhs": lhs,
        "rhs": lhs if report.passed else _poly_cells(report.rhs),
        "difference": _poly_cells(report.difference),
        "elapsed_ms": round(report.elapsed * 1000.0, 3) if timings else 0,
    }


class _Style:
    """The PASS/FAIL marks of the text format, green and red on a terminal
    unless NO_COLOR is set."""

    def __init__(self, out: TextIO) -> None:
        self.enabled = not os.environ.get("NO_COLOR") and bool(getattr(out, "isatty", lambda: False)())

    def _paint(self, text: str, passed: bool) -> str:
        return f"\033[{32 if passed else 31}m{text}\033[0m" if self.enabled else text

    def marker(self, passed: bool) -> str:
        return self._paint("PASS" if passed else "FAIL", passed)

    def closing(self, failures: int, total: int, noun: str, tail: str = "") -> str:
        """The last line of a text report: all `total` pass, or how many fail."""
        text = f"{failures} of {total} {noun} fail" if failures else f"all {total} {noun} pass"
        return self._paint(f"{text}{tail}\n", not failures)


def _emit_reports(config: RunConfig, reports: list[IdentityReport], out: TextIO, err: TextIO) -> None:
    """Every report to out, and to err one line per line whose evaluation
    raised."""
    for error in dict.fromkeys(r.error for r in reports if r.error):
        err.write(f"{error}\n")
    if config.format != "text":
        _write_rows(config.format, (_report_payload(r, config.timings) for r in reports), out)
        return
    style = _Style(out)
    by_name: dict[str, list[IdentityReport]] = {}
    for r in reports:
        by_name.setdefault(r.identity, []).append(r)
    for name, group in by_name.items():
        passed = sum(1 for r in group if r.passed)
        out.write(f"{name}: {passed}/{len(group)} reports pass  [{style.marker(passed == len(group))}]\n")
        for r in group:
            if r.passed:
                continue
            if r.error:
                out.write(f"  ERROR {point_text(r.inputs)}\n")
                continue
            out.write(f"  FAIL {point_text(r.inputs)}\n")
            out.write(f"    lhs        = {_poly_text(r.lhs)}\n")
            out.write(f"    rhs        = {_poly_text(r.rhs)}\n")
            out.write(f"    difference = {_poly_text(r.difference)}\n")
    out.write(style.closing(sum(1 for r in reports if not r.passed), len(reports), "reports"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _grid_text(entry: IdentitySpec) -> str:
    chunks = []
    for kk in entry.default_ks or (None,):
        ns = entry.default_n(kk)
        n_sets = len(entry.default_param_sets(kk))
        piece = f"n={ns.start}..{ns[-1]}" + (f" step {ns.step}" if ns.step != 1 else "")
        if kk is not None:
            piece = f"k={kk}: {piece}"
        if n_sets > 1:
            piece += f", {n_sets} parameter sets"
        chunks.append(piece)
    return "; ".join(chunks)


def _cmd_list(config: RunConfig, registry: Mapping[str, IdentitySpec], out: TextIO) -> int:
    rows = [
        {
            "name": e.name,
            "summary": e.summary,
            "params": list(e.param_names),
            "takes_k": e.takes_k,
            "validity": e.validity_text,
            "default_grid": _grid_text(e),
        }
        for e in registry.values()
    ]
    if config.format != "text":
        _write_rows(config.format, rows, out)
        return 0
    width = max(len(row["name"]) for row in rows)
    for row in rows:
        out.write(f"{row['name'].ljust(width)}  {row['summary']}\n")
        detail = f"validity: {row['validity']}"
        if row["params"]:
            detail += f"; params: {', '.join(row['params'])}"
        detail += f"; default grid: {row['default_grid']}"
        out.write(f"{' ' * width}  {detail}\n")
    return 0


def _tables_cells(n: int) -> dict:
    """The number and coefficient cells of row n of `bek tables`, the
    whole row of the csv format, built when it is written."""
    return {
        "n": n,
        "B": str(bernoulli_number(n)),
        "E": str(euler_number(n)),
        "G": str(genocchi_number(n)),
        "B_poly": _poly_cells(bernoulli_poly(n)),
        "E_poly": _poly_cells(euler_poly(n)),
    }


def _tables_row(n: int) -> dict:
    """Row n of the json format: the cells and the polynomials as text,
    rendered from the cells."""
    row = _tables_cells(n)
    row["B_poly_text"] = _render_cells(row["B_poly"])
    row["E_poly_text"] = _render_cells(row["E_poly"])
    return row


def _cmd_tables(config: RunConfig, out: TextIO) -> int:
    """Write the tables row by row, so that no more than one row's text is
    held at a time; the text format first reads the B/E/G column widths
    off the number columns."""
    (max_n,) = as_exact((config.max_n,), Integral, "--max-n")  # before it meets a cap
    if max_n < 0:
        raise ValueError(f"--max-n must be >= 0, got {max_n}")
    _refuse_above("--max-n", max_n, MAX_TABLES_N)
    ns = range(max_n + 1)
    if config.format == "json":
        # the layout of json.dump({"max_n": ..., "rows": [...]}, out, indent=2)
        out.write(f'{{\n  "max_n": {max_n},\n  "rows": ')
        _write_json(map(_tables_row, ns), out, "  ")
        out.write("\n}\n")
        return 0
    if config.format == "csv":
        _write_rows("csv", map(_tables_cells, ns), out)
        return 0
    numbers = [(str(bernoulli_number(n)), str(euler_number(n)), str(genocchi_number(n))) for n in ns]
    widths = [max(len(f"{key}_n"), *(len(row[i]) for row in numbers)) for i, key in enumerate("BEG")]
    n_width = max(1, len(str(max_n)))
    out.write("  ".join(["n".rjust(n_width), *(f"{key}_n".ljust(w) for key, w in zip("BEG", widths))]) + "\n")
    for n, row in zip(ns, numbers):
        out.write("  ".join([str(n).rjust(n_width), *(cell.ljust(w) for cell, w in zip(row, widths))]) + "\n")
    for name, table in (("B", bernoulli_poly), ("E", euler_poly)):
        out.write("\n")
        for n in ns:
            out.write(f"{name}_{n}(x) = {format_poly(table(n))}\n")
    return 0


def _cmd_verify(config: RunConfig, registry: Mapping[str, IdentitySpec], out: TextIO, err: TextIO) -> int:
    if not config.identity:
        raise ValueError("verify requires --identity NAME")
    entry = _checked(config.identity, (), registry)[0]
    ns = config.n_range
    if ns is not None:
        # read once, so that a one-shot iterable reaches the cap and the
        # grid alike; a range stays unexpanded, as the integer check would
        # walk an oversized one
        if not isinstance(ns, range):
            ns = as_exact(ns, Integral, "--n")
        if not ns:  # None is the entry's grid; an empty range would pass vacuously
            raise ValueError(f"empty range {config.n_range!r}")
        # a range's largest value is one of its ends, in either order
        _refuse_above("--n", max(ns[0], ns[-1]) if isinstance(ns, range) else max(ns), MAX_VERIFY_N)
    _refuse_tall_params(config.params)
    if entry.takes_k and config.k is not None:
        # before a default tuple of length k is built
        _refuse_above("--k", as_exact((config.k,), Integral, "--k")[0], MAX_VERIFY_K)
    points = build_points(entry, n_values=ns, k=config.k, params=config.params)
    if entry.takes_k:
        _refuse_above("a_vec length", max((pt["k"] for pt in points), default=0), MAX_VERIFY_K)
        _refuse_work(points)
    reports = verify(config.identity, points=points, registry=registry)
    _emit_reports(config, reports, out, err)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_verify_all(config: RunConfig, registry: Mapping[str, IdentitySpec], out: TextIO, err: TextIO) -> int:
    reports: list[IdentityReport] = []
    for name in registry:
        reports.extend(verify(name, registry=registry))
    _emit_reports(config, reports, out, err)
    return 0 if all(r.passed for r in reports) else 1


_MC_DEFAULT_QUERIES: tuple[tuple[tuple[Fraction, ...], tuple[int, ...]], ...] = (
    ((Fraction(1), Fraction(1)), (1, 1)),
    ((Fraction(1), Fraction(2), Fraction(1, 2)), (2, 1, 3)),
    ((Fraction(2), Fraction(2), Fraction(2), Fraction(2)), (1, 1, 1, 1)),
)


def _cmd_mc(config: RunConfig, out: TextIO) -> int:
    if (config.a_vec is None) != (config.l_vec is None):
        raise ValueError("--a and --l must be given together")
    # a NaN, zero or negative tolerance fails every check and an infinite
    # one passes every estimate, so neither says anything about the sampler
    if not is_exact(config.sigma, Real):
        raise ValueError(f"--sigma {config.sigma!r} is not a number")
    if not (isfinite(config.sigma) and config.sigma > 0):
        raise ValueError(f"--sigma must be a finite number above 0, got {config.sigma}")
    if config.a_vec is not None:
        _refuse_above("--a length", len(config.a_vec), MAX_MC_SHAPES)
        _refuse_above("--l length", len(config.l_vec), MAX_MC_SHAPES)
        queries = [(config.a_vec, config.l_vec)]
    else:
        queries = list(_MC_DEFAULT_QUERIES)
    try:
        queries = [MomentQuery(a_vec, l_vec, config.samples, config.seed) for a_vec, l_vec in queries]
    except ValueError as exc:
        if str(exc).startswith("seed "):  # the query's seed field is the --seed option
            raise ValueError(f"--{exc}") from None
        raise
    # the caps read the values the queries have checked as integers
    _refuse_above("--samples", queries[0].samples, MAX_MC_SAMPLES)
    _refuse_above("--l sum", max(sum(query.l_vec) for query in queries), MAX_MC_EXPONENT_SUM)
    results, estimates = [], []
    for query in queries:
        estimate = dirichlet_moment_mc(query)
        estimates.append(estimate)
        if estimate.stderr > 0.0:
            sigmas: float | None = estimate.deviation / estimate.stderr
        else:
            sigmas = None
        row = {
            "a_vec": [str(v) for v in query.a_vec],
            "l_vec": list(query.l_vec),
            "samples": query.samples,
            "seed": query.seed,
            "sigma": config.sigma,
            "exact": _exact_text(estimate.exact),
            "mean": estimate.mean,
            "stderr": estimate.stderr,
            "sigmas": sigmas,
            "status": "pass" if estimate.within(config.sigma) else "fail",
            "elapsed_ms": round((estimate.exact_s + estimate.sampling_s) * 1000.0, 3) if config.timings else 0,
        }
        if config.timings:
            row["exact_ms"] = round(estimate.exact_s * 1000.0, 3)
            row["sampling_ms"] = round(estimate.sampling_s * 1000.0, 3)
            row["workers"] = estimate.workers
        results.append(row)
    if config.format != "text":
        _write_rows(config.format, results, out)
    else:
        style = _Style(out)
        for row, estimate in zip(results, estimates):
            sig_text = "exact" if row["sigmas"] is None else f"{row['sigmas']:.2f} sigma"
            # a pass beyond the sigma bound is a pass by the rounding allowance
            by_rounding = row["status"] == "pass" and estimate.deviation > config.sigma * estimate.stderr
            out.write(
                f"mc a={','.join(row['a_vec'])} l={','.join(str(v) for v in row['l_vec'])} "
                f"samples={row['samples']} seed={row['seed']}: mean={row['mean']:.8g} "
                f"exact={row['exact']} stderr={row['stderr']:.3g} deviation={sig_text} "
                f"[{style.marker(row['status'] == 'pass')}]"
                + (f" by the float rounding allowance {estimate.rounding:.3g}, not the {config.sigma} sigma bound"
                   if by_rounding else "") + "\n"
            )
        failures = sum(1 for row in results if row["status"] != "pass")
        out.write(style.closing(failures, len(results), "checks", f" (tolerance {config.sigma} sigma)"))
    return 0 if all(row["status"] == "pass" for row in results) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run(
    config: RunConfig,
    registry: Mapping[str, IdentitySpec] | None = None,
    out: TextIO | None = None,
    err: TextIO | None = None,
) -> int:
    """Execute one parsed invocation and return the exit status."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    reg = registry if registry is not None else REGISTRY
    try:
        if config.command == "list":
            return _cmd_list(config, reg, out)
        if config.command == "tables":
            return _cmd_tables(config, out)
        if config.command == "verify":
            return _cmd_verify(config, reg, out, err)
        if config.command == "verify-all":
            return _cmd_verify_all(config, reg, out, err)
        if config.command == "mc":
            return _cmd_mc(config, out)
        raise ValueError(f"unknown command {config.command!r}")
    except (UnknownIdentityError, ValueError) as exc:  # a DomainError is a ValueError
        err.write(f"{exc}\n")
        return 2


def _build_parser() -> argparse.ArgumentParser:
    """The argument parser.  No option has a default of its own: an option
    left out is absent from the namespace, so `RunConfig`'s field defaults
    are the only ones, and the help texts quote them."""
    parser = argparse.ArgumentParser(
        prog="bek",
        description="Exact verification of Bernoulli/Euler convolution identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, text: str, timings: bool = False) -> argparse.ArgumentParser:
        """A subcommand; every one takes --format, and those that time their work --timings."""
        command = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        command.add_argument("--format", choices=("text", "json", "csv"),
                             help=f"output format (default {RunConfig.format})")
        if timings:
            command.add_argument("--timings", action="store_true",
                                 help="report wall-clock evaluation times; off by default "
                                      "so repeated runs are byte-identical")
        return command

    add("list", "list registry entries and their default grids")

    sub_tables = add("tables", "print number and polynomial tables")
    sub_tables.add_argument("--max-n", type=int, dest="max_n",
                            help=f"largest index to print (default {RunConfig.max_n})")

    sub_verify = add("verify", "verify one identity on a grid", timings=True)
    sub_verify.add_argument("--identity", required=True, help="registry name (see `bek list`)")
    sub_verify.add_argument("--n", type=parse_n_range, dest="n_range",
                            help="inclusive range A..B or single integer (default: entry grid)")
    sub_verify.add_argument("--k", type=int, help="number of parameters for k-ary entries")
    sub_verify.add_argument("--params", type=parse_params,
                            help="named rationals, e.g. a=1/2,b=3/2 or a_vec=1,2,1/2")

    add("verify-all", "verify every entry on its default grid", timings=True)

    sub_mc = add("mc", "Monte Carlo check of the mixed-moment formula", timings=True)
    sub_mc.add_argument("--a", type=_parse_rational_list, dest="a_vec",
                        help="comma list of positive rational shapes, e.g. 1,2,1/2")
    sub_mc.add_argument("--l", type=_parse_int_list, dest="l_vec",
                        help="comma list of non-negative integer exponents, e.g. 2,1,3")
    sub_mc.add_argument("--samples", type=int, help=f"draw count (default {RunConfig.samples:,})")
    sub_mc.add_argument("--seed", type=int, help=f"master seed (default {RunConfig.seed})")
    sub_mc.add_argument("--sigma", type=float,
                        help=f"tolerance in standard errors (default {RunConfig.sigma:g})")

    return parser


def _attach_dash_values(argv: Sequence[str]) -> list[str]:
    """argv with each value that starts with a single '-' attached to the
    long option before it, as in '--sigma=-inf'.

    argparse reads a token such as -inf, -1e3, -1,1 or -3..5 as an unknown
    option unless it is a plain negative number, so the option before it
    fails with "expected one argument" and its own check never names the
    value.  -h is the only short option, so any other single-dash token
    after a long option is that option's value."""
    out: list[str] = []
    for token in argv:
        previous = out[-1] if out else ""
        if (previous.startswith("--") and len(previous) > 2 and "=" not in previous
                and token.startswith("-") and not token.startswith("--") and token != "-h"):
            out[-1] = f"{previous}={token}"
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    args = _attach_dash_values(sys.argv[1:] if argv is None else argv)
    config = RunConfig(**vars(_build_parser().parse_args(args)))
    try:
        status = run(config)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # The reader is gone, as with `bek verify-all | head`.  Python
        # flushes stdout again at exit; pointing it at devnull keeps that
        # flush from raising too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
