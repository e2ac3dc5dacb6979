"""Unit tests for CLI parsing, report serialization, and exit codes."""

from __future__ import annotations

import ast
import csv
import dataclasses
import enum
import hashlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType, SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import bek.cli as cli
from bek import stochastic
from bek.cli import (
    MAX_MC_EXPONENT_SUM,
    MAX_MC_SAMPLES,
    MAX_MC_SHAPES,
    MAX_PARAM_HEIGHT,
    MAX_TABLES_N,
    MAX_VERIFY_K,
    MAX_VERIFY_N,
    MAX_VERIFY_WORK,
    RunConfig,
    format_poly,
    main,
    parse_n_range,
    parse_params,
    parse_rational,
    run,
)
from bek.exactmath import binomial, poly, series_work
from bek.identities import REGISTRY, build_points, verify
from bek.stochastic import MIN_MC_SHAPE, MomentEstimate, dirichlet_moment_exact

F = Fraction


def _strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which JSON does not have."""
    def refuse(name):
        raise ValueError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


class _TtyOut(io.StringIO):
    def isatty(self) -> bool:
        return True


def _run(config: RunConfig, registry=None) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(config, registry=registry, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestParsers:
    def test_parse_rational_accepts_exact_forms(self):
        assert parse_rational("3/7") == F(3, 7)
        assert parse_rational("2") == F(2)
        assert parse_rational("-1/2") == F(-1, 2)
        assert parse_rational(" +4 ") == F(4)

    def test_parse_rational_rejects_floats_and_garbage(self):
        for bad in ("0.5", "1e3", "a", "1/0", "1//2", ""):
            with pytest.raises(ValueError):
                parse_rational(bad)

    def test_parse_n_range(self):
        assert parse_n_range("4..12") == range(4, 13)
        assert parse_n_range("7") == range(7, 8)
        assert parse_n_range("2..2") == range(2, 3)
        with pytest.raises(ValueError):
            parse_n_range("9..3")
        with pytest.raises(ValueError):
            parse_n_range("x..y")

    def test_parse_params_scalars(self):
        assert parse_params("a=1/2,b=3/2") == {"a": F(1, 2), "b": F(3, 2)}
        assert parse_params("epsilon=1/3") == {"epsilon": F(1, 3)}

    def test_parse_params_vector(self):
        assert parse_params("a_vec=1,2,1/2") == {"a_vec": (F(1), F(2), F(1, 2))}

    def test_parse_params_rejections(self):
        with pytest.raises(ValueError):
            parse_params("1,2")
        with pytest.raises(ValueError):
            parse_params("a=1,a=2")
        with pytest.raises(ValueError):
            parse_params("a=1,2")
        with pytest.raises(ValueError):
            parse_params("a=0.5")

    def test_format_poly(self):
        assert format_poly(poly([F(1, 6), -1, 1])) == "x^2 - x + 1/6"
        assert format_poly(poly([])) == "0"
        assert format_poly(poly([F(-1, 2), 1])) == "x - 1/2"
        assert format_poly(poly([0, F(5, 3)])) == "5/3*x"


def _reference_format_poly(p) -> str:
    """The rendering from the Fractions themselves, which `format_poly`
    replaced by one from the coefficient cells; kept as its reference."""
    text = []
    for i in range(len(p) - 1, -1, -1):
        num, den = p[i].numerator, p[i].denominator
        if not num:
            continue
        body = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if i:
            body = ("" if body == "1" else body + "*") + ("x" if i == 1 else f"x^{i}")
        if text:
            text.append(" - " if num < 0 else " + ")
        elif num < 0:
            text.append("-")
        text.append(body)
    return "".join(text) if text else "0"


# signed and unit coefficients, zeros anywhere (a tuple, not `poly`, so a
# zero may also sit at the top), integers and non-integers
_coefficients = st.one_of(
    st.sampled_from([F(0), F(1), F(-1)]),
    st.integers(-10**30, 10**30).map(F),
    st.fractions(max_denominator=10**12),
)

# strings that JSON must escape: quotes, backslashes, control characters
# and non-ASCII text, mixed with plain ones
_json_strings = st.one_of(
    st.text(max_size=12),
    st.sampled_from(['"', "\\", "\x00\x1f\n\t\x7f", "é€\u2028😀", "", "x^2 - x + 1/6"]),
)


class _Level(enum.IntEnum):
    """An int subclass, which the row writer takes by its isinstance chain."""

    LOW = -3
    HIGH = 12


_json_ints = st.one_of(st.integers(), st.sampled_from(_Level))
_json_flat_values = st.one_of(_json_ints, st.booleans(), st.none(), _json_strings,
                              st.lists(_json_strings, max_size=4), st.lists(_json_ints, max_size=4))
_json_rows = st.dictionaries(_json_strings, _json_flat_values, max_size=6)
# a verify report: floats (elapsed_ms) and rows nested in rows (inputs),
# some of them Mappings that are not dicts
_json_nested_rows = st.recursive(
    _json_rows,
    lambda rows: st.dictionaries(
        _json_strings, st.one_of(_json_flat_values, st.floats(allow_nan=False, allow_infinity=False), rows,
                                 rows.map(MappingProxyType)),
        max_size=5),
    max_leaves=12,
)


def _dumps(row, pad):
    """json.dumps(row, indent=2) with pad after every line break; a Mapping
    that is not a dict is dumped as the dict of its items."""
    return json.dumps(row, indent=2, default=dict).replace("\n", "\n" + pad)


class TestTablesSerialization:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_coefficients, max_size=8).map(tuple))
    def test_cell_rendering_matches_the_reference(self, p):
        assert cli._render_cells(cli._poly_cells(p)) == _reference_format_poly(p)
        assert format_poly(p) == _reference_format_poly(p)

    def test_cell_rendering_of_zero_polynomials(self):
        for p in [(), (F(0),), (F(0), F(0)), (F(0), F(0), F(0))]:
            assert format_poly(p) == _reference_format_poly(p) == "0"

    @settings(max_examples=300, deadline=None)
    @given(_json_rows, st.sampled_from(["", "    "]))
    def test_row_writer_matches_json_dumps(self, row, pad):
        assert cli._json_row(row, pad) == _dumps(row, pad)

    @settings(max_examples=300, deadline=None)
    @given(_json_nested_rows, st.sampled_from(["", "  "]))
    def test_row_writer_matches_json_dumps_on_nested_rows(self, row, pad):
        assert cli._json_row(row, pad) == _dumps(row, pad)
        assert cli._json_row(MappingProxyType(row), pad) == _dumps(row, pad)

    def test_row_writer_takes_other_types_by_their_kind(self):
        row = {"level": _Level.HIGH, "levels": [_Level.LOW, 3], "inputs": MappingProxyType({"n": _Level.LOW}),
               "ok": True, "none": None, "ms": 1.5}
        assert cli._json_row(row, "  ") == _dumps(row, "  ")

    def test_row_writer_pads_a_tables_row(self):
        row = cli._tables_row(3)
        assert cli._json_row(row, "    ") == json.dumps(row, indent=2).replace("\n", "\n    ")
        assert cli._json_row({"n": 0, "B_poly": []}, "    ") == '{\n      "n": 0,\n      "B_poly": []\n    }'


def _json_dump_calls(source: str) -> list[str]:
    """The calls of json.dump and json.dumps in a module source, by either
    the module or an imported name."""
    tree = ast.parse(source)
    names = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and node.module == "json" for a in node.names if a.name in ("dump", "dumps")}
    return [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Attribute) and node.func.attr in ("dump", "dumps")
         and getattr(node.func.value, "id", None) == "json")
        or getattr(node.func, "id", None) in names)]


class TestOneJsonWriter:
    def test_no_module_calls_json_dumps(self):
        # every json output goes through the row writer
        package = Path(cli.__file__).parent
        assert {path.name: found for path in sorted(package.glob("*.py"))
                if (found := _json_dump_calls(path.read_text()))} == {}

    def test_the_scan_sees_each_form_of_call(self):
        assert _json_dump_calls("import json\njson.dump(x, out)\nprint(json.dumps(x))") == ["json.dump", "json.dumps"]
        assert _json_dump_calls("from json import dumps as d\nd(x)") == ["d"]
        assert _json_dump_calls("import json\njson.loads(t)\nrow.dumps()") == []


class TestVerifyCommand:
    def test_miki_json_reports(self):
        code, out, err = _run(RunConfig(command="verify", identity="miki",
                                        n_range=tuple(range(4, 13)), format="json"))
        assert code == 0 and err == ""
        reports = json.loads(out)
        assert len(reports) == 9
        first = reports[0]
        assert set(first) == {"identity", "inputs", "status", "lhs", "rhs", "difference", "elapsed_ms"}
        assert first["identity"] == "miki"
        assert first["inputs"] == {"n": 4}
        assert first["status"] == "pass"
        assert first["lhs"] == ["-5/144"]
        assert first["difference"] == []
        assert first["elapsed_ms"] == 0

    def test_params_flow_through(self):
        code, out, _ = _run(RunConfig(command="verify", identity="theorem1",
                                      n_range=(2, 3), params={"a": F(2), "b": F(1, 2)},
                                      format="json"))
        assert code == 0
        reports = json.loads(out)
        assert [r["inputs"] for r in reports] == [
            {"n": 2, "a": "2", "b": "1/2"},
            {"n": 3, "a": "2", "b": "1/2"},
        ]

    def test_a_vec_inputs_serialization(self):
        code, out, _ = _run(RunConfig(command="verify", identity="theorem2",
                                      n_range=(3,), params={"a_vec": (F(1), F(2), F(1, 2))},
                                      format="json"))
        assert code == 0
        (report,) = json.loads(out)
        assert report["inputs"] == {"n": 3, "k": 3, "a_vec": ["1", "2", "1/2"]}

    def test_csv_shape(self):
        code, out, _ = _run(RunConfig(command="verify", identity="euler-1-2",
                                      n_range=(1, 2, 3), format="csv"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "identity,inputs,status,lhs,rhs,difference,elapsed_ms"
        assert len(lines) == 4
        assert lines[1].startswith("euler-1-2,n=1,pass,")

    def test_verify_all_csv_digest(self):
        # `bek verify-all --format csv` holds every coefficient of every
        # report, as the json digest in test_acceptance does; it changes only
        # with a change that means to change it, which then updates it and
        # says so
        code, out, _ = _run(RunConfig(command="verify-all", format="csv"))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "681ddd9629d9113fccf4efb3341e3b05b83d85566ab72b7baeab513cb76a38c1")

    # k-fold points outside the default grids, at ks above the default
    # ones: each right side is a `subset_series` sum over 2^k - 1 subsets
    @pytest.mark.parametrize("argv, digest", [
        (["--identity", "kth-matiyasevich", "--k", "16", "--n", "7"],
         "6d80d1b8244209c4c74fccea0fb517c7f7caf4ba1cb635326237b4844f4afae2"),
        (["--identity", "theorem4", "--k", "5", "--n", "0..12"],
         "36b1f6e2c214b3fb45654781262f8477eb1e4b06e25dad4ce588bd35f9f0e0bf"),
        (["--identity", "theorem2", "--k", "6", "--n", "0..10"],
         "bea466fa587b2191e723b1e9fa7da548f946ed60f3a416d8cd0b3775b1e58722"),
    ])
    def test_k_fold_digest(self, capsys, argv, digest):
        assert main(["verify", *argv, "--format", "json"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_unknown_identity_exit_2(self):
        code, out, err = _run(RunConfig(command="verify", identity="zeta"))
        assert code == 2 and out == ""
        assert "unknown identity" in err and "gamma-sum" in err and "miki" in err

    def test_domain_violation_exit_2(self):
        code, _, err = _run(RunConfig(command="verify", identity="corollary2", n_range=(2,)))
        assert code == 2
        assert "even n >= 4" in err

    def test_failure_exit_1_with_fail_report(self):
        broken = dataclasses.replace(
            REGISTRY["gamma-sum"],
            evaluate=lambda pt: [("", poly([F(1)]), poly([F(2)]))],
        )
        registry = dict(REGISTRY)
        registry["gamma-sum"] = broken
        code, out, _ = _run(RunConfig(command="verify", identity="gamma-sum",
                                      n_range=(1,), params={"p": F(1)}, format="json"),
                            registry=registry)
        assert code == 1
        (report,) = json.loads(out)
        assert report["status"] == "fail"
        assert report["difference"] == ["-1"]

    def test_text_mode_has_no_color_without_tty(self):
        code, out, _ = _run(RunConfig(command="verify", identity="miki", n_range=(4, 5)))
        assert code == 0
        assert "\033" not in out
        assert "all 2 reports pass" in out

    def test_json_runs_are_byte_identical(self):
        config = RunConfig(command="verify", identity="corollary1",
                           n_range=tuple(range(1, 7)), format="json")
        _, first, _ = _run(config)
        _, second, _ = _run(config)
        assert first == second

    def test_timings_flag_populates_elapsed(self):
        code, out, _ = _run(RunConfig(command="verify", identity="theorem1",
                                      n_range=(12,), params={"a": F(1), "b": F(1)},
                                      format="json", timings=True))
        assert code == 0
        (report,) = json.loads(out)
        assert report["elapsed_ms"] > 0


    @pytest.mark.parametrize("timings", [False, True])
    def test_json_reports_keep_the_layout_of_json_dumps(self, timings):
        # the nested inputs (a_vec included), and elapsed_ms as 0 or a float
        reports = [r for name in ("theorem2", "corollary4", "miki") for r in verify(name, build_points(REGISTRY[name])[:3])]
        config = RunConfig(command="verify-all", format="json", timings=timings)
        for chosen in (reports, reports[:1], []):
            out = io.StringIO()
            cli._emit_reports(config, chosen, out, io.StringIO())
            payload = [cli._report_payload(r, timings) for r in chosen]
            assert out.getvalue() == json.dumps(payload, indent=2) + "\n"
        assert all(type(p["elapsed_ms"]) is (float if timings else int) for p in payload)

    def test_timings_split_across_displays(self, monkeypatch):
        # a clock that advances one second per reading: the evaluation of a
        # corollary4 line takes exactly 1 s and serves two points of two
        # displays each
        ticks = iter(range(1000))
        clock = SimpleNamespace(perf_counter=lambda: float(next(ticks)))
        monkeypatch.setattr("bek.identities.time", clock)
        code, out, _ = _run(RunConfig(command="verify", identity="corollary4",
                                      n_range=(3, 4), format="json", timings=True))
        assert code == 0
        reports = json.loads(out)
        assert [r["inputs"]["display"] for r in reports] == ["a=1", "a=2"] * 2
        assert [r["elapsed_ms"] for r in reports] == [250.0] * 4
        assert sum(r["elapsed_ms"] for r in reports) == 1000.0


def _raising_registry(display):
    """The registry with corollary1's one display replaced by `display`."""
    return {**REGISTRY, "corollary1": dataclasses.replace(REGISTRY["corollary1"], displays=(("", display),))}


class TestEvaluationErrors:
    """An exception raised while a line is evaluated, at points the
    declaration has accepted, is a defect: its points are reported as
    errors, every other report is written, and the run exits 1."""

    def test_a_raising_display_loses_no_other_report(self):
        def display(ns):
            return [(poly([binomial(n - 3, 3)]),) * 2 for n in ns]

        config = RunConfig(command="verify-all", format="json")
        code, out, err = _run(config, _raising_registry(display))
        _, healthy, _ = _run(config)
        rows, expected = json.loads(out), json.loads(healthy)
        assert code == 1 and len(rows) == len(expected) == 1828
        errors = [row for row in rows if row["identity"] == "corollary1"]
        assert [row["inputs"] for row in errors] == [{"n": n} for n in range(1, 31)]
        assert all(row["status"] == "error" and row["lhs"] == row["rhs"] == row["difference"] == [] for row in errors)
        assert [row for row in rows if row["identity"] != "corollary1"] == [
            row for row in expected if row["identity"] != "corollary1"]
        line = "n=" + ",".join(map(str, range(1, 31)))
        assert err == f"corollary1: {line}: ValueError: binomial requires n >= 0, got n=-2\n"

    @pytest.mark.parametrize("display, kind", [
        (lambda ns: [(F(1, n - 1), 0) for n in ns], "ZeroDivisionError"),
        (lambda ns: [(n + "1", 0) for n in ns], "TypeError"),
    ])
    def test_every_exception_takes_the_same_path(self, display, kind):
        registry = _raising_registry(display)
        code, out, err = _run(RunConfig(command="verify", identity="corollary1", n_range=(1, 2)), registry)
        assert code == 1 and "Traceback" not in err
        assert err.count("\n") == 1 and err.startswith(f"corollary1: n=1,2: {kind}: ")
        assert out == ("corollary1: 0/2 reports pass  [FAIL]\n  ERROR n=1\n  ERROR n=2\n"
                       "2 of 2 reports fail\n")
        # a point the declaration refuses is still a usage error, before
        # any evaluation
        assert _run(RunConfig(command="verify", identity="corollary1", n_range=(0,)), registry)[0] == 2


class TestColorHandling:
    def test_tty_gets_color(self, monkeypatch):
        monkeypatch.delenv("NO_COLOR", raising=False)
        out = _TtyOut()
        run(RunConfig(command="verify", identity="miki", n_range=(4,)), out=out)
        assert "\033[32m" in out.getvalue()

    def test_no_color_env_wins(self, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        out = _TtyOut()
        run(RunConfig(command="verify", identity="miki", n_range=(4,)), out=out)
        assert "\033" not in out.getvalue()


class TestTablesCommand:
    def test_text_reproduces_reference_table(self):
        code, out, _ = _run(RunConfig(command="tables", max_n=6))
        assert code == 0
        assert "B_2(x) = x^2 - x + 1/6" in out
        assert "E_6(x) = x^6 - 3*x^5 + 5*x^3 - 3*x" in out
        rows = [line.split() for line in out.splitlines()[1:8]]
        assert [r[1] for r in rows] == ["1", "-1/2", "1/6", "0", "-1/30", "0", "1/42"]
        assert [r[2] for r in rows] == ["1", "0", "-1", "0", "5", "0", "-61"]
        assert [r[3] for r in rows] == ["0", "1", "-1", "0", "1", "0", "-3"]

    def test_json_rows(self):
        code, out, _ = _run(RunConfig(command="tables", max_n=3, format="json"))
        assert code == 0
        payload = json.loads(out)
        assert payload["max_n"] == 3
        assert payload["rows"][2] == {
            "n": 2,
            "B": "1/6",
            "E": "-1",
            "G": "-1",
            "B_poly": ["1/6", "-1", "1"],
            "E_poly": ["0", "-1", "1"],
            "B_poly_text": "x^2 - x + 1/6",
            "E_poly_text": "x^2 - x",
        }

    def test_csv_header(self):
        code, out, _ = _run(RunConfig(command="tables", max_n=2, format="csv"))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,B,E,G,B_poly,E_poly"
        assert lines[3] == "2,1/6,-1,-1,1/6;-1;1,0;-1;1"

    def test_negative_max_n_exit_2(self):
        code, _, err = _run(RunConfig(command="tables", max_n=-1))
        assert code == 2 and "--max-n" in err

    # `bek tables --max-n 150` covers every number, coefficient and
    # rendering of the tables the benchmark prints; like the `list` and
    # `verify-all` digests, these change only with a change that means to
    # change that output, which then updates them and says so
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_digest(self, fmt):
        digest = {
            "json": "18b6ba82c0b1764c862cfbf9ddf8733dce5edb74430e79acb81ed8b7bc2bec58",
            "text": "acbf6e5f3eae4f400527d1d5cab0464e33b4f8bab996dc8909ef3aef7b13a687",
        }[fmt]
        code, out, _ = _run(RunConfig(command="tables", max_n=150, format=fmt))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


    def test_csv_digest(self):
        # taken from the output of the version that built every row first
        code, out, _ = _run(RunConfig(command="tables", max_n=150, format="csv"))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "344da36007e8631444cd1e043a2b2619d6c0e9e1929a98076be3d485184f34e3")

    def test_csv_goes_through_the_row_writer(self, monkeypatch):
        # the one csv writer of every command, fed the cells of each row
        calls = []
        real = cli._write_rows
        monkeypatch.setattr(cli, "_write_rows", lambda fmt, rows, out: calls.append(fmt) or real(fmt, rows, out))
        code, out, _ = _run(RunConfig(command="tables", max_n=2, format="csv"))
        assert code == 0 and calls == ["csv"] and len(out.splitlines()) == 4

    def test_csv_cells_never_need_quoting(self):
        # the csv lines are the cells joined by commas: no cell may hold a
        # character that the csv module would quote
        code, out, _ = _run(RunConfig(command="tables", max_n=150, format="csv"))
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 152 and all(len(row) == 6 for row in rows)
        assert all(re.fullmatch(r"[-0-9/;]*", cell) for row in rows[1:] for cell in row)

    def test_csv_never_formats_polynomials(self, monkeypatch):
        # csv writes the coefficient cells only, so it has no use for the
        # text, which every format renders from the cells
        def refuse(cells):
            raise AssertionError("polynomial text rendered in csv mode")
        monkeypatch.setattr(cli, "_render_cells", refuse)
        code, out, _ = _run(RunConfig(command="tables", max_n=12, format="csv"))
        assert code == 0 and len(out.splitlines()) == 14
        for fmt in ("json", "text"):
            with pytest.raises(AssertionError, match="rendered"):
                _run(RunConfig(command="tables", max_n=2, format=fmt))

    @pytest.mark.parametrize("max_n", [0, 1, 2, 7, 12])
    def test_json_keeps_the_layout_of_json_dump(self, max_n):
        code, out, _ = _run(RunConfig(command="tables", max_n=max_n, format="json"))
        assert code == 0
        rows = [cli._tables_row(n) for n in range(max_n + 1)]
        assert out == json.dumps({"max_n": max_n, "rows": rows}, indent=2) + "\n"

    # Each row is written before the next one is built: when row n (or, in
    # text, the polynomial line n) is built, the output holds exactly the
    # rows before it.
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_rows_are_written_as_they_are_built(self, monkeypatch, fmt):
        out, built = io.StringIO(), []
        max_n = 8

        def spy(name, fetch, written):
            def fetch_and_record(n):
                built.append((name, n, written(out.getvalue())))
                return fetch(n)
            monkeypatch.setattr(cli, name, fetch_and_record)

        if fmt == "text":
            poly_lines = lambda text: text.count("(x) = ")
            spy("bernoulli_poly", cli.bernoulli_poly, poly_lines)
            spy("euler_poly", cli.euler_poly, poly_lines)
            expected = [("bernoulli_poly", n, n) for n in range(max_n + 1)]
            expected += [("euler_poly", n, max_n + 1 + n) for n in range(max_n + 1)]
        else:
            # csv: the lines after the header, which `_write_rows` writes
            # with the first row
            rows = (lambda text: text.count('"n": ')) if fmt == "json" else (lambda text: len(text.splitlines()[1:]))
            builder = "_tables_row" if fmt == "json" else "_tables_cells"
            spy(builder, getattr(cli, builder), rows)
            expected = [(builder, n, n) for n in range(max_n + 1)]
        assert run(RunConfig(command="tables", max_n=max_n, format=fmt), out=out) == 0
        assert built == expected


class TestParserDefaults:
    """`RunConfig`'s field defaults are the only defaults: the parser leaves
    out every option not given, and its help quotes the field defaults."""

    @pytest.mark.parametrize("argv", [
        ["list"], ["tables"], ["verify", "--identity", "miki"], ["verify-all"], ["mc"],
    ])
    def test_options_left_out_are_absent(self, argv):
        ns = vars(cli._build_parser().parse_args(argv))
        assert ns == {"command": argv[0], **({"identity": "miki"} if argv[0] == "verify" else {})}
        assert RunConfig(**ns) == RunConfig(command=argv[0], identity=ns.get("identity"))

    def test_given_options_reach_the_config(self):
        ns = vars(cli._build_parser().parse_args(
            ["mc", "--samples", "7", "--seed", "3", "--sigma", "2.5", "--format", "csv", "--timings"]))
        assert RunConfig(**ns) == RunConfig(command="mc", samples=7, seed=3, sigma=2.5, format="csv", timings=True)
        ns = vars(cli._build_parser().parse_args(["tables", "--max-n", "9"]))
        assert RunConfig(**ns) == RunConfig(command="tables", max_n=9)

    @pytest.mark.parametrize("command, defaults", [
        ("tables", [RunConfig.max_n, RunConfig.format]),
        ("mc", [f"{RunConfig.samples:,}", RunConfig.seed, f"{RunConfig.sigma:g}", RunConfig.format]),
    ])
    def test_help_quotes_the_field_defaults(self, capsys, command, defaults):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for value in defaults:
            assert f"(default {value})" in text


class TestListCommand:
    def test_text_lists_all_entries(self):
        code, out, _ = _run(RunConfig(command="list"))
        assert code == 0
        for name in REGISTRY:
            assert name in out
        assert "default grid" in out

    def test_json_payload(self):
        code, out, _ = _run(RunConfig(command="list", format="json"))
        assert code == 0
        payload = json.loads(out)
        assert [e["name"] for e in payload] == list(REGISTRY)
        thm2 = next(e for e in payload if e["name"] == "theorem2")
        assert thm2["takes_k"] is True
        assert "k=2: n=0..20" in thm2["default_grid"]

    def test_json_digest(self):
        # `bek list --format json` covers every entry's inputs, validity and
        # default grid; it changes only with a change that means to change
        # it, which then updates this digest and says so
        _, out, _ = _run(RunConfig(command="list", format="json"))
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8820fcdfad059cd28a9a36e46df21700925c8e1f4087f1a73c2e38b073e5d824"
        )

    def test_csv_digest(self):
        _, out, _ = _run(RunConfig(command="list", format="csv"))
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4035e3d2c38589f9647b9be547c579099326f07c8fb3b1df854de417c3a0d2fe"
        )

    def test_text_digest(self):
        _, out, _ = _run(RunConfig(command="list"))
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "749e8561c4905f92af63a9c65ce4c1d2931fd6c49c3ef8dd97525ca39ddf4a37"
        )

    def test_the_grid_text_reads_the_declared_range(self):
        # a default n axis is a range, so its text is its start, last value
        # and step; the entries with a step are the even-degree ones
        for entry in REGISTRY.values():
            for kk in entry.default_ks or (None,):
                ns = entry.default_n(kk)
                assert isinstance(ns, range) and len(ns) >= 3
        texts = {e.name: cli._grid_text(e) for e in REGISTRY.values()}
        assert texts["corollary2"] == "n=4..60 step 2"
        assert texts["theorem4"].startswith("k=1: n=0..20, 3 parameter sets; k=2: n=0..20, 4 parameter sets")


class TestMcCommand:
    def test_single_query_pass(self):
        config = RunConfig(command="mc", a_vec=(F(1), F(1)), l_vec=(1, 1),
                           samples=50_000, seed=42, format="json")
        code, out, _ = _run(config)
        assert code == 0
        (row,) = json.loads(out)
        assert row["exact"] == "1/6"
        assert row["status"] == "pass"
        assert row["samples"] == 50_000
        assert row["elapsed_ms"] == 0

    def test_default_grid_runs_three_queries(self):
        config = RunConfig(command="mc", samples=20_000, seed=42, format="json")
        code, out, _ = _run(config)
        assert code == 0
        rows = _strict_json(out)
        assert [row["exact"] for row in rows] == ["1/6", "32/153153", "1/495"]

    @pytest.mark.parametrize("seed", [1, 2, 3, 42])
    def test_two_samples_pass_the_default_queries(self, seed):
        # the standard error is exact, so it holds at any sample count; one
        # estimated from the two samples read 14.94 and 446.14 sigma at seed 42
        code, out, _ = _run(RunConfig(command="mc", samples=2, seed=seed, format="json"))
        assert code == 0
        assert [row["status"] for row in json.loads(out)] == ["pass"] * 3

    def test_one_sample_runs_and_no_sample_exits_2(self):
        code, out, _ = _run(RunConfig(command="mc", samples=1, format="json"))
        rows = json.loads(out)
        assert code == 0 and [row["samples"] for row in rows] == [1] * 3
        assert all(row["stderr"] > 0 for row in rows)
        assert _run(RunConfig(command="mc", samples=0)) == (2, "", "need samples >= 1, got 0\n")

    def test_a_deviation_within_the_float_rounding_passes(self, capsys):
        # the exact standard error, 3.95e-19, is below an ulp of the mean
        # 0.25: the mean is off float(exact) by rounding alone, at 70 sigma
        argv = ["mc", "--a", "1000000000000000,1000000000000000", "--l", "1,1", "--samples", "200000",
                "--seed", "42", "--format", "json"]
        assert main(argv) == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["status"] == "pass" and row["sigmas"] == pytest.approx(70.2167, abs=1e-4)

    def test_the_text_names_a_pass_by_the_rounding_allowance(self, capsys):
        # the same query: the text line says that the allowance passed it,
        # and the closing line stays as it was
        argv = ["mc", "--a", "1000000000000000,1000000000000000", "--l", "1,1", "--samples", "200000",
                "--seed", "42"]
        assert main(argv) == 0
        line, closing = capsys.readouterr().out.splitlines()
        assert line.endswith("deviation=70.22 sigma [PASS] by the float rounding allowance 1.82e-12, "
                             "not the 4.0 sigma bound")
        assert closing == "all 1 checks pass (tolerance 4.0 sigma)"

    @pytest.mark.parametrize("offset, end", [
        (3e-3, "deviation=3.00 sigma [PASS]"),
        (5e-3, "deviation=5.00 sigma [PASS] by the float rounding allowance 0.002, not the 4.0 sigma bound"),
        (7e-3, "deviation=7.00 sigma [FAIL]"),
    ])
    def test_only_a_pass_beyond_the_sigma_bound_has_a_note(self, monkeypatch, offset, end):
        # stderr 1e-3 and allowance 2e-3: a pass by sigma and a fail carry
        # no note
        monkeypatch.setattr(cli, "dirichlet_moment_mc",
                            lambda q: MomentEstimate(0.25 + offset, 1e-3, q.samples, F(1, 4), rounding=2e-3))
        out = _run(RunConfig(command="mc", a_vec=(F(1), F(1)), l_vec=(1, 1)))[1]
        assert out.splitlines()[0].endswith(end)

    # `bek mc --samples 20000` covers the default queries' estimates,
    # standard errors and verdicts in every format; like the `list` and
    # `tables` digests, these change only with a change that means to
    # change that output, which then updates them and says so.  Its one
    # block is sampled on one thread, whatever the CPU count.
    @pytest.mark.parametrize("fmt, digest", [
        ("json", "79127e9ea90992aa07ae82b594f4b59acb7a8a670b27f50c6badab062267ac3b"),
        ("csv", "db49ff85714b23ecebb0f140dd4e1e3a746007f0ac30ea7a4ade00ccf20bd860"),
        ("text", "9490c195992763764ddce7a6e2de384aaa85b6cd26a0eb2c56f2ba3a2e87c8e6"),
    ])
    def test_digest(self, fmt, digest):
        code, out, _ = _run(RunConfig(command="mc", samples=20_000, format=fmt))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_an_exact_moment_with_a_shifted_shape_fails(self, monkeypatch):
        # the default queries at 1,000,000 samples read it at 31 to 66 sigma
        exact = stochastic.dirichlet_moment_exact
        monkeypatch.setattr(stochastic, "dirichlet_moment_exact",
                            lambda a_vec, l_vec: exact((a_vec[0] + F(1, 2), *a_vec[1:]), l_vec))
        code, out, _ = _run(RunConfig(command="mc", format="json"))
        assert code == 1
        assert [row["status"] for row in json.loads(out)] == ["fail"] * 3

    def test_no_timing_columns_without_timings(self):
        config = RunConfig(command="mc", a_vec=(F(1), F(1)), l_vec=(1, 1), samples=1_000, format="json")
        (row,) = json.loads(_run(config)[1])
        assert list(row) == ["a_vec", "l_vec", "samples", "seed", "sigma", "exact",
                             "mean", "stderr", "sigmas", "status", "elapsed_ms"]
        assert row["elapsed_ms"] == 0
        header = _run(dataclasses.replace(config, format="csv"))[1].splitlines()[0]
        assert header == "a_vec,l_vec,samples,seed,sigma,exact,mean,stderr,sigmas,status,elapsed_ms"

    def test_timings_split_exact_and_sampling(self):
        config = RunConfig(command="mc", a_vec=(F(1), F(1)), l_vec=(1, 1), samples=100_000,
                           format="json", timings=True)
        (row,) = json.loads(_run(config)[1])
        assert list(row)[-4:] == ["elapsed_ms", "exact_ms", "sampling_ms", "workers"]
        assert row["exact_ms"] >= 0 and row["sampling_ms"] > 0
        # both parts run inside the elapsed interval; each figure is rounded
        # to a microsecond
        assert row["exact_ms"] + row["sampling_ms"] <= row["elapsed_ms"] + 0.002
        # 100,000 samples are two blocks, so at most two threads sample them
        assert row["workers"] == min(stochastic._cpu_count(), 2)
        header, line = _run(dataclasses.replace(config, format="csv"))[1].splitlines()
        assert header.endswith(",elapsed_ms,exact_ms,sampling_ms,workers")
        elapsed, exact, sampling, workers = (float(v) for v in line.split(",")[-4:])
        assert 0 <= exact and 0 < sampling and exact + sampling <= elapsed + 0.002
        assert workers == row["workers"]

    @pytest.mark.parametrize("timings", [False, True])
    @pytest.mark.parametrize("a_vec, l_vec", [((F(1), F(3)), (0, 0)), (None, None)])
    def test_json_and_csv_layout(self, a_vec, l_vec, timings):
        # zero exponents give a stderr of 0, so sigmas is null; the default
        # queries give floats.  The json keeps the layout of json.dumps, and
        # the csv header is the json keys in order.
        config = RunConfig(command="mc", a_vec=a_vec, l_vec=l_vec, samples=2_000,
                           format="json", timings=timings)
        out = _run(config)[1]
        rows = json.loads(out)
        assert out == json.dumps(rows, indent=2) + "\n"
        assert [row["sigmas"] is None for row in rows] == ([True] if a_vec else [False] * 3)
        header = _run(dataclasses.replace(config, format="csv"))[1].splitlines()[0]
        assert header.split(",") == list(rows[0])

    def test_smallest_shape_gives_a_finite_estimate(self):
        config = RunConfig(command="mc", a_vec=(MIN_MC_SHAPE, MIN_MC_SHAPE), l_vec=(1, 1),
                           samples=200_000, seed=42, format="json")
        code, out, _ = _run(config)
        (row,) = _strict_json(out)
        assert code == 0 and row["status"] == "pass" and row["exact"] == "1/44"
        assert math.isfinite(row["mean"]) and math.isfinite(row["stderr"]) and row["stderr"] > 0

    def test_byte_identical_reruns(self):
        config = RunConfig(command="mc", a_vec=(F(1), F(2), F(1, 2)), l_vec=(2, 1, 3),
                           samples=30_000, seed=7, format="json")
        _, first, _ = _run(config)
        _, second, _ = _run(config)
        assert first == second

    def test_tolerance_and_seed_are_checked_before_sampling(self, monkeypatch, capsys):
        seen = []

        def fake_mc(query):
            seen.append(query.seed)
            return MomentEstimate(0.25, 0.01, query.samples, Fraction(1, 4))

        monkeypatch.setattr(cli, "dirichlet_moment_mc", fake_mc)
        # NaN, zero and negative tolerances failed every check, and an
        # infinite one passed every estimate
        for flag, value in [("--sigma", "nan"), ("--sigma", "-1"), ("--sigma", "0"), ("--sigma", "inf"),
                            ("--sigma", "-inf"), ("--seed", "-1")]:
            assert main(["mc", f"{flag}={value}"]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith(flag), err
        assert seen == []
        assert main(["mc", "--sigma", "4", "--format", "json"]) == 0
        assert [row["sigma"] for row in json.loads(capsys.readouterr().out)] == [4.0] * 3
        assert seen == [RunConfig.seed] * 3

    def test_a_seed_or_sample_count_that_is_not_an_integer_exits_2(self, monkeypatch):
        # the query refuses them before any sampling; NumPy raised TypeError
        monkeypatch.setattr(cli, "dirichlet_moment_mc", None)
        for config, start in [(RunConfig(command="mc", seed=1.5), "--seed 1.5 is not an integer"),
                              (RunConfig(command="mc", seed="7"), "--seed '7' is not an integer"),
                              (RunConfig(command="mc", samples=100.0), "samples 100.0 is not an integer")]:
            code, out, err = _run(config)
            assert (code, out) == (2, "") and err == start + "\n"

    def test_a_sample_count_or_exponent_that_is_not_an_integer_meets_no_cap(self, monkeypatch):
        # the caps read the checked query, so a library caller's string is
        # refused by the query; compared with a cap first, it raised TypeError
        monkeypatch.setattr(cli, "dirichlet_moment_mc", None)
        for config, message in [(RunConfig(command="mc", samples="7"), "samples '7' is not an integer"),
                                (RunConfig(command="mc", a_vec=(F(1), F(1)), l_vec=("1", 1)),
                                 "exponent '1' is not an integer")]:
            assert _run(config) == (2, "", message + "\n")

    def test_mismatched_vectors_exit_2(self):
        code, _, err = _run(RunConfig(command="mc", a_vec=(F(1), F(1))))
        assert code == 2 and "--a and --l" in err

    def test_bad_query_exit_2(self):
        code, _, err = _run(RunConfig(command="mc", a_vec=(F(1),), l_vec=(1,), samples=100))
        assert code == 2 and "k >= 2" in err

    def test_text_summary(self):
        code, out, _ = _run(RunConfig(command="mc", a_vec=(F(1), F(1)), l_vec=(1, 1),
                                      samples=30_000, seed=42))
        assert code == 0
        assert "exact=1/6" in out
        assert "all 1 checks pass" in out

    def test_exact_longer_than_the_int_str_cap(self):
        # numerator and denominator run to thousands of digits, past the
        # 4300-digit default cap on int-to-decimal conversion
        a_vec, l_vec = (F(1, 3), F(2, 7)), (10_000, 1)
        get_cap = getattr(sys, "get_int_max_str_digits", None)
        cap = get_cap() if get_cap else None
        code, out, err = _run(RunConfig(command="mc", a_vec=a_vec, l_vec=l_vec,
                                        samples=2, format="json"))
        assert code == 0 and err == ""
        assert (get_cap() if get_cap else None) == cap
        (row,) = json.loads(out)
        assert len(row["exact"]) > 2 * 4300
        if get_cap:
            sys.set_int_max_str_digits(0)
        try:
            assert Fraction(row["exact"]) == dirichlet_moment_exact(a_vec, l_vec)
        finally:
            if get_cap:
                sys.set_int_max_str_digits(cap)

    def test_exact_text_without_a_cap(self, monkeypatch):
        # Pythons before the cap have no get/set_int_max_str_digits
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
        assert cli._exact_text(F(-7, 3)) == "-7/3"


class TestMain:
    def test_main_verify_json(self, capsys):
        code = main(["verify", "--identity", "miki", "--n", "4..12", "--format", "json"])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 9 and all(r["status"] == "pass" for r in reports)

    def test_main_tables_default(self, capsys):
        assert main(["tables"]) == 0
        assert "B_6(x)" in capsys.readouterr().out

    def test_main_rejects_bad_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_run_refuses_an_unknown_command_like_any_usage_error(self):
        assert _run(RunConfig(command="frobnicate")) == (2, "", "unknown command 'frobnicate'\n")
        code, out, err = _run(RunConfig(command="verify", identity="frobnicate"))
        assert (code, out) == (2, "") and err.startswith("unknown identity 'frobnicate'; valid names: ")

    def test_main_rejects_bad_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--identity", "miki", "--n", "banana"])
        assert exc.value.code == 2

    def test_main_mc_small(self, capsys):
        code = main(["mc", "--a", "1,1", "--l", "1,1", "--samples", "20000", "--seed", "42"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    # argparse reads a value that starts with '-' and is not a plain
    # negative number as an option; each must reach its own check, with
    # the message and exit status of the --flag=value form
    @pytest.mark.parametrize("argv, message", [
        (["mc", "--sigma", "-inf"], "--sigma must be a finite number above 0"),
        (["mc", "--sigma", "-1e3"], "--sigma must be a finite number above 0"),
        (["mc", "--a", "-1,1", "--l", "1,1"], "shape -1 is below the smallest accepted shape 1/20"),
        (["mc", "--l", "-1,1", "--a", "1,1"], "exponents must be non-negative"),
        (["verify", "--identity", "miki", "--n", "-3..5"], "miki: n=-3 violates validity"),
        (["verify", "--identity", "theorem2", "--k", "3", "--params", "-a_vec=1"], "does not take parameter(s) -a_vec"),
    ])
    def test_dash_values_reach_their_checks(self, capsys, argv, message):
        at = argv.index(next(v for v in argv if v.startswith("-") and not v.startswith("--")))
        joined = [*argv[:at - 1], f"{argv[at - 1]}={argv[at]}", *argv[at + 1:]]
        outcomes = []
        for args in (argv, joined):
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1]
        code, err = outcomes[0]
        assert code == 2 and message in err and "expected one argument" not in err

    def test_options_are_not_taken_as_values(self, capsys):
        for argv in (["mc", "--sigma", "--seed", "3"], ["mc", "--sigma", "-h"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "--sigma: expected one argument" in capsys.readouterr().err

    def test_main_domain_error(self, capsys):
        code = main(["verify", "--identity", "corollary2", "--n", "2..2"])
        assert code == 2
        assert "even n >= 4" in capsys.readouterr().err


# A library caller's value that is not of its option's type, each of which
# reaches a cap or isfinite() and once escaped `run` as TypeError.
UNCHECKED_TYPES = [
    (RunConfig("tables", max_n="5"), "--max-n '5' is not an integer"),
    (RunConfig("tables", max_n=True), "--max-n True is not an integer"),
    (RunConfig("verify", identity="miki", n_range=["5"]), "--n '5' is not an integer"),
    (RunConfig("verify", identity="miki", n_range=[4, 6.0]), "--n 6.0 is not an integer"),
    (RunConfig("verify", identity="theorem2", k="3"), "--k '3' is not an integer"),
    (RunConfig("verify", identity="theorem2", k=F(3)), "--k Fraction(3, 1) is not an integer"),
    (RunConfig("mc", sigma="4"), "--sigma '4' is not a number"),
    (RunConfig("mc", sigma=True), "--sigma True is not a number"),
]


@pytest.mark.parametrize("config, message", UNCHECKED_TYPES, ids=[m for _, m in UNCHECKED_TYPES])
def test_a_value_of_the_wrong_type_meets_no_cap(config, message, monkeypatch):
    for name in ("_tables_row", "_tables_cells", "verify", "dirichlet_moment_mc"):
        monkeypatch.setattr(cli, name, None)
    assert _run(config) == (2, "", message + "\n")


class TestClosedPipe:
    """A reader that stops early, as `bek ... | head` does, ends the
    command with status 1 and no traceback."""

    @pytest.mark.parametrize("argv", [["tables", "--max-n", "100", "--format", "json"],
                                      ["verify-all", "--format", "json"]])
    def test_no_traceback(self, argv):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        # the output is far longer than a pipe holds, so the command is
        # still writing when the pipe closes
        with subprocess.Popen([sys.executable, "-c", "import sys; from bek.cli import main; sys.exit(main())",
                               *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(20)) == 20
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=300) == 1
        assert err == b""


class TestInputBudgets:
    """Each capped input is accepted at its cap and refused one above it.

    The capped work itself is replaced by a stub that records its input, so
    the tests take no time; a refusal must happen before the stub is called.
    """

    @staticmethod
    def _refused(capsys, argv, flag):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err and "cap" in err

    def test_tables_max_n(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "_tables_row", lambda n: seen.append(n) or {})
        assert main(["tables", "--max-n", str(MAX_TABLES_N), "--format", "json"]) == 0
        assert seen == list(range(MAX_TABLES_N + 1))
        self._refused(capsys, ["tables", "--max-n", str(MAX_TABLES_N + 1)], "--max-n")
        self._refused(capsys, ["tables", "--max-n", str(10**6)], "--max-n")
        assert seen == list(range(MAX_TABLES_N + 1))

    def test_verify_n(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "verify", lambda name, points, registry: seen.append(points) or [])
        assert main(["verify", "--identity", "theorem4", "--n", str(MAX_VERIFY_N)]) == 0
        assert {pt["n"] for pt in seen[0]} == {MAX_VERIFY_N}
        assert main(["verify", "--identity", "miki", "--n", f"4..{MAX_VERIFY_N}"]) == 0
        assert [pt["n"] for pt in seen[1]] == list(range(4, MAX_VERIFY_N + 1))
        for n_arg in (str(MAX_VERIFY_N + 1), f"0..{MAX_VERIFY_N + 1}", "0..100000", f"0..{10**12}"):
            self._refused(capsys, ["verify", "--identity", "miki", "--n", n_arg], "--n")
        code, _, err = _run(RunConfig(command="verify", identity="miki", n_range=(MAX_VERIFY_N + 1, 4)))
        assert code == 2 and "--n" in err
        assert len(seen) == 2

    @pytest.mark.parametrize("n_range, top", [
        (range(1, 201), 200), (range(200, 0, -1), 200), (range(200, 0, -7), 200), (range(-5, 201, 5), 200),
        ([1, 200, 3], 200), ([200, 1], 200), (range(10**12, 0, -1), 10**12),
    ])
    def test_verify_n_caps_the_largest_value_in_any_order(self, monkeypatch, n_range, top):
        # a range that counts down starts at its largest value
        seen = []
        monkeypatch.setattr(cli, "verify", lambda name, points, registry: seen.append(points) or [])
        code, out, err = _run(RunConfig(command="verify", identity="euler-1-2", n_range=n_range))
        assert (code, out, seen) == (2, "", [])
        assert err.count("\n") == 1 and f"--n {top} is above its input budget cap of {MAX_VERIFY_N}" in err

    @pytest.mark.parametrize("n_range", [range(MAX_VERIFY_N, 0, -1), [MAX_VERIFY_N, 1], range(1, MAX_VERIFY_N + 1)])
    def test_verify_n_accepts_the_cap_in_any_order(self, monkeypatch, n_range):
        seen = []
        monkeypatch.setattr(cli, "verify", lambda name, points, registry: seen.append(points) or [])
        assert _run(RunConfig(command="verify", identity="euler-1-2", n_range=n_range))[0] == 0
        assert [pt["n"] for pt in seen[0]] == list(n_range)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("n_range", [range(3, 3), [], ()], ids=["range", "list", "tuple"])
    def test_verify_refuses_an_empty_n_range(self, monkeypatch, n_range, fmt):
        # the parser refuses '6..4' as an empty range; a library caller's
        # empty range is refused in its words, before any grid is built,
        # where it passed as "all 0 reports pass" (json: [])
        built = []
        monkeypatch.setattr(cli, "build_points", lambda *args, **kwargs: built.append(args) or [])
        code, out, err = _run(RunConfig(command="verify", identity="theorem2", k=3, n_range=n_range, format=fmt))
        assert (code, out, built) == (2, "", [])
        assert err == f"empty range {n_range!r}\n"

    def test_verify_reads_a_one_shot_n_range_once(self):
        # the cap read a generator to its end, and the grid then got none of
        # it: "all 0 reports pass"
        code, out, err = _run(RunConfig(command="verify", identity="theorem2", k=3, n_range=(3, 4), format="json"))
        assert (code, err, len(json.loads(out))) == (0, "", 6)
        assert _run(RunConfig(command="verify", identity="theorem2", k=3, n_range=(n for n in [3, 4]),
                              format="json")) == (code, out, err)
        code, out, err = _run(RunConfig(command="verify", identity="theorem2", k=3, n_range=(n for n in [])))
        assert (code, out) == (2, "") and err.startswith("empty range <generator")

    def test_verify_reads_no_n_range_as_the_entry_grid(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "verify", lambda name, points, registry: seen.append(points) or [])
        assert _run(RunConfig(command="verify", identity="theorem2", n_range=None))[0] == 0
        assert seen == [build_points(REGISTRY["theorem2"])] and seen[0]

    def test_mc_samples(self, monkeypatch, capsys):
        seen = []

        def fake_mc(query):
            seen.append(query.samples)
            return MomentEstimate(0.25, 0.01, query.samples, Fraction(1, 4))

        monkeypatch.setattr(cli, "dirichlet_moment_mc", fake_mc)
        assert main(["mc", "--samples", str(MAX_MC_SAMPLES), "--format", "json"]) == 0
        assert seen == [MAX_MC_SAMPLES] * 3
        self._refused(capsys, ["mc", "--samples", str(MAX_MC_SAMPLES + 1)], "--samples")
        self._refused(capsys, ["mc", "--samples", str(10**12)], "--samples")
        assert len(seen) == 3

    def test_verify_k(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "verify", lambda name, points, registry: seen.append(points) or [])
        assert main(["verify", "--identity", "theorem4", "--k", str(MAX_VERIFY_K), "--n", "0"]) == 0
        a_vec = ",".join(["1"] * MAX_VERIFY_K)
        assert main(["verify", "--identity", "theorem2", "--params", f"a_vec={a_vec}", "--n", "1"]) == 0
        assert [len(pt["a_vec"]) for pts in seen for pt in pts] == [MAX_VERIFY_K] * 4
        # the work at n = 0 is far below its cap, so only the k cap refuses these
        self._refused(capsys, ["verify", "--identity", "theorem4", "--k", str(MAX_VERIFY_K + 1), "--n", "0"], "--k")
        self._refused(capsys, ["verify", "--identity", "kth-matiyasevich", "--k", str(10**9), "--n", "0"], "--k")
        self._refused(capsys, ["verify", "--identity", "theorem2", "--params", f"a_vec={a_vec},1", "--n", "0"],
                      "a_vec length")
        assert len(seen) == 2

    def test_verify_work(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "verify", lambda name, points, registry: seen.append(points) or [])
        # the cap is the work of theorem2 at k = 16, n = 70 on its three
        # default parameter sets
        assert MAX_VERIFY_WORK == 3 * series_work(16, 70)
        boundary = ["verify", "--identity", "theorem2", "--k", "16", "--n", "70"]
        assert main(boundary) == 0
        assert [(pt["k"], pt["n"]) for pt in seen[0]] == [(16, 70)] * 3
        # the work of a range is the sum over its points
        self._refused(capsys, ["verify", "--identity", "theorem4", "--k", "16", "--n", "0..70"], "coefficient products")
        self._refused(capsys, ["verify", "--identity", "theorem2", "--k", "16", "--n", "69..70"], "coefficient products")
        # a cap one below the boundary refuses it: the cap is the largest
        # accepted work
        monkeypatch.setattr(cli, "MAX_VERIFY_WORK", MAX_VERIFY_WORK - 1)
        self._refused(capsys, boundary, "coefficient products")
        assert len(seen) == 1

    def test_param_height(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "verify", lambda name, points, registry: seen.append(points) or [])
        # sixteen parameters of height 10^9 at the largest admitted (k, n)
        # ran for about ten minutes; the cap refuses them before any work
        tall = ",".join(["999999937/999999929"] * 16)
        self._refused(capsys, ["verify", "--identity", "theorem2", "--n", "70", "--params", f"a_vec={tall}"],
                      "999999937/999999929")
        at_cap = ",".join([f"{MAX_PARAM_HEIGHT}/113", f"1/{MAX_PARAM_HEIGHT}"] * 8)
        assert main(["verify", "--identity", "theorem2", "--n", "70", "--params", f"a_vec={at_cap}"]) == 0
        assert main(["verify", "--identity", "theorem1", "--n", "3", "--params", f"a={MAX_PARAM_HEIGHT},b=1"]) == 0
        assert [pt["a_vec"][:2] for pt in seen[0]] == [(F(MAX_PARAM_HEIGHT, 113), F(1, MAX_PARAM_HEIGHT))]
        for params in (f"a_vec=1,1/{MAX_PARAM_HEIGHT + 1}", f"a_vec={MAX_PARAM_HEIGHT + 1},1", f"a=1,b={10**12}",
                       f"epsilon={MAX_PARAM_HEIGHT + 2}/{MAX_PARAM_HEIGHT}"):
            identity = {"a_vec": "theorem2", "a": "theorem1", "epsilon": "eq-6-9"}[params.split("=")[0]]
            self._refused(capsys, ["verify", "--identity", identity, "--n", "3", "--params", params], "--params")
        assert len(seen) == 2

    @pytest.mark.parametrize("vec_type", [tuple, list])
    def test_param_height_of_a_library_callers_a_vec(self, monkeypatch, vec_type):
        # a list a_vec passed the cap, and its run verified
        monkeypatch.setattr(cli, "build_points", None)
        a_vec = vec_type((F(999999937, 999999929), F(1)))
        code, out, err = _run(RunConfig(command="verify", identity="theorem2", k=2, params={"a_vec": a_vec},
                                        n_range=range(0, 3)))
        assert (code, out) == (2, "")
        assert err == f"--params a_vec value 999999937/999999929 is above its input budget cap of height {MAX_PARAM_HEIGHT}\n"

    def test_kth_matiyasevich_at_k_16_runs(self, capsys):
        # the composition count refused this point, C(23, 15) = 490,314;
        # its sides are number series, and its work is far below the cap
        assert main(["verify", "--identity", "kth-matiyasevich", "--k", "16", "--n", "8"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "PASS" in captured.out

    def test_mc_shapes(self, monkeypatch, capsys):
        seen = []

        def fake_mc(query):
            seen.append(query.k)
            return MomentEstimate(0.25, 0.01, query.samples, Fraction(1, 4))

        monkeypatch.setattr(cli, "dirichlet_moment_mc", fake_mc)
        shapes, exponents = ",".join(["1"] * MAX_MC_SHAPES), ",".join(["1"] * MAX_MC_SHAPES)
        assert main(["mc", "--a", shapes, "--l", exponents, "--format", "json"]) == 0
        assert seen == [MAX_MC_SHAPES]
        self._refused(capsys, ["mc", "--a", shapes + ",1", "--l", exponents + ",1"], "--a length")
        self._refused(capsys, ["mc", "--a", "1,1", "--l", exponents + ",1"], "--l length")
        assert seen == [MAX_MC_SHAPES]

    def test_mc_exponent_sum(self, monkeypatch, capsys):
        seen = []

        def fake_mc(query):
            seen.append(sum(query.l_vec))
            return MomentEstimate(0.25, 0.01, query.samples, Fraction(1, 4))

        monkeypatch.setattr(cli, "dirichlet_moment_mc", fake_mc)
        assert main(["mc", "--a", "1,1", "--l", f"{MAX_MC_EXPONENT_SUM - 1},1", "--format", "json"]) == 0
        spread = ",".join([str(MAX_MC_EXPONENT_SUM // 10)] * 10)
        assert main(["mc", "--a", ",".join(["1/3"] * 10), "--l", spread, "--format", "json"]) == 0
        assert seen == [MAX_MC_EXPONENT_SUM] * 2
        self._refused(capsys, ["mc", "--a", "1,1", "--l", f"{MAX_MC_EXPONENT_SUM},1"], "--l sum")
        self._refused(capsys, ["mc", "--a", "1,1,1", "--l", f"{MAX_MC_EXPONENT_SUM // 2},{MAX_MC_EXPONENT_SUM // 2},1"],
                      "--l sum")
        self._refused(capsys, ["mc", "--a", "1,1", "--l", f"{10**12},0"], "--l sum")
        assert seen == [MAX_MC_EXPONENT_SUM] * 2

    def test_mc_shape_floor(self, monkeypatch, capsys):
        seen = []

        def fake_mc(query):
            seen.append(min(query.a_vec))
            return MomentEstimate(0.25, 0.01, query.samples, Fraction(1, 4))

        monkeypatch.setattr(cli, "dirichlet_moment_mc", fake_mc)
        assert MIN_MC_SHAPE == F(1, 20)
        assert main(["mc", "--a", "1/20,3", "--l", "1,1", "--format", "json"]) == 0
        assert seen == [MIN_MC_SHAPE]
        # the query names the first shape below the floor
        for shapes, low in (("1/1000,1/1000", "1/1000"), ("1/21,1", "1/21"), ("1,2,1/1000", "1/1000"), ("0,1", "0")):
            assert main(["mc", "--a", shapes, "--l", ",".join(["1"] * (shapes.count(",") + 1))]) == 2
            assert capsys.readouterr().err == f"shape {low} is below the smallest accepted shape 1/20\n"
        assert seen == [MIN_MC_SHAPE]

    def test_the_cli_restates_no_other_layers_rule(self):
        # the work bound is exactmath's, k is read off the built grid, the
        # shape floor and a query's time are the stochastic layer's, and a
        # default n axis is the range the registry declares
        tree = ast.parse(Path(cli.__file__).read_text())
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert not defined & {"_refuse_k_above_cap", "render_ns"}
        assert not imported & {"comb", "time", "MIN_MC_SHAPE"}
        # a report's inputs are written as `identities._checked` left them,
        # and the text format's marks need no format to tell them apart
        payload = next(node for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef) and node.name == "_inputs_payload")
        called = {node.func.id for node in ast.walk(payload)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert not called & {"Fraction", "int"}
        assert list(inspect.signature(cli._Style).parameters) == ["out"]

    def test_caps_admit_the_benchmark_inputs(self):
        # perfbench runs tables to N = 150, the sweep to n = 60 and mc
        # queries of 2,000,000 samples over at most 4 shapes of at least 1/2,
        # with exponents summing to at most 6
        assert MAX_TABLES_N >= 150 and MAX_VERIFY_N >= 60 and MAX_MC_SAMPLES >= 2_000_000
        assert MAX_MC_SHAPES >= 4 and MAX_MC_EXPONENT_SUM >= 6 and MIN_MC_SHAPE <= F(1, 2)

    def test_caps_admit_every_default_grid(self):
        for entry in REGISTRY.values():
            points = build_points(entry)
            assert max(pt["n"] for pt in points) <= MAX_VERIFY_N
            if entry.takes_k:
                assert max(entry.default_ks) <= MAX_VERIFY_K
                cli._refuse_work(points)
            for pt in points:
                cli._refuse_tall_params({key: v for key, v in pt.items() if key not in ("n", "k")})

    def test_the_sweep_grid_is_below_the_height_cap(self):
        # the benchmark's sweep passes each grid point's parameters as --params
        grid = json.loads((Path(__file__).parents[1] / "perfbench" / "sweep_grid.json").read_text())
        values = [F(v) for inv in grid for value in inv["params"].values()
                  for v in (value if isinstance(value, list) else [value])]
        assert values and max(max(abs(v.numerator), v.denominator) for v in values) <= MAX_PARAM_HEIGHT
