"""Tests of the composition walks of the tests' reference sums, and a pin
that the package walks none: `composition_parts` and `multinomial` live in
`walks.py`, and the other test modules import them from there."""

from __future__ import annotations

import ast
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import bek
import bek.exactmath
from walks import composition_parts, multinomial

# the walks, and `poly_derivative`, which only the tests' references call
WALK_NAMES = {"composition_parts", "multinomial", "combinations_with_replacement", "poly_derivative"}


def _recursive_composition_parts(n, k):
    """The recursive enumeration that composition_parts replaced, kept as
    the oracle of its order; it recurses once per part."""
    if n < 0:
        return
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _recursive_composition_parts(n - first, k - 1):
            yield (first,) + rest


class TestMultinomial:
    def test_multinomial_frozen_value(self):
        assert multinomial(4, (2, 1, 1)) == 12
        assert multinomial(0, (0, 0)) == 1

    def test_multinomial_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            multinomial(4, (2, 1))
        with pytest.raises(ValueError):
            multinomial(4, (5, -1))

    @given(st.integers(0, 10), st.integers(1, 4))
    def test_multinomial_sums_to_power(self, n, k):
        total = sum(multinomial(n, parts) for parts in composition_parts(n, k))
        assert total == k ** n


class TestCompositions:
    def test_count_frozen(self):
        assert len(list(composition_parts(5, 3))) == 21

    def test_lexicographic_and_complete(self):
        parts = list(composition_parts(3, 2))
        assert parts == [(0, 3), (1, 2), (2, 1), (3, 0)]

    def test_zero_sum(self):
        assert list(composition_parts(0, 3)) == [(0, 0, 0)]

    def test_single_slot(self):
        assert list(composition_parts(4, 1)) == [(4,)]

    def test_negative_total_is_vacuous(self):
        assert list(composition_parts(-2, 3)) == []

    def test_rejects_bad_slot_count(self):
        with pytest.raises(ValueError):
            list(composition_parts(3, 0))

    def test_order_matches_recursive_enumeration(self):
        for n in range(-1, 9):
            for k in range(1, 6):
                assert list(composition_parts(n, k)) == list(_recursive_composition_parts(n, k))

    def test_more_parts_than_the_recursion_limit(self):
        parts = list(composition_parts(1, 1200))
        assert len(parts) == 1200
        assert parts[0] == (0,) * 1199 + (1,) and parts[-1] == (1,) + (0,) * 1199
        assert all(sum(c) == 1 and len(c) == 1200 for c in parts)
        assert list(composition_parts(0, 1200)) == [(0,) * 1200]

    @given(st.integers(0, 9), st.integers(1, 4))
    def test_count_is_stars_and_bars(self, n, k):
        assert len(list(composition_parts(n, k))) == math.comb(n + k - 1, k - 1)


def _walk_names(source: str) -> set[str]:
    """The names of WALK_NAMES that a module source uses: read, as an
    attribute, imported (under any alias) or defined.  Text in strings and
    comments does not count."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.alias):
            names = {node.name.rpartition(".")[2], node.asname}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = {node.name}
        else:
            continue
        found |= WALK_NAMES & names
    return found


class TestPackageWalksNoCompositions:
    """Every multi-index sum of the package is a series coefficient or a
    slot-by-slot expansion, so no module of it enumerates compositions."""

    def test_no_module_names_a_walk(self):
        package = Path(bek.__file__).parent
        assert {path.name: found for path in sorted(package.rglob("*.py"))
                if (found := _walk_names(path.read_text()))} == {}
        assert "multinomial" not in bek.__all__
        assert not WALK_NAMES & set(vars(bek)) and not WALK_NAMES & set(vars(bek.exactmath))

    def test_the_scan_sees_each_use(self):
        planted = (
            "from itertools import combinations_with_replacement as cwr\n"
            "from .exactmath import multinomial, poly_derivative\n"
            "def composition_parts(n, k):\n    return cwr(range(n + 1), k - 1)\n"
        )
        assert _walk_names(planted) == WALK_NAMES
        assert _walk_names("import itertools\nc = itertools.combinations_with_replacement") == {
            "combinations_with_replacement"}
        assert _walk_names("def f(n):\n    return sum(multinomial(n, p) for p in parts)\n") == {"multinomial"}
        assert _walk_names('"""multinomial convolution"""\n# composition_parts\nx = "multinomial"\n') == set()
