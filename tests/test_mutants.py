"""`tools/mutants.py`, the mutation gate, reads its declarations against
today's source: each function it mutates by default is a function of
`bek.identities`, and each survivor it declares equivalent is a site that
it generates there.  A refactor that renames a function or rewrites a
declared site fails here, read off the syntax trees alone, and not only
in the opt-in run of the tool."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

FUNCTIONS = {node.name: node for node in ast.parse(Path(mutants.identities.__file__).read_text()).body
             if isinstance(node, ast.FunctionDef)}


def test_each_default_function_is_a_function_of_identities():
    assert [name for name in mutants.DEFAULT_FUNCTIONS if name not in FUNCTIONS] == []
    assert len(set(mutants.DEFAULT_FUNCTIONS)) == len(mutants.DEFAULT_FUNCTIONS)


def test_each_declared_survivor_is_a_site_of_a_default_function():
    sites = {name: {site for site, _ in mutants._sites(FUNCTIONS[name])} for name in mutants.DEFAULT_FUNCTIONS}
    assert sorted((fn, site) for fn, site, _ in mutants.EQUIVALENT if site not in sites.get(fn, ())) == []

