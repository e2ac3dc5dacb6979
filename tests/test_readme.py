"""The README's python examples run as written, so the public API they
show cannot drift from the package."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_the_readme_has_an_example():
    assert EXAMPLES


@pytest.mark.parametrize("source", EXAMPLES, ids=[f"example-{i}" for i in range(1, len(EXAMPLES) + 1)])
def test_the_example_runs(source):
    exec(compile(source, str(README), "exec"), {})
