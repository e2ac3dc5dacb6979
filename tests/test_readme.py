"""The README's python examples run as written, and its `bek` command
lines parse, so neither the public API nor the CLI they show can drift
from the package."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from bek import cli

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
EXAMPLES = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.M | re.S)
COMMANDS = [line for block in re.findall(r"^```sh\n(.*?)^```$", TEXT, flags=re.M | re.S)
            for line in block.splitlines() if line.startswith("bek ")]


def test_the_readme_has_an_example():
    assert EXAMPLES and COMMANDS


@pytest.mark.parametrize("source", EXAMPLES, ids=[f"example-{i}" for i in range(1, len(EXAMPLES) + 1)])
def test_the_example_runs(source):
    exec(compile(source, str(README), "exec"), {})


@pytest.mark.parametrize("line", COMMANDS)
def test_the_command_parses(line):
    # the arguments before any '>' redirection, parsed as `main` parses
    # them; nothing runs
    words = shlex.split(line)[1:]
    words = words[:next((i for i, w in enumerate(words) if w.startswith(">")), len(words))]
    args = cli._build_parser().parse_args(cli._attach_dash_values(words))
    assert cli.RunConfig(**vars(args)).command == words[0]
