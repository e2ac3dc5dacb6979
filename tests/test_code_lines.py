"""`tools/code_lines.py`, which counts the code lines that size figures
quote: what counts as a code line, and the table it prints."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

# a comment-only line

import os  # a trailing comment counts


def f(x):
    """A function docstring."""
    text = """a string
    over three
    lines"""
    return x


class C:
    """A class docstring
    over two lines."""

    value = 1
'''


def test_docstrings_comments_and_blank_lines_are_not_code():
    # the code lines: import, def, text (3 lines), return, class, value
    assert code_lines.code_lines(SOURCE) == 8


def test_a_multi_line_string_counts_on_every_line():
    assert code_lines.code_lines("x = 1\n") == 1
    assert code_lines.code_lines('x = """a\nb\nc"""\n') == 3
    # the same string as a docstring is no code
    assert code_lines.code_lines('"""a\nb\nc"""\n') == 0


def test_main_prints_one_row_per_file_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n\n# note\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "2"], ["b.py", "8"], ["total", "10"]]
