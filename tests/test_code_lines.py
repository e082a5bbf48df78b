"""Tests for tools/code_lines.py, the code-line counter behind the size
figures in CHANGES.md."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring
over two lines."""

import os  # a comment

# a full-line comment


def f(a,
      b):
    """Function docstring,
    over two lines."""
    text = """a multi-line
string that is not a docstring"""
    return os.path.join(
        a,
        b,
    )


class C:
    \'\'\'Class docstring.\'\'\'

    x = 1
    "a string after the first statement is no docstring"
'''

# import (1), def over two lines (2), the multi-line string (2), the
# multi-line call (4), class (1), x = 1 (1), the late string (1).
SNIPPET_CODE_LINES = 12


def test_counts_code_lines_but_not_blanks_comments_or_docstrings():
    assert code_lines.code_lines(SNIPPET) == SNIPPET_CODE_LINES


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        [str(SNIPPET_CODE_LINES), str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        [str(SNIPPET_CODE_LINES + 1), "total"],
    ]
