"""Count the code lines of Python files: lines that are not blank, not
comments and not docstrings.

A line counts when a token other than a comment, a docstring or layout
(newlines, indents) touches it; a token that spans lines, such as a
multi-line string that is not a docstring, counts every line it spans.
Docstrings are the leading string constants of modules, classes and
functions.

    python tools/code_lines.py [PATH ...]

prints one count per file, then their total.  A directory stands for the
``*.py`` files below it; the default is ``src/kdeband``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of every docstring in the tree."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                doc = body[0].value
                spans.append(((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines in a module's source text."""
    docs = _docstring_spans(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if any(start <= tok.start and tok.end <= end for start, end in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _files(paths: list[str]) -> list[Path]:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv: list[str] | None = None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or ["src/kdeband"]
    total = 0
    for path in _files(paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
