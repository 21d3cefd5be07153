"""Code lines of Python sources: lines that hold code, not blanks, comments or docstrings.

A line counts when a token other than a comment, a newline or an indent
touches it; a token over several lines, such as a string, touches each of
them. The lines of a module, class or function docstring are then taken
out. Run from anywhere, with files or directories (searched for *.py):

    python tools/code_lines.py src/sdpcert

It prints one line per file, "<count> <path>", and then "<total> total".
Only the standard library is used.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_WITH_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The number of code lines in the Python source text."""
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _WITH_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
            lines.difference_update(range(docstring.lineno, docstring.end_lineno + 1))
    return len(lines)


def python_files(paths):
    """The .py files among paths, and under the directories among them, each in sorted order."""
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        sys.exit("usage: code_lines.py PATH [PATH ...]")
    total = 0
    for path in python_files(paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path}")
    print(f"{total} total")


if __name__ == "__main__":
    main()
