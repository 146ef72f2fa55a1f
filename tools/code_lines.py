"""Count the code lines of Python sources: lines that hold a token other than
a comment, docstrings and blank lines not counted.

A docstring is the string literal that opens a module, class or function
body.  Usage::

    python3 tools/code_lines.py [PATH ...]

PATH is a file or a directory searched for ``*.py``; the default is the
repository's ``src``, wherever the script is run from.  Prints the total,
or with several paths one count per path and the total; a missing PATH
exits 2.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    out: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count(path: Path) -> int:
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(code_lines(f.read_text(encoding="utf-8")) for f in files)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description="Count the code lines of Python sources.")
    ap.add_argument("paths", nargs="*", type=Path, metavar="PATH")
    paths = ap.parse_args(argv).paths or [Path(__file__).resolve().parent.parent / "src"]
    for p in paths:
        if not p.exists():
            print(f"code_lines.py: no such file or directory: {p}", file=sys.stderr)
            return 2
    counts = [count(p) for p in paths]
    if len(paths) > 1:
        for p, c in zip(paths, counts):
            print(f"{c:7d} {p}")
    print(sum(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
