"""Count the code lines of each ``ramcov`` module: no blank line, comment or docstring.

Usage::

    python3 tools/code_lines.py [SRC]

``SRC`` is a directory holding a ``ramcov`` package, such as the ``src``
directory of a checkout; it defaults to this checkout's.  A line counts
when some token on it, or some token that spans it, is code: not a comment
and not the whitespace tokens that end lines and mark indentation.  The
lines of module, class and function docstrings, found with :mod:`ast`, do
not count.  The script prints one line per module, ``count path``, and the
total last, as ``wc -l`` does.  It uses the standard library only.
"""

from __future__ import annotations

import ast
import pathlib
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: pathlib.Path) -> int:
    """The number of lines of ``path`` that hold code."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    code = set()
    for token in tokens:
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    source = path.read_text(encoding="utf-8")
    return len(code - docstring_lines(ast.parse(source, str(path))))


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src = pathlib.Path(argv[1]) if len(argv) == 2 else pathlib.Path(__file__).parents[1] / "src"
    modules = sorted((src / "ramcov").glob("*.py"))
    if not modules:
        print(f"error: no ramcov modules under {src}", file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
