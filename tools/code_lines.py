"""Count code lines: the size measure the ROADMAP's simplicity aim uses.

A code line is a non-blank physical line holding at least one token other
than a comment, outside module, class and function docstrings.  Lines of a
multi-line token (a string, a bracketed expression) each count.

Usage::

    python tools/code_lines.py [PATH ...]     # default: src

Prints the count of each package (a file counts toward the directory two
levels below ``PATH``, e.g. ``src/repro/core``, or toward its own directory
when it sits higher), then the total.  A file ``PATH`` is counted as that
one file; a ``PATH`` that does not exist is an error (exit status 2).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Physical lines spanned by module, class and function docstrings."""
    lines: set[int] = set()
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if not isinstance(node, scopes) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_file(path: Path) -> int:
    """Code lines in one Python source file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _SKIP:
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def count_tree(root: Path) -> Counter:
    """Code lines per package, keyed by the package path under ``root``.

    A file ``root`` is one entry, keyed by the empty path.
    """
    if root.is_file():
        return Counter({Path(): count_file(root)})
    counts: Counter = Counter()
    for path in sorted(root.rglob("*.py")):
        package = path.relative_to(root).parent.parts[:2]
        counts[Path(*package)] += count_file(path)
    return counts


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv or ["src"]]
    missing = [str(root) for root in roots if not root.exists()]
    if missing:
        print(f"code_lines: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    for root in roots:
        counts = count_tree(root)
        for package, lines in sorted(counts.items()):
            print(f"{lines:>7,}  {root / package}")
        print(f"{sum(counts.values()):>7,}  {root} (total)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
