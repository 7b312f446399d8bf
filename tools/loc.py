#!/usr/bin/env python3
"""Code lines of the library: src/opfcuts without blanks, comments or
docstrings.

Run from the repository root:

    python3 tools/loc.py [PACKAGE_DIR]

PACKAGE_DIR defaults to this checkout's src/opfcuts; another checkout's
can be counted with the same rule.  A line counts when a token other than
a comment starts, continues or ends on it, unless it belongs to a
docstring: the string that opens a module, class or function body.  It
prints the total, then the count per module.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "opfcuts"
_NO_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The code lines of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NO_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("package", nargs="?", type=Path, default=SRC)
    args = p.parse_args(argv)
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(args.package.glob("*.py"))}
    print(sum(counts.values()))
    for name, n in counts.items():
        print("  %-16s %5d" % (name, n))
    return 0


if __name__ == "__main__":
    sys.exit(main())
