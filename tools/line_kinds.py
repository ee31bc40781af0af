"""Count the code, docstring, comment and blank lines of Python sources.

Usage::

    python3 tools/line_kinds.py [PATH ...]      # default: src/twincal

Each line is counted once, as the first of these kinds it is:

* docstring: a line of a string-expression statement (a docstring or a
  bare string), the blank lines inside it included;
* comment: a line whose first token is a comment;
* blank: a line of whitespace alone;
* code: any other line.

Prints one row per file and a total row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")

_NO_TEXT = {tokenize.ENCODING, tokenize.INDENT, tokenize.DEDENT,
            tokenize.NL, tokenize.NEWLINE, tokenize.ENDMARKER}


def line_kinds(source: str) -> dict[str, int]:
    """Line count of each of ``KINDS`` in a module's ``source``."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstring.update(range(node.lineno, node.end_lineno + 1))
    first = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NO_TEXT:
            first.setdefault(token.start[0], token.type)
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docstring:
            kind = "docstring"
        elif first.get(number) == tokenize.COMMENT:
            kind = "comment"
        elif not line.strip():
            kind = "blank"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def _row(total, cells, name) -> str:
    return f"{total:>6} " + " ".join(f"{c:>9}" for c in cells) + f"  {name}"


def main(argv=None) -> int:
    paths = [Path(p) for p in (sys.argv[1:] if argv is None else argv)]
    files = sorted(f for p in paths or [Path("src/twincal")]
                   for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = dict.fromkeys(KINDS, 0)
    print(_row("lines", KINDS, "file"))
    for f in files:
        counts = line_kinds(f.read_text())
        for k in KINDS:
            total[k] += counts[k]
        print(_row(sum(counts.values()), counts.values(), f))
    print(_row(sum(total.values()), total.values(), "total"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
