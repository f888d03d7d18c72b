"""Count the lines of each harxlab module as code, docstring, comment or blank.

Usage:

    python3 tools/code_lines.py [DIR]

DIR defaults to the ``src/harxlab`` beside this script.  ``wc -l`` counts a
docstring like code, so a cut in prose reads like a cut in code; this tool
tells them apart.  A line counts as the first of these it belongs to:

- docstring: a line of a module's, class's or function's docstring;
- code: a line any token other than a comment touches, a multi-line
  string's inner lines included;
- comment: a line that holds only a comment;
- blank: every other line.

Prints one row per ``*.py`` module and a total row; the four counts of a
row add up to its ``wc -l``.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count_lines(source: str) -> dict[str, int]:
    """The code, docstring, comment and blank lines of Python ``source``."""
    docstring, code, comment = set(), set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstring.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    first = (("docstring", docstring), ("code", code), ("comment", comment))  # in that order
    counts = dict.fromkeys(KINDS, 0)
    for number in range(1, len(source.splitlines()) + 1):
        counts[next((kind for kind, lines in first if number in lines), "blank")] += 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    default = Path(__file__).resolve().parent.parent / "src" / "harxlab"
    parser.add_argument("directory", nargs="?", type=Path, default=default)
    args = parser.parse_args(argv)
    rows = {path.name: count_lines(path.read_text(encoding="utf-8")) for path in sorted(args.directory.glob("*.py"))}
    rows["total"] = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    width = max(map(len, rows))
    print(f"{'module':<{width}}" + "".join(f"{kind:>11}" for kind in (*KINDS, "lines")))
    for name, row in rows.items():
        print(f"{name:<{width}}" + "".join(f"{row[kind]:>11}" for kind in KINDS) + f"{sum(row.values()):>11}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
