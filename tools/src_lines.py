"""Count the lines and code lines of each module of the package.

    python3 tools/src_lines.py CHECKOUT_ROOT

One line per CHECKOUT_ROOT/src/cstar_index/*.py, then the totals: lines
(as `wc -l` counts them), code lines, and the module's name.  A code line is
one that is not blank, not a comment, and not part of a module, class or
function docstring; a line holding part of any other string counts as code.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count_lines(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docstrings)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: src_lines.py CHECKOUT_ROOT", file=sys.stderr)
        return 2
    total_lines = total_code = 0
    for path in sorted((Path(argv[0]) / "src" / "cstar_index").glob("*.py")):
        lines, code = count_lines(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{lines:6d} {code:6d}  {path.name}")
    print(f"{total_lines:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
