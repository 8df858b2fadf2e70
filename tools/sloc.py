"""Line counts of the zfdom package, per module and in total.

Prints two counts for each module of ``src/zfdom``: every line, as ``wc -l``
counts them, and the code lines, which hold a token other than a comment and
are not part of a module, class or function docstring.  Standard library only.

Usage: python3 tools/sloc.py [package directory]
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
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


def counts(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return source.count("\n"), len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).parents[1] / "src" / "zfdom"
    total_all = total_code = 0
    for path in sorted(root.glob("*.py")):
        every, code = counts(path.read_text(encoding="utf-8"))
        total_all += every
        total_code += code
        print(f"{every:6d} {code:6d}  {path.name}")
    print(f"{total_all:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
