"""Line counts of the pellsum package.

Run as a script, `python3 tests/code_lines.py [SRC]` prints, for each module
under SRC/pellsum (default: this checkout's src), its physical lines and its
code lines, then the totals. A code line holds part of a token that is not
a comment; blank lines, comment lines and the lines of docstrings (the
string that opens a module, class or function body) are not code lines.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(source: str) -> set[int]:
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's text."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(source))


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    totals = [0, 0]
    print(f"{'module':<28}{'physical':>10}{'code':>8}")
    for path in sorted((root / "pellsum").rglob("*.py")):
        physical, code = count(path.read_text(encoding="utf-8"))
        totals[0] += physical
        totals[1] += code
        print(f"{path.relative_to(root).as_posix():<28}{physical:>10}{code:>8}")
    print(f"{'total':<28}{totals[0]:>10}{totals[1]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
