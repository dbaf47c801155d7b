"""Count the hand-written code lines of src/cellassoc, file by file.

A code line holds a token other than a comment, outside the module,
class and function docstrings; blank lines are left out.  A string that
spans lines counts each line it covers, unless it is a docstring.

    python .github/code_lines.py [source directory]

prints one "lines path" row per .py file under the directory (by
default src/cellassoc of the checkout that holds this script), then the
total.
"""

import ast
import io
import pathlib
import sys
import tokenize

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}
SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "cellassoc"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text):
    """The number of code lines in the module source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv):
    root = pathlib.Path(argv[1]) if len(argv) > 1 else SOURCE
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.relative_to(root).as_posix()}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv)
