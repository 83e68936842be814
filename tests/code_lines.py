"""Code lines per module of ``src/stefan``.

    python tests/code_lines.py           # print each module's count and the total
    python tests/code_lines.py --write   # store the counts in code_lines.json

A line is code unless it is blank, holds only a comment, or lies in a
module, class or function docstring.  The docstrings are found with
``ast``; comments and blank lines with ``tokenize``, so a line inside a
string that is not a docstring counts whatever it holds.
``test_code_lines.py`` holds every module's count to ``code_lines.json``,
so a change to ``src/stefan`` shows its line change in that file.
"""

import ast
import io
import json
import os
import sys
import tokenize

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(HERE), "src", "stefan")
TABLE = os.path.join(HERE, "code_lines.json")

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> int:
    """The code lines of one module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def counts(package: str = PACKAGE) -> dict:
    """{module file name: code lines} for every module of the package."""
    out = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                out[name] = count(fh.read())
    return out


def main(argv) -> int:
    table = counts()
    if argv == ["--write"]:
        with open(TABLE, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=2)
            fh.write("\n")
    elif argv:
        print("usage: python tests/code_lines.py [--write]", file=sys.stderr)
        return 2
    for name, lines in table.items():
        print(f"{name:16} {lines:5}")
    print(f"{'total':16} {sum(table.values()):5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
