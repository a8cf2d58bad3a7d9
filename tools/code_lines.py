"""Count the code lines of Python files: no blank lines, comments or docstrings.

Usage: python tools/code_lines.py FILE.py [FILE.py ...]

Prints each file's count and the total.  A line counts when it holds a
token other than a comment or a docstring; a docstring is the string
literal that opens a module, class or function body.
"""

import ast
import io
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                     if n not in skip)
    return len(lines)


def main(paths) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            n = code_lines(fh.read())
        print(f"{n:6d} {path}")
        total += n
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
