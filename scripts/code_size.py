#!/usr/bin/env python3
"""Print the size of each module of the zfsecrecy package.

For every module under src/zfsecrecy, one line: its physical lines, its
AST statements (every statement node, nested ones included, docstrings
counted as expression statements) and its branches (``if`` statements
plus conditional expressions).  Takes no arguments:

    python3 scripts/code_size.py
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "zfsecrecy"


def sizes(path: pathlib.Path) -> tuple:
    """(physical lines, AST statements, if statements + conditional
    expressions) of the module at ``path``."""
    text = path.read_text()
    nodes = list(ast.walk(ast.parse(text)))
    statements = sum(isinstance(node, ast.stmt) for node in nodes)
    branches = sum(isinstance(node, (ast.If, ast.IfExp)) for node in nodes)
    return len(text.splitlines()), statements, branches


def main() -> None:
    rows = [(path.name, *sizes(path)) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", *(sum(column) for column in list(zip(*rows))[1:])))
    print(f"{'module':<14}{'lines':>7}{'stmts':>7}{'ifs':>6}")
    for name, lines, statements, branches in rows:
        print(f"{name:<14}{lines:>7}{statements:>7}{branches:>6}")


if __name__ == "__main__":
    main()
