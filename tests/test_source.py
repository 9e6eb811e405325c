"""Checks on the library source itself."""

import ast
from pathlib import Path

import ffr

SRC = Path(ffr.__file__).parent


def test_no_bare_assert_in_library():
    # `python -O` strips assert statements, so no check may rely on one
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
