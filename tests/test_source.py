"""Checks on the library source itself."""

import ast
from pathlib import Path

import ffr

SRC = Path(ffr.__file__).parent
TESTS = Path(__file__).parent


def test_no_bare_assert_in_library():
    # `python -O` strips assert statements, so no check may rely on one
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_definition_is_used():
    # a function, class, method or module-level name nobody reads is dead
    # code
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                if not isinstance(node.ctx, ast.Store):
                    used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
            elif (path.parent == SRC and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef))
                  and not node.name.startswith("__")):
                defined.append((f"{path.name}:{node.lineno}", node.name))
        if path.parent == SRC:
            defined += [(f"{path.name}:{node.lineno}", target.id)
                        for node in tree.body
                        if isinstance(node, (ast.Assign, ast.AnnAssign))
                        for target in (node.targets
                                       if isinstance(node, ast.Assign)
                                       else [node.target])
                        if isinstance(target, ast.Name)
                        and not target.id.startswith("__")]
    assert [f"{where} {name}" for where, name in defined
            if name not in used] == []
