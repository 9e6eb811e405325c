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


def _unread_definitions(readers):
    # the functions, classes, methods and module-level names of `src/ffr`
    # that no file of `readers` reads, matched by name
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")) + readers:
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
    return [(f"{where} {name}", name) for where, name in defined
            if name not in used]


def test_every_definition_is_used():
    # a function, class, method or module-level name nobody reads is dead
    # code
    assert [where for where, _ in
            _unread_definitions(sorted(TESTS.glob("*.py")))] == []


def test_every_library_definition_has_a_library_reader():
    # a definition only tests read is an oracle kept in the library; the
    # names the package exports are its interface, read by its users
    bench = SRC.parents[1] / "perfbench"
    assert [where for where, name in
            _unread_definitions(sorted(bench.glob("*.py")))
            if name not in ffr.__all__] == []


def test_every_import_is_used():
    # an import no code of its module reads is left behind by a deletion;
    # `from __future__ import annotations` binds no name (the package's
    # lazy export table is strings, not imports)
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load)}
        unused += [f"{path.name}:{node.lineno} {name}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for alias in node.names
                   for name in [alias.asname or alias.name.split(".")[0]]
                   if name not in read]
    assert unused == []


def test_every_record_field_is_read():
    # a NamedTuple field nobody reads as an attribute stores a value no
    # caller needs, or one another field already implies
    fields, read = [], set()
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
            elif (path.parent == SRC and isinstance(node, ast.ClassDef)
                  and any(isinstance(base, ast.Name)
                          and base.id == "NamedTuple" for base in node.bases)):
                fields += [(f"{path.name}:{stmt.lineno}",
                            f"{node.name}.{stmt.target.id}")
                           for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)]
    assert [f"{where} {name}" for where, name in fields
            if name.split(".")[1] not in read] == []
