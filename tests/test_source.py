"""Checks on the package source itself."""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"


def test_src_has_no_assert_statements():
    # python -O strips asserts, so a runtime invariant must be a check that raises
    found = [f"{path.relative_to(_SRC)}:{node.lineno}"
             for path in sorted(_SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_src_has_no_graph_type_branches():
    # the graph types differ only in the counts of their edge id space
    # (graphs._EdgeIds), so no code asks which type a graph is
    types = {"SmallWorldGraph", "GenericGraph"}
    found = [f"{path.relative_to(_SRC)}:{node.lineno}"
             for path in sorted(_SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "isinstance" and len(node.args) == 2
             and any(getattr(name, "id", getattr(name, "attr", None)) in types
                     for name in ast.walk(node.args[1]))]
    assert found == []


def test_src_has_no_unused_imports():
    # __init__.py imports to re-export; a name any other module imports must
    # be read there
    found = []
    for path in sorted(_SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            found += [f"{path.relative_to(_SRC)}:{node.lineno} {name}"
                      for name in names if name not in used]
    assert found == []
