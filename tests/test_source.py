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
