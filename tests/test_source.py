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
