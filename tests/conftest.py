"""Shared test plumbing: the acceptance suite records one line per
criterion and the summary hook prints them after the run, next to the
line counts of the package sources."""

import ast
import io
import tokenize
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
_ACCEPTANCE_RESULTS = {}
_PROSE_TOKENS = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                 tokenize.DEDENT, tokenize.ENDMARKER}


def record_criterion(number: int, ok: bool, detail: str) -> None:
    _ACCEPTANCE_RESULTS[number] = (ok, detail)


def code_lines(text: str) -> int:
    """Lines of `text` holding code: not blank, not only a comment and not
    part of a module, class or function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _PROSE_TOKENS:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    texts = [path.read_text() for path in _SRC.rglob("*.py")]
    terminalreporter.write_line(f"src/ lines: {sum(len(t.splitlines()) for t in texts)}")
    terminalreporter.write_line(f"src/ code lines: {sum(code_lines(t) for t in texts)}")
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_RESULTS):
        ok, detail = _ACCEPTANCE_RESULTS[number]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d}: {status} — {detail}")
