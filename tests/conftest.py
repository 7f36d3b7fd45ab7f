"""Shared test plumbing: the acceptance suite records one line per
criterion and the summary hook prints them after the run, next to the
line count of the package sources."""

from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
_ACCEPTANCE_RESULTS = {}


def record_criterion(number: int, ok: bool, detail: str) -> None:
    _ACCEPTANCE_RESULTS[number] = (ok, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = sum(len(path.read_text().splitlines()) for path in _SRC.rglob("*.py"))
    terminalreporter.write_line(f"src/ lines: {lines}")
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_RESULTS):
        ok, detail = _ACCEPTANCE_RESULTS[number]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d}: {status} — {detail}")
