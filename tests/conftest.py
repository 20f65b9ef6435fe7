import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from casimir_sc import materials  # noqa: E402


@pytest.fixture(autouse=True)
def fresh_g_memo():
    """Start every test with an empty g memo: tests that replace _g_body must
    not be served another test's entries."""
    materials._g_memo.cache_clear()

ACCEPTANCE_REPORT: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_REPORT:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_REPORT:
            terminalreporter.write_line(line)
