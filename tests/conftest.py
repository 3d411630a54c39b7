"""Shared pytest hooks: one PASS/FAIL summary line, with its call time, per acceptance criterion."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

_acceptance_results = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.fspath.basename == "test_acceptance.py":
        _acceptance_results.append((item.name, report.passed, report.duration))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, passed, seconds in _acceptance_results:
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {seconds:6.2f} s  {name}")
