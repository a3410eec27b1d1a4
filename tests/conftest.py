"""Shared pytest hooks and fixtures.

The acceptance tests push one summary line per criterion into a shared
list; the terminal-summary hook prints them after the run so the verdict
survives output capturing.
"""
import pytest

import bitbounds.bim
import bitbounds.estimators

_acceptance_lines: list[str] = []


@pytest.fixture(scope="session")
def acceptance_report() -> list[str]:
    return _acceptance_lines


@pytest.fixture
def fim_calls(monkeypatch) -> list:
    """Records the arguments of each ``expected_fim`` call made by ``bitbounds.bim``."""
    calls = []
    original = bitbounds.bim.expected_fim

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(bitbounds.bim, "expected_fim", counted)
    return calls


@pytest.fixture
def fims_builds(monkeypatch) -> list:
    """Records the arguments of each ``per_block_fims`` call made by the package."""
    calls = []
    original = bitbounds.bim.per_block_fims

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (bitbounds.bim, bitbounds.estimators):
        monkeypatch.setattr(module, "per_block_fims", counted)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
