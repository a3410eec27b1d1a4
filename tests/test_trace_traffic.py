"""``tools/trace_traffic.py``: which lines of the package a run executes."""
import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import bitbounds
from bitbounds import cli

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("trace_traffic",
                                                  ROOT / "tools" / "trace_traffic.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_selftest_runs_its_checks_and_no_monte_carlo():
    tool = _tool()
    with contextlib.redirect_stdout(io.StringIO()):
        executed = tool.trace(lambda: cli.main(["selftest"]))
    report = tool.unrun(executed)

    def lines(module: str, function: str) -> tuple[set, set]:
        """The function's executable lines, and those of them not run."""
        own = {line for line, name in tool.executable_lines(tool.PACKAGE / module).items()
               if name == function}
        missed = {line for first, last, name in report[module] if name == function
                  for line in range(first, last + 1)}
        return own, own & missed

    own, missed = lines("cli.py", "run_selftest")
    assert own and len(missed) < len(own)
    own, missed = lines("estimators.py", "monte_carlo_mse")
    assert own and missed == own


def test_the_module_entry_point_runs_every_line_of_main():
    tool = _tool()
    importlib.import_module("bitbounds.__main__")  # as a walk over the modules does
    argv = sys.argv
    with contextlib.redirect_stdout(io.StringIO()) as out:
        executed = tool.trace(tool.run_module_selftest)
    assert tool.unrun(executed)["__main__.py"] == []
    assert out.getvalue() == cli.run_selftest()[0] + "\n"
    assert sys.argv is argv


def test_only_the_package_lines_that_ran_are_recorded():
    tool = _tool()
    executed = tool.trace(lambda: bitbounds.model_for_snr(0.9, 0.0))
    assert executed and {Path(name).parent for name, _ in executed} == {tool.PACKAGE}
    steady = tool.PACKAGE / "steady.py"
    owners = tool.executable_lines(steady)
    ran = {owners[line] for name, line in executed if name == str(steady)}
    assert {"model_for_snr", "snr_to_sigma_z"} <= ran and "steady_lag_gain" not in ran


def test_the_previous_trace_function_is_restored_when_the_run_raises():
    tool = _tool()
    before = sys.gettrace()

    def failing():
        bitbounds.model_for_snr(0.9, 0.0)
        raise RuntimeError("traffic failed")

    with pytest.raises(RuntimeError, match="traffic failed"):
        tool.trace(failing)
    assert sys.gettrace() is before


def test_a_module_run_in_full_reports_no_range_and_one_never_run_every_line():
    tool = _tool()
    every = {(str(path), line) for path in tool.PACKAGE.glob("*.py")
             for line in tool.executable_lines(path)}
    assert all(not ranges for ranges in tool.unrun(every).values())
    for module, ranges in tool.unrun(set()).items():
        owners = tool.executable_lines(tool.PACKAGE / module)
        listed = [line for first, last, _ in ranges for line in range(first, last + 1)
                  if line in owners]
        assert listed == list(owners), module
        assert all(owners[first] == owners[last] == name for first, last, name in ranges)
