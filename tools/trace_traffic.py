"""Print the lines of ``bitbounds`` that none of its traffic runs.

Usage: ``python tools/trace_traffic.py``

The traffic is what the package is run for:

- the five CLI experiments at their defaults, writing into a temporary
  directory, and ``selftest`` once more through the module entry point,
  as ``python -m bitbounds selftest`` runs it;
- one pass of each workload of ``perfbench/workloads.py``, at the
  benchmark's default seed; ``perfbench/`` is imported, never written;
- the four demos.

It runs in this process under ``sys.settrace``, which records every line
executed in ``src/bitbounds``. The package is first imported inside the
trace, so its module-level lines count as run. The tool then prints, module
by module, each executable line that none of the traffic ran: ranges of
consecutive executable lines of one function, each with the function's
qualified name. A function whose every line is listed is one that nothing
calls. Executable lines are those that a module's code objects map
bytecode to.

Under the trace the traffic runs several times slower than without it.
"""

from __future__ import annotations

import contextlib
import io
import runpy
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bitbounds"
WORKLOAD_SEED = 20260814  # perfbench/run.py's default --seed


def trace(run: Callable[[], object]) -> set[tuple[str, int]]:
    """``(file, line)`` of every line of the package that ``run()`` executes."""
    executed: set[tuple[str, int]] = set()
    files: dict[str, str | None] = {}  # co_filename -> resolved path, None outside the package

    def lines(frame, event, arg):
        if event == "line":
            executed.add((files[frame.f_code.co_filename], frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(name).resolve()
            files[name] = str(path) if path.parent == PACKAGE else None
        return lines if files[name] else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(previous)
    return executed


def executable_lines(path: Path) -> dict[int, str]:
    """Each executable line of the module at ``path``, with the function that runs it.

    A line that an enclosing code object also runs, such as a ``def`` line,
    which runs when the enclosing code defines the function, is the
    enclosing code's: so a function that nothing calls has every line of its
    own unrun.
    """
    owners: dict[int, str] = {}
    codes = [compile(path.read_text(), str(path), "exec")]
    while codes:  # each code object comes before those nested in it
        code = codes.pop()
        name = getattr(code, "co_qualname", code.co_name)
        for *_, line in code.co_lines():
            if line:
                owners.setdefault(line, name)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return dict(sorted(owners.items()))


def unrun(executed: set[tuple[str, int]]) -> dict[str, list[tuple[int, int, str]]]:
    """Per module file name, the ``(first, last, function)`` ranges of executable lines not run."""
    report = {}
    for path in sorted(PACKAGE.glob("*.py")):
        ranges: list[list] = []
        previous_run = True
        for line, name in executable_lines(path).items():
            if (str(path), line) in executed:
                previous_run = True
                continue
            if not previous_run and ranges[-1][2] == name:
                ranges[-1][1] = line
            else:
                ranges.append([line, line, name])
            previous_run = False
        report[path.name] = [tuple(r) for r in ranges]
    return report


def run_module_selftest() -> None:
    """``python -m bitbounds selftest`` in this process, so ``__main__.py`` is traced."""
    # runpy warns when the entry module was imported before, as a walk
    # over the package's modules does; it runs afresh either way.
    sys.modules.pop("bitbounds.__main__", None)
    argv = sys.argv
    sys.argv = ["bitbounds", "selftest"]
    try:
        runpy.run_module("bitbounds", run_name="__main__")
    except SystemExit as done:
        if done.code != 0:
            raise RuntimeError(f"python -m bitbounds selftest exited with {done.code}") from None
    finally:
        sys.argv = argv


def _traffic(work: Path) -> None:
    """The experiments, the benchmark workloads and the demos, in that order."""
    from bitbounds import cli

    for name in cli.EXPERIMENTS:
        if cli.main([name, "--out", str(work / name)]) != 0:
            raise RuntimeError(f"the {name} experiment failed")
    run_module_selftest()
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from calibrate import Clock

    for name, run in workloads.PASSES.items():
        result = run(WORKLOAD_SEED, work, Clock(calibrate=False))
        if result["failed"]:
            raise RuntimeError(f"the {name} workload failed: {result['notes']}")
    for demo in sorted((ROOT / "demos").glob("[0-9]*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        executed = trace(lambda: _traffic(Path(work)))
    for module, ranges in unrun(executed).items():
        print(f"{module}: " + (f"{len(ranges)} ranges not run" if ranges else "every line run"))
        for first, last, name in ranges:
            span = str(first) if first == last else f"{first}-{last}"
            print(f"  {span:>9}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
