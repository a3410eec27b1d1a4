"""The package's documented surface: exported names and the README example."""
import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import pytest

import bitbounds

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["bitbounds"] + [f"bitbounds.{m.name}" for m in pkgutil.iter_modules(bitbounds.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


def test_readme_library_example_prints_its_stated_values():
    text = README.read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert len(blocks) == 1
    code = blocks[0]
    # Each print line states its value in a comment, e.g. "# 0.465: ..." or
    # "# +1.95 dB: ..."; the printed value must round to it.
    stated = re.findall(r"^print\(.*#\s*([+-]?\d+\.(\d+))", code, flags=re.MULTILINE)
    assert len(stated) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = [float(line) for line in out.getvalue().split()]
    assert len(printed) == len(stated)
    for value, (number, decimals) in zip(printed, stated):
        assert round(value, len(decimals)) == float(number), (value, number)
