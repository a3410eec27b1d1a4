"""The package's documented surface: exported names, argument types and the README example."""
import contextlib
import dataclasses
import importlib
import io
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bitbounds

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
MODULES = ["bitbounds"] + [f"bitbounds.{m.name}" for m in pkgutil.iter_modules(bitbounds.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


_MODEL = bitbounds.model_for_snr(0.9, 0.0)
# Every public path whose result depends on the channel, with small sizes.
_CHANNEL_CALLS = {
    "monte_carlo_mse grid": lambda channel: bitbounds.monte_carlo_mse(
        _MODEL, channel, "grid", 1, 20, 60, grid=bitbounds.GridSpec(num_points=200)),
    "monte_carlo_mse kalman": lambda channel: bitbounds.monte_carlo_mse(
        _MODEL, channel, "kalman", 1, 20, 60),
    "per_block_fims": lambda channel: bitbounds.per_block_fims(_MODEL, channel, 3),
    "filter_bim_sequence": lambda channel: bitbounds.filter_bim_sequence(_MODEL, channel, 3),
    "smooth_bim_compact": lambda channel: bitbounds.smooth_bim_compact(_MODEL, channel, 3),
    "steady_expected_fim": lambda channel: bitbounds.steady_expected_fim(_MODEL, channel),
}


@pytest.mark.parametrize("channel", ["one_bit", "unquantized"])
@pytest.mark.parametrize("entry", list(_CHANNEL_CALLS))
def test_a_channel_name_is_not_a_channel(entry, channel):
    # A string once fell into the unquantized branch of simulate and the
    # one-bit branch of per_block_fims, pairing data and bounds of
    # different channels without an error.
    with pytest.raises(TypeError, match="MeasurementChannel"):
        _CHANNEL_CALLS[entry](channel)


@pytest.mark.parametrize("channel", list(bitbounds.MeasurementChannel))
@pytest.mark.parametrize("entry", ["simulate", "TrajectoryBatch"])
def test_a_batch_takes_no_channel(entry, channel):
    # A batch holds what was drawn, for every receiver alike. A call that
    # still passes a channel first fails, rather than shifting its arguments.
    calls = {
        "simulate": lambda: bitbounds.simulate(_MODEL, channel, 1, 2, 5),
        "TrajectoryBatch": lambda: bitbounds.TrajectoryBatch(
            channel, np.zeros((2, 6)), np.ones((2, 5))),
    }
    with pytest.raises(TypeError):
        calls[entry]()


_UNQUANTIZED = bitbounds.MeasurementChannel.UNQUANTIZED
_FILTERED = bitbounds.kalman_filter(bitbounds.simulate(_MODEL, 1, 2, 200), _MODEL)
# Every integer argument of the public surface: (argument, call with the value,
# a narrow numpy integer in range, a value out of range). Where the argument
# reaches index arithmetic, the narrow value is one that overflows there
# (127 + 1 in int8); elsewhere it would be stored or returned in its dtype.
_INTEGER_CALLS = {
    "simulate seed": ("seed", lambda v: bitbounds.simulate(_MODEL, v, 2, 5), np.uint8(200), -1),
    "simulate num_trials": (
        "num_trials", lambda v: bitbounds.simulate(_MODEL, 1, v, 5), np.int8(100), 0),
    "simulate horizon": (
        "horizon", lambda v: bitbounds.simulate(_MODEL, 1, 2, v), np.int8(127), 0),
    "rts_smoother lag": (
        "lag", lambda v: bitbounds.rts_smoother(_FILTERED, _MODEL, v), np.int8(100), 201),
    "burn_in_blocks horizon": (
        "horizon", lambda v: bitbounds.burn_in_blocks(_MODEL, v), np.int8(127), 0),
    "steady_lag_gain lag": (
        "lag", lambda v: bitbounds.steady_lag_gain(_MODEL, 1.0, v), np.int8(100), -1),
    "per_block_fims num_blocks": ("num_blocks", lambda v: bitbounds.per_block_fims(
        _MODEL, _UNQUANTIZED, v), np.int8(127), -1),
    "predict_bim num_steps": ("num_steps", lambda v: bitbounds.predict_bim(
        _MODEL, bitbounds.filter_bim_sequence(_MODEL, _UNQUANTIZED, 3), v), np.int8(127), -1),
    "state_moments k": ("k", lambda v: bitbounds.state_moments(_MODEL, v), np.int8(127), -1),
    "GridSpec num_points": (
        "num_points", lambda v: bitbounds.GridSpec(num_points=v), np.int16(300), 63),
    "QuadratureSpec nodes": (
        "nodes", lambda v: bitbounds.QuadratureSpec(nodes=v), np.uint8(200), 371),
    **{f"monte_carlo_mse {name}": (name, lambda v, name=name: bitbounds.monte_carlo_mse(
        _MODEL, _UNQUANTIZED, "kalman", **{**dict(seed=1, num_trials=4, horizon=300, lag=2),
                                          name: v}), narrow, bad)
       for name, narrow, bad in (("seed", np.uint8(200), 2**64), ("num_trials", np.int8(100), 0),
                                 ("horizon", np.int8(127), 0), ("lag", np.int8(100), -1))},
}


@pytest.mark.parametrize("value", [2.0, 2.5, True, np.float64(3.0)])
@pytest.mark.parametrize("entry", list(_INTEGER_CALLS))
def test_an_integer_argument_takes_no_float_and_no_bool(entry, value):
    # A float lag once failed inside numpy with a message that did not name
    # it, and burn_in_blocks returned a float; True passes isinstance(_, int).
    name, call, _, _ = _INTEGER_CALLS[entry]
    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        call(value)


def _assert_identical(got, want):
    """Equal values of one type, field by field, arrays bit for bit."""
    assert type(got) is type(want), (got, want)
    if dataclasses.is_dataclass(got):
        for field in dataclasses.fields(got):
            _assert_identical(getattr(got, field.name), getattr(want, field.name))
    elif isinstance(got, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)
    else:
        assert got == want, (got, want)


@pytest.mark.parametrize("kind", ["narrow numpy integer", "out of range"])
@pytest.mark.parametrize("entry", list(_INTEGER_CALLS))
def test_an_integer_argument_is_used_as_a_python_int(entry, kind):
    # np.int8 once reached index arithmetic unconverted: rts_smoother's
    # k_max + 1 - lag and per_block_fims' num_blocks + 1 overflowed, and
    # records held the numpy type. The range is checked on the same value.
    name, call, narrow, bad = _INTEGER_CALLS[entry]
    if kind == "out of range":
        with pytest.raises(ValueError, match=rf"\b{name}\b"):
            call(bad)
    else:
        _assert_identical(call(narrow), call(int(narrow)))


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


def test_readme_flag_table_matches_the_experiment_records():
    from bitbounds.cli import _EXPERIMENTS, _KEYS, EXPERIMENTS
    lines = README.read_text().split("| flag |", 1)[1].split("\n\n", 1)[0].splitlines()
    header = ["flag"] + [c.strip() for c in lines[0].strip(" |").split("|")]
    rows = [[c.strip() for c in line.strip()[1:-1].split("|")] for line in lines[2:]]
    assert header == ["flag", *EXPERIMENTS]
    assert [row[0] for row in rows] == [f"`{key.flag}`" for key in _KEYS]
    for key, row in zip(_KEYS, rows):
        for name, cell in zip(EXPERIMENTS, row[1:]):
            record = _EXPERIMENTS[name]
            assert bool(cell) == (key.field in record.reads), (key.flag, name)
            if cell and key.field == "alphas":
                assert cell == ("one" if record.one_alpha else "list"), name


def test_import_leaves_out_scipy_signal_and_stats():
    # scipy took most of the start-up time. The package's own erfcx/erfc
    # replace scipy.special, dense numpy tiles replace scipy.sparse, and the
    # default Gauss-Hermite rule is frozen, so numpy.polynomial loads only
    # for another node count, not even at the first default quadrature.
    code = ("import sys, bitbounds, bitbounds.cli; "
            "bitbounds.expected_fq(bitbounds.StateMoments(0.0, 1.0), 1.0); "
            "print(' '.join(m for m in sys.modules if m.startswith('scipy') "
            "or m.startswith('numpy.polynomial')))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
    imports = re.compile(r"^\s*(import|from)\s+scipy\b", flags=re.MULTILINE)
    assert not [path.name for path in (ROOT / "src").rglob("*.py") if imports.search(path.read_text())]
