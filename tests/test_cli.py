"""Experiment CLI: config handling, output files, exit codes."""
import math
from dataclasses import replace
from pathlib import Path

import pytest

from bitbounds.cli import (
    EXPERIMENTS,
    _UsageError,
    _validate_table,
    config_hash,
    default_config,
    format_value,
    main,
    parse_config,
    run_selftest,
    serialize_config,
)

FAST_SWEEP = ["--alpha", "0.99", "--snr-min-db", "-20", "--snr-max-db", "-18",
              "--snr-step-db", "0.5"]


class TestConfigRoundTrip:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_serialize_parse_identity(self, experiment):
        config = default_config(experiment)
        assert parse_config(serialize_config(config)) == config
        assert parse_config(serialize_config(config), experiment) == config

    def test_partial_config_fills_defaults(self):
        config = parse_config("[mc]\nseed = 42\n", "fig1")
        base = default_config("fig1")
        assert config.seed == 42
        assert config == replace(base, seed=42)

    def test_sigma0_stationary_token(self):
        config = parse_config("[model]\nsigma0 = stationary\n", "fig1")
        assert config.sigma0 is None
        assert "sigma0 = stationary" in serialize_config(config)

    def test_name_mismatch_rejected(self):
        with pytest.raises(_UsageError):
            parse_config("[experiment]\nname = fig2\n", "fig1")

    def test_no_experiment_anywhere_rejected(self):
        with pytest.raises(_UsageError):
            parse_config("[mc]\nseed = 1\n")

    def test_malformed_ini_rejected(self):
        with pytest.raises(_UsageError):
            parse_config("not an ini file", "fig1")

    def test_bad_values_rejected(self):
        with pytest.raises(_UsageError):
            parse_config("[mc]\ntrials = many\n", "fig1")
        with pytest.raises(_UsageError):
            parse_config("[model]\nalphas = 1.5\n", "fig1")
        with pytest.raises(_UsageError):
            parse_config("[quadrature]\nnodes = 3\n", "fig1")


class TestConfigHash:
    def test_ignores_output_path(self):
        config = default_config("fig1")
        assert config_hash(config) == config_hash(replace(config, output_path="elsewhere.txt"))

    def test_sensitive_to_model_and_sweep(self):
        config = default_config("fig1")
        assert config_hash(config) != config_hash(replace(config, seed=1))
        assert config_hash(config) != config_hash(replace(config, snr_step_db=1.0))

    def test_is_16_hex_digits(self):
        digest = config_hash(default_config("ratios"))
        assert len(digest) == 16
        int(digest, 16)


class TestFormatValue:
    @pytest.mark.parametrize("value,expected", [
        (0.0, "0.00000000"),
        (1.0, "1.00000000"),
        (-1.0, "-1.00000000"),
        (123.456, "123.456000"),
        (0.001, "0.00100000000"),
        (1e6, "1.00000000e+06"),
        (1.23456789e-7, "1.23456789e-07"),
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
    ])
    def test_cases(self, value, expected):
        assert format_value(value) == expected

    def test_nine_significant_digits_survive_round_trip(self):
        for value in (math.pi, 1234.5678, 3.2e-5, 9.87654321e5):
            assert float(format_value(value)) == pytest.approx(value, rel=1e-8)


class TestFig1:
    def test_rerun_to_new_path_is_bit_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["fig1", *FAST_SWEEP, "--out", str(a)]) == 0
        assert main(["fig1", *FAST_SWEEP, "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()
        assert f"wrote {a}" in capsys.readouterr().out

    def test_file_shape_and_header(self, tmp_path):
        out = tmp_path / "fig1.txt"
        main(["fig1", *FAST_SWEEP, "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config-hash: ")
        assert lines[1] == "# columns: snr_db rho_sl_db"
        assert len(lines) == 2 + 5
        first = lines[2].split()
        assert float(first[0]) == -20.0
        assert float(first[1]) < 0.0

    def test_creates_nested_directories(self, tmp_path):
        out = tmp_path / "deep" / "nested" / "fig1.txt"
        assert main(["fig1", *FAST_SWEEP, "--out", str(out)]) == 0
        assert out.exists()


class TestFig2:
    def test_writes_one_file_pair_per_alpha(self, tmp_path):
        out = tmp_path / "fig2"
        code = main(["fig2", "--alpha", "0.9, 0.95", "--snr-min-db", "-20",
                     "--snr-max-db", "-19", "--snr-step-db", "0.5", "--out", str(out)])
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "rho_f_alpha_0.9.txt", "rho_f_alpha_0.95.txt",
            "rho_s_alpha_0.9.txt", "rho_s_alpha_0.95.txt",
        ]
        for name in names:
            lines = (out / name).read_text().splitlines()
            assert lines[1].endswith("rho_f_db" if "rho_f" in name else "rho_s_db")
            assert len(lines) == 2 + 3


class TestRatios:
    def test_full_table_columns(self, tmp_path):
        out = tmp_path / "ratios.txt"
        assert main(["ratios", *FAST_SWEEP, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        columns = lines[1].removeprefix("# columns: ").split()
        assert columns == ["snr_db", "rho_sl_db", "rho_f_db", "rho_s_db",
                           "j_filter_unq", "j_filter_q", "j_smooth_unq",
                           "j_smooth_q", "converged"]
        for line in lines[2:]:
            cells = line.split()
            assert len(cells) == 9
            assert cells[-1] == "1"

    def test_rejects_multiple_alphas(self, tmp_path, capsys):
        out = tmp_path / "ratios.txt"
        assert main(["ratios", "--alpha", "0.9 0.95", "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err


class TestValidator:
    def _write_fig1(self, tmp_path) -> Path:
        out = tmp_path / "fig1.txt"
        main(["fig1", *FAST_SWEEP, "--out", str(out)])
        return out

    def test_accepts_clean_file(self, tmp_path):
        out = self._write_fig1(tmp_path)
        _validate_table(out, ("snr_db", "rho_sl_db"))

    def test_detects_missing_header(self, tmp_path):
        out = self._write_fig1(tmp_path)
        out.write_text("\n".join(out.read_text().splitlines()[1:]) + "\n")
        with pytest.raises(_UsageError):
            _validate_table(out, ("snr_db", "rho_sl_db"))

    def test_detects_wrong_columns(self, tmp_path):
        out = self._write_fig1(tmp_path)
        with pytest.raises(_UsageError):
            _validate_table(out, ("snr_db", "rho_f_db"))

    def test_detects_shuffled_rows(self, tmp_path):
        out = self._write_fig1(tmp_path)
        lines = out.read_text().splitlines()
        lines[2], lines[3] = lines[3], lines[2]
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(_UsageError):
            _validate_table(out, ("snr_db", "rho_sl_db"))

    def test_detects_ragged_row(self, tmp_path):
        out = self._write_fig1(tmp_path)
        out.write_text(out.read_text() + "-17.5\n")
        with pytest.raises(_UsageError):
            _validate_table(out, ("snr_db", "rho_sl_db"))

    def test_detects_nonfinite_cell(self, tmp_path):
        out = self._write_fig1(tmp_path)
        lines = out.read_text().splitlines()
        snr, _ = lines[-1].split()
        lines[-1] = f"{snr} nan"
        out.write_text("\n".join(lines) + "\n")
        with pytest.raises(_UsageError):
            _validate_table(out, ("snr_db", "rho_sl_db"))


class TestSelftest:
    def test_all_checks_pass(self):
        text, failures = run_selftest()
        assert failures == 0
        assert "FAIL" not in text
        assert text.count("PASS") == 6

    def test_fault_injection_is_detected(self):
        # Corrupt tail function: the peak checks that depend on it must fail.
        text, failures = run_selftest(q_function=lambda x: 0.4)
        assert failures >= 1
        assert "FAIL" in text

    def test_cli_exit_code_and_optional_file(self, tmp_path, capsys):
        out = tmp_path / "selftest.txt"
        assert main(["selftest", "--out", str(out)]) == 0
        assert "summary: 6 checks, 0 failed" in out.read_text()
        assert "PASS" in capsys.readouterr().out

    def test_cli_maps_failures_to_exit_codes_above_2(self, monkeypatch, capsys):
        # Validation failures start at 3, clear of the usage code (1).
        import bitbounds.cli as cli_module
        monkeypatch.setattr(cli_module, "run_selftest", lambda: ("FAIL boom", 4))
        assert main(["selftest"]) == 6
        capsys.readouterr()


class TestExitCodes:
    def test_usage_errors_return_1(self, tmp_path, capsys):
        assert main(["fig1", "--alpha", "1.5", "--out", str(tmp_path / "x.txt")]) == 1
        assert main(["fig1", "--config", str(tmp_path / "missing.ini")]) == 1
        assert main(["fig1", "--trials", "0"]) == 1
        capsys.readouterr()

    def test_unparseable_arguments_return_1(self, capsys):
        assert main(["unknown-experiment"]) == 1
        capsys.readouterr()

    def test_stiff_alpha_exits_0_at_the_anchor(self, tmp_path, capsys):
        # alpha this close to 1 contracts too slowly to iterate; the closed
        # form reaches the -0.98 dB low-SNR limit here.
        out = tmp_path / "x.txt"
        code = main(["fig1", "--alpha", "0.999999999", "--snr-min-db", "-40",
                     "--snr-max-db", "-39.5", "--snr-step-db", "0.5",
                     "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        snr, rho_sl = out.read_text().splitlines()[2].split()
        assert float(snr) == -40.0
        assert abs(float(rho_sl) - (-0.98)) <= 0.05

    def test_mse_validate_passes_on_small_run(self, tmp_path, capsys):
        out = tmp_path / "mse.txt"
        code = main(["mse-validate", "--alpha", "0.9", "--snr-min-db", "0",
                     "--snr-max-db", "10", "--trials", "80", "--horizon", "120",
                     "--delta", "20", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "FAIL" not in text
        assert text.count("PASS") == 10
        assert "# summary: 10 checks, 0 failed" in text
        capsys.readouterr()

    def test_mse_validate_single_trial_skips_statistics(self, tmp_path, capsys):
        out = tmp_path / "mse.txt"
        code = main(["mse-validate", "--alpha", "0.9", "--snr-min-db", "0",
                     "--snr-max-db", "10", "--trials", "1", "--horizon", "120",
                     "--delta", "20", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "SKIPPED" in text and "FAIL" not in text
        capsys.readouterr()
