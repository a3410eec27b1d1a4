"""Experiment CLI: config handling, output files, exit codes."""
import hashlib
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bitbounds import (
    QuadratureError,
    QuadratureRule,
    QuadratureSpec,
    model_for_snr,
    performance_ratios,
    qfim,
)
from bitbounds.cli import (
    EXPERIMENTS,
    MAX_SNR_POINTS,
    _UsageError,
    _check_reads,
    _snr_grid,
    _sweep,
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
FIG1_SEED_INI = str(Path(__file__).parent / "data" / "fig1_seed.ini")
FIG1_MISSPELT_INI = str(Path(__file__).parent / "data" / "fig1_misspelt.ini")
NO_SECTION_INI = str(Path(__file__).parent / "data" / "no_section.ini")


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

    def test_alias_spellings_still_parse(self, tmp_path, capsys):
        assert parse_config("[model]\nalpha = 0.9\n", "fig1").alphas == (0.9,)
        both = parse_config("[model]\nalphas = 0.9, 0.95\nalpha = 0.5\n", "fig2")
        assert both.alphas == (0.9, 0.95)
        out = tmp_path / "fig2"
        assert main(["fig2", "--alphas", "0.9 0.95", "--snr-min-db", "-20", "--snr-max-db", "-19",
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir())[:2] == ["rho_f_alpha_0.9.txt",
                                                             "rho_f_alpha_0.95.txt"]
        capsys.readouterr()

    def test_bad_values_rejected(self):
        with pytest.raises(_UsageError):
            parse_config("[mc]\ntrials = many\n", "fig1")
        with pytest.raises(_UsageError):
            parse_config("[model]\nalphas = 1.5\n", "fig1")
        with pytest.raises(_UsageError):
            parse_config("[quadrature]\nnodes = 3\n", "fig1")
        # Unknown keys and sections, including an empty section and [DEFAULT].
        for text, where in (("[mc]\nseeds = 3\n", "[mc] seeds"),
                            ("[sweeps]\nsnr_min_db = 5\n", "[sweeps] snr_min_db"),
                            ("[experiment]\nname = fig1\nseed = 3\n", "[experiment] seed"),
                            ("[DEFAULT]\nseed = 3\n", "[DEFAULT] seed"),
                            ("[sweeps]\n", "[sweeps]")):
            with pytest.raises(_UsageError, match=re.escape(where)):
                parse_config(text, "fig1")


class TestConfigHash:
    def test_ignores_output_path(self):
        config = default_config("fig1")
        assert config_hash(config) == config_hash(replace(config, output_path="elsewhere.txt"))

    def test_sensitive_to_model_and_sweep(self):
        config = default_config("fig1")
        assert config_hash(config) != config_hash(replace(config, seed=1))
        assert config_hash(config) != config_hash(replace(config, snr_step_db=1.0))

    def test_default_hashes_are_stable(self):
        # Output files carry these hashes; a change in validation must not move them.
        assert {e: config_hash(default_config(e)) for e in EXPERIMENTS} == {
            "fig1": "7f45bce7a2f04ed7", "fig2": "23d1ba1e7350b25c",
            "ratios": "8b6149ccfe75c0ef", "mse-validate": "683e18a5c2db6d73",
            "selftest": "10e4bd9592ad2606",
        }

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
                           "j_smooth_q"]
        reports = [performance_ratios(model_for_snr(0.99, snr))
                   for snr in (-20.0, -19.5, -19.0, -18.5, -18.0)]
        assert [line.split() for line in lines[2:]] == [
            [format_value(getattr(r, name)) for name in columns] for r in reports
        ]

    def test_trapezoid_rule_matches_gauss_hermite_at_high_snr(self, tmp_path):
        # The trapezoid used to sample the raw marginal and wrote rho_f
        # -11.26 dB at +30 dB, where Gauss-Hermite gives -8.47.
        tables = {}
        for rule in ("gauss_hermite", "trapezoid"):
            out = tmp_path / f"{rule}.txt"
            assert main(["ratios", "--rule", rule, "--snr-min-db", "30", "--snr-max-db", "40",
                         "--snr-step-db", "10", "--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            tables[rule] = np.array([line.split() for line in lines[2:]], dtype=float)
        gh, trapezoid = tables["gauss_hermite"], tables["trapezoid"]
        assert gh.shape == (2, 8)
        assert_allclose(trapezoid[:, :4], gh[:, :4], rtol=0.0, atol=1e-9)
        assert_allclose(trapezoid[:, 4:], gh[:, 4:], rtol=1e-9)

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

    def test_fault_injection_is_detected(self, monkeypatch):
        # Corrupt tail function: the peak checks that depend on it must fail.
        import bitbounds.cli as cli_module
        monkeypatch.setattr(cli_module, "q_function", lambda x: 0.4)
        text, failures = run_selftest()
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

    @pytest.mark.parametrize("argv", [
        ["ratios", "--sigma-eta", "inf"],
        ["ratios", "--sigma-eta", "nan"],
        ["ratios", "--sigma0", "inf"],
        ["ratios", "--snr-step-db", "inf"],
        ["ratios", "--snr-step-db", "nan"],
        ["ratios", "--snr-max-db", "inf"],
        ["ratios", "--snr-min-db", "-inf"],
        ["fig1", "--snr-step-db", "1e-9"],
        ["fig1", "--snr-min-db", "-1e308", "--snr-max-db", "1e308"],
        ["mse-validate", "--horizon", "5"],
        # Keys the experiment does not read, set away from its default.
        ["fig1", "--trials", "7"],
        ["fig1", "--seed", "3"],
        ["fig1", "--horizon", "9"],
        ["fig1", "--delta", "2"],
        ["fig1", "--mu0", "5"],
        ["fig1", "--config", FIG1_SEED_INI],
        ["fig1", "--config", FIG1_MISSPELT_INI],
        ["fig1", "--config", NO_SECTION_INI],
        ["fig2", "--sigma0", "0.1"],
        ["ratios", "--trials", "7"],
        ["selftest", "--alpha", "0.5"],
        ["selftest", "--nodes", "20"],
        ["selftest", "--snr-min-db", "-20"],
        ["mse-validate", "--snr-max-db", "40"],
        ["mse-validate", "--snr-step-db", "1"],
        # Conditional reads: the half-width only under the trapezoid rule,
        # mu0 only with a numeric sigma0.
        ["fig1", "--half-width-sigmas", "5"],
        ["mse-validate", "--half-width-sigmas", "5"],
        ["mse-validate", "--mu0", "5"],
        # Experiments that read only the first alpha take exactly one.
        ["fig1", "--alpha", "0.9,0.5"],
        ["mse-validate", "--alpha", "0.9 0.5"],
        # sigma_eta out of the range the bounds can be computed in.
        ["ratios", "--sigma-eta", "1e300"],
        ["ratios", "--sigma-eta", "1e-200"],
        ["ratios", "--sigma-eta", "1e-77"],
        ["mse-validate", "--sigma-eta", "1e300"],
        ["mse-validate", "--sigma-eta", "1e-200"],
        ["mse-validate", "--sigma-eta", "1e-77"],
    ])
    def test_bad_inputs_exit_1_with_an_error_line(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_unread_keys_at_their_defaults_are_accepted(self, tmp_path, capsys):
        plain, extra = tmp_path / "plain.txt", tmp_path / "extra.txt"
        assert main(["fig1", *FAST_SWEEP, "--out", str(plain)]) == 0
        assert main(["fig1", *FAST_SWEEP, "--trials", "2000", "--seed", "20260814",
                     "--horizon", "500", "--delta", "100", "--mu0", "0", "--sigma0", "1",
                     "--half-width-sigmas", "10", "--out", str(extra)]) == 0
        assert extra.read_text() == plain.read_text()
        assert main(["fig1", *FAST_SWEEP, "--rule", "trapezoid", "--half-width-sigmas", "5",
                     "--out", str(extra)]) == 0
        assert main(["selftest", "--alpha", "0.999", "--nodes", "128",
                     "--snr-max-db", "10"]) == 0
        _check_reads(replace(default_config("mse-validate"), sigma0=1.0, mu0=5.0))
        # mse-validate reads snr_min_db alone, so it may lie above snr_max_db.
        _check_reads(replace(default_config("mse-validate"), snr_min_db=15.0))
        with pytest.raises(_UsageError):
            replace(default_config("ratios"), snr_min_db=15.0)
        capsys.readouterr()

    def test_snr_grid_cap_is_inclusive(self):
        config = default_config("fig1")
        at_cap = replace(config, snr_min_db=0.0, snr_max_db=MAX_SNR_POINTS - 1.0, snr_step_db=1.0)
        assert len(_snr_grid(at_cap)) == MAX_SNR_POINTS
        with pytest.raises(_UsageError):
            replace(at_cap, snr_max_db=float(MAX_SNR_POINTS))

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


# SHA-256 of each table the default sweeps write; one moved bit fails here.
DEFAULT_TABLE_SHA256 = {
    ("fig1", "fig1.txt"): "ef7ca6a231a4cc686402954d59da6ca347873feca33356fcc08c01d2138fdeda",
    ("ratios", "ratios.txt"): "d08ca510f18f0891a1ba3bfd5c1fe382aa108b1d55d984871dd6d1d9fdbb5a68",
    ("fig2", "rho_f_alpha_0.9.txt"):
        "302837a32538efdc73708a8fe89edc6f887f5543382597642c7f59302bcd5654",
    ("fig2", "rho_f_alpha_0.999.txt"):
        "3bf7131eb1d98e2b927f7e1e7ded2625c8035911d445cac6a2d993254dd1dffa",
    ("fig2", "rho_f_alpha_0.99999.txt"):
        "92614bdee086ca297f44c7249035e8a64d54c20ef92be43c0d6b88b9d1db1651",
    ("fig2", "rho_s_alpha_0.9.txt"):
        "b3fe4a5252081465c8f68e83209212688ff66deb00cbb4cfad8b8b1f5188521a",
    ("fig2", "rho_s_alpha_0.999.txt"):
        "307733c0480a5e09e89e13524e8ed78fb14d0f79116629e93cb5e60e595ea038",
    ("fig2", "rho_s_alpha_0.99999.txt"):
        "d571e0c8369ed8d03f0fae6d0094bcbf429eeee7726b0a2f0cee954112716eb1",
}


@pytest.mark.parametrize("experiment", ("fig1", "fig2", "ratios"))
def test_default_tables_are_byte_identical(experiment, tmp_path, capsys):
    out = tmp_path / experiment if experiment == "fig2" else tmp_path / f"{experiment}.txt"
    assert main([experiment, "--out", str(out)]) == 0
    capsys.readouterr()
    pinned = {name: digest for (e, name), digest in DEFAULT_TABLE_SHA256.items()
              if e == experiment}
    files = sorted(out.iterdir()) if out.is_dir() else [out]
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files} == pinned


class TestSweepQuadratures:
    """``_sweep`` computes each alpha's one-bit informations in one array quadrature."""

    @pytest.fixture
    def rows(self, monkeypatch):
        """Records the rows of each quadrature."""
        rows = []
        quadrature = qfim._quadrature

        def counted_quadrature(means, *args):
            rows.append(len(means))
            return quadrature(means, *args)

        monkeypatch.setattr(qfim, "_quadrature", counted_quadrature)
        return rows

    def test_default_fig2_makes_one_array_quadrature_per_alpha(self, rows, tmp_path, capsys):
        before = qfim._expected_fq_cached.cache_info()
        assert main(["fig2", "--out", str(tmp_path / "fig2")]) == 0
        capsys.readouterr()
        assert rows == [101, 101, 101]
        assert qfim._expected_fq_cached.cache_info() == before

    @pytest.mark.parametrize("alphas", (None, (1 - 1e-7, 1 - 1e-9)), ids=("fig2", "stiff"))
    @pytest.mark.parametrize("spec", (QuadratureSpec(), QuadratureSpec(nodes=20),
                                      QuadratureSpec(rule=QuadratureRule.TRAPEZOID)))
    @pytest.mark.parametrize("sigma_eta", (1.0, 0.37))
    def test_reports_equal_cold_one_point_calls(self, spec, sigma_eta, alphas):
        config = replace(default_config("fig2"), sigma_eta=sigma_eta, quadrature=spec)
        for alpha in alphas or config.alphas:
            swept = _sweep(config, alpha)
            cold = []
            for snr_db in _snr_grid(config):
                qfim._expected_fq_cached.cache_clear()
                cold.append(performance_ratios(model_for_snr(alpha, snr_db, sigma_eta), spec))
            assert swept == cold

    def test_quadrature_error_in_the_batch_exits_1(self, monkeypatch, tmp_path, capsys):
        def batch_fails(*args):
            raise QuadratureError("injected", node=0.0)

        monkeypatch.setattr(qfim, "_quadrature", batch_fails)
        out = tmp_path / "fig1.txt"
        assert main(["fig1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "QuadratureError" in err
        assert not out.exists()
