"""End-to-end acceptance criteria for the experiment deliverables.

Each test evaluates one shipping criterion at its stated tolerance and
emits a single PASS/FAIL line into the run summary.

Criteria 1 and 3 carry the paper's low-SNR anchor: the one-bit losses
``rho_sl`` (smoothing) and ``rho_f`` (filtering) tend to
``5 log10(2/pi) = -0.98 dB`` as ``alpha -> 1``. With SNR defined as the
stationary state variance over ``sigma_eta^2``, the steady quadratics give
``J -> sqrt(s f)`` only when ``(1 - alpha^2) << (2/pi) * SNR``. At -40 dB and
``ALPHA_NEAR_ONE`` the two sides are 2e-5 and 6.4e-5, so the limit is not yet
reached there. The criteria therefore read the -0.98 +/- 0.05 dB anchor at
``ALPHA_ANCHOR = 1 - 1e-9``, both from the closed-form roots and from the
-40 dB row of a CLI run (fig1 for ``rho_sl``, fig2 for ``rho_f``), and check
that the distance to the limit shrinks along the alpha ladder. At
``ALPHA_NEAR_ONE`` they check that the solver agrees with the same closed
form. Criterion 1 also checks that the
fig1 smoothing-loss curve falls strictly: the one-bit loss deepens as SNR
grows.
"""
import math
import time
from dataclasses import replace
from pathlib import Path

import pytest

from bitbounds import (
    MeasurementChannel,
    QuadratureRule,
    QuadratureSpec,
    StateMoments,
    expected_fq,
    kalman_steady_variance,
    model_for_snr,
    monte_carlo_mse,
    performance_ratios,
    quadratic_filter_root,
    quadratic_gain_root,
    rts_steady_variance,
    steady_expected_fim,
)
from bitbounds.cli import default_config, format_value, run_fig1, run_fig2, run_selftest

ALPHA_NEAR_ONE = 1.0 - 1e-5
ALPHA_ANCHOR = 1.0 - 1e-9
ALPHA_LADDER = (ALPHA_NEAR_ONE, 1.0 - 1e-7, ALPHA_ANCHOR)
LOW_SNR_LIMIT_DB = 5.0 * math.log10(2.0 / math.pi)
# The alpha -> 1 limit of rho_s at low SNR: smoothing doubles the filtered
# information, which the one-bit channel scales by sqrt(2/pi).
SMOOTHING_GAIN_LIMIT_DB = 10.0 * math.log10(2.0 * math.sqrt(2.0 / math.pi))


def _record(report: list, num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} :: {detail}"
    report.append(line)
    print(line)
    assert ok, line


def _closed_form_losses(alpha: float, snr_db: float) -> tuple[float, float]:
    """``(rho_f_db, rho_sl_db)`` from the closed-form steady roots."""
    model = model_for_snr(alpha, snr_db)
    roots = []
    for channel in (MeasurementChannel.ONE_BIT, MeasurementChannel.UNQUANTIZED):
        fim = steady_expected_fim(model, channel)
        j = quadratic_filter_root(model, fim)
        roots.append((j, j + quadratic_gain_root(model, fim)))
    (j_q, smooth_q), (j_unq, smooth_unq) = roots
    return 10.0 * math.log10(j_q / j_unq), 10.0 * math.log10(smooth_q / smooth_unq)


def _approaches_limit(values: list[float]) -> bool:
    distances = [abs(v - LOW_SNR_LIMIT_DB) for v in values]
    return all(b < a for a, b in zip(distances, distances[1:]))


def _load_curve(path: Path) -> tuple[list[float], list[float]]:
    xs, ys = [], []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        x, y = line.split()
        xs.append(float(x))
        ys.append(float(y))
    return xs, ys


def test_criterion_1_smoothing_loss_curve(tmp_path, acceptance_report):
    config = replace(default_config("fig1"), output_path=str(tmp_path / "fig1.txt"))
    start = time.perf_counter()
    path = run_fig1(config)
    elapsed = time.perf_counter() - start
    snr, rho_sl = _load_curve(path)
    assert snr[0] == -40.0 and snr[-1] == 10.0 and len(snr) == 101
    ladder = [_closed_form_losses(alpha, -40.0)[1] for alpha in ALPHA_LADDER]
    table_cf = format_value(_closed_form_losses(config.alphas[0], -40.0)[1])
    table_ok = format_value(rho_sl[0]) == table_cf
    anchor_ok = abs(ladder[-1] - (-0.98)) <= 0.05
    anchor_run = replace(config, alphas=(ALPHA_ANCHOR,),
                         output_path=str(tmp_path / "fig1_anchor.txt"))
    anchor_snr, anchor_rho_sl = _load_curve(run_fig1(anchor_run))
    assert anchor_snr[0] == -40.0
    run_anchor_ok = abs(anchor_rho_sl[0] - (-0.98)) <= 0.05
    ladder_ok = _approaches_limit(ladder)
    falling_ok = all(b < a for a, b in zip(rho_sl, rho_sl[1:]))
    time_ok = elapsed < 60.0
    _record(
        acceptance_report, 1, "smoothing-loss curve",
        table_ok and anchor_ok and run_anchor_ok and ladder_ok and falling_ok and time_ok,
        f"rho_sl(-40 dB) = {rho_sl[0]:+.9f} dB vs closed form {table_cf} [{table_ok}], "
        f"closed-form rho_sl(-40 dB, alpha=1-1e-9) = {ladder[-1]:+.4f} dB vs -0.98 +/- 0.05 "
        f"[{'ok' if anchor_ok else 'out'}], fig1 run at alpha=1-1e-9: rho_sl(-40 dB) = "
        f"{anchor_rho_sl[0]:+.4f} dB vs -0.98 +/- 0.05 [{'ok' if run_anchor_ok else 'out'}], "
        f"distance to 5 log10(2/pi) shrinks over "
        f"alpha 1-1e-5/1e-7/1e-9 [{ladder_ok}], strictly decreasing over [-40, 10] dB "
        f"[{falling_ok}], runtime {elapsed:.1f}s < 60s [{time_ok}]",
    )


def test_criterion_2_smoothing_vs_ideal_filtering(tmp_path, acceptance_report):
    config = replace(default_config("fig2"), output_path=str(tmp_path / "fig2"))
    start = time.perf_counter()
    paths = run_fig2(config)
    elapsed = time.perf_counter() - start
    assert len(paths) == 6
    out = Path(config.output_path)
    dominance_ok = True
    for alpha in config.alphas:
        _, rho_s = _load_curve(out / f"rho_s_alpha_{alpha!r}.txt")
        _, rho_f = _load_curve(out / f"rho_f_alpha_{alpha!r}.txt")
        dominance_ok &= all(s >= f - 1e-12 for s, f in zip(rho_s, rho_f))
    snr, rho_s = _load_curve(out / "rho_s_alpha_0.99999.txt")
    peak = max(rho_s)
    peak_ok = abs(peak - 2.0) <= 0.3
    positive_ok = any(v > 0.0 for x, v in zip(snr, rho_s) if x <= 0.0)
    time_ok = elapsed < 300.0
    _record(
        acceptance_report, 2, "smoothing beats ideal filtering",
        dominance_ok and peak_ok and positive_ok and time_ok,
        f"rho_s >= rho_f at every point for alphas {config.alphas} [{dominance_ok}], "
        f"alpha=0.99999 peak {peak:+.4f} dB vs 2.0 +/- 0.3 [{peak_ok}], "
        f"positive below 0 dB SNR [{positive_ok}], runtime {elapsed:.1f}s < 300s [{time_ok}]",
    )


def test_criterion_3_low_snr_filtering_loss(tmp_path, acceptance_report):
    model = model_for_snr(ALPHA_NEAR_ONE, -40.0)
    report = performance_ratios(model)
    ladder = [_closed_form_losses(alpha, -40.0)[0] for alpha in ALPHA_LADDER]
    solver_ok = abs(report.rho_f_db - ladder[0]) <= 1e-9
    anchor_ok = abs(ladder[-1] - (-0.98)) <= 0.05
    anchor_run = replace(default_config("fig2"), alphas=(ALPHA_ANCHOR,),
                         output_path=str(tmp_path / "fig2_anchor"))
    run_fig2(anchor_run)
    anchor_snr, anchor_rho_f = _load_curve(
        tmp_path / "fig2_anchor" / f"rho_f_alpha_{ALPHA_ANCHOR!r}.txt")
    assert anchor_snr[0] == -40.0
    run_anchor_ok = abs(anchor_rho_f[0] - (-0.98)) <= 0.05
    ladder_ok = _approaches_limit(ladder)
    f_q = steady_expected_fim(model, MeasurementChannel.ONE_BIT)
    f_unq = steady_expected_fim(model, MeasurementChannel.UNQUANTIZED)
    ratio = f_q / f_unq
    ratio_ok = abs(ratio / (2.0 / math.pi) - 1.0) <= 0.005
    _record(
        acceptance_report, 3, "low-SNR filtering loss",
        solver_ok and anchor_ok and run_anchor_ok and ladder_ok and ratio_ok,
        f"rho_f(-40 dB) = {report.rho_f_db:+.9f} dB vs closed form {ladder[0]:+.9f} "
        f"to 1e-9 [{solver_ok}], closed-form rho_f(-40 dB, alpha=1-1e-9) = "
        f"{ladder[-1]:+.4f} dB vs -0.98 +/- 0.05 [{'ok' if anchor_ok else 'out'}], "
        f"fig2 run at alpha=1-1e-9: rho_f(-40 dB) = {anchor_rho_f[0]:+.4f} dB vs "
        f"-0.98 +/- 0.05 [{'ok' if run_anchor_ok else 'out'}], "
        f"distance to 5 log10(2/pi) shrinks over alpha 1-1e-5/1e-7/1e-9 [{ladder_ok}], "
        f"per-sample information ratio {ratio:.6f} vs 2/pi within 0.5% [{ratio_ok}]",
    )


def test_rho_s_approaches_its_limit_from_below():
    # One-bit smoothing over ideal filtering at -40 dB, along criteria 1 and
    # 3's alpha ladder: 1.23053, 1.93421 and 2.01993 dB, at distances 0.799,
    # 0.0955 and 0.00977 dB below the limit.
    assert abs(SMOOTHING_GAIN_LIMIT_DB - 2.029701) <= 1e-6
    ladder = [performance_ratios(model_for_snr(alpha, -40.0)).rho_s_db for alpha in ALPHA_LADDER]
    distances = [SMOOTHING_GAIN_LIMIT_DB - v for v in ladder]
    assert all(d > 0.0 for d in distances)
    assert all(b < a for a, b in zip(distances, distances[1:]))
    for got, want in zip(distances, (0.799, 0.0955, 0.00977)):
        assert abs(got / want - 1.0) <= 0.005


def test_criterion_4_analytic_selftest(acceptance_report):
    start = time.perf_counter()
    text, failures = run_selftest()
    elapsed = time.perf_counter() - start
    time_ok = elapsed < 10.0
    _record(
        acceptance_report, 4, "analytic fixed-point selftest",
        failures == 0 and time_ok,
        f"{text.count('PASS')} checks, {failures} failed, runtime {elapsed:.1f}s < 10s [{time_ok}]",
    )


@pytest.mark.slow
def test_criterion_5_monte_carlo_bound_validity(acceptance_report):
    model = model_for_snr(0.999, -10.0)
    seed, trials, horizon, lag = 20260814, 2000, 500, 100
    start = time.perf_counter()
    kalman = monte_carlo_mse(model, MeasurementChannel.UNQUANTIZED, "kalman",
                             seed=seed, num_trials=trials, horizon=horizon, lag=lag)
    grid = monte_carlo_mse(model, MeasurementChannel.ONE_BIT, "grid",
                           seed=seed, num_trials=trials, horizon=horizon)
    elapsed = time.perf_counter() - start

    fim = steady_expected_fim(model, MeasurementChannel.UNQUANTIZED)
    j = quadratic_filter_root(model, fim)
    kappa = quadratic_gain_root(model, fim)
    kalman_dev = abs(kalman.steady_filter_mse - kalman.steady_filter_bound)
    a_mse_ok = kalman_dev <= 3.0 * kalman.steady_filter_se
    a_riccati_ok = abs(kalman_steady_variance(model) * j - 1.0) <= 1e-9
    b_ok = abs(rts_steady_variance(model) * (j + kappa) - 1.0) <= 1e-6
    c_filter_ok = (grid.steady_filter_mse
                   >= grid.steady_filter_bound - 3.0 * grid.steady_filter_se)
    c_smooth_ok = (grid.steady_smooth_mse
                   >= grid.steady_smooth_bound - 3.0 * grid.steady_smooth_se)
    time_ok = elapsed < 600.0
    _record(
        acceptance_report, 5, "Monte Carlo bound validity",
        a_mse_ok and a_riccati_ok and b_ok and c_filter_ok and c_smooth_ok and time_ok,
        f"kalman |mse-bound| = {kalman_dev:.2e} <= 3se [{a_mse_ok}], "
        f"riccati = 1/J to 1e-9 [{a_riccati_ok}], rts = 1/(J+kappa) to 1e-6 [{b_ok}], "
        f"one-bit filter/smoother above bounds [{c_filter_ok}/{c_smooth_ok}], "
        f"runtime {elapsed:.0f}s < 600s [{time_ok}]",
    )


def test_criterion_6_quadrature_robustness(acceptance_report):
    gh = QuadratureSpec(rule=QuadratureRule.GAUSS_HERMITE, nodes=128)
    oracle = QuadratureSpec(rule=QuadratureRule.TRAPEZOID, nodes=100_000,
                            half_width_sigmas=10.0)
    sigma_eta = 1.0
    worst = 0.0
    finite_ok = True
    for variance in (1e-4, 1e-2, 1.0, 1e2, 1e4):
        a = expected_fq(StateMoments(0, 0.0, variance), sigma_eta, gh)
        b = expected_fq(StateMoments(0, 0.0, variance), sigma_eta, oracle)
        worst = max(worst, abs(a - b) / b)
        for mean in (0.0, math.sqrt(variance), 3.0 * math.sqrt(variance)):
            for spec in (gh, oracle):
                value = expected_fq(StateMoments(0, mean, variance), sigma_eta, spec)
                finite_ok &= math.isfinite(value) and value > 0.0
    agreement_ok = worst <= 1e-8
    _record(
        acceptance_report, 6, "quadrature robustness", agreement_ok and finite_ok,
        f"Gauss-Hermite vs trapezoid worst relative deviation {worst:.2e} <= 1e-8 "
        f"[{agreement_ok}], all stress-grid values finite and positive [{finite_ok}]",
    )
