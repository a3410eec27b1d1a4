"""One timed pass of each benchmark workload, followed by its correctness checks.

Every pass runs in a fresh interpreter (see ``child.py``), so the memoized
quadrature starts cold as it does for each CLI user. Only the calls into
``bitbounds`` are inside the timed region; inputs are drawn before it and the
checks run after it.

A pass times its work with a ``calibrate.Clock`` and returns ``wall_s`` (the
timed work, calibration runs left out), ``reference_s`` (the same, rescaled
to the reference host speed), ``kernel_s`` (the calibration times),
``rss_mb`` (peak RSS right after the timed region), ``items`` (the work unit
of ``items_per_s``), ``ops`` (operations attempted), ``failed`` (operations
that raised, exited nonzero, missed their reference or failed a check),
``wrong`` (the failed operations whose output is wrong: outside a
deterministic reference or oracle), ``notes`` (one line per failed
operation) and, for the Monte Carlo workloads, ``digest`` (SHA-256 of the
whole ``MseReport``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
from pathlib import Path

import numpy as np
from scipy import special

import bitbounds
import bitbounds.cli
from bitbounds import MeasurementChannel
from calibrate import Clock

HERE = Path(__file__).resolve().parent

# Reference values are frozen in reference.json (see make_reference.py).
# Steady ratios must match them within this many dB.
RATIO_TOL_DB = 1e-6

# Points where alpha -> 1 makes the iterative steady solver stiff.
STIFF_ALPHAS = (1.0 - 1e-7, 1.0 - 1e-9)
STIFF_SNRS_DB = (-40.0, -30.0, -20.0, -10.0, 0.0, 10.0)

# bounds: models drawn per seed, from the ranges of the selftest model grid.
BOUND_MODELS = 12
BOUND_HORIZON = 500
ALPHA_RANGE = (0.5, 0.99)
SIGMA_RANGE = (0.5, 2.0)  # sigma_z and sigma0, drawn log-uniformly
ORACLE_RTOL = 1e-9

# Monte Carlo workloads: the two halves of the default mse-validate model.
MC_ALPHA, MC_SNR_DB, MC_HORIZON = 0.999, -10.0, 500
MC_ONEBIT_TRIALS = 100
MC_IDEAL_TRIALS, MC_IDEAL_LAG = 2000, 100


def _timing(clock: Clock) -> dict:
    return {"wall_s": clock.wall_s, "reference_s": clock.reference_s, "kernel_s": clock.kernel_s}


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def ratios_db(report) -> tuple[float, float, float]:
    return report.rho_f_db, report.rho_sl_db, report.rho_s_db


def _read_table(path: Path) -> tuple[str, str, list[list[float]]]:
    lines = path.read_text().splitlines()
    return lines[0], lines[1], [[float(c) for c in line.split()] for line in lines[2:]]


def _rows_match(got: list[list[float]], want: list[list[float]], index: int) -> bool:
    if index >= len(got) or len(got[index]) != 2:
        return False
    (snr, value), (snr_ref, value_ref) = got[index], want[index]
    return snr == snr_ref and abs(value - value_ref) <= RATIO_TOL_DB


def sweep(seed: int, work: Path, clock: Clock) -> dict:
    """fig2 at its default config through the CLI, then the 12 stiff points.

    The seed does not apply: the fig2 grid is the fixed CLI default.
    """
    del seed
    out = work / "fig2"
    stiff_models = [(a, snr, bitbounds.model_for_snr(a, snr))
                    for a in STIFF_ALPHAS for snr in STIFF_SNRS_DB]
    # The fig2 run is one call of 20 s or more: offer the clock a segment
    # boundary after each SNR point the CLI solves.
    ratios = getattr(bitbounds.cli, "performance_ratios", None)

    def ratios_then_boundary(*args, **kwargs):
        try:
            return ratios(*args, **kwargs)
        finally:
            clock.boundary()

    if clock.calibrate and ratios is not None:
        bitbounds.cli.performance_ratios = ratios_then_boundary
    clock.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = bitbounds.cli.main(["fig2", "--out", str(out)])
    finally:
        if ratios is not None:
            bitbounds.cli.performance_ratios = ratios
    stiff = []
    for _, _, model in stiff_models:
        try:
            stiff.append(bitbounds.performance_ratios(model))
        except Exception as exc:  # any exception is a failed operation
            stiff.append(exc)
        clock.boundary()
    clock.stop()
    rss = peak_rss_mb()

    reference = load_reference()
    failed = wrong = points = 0
    notes = []
    for alpha_key, tables in reference["fig2"].items():
        rows = {}
        for kind, table in tables.items():
            path = out / f"rho_{kind}_alpha_{alpha_key}.txt"
            if code == 0 and path.exists():
                hash_line, columns, got = _read_table(path)
                headers_ok = hash_line == table["hash"] and columns == table["columns"]
                rows[kind] = (got if headers_ok else [], table["rows"])
            else:
                rows[kind] = ([], table["rows"])
        for i in range(len(tables["s"]["rows"])):
            points += 1
            if code != 0:
                failed += 1
            elif not all(_rows_match(got, want, i) for got, want in rows.values()):
                failed += 1
                wrong += 1
                notes.append(f"fig2 alpha={alpha_key} row {i} differs from the reference")
    if code != 0:
        notes.append(f"fig2 exited with code {code}")
    for (alpha, snr, _), got, want in zip(stiff_models, stiff, reference["stiff"]):
        points += 1
        if isinstance(got, Exception):
            failed += 1
            notes.append(f"stiff alpha={alpha!r} snr={snr} raised {type(got).__name__}")
        elif any(abs(g - w) > RATIO_TOL_DB for g, w in zip(ratios_db(got), want["ratios_db"])):
            failed += 1
            wrong += 1
            notes.append(f"stiff alpha={alpha!r} snr={snr}: {ratios_db(got)} != {want['ratios_db']}")
    return {**_timing(clock), "rss_mb": rss, "items": points, "ops": points, "failed": failed,
            "wrong": wrong, "notes": notes}


def draw_models(seed: int) -> list:
    """Bound models for one seed; sigma0 is not stationary, so every block differs."""
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(BOUND_MODELS):
        alpha = float(rng.uniform(*ALPHA_RANGE))
        sigma_z, sigma0 = np.exp(rng.uniform(*np.log(SIGMA_RANGE), size=2))
        models.append(bitbounds.GaussMarkovModel(alpha=alpha, sigma_z=float(sigma_z),
                                                 sigma_eta=1.0, sigma0=float(sigma0)))
    return models


def _oracle_fims(model, channel, horizon: int) -> np.ndarray:
    """Expected measurement information per block by a dense trapezoid rule.

    Independent of the package's Gauss-Hermite rule: ``F_q`` is integrated
    against each block's zero-mean state marginal over +-12 standard
    deviations on 801 nodes.
    """
    if channel is MeasurementChannel.UNQUANTIZED:
        return np.full(horizon + 1, 1.0 / model.sigma_eta**2)
    k = np.arange(horizon + 1)
    decay = model.alpha ** (2 * k)
    variances = decay * model.sigma0**2 + model.sigma_z**2 * (1 - decay) / (1 - model.alpha**2)
    sd = np.sqrt(variances)[:, None]
    theta = np.linspace(-12.0, 12.0, 801)[None, :] * sd
    u = np.abs(theta) / model.sigma_eta
    fq = np.exp(-0.5 * u * u) / (np.pi * model.sigma_eta**2) / (
        special.erfcx(u / math.sqrt(2.0)) * 0.5 * special.erfc(-u / math.sqrt(2.0)))
    density = np.exp(-0.5 * (theta / sd) ** 2) / (math.sqrt(2.0 * math.pi) * sd)
    return np.trapezoid(fq * density, theta, axis=1)


def _oracle_bounds(model, fims: np.ndarray, horizon: int):
    """Filter, prediction and smoothing MSE bounds by the covariance-form Kalman/RTS recursions.

    With the expected information ``fims[k]`` as measurement precision, the
    bound recursions are those of a linear Gaussian model, whose covariance
    form is an independent route to the same numbers.
    """
    a2, q = model.alpha**2, model.sigma_z**2
    filt = np.empty(horizon + 1)
    pred = np.empty(horizon + 1)
    filt[0] = model.sigma0**2
    for k in range(1, horizon + 1):
        pred[k] = a2 * filt[k - 1] + q
        filt[k] = 1.0 / (1.0 / pred[k] + fims[k])
    ahead = np.empty(horizon + 1)
    ahead[0] = filt[-1]
    for m in range(1, horizon + 1):
        ahead[m] = a2 * ahead[m - 1] + q
    smooth = np.empty(horizon + 1)
    smooth[-1] = filt[-1]
    for l in range(horizon - 1, -1, -1):
        gain = model.alpha * filt[l] / pred[l + 1]
        smooth[l] = filt[l] + gain * gain * (smooth[l + 1] - pred[l + 1])
    return filt, ahead, smooth


def _oracle(seed: int, pairs: list, cache: Path) -> np.ndarray:
    """Oracle bounds of every model-channel pair, shape (pairs, 3, horizon + 1).

    They depend on the seed alone, so the first pass of a run computes them
    and later passes of that run read them back from ``cache``.
    """
    path = cache / f"bounds-oracle-{seed}.npy"
    if path.exists():
        return np.load(path)
    want = np.array([_oracle_bounds(m, _oracle_fims(m, c, BOUND_HORIZON), BOUND_HORIZON)
                     for m, c in pairs])
    np.save(path, want)
    return want


def bounds(seed: int, work: Path, clock: Clock) -> dict:
    """Selftest, then filter/predict/smooth bounds for both channels of each drawn model."""
    models = draw_models(seed)
    channels = (MeasurementChannel.UNQUANTIZED, MeasurementChannel.ONE_BIT)
    results = []
    clock.start()
    report, selftest_failures = bitbounds.cli.run_selftest()
    for model in models:
        for channel in channels:
            try:
                filtered = bitbounds.filter_bim_sequence(model, channel, BOUND_HORIZON)
                ahead = bitbounds.predict_bim(model, filtered, BOUND_HORIZON)
                smoothed = bitbounds.smooth_bim_compact(model, channel, BOUND_HORIZON)
                results.append((filtered.variances, ahead.variances, smoothed.variances))
            except Exception as exc:  # any exception is a failed operation
                results.append(exc)
        clock.boundary()
    clock.stop()
    rss = peak_rss_mb()

    checks = [line for line in report.splitlines() if line.startswith(("PASS", "FAIL"))]
    notes = [line for line in checks if line.startswith("FAIL")]
    failed = wrong = selftest_failures
    items = 0
    pairs = [(m, c) for m in models for c in channels]
    oracle = _oracle(seed, pairs, work.parent)
    for (model, channel), got, want in zip(pairs, results, oracle):
        label = f"{channel.value} {model}"
        if isinstance(got, Exception):
            failed += 1
            notes.append(f"{label} raised {type(got).__name__}: {got}")
            continue
        items += sum(len(v) for v in got)
        errors = [float(np.max(np.abs(g / w - 1.0))) if g.shape == w.shape else math.inf
                  for g, w in zip(got, want)]
        if max(errors) > ORACLE_RTOL:
            failed += 1
            wrong += 1
            notes.append(f"{label}: filter/predict/smooth relative errors {errors}")
    return {**_timing(clock), "rss_mb": rss, "items": items, "ops": len(checks) + len(pairs),
            "failed": failed, "wrong": wrong, "notes": notes}


def _report_digest(report) -> str:
    digest = hashlib.sha256()
    for name in report.__dataclass_fields__:
        value = getattr(report, name)
        digest.update(name.encode())
        digest.update(value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode())
    return digest.hexdigest()


def _mse_checks(report) -> list[tuple[str, bool]]:
    """The statistical checks of ``mse-validate`` for one report."""
    checks = []
    for stage, mse, se, bound in (
        ("filter", report.steady_filter_mse, report.steady_filter_se, report.steady_filter_bound),
        ("smoother", report.steady_smooth_mse, report.steady_smooth_se, report.steady_smooth_bound),
    ):
        checks.append((f"{stage} bound validity: mse={mse!r} se={se!r} bound={bound!r}",
                       mse + 3.0 * se >= bound))
        if report.channel is MeasurementChannel.UNQUANTIZED:
            checks.append((f"{stage} bound tightness: mse={mse!r} se={se!r} bound={bound!r}",
                           abs(mse - bound) <= 3.0 * se))
    slack = 2.0 * math.hypot(report.steady_filter_se, report.steady_smooth_se)
    checks.append((f"smoothing dominates filtering: smooth={report.steady_smooth_mse!r} "
                   f"filter={report.steady_filter_mse!r}",
                   report.steady_smooth_mse <= report.steady_filter_mse + slack))
    return checks


def _monte_carlo(seed: int, clock: Clock, channel, estimator: str, trials: int,
                 lag: int) -> dict:
    model = bitbounds.model_for_snr(MC_ALPHA, MC_SNR_DB)
    clock.start()
    try:
        report = bitbounds.monte_carlo_mse(model, channel, estimator, seed, trials,
                                           MC_HORIZON, lag=lag)
    except Exception as exc:  # any exception is a failed operation
        report = exc
    clock.stop()
    timing = {**_timing(clock), "rss_mb": peak_rss_mb(), "items": trials * MC_HORIZON}
    if isinstance(report, Exception):
        return {**timing, "ops": 1, "failed": 1, "wrong": 0, "digest": None,
                "notes": [f"monte_carlo_mse raised {type(report).__name__}: {report}"]}
    # The checks are statistical (3 standard errors): a miss on one seed is a
    # failed operation, not proof of a wrong output.
    checks = _mse_checks(report)
    return {**timing, "ops": len(checks), "failed": sum(1 for _, ok in checks if not ok), "wrong": 0,
            "notes": [name for name, ok in checks if not ok], "digest": _report_digest(report)}


def mc_onebit(seed: int, work: Path, clock: Clock) -> dict:
    del work
    return _monte_carlo(seed, clock, MeasurementChannel.ONE_BIT, "grid", MC_ONEBIT_TRIALS, 0)


def mc_ideal(seed: int, work: Path, clock: Clock) -> dict:
    del work
    return _monte_carlo(seed, clock, MeasurementChannel.UNQUANTIZED, "kalman", MC_IDEAL_TRIALS,
                        MC_IDEAL_LAG)


PASSES = {"sweep": sweep, "bounds": bounds, "mc_onebit": mc_onebit, "mc_ideal": mc_ideal}
