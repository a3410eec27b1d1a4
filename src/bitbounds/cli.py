"""Experiment runner: SNR sweeps, Monte Carlo validation, and self-tests.

Subcommands
-----------
``fig1``
    Sweep SNR and write the one-bit smoothing loss curve (snr_db,
    rho_sl_db).
``fig2``
    Sweep SNR for three state correlations and write six files: the
    smoothing-vs-ideal-filtering ratio and the filtering loss per alpha.
``ratios``
    Full steady-state report table for one alpha across the SNR grid.
``mse-validate``
    Monte Carlo bound validation for both channels; writes a pass/fail
    report and exits nonzero on any failed check.
``selftest``
    Analytic fixed-point oracles; exit code equals the number of failed
    checks (capped at 125).

Exit codes: 0 success, 1 usage or configuration error, 3 and above
validation failures (2 + failures for ``mse-validate`` and ``selftest``,
capped at 125). The steady-state solvers are closed forms, so no run fails
to converge.

Configs are INI files with sections [experiment], [model], [sweep],
[quadrature], [mc], [output]; every key can be overridden by a
command-line flag of the same name (dashes for underscores). Output files
are written atomically (temp file, then rename), start with ``# config-hash:``
and ``# columns:`` header lines, and format floats with 9 significant
digits (scientific notation once the decimal exponent reaches 6).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .bim import filter_bim_sequence, predict_bim, smooth_bim_compact
from .core import GaussMarkovModel, MeasurementChannel
from .estimators import (
    kalman_filter,
    kalman_steady_variance,
    monte_carlo_mse,
    rts_smoother,
    rts_steady_variance,
    simulate,
)
from .qfim import QuadratureRule, QuadratureSpec, fq
from .qfim import q_function as _default_q_function
from .steady import (
    SteadyStateReport,
    model_for_snr,
    performance_ratios,
    snr_to_sigma_z,
    steady_filter_bim,
    steady_smoothing_gain,
)

__all__ = [
    "ExperimentConfig",
    "SweepRow",
    "EXPERIMENTS",
    "default_config",
    "parse_config",
    "serialize_config",
    "config_hash",
    "format_value",
    "run_fig1",
    "run_fig2",
    "run_ratios",
    "run_mse_validate",
    "run_selftest",
    "main",
]

EXPERIMENTS = ("fig1", "fig2", "ratios", "mse-validate", "selftest")

_RATIO_COLUMNS = (
    "snr_db", "rho_sl_db", "rho_f_db", "rho_s_db",
    "j_filter_unq", "j_filter_q", "j_smooth_unq", "j_smooth_q", "converged",
)


class _UsageError(Exception):
    """Configuration or command-line problem; maps to exit code 1."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run configuration.

    ``sigma0 = None`` selects the stationary prior (standard deviation
    matched to the stationary state distribution at the operating SNR).
    """

    experiment: str
    alphas: tuple[float, ...]
    sigma_eta: float
    sigma0: float | None
    mu0: float
    snr_min_db: float
    snr_max_db: float
    snr_step_db: float
    quadrature: QuadratureSpec
    seed: int
    trials: int
    horizon: int
    delta: int
    output_path: str

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise _UsageError(f"unknown experiment {self.experiment!r}.")
        alphas = tuple(float(a) for a in self.alphas)
        if not alphas:
            raise _UsageError("at least one alpha is required.")
        for a in alphas:
            if not abs(a) < 1.0:
                raise _UsageError(f"alphas must satisfy |alpha| < 1, got {a}.")
        object.__setattr__(self, "alphas", alphas)
        if not self.sigma_eta > 0.0:
            raise _UsageError(f"sigma_eta must be > 0, got {self.sigma_eta}.")
        if self.sigma0 is not None and not self.sigma0 > 0.0:
            raise _UsageError(f"sigma0 must be > 0 or 'stationary', got {self.sigma0}.")
        if not math.isfinite(self.mu0):
            raise _UsageError(f"mu0 must be finite, got {self.mu0}.")
        if not self.snr_step_db > 0.0:
            raise _UsageError(f"snr_step_db must be > 0, got {self.snr_step_db}.")
        if not self.snr_min_db < self.snr_max_db:
            raise _UsageError(
                f"snr_min_db must be below snr_max_db, got {self.snr_min_db} "
                f">= {self.snr_max_db}."
            )
        if not 0 <= self.seed < 2**64:
            raise _UsageError(f"seed must fit in 64 bits, got {self.seed}.")
        if self.trials < 1:
            raise _UsageError(f"trials must be >= 1, got {self.trials}.")
        if self.horizon < 1:
            raise _UsageError(f"horizon must be >= 1, got {self.horizon}.")
        if self.delta < 0:
            raise _UsageError(f"delta must be >= 0, got {self.delta}.")


@dataclass(frozen=True)
class SweepRow:
    """One SNR grid point of a steady-state sweep."""

    snr_db: float
    rho_sl_db: float
    rho_f_db: float
    rho_s_db: float
    j_filter_unq: float
    j_filter_q: float
    j_smooth_unq: float
    j_smooth_q: float
    converged: bool

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if name != "converged" and not math.isfinite(getattr(self, name)):
                raise ValueError(f"SweepRow field {name} must be finite.")

    @classmethod
    def from_report(cls, report: SteadyStateReport) -> "SweepRow":
        return cls(
            snr_db=report.snr_db,
            rho_sl_db=report.rho_sl_db,
            rho_f_db=report.rho_f_db,
            rho_s_db=report.rho_s_db,
            j_filter_unq=report.j_filter_unq,
            j_filter_q=report.j_filter_q,
            j_smooth_unq=report.j_smooth_unq,
            j_smooth_q=report.j_smooth_q,
            converged=all(report.converged),
        )


def default_config(experiment: str) -> ExperimentConfig:
    """Built-in defaults for one experiment."""
    if experiment not in EXPERIMENTS:
        raise _UsageError(f"unknown experiment {experiment!r}.")
    common = dict(
        sigma_eta=1.0,
        mu0=0.0,
        quadrature=QuadratureSpec(),
        seed=20260814,
        trials=2000,
        horizon=500,
        delta=100,
    )
    if experiment == "fig1":
        return ExperimentConfig(
            experiment=experiment, alphas=(0.99999,), sigma0=1.0,
            snr_min_db=-40.0, snr_max_db=10.0, snr_step_db=0.5,
            output_path="fig1_rho_sl.txt", **common,
        )
    if experiment == "fig2":
        return ExperimentConfig(
            experiment=experiment, alphas=(0.9, 0.999, 0.99999), sigma0=1.0,
            snr_min_db=-40.0, snr_max_db=10.0, snr_step_db=0.5,
            output_path="fig2", **common,
        )
    if experiment == "ratios":
        return ExperimentConfig(
            experiment=experiment, alphas=(0.99999,), sigma0=1.0,
            snr_min_db=-40.0, snr_max_db=10.0, snr_step_db=0.5,
            output_path="ratios.txt", **common,
        )
    if experiment == "mse-validate":
        return ExperimentConfig(
            experiment=experiment, alphas=(0.999,), sigma0=None,
            snr_min_db=-10.0, snr_max_db=10.0, snr_step_db=20.0,
            output_path="mse_validate.txt", **common,
        )
    return ExperimentConfig(
        experiment=experiment, alphas=(0.999,), sigma0=1.0,
        snr_min_db=-10.0, snr_max_db=10.0, snr_step_db=20.0,
        output_path="", **common,
    )


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical INI form; hashing input and round-trip target."""
    quad = config.quadrature
    sigma0 = "stationary" if config.sigma0 is None else repr(config.sigma0)
    return (
        "[experiment]\n"
        f"name = {config.experiment}\n"
        "\n[model]\n"
        f"alphas = {', '.join(repr(a) for a in config.alphas)}\n"
        f"sigma_eta = {config.sigma_eta!r}\n"
        f"sigma0 = {sigma0}\n"
        f"mu0 = {config.mu0!r}\n"
        "\n[sweep]\n"
        f"snr_min_db = {config.snr_min_db!r}\n"
        f"snr_max_db = {config.snr_max_db!r}\n"
        f"snr_step_db = {config.snr_step_db!r}\n"
        "\n[quadrature]\n"
        f"rule = {quad.rule.value}\n"
        f"nodes = {quad.nodes}\n"
        f"half_width_sigmas = {quad.half_width_sigmas!r}\n"
        "\n[mc]\n"
        f"seed = {config.seed}\n"
        f"trials = {config.trials}\n"
        f"horizon = {config.horizon}\n"
        f"delta = {config.delta}\n"
        "\n[output]\n"
        f"path = {config.output_path}\n"
    )


def config_hash(config: ExperimentConfig) -> str:
    """First 16 hex digits of the SHA-256 of the canonical serialization.

    The ``[output]`` section is excluded: rerunning the same experiment to
    a different destination must produce an identical file.
    """
    canonical = serialize_config(config).split("\n[output]\n")[0]
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _parse_alphas(raw: str) -> tuple[float, ...]:
    tokens = [t for chunk in raw.split(",") for t in chunk.split()]
    try:
        return tuple(float(t) for t in tokens)
    except ValueError as exc:
        raise _UsageError(f"cannot parse alphas from {raw!r}.") from exc


def _parse_sigma0(raw: str) -> float | None:
    if raw.strip().lower() == "stationary":
        return None
    try:
        return float(raw)
    except ValueError as exc:
        raise _UsageError(f"cannot parse sigma0 from {raw!r}.") from exc


def parse_config(text: str, experiment: str | None = None) -> ExperimentConfig:
    """Parse an INI config, filling missing keys from the experiment defaults.

    Parameters
    ----------
    text : str
        INI content.
    experiment : str, optional
        Experiment selected on the command line; must match the config's
        ``[experiment] name`` when both are present.
    """
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise _UsageError(f"malformed config: {exc}") from exc
    named = parser.get("experiment", "name", fallback=None)
    if named is not None and experiment is not None and named != experiment:
        raise _UsageError(
            f"config is for experiment {named!r} but {experiment!r} was requested."
        )
    resolved = experiment or named
    if resolved is None:
        raise _UsageError("no experiment named on the command line or in the config.")
    base = default_config(resolved)

    def get(section: str, key: str, cast, fallback):
        raw = parser.get(section, key, fallback=None)
        if raw is None:
            return fallback
        try:
            return cast(raw)
        except _UsageError:
            raise
        except (TypeError, ValueError) as exc:
            raise _UsageError(f"bad value for [{section}] {key}: {raw!r}") from exc

    try:
        quadrature = QuadratureSpec(
            rule=get("quadrature", "rule", QuadratureRule, base.quadrature.rule),
            nodes=get("quadrature", "nodes", int, base.quadrature.nodes),
            half_width_sigmas=get("quadrature", "half_width_sigmas", float,
                                  base.quadrature.half_width_sigmas),
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    return ExperimentConfig(
        experiment=resolved,
        alphas=get("model", "alphas", _parse_alphas,
                   get("model", "alpha", _parse_alphas, base.alphas)),
        sigma_eta=get("model", "sigma_eta", float, base.sigma_eta),
        sigma0=get("model", "sigma0", _parse_sigma0, base.sigma0),
        mu0=get("model", "mu0", float, base.mu0),
        snr_min_db=get("sweep", "snr_min_db", float, base.snr_min_db),
        snr_max_db=get("sweep", "snr_max_db", float, base.snr_max_db),
        snr_step_db=get("sweep", "snr_step_db", float, base.snr_step_db),
        quadrature=quadrature,
        seed=get("mc", "seed", int, base.seed),
        trials=get("mc", "trials", int, base.trials),
        horizon=get("mc", "horizon", int, base.horizon),
        delta=get("mc", "delta", int, base.delta),
        output_path=get("output", "path", str, base.output_path),
    )


def format_value(x: float) -> str:
    """Format a float with 9 significant digits.

    Fixed-point notation while the decimal exponent stays below 6 in
    magnitude, lowercase scientific notation beyond; deterministic for
    regression diffs.
    """
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0.00000000"
    exponent = math.floor(math.log10(abs(x)))
    if abs(exponent) >= 6:
        return f"{x:.8e}"
    return f"{x:.{8 - exponent}f}"


def _write_atomic(path: Path, text: str) -> None:
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _render_table(config: ExperimentConfig, columns: tuple[str, ...],
                  rows: list[tuple]) -> str:
    lines = [f"# config-hash: {config_hash(config)}", f"# columns: {' '.join(columns)}"]
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, bool):
                cells.append(str(int(value)))
            else:
                cells.append(format_value(float(value)))
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


def _validate_table(path: Path, columns: tuple[str, ...]) -> None:
    """Re-read a written file and re-check the row invariants."""
    lines = Path(path).read_text().splitlines()
    if len(lines) < 3 or not lines[0].startswith("# config-hash: "):
        raise _UsageError(f"{path}: missing config-hash header.")
    if lines[1] != f"# columns: {' '.join(columns)}":
        raise _UsageError(f"{path}: columns header does not match {columns}.")
    previous = -math.inf
    for line in lines[2:]:
        cells = line.split()
        if len(cells) != len(columns):
            raise _UsageError(f"{path}: row has {len(cells)} cells, expected {len(columns)}.")
        values = [float(c) for c in cells]
        if not values[0] > previous:
            raise _UsageError(f"{path}: snr_db rows must be strictly increasing.")
        previous = values[0]
        if not all(math.isfinite(v) for v in values):
            raise _UsageError(f"{path}: non-finite value in row {line!r}.")


def _snr_grid(config: ExperimentConfig) -> list[float]:
    count = int(math.floor((config.snr_max_db - config.snr_min_db) / config.snr_step_db + 1e-9))
    return [config.snr_min_db + i * config.snr_step_db for i in range(count + 1)]


def _sweep(config: ExperimentConfig, alpha: float) -> list[SweepRow]:
    rows = []
    for snr_db in _snr_grid(config):
        model = model_for_snr(alpha, snr_db, config.sigma_eta)
        rows.append(SweepRow.from_report(performance_ratios(model, config.quadrature)))
    return rows


def run_fig1(config: ExperimentConfig) -> Path:
    """Write the one-bit smoothing-loss curve over the SNR grid.

    Columns: ``snr_db rho_sl_db``. Uses the first configured alpha.
    """
    rows = _sweep(config, config.alphas[0])
    columns = ("snr_db", "rho_sl_db")
    path = Path(config.output_path)
    _write_atomic(path, _render_table(config, columns,
                                      [(r.snr_db, r.rho_sl_db) for r in rows]))
    _validate_table(path, columns)
    return path


def run_fig2(config: ExperimentConfig) -> list[Path]:
    """Write six files: rho_s and rho_f curves for each configured alpha.

    ``output_path`` names a directory; files are
    ``rho_s_alpha_<alpha>.txt`` and ``rho_f_alpha_<alpha>.txt``.
    """
    out_dir = Path(config.output_path)
    paths = []
    for alpha in config.alphas:
        rows = _sweep(config, alpha)
        for kind, getter in (("rho_s", lambda r: r.rho_s_db), ("rho_f", lambda r: r.rho_f_db)):
            columns = ("snr_db", f"{kind}_db")
            path = out_dir / f"{kind}_alpha_{alpha!r}.txt"
            _write_atomic(path, _render_table(config, columns,
                                              [(r.snr_db, getter(r)) for r in rows]))
            _validate_table(path, columns)
            paths.append(path)
    return paths


def run_ratios(config: ExperimentConfig) -> Path:
    """Write the full steady-state report table for a single alpha."""
    if len(config.alphas) != 1:
        raise _UsageError("ratios expects exactly one alpha.")
    rows = _sweep(config, config.alphas[0])
    path = Path(config.output_path)
    _write_atomic(path, _render_table(config, _RATIO_COLUMNS, [
        (r.snr_db, r.rho_sl_db, r.rho_f_db, r.rho_s_db,
         r.j_filter_unq, r.j_filter_q, r.j_smooth_unq, r.j_smooth_q, r.converged)
        for r in rows
    ]))
    _validate_table(path, _RATIO_COLUMNS)
    return path


def _mse_model(config: ExperimentConfig) -> GaussMarkovModel:
    alpha = config.alphas[0]
    snr_db = config.snr_min_db
    sigma_z = snr_to_sigma_z(alpha, snr_db, config.sigma_eta)
    if config.sigma0 is None:
        return model_for_snr(alpha, snr_db, config.sigma_eta)
    return GaussMarkovModel(alpha=alpha, sigma_z=sigma_z, sigma_eta=config.sigma_eta,
                            sigma0=config.sigma0, mu0=config.mu0)


def run_mse_validate(config: ExperimentConfig) -> tuple[Path, int]:
    """Monte Carlo bound validation for both channels.

    Evaluates at ``snr_min_db`` with the first configured alpha. Writes a
    report whose rows are individual checks with PASS/FAIL/SKIPPED status
    (statistical checks are SKIPPED with a single trial) and returns the
    written path with the number of failures.
    """
    model = _mse_model(config)
    spec = config.quadrature
    checks: list[tuple[str, str, str]] = []

    def add(name: str, passed: bool | None, detail: str) -> None:
        status = "SKIPPED" if passed is None else ("PASS" if passed else "FAIL")
        checks.append((name, status, detail))

    j_unq = steady_filter_bim(model, MeasurementChannel.UNQUANTIZED, spec).value
    kappa_unq = steady_smoothing_gain(model, MeasurementChannel.UNQUANTIZED, spec).value
    riccati = kalman_steady_variance(model)
    rel = abs(riccati * j_unq - 1.0)
    add("riccati variance equals inverse filter information", rel <= 1e-9,
        f"relative error {rel:.3e}, tolerance 1e-09")
    smoothed = rts_steady_variance(model, lag=None)
    rel = abs(smoothed * (j_unq + kappa_unq) - 1.0)
    add("rts variance equals inverse smoothing information", rel <= 1e-6,
        f"relative error {rel:.3e}, tolerance 1e-06")

    reports = [
        monte_carlo_mse(model, MeasurementChannel.UNQUANTIZED, "kalman", config.seed,
                        config.trials, config.horizon, config.delta, spec=spec),
        monte_carlo_mse(model, MeasurementChannel.ONE_BIT, "grid", config.seed,
                        config.trials, config.horizon, config.delta, spec=spec),
    ]
    statistical = config.trials >= 2
    for report in reports:
        label = f"{report.channel.value}/{report.estimator}"
        for stage, mse, se, bound in (
            ("filter", report.steady_filter_mse, report.steady_filter_se,
             report.steady_filter_bound),
            ("smoother", report.steady_smooth_mse, report.steady_smooth_se,
             report.steady_smooth_bound),
        ):
            ok = mse + 3.0 * se >= bound if statistical else None
            add(f"{label} {stage} bound validity",
                ok, f"mse={format_value(mse)} bound={format_value(bound)} se={format_value(se)}")
            if report.channel is MeasurementChannel.UNQUANTIZED:
                ok = abs(mse - bound) <= 3.0 * se if statistical else None
                add(f"{label} {stage} bound tightness",
                    ok, f"|mse-bound|={format_value(abs(mse - bound))} 3se={format_value(3 * se)}")
        dominance_slack = 2.0 * math.hypot(report.steady_filter_se, report.steady_smooth_se)
        ok = (report.steady_smooth_mse
              <= report.steady_filter_mse + dominance_slack) if statistical else None
        add(f"{label} smoothing dominates filtering", ok,
            f"smooth={format_value(report.steady_smooth_mse)} "
            f"filter={format_value(report.steady_filter_mse)}")

    failures = sum(1 for _, status, _ in checks if status == "FAIL")
    lines = [f"# config-hash: {config_hash(config)}",
             "# columns: status check detail"]
    for name, status, detail in checks:
        lines.append(f"{status:<8} {name:<55} {detail}")
    lines.append(f"# summary: {len(checks)} checks, {failures} failed")
    path = Path(config.output_path)
    _write_atomic(path, "\n".join(lines) + "\n")
    return path, failures


def run_selftest(q_function=None) -> tuple[str, int]:
    """Analytic oracle checks for the information recursions.

    Parameters
    ----------
    q_function : callable, optional
        Gaussian tail function used by the one-bit information peak check;
        a fault-injection hook for testing the self-test itself.

    Returns
    -------
    (str, int)
        Printable report and the number of failed checks.
    """
    q = q_function if q_function is not None else _default_q_function
    lines = []
    failures = 0

    def check(name: str, measured: float, expected: float, tolerance: float) -> None:
        nonlocal failures
        error = abs(measured - expected) / max(abs(expected), 1e-300)
        ok = error <= tolerance
        if not ok:
            failures += 1
        lines.append(
            f"{'PASS' if ok else 'FAIL'}  {name}: measured={measured!r} "
            f"expected={expected!r} relative error={error:.3e} (tolerance {tolerance:g})"
        )

    unit = GaussMarkovModel(alpha=1.0, sigma_z=1.0, sigma_eta=1.0, sigma0=1.0)
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    check("golden-ratio filtering fixed point",
          steady_filter_bim(unit, MeasurementChannel.UNQUANTIZED).value, phi, 1e-9)
    check("golden-ratio smoothing gain",
          steady_smoothing_gain(unit, MeasurementChannel.UNQUANTIZED).value, phi - 1.0, 1e-9)

    pred_model = GaussMarkovModel(alpha=0.9, sigma_z=1.0, sigma_eta=1.0, sigma0=1.0)
    filtered = filter_bim_sequence(pred_model, MeasurementChannel.UNQUANTIZED, 5)
    predicted = predict_bim(pred_model, filtered, 400)
    check("prediction information limit (1 - alpha^2) / sigma_z^2",
          float(predicted.values[-1]),
          (1.0 - pred_model.alpha**2) / pred_model.sigma_z**2, 1e-9)

    sigma_eta = 1.0
    measured_peak = 1.0 / (2.0 * math.pi * sigma_eta**2
                           * float(q(0.0)) * float(q(-0.0)))
    library_peak = float(fq(0.0, sigma_eta))
    expected_peak = 2.0 / (math.pi * sigma_eta**2)
    check("one-bit information peak from the tail function", measured_peak, expected_peak, 1e-12)
    check("one-bit information peak from the library", library_peak, expected_peak, 1e-12)

    # The RTS variances do not depend on the data, so one trial suffices.
    worst = 0.0
    for alpha in (0.5, 0.9, 0.99):
        for sigma_z in (0.5, 1.0, 2.0):
            for s_eta in (0.5, 1.0, 2.0):
                model = GaussMarkovModel(alpha=alpha, sigma_z=sigma_z,
                                         sigma_eta=s_eta, sigma0=1.0)
                batch = simulate(model, MeasurementChannel.UNQUANTIZED, 0, 1, 30)
                rts = rts_smoother(kalman_filter(batch, model), model)
                compact = smooth_bim_compact(model, MeasurementChannel.UNQUANTIZED, 30)
                worst = max(worst, float(abs(compact.values * rts.variances - 1.0).max()))
    ok = worst <= 1e-10
    if not ok:
        failures += 1
    lines.append(
        f"{'PASS' if ok else 'FAIL'}  compact smoothing information equals inverse RTS "
        f"variance (27 models): worst relative deviation={worst:.3e} (tolerance 1e-10)"
    )
    lines.append(f"summary: {len(lines)} checks, {failures} failed")
    return "\n".join(lines), failures


def _build_parser() -> argparse.ArgumentParser:
    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

    parser = Parser(prog="bitbounds",
                    description="Estimation-bound experiments for one-bit measurements.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="INI config path")
        sp.add_argument("--out", dest="output_path", help="output file (or directory for fig2)")
        sp.add_argument("--seed", type=int, help="Monte Carlo root seed")
        sp.add_argument("--alpha", dest="alphas", help="state correlation coefficient(s)")
        sp.add_argument("--alphas", dest="alphas", help=argparse.SUPPRESS)
        sp.add_argument("--sigma-eta", type=float, dest="sigma_eta")
        sp.add_argument("--sigma0", help="prior standard deviation or 'stationary'")
        sp.add_argument("--mu0", type=float)
        sp.add_argument("--snr-min-db", type=float, dest="snr_min_db")
        sp.add_argument("--snr-max-db", type=float, dest="snr_max_db")
        sp.add_argument("--snr-step-db", type=float, dest="snr_step_db")
        sp.add_argument("--rule", choices=[r.value for r in QuadratureRule])
        sp.add_argument("--nodes", type=int)
        sp.add_argument("--half-width-sigmas", type=float, dest="half_width_sigmas")
        sp.add_argument("--trials", type=int)
        sp.add_argument("--horizon", type=int)
        sp.add_argument("--delta", type=int)
    return parser


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    updates = {}
    if args.alphas is not None:
        updates["alphas"] = _parse_alphas(args.alphas)
    if args.sigma0 is not None:
        updates["sigma0"] = _parse_sigma0(args.sigma0)
    for key in ("sigma_eta", "mu0", "snr_min_db", "snr_max_db", "snr_step_db",
                "seed", "trials", "horizon", "delta", "output_path"):
        value = getattr(args, key)
        if value is not None:
            updates[key] = value
    quad_updates = {}
    if args.rule is not None:
        quad_updates["rule"] = QuadratureRule(args.rule)
    if args.nodes is not None:
        quad_updates["nodes"] = args.nodes
    if args.half_width_sigmas is not None:
        quad_updates["half_width_sigmas"] = args.half_width_sigmas
    if quad_updates:
        try:
            updates["quadrature"] = replace(config.quadrature, **quad_updates)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
    return replace(config, **updates) if updates else config


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        if args.config is not None:
            try:
                text = Path(args.config).read_text()
            except OSError as exc:
                raise _UsageError(f"cannot read config {args.config}: {exc}") from exc
            config = parse_config(text, args.experiment)
        else:
            config = default_config(args.experiment)
        config = _apply_overrides(config, args)
        if config.experiment == "fig1":
            print(f"wrote {run_fig1(config)}")
            return 0
        if config.experiment == "fig2":
            for path in run_fig2(config):
                print(f"wrote {path}")
            return 0
        if config.experiment == "ratios":
            print(f"wrote {run_ratios(config)}")
            return 0
        if config.experiment == "mse-validate":
            path, failures = run_mse_validate(config)
            print(Path(path).read_text(), end="")
            print(f"wrote {path}")
            return 0 if failures == 0 else min(2 + failures, 125)
        text, failures = run_selftest()
        print(text)
        if config.output_path:
            _write_atomic(Path(config.output_path), text + "\n")
        return 0 if failures == 0 else min(2 + failures, 125)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
