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
    Steady-state table for one alpha across the SNR grid: snr_db, the three
    dB ratios and the four steady informations, unquantized and one-bit.
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
[quadrature], [mc], [output]; ``_KEYS`` declares each key once, with the
command-line flag that overrides it, and any other section or key exits 1.
Each experiment reads only the keys in its ``_EXPERIMENTS`` record; a key it
does not read must keep the experiment's default, or the run exits 1. The
two values that depend on another key are checked by the types that own
them: ``QuadratureSpec`` takes a ``half_width_sigmas`` other than 10 only
under the trapezoid rule, and ``ExperimentConfig`` a nonzero ``mu0`` only
with a numeric ``sigma0``. Output files are written atomically (temp
file, then rename), start with ``# config-hash:`` and ``# columns:`` header
lines, and format floats with 9 significant digits (scientific notation
once the decimal exponent reaches 6).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .bim import filter_bim_sequence, predict_bim, smooth_bim_compact
from .core import GaussMarkovModel, MeasurementChannel, _integer, stationary_variance
from .estimators import (
    TrajectoryBatch,
    burn_in_blocks,
    kalman_filter,
    kalman_steady_variance,
    monte_carlo_mse,
    rts_smoother,
    rts_steady_variance,
)
from .qfim import QuadratureRule, QuadratureSpec, expected_fq_batch, fq, q_function
from .steady import (
    SteadyStateReport,
    _report,
    model_for_snr,
    quadratic_filter_root,
    quadratic_gain_root,
    snr_to_sigma_z,
    steady_expected_fim,
)

__all__ = [
    "ExperimentConfig",
    "EXPERIMENTS",
    "MAX_SNR_POINTS",
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

# Most points an SNR grid may have; the default sweeps have 101.
MAX_SNR_POINTS = 100_000

_RATIO_COLUMNS = (
    "snr_db", "rho_sl_db", "rho_f_db", "rho_s_db",
    "j_filter_unq", "j_filter_q", "j_smooth_unq", "j_smooth_q",
)


class _UsageError(Exception):
    """Configuration or command-line problem; maps to exit code 1."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run configuration.

    ``sigma0 = None`` selects the stationary prior (standard deviation
    matched to the stationary state distribution at the operating SNR, mean
    0), so ``mu0`` must then be 0.
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
        if not 0.0 < self.sigma_eta < math.inf:
            raise _UsageError(f"sigma_eta must be finite and > 0, got {self.sigma_eta}.")
        if self.sigma0 is not None and not 0.0 < self.sigma0 < math.inf:
            raise _UsageError(
                f"sigma0 must be finite and > 0, or 'stationary', got {self.sigma0}."
            )
        for name in ("mu0", "snr_min_db", "snr_max_db"):
            if not math.isfinite(getattr(self, name)):
                raise _UsageError(f"{name} must be finite, got {getattr(self, name)}.")
        if self.sigma0 is None and self.mu0 != 0.0:
            raise _UsageError(f"the stationary prior (sigma0 'stationary') has mean 0, "
                              f"got mu0 {self.mu0}.")
        if not 0.0 < self.snr_step_db < math.inf:
            raise _UsageError(f"snr_step_db must be finite and > 0, got {self.snr_step_db}.")
        # An experiment that does not read snr_max_db evaluates at snr_min_db alone.
        sweeps = "snr_max_db" in _EXPERIMENTS[self.experiment].reads
        if sweeps and not self.snr_min_db < self.snr_max_db:
            raise _UsageError(
                f"snr_min_db must be below snr_max_db, got {self.snr_min_db} "
                f">= {self.snr_max_db}."
            )
        # _snr_grid takes floor(steps) + 1 points, so this bounds the count.
        steps = (self.snr_max_db - self.snr_min_db) / self.snr_step_db + 1e-9
        if not steps < MAX_SNR_POINTS:
            raise _UsageError(
                f"the SNR grid from {self.snr_min_db} to {self.snr_max_db} dB in steps of "
                f"{self.snr_step_db} dB exceeds {MAX_SNR_POINTS} points."
            )
        try:
            for name, low, high in (("seed", 0, 2**64 - 1), ("trials", 1, None),
                                    ("horizon", 1, None), ("delta", 0, None)):
                object.__setattr__(self, name, _integer(name, getattr(self, name), low, high))
        except (TypeError, ValueError) as exc:
            raise _UsageError(str(exc)) from exc


_COMMON_DEFAULTS = dict(
    alphas=(0.99999,), sigma_eta=1.0, sigma0=1.0, mu0=0.0,
    snr_min_db=-40.0, snr_max_db=10.0, snr_step_db=0.5, quadrature=QuadratureSpec(),
    seed=20260814, trials=2000, horizon=500, delta=100,
)


def default_config(experiment: str) -> ExperimentConfig:
    """Built-in defaults for one experiment."""
    if experiment not in EXPERIMENTS:
        raise _UsageError(f"unknown experiment {experiment!r}.")
    return ExperimentConfig(experiment=experiment,
                            **{**_COMMON_DEFAULTS, **_EXPERIMENTS[experiment].defaults})


class _Key(NamedTuple):
    """One config key: its INI section and key, its config field and flag,
    and how its value is parsed and written."""

    section: str
    key: str
    field: str  # of QuadratureSpec in [quadrature], else of ExperimentConfig
    flag: str
    parse: Callable[[str], Any]
    format: Callable[[Any], str]
    help: str | None = None
    aliases: tuple[str, ...] = ()  # further INI keys, and hidden flags ("--...")


# Every config key, in serialization order.
_KEYS = (
    _Key("model", "alphas", "alphas", "--alpha",
         lambda raw: tuple(float(t) for t in raw.replace(",", " ").split()),
         lambda alphas: ", ".join(repr(a) for a in alphas),
         "state correlation coefficient(s)", aliases=("alpha", "--alphas")),
    _Key("model", "sigma_eta", "sigma_eta", "--sigma-eta", float, repr),
    _Key("model", "sigma0", "sigma0", "--sigma0",
         lambda raw: None if raw.strip().lower() == "stationary" else float(raw),
         lambda sigma0: "stationary" if sigma0 is None else repr(sigma0),
         "prior standard deviation or 'stationary'"),
    _Key("model", "mu0", "mu0", "--mu0", float, repr),
    _Key("sweep", "snr_min_db", "snr_min_db", "--snr-min-db", float, repr),
    _Key("sweep", "snr_max_db", "snr_max_db", "--snr-max-db", float, repr),
    _Key("sweep", "snr_step_db", "snr_step_db", "--snr-step-db", float, repr),
    _Key("quadrature", "rule", "rule", "--rule", QuadratureRule, lambda rule: rule.value,
         " or ".join(rule.value for rule in QuadratureRule)),
    _Key("quadrature", "nodes", "nodes", "--nodes", int, repr),
    _Key("quadrature", "half_width_sigmas", "half_width_sigmas", "--half-width-sigmas",
         float, repr),
    _Key("mc", "seed", "seed", "--seed", int, repr, "Monte Carlo root seed"),
    _Key("mc", "trials", "trials", "--trials", int, repr),
    _Key("mc", "horizon", "horizon", "--horizon", int, repr),
    _Key("mc", "delta", "delta", "--delta", int, repr),
    _Key("output", "path", "output_path", "--out", str, str,
         "output file (or directory for fig2)"),
)


def _value(config: ExperimentConfig, key: _Key) -> Any:
    return getattr(config.quadrature if key.section == "quadrature" else config, key.field)


def _parse(key: _Key, raw: str, where: str) -> Any:
    try:
        return key.parse(raw)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"bad value for {where}: {raw!r}") from exc


def _updated(config: ExperimentConfig, values: dict[str, Any]) -> ExperimentConfig:
    """``config`` with ``{field: value}`` applied; quadrature fields go to its spec."""
    quadrature = {key.field: values.pop(key.field) for key in _KEYS
                  if key.section == "quadrature" and key.field in values}
    if quadrature:
        try:
            values["quadrature"] = replace(config.quadrature, **quadrature)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
    return replace(config, **values)


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical INI form; hashing input and round-trip target."""
    lines = ["[experiment]", f"name = {config.experiment}"]
    for i, key in enumerate(_KEYS):
        if i == 0 or key.section != _KEYS[i - 1].section:
            lines += ["", f"[{key.section}]"]
        lines.append(f"{key.key} = {key.format(_value(config, key))}")
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    """First 16 hex digits of the SHA-256 of the canonical serialization.

    The ``[output]`` section is excluded: rerunning the same experiment to
    a different destination must produce an identical file.
    """
    canonical = serialize_config(config).split("\n[output]\n")[0]
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


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
    # no default section: a [DEFAULT] section is as unknown as any other
    parser = configparser.ConfigParser(default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        # configparser's messages span lines; a usage error is one line.
        raise _UsageError(f"malformed config: {' '.join(str(exc).split())}") from exc
    ini_keys = {(key.section, name): key for key in _KEYS
                for name in (key.key, *(a for a in key.aliases if not a.startswith("--")))}
    known = {*ini_keys, ("experiment", "name")}
    for section in parser.sections():
        for name in parser.options(section):
            if (section, name) not in known:
                raise _UsageError(f"unknown config key [{section}] {name}.")
        if section not in {known_section for known_section, _ in known}:
            raise _UsageError(f"unknown config section [{section}].")
    named = parser.get("experiment", "name", fallback=None)
    if named is not None and experiment is not None and named != experiment:
        raise _UsageError(
            f"config is for experiment {named!r} but {experiment!r} was requested."
        )
    resolved = experiment or named
    if resolved is None:
        raise _UsageError("no experiment named on the command line or in the config.")
    values = {}
    for (section, name), key in ini_keys.items():  # each key before its aliases
        raw = parser.get(section, name, fallback=None)
        if raw is not None and key.field not in values:
            values[key.field] = _parse(key, raw, f"[{section}] {name}")
    return _updated(default_config(resolved), values)


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


def _write_table(path: Path, config: ExperimentConfig, columns: tuple[str, ...],
                 rows: list[tuple]) -> Path:
    lines = [f"# config-hash: {config_hash(config)}", f"# columns: {' '.join(columns)}"]
    lines.extend(" ".join(format_value(float(value)) for value in row) for row in rows)
    _write_atomic(path, "\n".join(lines) + "\n")
    _validate_table(path, columns)
    return path


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


@contextlib.contextmanager
def _computable(config: ExperimentConfig):
    """Report a model or steady bound that overflows or degenerates as a usage error."""
    try:
        yield
    except (ArithmeticError, ValueError) as exc:
        raise _UsageError(f"cannot compute the bounds at sigma_eta {config.sigma_eta!r} "
                          f"({type(exc).__name__}: {exc}).") from exc


def _sweep(config: ExperimentConfig, alpha: float) -> list[SteadyStateReport]:
    """Steady reports over the SNR grid, equal to ``performance_ratios`` of each point.

    The points' stationary one-bit informations come from one array
    quadrature, and each report is built from its point's value.
    """
    with _computable(config):
        models = [model_for_snr(alpha, snr_db, config.sigma_eta) for snr_db in _snr_grid(config)]
        fims = expected_fq_batch(np.zeros(len(models)), [stationary_variance(m) for m in models],
                                 config.sigma_eta, config.quadrature)
        return [_report(model, fim) for model, fim in zip(models, fims.tolist())]


def run_fig1(config: ExperimentConfig) -> Path:
    """Write the one-bit smoothing-loss curve over the SNR grid.

    Columns: ``snr_db rho_sl_db``. Uses the first configured alpha.
    """
    rows = _sweep(config, config.alphas[0])
    return _write_table(Path(config.output_path), config, ("snr_db", "rho_sl_db"),
                        [(r.snr_db, r.rho_sl_db) for r in rows])


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
            paths.append(_write_table(out_dir / f"{kind}_alpha_{alpha!r}.txt", config,
                                      ("snr_db", f"{kind}_db"),
                                      [(r.snr_db, getter(r)) for r in rows]))
    return paths


def run_ratios(config: ExperimentConfig) -> Path:
    """Write the full steady-state report table for the first configured alpha."""
    rows = _sweep(config, config.alphas[0])
    return _write_table(Path(config.output_path), config, _RATIO_COLUMNS,
                        [tuple(getattr(r, name) for name in _RATIO_COLUMNS) for r in rows])


def _mse_model(config: ExperimentConfig) -> GaussMarkovModel:
    alpha, snr_db = config.alphas[0], config.snr_min_db
    if config.sigma0 is None:
        return model_for_snr(alpha, snr_db, config.sigma_eta)
    return GaussMarkovModel(alpha=alpha, sigma_z=snr_to_sigma_z(alpha, snr_db, config.sigma_eta),
                            sigma_eta=config.sigma_eta, sigma0=config.sigma0, mu0=config.mu0)


def run_mse_validate(config: ExperimentConfig) -> tuple[Path, int]:
    """Monte Carlo bound validation for both channels.

    Evaluates at ``snr_min_db`` with the first configured alpha. Writes a
    report whose rows are individual checks with PASS/FAIL/SKIPPED status
    (statistical checks are SKIPPED with a single trial) and returns the
    written path with the number of failures.
    """
    spec = config.quadrature
    with _computable(config):
        model = _mse_model(config)
        burn = burn_in_blocks(model, config.horizon)
        if not config.horizon > burn + config.delta:
            raise _UsageError(f"horizon {config.horizon} too short for burn-in {burn} "
                              f"plus delta {config.delta}.")
        fim = steady_expected_fim(model, MeasurementChannel.UNQUANTIZED, spec)
        j_unq = quadratic_filter_root(model, fim)
        kappa_unq = quadratic_gain_root(model, fim)
        if not (math.isfinite(j_unq) and math.isfinite(kappa_unq)):
            raise ArithmeticError(f"steady information {j_unq!r}, smoothing gain {kappa_unq!r}")
        riccati_rel = abs(kalman_steady_variance(model) * j_unq - 1.0)
        rts_rel = abs(rts_steady_variance(model) * (j_unq + kappa_unq) - 1.0)
    checks: list[tuple[str, str, str]] = []

    def add(name: str, passed: bool | None, detail: str) -> None:
        status = "SKIPPED" if passed is None else ("PASS" if passed else "FAIL")
        checks.append((name, status, detail))

    add("riccati variance equals inverse filter information", riccati_rel <= 1e-9,
        f"relative error {riccati_rel:.3e}, tolerance 1e-09")
    add("rts variance equals inverse smoothing information", rts_rel <= 1e-6,
        f"relative error {rts_rel:.3e}, tolerance 1e-06")

    reports = [
        monte_carlo_mse(model, MeasurementChannel.UNQUANTIZED, "kalman", config.seed,
                        config.trials, config.horizon, config.delta, spec=spec),
        monte_carlo_mse(model, MeasurementChannel.ONE_BIT, "grid", config.seed,
                        config.trials, config.horizon, spec=spec),
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


def run_selftest() -> tuple[str, int]:
    """Analytic oracle checks for the information recursions.

    Returns
    -------
    (str, int)
        Printable report and the number of failed checks.
    """
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
    unit_fim = steady_expected_fim(unit, MeasurementChannel.UNQUANTIZED)
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    check("golden-ratio filtering fixed point", quadratic_filter_root(unit, unit_fim), phi, 1e-9)
    check("golden-ratio smoothing gain", quadratic_gain_root(unit, unit_fim), phi - 1.0, 1e-9)

    pred_model = GaussMarkovModel(alpha=0.9, sigma_z=1.0, sigma_eta=1.0, sigma0=1.0)
    filtered = filter_bim_sequence(pred_model, MeasurementChannel.UNQUANTIZED, 5)
    predicted = predict_bim(pred_model, filtered, 400)
    check("prediction information limit (1 - alpha^2) / sigma_z^2",
          float(predicted.values[-1]),
          (1.0 - pred_model.alpha**2) / pred_model.sigma_z**2, 1e-9)

    sigma_eta = 1.0
    measured_peak = 1.0 / (2.0 * math.pi * sigma_eta**2
                           * float(q_function(0.0)) * float(q_function(-0.0)))
    library_peak = float(fq(0.0, sigma_eta))
    expected_peak = 2.0 / (math.pi * sigma_eta**2)
    check("one-bit information peak from the tail function", measured_peak, expected_peak, 1e-12)
    check("one-bit information peak from the library", library_peak, expected_peak, 1e-12)

    # The RTS variances do not depend on the data, so one all-zero trial
    # suffices.
    batch = TrajectoryBatch(np.zeros((1, 31)), np.zeros((1, 30)))
    worst = 0.0
    for alpha in (0.5, 0.9, 0.99):
        for sigma_z in (0.5, 1.0, 2.0):
            for s_eta in (0.5, 1.0, 2.0):
                model = GaussMarkovModel(alpha=alpha, sigma_z=sigma_z,
                                         sigma_eta=s_eta, sigma0=1.0)
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


def _wrote(*paths: Path) -> int:
    for path in paths:
        print(f"wrote {path}")
    return 0


def _exit_code(failures: int) -> int:
    return 0 if failures == 0 else min(2 + failures, 125)


def _main_mse_validate(config: ExperimentConfig) -> int:
    path, failures = run_mse_validate(config)
    print(Path(path).read_text(), end="")
    _wrote(path)
    return _exit_code(failures)


def _main_selftest(config: ExperimentConfig) -> int:
    text, failures = run_selftest()
    print(text)
    if config.output_path:
        _write_atomic(Path(config.output_path), text + "\n")
    return _exit_code(failures)


class _Experiment(NamedTuple):
    """One experiment: its defaults over ``_COMMON_DEFAULTS``, the fields it
    reads, and its runner, which prints and returns the exit code."""

    defaults: dict[str, Any]
    reads: frozenset[str]
    run: Callable[[ExperimentConfig], int]
    one_alpha: bool = False  # reads only alphas[0], so exactly one is allowed


_SWEEP_READS = frozenset({"alphas", "sigma_eta", "snr_min_db", "snr_max_db", "snr_step_db",
                          "rule", "nodes", "half_width_sigmas", "output_path"})
_SINGLE_POINT = dict(snr_min_db=-10.0, snr_max_db=10.0, snr_step_db=20.0)

# The runners look the run_* functions up when called, so that tests and the
# benchmark can rebind them on the module.
_EXPERIMENTS = {
    "fig1": _Experiment(dict(output_path="fig1_rho_sl.txt"), _SWEEP_READS,
                        lambda config: _wrote(run_fig1(config)), one_alpha=True),
    "fig2": _Experiment(dict(alphas=(0.9, 0.999, 0.99999), output_path="fig2"), _SWEEP_READS,
                        lambda config: _wrote(*run_fig2(config))),
    "ratios": _Experiment(dict(output_path="ratios.txt"), _SWEEP_READS,
                          lambda config: _wrote(run_ratios(config)), one_alpha=True),
    "mse-validate": _Experiment(
        dict(alphas=(0.999,), sigma0=None, output_path="mse_validate.txt", **_SINGLE_POINT),
        _SWEEP_READS - {"snr_max_db", "snr_step_db"}
        | {"sigma0", "mu0", "seed", "trials", "horizon", "delta"},
        _main_mse_validate, one_alpha=True),
    "selftest": _Experiment(dict(alphas=(0.999,), output_path="", **_SINGLE_POINT),
                            frozenset({"output_path"}), _main_selftest),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def _check_reads(config: ExperimentConfig) -> None:
    """Reject a key the experiment does not read unless it holds the default."""
    record = _EXPERIMENTS[config.experiment]
    default = default_config(config.experiment)
    for key in _KEYS:
        if key.field not in record.reads:
            value, fixed = (key.format(_value(c, key)) for c in (config, default))
            if value != fixed:
                raise _UsageError(f"{config.experiment} does not read {key.flag} "
                                  f"([{key.section}] {key.key}); leave it at {fixed}.")
    if record.one_alpha and len(config.alphas) != 1:
        raise _UsageError(f"{config.experiment} expects exactly one alpha.")


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
        for key in _KEYS:
            sp.add_argument(key.flag, dest=key.field, help=key.help)
            for alias in key.aliases:
                if alias.startswith("--"):
                    sp.add_argument(alias, dest=key.field, help=argparse.SUPPRESS)
    return parser


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
        config = _updated(config, {key.field: _parse(key, raw, key.flag) for key in _KEYS
                                   if (raw := getattr(args, key.field)) is not None})
        _check_reads(config)
        return _EXPERIMENTS[config.experiment].run(config)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
