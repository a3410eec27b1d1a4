"""
Do real estimators touch the bounds?
====================================

A lower bound earns trust in two ways: an optimal estimator should sit
on it, and a strong suboptimal one must never cross it. Both checks run
here on simulated data.
"""
import numpy as np

from bitbounds import (
    GridSpec,
    MeasurementChannel,
    model_for_snr,
    monte_carlo_mse,
    simulate,
)

model = model_for_snr(0.99, -5.0)
seed, trials, horizon = 7, 400, 200

# The Kalman filter and RTS smoother are the exact conditional means for
# the unquantized channel, so their mean square errors should match the
# inverted informations within Monte Carlo noise.
report = monte_carlo_mse(model, MeasurementChannel.UNQUANTIZED, "kalman",
                         seed=seed, num_trials=trials, horizon=horizon, lag=25)
print("ideal channel, exact estimators (MSE vs bound, steady state)")
print(f"{'task':>10} {'mse':>10} {'bound':>10} {'mse/bound':>10}")
print(f"{'filter':>10} {report.steady_filter_mse:10.5f} "
      f"{report.steady_filter_bound:10.5f} "
      f"{report.steady_filter_mse / report.steady_filter_bound:10.4f}")
print(f"{'lag-25':>10} {report.steady_smooth_mse:10.5f} "
      f"{report.steady_smooth_bound:10.5f} "
      f"{report.steady_smooth_mse / report.steady_smooth_bound:10.4f}")

# No closed form exists for the one-bit posterior, so a point-mass grid
# filter plays the reference estimator. Its MSE stays above the one-bit
# bound; the gap is the bound's (small) looseness plus discretization.
report = monte_carlo_mse(model, MeasurementChannel.ONE_BIT, "grid",
                         seed=seed, num_trials=trials, horizon=horizon,
                         grid=GridSpec(num_points=1500))
print("\none-bit channel, grid estimators")
print(f"{'task':>10} {'mse':>10} {'bound':>10} {'mse/bound':>10}")
print(f"{'filter':>10} {report.steady_filter_mse:10.5f} "
      f"{report.steady_filter_bound:10.5f} "
      f"{report.steady_filter_mse / report.steady_filter_bound:10.4f}")
print(f"{'smoother':>10} {report.steady_smooth_mse:10.5f} "
      f"{report.steady_smooth_bound:10.5f} "
      f"{report.steady_smooth_mse / report.steady_smooth_bound:10.4f}")

# Simulation batches are reproducible from a single root seed. A batch
# holds the unquantized measurements y_k, and both receivers read it: the
# Kalman filter reads y_k, the grid its sign (y_k >= 0 is +1). So the two
# channels are compared on common random numbers.
a = simulate(model, seed, 3, 5)
b = simulate(model, seed, 3, 5)
print("\nsame seed, same batch:", bool(np.array_equal(a.states, b.states)
                                   and np.array_equal(a.observations, b.observations)))
print("row 0 measurements:   ", np.round(a.observations[0], 2))
print("row 0 signs:          ", np.where(a.observations[0] >= 0.0, 1, -1))
