"""
Filtering, prediction, and smoothing bounds over a horizon
==========================================================

The Bayesian information of theta_k under a Gauss-Markov model obeys a
one-block recursion. Its inverse lower-bounds the mean square error of
any estimator. This script runs the three recursions on one model and
reads the resulting bounds.
"""
from bitbounds import (
    GaussMarkovModel,
    MeasurementChannel,
    filter_bim_sequence,
    per_block_fims,
    predict_bim,
    smooth_bim_compact,
    smoothing_gain,
)

model = GaussMarkovModel(alpha=0.95, sigma_z=0.4, sigma_eta=1.0, sigma0=1.0)
horizon = 12

# The filtering information J_{k|k} grows from the prior value
# 1/sigma0^2 toward a steady state; one-bit measurements grow it more
# slowly than ideal ones on the same model.
ideal = filter_bim_sequence(model, MeasurementChannel.UNQUANTIZED, horizon)
one_bit = filter_bim_sequence(model, MeasurementChannel.ONE_BIT, horizon)
print("filtering bound (MSE floor) per block")
print(f"{'k':>3} {'ideal':>12} {'one-bit':>12}")
for k in (0, 1, 2, 4, 8, 12):
    print(f"{k:3d} {ideal.variances[k]:12.6f} {one_bit.variances[k]:12.6f}")

# Prediction starts from the last filtering information and loses
# information every unmeasured block, decaying to (1 - alpha^2) /
# sigma_z^2, the information of the stationary marginal alone.
predicted = predict_bim(model, ideal, num_steps=30)
limit = (1.0 - model.alpha**2) / model.sigma_z**2
print("\nprediction information, steps ahead of the last measurement")
print(f"{'steps':>6} {'J':>12}")
for step in (0, 1, 5, 30):
    print(f"{step:6d} {predicted.values[step]:12.6f}")
print(f"stationary-marginal limit = {limit:.6f}")

# Smoothing conditions each block on the whole batch. The smoothed
# information is the filtered information plus a gain J_{l|K} - J_{l|l}
# with its own backward recursion; the gain is never negative, zero at the
# final block and largest deep in the interior.
fims = per_block_fims(model, MeasurementChannel.ONE_BIT, horizon)
gains = smoothing_gain(model, fims)
smoothed = smooth_bim_compact(model, MeasurementChannel.ONE_BIT, horizon)
print("\none-bit smoothing vs filtering")
print(f"{'l':>3} {'J_l|l':>12} {'gain':>12} {'J_l|K':>12}")
for l in (0, 4, 8, 11, 12):
    print(f"{l:3d} {one_bit.values[l]:12.6f} {gains[l]:12.6f} {smoothed.values[l]:12.6f}")

# A useful identity to remember: with alpha = sigma_z = sigma_eta =
# sigma0 = 1 the ideal filtering information walks through ratios of
# consecutive Fibonacci numbers and converges to the golden ratio.
unit = GaussMarkovModel(alpha=1.0, sigma_z=1.0, sigma_eta=1.0, sigma0=1.0)
seq = filter_bim_sequence(unit, MeasurementChannel.UNQUANTIZED, 6)
ratios = [f"{value:.6f}" for value in seq.values]
print("\nunit random walk, ideal channel:", " ".join(ratios))
print("golden ratio:                    1.618034")
