"""
What does the sign bit cost at steady state?
============================================

Once the recursions saturate, a single number per channel summarizes
each task. Comparing them in dB answers the design question: when is a
one-bit front end good enough, and when does smoothing buy back the
loss?
"""
import math

from bitbounds import (
    MeasurementChannel,
    model_for_snr,
    performance_ratios,
    steady_expected_fim,
    steady_lag_gain,
)

# Sweep the SNR (stationary state variance over noise variance, in dB)
# for a slowly varying state. Three ratios are reported:
#   rho_f  : one-bit filtering vs ideal filtering
#   rho_sl : one-bit smoothing vs ideal smoothing
#   rho_s  : one-bit smoothing vs ideal *filtering*
alpha = 0.99999
print(f"alpha = {alpha}")
print(f"{'snr_db':>7} {'rho_f':>8} {'rho_sl':>8} {'rho_s':>8}")
for snr_db in (-40.0, -30.0, -20.0, -10.0, 0.0, 10.0):
    r = performance_ratios(model_for_snr(alpha, snr_db))
    print(f"{snr_db:7.1f} {r.rho_f_db:8.3f} {r.rho_sl_db:8.3f} {r.rho_s_db:8.3f}")

# Two observations worth pausing on. First, the filtering loss rho_f
# stays below one dB at low SNR: a slow state lets the filter average
# many sign bits, recovering most of the 2/pi per-sample penalty.
# Second, rho_s is positive over a wide band: one-bit measurements plus
# smoothing beat the ideal-measurement filter outright.
r = performance_ratios(model_for_snr(alpha, -15.0))
print(f"\nat -15 dB: one-bit smoothing beats ideal filtering by {r.rho_s_db:+.2f} dB")

# The advantage needs correlation to work with. Faster states (smaller
# alpha) give future measurements less to say about the past.
print(f"\n{'alpha':>8} {'rho_s at -30 dB':>16}")
for a in (0.9, 0.999, 0.99999):
    print(f"{a:8.5f} {performance_ratios(model_for_snr(a, -30.0)).rho_s_db:16.4f}")

# How much lag does the smoother need? The lag-gain curve saturates
# geometrically; a handful of time constants captures nearly all of the
# long-lag limit.
model = model_for_snr(0.999, -10.0)
full = performance_ratios(model).kappa_q
print(f"\nsmoothing gain vs lag, alpha = 0.999, snr = -10 dB (limit {full:.4f})")
print(f"{'lag':>6} {'gain':>10} {'fraction':>9}")
fim = steady_expected_fim(model, MeasurementChannel.ONE_BIT)
for lag in (1, 10, 100, 1000, 5000):
    gain = steady_lag_gain(model, fim, lag)
    print(f"{lag:6d} {gain:10.4f} {gain / full:9.5f}")
