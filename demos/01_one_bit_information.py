"""
How much does a single sign bit know?
=====================================

The Fisher information of a one-bit measurement r = sign(theta + eta),
eta ~ N(0, sigma_eta^2), quantifies what the sign alone reveals about
theta. This script walks through its shape and through the expectation
that feeds the bound recursions.
"""
import math

import numpy as np

from bitbounds import QuadratureRule, QuadratureSpec, StateMoments, expected_fq, fq

# The pointwise information F_q(theta) peaks at theta = 0, where the
# sign is maximally undecided, and decays once |theta| dominates the
# noise: a sign that is already certain carries no new information.
sigma_eta = 1.0
print("pointwise one-bit information, sigma_eta = 1")
print(f"{'theta':>8} {'F_q(theta)':>14}")
for theta in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
    print(f"{theta:8.2f} {fq(theta, sigma_eta):14.9f}")

# At the origin the information equals 2 / (pi sigma_eta^2): the famous
# 2/pi factor, a -1.96 dB penalty relative to the unquantized
# information 1 / sigma_eta^2.
peak = fq(0.0, sigma_eta)
print(f"\npeak F_q(0)          = {peak:.12f}")
print(f"2 / pi               = {2.0 / math.pi:.12f}")
print(f"penalty in dB        = {10.0 * math.log10(peak * sigma_eta**2):.3f}")

# Only the ratio theta / sigma_eta matters, up to an overall 1/sigma^2
# scale. Doubling the noise and the displacement together divides the
# information by four.
print(f"\nfq(1, 1)             = {fq(1.0, 1.0):.12f}")
print(f"4 fq(2, 2)           = {4.0 * fq(2.0, 2.0):.12f}")

# The recursions need E[F_q(theta)] with theta drawn from the state
# marginal. A narrow marginal sees the peak value; a wide one averages
# over the flat tails and keeps almost nothing.
print("\nexpected information under N(0, v), sigma_eta = 1")
print(f"{'v':>10} {'E[F_q]':>14} {'vs peak':>9}")
for variance in (1e-4, 1e-2, 1.0, 1e2, 1e4):
    value = expected_fq(StateMoments(0.0, variance), sigma_eta)
    print(f"{variance:10.0e} {value:14.9f} {value / peak:9.4f}")

# The default 128-node Gauss-Hermite rule and a brute-force trapezoid
# rule agree to many digits; swap rules freely when cross-checking.
gh = expected_fq(StateMoments(0.3, 2.0), sigma_eta)
tz = expected_fq(
    StateMoments(0.3, 2.0), sigma_eta,
    QuadratureSpec(rule=QuadratureRule.TRAPEZOID, nodes=20_000, half_width_sigmas=10.0),
)
print(f"\nGauss-Hermite        = {gh:.15f}")
print(f"trapezoid            = {tz:.15f}")
print(f"relative difference  = {abs(gh - tz) / tz:.2e}")
