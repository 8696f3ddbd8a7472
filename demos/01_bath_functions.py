#!/usr/bin/env python3
"""Walk through the bath-side quantities: the jump-correlation amplitude
g(omega), its detailed-balance property, and the principal-value integral
f(E1, E2) that feeds the Lamb shift.

Writes bath_g.csv with the sampled g profile.
"""

import numpy as np

from ule import BathSpec, QuadratureSpec, f_values, jump_spectral, kms_check
from ule.io import write_csv

bath = BathSpec(temperature=2.0, coupling=0.1, cutoff=100.0)
print(f"bath: T = {bath.temperature}, gamma = {bath.coupling}, "
      f"cutoff = {bath.cutoff}, beta = {bath.beta}")

# ---------------------------------------------------------------------------
# g(omega): Ohmic with Gaussian cutoff and Bose weighting
# ---------------------------------------------------------------------------
print("\ng at a few frequencies:")
for w in (0.0, 1.0, -1.0, 8.0, -8.0, 200.0):
    print(f"  g({w:+7.1f}) = {jump_spectral(bath, w):.6e}")

print(f"\ng(0) equals sqrt(T)/(2 pi) = {np.sqrt(bath.temperature)/(2*np.pi):.6e}")

# detailed balance g(-w) = exp(-beta w / 2) g(w), checked over a log grid
samples = np.logspace(-3, np.log10(10 * bath.cutoff), 200)
print(f"max relative detailed-balance deviation: {kms_check(bath, samples):.3e}")

omega = np.linspace(-4 * bath.cutoff, 4 * bath.cutoff, 2001)
write_csv("bath_g.csv", ["omega", "g"],
          zip(omega.tolist(), jump_spectral(bath, omega).tolist()))
print("wrote bath_g.csv")

# ---------------------------------------------------------------------------
# f(E1, E2): principal value and swap symmetry
# ---------------------------------------------------------------------------
quad = QuadratureSpec()
val = f_values(bath, [1.0], [-1.0], quad)[0]
print(f"\nf(1, -1)   = {val:.10e}")

# the swap (E1, E2) -> (-E2, -E1) leaves the integrand unchanged; this
# symmetry is what makes the Lamb shift Hermitian
for e1, e2 in ((2.0, 0.5), (-1.5, 3.0)):
    a, b = f_values(bath, [e1, -e2], [e2, -e1], quad)
    print(f"f({e1}, {e2}) = {a:.10e}   swap partner = {b:.10e}")
