#!/usr/bin/env python3
"""The central quantitative statement: applying the generator to the Gibbs
state of the system Hamiltonian does NOT give zero.

The residual is computed two ways per term:
  * directly, by plugging the thermal state into the generator, and
  * through the closed Bohr-frequency double sums built from the
    detailed-balance relations of the bath,
which must agree to high precision. The conventional (secular) master
equation, the rotating-wave truncation that keeps only matched Bohr
frequencies, is applied to the same Gibbs state as a control: its
dissipator and Lamb-shift commutator vanish at rounding scale.

Writes residuals.csv.
"""

import numpy as np

from ule import (
    BathSpec,
    NoiseChannel,
    QuadratureSpec,
    build_liouvillian,
    eigendecompose,
    gibbs_deviation,
    gibbs_residual_report,
    steady_state,
    three_level_baseline,
)
from ule.io import write_csv

system = three_level_baseline()
eig = eigendecompose(system.hamiltonian)
bath = BathSpec(temperature=2.0, coupling=0.1, cutoff=100.0)
channel = NoiseChannel(coupling_op=system.coupling_op, bath=bath)

print("three-level system: energies", eig.energies)
print("coupling operator: all-ones matrix (every Bohr pair is active)")

# lamb_shift=None would leave the Lamb-shift entries at zero
report = gibbs_residual_report(eig, channel, lamb_shift=QuadratureSpec())
print("\nGibbs residual norms (units of gamma):")
for name, value in report.rows():
    print(f"  {name:26s} {value:.6e}")
write_csv("residuals.csv", ["quantity", "norm"], report.rows())
print("wrote residuals.csv")

print(f"\ndissipator routes agree to {report.dissipator_mismatch:.2e} "
      f"(tolerance {report.dissipator_mismatch_tol:.2e})")
print(f"Lamb-shift routes agree to {report.lambshift_mismatch:.2e} "
      f"(tolerance {report.lambshift_mismatch_tol:.2e})")
print("secular generator on the Gibbs state (dissipator, Lamb commutator): "
      f"{report.secular_dissipator_norm:.1e}, {report.secular_lambshift_norm:.1e}")

# the same non-stationarity seen from the steady-state side
sop = build_liouvillian(eig, [channel], lamb_shift=None)
rho_ss = steady_state(sop).state
dev = gibbs_deviation(rho_ss, eig, bath.beta)
print(f"\nsteady state vs Gibbs: trace distance {dev.trace_distance:.4e}")
print("level populations (steady vs thermal):")
for n, e_n, rho_nn, rho_nn_th in dev.rows():
    print(f"  level {n}: E = {e_n:4.1f}   {rho_nn:.6f}   {rho_nn_th:.6f}")
