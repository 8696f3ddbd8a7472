#!/usr/bin/env python3
"""A single qubit coupled through sigma_x is the special case where the
master equation really does thermalize: every Bohr cross product vanishes,
so the Gibbs state is an exact steady state.

This is the control experiment against which the generic systems in the
later demos deviate.
"""

import numpy as np

from ule import (
    BathSpec,
    NoiseChannel,
    QuadratureSpec,
    build_lamb_shift,
    bohr_decompose,
    build_liouvillian,
    eigendecompose,
    gibbs_state,
    propagate,
    steady_state,
    trace_distance,
)
from ule.generator import lamb_shift_eigen

delta = 1.0
eig = eigendecompose(delta * np.diag([-0.5, 0.5]).astype(complex))
bath = BathSpec(temperature=2.0, coupling=0.1, cutoff=100.0)
channel = NoiseChannel(coupling_op=np.array([[0, 1], [1, 0]], dtype=complex), bath=bath)

print("Lamb shift (diagonal in the energy basis, so it cannot move the steady state):")
xe = bohr_decompose(channel.coupling_op, eig).coupling_eigen  # X in the eigenbasis
lam_eigen, _ = lamb_shift_eigen(eig, xe, bath)
print(np.round(build_lamb_shift(eig, lam_eigen).real, 6))

# the Lamb shift is one argument: the error target of its w-integral (this
# is the default), or None to leave it out
sop = build_liouvillian(eig, [channel], lamb_shift=QuadratureSpec())

# relax from the excited state and watch the population decay
rho0 = eig.projector(1)
times = np.linspace(0.0, 60.0, 13)
traj = propagate(sop, rho0, 60.0, times, tol=1e-10,
                 observables={"p_excited": eig.projector(1)})
print("\n  t      p_excited")
for t, p_e in zip(times, traj.observables["p_excited"]):
    print(f"{t:6.1f}   {p_e:.8f}")

report = steady_state(sop)
rho_th = gibbs_state(eig, bath.beta)
print(f"\nsteady state vs Gibbs trace distance: "
      f"{trace_distance(report.state, rho_th):.3e}")
print(f"kernel dimension: {report.kernel_dimension}, "
      f"residual: {report.residual:.3e}")
print(f"integrator trace drift: {traj.stats['max_trace_drift']:.3e}")
