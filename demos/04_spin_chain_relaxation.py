#!/usr/bin/env python3
"""Spin-chain magnetization relaxation.

A Heisenberg chain in a strong z field starts fully polarized against the
field and relaxes through a single thermal reservoir on the first site.
The magnetization settles at a value indistinguishable from the thermal
average, yet the steady state itself is measurably different from the
Gibbs state: the ground population matches closely (it dominates every
average) while sparsely occupied levels sit far from their thermal values
in relative terms.

N = 4 keeps this demo to a few seconds; N = 6 reproduces the full-size
run (about 5 s on one core, nearly all of it propagation: the
matrix-free steady-state solve takes 0.1 s). The steady and thermal <M> are read from the Gibbs
deviation report of the one steady stage, `spinchain.chain_steady_state`,
never from the trajectory endpoint. The CLI runs the same experiment from
a config file, and `ule steady` runs only its steady stage (its steady.csv
equals fig1b.csv):

    ule spinchain --config demos/chain_n6.cfg --outdir out/
    ule steady    --config demos/chain_n6.cfg --outdir out/

The chain runs without the Lamb shift, as the reference run does;
SpinChainSpec(lamb_shift=QuadratureSpec()) adds it, and so does
`ignore_lamb_shift = false` in the config, with its `rtol` and `atol`.
"""

from ule import SpinChainSpec, run_relaxation
from ule.io import write_csv

spec = SpinChainSpec(N=4, B_z=8.0, T1=2.0, gamma1=0.1, gamma2=0.0, Lambda_c=100.0)
print(f"chain: N = {spec.N}, B_z = {spec.B_z}, T1 = {spec.T1}, "
      f"gamma1 = {spec.gamma1}, Lamb shift on = {spec.lamb_shift is not None}")

result = run_relaxation(spec, samples=200, tol=1e-8)

traj = result.trajectory
write_csv("chain_magnetization.csv", ["t", "M"],
          zip(traj.times.tolist(), traj.observables["M"].tolist()))
write_csv("chain_populations.csv", ["n", "E_n", "rho_nn", "rho_nn_th"],
          result.deviation.rows())
print("wrote chain_magnetization.csv, chain_populations.csv")

m = traj.observables["M"]
print("\n  t        <M>")
for k in range(0, len(m), len(m) // 10):
    print(f"{traj.times[k]:8.1f} {m[k]:+.6f}")

dev = result.deviation
print(f"\nsteady <M>          = {dev.observable_steady:+.8f}")
print(f"thermal <M>         = {dev.observable_thermal:+.8f}")
print(f"difference          = {dev.observable_gap:.2e}")
print(f"trace distance      = {dev.trace_distance:.4e}")
print(f"ground level gap    = {dev.rho11_gap:.2e} absolute, {dev.rho11_rel_gap:.2e} relative")
print(f"worst level gap     = {dev.max_abs_diag_deviation:.2e} absolute, "
      f"{dev.max_rel_diag_deviation:.2e} relative")
print(f"relative-gap ratio  = {dev.max_rel_diag_deviation / dev.rho11_rel_gap:.1f}")
print(f"\naverages agree while the state does not: the ground level carries "
      f"{dev.diag_thermal[0]:.1%} of the weight")
