"""Acceptance suite.

Each test prints one PASS/FAIL line (run with -s or -v to see them all).
The random ensemble and the chain runs are shared per module so the whole
suite stays within its runtime budgets.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from oracles import jump_operator_bohr_sum, lamb_shift_bohr_sum, random_hermitian
from ule import (
    BathSpec,
    NoiseChannel,
    QuadratureSpec,
    SpinChainSpec,
    bohr_decompose,
    build_generator,
    build_jump_operator,
    build_lamb_shift,
    build_liouvillian,
    dissipator_on_gibbs_direct,
    dissipator_on_gibbs_formula,
    eigendecompose,
    f_table,
    gibbs_state,
    jump_spectral,
    lambshift_on_gibbs_direct,
    lambshift_on_gibbs_formula,
    liouvillian_gap,
    run_relaxation,
    secular_residuals,
    steady_state,
    steady_state_consistency,
    sweep_monotonicity,
    three_level_baseline,
    trace_distance,
    trend_sweep,
)
from ule.generator import lamb_shift_pairs

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
GAMMA = 0.1
CUTOFF = 100.0
QUAD = QuadratureSpec()

REFERENCE_CONFIG = """
N = 6
eta = 1.0
B_z = 8.0
T1 = 2.0
T2 = 1.0
gamma1 = 0.1
gamma2 = 0.0
Lambda_c = 100.0
omega0 = 2.0
ignore_lamb_shift = true
samples = 200
tol = 1e-8
"""


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def ensemble():
    """50 seeded random systems: d cycles 3..6, T uniform in [0.5, 8]."""
    rng = np.random.default_rng(2024)
    systems = []
    for trial in range(50):
        d = 3 + trial % 4
        t = float(rng.uniform(0.5, 8.0))
        h = random_hermitian(rng, d)
        x = random_hermitian(rng, d)
        bath = BathSpec(temperature=t, coupling=GAMMA, cutoff=CUTOFF)
        eig = eigendecompose(h)
        systems.append(dict(
            eig=eig,
            bohr=bohr_decompose(x, eig),
            channel=NoiseChannel(coupling_op=x, bath=bath),
            bath=bath,
            rho_th=gibbs_state(eig, bath.beta),
        ))
    return systems


@pytest.fixture(scope="module")
def chain_cli_runs(tmp_path_factory):
    """Two consecutive CLI runs of the N = 6 experiment (shared by 7 and 9)."""
    base = tmp_path_factory.mktemp("chain")
    config = base / "chain_n6.cfg"
    config.write_text(REFERENCE_CONFIG)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    runs = []
    for label in ("run1", "run2"):
        outdir = base / label
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ule.cli", "spinchain",
             "--config", str(config), "--outdir", str(outdir)],
            env=env, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stderr
        runs.append(dict(outdir=outdir, wall=wall))
    return runs


def test_criterion_1_dissipator_identity(ensemble):
    t0 = time.perf_counter()
    worst = 0.0
    for sys_ in ensemble:
        jump = build_jump_operator(sys_["eig"], sys_["channel"])
        direct = dissipator_on_gibbs_direct(jump, sys_["rho_th"])
        formula = dissipator_on_gibbs_formula(
            sys_["bohr"], sys_["bath"], sys_["bath"].beta, sys_["rho_th"])
        rel = np.linalg.norm(direct - formula) / np.linalg.norm(direct)
        worst = max(worst, rel)
    wall = time.perf_counter() - t0
    report("criterion 1 (dissipator two-route identity)",
           worst <= 1e-10 and wall < 30.0,
           f"max relative mismatch {worst:.3e} over 50 systems in {wall:.1f} s")


def test_criterion_2_lambshift_identity(ensemble):
    t0 = time.perf_counter()
    worst = 0.0
    for sys_ in ensemble:
        lam = build_lamb_shift(sys_["eig"], sys_["channel"], QUAD, bohr=sys_["bohr"])
        direct = lambshift_on_gibbs_direct(lam, sys_["rho_th"])
        formula = lambshift_on_gibbs_formula(
            sys_["bohr"], sys_["bath"], QUAD, sys_["bath"].beta, sys_["rho_th"])
        rel = np.linalg.norm(direct - formula) / np.linalg.norm(direct)
        worst = max(worst, rel)
    wall = time.perf_counter() - t0
    report("criterion 2 (Lamb-shift two-route identity)",
           worst <= 1e-6 and wall < 300.0,
           f"max relative mismatch {worst:.3e} over 50 systems in {wall:.1f} s")


def test_criterion_3_secular_vanishing(ensemble):
    worst8 = worst9 = 0.0
    for sys_ in ensemble:
        r8, r9 = secular_residuals(sys_["bohr"], sys_["bath"], QUAD,
                                   sys_["bath"].beta, sys_["rho_th"])
        worst8 = max(worst8, r8)
        worst9 = max(worst9, r9)
    report("criterion 3 (secular restrictions vanish)",
           worst8 <= 1e-12 and worst9 <= 1e-12,
           f"max dissipator residual {worst8:.3e}, Lamb residual {worst9:.3e}")


def test_criterion_4_gibbs_non_stationarity():
    system = three_level_baseline()
    eig = eigendecompose(system.hamiltonian)
    bath = BathSpec(temperature=2.0, coupling=GAMMA, cutoff=CUTOFF)
    ch = NoiseChannel(coupling_op=system.coupling_op, bath=bath)
    rho_th = gibbs_state(eig, bath.beta)
    jump = build_jump_operator(eig, ch)
    baseline_norm = np.linalg.norm(dissipator_on_gibbs_direct(jump, rho_th))
    sop = build_liouvillian(build_generator(eig, ch, include_lamb_shift=False))
    baseline_dist = trace_distance(steady_state(sop).state, rho_th)

    eig_q = eigendecompose(np.diag([-0.5, 0.5]).astype(complex))
    ch_q = NoiseChannel(coupling_op=np.array([[0, 1], [1, 0]], dtype=complex), bath=bath)
    rho_th_q = gibbs_state(eig_q, bath.beta)
    control_norm = np.linalg.norm(
        dissipator_on_gibbs_direct(build_jump_operator(eig_q, ch_q), rho_th_q))
    sop_q = build_liouvillian(build_generator(eig_q, ch_q))
    control_dist = trace_distance(steady_state(sop_q).state, rho_th_q)

    ok = (baseline_norm > 1e-6 * GAMMA and baseline_dist > 1e-4
          and control_norm <= 1e-9 and control_dist <= 1e-9)
    report("criterion 4 (Gibbs not stationary; thermal control clean)", ok,
           f"baseline norm {baseline_norm:.3e} dist {baseline_dist:.3e}; "
           f"control norm {control_norm:.3e} dist {control_dist:.3e}")


def test_criterion_5_generator_cross_checks(ensemble):
    worst_l = worst_lam = worst_herm = 0.0
    for sys_ in ensemble:
        l_elem = build_jump_operator(sys_["eig"], sys_["channel"])
        l_bohr = jump_operator_bohr_sum(sys_["bohr"], sys_["bath"], jump_spectral)
        worst_l = max(worst_l, np.linalg.norm(l_elem - l_bohr)
                      / max(np.linalg.norm(l_elem), 1.0))
        lam3 = build_lamb_shift(sys_["eig"], sys_["channel"], QUAD, bohr=sys_["bohr"])
        lam7 = lamb_shift_bohr_sum(
            sys_["bohr"], f_table(sys_["bath"], lamb_shift_pairs(sys_["bohr"]), QUAD))
        norm = np.linalg.norm(lam3)
        worst_lam = max(worst_lam, np.linalg.norm(lam3 - lam7) / norm)
        worst_herm = max(worst_herm,
                         np.linalg.norm(lam3 - lam3.conj().T) / norm)
    ok = worst_l <= 1e-12 and worst_lam <= 1e-10 and worst_herm <= 1e-8
    report("criterion 5 (generator cross-checks)", ok,
           f"jump forms {worst_l:.3e}, Lamb forms {worst_lam:.3e}, "
           f"hermiticity {worst_herm:.3e}")


def test_criterion_6_dynamics_contracts():
    bath = BathSpec(temperature=2.0, coupling=GAMMA, cutoff=CUTOFF)
    rng = np.random.default_rng(6)
    runs = []

    eig_q = eigendecompose(np.diag([-0.5, 0.5]).astype(complex))
    ch_q = NoiseChannel(coupling_op=np.array([[0, 1], [1, 0]], dtype=complex), bath=bath)
    sop_q = build_liouvillian(build_generator(eig_q, ch_q, include_lamb_shift=False))
    eig_3 = eigendecompose(np.diag([0.0, 1.0, 3.0]).astype(complex))
    ch_3 = NoiseChannel(coupling_op=random_hermitian(rng, 3), bath=bath)
    sop_3 = build_liouvillian(build_generator(eig_3, ch_3, include_lamb_shift=False))

    from ule import propagate
    worst_drift = worst_eig = 0.0
    for sop, rho0 in ((sop_q, eig_q.projector(1)), (sop_3, eig_3.projector(2))):
        traj = propagate(sop, rho0, 80.0, np.linspace(0, 80, 41), tol=1e-8)
        worst_drift = max(worst_drift, traj.stats["max_trace_drift"])
        worst_eig = min(worst_eig, traj.stats["min_sample_eig"])

    dist_q = steady_state_consistency(sop_q, eig_q.projector(1),
                                      25.0 / liouvillian_gap(sop_q), tol=1e-9)
    dist_3 = steady_state_consistency(sop_3, eig_3.projector(2),
                                      25.0 / liouvillian_gap(sop_3), tol=1e-9)
    ok = (worst_drift <= 1e-10 and worst_eig >= -1e-8
          and dist_q <= 1e-6 and dist_3 <= 1e-6)
    report("criterion 6 (dynamics contracts)", ok,
           f"drift {worst_drift:.3e}, min eig {worst_eig:.3e}, "
           f"null-vs-long-time {dist_q:.3e} / {dist_3:.3e}")


def test_criterion_7_chain_structural_reproduction(chain_cli_runs):
    summary = json.loads((chain_cli_runs[0]["outdir"] / "summary.json").read_text())
    wall = chain_cli_runs[0]["wall"]
    ok_n6 = (wall < 600.0
             and summary["M_gap"] < 0.05
             and summary["max_rel_diag_deviation"] > 10.0 * summary["rho11_rel_gap"]
             and summary["trace_distance"] > 1e-3
             and summary["kernel_dimension"] == 1
             and summary["max_trace_drift"] <= 1e-10
             and summary["min_sample_eig"] >= -1e-8)

    result4 = run_relaxation(SpinChainSpec(N=4), samples=100, tol=1e-8)
    dev4 = result4.deviation
    ok_n4 = (abs(result4.magnetization_steady - result4.magnetization_thermal) < 0.05
             and dev4.max_rel_diag_deviation > 10.0 * dev4.rho11_rel_gap
             and dev4.trace_distance > 1e-3)
    report("criterion 7 (chain structural reproduction)", ok_n6 and ok_n4,
           f"N=6 in {wall:.0f} s: M gap {summary['M_gap']:.2e}, "
           f"trace distance {summary['trace_distance']:.2e}, rel-deviation ratio "
           f"{summary['max_rel_diag_deviation'] / summary['rho11_rel_gap']:.1f}; "
           f"N=4 trace distance {dev4.trace_distance:.2e}, ratio "
           f"{dev4.max_rel_diag_deviation / dev4.rho11_rel_gap:.1f}")


def test_criterion_8_trend_reproduction():
    result = trend_sweep(three_level_baseline(), [2.0, 4.0, 8.0], [0.1, 0.05, 0.01])
    ok, violations = sweep_monotonicity(result)
    ok = ok and not result.errors
    report("criterion 8 (temperature/coupling trend)", ok,
           "monotone over the 3x3 grid" if ok else f"violations: {violations}")


def test_criterion_9_byte_determinism(chain_cli_runs):
    identical = True
    details = []
    for name in ("fig1a.csv", "fig1b.csv", "summary.json"):
        a = (chain_cli_runs[0]["outdir"] / name).read_bytes()
        b = (chain_cli_runs[1]["outdir"] / name).read_bytes()
        same = a == b
        identical = identical and same
        details.append(f"{name}: {'identical' if same else 'DIFFERS'}")
    report("criterion 9 (byte-identical reruns)", identical, ", ".join(details))
