from types import SimpleNamespace

import numpy as np
import pytest

from oracles import random_hermitian
from ule import (
    BathSpec,
    NoiseChannel,
    SteadyStateError,
    bohr_decompose,
    build_generator,
    build_liouvillian,
    build_secular_generator,
    eigendecompose,
    expectation,
    gibbs_populations,
    gibbs_state,
    jump_spectral,
    liouvillian_gap,
    propagate,
    steady_state,
    steady_state_consistency,
    trace_distance,
    unvec,
    vec,
)
from ule.dynamics import _null_space_svd
from ule.spinchain import SpinChainSpec, build_chain_superop

BATH = BathSpec(temperature=2.0, coupling=0.1, cutoff=100.0)


def qubit_liouvillian(delta=1.0, include_lamb_shift=False):
    eig = eigendecompose(delta * np.diag([-0.5, 0.5]).astype(complex))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    ch = NoiseChannel(coupling_op=x, bath=BATH)
    gen = build_generator(eig, ch, include_lamb_shift=include_lamb_shift)
    return eig, build_liouvillian(gen)


def three_level_channel():
    rng = np.random.default_rng(3)
    eig = eigendecompose(np.diag([0.0, 1.0, 3.0]).astype(complex))
    return eig, NoiseChannel(coupling_op=random_hermitian(rng, 3), bath=BATH)


def three_level_liouvillian():
    eig, ch = three_level_channel()
    gen = build_generator(eig, ch, include_lamb_shift=False)
    return eig, build_liouvillian(gen)


def test_eigenprojector_stationary_under_pure_commutator():
    eig = eigendecompose(np.diag([0.0, 1.0, 3.0]).astype(complex))
    sop = build_liouvillian(build_generator(eig, [], include_lamb_shift=False))
    rho0 = eig.projector(1)
    traj = propagate(sop, rho0, 5.0, np.linspace(0, 5.0, 11), tol=1e-10)
    for state in traj.states:
        assert np.linalg.norm(state - rho0) < 1e-9


def test_qubit_relaxation_matches_rate_equation():
    delta = 1.0
    eig, sop = qubit_liouvillian(delta)
    rho0 = eig.projector(1)  # excited
    times = np.linspace(0.0, 60.0, 40)
    traj = propagate(sop, rho0, 60.0, times, tol=1e-10)

    gamma_down = (2 * np.pi) ** 2 * BATH.coupling * jump_spectral(BATH, delta) ** 2
    gamma_up = (2 * np.pi) ** 2 * BATH.coupling * jump_spectral(BATH, -delta) ** 2
    rate = gamma_down + gamma_up
    p_inf = gamma_up / rate
    pops = np.array([
        float(np.real(eig.basis[:, 1].conj() @ s @ eig.basis[:, 1])) for s in traj.states])
    expected = p_inf + (1.0 - p_inf) * np.exp(-rate * times)
    assert np.allclose(pops, expected, atol=5e-8)
    assert np.all(np.diff(pops) < 1e-12)  # monotone decay
    p_th = gibbs_populations(eig, BATH.beta)
    assert pops[-1] == pytest.approx(p_th[1], abs=1e-6)


def test_trace_drift_and_positivity_tracking():
    _, sop = three_level_liouvillian()
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    traj = propagate(sop, rho0, 50.0, np.linspace(0, 50, 26), tol=1e-8)
    assert traj.stats["max_trace_drift"] <= 1e-10
    assert traj.stats["min_sample_eig"] >= -1e-8
    for state in traj.states:
        assert np.max(np.abs(state - state.conj().T)) <= 1e-12
        assert abs(np.trace(state).real - 1.0) <= 1e-10


def test_propagate_validates_inputs():
    _, sop = qubit_liouvillian()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        propagate(sop, rho0, -1.0, [0.0])
    with pytest.raises(ValueError):
        propagate(sop, rho0, 1.0, [0.0, 2.0])
    with pytest.raises(ValueError):
        propagate(sop, rho0, 1.0, [0.0], tol=0.0)


def test_propagate_observable_series():
    eig, sop = qubit_liouvillian()
    sz = np.diag([0.5, -0.5]).astype(complex)
    rho0 = eig.projector(1)
    traj = propagate(sop, rho0, 10.0, np.linspace(0, 10, 5), tol=1e-9,
                     observables={"sz": sz})
    assert set(traj.observables) == {"sz"}
    assert traj.observables["sz"].shape == (5,)
    direct = expectation(traj.states[0], sz)
    assert traj.observables["sz"][0] == pytest.approx(direct, abs=1e-12)


def test_halving_tolerance_tightens_endpoint():
    _, sop = three_level_liouvillian()
    rho0 = np.diag([0.0, 1.0, 0.0]).astype(complex)

    def endpoint(tol):
        return propagate(sop, rho0, 20.0, [20.0], tol=tol).final_state

    ref = endpoint(1e-12)
    err_loose = np.linalg.norm(endpoint(1e-6) - ref)
    err_tight = np.linalg.norm(endpoint(5e-7) - ref)
    # a fifth-order method gains roughly 2^5 per tolerance halving; demand
    # at least that the error does not grow
    assert err_tight <= max(err_loose, 1e-13)


def test_steady_state_qubit_is_gibbs():
    eig, sop = qubit_liouvillian(include_lamb_shift=True)
    report = steady_state(sop)
    assert report.kernel_dimension == 1
    assert report.residual <= 1e-9 * np.linalg.norm(sop.matrix)
    rho_th = gibbs_state(eig, BATH.beta)
    assert trace_distance(report.state, rho_th) <= 1e-9


def test_steady_state_three_level_differs_from_gibbs():
    eig, sop = three_level_liouvillian()
    report = steady_state(sop)
    rho_th = gibbs_state(eig, BATH.beta)
    assert trace_distance(report.state, rho_th) > 1e-4


def test_steady_state_zero_dissipator_flags_multiplicity():
    eig = eigendecompose(np.diag([0.0, 1.0, 3.0]).astype(complex))
    sop = build_liouvillian(build_generator(eig, [], include_lamb_shift=False))
    with pytest.raises(SteadyStateError) as info:
        steady_state(sop)
    assert info.value.kernel_dimension == 3
    rep = info.value.report
    assert rep is not None
    assert abs(np.trace(rep.state).real - 1.0) < 1e-10


def three_level_secular_liouvillian():
    eig, ch = three_level_channel()
    return build_secular_generator(bohr_decompose(ch.coupling_op, eig), ch)


def lamb_chain_liouvillian(n):
    return build_chain_superop(SpinChainSpec(N=n, ignore_lamb_shift=False))[1]


@pytest.mark.parametrize("build", [
    lambda: qubit_liouvillian(include_lamb_shift=True)[1],
    lambda: three_level_liouvillian()[1],
    three_level_secular_liouvillian,
    lambda: lamb_chain_liouvillian(3),
    lambda: lamb_chain_liouvillian(4),
], ids=["qubit_lamb", "three_level", "three_level_secular", "chain3_lamb", "chain4_lamb"])
def test_bordered_lu_matches_svd_null_space(build):
    sop = build()
    report = steady_state(sop)
    oracle = _null_space_svd(sop)
    assert report.method == "bordered-lu"
    assert report.kernel_dimension == oracle.kernel_dimension == 1
    assert trace_distance(report.state, oracle.state) <= 1e-12
    sigma = np.linalg.svd(sop.matrix, compute_uv=False)
    assert oracle.rcond == pytest.approx(sigma[-2] / sigma[0], rel=1e-8)
    # the SVD residual can round to exactly 0 (qubit), hence the eps floor
    assert report.residual <= 10 * max(oracle.residual, np.finfo(float).eps)


def test_expectation_values():
    rng = np.random.default_rng(12)
    rho = np.diag([0.25, 0.25, 0.5]).astype(complex)
    assert expectation(rho, np.eye(3)) == pytest.approx(1.0, abs=1e-14)
    eig = eigendecompose(np.diag([0.0, 1.0, 3.0]).astype(complex))
    assert expectation(eig.projector(2), np.diag([0.0, 1.0, 3.0])) == pytest.approx(3.0)
    op = random_hermitian(rng, 3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    state = a @ a.conj().T
    state /= np.trace(state).real
    elementwise = float(np.real(np.sum(state.T * op)))  # independent summation
    assert expectation(state, op) == pytest.approx(elementwise, abs=1e-13)


def test_expectation_shape_mismatch():
    with pytest.raises(ValueError):
        expectation(np.eye(2) / 2, np.eye(3))


def test_steady_state_consistency_qubit():
    _, sop = qubit_liouvillian()
    gap = liouvillian_gap(sop)
    t_long = 25.0 / gap
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    assert steady_state_consistency(sop, rho0, t_long, tol=1e-9) <= 1e-6


def test_steady_state_consistency_three_level():
    _, sop = three_level_liouvillian()
    gap = liouvillian_gap(sop)
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    assert steady_state_consistency(sop, rho0, 25.0 / gap, tol=1e-9) <= 1e-6


def test_steady_state_consistency_zero_time_from_steady():
    _, sop = qubit_liouvillian()
    rho_ss = steady_state(sop).state
    assert steady_state_consistency(sop, rho_ss, 0.0) <= 1e-12


def test_positivity_violation_flags_generator_bug():
    # a non-Lindblad (trace-preserving but not completely positive) map:
    # transposition-like generator built by negating a sandwich term
    eig, sop = qubit_liouvillian()
    broken = sop.matrix.copy()
    # flip the sign of the dissipator while keeping trace preservation:
    # L rho L^dag -> -L rho L^dag, compensated in the anticommutator
    commutator = build_liouvillian(
        build_generator(eig, [], include_lamb_shift=False)).matrix
    broken = commutator - (sop.matrix - commutator)
    bad = SimpleNamespace(dim=2, apply_matrix=lambda rho: unvec(broken @ vec(rho), 2))
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    from ule import PropagationError
    with pytest.raises(PropagationError):
        propagate(bad, rho0, 50.0, np.linspace(0, 50, 11), tol=1e-8)
