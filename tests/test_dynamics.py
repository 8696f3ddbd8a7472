import re
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import bordered_lu_steady_state, dp5_propagate, random_hermitian
from ule import (
    BathSpec,
    NoiseChannel,
    PropagationError,
    SteadyStateError,
    bohr_decompose,
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
    vec,
)
from ule.dynamics import (
    KERNEL_RTOL,
    _bordered_operator,
    _dissipator,
    _gmres_steady,
    _null_space_svd,
    _onenorm_estimate,
)
from ule.generator import Superoperator
from ule.spinchain import (
    SpinChainSpec,
    all_up_state,
    build_chain_superop,
    magnetization,
    relax_chain,
)

BATH = BathSpec(temperature=2.0, coupling=0.1, cutoff=100.0)


def qubit_liouvillian(delta=1.0, include_lamb_shift=False):
    eig = eigendecompose(delta * np.diag([-0.5, 0.5]).astype(complex))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    ch = NoiseChannel(coupling_op=x, bath=BATH)
    return eig, build_liouvillian(eig, ch, include_lamb_shift=include_lamb_shift)


def three_level_channel():
    rng = np.random.default_rng(3)
    eig = eigendecompose(np.diag([0.0, 1.0, 3.0]).astype(complex))
    return eig, NoiseChannel(coupling_op=random_hermitian(rng, 3), bath=BATH)


def three_level_liouvillian():
    eig, ch = three_level_channel()
    return eig, build_liouvillian(eig, ch, include_lamb_shift=False)


def test_eigenprojector_stationary_under_pure_commutator():
    eig = eigendecompose(np.diag([0.0, 1.0, 3.0]).astype(complex))
    sop = build_liouvillian(eig, [], include_lamb_shift=False)
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


def test_propagate_rejects_complex_observable():
    eig, sop = qubit_liouvillian()
    plus = np.full((2, 2), 0.5, dtype=complex)  # coherent: tr(rho i sigma_x) = i
    with pytest.raises(ValueError, match="imaginary part"):
        propagate(sop, plus, 1.0, [0.0, 1.0],
                  observables={"bad": 1j * np.array([[0, 1], [1, 0]], dtype=complex)})


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
    sop = build_liouvillian(eig, [], include_lamb_shift=False)
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
    assert report.method == "gmres"
    assert report.kernel_dimension == oracle.kernel_dimension == 1
    assert trace_distance(report.state, oracle.state) <= 1e-12
    sigma = np.linalg.svd(sop.matrix, compute_uv=False)
    assert oracle.rcond == pytest.approx(sigma[-2] / sigma[0], rel=1e-8)
    # the SVD residual can round to exactly 0 (qubit), hence the eps floor
    assert report.residual <= 10 * max(oracle.residual, np.finfo(float).eps)
    assert_matches_bordered_lu(sop, report)


def assert_matches_bordered_lu(sop, report):
    rho_lu, rcond_lu = bordered_lu_steady_state(sop)
    assert report.method == "gmres"
    assert 0 < report.iterations <= 200
    assert trace_distance(report.state, rho_lu) <= 1e-12
    # both estimate the 1-norm conditioning of a bordered generator, in
    # different bases and borderings
    assert rcond_lu / 10 <= report.rcond <= 10 * rcond_lu
    assert report.rcond > KERNEL_RTOL


def random_ensemble():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5, 8):
        for lamb in (False, True):
            for temperature, coupling in ((0.5, 0.3), (2.0, 0.01), (8.0, 5.0)):
                eig = eigendecompose(random_hermitian(rng, d))
                bath = BathSpec(temperature=temperature, coupling=coupling, cutoff=100.0)
                ch = NoiseChannel(coupling_op=random_hermitian(rng, d), bath=bath)
                yield build_liouvillian(eig, ch, include_lamb_shift=lamb)


def test_gmres_matches_bordered_lu_oracle_on_random_ensemble():
    for sop in random_ensemble():
        assert_matches_bordered_lu(sop, steady_state(sop))


def test_gmres_matches_bordered_lu_oracle_on_chain_n5():
    sop = build_chain_superop(SpinChainSpec(N=5))[1]
    assert_matches_bordered_lu(sop, steady_state(sop))


def test_bordered_operator_adjoints(monkeypatch):
    # the condition estimate steers its probes with the adjoint pair that
    # _gmres_steady builds on the Heisenberg frame (energies -E, the same G,
    # each L_c swapped with L_c^dag)
    import ule.dynamics
    built = []

    def recording(frame):
        built.append(_bordered_operator(frame))
        return built[-1]

    monkeypatch.setattr(ule.dynamics, "_bordered_operator", recording)
    rng = np.random.default_rng(4)
    two_jumps = build_chain_superop(SpinChainSpec(N=3, gamma2=0.05))[1]
    assert len(two_jumps.jumps) == 2
    for sop in (three_level_liouvillian()[1], lamb_chain_liouvillian(3), two_jumps):
        built.clear()
        assert steady_state(sop).method == "gmres"
        (apply, precondition), (apply_adjoint, precondition_adjoint) = built
        n = sop.dim ** 2
        y, z = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
        assert np.vdot(z, apply(y)) == pytest.approx(np.vdot(apply_adjoint(z), y), rel=1e-12)
        assert (np.vdot(z, precondition(y))
                == pytest.approx(np.vdot(precondition_adjoint(z), y), rel=1e-12))


@pytest.mark.parametrize("eps, lamb, failure", [
    (0.0, False, "a GMRES solve of the condition estimate did not converge"),
    (0.0, True, "a GMRES solve of the condition estimate did not converge"),
    (1e-6, False, r"rcond .* is not above 1e-10"),
    (1e-8, False, "GMRES did not converge in 1000 iterations"),
], ids=["eps0", "eps0_lamb", "eps1e-6", "eps1e-8"])
def test_two_dimensional_kernel_fails_the_certificate(eps, lamb, failure):
    # X couples only levels (1, 2) and (3, 4), and eps between the two
    # pairs: at eps = 0 the kernel is two-dimensional while the secular
    # preconditioner is not singular, and GMRES breaks down exactly
    x = np.zeros((4, 4), dtype=complex)
    x[0, 1] = x[1, 0] = x[2, 3] = x[3, 2] = 1.0
    x[1, 2] = x[2, 1] = eps
    eig = eigendecompose(np.diag([0.0, 1.0, 2.5, 4.0]).astype(complex))
    sop = build_liouvillian(eig, NoiseChannel(coupling_op=x, bath=BATH),
                            include_lamb_shift=lamb)
    assert re.fullmatch(failure, _gmres_steady(sop)[3])
    with pytest.raises(SteadyStateError) as info:
        steady_state(sop)
    assert info.value.kernel_dimension == 2


def test_onenorm_estimate_on_dense_matrices():
    rng = np.random.default_rng(8)
    for n in (1, 4, 16, 64):
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        exact = np.max(np.sum(np.abs(b), axis=0))
        est = _onenorm_estimate(lambda v: b @ v, lambda v: b.conj().T @ v, n)
        assert exact / 3 <= est <= exact * (1 + 1e-12)


def test_steady_state_ignores_global_random_state():
    # a condition estimate that drew its start vectors from np.random would
    # give another rcond for about half of these systems
    saved = np.random.get_state()
    try:
        for sop in [three_level_liouvillian()[1], *random_ensemble()]:
            np.random.seed(0)
            first = steady_state(sop)
            np.random.seed(1)
            second = steady_state(Superoperator(sop.hamiltonian, sop.jumps))
            assert second.rcond == first.rcond
            assert second.iterations == first.iterations
            assert np.array_equal(second.state, first.state)
    finally:
        np.random.set_state(saved)


def test_steady_state_runs_the_trace_check():
    _, sop = three_level_liouvillian()
    # a non-Hermitian H_eff slipped past the constructor breaks trace
    # preservation by its anti-Hermitian part
    broken = Superoperator(sop.hamiltonian, sop.jumps)
    object.__setattr__(broken, "hamiltonian", sop.hamiltonian + 1e-6j * np.eye(3))
    with pytest.raises(ValueError, match="not trace preserving"):
        steady_state(broken)
    # the factored defect is the dense <<I| row of the generator
    row = vec(np.eye(3)).conj() @ sop.matrix
    assert sop.trace_preservation_defect() == pytest.approx(np.max(np.abs(row)), abs=1e-15)


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
    # a trace-preserving but not completely positive map: the dissipator
    # with its sign flipped, L rho L^dag -> -L rho L^dag compensated in the
    # anticommutator, given in the eigenframe form the propagator reads
    _, sop = qubit_liouvillian()
    eig, g, jumps, jumps_dag = sop._eigenframe
    broken = (eig, -g, jumps, [-l_dag for l_dag in jumps_dag])
    rng = np.random.default_rng(5)
    y = random_hermitian(rng, 2)
    assert abs(np.trace(_dissipator(broken, y))) <= 1e-13
    assert np.linalg.norm(_dissipator(broken, y) + _dissipator(sop._eigenframe, y)) <= 1e-13
    bad = SimpleNamespace(_eigenframe=broken)
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    with pytest.raises(PropagationError):
        propagate(bad, rho0, 50.0, np.linspace(0, 50, 11), tol=1e-8)


@pytest.mark.parametrize("n, lamb", [(3, False), (3, True), (4, False)],
                         ids=["chain3", "chain3_lamb", "chain4"])
def test_propagate_matches_dp5_oracle_on_chain(n, lamb):
    spec = SpinChainSpec(N=n, ignore_lamb_shift=not lamb)
    _, sop = build_chain_superop(spec)
    got = relax_chain(spec, sop, samples=200, tol=1e-8)
    ref = dp5_propagate(sop, all_up_state(n), got.times[-1], got.times, tol=1e-8,
                        observables={"M": magnetization(n)})
    assert np.max(np.abs(got.observables["M"] - ref.observables["M"])) <= 1e-6
    # coherences rotate at up to ~50 per unit time and M does not see them;
    # both integrators carry a tol-level phase error there
    assert max(trace_distance(a, b) for a, b in zip(got.states, ref.states)) <= 1e-4
    assert got.stats["max_trace_drift"] <= 1e-10
    assert got.stats["min_sample_eig"] >= -1e-8


def test_tightening_tolerance_approaches_dp5_oracle_on_chain():
    _, sop = build_chain_superop(SpinChainSpec(N=3))
    rho0 = all_up_state(3)
    ref = dp5_propagate(sop, rho0, 20.0, [20.0], tol=1e-12).final_state
    errors = [np.linalg.norm(propagate(sop, rho0, 20.0, [20.0], tol=tol).final_state - ref)
              for tol in (1e-6, 5e-7, 1e-7)]
    # the endpoint error does not grow as tol is tightened
    assert errors[1] <= max(errors[0], 1e-13)
    assert errors[2] <= max(errors[1], 1e-13)
    assert errors[2] <= 1e-5
