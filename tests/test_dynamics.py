import re
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    bordered_lu_steady_state,
    complex_bordered_operator,
    dense_generator,
    dense_kernel_count,
    dp5_propagate,
    exact_estimate_rcond,
    gmres_reference,
    kron_superoperator,
    lawson_propagate_complex,
    liouvillian_gap,
    null_space_svd,
    random_hermitian,
    steady_state_consistency,
    svd_kernel,
    vec,
)
from ule import (
    BathSpec,
    EigenDecomposition,
    NoiseChannel,
    PropagationError,
    QuadratureSpec,
    SteadyStateError,
    bohr_decompose,
    build_liouvillian,
    build_secular_generator,
    eigendecompose,
    expectation,
    gibbs_populations,
    gibbs_state,
    hermitize,
    jump_spectral,
    propagate,
    steady_state,
    three_level_baseline,
    trace_distance,
)
from ule.dynamics import (
    ESTIMATE_RTOL,
    GMRES_MAXITER,
    GMRES_RESTART,
    KERNEL_RTOL,
    _bordered_operator,
    _components,
    _dissipator,
    _gmres,
    _gmres_steady,
    _onenorm_estimate,
    _pack,
    _packed_dissipator,
    _phases,
    _rotate,
    _unpack,
)
from ule.generator import Superoperator
from ule.spinchain import (
    SpinChainSpec,
    all_up_state,
    build_chain_superop,
    magnetization,
)

BATH = BathSpec(temperature=2.0, coupling=0.1, cutoff=100.0)


def qubit_liouvillian(delta=1.0, lamb=False):
    eig = eigendecompose(delta * np.diag([-0.5, 0.5]).astype(complex))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    ch = NoiseChannel(coupling_op=x, bath=BATH)
    return eig, build_liouvillian(eig, [ch], lamb_shift=QuadratureSpec() if lamb else None)


def three_level_channel():
    rng = np.random.default_rng(3)
    eig = eigendecompose(np.diag([0.0, 1.0, 3.0]).astype(complex))
    return eig, NoiseChannel(coupling_op=random_hermitian(rng, 3), bath=BATH)


def three_level_liouvillian():
    eig, ch = three_level_channel()
    return eig, build_liouvillian(eig, [ch], lamb_shift=None)


def test_eigenprojector_stationary_under_pure_commutator():
    eig = eigendecompose(np.diag([0.0, 1.0, 3.0]).astype(complex))
    sop = build_liouvillian(eig, [], lamb_shift=None)
    rho0 = eig.projector(1)
    traj = propagate(sop, rho0, 5.0, np.linspace(0, 5.0, 11), tol=1e-10, keep_states=True)
    for state in traj.states:
        assert np.linalg.norm(state - rho0) < 1e-9


def test_qubit_relaxation_matches_rate_equation():
    delta = 1.0
    eig, sop = qubit_liouvillian(delta)
    rho0 = eig.projector(1)  # excited
    times = np.linspace(0.0, 60.0, 40)
    traj = propagate(sop, rho0, 60.0, times, tol=1e-10, keep_states=True)

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
    traj = propagate(sop, rho0, 50.0, np.linspace(0, 50, 26), tol=1e-8, keep_states=True)
    assert traj.stats["max_trace_drift"] <= 1e-10
    assert traj.stats["min_sample_eig"] >= -1e-8
    for state in traj.states:
        assert np.max(np.abs(state - state.conj().T)) <= 1e-12
        assert abs(np.trace(state).real - 1.0) <= 1e-10


def test_propagate_validates_inputs():
    _, sop = qubit_liouvillian()
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="t_end"):
        propagate(sop, rho0, -1.0, [0.0])
    with pytest.raises(ValueError, match="sample_times"):
        propagate(sop, rho0, 1.0, [0.0, 2.0])
    with pytest.raises(ValueError, match="tol"):
        propagate(sop, rho0, 1.0, [0.0], tol=0.0)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        propagate(sop, rho0, 1.0, [0.0], tol=np.inf)
    with pytest.raises(ValueError, match="rho0 has non-finite entries"):
        propagate(sop, np.array([[1.0, np.nan], [np.nan, 0.0]]), 1.0, [0.0])
    with pytest.raises(ValueError, match="rho0 is not Hermitian"):
        propagate(sop, np.array([[0.5, 0.5], [0.0, 0.5]]), 1.0, [0.0])
    with pytest.raises(ValueError, match=r"rho0 must be a 2 x 2 matrix"):
        propagate(sop, np.eye(3) / 3, 1.0, [0.0])
    with pytest.raises(ValueError, match="rho0 must have trace 1"):
        propagate(sop, 2 * rho0, 1.0, [0.0])
    with pytest.raises(ValueError, match="sample_times must be finite"):
        propagate(sop, rho0, 1.0, [0.0, np.nan])
    with pytest.raises(ValueError, match="sample_times must be 1-D"):
        propagate(sop, rho0, 1.0, [[0.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError, match="sample_times must be non-decreasing"):
        propagate(sop, rho0, 1.0, [0.0, 1.0, 0.5])
    # a trace within 1e-12 of 1 is accepted
    propagate(sop, rho0 + 1e-13 * np.eye(2) / 2, 1.0, [1.0])


def test_propagate_observable_series():
    eig, sop = qubit_liouvillian()
    sz = np.diag([0.5, -0.5]).astype(complex)
    rho0 = eig.projector(1)
    traj = propagate(sop, rho0, 10.0, np.linspace(0, 10, 5), tol=1e-9,
                     observables={"sz": sz}, keep_states=True)
    assert set(traj.observables) == {"sz"}
    assert traj.observables["sz"].shape == (5,)
    direct = expectation(traj.states[0], sz)
    assert traj.observables["sz"][0] == pytest.approx(direct, abs=1e-12)


def test_propagate_rejects_complex_observable(monkeypatch):
    # i sigma_x is anti-Hermitian; it is refused before the first step
    eig, sop = qubit_liouvillian()
    monkeypatch.setattr("ule.dynamics._phases", None)
    plus = np.full((2, 2), 0.5, dtype=complex)
    with pytest.raises(ValueError, match="observable 'bad' is not Hermitian"):
        propagate(sop, plus, 1.0, [0.0, 1.0],
                  observables={"bad": 1j * np.array([[0, 1], [1, 0]], dtype=complex)})


@pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
def test_packing_is_a_frobenius_isometry(d):
    # tr(y O) = P_y . P_O for Hermitian y and O, the one dot product of
    # each observable sample in `propagate`
    rng = np.random.default_rng(d)
    for _ in range(5):
        y, o = random_hermitian(rng, d), random_hermitian(rng, d)
        scale = np.linalg.norm(y) * np.linalg.norm(o)
        ref = np.trace(y @ o)
        assert abs(_pack(y).ravel() @ _pack(o).ravel() - ref) <= 1e-14 * scale


def test_propagate_checks_observables_before_the_first_step(monkeypatch):
    eig, sop = qubit_liouvillian()
    monkeypatch.setattr("ule.dynamics._phases", None)
    with pytest.raises(ValueError, match=r"shape mismatch: \(2, 2\) vs \(3, 3\)"):
        propagate(sop, eig.projector(1), 1.0, [1.0], observables={"bad": np.eye(3)})


def test_non_hermitian_observable(monkeypatch):
    # an anti-Hermitian part within require_hermitian's 1e-12 is accepted
    # and the Hermitian part is read; a larger one is refused before the
    # first step
    eig, sop = qubit_liouvillian()
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    skew = 1j * np.diag([1.0, -1.0])  # tr(rho skew) = i (p_0 - p_1)
    got = propagate(sop, eig.projector(1), 10.0, np.linspace(0, 10, 5), tol=1e-9,
                    observables={"x": x + 1e-15 * skew}, keep_states=True)
    for state, value in zip(got.states, got.observables["x"]):
        assert value == pytest.approx(expectation(state, x), abs=1e-14)
    monkeypatch.setattr("ule.dynamics._phases", None)
    with pytest.raises(ValueError, match="observable 'skew' is not Hermitian"):
        propagate(sop, eig.projector(1), 10.0, np.linspace(0, 10, 5), tol=1e-9,
                  observables={"skew": skew})


@pytest.mark.parametrize("system", ["qubit", "three_level", "chain3", "chain4", "chain5"])
def test_eigenframe_samples_match_kept_states(system):
    # the observables and the smallest eigenvalue, read in the eigenframe,
    # agree with the input-basis states to rounding; keeping the states
    # changes nothing else, bitwise
    if system == "qubit":
        eig, sop = qubit_liouvillian()
        rho0, m, t_end = eig.projector(1), np.diag([0.5, -0.5]).astype(complex), 60.0
    elif system == "three_level":
        _, sop = three_level_liouvillian()
        rho0, t_end = np.diag([0.0, 0.0, 1.0]).astype(complex), 50.0
        m = random_hermitian(np.random.default_rng(7), 3)
    else:
        n = int(system[-1])
        sop = chain_liouvillian(n)
        rho0, m, t_end = all_up_state(n), magnetization(n), 500.0
    times = np.linspace(0.0, t_end, 200)
    lean = propagate(sop, rho0, t_end, times, observables={"M": m})
    kept = propagate(sop, rho0, t_end, times, observables={"M": m}, keep_states=True)
    assert lean.states is None and len(kept.states) == times.size
    assert np.array_equal(lean.observables["M"], kept.observables["M"])
    assert lean.stats == kept.stats
    direct = np.array([expectation(state, m) for state in kept.states])
    assert np.max(np.abs(lean.observables["M"] - direct)) <= 1e-14
    smallest = min(np.linalg.eigvalsh(state)[0] for state in kept.states)
    assert abs(lean.stats["min_sample_eig"] - smallest) <= 1e-14


def test_halving_tolerance_tightens_endpoint():
    _, sop = three_level_liouvillian()
    rho0 = np.diag([0.0, 1.0, 0.0]).astype(complex)

    def endpoint(tol):
        return propagate(sop, rho0, 20.0, [20.0], tol=tol, keep_states=True).states[-1]

    ref = endpoint(1e-12)
    err_loose = np.linalg.norm(endpoint(1e-6) - ref)
    err_tight = np.linalg.norm(endpoint(5e-7) - ref)
    # a fifth-order method gains roughly 2^5 per tolerance halving; demand
    # at least that the error does not grow
    assert err_tight <= max(err_loose, 1e-13)


def test_steady_state_qubit_is_gibbs():
    eig, sop = qubit_liouvillian(lamb=True)
    report = steady_state(sop)
    assert report.kernel_dimension == 1
    assert report.residual <= 1e-9 * np.linalg.norm(kron_superoperator(sop))
    rho_th = gibbs_state(eig, BATH.beta)
    assert trace_distance(report.state, rho_th) <= 1e-9


def test_steady_state_three_level_differs_from_gibbs():
    eig, sop = three_level_liouvillian()
    report = steady_state(sop)
    rho_th = gibbs_state(eig, BATH.beta)
    assert trace_distance(report.state, rho_th) > 1e-4


def test_steady_state_zero_dissipator_flags_multiplicity():
    eig = eigendecompose(np.diag([0.0, 1.0, 3.0]).astype(complex))
    sop = build_liouvillian(eig, [], lamb_shift=None)
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
    return build_chain_superop(SpinChainSpec(N=n, lamb_shift=QuadratureSpec()))[1]


@pytest.mark.parametrize("build", [
    lambda: qubit_liouvillian(lamb=True)[1],
    lambda: three_level_liouvillian()[1],
    three_level_secular_liouvillian,
    lambda: lamb_chain_liouvillian(3),
    lambda: lamb_chain_liouvillian(4),
], ids=["qubit_lamb", "three_level", "three_level_secular", "chain3_lamb", "chain4_lamb"])
def test_bordered_lu_matches_svd_null_space(build):
    sop = build()
    report = steady_state(sop)
    oracle = null_space_svd(sop)
    assert report.kernel_dimension == oracle.kernel_dimension == 1
    assert trace_distance(report.state, oracle.state) <= 1e-12
    sigma = np.linalg.svd(kron_superoperator(sop), compute_uv=False)
    assert oracle.rcond == pytest.approx(sigma[-2] / sigma[0], rel=1e-10)
    # the SVD residual can round to exactly 0 (qubit), hence the eps floor
    assert report.residual <= 10 * max(oracle.residual, np.finfo(float).eps)
    assert_matches_bordered_lu(sop, report)


def assert_matches_bordered_lu(sop, report):
    rho_lu, rcond_lu = bordered_lu_steady_state(sop)
    assert report.kernel_dimension == 1
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
                yield build_liouvillian(eig, [ch], lamb_shift=QuadratureSpec() if lamb else None)


def test_gmres_matches_bordered_lu_oracle_on_random_ensemble():
    for sop in random_ensemble():
        assert_matches_bordered_lu(sop, steady_state(sop))


def test_gmres_matches_bordered_lu_oracle_on_chain_n5():
    sop = build_chain_superop(SpinChainSpec(N=5))[1]
    assert_matches_bordered_lu(sop, steady_state(sop))


def test_bordered_operator_adjoints(monkeypatch):
    # the condition estimate steers its probes with the adjoint pair that
    # _gmres_steady builds on the Heisenberg frame (energies -E, the same G,
    # each L_c swapped with L_c^dag), under one border or, in the kernel
    # count, under one border per component and the random borders
    import ule.dynamics
    built = []

    def recording(frame, labels, borders):
        built.append(_bordered_operator(frame, labels, borders))
        return built[-1]

    monkeypatch.setattr(ule.dynamics, "_bordered_operator", recording)
    rng = np.random.default_rng(4)
    two_jumps = build_chain_superop(SpinChainSpec(N=3, gamma2=0.05))[1]
    assert len(two_jumps.jumps) == 2
    for sop, pairs in ((three_level_liouvillian()[1], 1), (lamb_chain_liouvillian(3), 1),
                       (two_jumps, 1), (eps_coupled_liouvillian(1e-8), 2),
                       (build_chain_superop(SpinChainSpec(N=3, gamma1=0.0))[1], 2)):
        built.clear()
        if pairs == 1:
            assert steady_state(sop).kernel_dimension == 1
        else:
            with pytest.raises(SteadyStateError):
                steady_state(sop)
        assert len(built) == 2 * pairs
        (apply, precondition), (apply_adjoint, precondition_adjoint) = built[-2:]
        n = sop.dim ** 2
        y, z = (rng.standard_normal(n) for _ in range(2))
        assert np.dot(z, apply(y)) == pytest.approx(np.dot(apply_adjoint(z), y), rel=1e-12)
        assert (np.dot(z, precondition(y))
                == pytest.approx(np.dot(precondition_adjoint(z), y), rel=1e-12))


@pytest.mark.parametrize("build", [
    lambda: build_chain_superop(SpinChainSpec(N=4, gamma2=0.05))[1],
    lambda: random_liouvillian(13)[1],
], ids=["chain4_two_jumps", "random"])
@pytest.mark.parametrize("heisenberg", [False, True], ids=["forward", "adjoint"])
def test_packed_bordered_operator_matches_complex_oracle(build, heisenberg):
    # the packed real operator against the complex one it replaced, on a
    # real frame, its Heisenberg frame and a complex frame: A and the
    # secular preconditioner on P are the packings of their complex action
    # on the Hermitian y that P packs
    frame = build()._eigenframe
    if heisenberg:
        eig, g, jumps, jumps_dag = frame
        frame = (EigenDecomposition(-eig.energies, eig.basis), g, jumps_dag, jumps)
    d = frame[0].dim
    apply, precondition = _bordered_operator(frame, np.zeros(d, dtype=int), np.zeros((0, d * d)))
    apply_ref, precondition_ref = complex_bordered_operator(frame)
    rng = np.random.default_rng(d)
    for _ in range(3):
        p = rng.standard_normal((d, d))
        y = _unpack(p).reshape(-1)
        for got, ref in ((apply, apply_ref), (precondition, precondition_ref)):
            expected = _pack(ref(y).reshape(d, d)).reshape(-1)
            assert np.max(np.abs(got(p.reshape(-1)) - expected)) <= 1e-14 * np.max(np.abs(expected))


def eps_coupled_liouvillian(eps, lamb=False, pairs=2):
    # X couples only levels (1, 2), (3, 4), ..., and eps between neighbouring
    # pairs; the levels sit at 0, 1, 2.5, 4, ... (steps of 1.5 after the first)
    d = 2 * pairs
    x = np.zeros((d, d), dtype=complex)
    for k in range(0, d, 2):
        x[k, k + 1] = x[k + 1, k] = 1.0
    for k in range(1, d - 1, 2):
        x[k, k + 1] = x[k + 1, k] = eps
    eig = eigendecompose(np.diag([0.0, *(1.0 + 1.5 * np.arange(d - 1))]).astype(complex))
    return build_liouvillian(eig, [NoiseChannel(coupling_op=x, bath=BATH)],
                             lamb_shift=QuadratureSpec() if lamb else None)


@pytest.mark.parametrize("eps, lamb, failure", [
    (0.0, False, r"GMRES did not converge in (\d+) iterations"),
    (0.0, True, r"GMRES did not converge in (\d+) iterations"),
    (1e-6, False, "a GMRES solve of the condition estimate did not converge"),
    (1e-5, False, r"rcond .* is not above 1e-10"),
    (1e-8, False, r"GMRES did not converge in (\d+) iterations"),
], ids=["eps0", "eps0_lamb", "eps1e-6", "eps1e-5", "eps1e-8"])
def test_two_dimensional_kernel_fails_the_certificate(eps, lamb, failure):
    # at eps = 0 the kernel is two-dimensional while the secular
    # preconditioner is not singular; at eps <= 1e-6 a restart cycle of
    # some solve raises the residual it started from (the stagnation exit),
    # and at eps = 1e-5 every solve converges but rcond is too small
    sop = eps_coupled_liouvillian(eps, lamb)
    d = sop.dim
    match = re.fullmatch(failure, _gmres_steady(sop, np.zeros(d, dtype=int), np.zeros((0, d * d)))[-1])
    assert match
    if match.groups():
        # the stagnation exit ends the solve long before GMRES_MAXITER
        assert int(match.group(1)) < GMRES_MAXITER
    with pytest.raises(SteadyStateError) as info:
        steady_state(sop)
    assert info.value.kernel_dimension == 2


@pytest.mark.parametrize("build, c0, kdim, borders", [
    (lambda: eps_coupled_liouvillian(1e-8, pairs=3), 1, 3, "1 component and 2 random borders"),
    (lambda: build_chain_superop(SpinChainSpec(N=3, B_z=0.0))[1], 1, 4,
     "1 component and 3 random borders"),
    (lambda: build_chain_superop(SpinChainSpec(N=3, eta=0.0))[1], 4, 6,
     "4 components and 2 random borders"),
    (lambda: build_liouvillian(eigendecompose(np.diag([0.0, 0.0, 1.0]).astype(complex)), [],
                               lamb_shift=None), 3, 5, "3 components and 2 random borders"),
    (lambda: build_liouvillian(eigendecompose(np.zeros((3, 3))), []), 3, 9,
     "3 components and 6 random borders"),
], ids=["three_weak_pairs", "degenerate_chain", "undamped_chain", "undamped_degenerate_pair",
        "zero_generator"])
def test_kernel_count_where_the_bounds_do_not_meet(build, c0, kdim, borders):
    # the c0 components of the jump graph bound the kernel from below, and
    # random borders count the rest: behind two weak links, and where the
    # B_z = 0 and eta = 0 chains, a degenerate pair without dissipation and
    # the zero generator have a degenerate H_eff, whose commutant the
    # component projectors do not span (the pair's coherence is undamped,
    # and the preconditioner leaves it unscaled). Each generic count is the
    # count of both SVD oracles (their threshold has an absolute floor, so
    # the zero generator is all kernel, d^2), its rcond is far from
    # KERNEL_RTOL, and the dense bordered matrix with the same borders
    # counts the same
    sop = build()
    assert kron_kernel(sop)[0] == kdim
    with pytest.raises(SteadyStateError) as oracle:
        null_space_svd(sop)
    assert oracle.value.kernel_dimension == kdim
    assert _components(sop._eigenframe).max() + 1 == c0
    message = f"kernel dimension {kdim} (certified with {borders}, a generic count, rcond "
    with pytest.raises(SteadyStateError, match=re.escape(message)) as info:
        steady_state(sop)
    assert info.value.kernel_dimension == kdim
    report = info.value.report
    assert report.kernel_dimension == kdim and report.rcond > 100 * KERNEL_RTOL
    assert abs(np.trace(report.state).real - 1.0) < 1e-12
    assert report.residual <= 1e-15 * np.linalg.norm(kron_superoperator(sop), 2)
    count, rcond, rho = dense_kernel_count(sop)
    assert count == kdim
    assert rcond / 1.01 <= report.rcond <= 10 * rcond
    # the kernel is exact, so the representative is the solve against I/d
    assert trace_distance(report.state, rho) <= 1e-10


def test_components_match_scipy_connected_components():
    # the label propagation with pointer jumping against scipy's graph
    # search: on a shuffled path, the worst case for plain propagation, and
    # on sparse random graphs
    from scipy.sparse.csgraph import connected_components
    rng = np.random.default_rng(5)
    d = 40
    order = rng.permutation(d)
    path = np.zeros((d, d))
    path[order[:-1], order[1:]] = 1.0
    systems = [[path]] + [[rng.random((d, d)) * (rng.random((d, d)) < p)]
                          for p in (0.01, 0.03, 0.1)]
    for jumps in systems:
        labels = _components((SimpleNamespace(dim=d), None, jumps, None))
        count, reference = connected_components(sum(l != 0 for l in jumps), directed=False)
        assert labels.max() + 1 == count
        assert len(set(zip(labels.tolist(), reference.tolist()))) == count


def kron_kernel(sop):
    """(kernel dimension, rcond) by the rule of `null_space_svd`, on the kron oracle."""
    return svd_kernel(np.linalg.svd(kron_superoperator(sop), compute_uv=False))[:2]


def kron_gap(sop):
    """`liouvillian_gap` by its rule, on the eigenvalues of the kron oracle."""
    rates = np.abs(np.linalg.eigvals(kron_superoperator(sop)).real)
    return rates[rates > 1e-12 * max(rates.max(), 1.0)].min()


@pytest.mark.parametrize("build", [
    lambda: build_chain_superop(SpinChainSpec(N=4, gamma2=0.05))[1],
    lambda: random_liouvillian(13)[1],
    lambda: three_level_liouvillian()[1],
], ids=["chain4_two_jumps", "random", "three_level"])
def test_dense_generator_matches_kron_oracle(build):
    # the packed real matrix is the complex kron generator in the
    # orthonormal basis of the unit P: unitarily similar, with the same
    # singular values, kernel, rcond and spectrum
    sop = build()
    d = sop.dim
    dense = dense_generator(sop)
    kron = kron_superoperator(sop)
    assert dense.dtype == np.float64 and dense.shape == (d * d, d * d)
    eig = sop._eigenframe[0]
    basis = np.stack([vec(eig.from_eigenbasis(_unpack(unit.reshape(d, d))))
                      for unit in np.eye(d * d)], axis=1)
    assert np.allclose(basis.conj().T @ basis, np.eye(d * d), atol=1e-13)
    assert (np.max(np.abs(basis.conj().T @ kron @ basis - dense))
            <= 1e-13 * np.max(np.abs(dense)))
    sigma = np.linalg.svd(dense, compute_uv=False)
    sigma_ref = np.linalg.svd(kron, compute_uv=False)
    assert np.max(np.abs(sigma - sigma_ref)) <= 1e-13 * sigma_ref[0]
    report = null_space_svd(sop)
    kdim, rcond = kron_kernel(sop)
    assert report.kernel_dimension == kdim == 1
    assert report.rcond == pytest.approx(rcond, rel=1e-10)
    assert trace_distance(report.state, steady_state(sop).state) <= 1e-12
    assert liouvillian_gap(sop) == pytest.approx(kron_gap(sop), rel=1e-10)


@pytest.mark.parametrize("build, kdim", [
    (lambda: build_liouvillian(three_level_channel()[0], [], lamb_shift=None), 3),
    (lambda: eps_coupled_liouvillian(0.0), 2),
    (lambda: eps_coupled_liouvillian(0.0, lamb=True), 2),
    (lambda: eps_coupled_liouvillian(1e-8), 2),
    (lambda: eps_coupled_liouvillian(1e-6), 2),
    (lambda: eps_coupled_liouvillian(1e-5), 2),
    (lambda: build_chain_superop(SpinChainSpec(N=3, gamma1=0.0))[1], 8),
], ids=["zero_dissipator", "eps0", "eps0_lamb", "eps1e-8", "eps1e-6", "eps1e-5", "chain3_gamma0"])
def test_null_space_fallback_matches_kron_oracle(monkeypatch, build, kdim):
    # every generator that fails the one-border certificate gets its kernel
    # counted by component borders and, behind a weak link eps > 0, one
    # random border: the count is the kron matrix's SVD count, and the
    # rcond and representative are those of the dense bordered matrix
    import ule.dynamics
    solves = []

    def recording(frame, borders, x, *args):
        solves.append(x)
        return least_residual(frame, borders, x, *args)

    least_residual = ule.dynamics._least_residual
    monkeypatch.setattr(ule.dynamics, "_least_residual", recording)
    sop = build()
    with pytest.raises(SteadyStateError) as info:
        steady_state(sop)
    report = info.value.report
    assert info.value.kernel_dimension == report.kernel_dimension == kdim
    assert f"kernel dimension {kdim} " in str(info.value)
    assert kron_kernel(sop)[0] == kdim
    count, rcond, rho = dense_kernel_count(sop)
    assert count == kdim
    assert report.rcond > KERNEL_RTOL
    assert rcond / 1.01 <= report.rcond <= 10 * rcond
    # both solve the bordered operator against I/d alike, to 1e-10. Behind
    # a weak link (eps = 1e-6, 1e-5) the least residual then moves that
    # state by 0.27, along the kron kernel's weak direction of singular
    # value sigma_2 ~ eps^2 sigma_max, where rounding leaves it free: two
    # trace-one states of residuals r and r' differ off the kernel vector
    # k by at most (r + r' + 2 sigma_1) / sigma_2 in Frobenius norm, in all
    # by 1 + sqrt(d) times that (tr k >= ||k||_F), and in trace distance by
    # a further sqrt(d) / 2. Both residuals are rounding, and the states
    # are 1.1e-4 and 3.4e-6 apart, a twentieth and a twelfth of the bound
    d = sop.dim
    unmoved = dense_kernel_count(sop, least_residual=False)[2]
    for x in solves:
        x = hermitize(sop._eigenframe[0].from_eigenbasis(_unpack(x.reshape(d, d))))
        assert trace_distance(x / np.trace(x).real, unmoved) <= 1e-10
    sigma = np.linalg.svd(kron_superoperator(sop), compute_uv=False)
    bound = 1e-10
    if trace_distance(unmoved, rho) > 1e-2:  # moved
        residuals = report.residual + np.linalg.norm(sop.apply_matrix(rho)) + 2 * sigma[-1]
        bound = 0.5 * np.sqrt(d) * (1 + np.sqrt(d)) * residuals / sigma[-2]
    assert trace_distance(report.state, rho) <= bound
    assert abs(np.trace(report.state).real - 1.0) < 1e-12
    # the representative lies in the numerical kernel: its residual is
    # rounding, also behind a weak link (7.5e-17 sigma_max at eps = 1e-5,
    # where a fixed trace per component left 1.8e-12)
    assert report.residual <= 1e-15 * sigma[0]
    if kdim == 2:
        assert liouvillian_gap(sop) == pytest.approx(kron_gap(sop), rel=1e-10)
    else:
        with pytest.raises(ValueError, match="no decaying modes"):
            liouvillian_gap(sop)


def test_gmres_exact_breakdown_is_not_converged():
    # A e_1 = 0: the first Arnoldi vector is annihilated, the Givens
    # rotation has nothing to rotate, and the solve must end without a
    # 0 / 0
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    krylov = np.empty((GMRES_RESTART + 1, 2))
    x, iterations, converged = _gmres(lambda v: a @ v, lambda v: v,
                                      np.array([1.0, 0.0]), 1.0, krylov)
    assert not converged
    assert iterations == 0
    assert np.array_equal(x, np.zeros(2))


@pytest.mark.parametrize("restart", [GMRES_RESTART, 3])
def test_gmres_matches_reference_loop(monkeypatch, restart):
    # every solve of steady_state (the solve, the condition estimate's
    # solves on A and A^dag, the refinement) against the numpy-scalar loop
    # it replaced; at restart 3 most solves cross several restarts, and
    # GMRES(3) stagnates on a few systems, which the reference runs to
    # GMRES_MAXITER and the stagnation exit ends early; their certificate
    # then fails, and the kernel count's solves are checked too
    import ule.dynamics
    monkeypatch.setattr(ule.dynamics, "GMRES_RESTART", restart)
    counts, stagnated = [], []

    def checked(apply, precondition, rhs, anorm, krylov, target=None):
        assert krylov.shape == (restart + 1, rhs.size)
        x, iterations, converged = _gmres(apply, precondition, rhs, anorm, krylov, target)
        x_ref, iterations_ref, converged_ref = gmres_reference(apply, precondition, rhs,
                                                               anorm, target)
        assert converged == converged_ref
        if converged:
            assert iterations == iterations_ref
            assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
            counts.append(iterations)
        else:
            assert iterations < iterations_ref == GMRES_MAXITER
            stagnated.append(iterations)
        return x, iterations, converged

    monkeypatch.setattr(ule.dynamics, "_gmres", checked)
    for sop in [*random_ensemble(), build_chain_superop(SpinChainSpec(N=4))[1]]:
        try:
            steady_state(sop)
        except SteadyStateError:
            assert restart == 3
    assert len(counts) > 100
    if restart == 3:
        assert max(counts) > 30 * restart
        assert stagnated
    else:
        assert not stagnated


@pytest.mark.parametrize("n", [1, 2, 7, 30])
@pytest.mark.parametrize("jacobi", [False, True], ids=["identity", "jacobi"])
def test_gmres_solves_dense_systems(n, jacobi):
    # one restart cycle reaches the Krylov space of dimension n; its
    # Hessenberg solve is the back substitution of the Givens-reduced R.
    # The diagonal is moved one unit away from zero: a real Gaussian pivot
    # can be tiny (1.2e-3 at n = 7), and Jacobi scaling by it leaves a
    # preconditioned condition number of 4e3 that needs a second cycle
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    a[np.diag_indices(n)] += np.sign(a.diagonal())
    b = rng.standard_normal(n)
    diag = a.diagonal() if jacobi else np.ones(n)
    anorm = np.max(np.sum(np.abs(a), axis=0))
    krylov = np.empty((GMRES_RESTART + 1, n))
    x, iterations, converged = _gmres(lambda v: a @ v, lambda v: v / diag, b, anorm, krylov)
    exact = np.linalg.solve(a, b)
    assert converged
    assert iterations <= n
    assert np.linalg.norm(x - exact) <= 1e-12 * np.linalg.cond(a) * np.linalg.norm(exact)


def test_onenorm_estimate_on_dense_matrices():
    rng = np.random.default_rng(8)
    for n in (1, 4, 16, 64):
        b = rng.standard_normal((n, n))
        exact = np.max(np.sum(np.abs(b), axis=0))
        est = _onenorm_estimate(lambda v: b @ v, lambda v: b.T @ v, n)
        assert exact / 3 <= est <= exact * (1 + 1e-12)


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_onenorm_estimate_with_loose_solves_on_dense_matrices(n):
    # the condition estimate's solves stop at ESTIMATE_RTOL ||v||_1 / sqrt(n),
    # which moves each probe's 1-norm by at most ESTIMATE_RTOL ||A^-1||_1 ||v||_1.
    # The diagonal shift gives GMRES a steady convergence rate, so each solve
    # stops near its target instead of far below it
    for seed in range(3):
        rng = np.random.default_rng([n, seed])
        a = rng.standard_normal((n, n)) + 2 * np.sqrt(n) * np.eye(n)
        anorm = np.max(np.sum(np.abs(a), axis=0))
        krylov = np.empty((GMRES_RESTART + 1, n))

        def loose(m):
            def solve(v):
                target = ESTIMATE_RTOL * np.sum(np.abs(v)) / np.sqrt(n)
                x, _, converged = _gmres(lambda u: m @ u, lambda u: u, v, anorm, krylov,
                                         target=target)
                assert converged
                return x
            return solve

        est = _onenorm_estimate(loose(a), loose(a.T), n)
        ref = _onenorm_estimate(lambda v: np.linalg.solve(a, v),
                                lambda v: np.linalg.solve(a.T, v), n)
        exact = np.max(np.sum(np.abs(np.linalg.inv(a)), axis=0))
        assert ref / (1 + 2 * ESTIMATE_RTOL) <= est <= ref * (1 + 2 * ESTIMATE_RTOL)
        assert est <= exact * (1 + 2 * ESTIMATE_RTOL)


def chain_superop(n, **kwargs):
    return build_chain_superop(SpinChainSpec(N=n, **kwargs))[1]


# name -> (systems, whether the loose solves must spend fewer iterations)
ESTIMATE_CASES = {
    **{f"chain{n}{suffix}": (lambda n=n, kwargs=kwargs: [chain_superop(n, **kwargs)], n >= 4)
       for n in range(3, 7)
       for suffix, kwargs in (("", {}), ("_lamb", {"lamb_shift": QuadratureSpec()}),
                              ("_two_jumps", {"gamma2": 0.05}))},
    "random": (lambda: [random_liouvillian(13)[1]], False),
    "three_level": (lambda: [three_level_liouvillian()[1]], False),
    "random_ensemble": (lambda: list(random_ensemble()), False),
}


@pytest.mark.parametrize("build, fewer", ESTIMATE_CASES.values(), ids=list(ESTIMATE_CASES))
def test_loose_estimate_solves_match_exact_solve_oracle(build, fewer):
    # the estimate's solves only stop earlier: the state, its solve and its
    # residual are the exact-solve run's bitwise, and rcond moves by far
    # less than the digits a condition estimate carries
    for sop in build():
        report = steady_state(sop)
        oracle = exact_estimate_rcond(sop)
        assert report.kernel_dimension == 1
        assert report.rcond == pytest.approx(oracle.rcond, rel=1e-3)
        assert np.array_equal(report.state, oracle.state)
        assert report.iterations == oracle.iterations
        assert report.residual == oracle.residual
        assert report.estimate_iterations <= oracle.estimate_iterations
        if fewer:
            assert report.estimate_iterations < oracle.estimate_iterations


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
    row = vec(np.eye(3)).conj() @ kron_superoperator(sop)
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
    # a chain-sized state against the full product
    a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    state = a @ a.conj().T
    state /= np.trace(state).real
    op = random_hermitian(rng, 32)
    assert expectation(state, op) == pytest.approx(np.trace(state @ op).real, abs=1e-14)


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


def test_step_size_underflow_raises_at_its_time():
    # a coupling of 1e12 makes the qubit's dissipator so stiff that no
    # step above 1e-14 t_end meets tol from the initial state
    eig = eigendecompose(np.diag([0.0, 1.0]).astype(complex))
    bath = BathSpec(temperature=1.0, coupling=1e12, cutoff=100.0)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    sop = build_liouvillian(eig, [NoiseChannel(coupling_op=x, bath=bath)],
                            lamb_shift=None)
    with pytest.raises(PropagationError, match=r"step size underflow at t = 0\.0") as info:
        propagate(sop, eig.projector(1), 1.0, [0.0, 1.0])
    assert info.value.t_reached == 0.0


@pytest.mark.parametrize("n, lamb", [(3, False), (3, True), (4, False)],
                         ids=["chain3", "chain3_lamb", "chain4"])
def test_propagate_matches_dp5_oracle_on_chain(n, lamb):
    spec = SpinChainSpec(N=n, lamb_shift=QuadratureSpec() if lamb else None)
    _, sop = build_chain_superop(spec)
    # the samples of `relax_chain`, with the states kept
    times = np.linspace(0.0, 50.0 / spec.gamma1, 200)
    got = propagate(sop, all_up_state(n), times[-1], times, tol=1e-8,
                    observables={"M": magnetization(n)}, keep_states=True)
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
    ref = dp5_propagate(sop, rho0, 20.0, [20.0], tol=1e-12).states[-1]
    errors = [np.linalg.norm(propagate(sop, rho0, 20.0, [20.0], tol=tol,
                                       keep_states=True).states[-1] - ref)
              for tol in (1e-6, 5e-7, 1e-7)]
    # the endpoint error does not grow as tol is tightened
    assert errors[1] <= max(errors[0], 1e-13)
    assert errors[2] <= max(errors[1], 1e-13)
    assert errors[2] <= 1e-5


def three_level_baseline_liouvillian():
    system = three_level_baseline()
    ch = NoiseChannel(coupling_op=system.coupling_op, bath=BATH)
    return build_liouvillian(eigendecompose(system.hamiltonian), [ch])


def random_liouvillian(seed, d=4):
    rng = np.random.default_rng(seed)
    eig = eigendecompose(random_hermitian(rng, d))
    ch = NoiseChannel(coupling_op=random_hermitian(rng, d), bath=BATH)
    return eig, build_liouvillian(eig, [ch])


@pytest.mark.parametrize("build, dtype", [
    (lambda: build_chain_superop(SpinChainSpec(N=3))[1], np.float64),
    (lambda: lamb_chain_liouvillian(3), np.float64),
    (three_level_baseline_liouvillian, np.float64),
    (lambda: random_liouvillian(13)[1], np.complex128),
], ids=["chain3", "chain3_lamb", "three_level_baseline", "random"])
def test_eigenframe_is_real_exactly_when_its_factors_are(build, dtype):
    _, g, jumps, jumps_dag = build()._eigenframe
    assert g.dtype == dtype
    assert all(l.dtype == dtype for l in jumps + jumps_dag)


def as_complex_frame(frame):
    eig, g, jumps, jumps_dag = frame
    return eig, g.astype(complex), [l.astype(complex) for l in jumps], \
        [l.astype(complex) for l in jumps_dag]


@pytest.mark.parametrize("build", [
    lambda: lamb_chain_liouvillian(3),
    lambda: build_chain_superop(SpinChainSpec(N=4, gamma2=0.05))[1],
    three_level_baseline_liouvillian,
], ids=["chain3_lamb", "chain4_two_jumps", "three_level_baseline"])
def test_real_frame_kernels_match_complex_frame(build):
    frame = build()._eigenframe
    complex_frame = as_complex_frame(frame)
    assert frame[1].dtype == np.float64 and complex_frame[1].dtype == np.complex128
    d = frame[0].dim
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    hermitian = a + a.conj().T
    # non-Hermitian inputs (the condition estimate's probes), a transposed view among them
    for y in (a, a.T, hermitian):
        ref = _dissipator(complex_frame, y)
        assert np.max(np.abs(_dissipator(frame, y) - ref)) <= 1e-14 * np.max(np.abs(ref))
    ref = _pack(_dissipator(complex_frame, hermitian))
    for f in (frame, complex_frame):
        got = _packed_dissipator(f)(_pack(hermitian), np.empty((d, d)))
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_propagate_matches_dp5_oracle_on_complex_frame():
    eig, sop = random_liouvillian(17)
    assert sop._eigenframe[1].dtype == np.complex128
    rng = np.random.default_rng(18)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    m = random_hermitian(rng, 4)
    times = np.linspace(0.0, 100.0, 101)
    # tol 1e-10: at 1e-8 the two runs differ by 5.1e-6 in M here, with the
    # plain complex products as much as with this kernel (the error norm
    # dilutes over the d^2 entries; this test does not target that)
    got = propagate(sop, rho0, times[-1], times, tol=1e-10, observables={"M": m},
                    keep_states=True)
    ref = dp5_propagate(sop, rho0, times[-1], times, tol=1e-10, observables={"M": m})
    assert np.max(np.abs(got.observables["M"] - ref.observables["M"])) <= 1e-6
    assert max(trace_distance(a, b) for a, b in zip(got.states, ref.states)) <= 1e-4
    assert got.stats["max_trace_drift"] <= 1e-10
    assert got.stats["min_sample_eig"] >= -1e-8


def chain_liouvillian(n, **kwargs):
    return build_chain_superop(SpinChainSpec(N=n, **kwargs))[1]


@pytest.mark.parametrize("build, n, t_end", [
    (lambda: chain_liouvillian(3), 3, 500.0),
    (lambda: lamb_chain_liouvillian(3), 3, 500.0),
    (lambda: chain_liouvillian(4), 4, 500.0),
    (lambda: chain_liouvillian(4, lamb_shift=QuadratureSpec()), 4, 500.0),
    (lambda: chain_liouvillian(4, gamma2=0.05), 4, 500.0),
    (three_level_baseline_liouvillian, None, 100.0),
    # the benchmark's chain: 2,696 steps, about 2 s with the oracle
    (lambda: chain_liouvillian(5), 5, 500.0),
], ids=["chain3", "chain3_lamb", "chain4", "chain4_lamb", "chain4_two_jumps",
        "three_level_baseline", "chain5"])
def test_propagate_matches_complex_lawson_oracle(build, n, t_end):
    # the packed real state takes the same steps as the complex one and
    # agrees with it to rounding; M is the chain magnetization, or the
    # level index over 2 for the three-level system
    sop = build()
    assert sop._eigenframe[1].dtype == np.float64
    if n is None:
        rho0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        m = np.diag([0.0, 0.5, 1.0]).astype(complex)
    else:
        rho0, m = all_up_state(n), magnetization(n)
    times = np.linspace(0.0, t_end, 60)
    got = propagate(sop, rho0, t_end, times, tol=1e-8, observables={"M": m}, keep_states=True)
    ref = lawson_propagate_complex(sop, rho0, t_end, times, tol=1e-8, observables={"M": m})
    assert got.stats["n_accepted"] == ref.stats["n_accepted"] > 0
    assert got.stats["n_rejected"] == ref.stats["n_rejected"]
    assert np.max(np.abs(got.observables["M"] - ref.observables["M"])) <= 1e-13
    assert max(np.max(np.abs(a - b)) for a, b in zip(got.states, ref.states)) <= 1e-13
    assert got.stats["max_trace_drift"] <= 1e-12


def test_propagate_matches_complex_lawson_oracle_on_complex_frame():
    eig, sop = random_liouvillian(17)
    assert sop._eigenframe[1].dtype == np.complex128
    rng = np.random.default_rng(18)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    times = np.linspace(0.0, 100.0, 51)
    got = propagate(sop, rho0, times[-1], times, tol=1e-8, keep_states=True)
    ref = lawson_propagate_complex(sop, rho0, times[-1], times, tol=1e-8)
    assert got.stats["n_accepted"] == ref.stats["n_accepted"] > 0
    assert got.stats["n_rejected"] == ref.stats["n_rejected"]
    assert max(np.max(np.abs(a - b)) for a, b in zip(got.states, ref.states)) <= 1e-13


def test_pack_round_trip():
    rng = np.random.default_rng(21)
    # entries on a coarse dyadic grid: Re y +- Im y is exact, so the round
    # trip is bitwise
    a = rng.integers(-64, 65, (6, 6)) / 32 + 1j * rng.integers(-64, 65, (6, 6)) / 32
    y = a + a.conj().T
    p = _pack(y)
    assert p.dtype == np.float64
    assert np.array_equal(_unpack(p), y)
    assert np.array_equal(_pack(_unpack(p)), p)
    # in general P = Re y + Im y rounds once per entry, at the entry's scale
    y = random_hermitian(rng, 6)
    assert np.max(np.abs(_unpack(_pack(y)) - y)) <= 2 * np.finfo(float).eps * np.max(np.abs(y))
    # the unpacked matrix is Hermitian bitwise
    back = _unpack(rng.standard_normal((6, 6)))
    assert np.array_equal(back, back.conj().T)


@pytest.mark.parametrize("build", [
    lambda: chain_liouvillian(4, gamma2=0.05),
    three_level_baseline_liouvillian,
    lambda: random_liouvillian(13)[1],
], ids=["chain4_two_jumps", "three_level_baseline", "random"])
def test_packed_dissipator_reads_right_factors_from_the_frame(build):
    # the sign-flipped frame of the positivity test: its [L_c^dag] is
    # -L_c^dag, not L_c^T, so a kernel that formed L_c^T would fail here
    eig, g, jumps, jumps_dag = build()._eigenframe
    broken = (eig, -g, jumps, [-l_dag for l_dag in jumps_dag])
    d = eig.dim
    rng = np.random.default_rng(d)
    for _ in range(3):
        y = random_hermitian(rng, d)
        ref = _pack(_dissipator(broken, y))
        got = _packed_dissipator(broken)(_pack(y), np.empty((d, d)))
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("build", [
    lambda: chain_liouvillian(4, gamma2=0.05),
    lambda: random_liouvillian(13)[1],
], ids=["chain4_two_jumps", "random"])
def test_packed_dissipator_workspace_contract(build):
    # writing P into apply.input and passing that block skips the kernel's
    # copy; the output is bitwise that of a fresh kernel on a separate
    # array, whatever the workspace held from the call before
    frame = build()._eigenframe
    eig = frame[0]
    d = eig.dim
    apply = _packed_dissipator(frame)

    def fresh(x):
        return _packed_dissipator(frame)(x, np.empty((d, d)))

    rng = np.random.default_rng(d)
    for _ in range(3):
        p, q = (_pack(random_hermitian(rng, d)) for _ in range(2))
        # the workspace holds the q of the last pass, then p
        assert np.array_equal(apply(p, np.empty((d, d))), fresh(p))
        apply.input[...] = q
        assert np.array_equal(apply(apply.input, np.empty((d, d))), fresh(q))
    # the loop's rotation writes into that block through one scratch matrix;
    # it must equal the allocating rotation bitwise, also when its output is
    # its own input
    c, s = _phases(eig.energies, [1.0])(0.37)[0]
    scratch = np.empty((d, d))
    for back in (False, True):
        ref = _rotate(c, s, p, back=back)
        assert np.array_equal(_rotate(c, s, p, apply.input, back=back, scratch=scratch), ref)
        q = p.copy()
        assert np.array_equal(_rotate(c, s, q, q, back=back, scratch=scratch), ref)


def test_phase_pairs():
    # each phase pair is [c, s] with c symmetric and s antisymmetric, and a
    # stack over several nodes agrees with one node at a time
    eig = chain_liouvillian(4, gamma2=0.05)._eigenframe[0]
    d = eig.dim
    nodes = np.array([0.1, 0.37, 2.5])
    stack = _phases(eig.energies, nodes)(2.0)
    for tau, pair in zip(2.0 * nodes, stack):
        c, s = _phases(eig.energies, [1.0])(tau)[0]
        assert np.array_equal(pair, [c, s])
        assert np.max(np.abs(c - c.T)) <= 1e-15 and np.max(np.abs(s + s.T)) <= 1e-15
        assert np.array_equal(c.diagonal(), np.ones(d))
        assert np.array_equal(s.diagonal(), np.zeros(d))
        ref = np.exp(-1j * np.subtract.outer(eig.energies, eig.energies) * tau)
        assert np.max(np.abs(c + 1j * s - ref)) <= 1e-13


def test_real_frame_never_enters_complex_kernel(monkeypatch):
    sop = chain_liouvillian(3, gamma2=0.05)
    assert sop._eigenframe[1].dtype == np.float64
    ref = propagate(sop, all_up_state(3), 50.0, [0.0, 25.0, 50.0], keep_states=True)

    def refuse(*args):
        raise AssertionError("the complex dissipator ran on a real frame")

    steady_ref = steady_state(sop)

    monkeypatch.setattr("ule.dynamics._dissipator", refuse)
    got = propagate(sop, all_up_state(3), 50.0, [0.0, 25.0, 50.0], keep_states=True)
    assert got.stats == ref.stats
    assert all(np.array_equal(a, b) for a, b in zip(got.states, ref.states))
    steady = steady_state(sop)
    for name in ("residual", "kernel_dimension", "rcond", "iterations",
                 "estimate_iterations"):
        assert getattr(steady, name) == getattr(steady_ref, name)
    assert np.array_equal(steady.state, steady_ref.state)
    with pytest.raises(AssertionError, match="complex dissipator"):
        propagate(random_liouvillian(13)[1], np.eye(4) / 4, 1.0, [1.0])
