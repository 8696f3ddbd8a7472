import numpy as np
import pytest

from oracles import chain_hamiltonian_products, total_sz
from ule import (
    SpinChainSpec,
    build_chain_hamiltonian,
    eigendecompose,
    expectation,
    magnetization,
    run_relaxation,
    site_operator,
)
from ule.spinchain import PAULI_Z, all_up_state, bath_coupling_operator, chain_channels


def test_two_spin_heisenberg_spectrum():
    # singlet at -3 eta / 4, triplet at + eta / 4
    spec = SpinChainSpec(N=2, B_z=0.0)
    h = build_chain_hamiltonian(spec)
    eig = eigendecompose(h)
    assert np.allclose(eig.energies, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)


def test_two_free_spins_spectrum():
    spec = SpinChainSpec(N=2, eta=0.0, B_z=3.0)
    eig = eigendecompose(build_chain_hamiltonian(spec))
    assert np.allclose(eig.energies, [-3.0, 0.0, 0.0, 3.0], atol=1e-12)


def test_chain_construction_sanity():
    spec = SpinChainSpec(N=6)
    h = build_chain_hamiltonian(spec)
    assert h.shape == (64, 64)
    assert np.max(np.abs(h - h.conj().T)) <= 1e-14
    assert np.isfinite(np.linalg.norm(h))


def test_chain_commutes_with_total_sz():
    spec = SpinChainSpec(N=5)
    h = build_chain_hamiltonian(spec)
    sz = total_sz(5)
    comm = h @ sz - sz @ h
    assert np.max(np.abs(comm)) <= 1e-12


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6, 7])
def test_chain_hamiltonian_matches_site_operator_products_bitwise(n_sites):
    for kw in ({}, dict(B_z=0.0), dict(eta=0.37, B_z=-1.3)):
        spec = SpinChainSpec(N=n_sites, **kw)
        assert build_chain_hamiltonian(spec).tobytes() == chain_hamiltonian_products(spec).tobytes()


def test_site_operator_is_the_kron_product():
    # one factor per site: identities around the operator
    op = np.array([[0.5, -0.25j], [0.25j, -0.5]])
    for n in range(1, 6):
        for site in range(1, n + 1):
            factors = [op if k == site else np.eye(2) for k in range(1, n + 1)]
            expected = factors[0]
            for f in factors[1:]:
                expected = np.kron(expected, f)
            assert np.array_equal(site_operator(op, site, n), expected)
    with pytest.raises(ValueError, match="outside"):
        site_operator(op, 4, 3)


def test_spec_validation():
    with pytest.raises(ValueError):
        SpinChainSpec(N=1)
    # no upper bound on N: a spec holds no d x d array, memory bounds N
    assert SpinChainSpec(N=12).dim == 4096
    with pytest.raises(ValueError):
        SpinChainSpec(N=4, gamma1=-0.5)
    with pytest.raises(ValueError):
        SpinChainSpec(N=4, couple_sites=(0, 4))
    spec = SpinChainSpec(N=4)
    assert spec.couple_sites == (1, 4)


def test_magnetization_single_site():
    m = magnetization(1)
    assert np.allclose(m, PAULI_Z / 2)
    assert np.allclose(np.linalg.eigvalsh(m), [-0.5, 0.5])


def test_magnetization_all_up_and_bounds():
    for n in (2, 4):
        m = magnetization(n)
        up = np.zeros(2 ** n)
        up[0] = 1.0
        assert up @ m @ up == pytest.approx(0.5, abs=1e-14)
        ev = np.linalg.eigvalsh(m)
        assert ev.min() >= -0.5 - 1e-12
        assert ev.max() <= 0.5 + 1e-12


def test_magnetization_matches_per_site_sum():
    rng = np.random.default_rng(4)
    n = 4
    psi = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    per_site = sum(expectation(rho, site_operator(PAULI_Z / 2, k, n))
                   for k in range(1, n + 1)) / n
    assert expectation(rho, magnetization(n)) == pytest.approx(per_site, abs=1e-13)


def test_thermal_magnetization_matches_per_site_sum():
    from ule import gibbs_state
    n = 4
    spec = SpinChainSpec(N=n)
    eig = eigendecompose(build_chain_hamiltonian(spec))
    rho_th = gibbs_state(eig, 0.5)
    per_site = sum(expectation(rho_th, site_operator(PAULI_Z / 2, k, n))
                   for k in range(1, n + 1)) / n
    assert expectation(rho_th, magnetization(n)) == pytest.approx(per_site, abs=1e-12)


def test_chain_channels_parameters():
    spec = SpinChainSpec(N=4, T1=2.0, T2=3.0, gamma1=0.1, gamma2=0.0)
    ch1, ch2 = chain_channels(spec)
    assert ch1.bath.temperature == 2.0
    assert ch1.bath.coupling == 0.1
    assert ch2.bath.coupling == 0.0
    assert np.allclose(ch1.coupling_op, bath_coupling_operator(1, 4))
    assert np.allclose(ch2.coupling_op, bath_coupling_operator(4, 4))
    # coupling operator is a unit-axis spin component
    x = ch1.coupling_op
    assert np.max(np.abs(x - x.conj().T)) <= 1e-15
    assert np.allclose(np.sort(np.linalg.eigvalsh(x)), [-0.5] * 8 + [0.5] * 8)


def test_all_up_state_magnetization():
    rho = all_up_state(5)
    assert expectation(rho, magnetization(5)) == pytest.approx(0.5, abs=1e-15)


def test_relaxation_small_chain_structure():
    spec = SpinChainSpec(N=3)
    result = run_relaxation(spec, t_end=200.0, samples=60, tol=1e-8)
    m_series = result.trajectory.observables["M"]
    assert m_series[0] == pytest.approx(0.5, abs=1e-12)
    assert np.all(m_series <= 0.5 + 1e-9)
    assert np.all(m_series >= -0.5 - 1e-9)
    # relaxes toward the thermal value and the steady values agree closely
    # (the slowest chain mode has rate ~0.015, so t = 200 is not fully
    # converged; endpoint-vs-kernel agreement at proper horizons is covered
    # by the steady-state consistency tests)
    dev = result.deviation
    assert abs(dev.observable_steady - dev.observable_thermal) < 0.05
    assert m_series[-1] == pytest.approx(dev.observable_steady, abs=2e-2)
    gap_start = abs(m_series[0] - dev.observable_steady)
    gap_end = abs(m_series[-1] - dev.observable_steady)
    assert gap_end < 0.01 * gap_start
    assert result.steady.kernel_dimension == 1
    assert dev.trace_distance > 1e-4  # visibly non-Gibbs
    assert dev.max_rel_diag_deviation > 10.0 * dev.rho11_rel_gap
    assert result.trajectory.stats["max_trace_drift"] <= 1e-10
    assert result.trajectory.stats["min_sample_eig"] >= -1e-8


def test_relaxation_requires_t_end_for_free_chain():
    spec = SpinChainSpec(N=2, gamma1=0.0)
    with pytest.raises(ValueError):
        run_relaxation(spec)
