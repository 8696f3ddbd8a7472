import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    cluster_gaps_loop,
    jacobi_eigenvalues,
    random_hermitian,
    thermal_shift_residual,
)
from ule import (
    EigenDecomposition,
    SpinChainSpec,
    bohr_decompose,
    build_chain_hamiltonian,
    eigendecompose,
    gibbs_populations,
    gibbs_state,
    hermitize,
    trace_distance,
)
from ule.spinchain import chain_channels

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def test_eigendecompose_already_diagonal():
    eig = eigendecompose(np.diag([0.0, 1.0, 3.0]).astype(complex))
    assert np.allclose(eig.energies, [0.0, 1.0, 3.0])
    assert np.allclose(eig.basis, np.eye(3))


def test_eigendecompose_pauli_x_spectrum():
    eig = eigendecompose(PAULI_X)
    assert np.allclose(eig.energies, [-1.0, 1.0])


def test_eigendecompose_random_against_jacobi_oracle():
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, 4)
    eig = eigendecompose(h)
    assert np.allclose(eig.energies, jacobi_eigenvalues(h), atol=1e-10)
    residual = np.linalg.norm(eig.reconstruct() - h)
    assert residual < 1e-10 * np.linalg.norm(h)


def test_eigendecompose_reconstruction_ensemble():
    # 100 seeded random Hermitian matrices across d = 2..16
    rng = np.random.default_rng(11)
    for trial in range(100):
        d = int(rng.integers(2, 17))
        h = random_hermitian(rng, d)
        eig = eigendecompose(h)
        assert np.linalg.norm(eig.reconstruct() - h) <= 1e-10 * np.linalg.norm(h)
        assert np.all(np.diff(eig.energies) >= 0)


def test_hermitize_is_bitwise_the_hermitian_part():
    rng = np.random.default_rng(5)

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    square = cplx(128, 128)
    inputs = [cplx(32, 32), square, square.T, square[::2, ::2], square[:40, 3:43],
              np.asfortranarray(cplx(7, 7)), rng.standard_normal((6, 6)),
              rng.integers(-5, 5, (4, 4)), np.zeros((0, 0), dtype=complex)]
    assert not any(a.flags.c_contiguous for a in inputs[2:6])
    for a in inputs:
        out = hermitize(a)
        expected = 0.5 * (a + a.conj().T)
        assert out.dtype == expected.dtype
        assert out.flags.c_contiguous
        assert np.array_equal(out, expected)
        assert np.array_equal(out, out.conj().T)


def test_eigendecompose_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="asymmetry"):
        eigendecompose(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_eigendecompose_rejects_non_finite(bad):
    # NaN - NaN is NaN and inf - inf is NaN, so the asymmetry test alone
    # lets both through and eigh returns NaN energies
    h = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError, match="H has non-finite entries"):
        eigendecompose(h)


def test_eigendecompose_deterministic():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 6)
    a = eigendecompose(h)
    b = eigendecompose(h.copy())
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.basis, b.basis)


def test_eigendecompose_phase_convention():
    rng = np.random.default_rng(5)
    eig = eigendecompose(random_hermitian(rng, 5))
    for m in range(5):
        v = eig.basis[:, m]
        j = int(np.argmax(np.abs(v)))
        assert v[j].imag == pytest.approx(0.0, abs=1e-15)
        assert v[j].real > 0


def test_bohr_qubit_lowering_component():
    delta = 1.0
    eig = eigendecompose(delta * np.diag([-0.5, 0.5]).astype(complex))
    bohr = bohr_decompose(PAULI_X, eig)
    assert np.allclose(bohr.frequencies, [-delta, delta])
    # direct projector sandwich: A(delta) = P_g X P_e = |g><e|
    pg, pe = eig.projector(0), eig.projector(1)
    assert np.allclose(bohr.component(1), pg @ PAULI_X @ pe)
    assert np.allclose(bohr.component(1), [[0, 1], [0, 0]])


def test_bohr_diagonal_coupling_single_frequency():
    eig = eigendecompose(np.diag([-0.5, 0.5]).astype(complex))
    x = np.diag([0.7, -0.1]).astype(complex)
    bohr = bohr_decompose(x, eig)
    assert np.allclose(bohr.frequencies, [0.0])
    assert np.allclose(bohr.component(0), x)


def test_bohr_three_level_all_ones():
    eig = eigendecompose(np.diag([0.0, 1.0, 3.0]).astype(complex))
    x = np.ones((3, 3), dtype=complex)
    bohr = bohr_decompose(x, eig)
    assert np.allclose(bohr.frequencies, [-3, -2, -1, 0, 1, 2, 3])
    assert bohr.nfreq == 7
    assert np.allclose(sum(bohr.component(k) for k in range(7)), x, atol=1e-13)
    # enumerate all (m, n) pairs directly
    for k, w in enumerate(bohr.frequencies):
        expected = np.zeros((3, 3), dtype=complex)
        for m in range(3):
            for n in range(3):
                if abs((eig.energies[n] - eig.energies[m]) - w) < 1e-9:
                    expected += eig.projector(m) @ x @ eig.projector(n)
        assert np.allclose(bohr.component(k), expected, atol=1e-13)


def test_bohr_symmetry_and_adjoint_invariants():
    rng = np.random.default_rng(21)
    for _ in range(20):
        d = int(rng.integers(2, 8))
        eig = eigendecompose(random_hermitian(rng, d))
        x = random_hermitian(rng, d)
        bohr = bohr_decompose(x, eig)
        freqs = bohr.frequencies
        assert np.array_equal(freqs, -freqs[::-1])
        xnorm = np.linalg.norm(x)
        parts = [bohr.component(k) for k in range(freqs.size)]
        assert np.linalg.norm(sum(parts) - x) <= 1e-12 * xnorm
        for k in range(freqs.size):
            adj = parts[freqs.size - 1 - k].conj().T
            assert np.linalg.norm(adj - parts[k]) <= 1e-12 * xnorm


def test_bohr_linearity_in_coupling():
    rng = np.random.default_rng(33)
    eig = eigendecompose(random_hermitian(rng, 5))
    x1 = random_hermitian(rng, 5)
    x2 = random_hermitian(rng, 5)
    a, b = 0.7, -2.2
    combined = bohr_decompose(a * x1 + b * x2, eig)
    b1 = bohr_decompose(x1, eig)
    b2 = bohr_decompose(x2, eig)
    assert np.array_equal(combined.frequencies, b1.frequencies)
    for k in range(combined.nfreq):
        assert np.allclose(combined.component(k),
                           a * b1.component(k) + b * b2.component(k), atol=1e-12)


def test_bohr_rejects_ambiguous_binning():
    eig = eigendecompose(np.diag([0.0, 0.3e-12, 0.6e-12]).astype(complex))
    x = np.ones((3, 3), dtype=complex)
    # gaps 0.3e-12 apart, below the 4.5e-13 gap tolerance (2^11 eps), chain
    # into one bin wider than the tolerance
    with pytest.raises(ValueError, match="ambiguous"):
        bohr_decompose(x, eig)


@pytest.mark.parametrize("n_sites", [3, 4, 5, 6, 7])
def test_cluster_gaps_match_loop_bitwise(n_sites):
    # the chain's raw gaps at three field values (the zero field has many
    # degenerate gaps, so clusters of 8 and more members), and rounded
    # random values with jitter below the tolerance
    from ule.operators import _cluster_gaps, gap_tolerance
    cases = []
    for b_z in (8.0, 0.0, -1.3):
        spec = SpinChainSpec(N=n_sites, B_z=b_z)
        energies = eigendecompose(build_chain_hamiltonian(spec)).energies
        cases.append(((energies[None, :] - energies[:, None]).ravel(), gap_tolerance(energies)))
    rng = np.random.default_rng(n_sites)
    cases.append((np.round(rng.uniform(-5, 5, 400), 2) + rng.uniform(0, 1e-11, 400), 1e-9))
    sizes = []
    for values, eps in cases:
        labels, reps = _cluster_gaps(values, eps)
        ref_labels, ref_reps = cluster_gaps_loop(values, eps)
        assert labels.tobytes() == ref_labels.tobytes()
        assert reps.tobytes() == ref_reps.tobytes()
        sizes.extend(np.bincount(labels).tolist())
    assert min(sizes) < 8 <= max(sizes)


def test_cluster_gaps_names_the_first_wide_cluster():
    from ule.operators import _cluster_gaps
    values = np.array([0.0, 0.6, 1.2, 5.0, 9.0, 9.7, 10.4, 10.9])
    for call in (_cluster_gaps, cluster_gaps_loop):
        with pytest.raises(ValueError, match="spread 1.200e[+]00 exceeds gap tolerance 7.000e-01"):
            call(values, 0.7)


def test_bohr_rejects_parts_not_summing_back():
    # a non-unitary "eigenbasis" maps X to 16 X on the way back
    eig = EigenDecomposition(energies=np.array([-0.5, 0.5]), basis=2.0 * np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="sum back"):
        bohr_decompose(PAULI_X, eig)


def test_bohr_rejects_unmirrored_bins(monkeypatch):
    import ule.operators
    real = ule.operators._cluster_gaps

    def skewed(values, eps):
        labels, reps = real(values, eps)
        labels = labels.copy()
        labels[1] = labels[5]  # [0, 1] (gap 1) joins the bin of [1, 2] (gap 2)
        return labels, reps

    monkeypatch.setattr(ule.operators, "_cluster_gaps", skewed)
    eig = eigendecompose(np.diag([0.0, 1.0, 3.0]).astype(complex))
    with pytest.raises(ValueError, match=r"A\(-w\) != A\(w\)\^dagger"):
        bohr_decompose(np.ones((3, 3), dtype=complex), eig)


def test_bohr_decompose_memory_on_n6_chain():
    # d = 64: one complex d x d array is 64 KiB; a stack of all 1,855 A(w)
    # would take 122 MB
    spec = SpinChainSpec(N=6)
    eig = eigendecompose(build_chain_hamiltonian(spec))
    x = chain_channels(spec)[0].coupling_op
    tracemalloc.start()
    try:
        bohr = bohr_decompose(x, eig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bohr.nfreq == 1855
    assert peak < 5e6, f"bohr_decompose peak {peak / 1e6:.1f} MB"


def test_gibbs_infinite_temperature_is_maximally_mixed():
    rng = np.random.default_rng(2)
    eig = eigendecompose(random_hermitian(rng, 4))
    assert np.allclose(gibbs_state(eig, 0.0), np.eye(4) / 4.0)


def test_gibbs_qubit_scalar_populations():
    eig = eigendecompose(np.diag([-0.5, 0.5]).astype(complex))
    p = gibbs_populations(eig, 2.0)
    z = math.e + 1.0 / math.e
    assert p[0] == pytest.approx(math.e / z, rel=1e-14)
    assert p[1] == pytest.approx(1.0 / math.e / z, rel=1e-14)


def test_gibbs_zero_temperature_ground_projector():
    rng = np.random.default_rng(9)
    eig = eigendecompose(random_hermitian(rng, 5))
    rho = gibbs_state(eig, 1e6)
    assert np.linalg.norm(rho - eig.projector(0)) < 1e-12


def test_gibbs_commutes_with_hamiltonian():
    rng = np.random.default_rng(14)
    h = random_hermitian(rng, 6)
    eig = eigendecompose(h)
    rho = gibbs_state(eig, 1.3)
    assert np.linalg.norm(rho @ h - h @ rho) < 1e-12 * np.linalg.norm(h)


def test_thermal_shift_identity_on_components():
    # e^(beta w) amplifies rounding, so keep beta * span in a sane regime
    rng = np.random.default_rng(41)
    for beta in (0.3, 1.0, 2.0):
        h = random_hermitian(rng, 5, scale=0.5)
        eig = eigendecompose(h)
        x = random_hermitian(rng, 5)
        bohr = bohr_decompose(x, eig)
        rho_th = gibbs_state(eig, beta)
        for k, w in enumerate(bohr.frequencies):
            a = bohr.component(k)
            res = thermal_shift_residual(rho_th, a, w, beta)
            assert res <= 1e-10 * max(np.linalg.norm(a), 1e-300)


def test_thermal_shift_zero_frequency_commutes():
    eig = eigendecompose(np.diag([0.0, 1.0, 3.0]).astype(complex))
    x = np.diag([0.2, -0.4, 1.0]).astype(complex)
    bohr = bohr_decompose(x, eig)
    rho_th = gibbs_state(eig, 1.0)
    assert bohr.nfreq == 1
    assert thermal_shift_residual(rho_th, bohr.component(0), 0.0, 1.0) < 1e-14


def test_thermal_shift_mismatched_frequency_is_positive():
    delta = 1.0
    eig = eigendecompose(delta * np.diag([-0.5, 0.5]).astype(complex))
    bohr = bohr_decompose(PAULI_X, eig)
    rho_th = gibbs_state(eig, 1.0)
    good = thermal_shift_residual(rho_th, bohr.component(1), delta, 1.0)
    bad = thermal_shift_residual(rho_th, bohr.component(1), -delta, 1.0)
    assert good < 1e-12
    assert bad > 1e-3


def test_trace_distance_basic():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.5, 0.5]).astype(complex)
    assert trace_distance(rho, sigma) == pytest.approx(0.5, rel=1e-12)
    assert trace_distance(rho, rho) == 0.0


def test_bohr_decompose_refuses_a_coupling_of_another_dimension():
    eig = eigendecompose(np.diag([0.0, 1.0]).astype(complex))
    with pytest.raises(ValueError, match="X has dim 3"):
        bohr_decompose(np.eye(3), eig)


@pytest.mark.parametrize("beta", [-1.0, float("nan")])
def test_gibbs_populations_refuses_a_bad_beta(beta):
    eig = eigendecompose(np.diag([0.0, 1.0]).astype(complex))
    with pytest.raises(ValueError, match="beta must be finite and non-negative"):
        gibbs_populations(eig, beta)
