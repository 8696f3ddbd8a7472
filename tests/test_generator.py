import numpy as np
import pytest

from oracles import jump_operator_bohr_sum, lamb_shift_bohr_sum, random_hermitian
from ule import (
    BathSpec,
    NoiseChannel,
    QuadratureSpec,
    bohr_decompose,
    build_generator,
    build_jump_operator,
    build_lamb_shift,
    build_liouvillian,
    build_secular_generator,
    channels_compose,
    eigendecompose,
    f_table,
    gibbs_state,
    jump_spectral,
    unvec,
    vec,
)
from ule.generator import lamb_shift_pairs

BATH = BathSpec(temperature=2.0, coupling=0.1, cutoff=100.0)


def qubit_system(delta=1.0):
    h = delta * np.diag([-0.5, 0.5]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    return eigendecompose(h), NoiseChannel(coupling_op=x, bath=BATH)


def test_jump_operator_zero_coupling_operator():
    eig, _ = qubit_system()
    ch = NoiseChannel(coupling_op=np.zeros((2, 2)), bath=BATH)
    assert np.all(build_jump_operator(eig, ch) == 0)


def test_jump_operator_diagonal_coupling():
    eig = eigendecompose(np.diag([0.0, 1.0, 3.0]).astype(complex))
    x = np.diag([0.5, -1.0, 2.0]).astype(complex)
    ch = NoiseChannel(coupling_op=x, bath=BATH)
    expected = 2.0 * np.pi * np.sqrt(BATH.coupling) * jump_spectral(BATH, 0.0) * x
    assert np.allclose(build_jump_operator(eig, ch), expected, atol=1e-14)


def test_jump_operator_qubit_elementwise():
    eig, ch = qubit_system()
    l = build_jump_operator(eig, ch)
    pref = 2.0 * np.pi * np.sqrt(BATH.coupling)
    # |g><e| element sees gap +1, |e><g| sees gap -1
    expected = np.array([
        [0.0, pref * jump_spectral(BATH, 1.0)],
        [pref * jump_spectral(BATH, -1.0), 0.0],
    ])
    assert np.allclose(l, expected, atol=1e-14)


def test_jump_operator_matches_bohr_sum_random_systems():
    rng = np.random.default_rng(57)
    for _ in range(12):
        d = int(rng.integers(2, 9))
        eig = eigendecompose(random_hermitian(rng, d))
        x = random_hermitian(rng, d)
        ch = NoiseChannel(coupling_op=x, bath=BATH)
        bohr = bohr_decompose(x, eig)
        l_elem = build_jump_operator(eig, ch)
        l_bohr = jump_operator_bohr_sum(bohr, BATH, jump_spectral)
        scale = max(np.linalg.norm(l_elem), 1.0)
        assert np.linalg.norm(l_elem - l_bohr) <= 1e-12 * scale
        # adjoint form: L^dag = 2 pi sqrt(gamma) sum_w g(w) A(w)^dag
        adj = sum(jump_spectral(BATH, w) * bohr.components[k].conj().T
                  for k, w in enumerate(bohr.frequencies))
        adj = 2.0 * np.pi * np.sqrt(BATH.coupling) * adj
        assert np.linalg.norm(l_elem.conj().T - adj) <= 1e-12 * scale


def test_lamb_shift_trivial_cases():
    eig, _ = qubit_system()
    zero_x = NoiseChannel(coupling_op=np.zeros((2, 2)), bath=BATH)
    assert np.all(build_lamb_shift(eig, zero_x) == 0)
    free = BathSpec(temperature=2.0, coupling=0.0, cutoff=100.0)
    ch = NoiseChannel(coupling_op=np.array([[0, 1], [1, 0]], dtype=complex), bath=free)
    assert np.all(build_lamb_shift(eig, ch) == 0)


def test_lamb_shift_level_sum_vs_bohr_sum():
    # two independent summation structures over the same cached f values
    rng = np.random.default_rng(71)
    eig = eigendecompose(np.diag([0.0, 1.0, 3.0]).astype(complex))
    x = random_hermitian(rng, 3).real.astype(complex)  # real symmetric
    ch = NoiseChannel(coupling_op=x, bath=BATH)
    quad = QuadratureSpec()
    lam3 = build_lamb_shift(eig, ch, quad)
    bohr = bohr_decompose(x, eig)
    lam7 = lamb_shift_bohr_sum(bohr, f_table(BATH, lamb_shift_pairs(bohr), quad))
    assert np.linalg.norm(lam3 - lam7) <= 1e-10 * np.linalg.norm(lam3)


def test_lamb_shift_hermitian_random_systems():
    rng = np.random.default_rng(91)
    for _ in range(4):
        d = int(rng.integers(2, 6))
        eig = eigendecompose(random_hermitian(rng, d))
        x = random_hermitian(rng, d)
        lam = build_lamb_shift(eig, NoiseChannel(coupling_op=x, bath=BATH))
        assert np.linalg.norm(lam - lam.conj().T) <= 1e-8 * max(np.linalg.norm(lam), 1e-300)


def test_liouvillian_pure_commutator_spectrum():
    eig, _ = qubit_system(delta=2.0)
    gen = build_generator(eig, [], include_lamb_shift=False)
    sop = build_liouvillian(gen)
    ev = np.sort_complex(np.linalg.eigvals(sop.matrix))
    assert np.allclose(ev.real, 0.0, atol=1e-12)
    assert np.allclose(np.sort(ev.imag), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_liouvillian_matches_matrix_free_action():
    eig, ch = qubit_system()
    gen = build_generator(eig, ch)
    sop = build_liouvillian(gen)
    rng = np.random.default_rng(5)
    h_eff = gen.hamiltonian + gen.lamb_shift
    l = gen.jumps[0]
    for _ in range(20):
        rho = random_hermitian(rng, 2)
        direct = (-1j * (h_eff @ rho - rho @ h_eff)
                  + l @ rho @ l.conj().T
                  - 0.5 * (l.conj().T @ l @ rho + rho @ l.conj().T @ l))
        via_matrix = unvec(sop.matrix @ vec(rho), 2)
        via_terms = sop.apply_matrix(rho)
        assert np.allclose(via_matrix, direct, atol=1e-12)
        assert np.allclose(via_terms, direct, atol=1e-12)


def test_apply_matrix_matches_dense_matrix_on_non_hermitian_inputs():
    rng = np.random.default_rng(29)
    d = 4
    eig = eigendecompose(random_hermitian(rng, d))
    x1, x2 = random_hermitian(rng, d), random_hermitian(rng, d)
    ch1 = NoiseChannel(coupling_op=x1, bath=BATH)
    ch2 = NoiseChannel(coupling_op=x2,
                       bath=BathSpec(temperature=1.0, coupling=0.05, cutoff=100.0))
    full = build_liouvillian(build_generator(eig, ch1))
    secular = build_secular_generator(bohr_decompose(x1, eig), ch1)
    composed = build_liouvillian(channels_compose(
        [build_generator(eig, ch, include_lamb_shift=False) for ch in (ch1, ch2)]))
    assert len(composed.jumps) == 2
    for sop in (full, secular, composed):
        for _ in range(5):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            via_matrix = unvec(sop.matrix @ vec(a), d)
            assert np.max(np.abs(sop.apply_matrix(a) - via_matrix)) <= 1e-12


def test_liouvillian_trace_preservation():
    rng = np.random.default_rng(13)
    for _ in range(6):
        d = int(rng.integers(2, 7))
        eig = eigendecompose(random_hermitian(rng, d))
        ch = NoiseChannel(coupling_op=random_hermitian(rng, d), bath=BATH)
        sop = build_liouvillian(build_generator(eig, ch, include_lamb_shift=False))
        assert sop.trace_preservation_defect() <= 1e-10 * max(1.0, np.max(np.abs(sop.matrix)))


def test_lamb_shift_flag_switches_coherent_part():
    eig, ch = qubit_system()
    gen = build_generator(eig, ch, include_lamb_shift=True)
    with_lamb = build_liouvillian(gen)
    without = build_liouvillian(build_generator(eig, ch, include_lamb_shift=False))
    diff = with_lamb.matrix - without.matrix
    lam_only = -1j * (np.kron(np.eye(2), gen.lamb_shift)
                      - np.kron(gen.lamb_shift.T, np.eye(2)))
    assert np.allclose(diff, lam_only, atol=1e-12)


def test_secular_zero_coupling_operator():
    eig, _ = qubit_system()
    bohr = bohr_decompose(np.zeros((2, 2)), eig)
    ch = NoiseChannel(coupling_op=np.zeros((2, 2)), bath=BATH)
    sop = build_secular_generator(bohr, ch)
    commutator_only = build_liouvillian(build_generator(eig, [], include_lamb_shift=False))
    assert np.allclose(sop.matrix, commutator_only.matrix, atol=1e-14)


def test_secular_matches_full_for_qubit_sigma_x_population_sector():
    # A(d)^dag A(-d) = 0 kills every anticommutator cross term, so the two
    # generators agree on population-sector states and share the thermal
    # kernel; the lone surviving difference is the coherence sandwich
    # L(d) rho L(-d)^dag, which population states never feed.
    eig, ch = qubit_system()
    bohr = bohr_decompose(ch.coupling_op, eig)
    full = build_liouvillian(build_generator(eig, ch))
    secular = build_secular_generator(bohr, ch, include_lamb_shift=True)
    for pops in ((1.0, 0.0), (0.0, 1.0), (0.3, 0.7)):
        rho = eig.basis @ np.diag(pops).astype(complex) @ eig.basis.conj().T
        assert np.allclose(full.apply_matrix(rho), secular.apply_matrix(rho), atol=1e-12)
    rho_th = gibbs_state(eig, BATH.beta)
    assert np.linalg.norm(full.matrix @ vec(rho_th)) <= 1e-12
    assert np.linalg.norm(secular.matrix @ vec(rho_th)) <= 1e-12
    # the coherence cross block is the only difference
    diff = full.matrix - secular.matrix
    offdiag_pairs = [(1, 2), (2, 1)]
    mask = np.ones_like(diff, dtype=bool)
    for i, j in offdiag_pairs:
        mask[i, j] = False
    assert np.max(np.abs(diff[mask])) <= 1e-12


def test_secular_annihilates_gibbs_full_ule_does_not():
    rng = np.random.default_rng(3)
    eig = eigendecompose(np.diag([0.0, 1.0, 3.0]).astype(complex))
    x = random_hermitian(rng, 3)
    ch = NoiseChannel(coupling_op=x, bath=BATH)
    bohr = bohr_decompose(x, eig)
    rho_th = gibbs_state(eig, BATH.beta)
    secular = build_secular_generator(bohr, ch)
    resid_sec = np.linalg.norm(secular.matrix @ vec(rho_th))
    full = build_liouvillian(build_generator(eig, ch, include_lamb_shift=False))
    resid_full = np.linalg.norm(full.matrix @ vec(rho_th))
    assert resid_sec <= 1e-10
    assert resid_full > 1e-4


def test_channels_compose_identity_and_zero_channel():
    eig, ch = qubit_system()
    gen = build_generator(eig, ch, include_lamb_shift=False)
    assert channels_compose([gen]) is not None
    single = build_liouvillian(channels_compose([gen]))
    dead_bath = BathSpec(temperature=1.0, coupling=0.0, cutoff=100.0)
    dead = build_generator(eig, NoiseChannel(coupling_op=ch.coupling_op, bath=dead_bath),
                           include_lamb_shift=False)
    double = build_liouvillian(channels_compose([gen, dead]))
    assert np.max(np.abs(single.matrix - double.matrix)) <= 1e-14
    assert len(double.jumps) == 1


def test_channels_compose_two_equal_channels_double_dissipator():
    eig, ch = qubit_system()
    gen = build_generator(eig, ch, include_lamb_shift=False)
    one = build_liouvillian(gen)
    two = build_liouvillian(channels_compose([gen, gen]))
    commutator = build_liouvillian(build_generator(eig, [], include_lamb_shift=False))
    assert np.allclose(two.matrix - commutator.matrix,
                       2.0 * (one.matrix - commutator.matrix), atol=1e-13)


def test_channels_compose_rejects_mismatched_hamiltonians():
    eig_a, ch = qubit_system(delta=1.0)
    eig_b, _ = qubit_system(delta=2.0)
    gen_a = build_generator(eig_a, ch, include_lamb_shift=False)
    gen_b = build_generator(eig_b, ch, include_lamb_shift=False)
    with pytest.raises(ValueError, match="Hamiltonian"):
        channels_compose([gen_a, gen_b])
