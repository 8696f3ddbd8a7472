import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import (
    bohr_double_sum_loop,
    jump_operator_bohr_sum,
    kron_superoperator,
    lamb_shift_bins_unique,
    lamb_shift_bohr_sum,
    lamb_shift_f,
    lamb_shift_live_pairs,
    lamb_shift_pairs_unique,
    lamb_shift_table,
    random_hermitian,
    secular_lamb_shift_loop,
    secular_parts_pairs,
    unvec,
    vec,
)
from ule import (
    BathSpec,
    NoiseChannel,
    QuadratureSpec,
    SpinChainSpec,
    Superoperator,
    bohr_decompose,
    build_chain_hamiltonian,
    build_jump_operator,
    build_lamb_shift,
    build_liouvillian,
    build_secular_generator,
    eigendecompose,
    f_values,
    gibbs_state,
    hermitize,
    jump_spectral,
    three_level_baseline,
)
from ule import generator
from ule.bath import QuadratureError
from ule.generator import MemoryLimitError, _secular_parts, lamb_shift_eigen
from ule.spinchain import bath_coupling_operator, chain_channels

BATH = BathSpec(temperature=2.0, coupling=0.1, cutoff=100.0)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
        l_bohr = jump_operator_bohr_sum(bohr, x, BATH, jump_spectral)
        scale = max(np.linalg.norm(l_elem), 1.0)
        assert np.linalg.norm(l_elem - l_bohr) <= 1e-12 * scale
        # adjoint form: L^dag = 2 pi sqrt(gamma) sum_w g(w) A(w)^dag
        adj = sum(jump_spectral(BATH, w) * bohr.component(k).conj().T
                  for k, w in enumerate(bohr.frequencies))
        adj = 2.0 * np.pi * np.sqrt(BATH.coupling) * adj
        assert np.linalg.norm(l_elem.conj().T - adj) <= 1e-12 * scale


def three_level_baseline_system(bath=BATH):
    system = three_level_baseline()
    return (eigendecompose(system.hamiltonian),
            NoiseChannel(coupling_op=system.coupling_op, bath=bath))


def lamb_shift(eig, channel, quad=QuadratureSpec()):
    xe = hermitize(eig.to_eigenbasis(channel.coupling_op))  # as `bohr_decompose` holds it
    return build_lamb_shift(eig, lamb_shift_eigen(eig, xe, channel.bath, quad)[0])


def test_lamb_shift_trivial_cases():
    eig, _ = qubit_system()
    zero_x = NoiseChannel(coupling_op=np.zeros((2, 2)), bath=BATH)
    assert np.all(lamb_shift(eig, zero_x) == 0)
    free = BathSpec(temperature=2.0, coupling=0.0, cutoff=100.0)
    ch = NoiseChannel(coupling_op=np.array([[0, 1], [1, 0]], dtype=complex), bath=free)
    assert np.all(lamb_shift(eig, ch) == 0)


def test_lamb_shift_level_sum_vs_bohr_sum():
    # the w-integral of d x d products against the Bohr double sum over
    # f values from `f_values`
    rng = np.random.default_rng(71)
    eig = eigendecompose(np.diag([0.0, 1.0, 3.0]).astype(complex))
    x = random_hermitian(rng, 3).real.astype(complex)  # real symmetric
    ch = NoiseChannel(coupling_op=x, bath=BATH)
    quad = QuadratureSpec()
    lam3 = lamb_shift(eig, ch, quad)
    bohr = bohr_decompose(x, eig)
    e1, e2 = lamb_shift_pairs_unique(bohr)
    table = dict(zip(zip(e1.tolist(), e2.tolist()), f_values(BATH, e1, e2, quad).tolist()))
    lam7 = lamb_shift_bohr_sum(bohr, x, table)
    assert np.linalg.norm(lam3 - lam7) <= 1e-10 * np.linalg.norm(lam3)


def chain_bohr(n_sites):
    spec = SpinChainSpec(N=n_sites)
    x = chain_channels(spec)[0].coupling_op
    return bohr_decompose(x, eigendecompose(build_chain_hamiltonian(spec))), x


def chain_and_random_systems():
    """(bohr, X) for the N = 3 chain, whose coupling has exact zeros in the
    eigenbasis, and for random (H, X) with d = 2, 3, 5."""
    systems = [chain_bohr(3)]
    rng = np.random.default_rng(61)
    for d in (2, 3, 5):
        x = random_hermitian(rng, d)
        systems.append((bohr_decompose(x, eigendecompose(random_hermitian(rng, d))), x))
    return systems


@pytest.fixture
def f_numbering(monkeypatch):
    """Replace the f kernel behind the table oracle `lamb_shift_f` by the
    numbers 1, 2, ... of the pairs it is handed; every (E1, E2) array pair
    it sees is recorded."""
    calls = []

    def numbering(bath, e1, e2, quad):
        calls.append((e1, e2))
        return np.arange(1.0, e1.size + 1.0)

    monkeypatch.setattr(oracles, "f_values_gk15", numbering)
    return calls


def test_lamb_shift_pairs_are_the_live_pairs(f_numbering):
    # f is evaluated once at each (w1, w2) whose product A(w1) A(w2) is
    # nonzero: the pairs the Bohr-sum oracle looks up
    for bohr, x in chain_and_random_systems():
        f_numbering.clear()
        lamb_shift_f(bohr, BATH)
        [(e1, e2)] = f_numbering
        pairs = list(zip(e1.tolist(), e2.tolist()))
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == set(lamb_shift_live_pairs(bohr, x))


def test_lamb_shift_bins_match_unique_oracle(f_numbering):
    # f_values gets the sorted distinct pairs of the d^3 live triple codes,
    # and each live triple reads back the value of its own pair, on the
    # N = 4 and N = 5 chains and the random systems
    systems = chain_and_random_systems() + [chain_bohr(4), chain_bohr(5)]
    for bohr, _ in systems:
        f = lamb_shift_f(bohr, BATH)
        i, j = lamb_shift_bins_unique(bohr)
        e1, e2 = f_numbering[-1]
        assert np.array_equal(e1, bohr.frequencies[i]) and np.array_equal(e2, bohr.frequencies[j])
        bins = bohr.bin_index
        live = bohr.coupling_eigen != 0
        live = live[:, :, None] & live[None, :, :]
        codes = (bins[:, :, None] * bohr.nfreq + bins[None, :, :])[live]
        assert np.array_equal(f[live], np.searchsorted(i * bohr.nfreq + j, codes) + 1.0)
        assert not np.any(f[~live])
    assert len(f_numbering) == len(systems)
    assert i.size == 19085


def double_sum_systems():
    """Random (H, X) for d = 2..6, and the N = 3 chain, whose degenerate
    Bohr gaps share bins and whose coupling leaves some gap bins empty."""
    rng = np.random.default_rng(43)
    systems = []
    for d in range(2, 7):
        x = random_hermitian(rng, d)
        systems.append((bohr_decompose(x, eigendecompose(random_hermitian(rng, d))), x))
    eig = eigendecompose(build_chain_hamiltonian(SpinChainSpec(N=3)))
    x = bath_coupling_operator(1, 3)
    systems.append((bohr_decompose(x, eig), x))
    return systems


def test_lamb_shift_double_sum_matches_component_loop(monkeypatch):
    # f replaced by a grid with distinct values in every cell: the sum of
    # the table oracle over the level triples is sum_ij grid[i, j]
    # A(w_i) A(w_j), the loop over the A(w) of the oracle
    rng = np.random.default_rng(7)
    systems = double_sum_systems()
    chain = systems[-1][0]
    gaps = chain.eig.energies[None, :] - chain.eig.energies[:, None]
    assert chain.nfreq < np.unique(np.round(gaps, 9)).size  # dropped zero bins
    for bohr, x in systems:
        w = bohr.frequencies
        grid = rng.standard_normal((w.size, w.size))
        monkeypatch.setattr(oracles, "f_values_gk15", lambda bath, e1, e2, quad: grid[
            np.searchsorted(w, e1), np.searchsorted(w, e2)])
        lam_eigen, _ = lamb_shift_table(bohr, BATH)
        got = bohr.eig.from_eigenbasis(lam_eigen)
        want = bohr_double_sum_loop(bohr, x, grid)
        assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1.0)


def test_lamb_shift_matched_values_are_f_at_w_minus_w():
    # fmatch[m, l] = f(E_l - E_m, E_m - E_l) from the nodes of the Lamb
    # shift agrees with `f_values` at that pair within the value's target,
    # at every level pair, on the chain at N = 3-5 from T1 = 0.05 to 50 and
    # on the random systems
    quad = QuadratureSpec()
    systems = [(bohr, BATH) for bohr, _ in chain_and_random_systems()]
    for n_sites in (3, 4, 5):
        for t1 in (0.05, 0.2, 20.0, 50.0):
            bohr, _ = chain_bohr(n_sites)
            systems.append((bohr, BathSpec(temperature=t1, coupling=0.1, cutoff=100.0)))
    for bohr, bath in systems:
        e = bohr.eig.energies
        gaps = (e[None, :] - e[:, None]).ravel()
        _, fmatch = lamb_shift_eigen(bohr.eig, bohr.coupling_eigen, bath, quad)
        want = f_values(bath, gaps, -gaps, quad).reshape(fmatch.shape)
        target = np.maximum(2.0 * np.pi * bath.coupling * quad.atol, quad.rtol * np.abs(want))
        assert np.all(np.abs(fmatch - want) <= target)


def test_lamb_shift_bins_check_grid_memory_first(monkeypatch):
    # at N = 5 the table oracle's guard reserves 16 tables of 32^3 float64
    # cells, 4.2 MB; 1 MB is too little, and no array of d^3 cells may
    # exist yet
    bohr, _ = chain_bohr(5)
    monkeypatch.setattr(generator, "_physical_memory", lambda: 2 ** 20)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryLimitError, match="32\\^3 level triples"):
            lamb_shift_f(bohr, BATH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 ** 3


def test_liouvillian_lamb_shift_needs_no_bohr_decomposition(monkeypatch):
    # the Lamb shift is a w-integral over the exact level gaps: with physical
    # memory read as 1 kB (no guard sizes it) and no Bohr decomposition,
    # `build_liouvillian` adds it to H
    eig, ch = three_level_baseline_system()
    monkeypatch.setattr(generator, "_physical_memory", lambda: 2 ** 10)

    def no_work(*args):
        raise AssertionError("a Bohr decomposition in the Lamb shift")

    monkeypatch.setattr("ule.operators._cluster_gaps", no_work)
    sop = build_liouvillian(eig, [ch])
    assert np.array_equal(sop.hamiltonian, hermitize(eig.reconstruct() + lamb_shift(eig, ch)))
    assert np.any(sop.hamiltonian != build_liouvillian(eig, [ch], lamb_shift=None).hamiltonian)


def test_secular_generator_zero_coupling_makes_no_f_call(monkeypatch):
    # f vanishes at zero coupling, so the secular Lamb shift is skipped
    # there as in `build_liouvillian`: no Lamb-shift quadrature and H_eff = H
    def no_f(*args):
        raise AssertionError("Lamb-shift quadrature on a zero-coupling channel")

    monkeypatch.setattr(generator, "lamb_shift_eigen", no_f)
    eig, ch = three_level_baseline_system(BathSpec(temperature=2.0, coupling=0.0, cutoff=100.0))
    sop = build_secular_generator(bohr_decompose(ch.coupling_op, eig), ch)
    assert np.array_equal(sop.hamiltonian, hermitize(eig.reconstruct()))
    assert sop.jumps == []


def test_secular_generator_makes_no_f_values_call(monkeypatch):
    # the secular Lamb shift reads f(w, -w) off the nodes of the Lamb
    # shift's w rule; `f_values` is not called
    def no_f(*args):
        raise AssertionError("f_values in the secular generator")

    monkeypatch.setattr("ule.bath.f_values", no_f)
    eig, ch = three_level_baseline_system()
    sop = build_secular_generator(bohr_decompose(ch.coupling_op, eig), ch)
    assert np.any(sop.hamiltonian != hermitize(eig.reconstruct()))


def test_secular_parts_match_loop_oracle():
    # distinct f(w_k, -w_k) for every frequency: Lam_sec must pair each
    # with its own A(w_k) A(-w_k)
    rng = np.random.default_rng(67)
    baseline = three_level_baseline()
    systems = [(bohr_decompose(baseline.coupling_op, eigendecompose(baseline.hamiltonian)),
                baseline.coupling_op)] + chain_and_random_systems()[:1]
    for bohr, x in systems:
        fmatch = rng.standard_normal(bohr.nfreq)
        c, lam, _ = _secular_parts(bohr, BATH, fmatch[bohr.bin_index])
        want = secular_lamb_shift_loop(bohr, x, fmatch)
        assert (np.linalg.norm(bohr.eig.from_eigenbasis(lam) - want)
                <= 1e-12 * np.linalg.norm(want))
        jump_sum = jump_operator_bohr_sum(bohr, x, BATH, jump_spectral)
        jumps = sum(c[k] * bohr.component(k) for k in range(bohr.nfreq))
        assert np.linalg.norm(jumps - jump_sum) <= 1e-12 * np.linalg.norm(jump_sum)


def secular_product_systems():
    """(bohr, label) for the masked-product check: a nondegenerate H with a
    zero-diagonal X (its zero bin is dropped), equally spaced levels,
    repeated levels, and the chain at N = 3-6 with B_z = 0, 3.7 and 8 and
    with eta = 0."""
    rng = np.random.default_rng(59)
    x = random_hermitian(rng, 4)
    np.fill_diagonal(x, 0.0)
    cases = [(np.diag([0.0, 1.0, 3.0, 7.0]), x, "zero bin dropped"),
             (np.diag([0.0, 1.0, 2.0, 3.0]), random_hermitian(rng, 4), "equal spacing"),
             (np.diag([0.0, 1.0, 1.0, 2.0, 2.0]), random_hermitian(rng, 5), "repeated levels")]
    for n_sites in (3, 4, 5, 6):
        for b_z, eta in ((0.0, 1.0), (3.7, 1.0), (8.0, 1.0), (8.0, 0.0)):
            spec = SpinChainSpec(N=n_sites, B_z=b_z, eta=eta)
            cases.append((build_chain_hamiltonian(spec), chain_channels(spec)[0].coupling_op,
                          f"chain N = {n_sites}, B_z = {b_z}, eta = {eta}"))
    return [(bohr_decompose(x, eigendecompose(h)), label) for h, x, label in cases]


def test_secular_products_match_pair_oracle():
    # on states that commute with H the three masked d x d products are
    # the same-bin pair scatter; Lam is the same on any state
    rng = np.random.default_rng(61)
    systems = secular_product_systems()
    assert 0.0 not in systems[0][0].frequencies
    for bohr, label in systems:
        energies = bohr.eig.energies
        same = np.abs(energies[:, None] - energies[None, :]) < 1e-9
        y = same * random_hermitian(rng, bohr.dim)
        fmatch = rng.standard_normal(bohr.nfreq)
        _, lam, dissipator = _secular_parts(bohr, BATH, fmatch[bohr.bin_index])
        want_lam, want_dissipator = secular_parts_pairs(bohr, BATH, fmatch)
        for got, want in ((lam, want_lam), (dissipator(y), want_dissipator(y))):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), label


def test_lamb_shift_hermitian_random_systems():
    rng = np.random.default_rng(91)
    for _ in range(4):
        d = int(rng.integers(2, 6))
        eig = eigendecompose(random_hermitian(rng, d))
        x = random_hermitian(rng, d)
        lam = lamb_shift(eig, NoiseChannel(coupling_op=x, bath=BATH))
        assert np.linalg.norm(lam - lam.conj().T) <= 1e-8 * max(np.linalg.norm(lam), 1e-300)


def test_superoperator_constructor_hermitizes_and_drops_zero_jumps():
    # the invariant holds for a Superoperator built directly, not only for
    # the generators the builders return
    rng = np.random.default_rng(37)
    d = 3
    h = random_hermitian(rng, d) + 1e-9 * rng.standard_normal((d, d))
    l = random_hermitian(rng, d)
    sop = Superoperator(h, [l, np.zeros((d, d), dtype=complex)])
    assert np.array_equal(sop.hamiltonian, sop.hamiltonian.conj().T)
    assert np.array_equal(sop.hamiltonian, hermitize(h))
    assert len(sop.jumps) == 1 and sop.jumps[0] is l


def test_generator_rejects_non_finite_operators():
    h = np.diag([0.0, 1.0]).astype(complex)
    x = np.array([[0.0, np.nan], [np.nan, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="X has non-finite entries"):
        NoiseChannel(coupling_op=x, bath=BATH)
    with pytest.raises(ValueError, match="jump operator has non-finite entries"):
        Superoperator(h, [x])
    with pytest.raises(ValueError, match="H_eff has non-finite entries"):
        Superoperator(h + np.diag([np.inf, 0.0]), [])


def test_trace_preservation_defect_is_the_anti_hermitian_part():
    rng = np.random.default_rng(29)
    d = 4
    sop = Superoperator(random_hermitian(rng, d), [random_hermitian(rng, d) + 1j * np.eye(d)])
    assert sop.trace_preservation_defect() == 0.0
    # a generator broken after construction reports its defect and refuses to act
    broken = Superoperator(sop.hamiltonian, sop.jumps)
    object.__setattr__(broken, "hamiltonian", sop.hamiltonian + 1e-6j * np.eye(d))
    assert broken.trace_preservation_defect() == pytest.approx(2e-6, rel=1e-12)
    with pytest.raises(ValueError, match="not trace preserving"):
        broken.apply_matrix(np.eye(d))
    object.__setattr__(broken, "hamiltonian", sop.hamiltonian + np.nan)
    with pytest.raises(ValueError, match="not trace preserving"):
        broken.apply_matrix(np.eye(d))


def test_liouvillian_pure_commutator_spectrum():
    eig, _ = qubit_system(delta=2.0)
    sop = build_liouvillian(eig, [], lamb_shift=None)
    ev = np.sort_complex(np.linalg.eigvals(kron_superoperator(sop)))
    assert np.allclose(ev.real, 0.0, atol=1e-12)
    assert np.allclose(np.sort(ev.imag), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_liouvillian_matches_matrix_free_action():
    eig, ch = qubit_system()
    sop = build_liouvillian(eig, [ch])
    rng = np.random.default_rng(5)
    h_eff = eig.reconstruct() + lamb_shift(eig, ch)
    l = build_jump_operator(eig, ch)
    for _ in range(20):
        rho = random_hermitian(rng, 2)
        direct = (-1j * (h_eff @ rho - rho @ h_eff)
                  + l @ rho @ l.conj().T
                  - 0.5 * (l.conj().T @ l @ rho + rho @ l.conj().T @ l))
        via_matrix = unvec(kron_superoperator(sop) @ vec(rho), 2)
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
    full = build_liouvillian(eig, [ch1])
    secular = build_secular_generator(bohr_decompose(x1, eig), ch1)
    composed = build_liouvillian(eig, [ch1, ch2], lamb_shift=None)
    assert len(composed.jumps) == 2
    for sop in (full, secular, composed):
        for _ in range(5):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            via_matrix = unvec(kron_superoperator(sop) @ vec(a), d)
            assert np.max(np.abs(sop.apply_matrix(a) - via_matrix)) <= 1e-12


def test_liouvillian_trace_preservation():
    rng = np.random.default_rng(13)
    for _ in range(6):
        d = int(rng.integers(2, 7))
        eig = eigendecompose(random_hermitian(rng, d))
        ch = NoiseChannel(coupling_op=random_hermitian(rng, d), bath=BATH)
        sop = build_liouvillian(eig, [ch], lamb_shift=None)
        assert sop.trace_preservation_defect() <= 1e-10 * max(1.0, np.max(np.abs(kron_superoperator(sop))))


def test_lamb_shift_flag_switches_coherent_part():
    eig, ch = qubit_system()
    with_lamb = build_liouvillian(eig, [ch], lamb_shift=QuadratureSpec())
    without = build_liouvillian(eig, [ch], lamb_shift=None)
    diff = kron_superoperator(with_lamb) - kron_superoperator(without)
    lam = lamb_shift(eig, ch)
    lam_only = -1j * (np.kron(np.eye(2), lam) - np.kron(lam.T, np.eye(2)))
    assert np.allclose(diff, lam_only, atol=1e-12)


def test_secular_zero_coupling_operator():
    eig, _ = qubit_system()
    bohr = bohr_decompose(np.zeros((2, 2)), eig)
    ch = NoiseChannel(coupling_op=np.zeros((2, 2)), bath=BATH)
    sop = build_secular_generator(bohr, ch)
    commutator_only = build_liouvillian(eig, [], lamb_shift=None)
    assert np.allclose(kron_superoperator(sop), kron_superoperator(commutator_only), atol=1e-14)


def test_secular_matches_full_for_qubit_sigma_x_population_sector():
    # A(d)^dag A(-d) = 0 kills every anticommutator cross term, so the two
    # generators agree on population-sector states and share the thermal
    # kernel; the lone surviving difference is the coherence sandwich
    # L(d) rho L(-d)^dag, which population states never feed.
    eig, ch = qubit_system()
    bohr = bohr_decompose(ch.coupling_op, eig)
    full = build_liouvillian(eig, [ch])
    secular = build_secular_generator(bohr, ch, lamb_shift=QuadratureSpec())
    for pops in ((1.0, 0.0), (0.0, 1.0), (0.3, 0.7)):
        rho = eig.basis @ np.diag(pops).astype(complex) @ eig.basis.conj().T
        assert np.allclose(full.apply_matrix(rho), secular.apply_matrix(rho), atol=1e-12)
    rho_th = gibbs_state(eig, BATH.beta)
    assert np.linalg.norm(kron_superoperator(full) @ vec(rho_th)) <= 1e-12
    assert np.linalg.norm(kron_superoperator(secular) @ vec(rho_th)) <= 1e-12
    # the coherence cross block is the only difference
    diff = kron_superoperator(full) - kron_superoperator(secular)
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
    resid_sec = np.linalg.norm(kron_superoperator(secular) @ vec(rho_th))
    full = build_liouvillian(eig, [ch], lamb_shift=None)
    resid_full = np.linalg.norm(kron_superoperator(full) @ vec(rho_th))
    assert resid_sec <= 1e-10
    assert resid_full > 1e-4


def test_channels_compose_identity_and_zero_channel():
    eig, ch = qubit_system()
    single = build_liouvillian(eig, [ch], lamb_shift=None)
    dead = NoiseChannel(coupling_op=ch.coupling_op,
                        bath=BathSpec(temperature=1.0, coupling=0.0, cutoff=100.0))
    double = build_liouvillian(eig, [ch, dead], lamb_shift=None)
    assert np.max(np.abs(kron_superoperator(single) - kron_superoperator(double))) <= 1e-14
    assert len(double.jumps) == 1


def test_channels_compose_two_equal_channels_double_dissipator():
    eig, ch = qubit_system()
    one = build_liouvillian(eig, [ch], lamb_shift=None)
    two = build_liouvillian(eig, [ch, ch], lamb_shift=None)
    commutator = build_liouvillian(eig, [], lamb_shift=None)
    assert np.allclose(kron_superoperator(two) - kron_superoperator(commutator),
                       2.0 * (kron_superoperator(one) - kron_superoperator(commutator)), atol=1e-13)


LAMB_SHIFT_SCRIPT = """
import sys
import ule
from ule.generator import lamb_shift_eigen
from ule.spinchain import chain_channels
for n_sites in (3, 4, 5, 6):
    spec = ule.SpinChainSpec(N=n_sites)
    eig = ule.eigendecompose(ule.build_chain_hamiltonian(spec))
    channel = chain_channels(spec)[0]
    xe = ule.bohr_decompose(channel.coupling_op, eig).coupling_eigen
    for part in lamb_shift_eigen(eig, xe, channel.bath, ule.QuadratureSpec()):
        sys.stdout.buffer.write(part.tobytes())
"""


def test_lamb_shift_f_identical_across_blas_thread_counts():
    # the Lamb shift and its matched f(w, -w) on the chain at N = 3-6: the
    # w rule's products split no sum across BLAS threads
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
        outputs.append(subprocess.run([sys.executable, "-c", LAMB_SHIFT_SCRIPT], env=env,
                                      check=True, capture_output=True, timeout=300).stdout)
    assert len(outputs[0]) == 2 * 8 * sum(4 ** n for n in (3, 4, 5, 6))
    assert np.count_nonzero(np.frombuffer(outputs[0])) > 1000
    assert outputs[0] == outputs[1]


def chain_system(n_sites, t1):
    spec = SpinChainSpec(N=n_sites, T1=t1)
    channel = chain_channels(spec)[0]
    return eigendecompose(build_chain_hamiltonian(spec)), channel


# the table oracle at a target where its own error is below rounding: at
# its default target it is within 2.6e-14 of max|Lam| on the chain at
# N = 3-7, except at T1 = 0.2 (3.3e-11 at N = 4), where this one is needed
TIGHT = QuadratureSpec(rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("n_sites, temperatures", [
    (3, (0.05, 0.2, 2.0, 20.0, 50.0)), (4, (0.05, 0.2, 2.0, 20.0, 50.0)),
    (5, (0.05, 0.2, 2.0, 20.0, 50.0)), (6, (0.05, 0.2, 2.0, 20.0, 50.0)), (7, (2.0,))])
def test_lamb_shift_matches_table_oracle_on_chain(n_sites, temperatures):
    # max entry over max entry; the w rule is exactly symmetric for the
    # chain's real X (one syrk per block)
    for t1 in temperatures:
        eig, channel = chain_system(n_sites, t1)
        bohr = bohr_decompose(channel.coupling_op, eig)
        lam, _ = lamb_shift_eigen(eig, bohr.coupling_eigen, channel.bath)
        quad = TIGHT if t1 == 0.2 else QuadratureSpec()
        want, _ = lamb_shift_table(bohr, channel.bath, quad)
        assert np.max(np.abs(lam - want)) <= 1e-12 * np.max(np.abs(want)), t1
        assert np.array_equal(lam, lam.T)


def test_lamb_shift_matches_table_oracle_on_complex_ensemble():
    # criterion 5's ensemble: 50 complex (H, X), d = 3..6, T in [0.5, 8]
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(50):
        d = 3 + trial % 4
        bath = BathSpec(temperature=float(rng.uniform(0.5, 8.0)), coupling=0.1, cutoff=100.0)
        eig = eigendecompose(random_hermitian(rng, d))
        x = random_hermitian(rng, d)
        bohr = bohr_decompose(x, eig)
        lam, _ = lamb_shift_eigen(eig, bohr.coupling_eigen, bath)
        want, _ = lamb_shift_table(bohr, bath, TIGHT)
        worst = max(worst, np.max(np.abs(lam - want)) / np.max(np.abs(want)))
    assert worst <= 1e-12


def test_lamb_shift_unreachable_target_names_temperature():
    # no step of the rule meets rtol 1e-30: the rounding of its sum alone
    # is about 1e-16 of max|Lam|
    eig, channel = chain_system(3, 0.2)
    with pytest.raises(QuadratureError, match="T = 0.2, [0-9]+ nodes: error estimate") as err:
        lamb_shift_eigen(eig, bohr_decompose(channel.coupling_op, eig).coupling_eigen,
                         channel.bath, QuadratureSpec(rtol=1e-30, atol=1e-300))
    assert 0.0 < err.value.error_bound < 1e-12 * np.max(np.abs(err.value.estimate))
    assert err.value.pair is None
