import tracemalloc

import numpy as np
import pytest

from oracles import (
    dissipator_on_gibbs_loop,
    kron_superoperator,
    lamb_shift_f,
    lamb_shift_pairs_unique,
    lambshift_on_gibbs_loop,
    lambshift_on_gibbs_table,
    random_hermitian,
    secular_residuals_loop,
)
from ule import (
    BathSpec,
    BohrDecomposition,
    NoiseChannel,
    QuadratureSpec,
    SpinChainSpec,
    TrendSystem,
    bohr_decompose,
    build_chain_hamiltonian,
    build_jump_operator,
    build_lamb_shift,
    build_liouvillian,
    dissipator_on_gibbs_direct,
    dissipator_on_gibbs_formula,
    eigendecompose,
    expectation,
    f_values,
    gibbs_deviation,
    gibbs_populations,
    gibbs_residual_report,
    gibbs_state,
    jump_spectral,
    lambshift_on_gibbs_direct,
    lambshift_on_gibbs_formula,
    secular_residuals,
    steady_state,
    sweep_monotonicity,
    three_level_baseline,
    trend_sweep,
)
from ule.generator import _secular_parts, lamb_shift_eigen
from ule.spinchain import chain_channels

BATH = BathSpec(temperature=2.0, coupling=0.1, cutoff=100.0)
# Equal small gaps: A(w) A(w) != 0, so the secular Lamb shift's pairing
# f(w, -w) matters beyond w = 0, and beta w = 2.5 at beta = 50 keeps the
# Gibbs populations apart.
LADDER = np.diag([0.0, 0.05, 0.1]).astype(complex)


def baseline_setup(bath=BATH, hamiltonian=None):
    system = three_level_baseline()
    eig = eigendecompose(system.hamiltonian if hamiltonian is None else hamiltonian)
    ch = NoiseChannel(coupling_op=system.coupling_op, bath=bath)
    bohr = bohr_decompose(system.coupling_op, eig)
    rho_th = gibbs_state(eig, bath.beta)
    return eig, ch, bohr, rho_th


def matched_f(bohr, bath):
    """f(w, -w) at each level pair, w the Bohr frequency of its bin: the d x d
    matched values the secular generator takes."""
    return f_values(bath, bohr.frequencies, -bohr.frequencies)[bohr.bin_index]


def test_dissipator_direct_trivial_zero_jump():
    _, _, _, rho_th = baseline_setup()
    assert np.all(dissipator_on_gibbs_direct(np.zeros((3, 3)), rho_th) == 0)


def test_dissipator_on_gibbs_qubit_sigma_x_vanishes():
    eig = eigendecompose(np.diag([-0.5, 0.5]).astype(complex))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    ch = NoiseChannel(coupling_op=x, bath=BATH)
    rho_th = gibbs_state(eig, BATH.beta)
    jump = build_jump_operator(eig, ch)
    assert np.linalg.norm(dissipator_on_gibbs_direct(jump, rho_th)) <= 1e-12
    bohr = bohr_decompose(x, eig)
    assert np.linalg.norm(
        dissipator_on_gibbs_formula(bohr, BATH, BATH.beta)) <= 1e-12


def test_dissipator_two_routes_and_loop_oracle_on_baseline():
    eig, ch, bohr, rho_th = baseline_setup()
    jump = build_jump_operator(eig, ch)
    direct = dissipator_on_gibbs_direct(jump, rho_th)
    formula = dissipator_on_gibbs_formula(bohr, BATH, BATH.beta)
    loop = dissipator_on_gibbs_loop(bohr, ch.coupling_op, BATH, BATH.beta, rho_th, jump_spectral)
    norm = np.linalg.norm(direct)
    assert norm > 1e-6 * BATH.coupling  # the Gibbs state is not stationary
    assert np.linalg.norm(direct - formula) <= 1e-10 * norm
    assert np.linalg.norm(formula - loop) <= 1e-10 * norm


def test_dissipator_formula_single_frequency_is_zero():
    # diagonal X: only w = 0 survives and the (1 - e^0)^2 factor kills it
    eig = eigendecompose(np.diag([0.0, 1.0, 3.0]).astype(complex))
    x = np.diag([0.4, -0.3, 0.9]).astype(complex)
    bohr = bohr_decompose(x, eig)
    formula = dissipator_on_gibbs_formula(bohr, BATH, BATH.beta)
    assert np.linalg.norm(formula) == 0.0


def test_lambshift_commutator_routes_on_baseline():
    eig, ch, bohr, rho_th = baseline_setup()
    quad = QuadratureSpec()
    lam, _ = lamb_shift_eigen(eig, bohr.coupling_eigen, ch.bath, quad)
    direct = lambshift_on_gibbs_direct(build_lamb_shift(eig, lam), rho_th)
    formula = lambshift_on_gibbs_formula(eig, lam, BATH.beta)
    norm = np.linalg.norm(direct)
    assert norm > 1e-6 * BATH.coupling
    assert np.linalg.norm(direct - formula) <= 1e-6 * norm
    e1, e2 = lamb_shift_pairs_unique(bohr)
    table = dict(zip(zip(e1.tolist(), e2.tolist()), f_values(BATH, e1, e2, quad).tolist()))
    loop = lambshift_on_gibbs_loop(bohr, ch.coupling_op, BATH.beta, rho_th, table)
    assert np.linalg.norm(formula - loop) <= 1e-10 * max(norm, 1e-300)


def test_lambshift_trivial_cases():
    eig, ch, bohr, rho_th = baseline_setup()
    assert np.all(lambshift_on_gibbs_direct(np.zeros((3, 3)), rho_th) == 0)
    lam_diag = np.diag([0.1, 0.2, 0.3]).astype(complex)
    # diagonal in the eigenbasis commutes with the thermal state
    assert np.linalg.norm(lambshift_on_gibbs_direct(lam_diag, rho_th)) <= 1e-15
    free = BathSpec(temperature=2.0, coupling=0.0, cutoff=100.0)
    lam, _ = lamb_shift_eigen(eig, bohr.coupling_eigen, free)
    formula = lambshift_on_gibbs_formula(eig, lam, free.beta)
    assert np.linalg.norm(formula) == 0.0


def test_lambshift_formula_matches_table_oracle_on_chain():
    # the factor p_n - p_m moves out of the sum over l: weighting the
    # eigenbasis Lamb shift reorders the rounding only. At B_z = 0 the
    # commutator is 0.4-0.7% of the magnitudes of its terms, so there the
    # deviation (1.3e-14 of the oracle at N = 6) is bounded against those
    # magnitudes, sum_l |f X_ml X_ln| |p_n - p_m|, as everywhere
    worst_rel = worst_scaled = 0.0
    for n_sites in (3, 4, 5, 6):
        for b_z in (0.0, 3.7, 8.0):
            spec = SpinChainSpec(N=n_sites, B_z=b_z)
            channel = chain_channels(spec)[0]
            eig = eigendecompose(build_chain_hamiltonian(spec))
            bohr = bohr_decompose(channel.coupling_op, eig)
            beta = channel.bath.beta
            f = lamb_shift_f(bohr, channel.bath, QuadratureSpec())
            xe = bohr.coupling_eigen
            lam = np.einsum("ml,ln,mln->mn", xe, xe, f)  # `lamb_shift_table` on this f
            want = lambshift_on_gibbs_table(bohr, f, beta)
            err = np.linalg.norm(lambshift_on_gibbs_formula(eig, lam, beta) - want)
            p = gibbs_populations(eig, beta)
            xa = np.abs(bohr.coupling_eigen)
            terms = np.abs(p[None, :] - p[:, None]) * np.einsum("ml,ln,mln->mn", xa, xa, np.abs(f))
            worst_scaled = max(worst_scaled, err / np.linalg.norm(terms))
            if b_z:
                worst_rel = max(worst_rel, err / np.linalg.norm(want))
    assert worst_rel <= 1e-14
    assert worst_scaled <= 1e-15


def test_secular_residuals_vanish_identically():
    for h in (None, LADDER):
        eig, ch, bohr, rho_th = baseline_setup(hamiltonian=h)
        r8, r9 = secular_residuals(bohr, BATH, rho_th, matched_f(bohr, BATH))
        assert r8 <= 1e-14
        assert r9 <= 1e-14


def test_secular_residuals_no_blowup_at_large_beta():
    cold = BathSpec(temperature=0.02, coupling=0.1, cutoff=100.0)  # beta = 50
    for h in (None, LADDER):
        eig, ch, bohr, rho_th = baseline_setup(cold, h)
        r8, r9 = secular_residuals(bohr, cold, rho_th, matched_f(bohr, cold))
        assert np.isfinite(r8) and np.isfinite(r9)
        assert r8 <= 1e-12
        assert r9 <= 1e-12


def test_secular_residuals_match_dense_jump_loop():
    # distinct f(w_k, -w_k) for every frequency, so the secular Lamb shift
    # must pair each with its own A(w_k) A(-w_k), and a random state, so no
    # term cancels as it does on the Gibbs state; the degenerate spectrum
    # puts several entries of one row in one bin. The dissipator half reads
    # the part of the state that commutes with H (the blocks of equal
    # energy), the Lamb half all of it.
    rng = np.random.default_rng(83)
    x = three_level_baseline().coupling_op
    systems = [(LADDER, x), (np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex),
                             random_hermitian(rng, 4))]
    for h, x in systems:
        eig = eigendecompose(h)
        bohr = bohr_decompose(x, eig)
        a = random_hermitian(rng, h.shape[0])
        rho = a @ a / np.trace(a @ a)
        same = np.abs(eig.energies[:, None] - eig.energies[None, :]) < 1e-9
        commuting = eig.from_eigenbasis(same * eig.to_eigenbasis(rho))
        fmatch = rng.standard_normal(bohr.nfreq)
        got = secular_residuals(bohr, BATH, rho, fmatch[bohr.bin_index])
        want = (secular_residuals_loop(bohr, x, BATH, commuting, fmatch)[0],
                secular_residuals_loop(bohr, x, BATH, rho, fmatch)[1])
        assert min(want) > 1e-3
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        # the non-commuting rest of rho moves the dense loop, not the half
        assert secular_residuals_loop(bohr, x, BATH, rho)[0] > want[0] * (1 + 1e-6)
        fpair = fmatch[bohr.bin_index]
        assert np.isclose(got[0], secular_residuals(bohr, BATH, commuting, fpair)[0],
                          rtol=1e-12, atol=0.0)
        assert secular_residuals(bohr, BATH, rho) == (got[0], 0.0)


def test_secular_lamb_half_without_lamb_shift_forms_nothing(monkeypatch):
    # with fmatch None the Lamb half is 0.0 and no commutator is taken; with
    # the Lamb shift on it is the commutator of the secular Lam, bitwise
    from ule import analysis

    eig, ch, bohr, rho_th = baseline_setup(hamiltonian=LADDER)
    fmatch = matched_f(bohr, BATH)
    _, lam, _ = _secular_parts(bohr, BATH, fmatch)
    want = np.linalg.norm(lambshift_on_gibbs_direct(lam, eig.to_eigenbasis(rho_th)))
    assert secular_residuals(bohr, BATH, rho_th, fmatch)[1] == want

    def no_commutator(*args):
        raise AssertionError("a Lamb commutator without a Lamb shift")

    monkeypatch.setattr(analysis, "lambshift_on_gibbs_direct", no_commutator)
    assert _secular_parts(bohr, BATH, None)[1] is None
    rep = gibbs_residual_report(eig, ch, lamb_shift=None)
    assert rep.secular_lambshift_norm == 0.0


def test_secular_residuals_bin_at_rounding_scale():
    # gaps 1 and 1 + 5e-10 are distinct Bohr frequencies: binned at 1e-9
    # max|E| they shared a bin (5 bins, secular dissipator 1.9e-10 gamma)
    eig = eigendecompose(np.diag([0.0, 1.0, 2.0 + 5e-10]).astype(complex))
    x = np.ones((3, 3), dtype=complex)
    assert bohr_decompose(x, eig).nfreq == 7
    rep = gibbs_residual_report(eig, NoiseChannel(coupling_op=x, bath=BATH))
    assert rep.dissipator_mismatch <= rep.dissipator_mismatch_tol
    assert rep.secular_dissipator_norm <= 1e-14
    assert rep.secular_lambshift_norm <= 1e-14


def test_residual_report_lamb_shift_needs_no_memory_guard(monkeypatch):
    # no guard sizes the Lamb shift's w rule: with physical memory read as
    # 1 MB, below the 4.2 MB the level-triple table's guard reserved at
    # N = 5, the report runs and both identities hold
    from ule import generator

    monkeypatch.setattr(generator, "_physical_memory", lambda: 2 ** 20)
    spec = SpinChainSpec(N=5)
    eig = eigendecompose(build_chain_hamiltonian(spec))
    rep = gibbs_residual_report(eig, chain_channels(spec)[0])
    assert rep.lambshift_direct_norm > 0.0
    assert rep.lambshift_mismatch <= rep.lambshift_mismatch_tol
    assert rep.dissipator_mismatch <= rep.dissipator_mismatch_tol


def test_secular_residuals_memory_on_n8_chain():
    # d = 256: the three masked products hold a few 1 MB matrices; the
    # same-bin pair list they replaced held 369,748 pairs (34 MB traced)
    spec = SpinChainSpec(N=8)
    eig = eigendecompose(build_chain_hamiltonian(spec))
    bath = chain_channels(spec)[0].bath
    bohr = bohr_decompose(chain_channels(spec)[0].coupling_op, eig)
    rho_th = gibbs_state(eig, bath.beta)
    fmatch = np.linspace(-1.0, 1.0, bohr.nfreq)[bohr.bin_index]
    tracemalloc.start()
    try:
        r8, r9 = secular_residuals(bohr, bath, rho_th, fmatch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r8 <= 1e-12 and r9 <= 1e-12
    assert peak < 16e6, f"secular_residuals peak {peak / 1e6:.1f} MB"


def test_two_route_equality_random_ensemble():
    # random Hermitian (H, X) ensemble: closed-sum identity for the
    # dissipator, and every member with cross Bohr terms (dense random X
    # always has them) leaves the Gibbs state visibly non-stationary; the
    # last four are cold (T = 0.05 to 0.4), where the sum's coefficients
    # grow like e^(beta w)
    rng = np.random.default_rng(101)
    for trial in range(16):
        d = int(rng.integers(3, 7))
        t = float(rng.uniform(0.5, 8.0)) if trial < 12 else 0.05 * 2.0 ** (trial - 12)
        bath = BathSpec(temperature=t, coupling=0.1, cutoff=100.0)
        eig = eigendecompose(random_hermitian(rng, d))
        x = random_hermitian(rng, d)
        bohr = bohr_decompose(x, eig)
        rho_th = gibbs_state(eig, bath.beta)
        jump = build_jump_operator(eig, NoiseChannel(coupling_op=x, bath=bath))
        direct = dissipator_on_gibbs_direct(jump, rho_th)
        formula = dissipator_on_gibbs_formula(bohr, bath, bath.beta)
        norm = np.linalg.norm(direct)
        assert norm > 1e-6 * bath.coupling
        assert np.linalg.norm(direct - formula) <= 1e-10 * norm


def test_residual_report_fields_consistent():
    eig, ch, _, _ = baseline_setup()
    rep = gibbs_residual_report(eig, ch)
    assert rep.gamma == BATH.coupling
    assert rep.dissipator_mismatch <= rep.dissipator_mismatch_tol
    assert rep.lambshift_mismatch <= rep.lambshift_mismatch_tol
    assert rep.secular_dissipator_norm <= 1e-12
    assert rep.secular_lambshift_norm <= 1e-12
    assert rep.dissipator_direct_norm == pytest.approx(rep.dissipator_formula_norm,
                                                       rel=1e-9)
    names = [name for name, _ in rep.rows()]
    assert names[0] == "dissipator_direct_norm"
    assert len(names) == 10


@pytest.fixture
def f_calls(monkeypatch):
    """Every (E1, E2) pair handed to the f kernel `f_values` during the test,
    under its own name in `bath` and in the modules the report runs."""
    import ule.analysis
    import ule.bath
    import ule.generator
    calls = []
    real = ule.bath.f_values

    def counting(bath, e1, e2, *args, **kwargs):
        calls.extend(zip(np.asarray(e1).tolist(), np.asarray(e2).tolist()))
        return real(bath, e1, e2, *args, **kwargs)

    for module in (ule.bath, ule.generator, ule.analysis):
        monkeypatch.setattr(module, "f_values", counting, raising=False)
    return calls


def test_residual_report_makes_no_f_values_call(f_calls):
    # both Lamb-shift routes and the secular Lamb shift read one w rule
    eig, ch, _, _ = baseline_setup()
    rep = gibbs_residual_report(eig, ch)
    assert rep.lambshift_direct_norm > 0.0 and rep.secular_lambshift_norm <= 1e-14
    assert len(f_calls) == 0


def test_residual_report_without_lamb_shift(f_calls):
    eig, ch, _, _ = baseline_setup()
    rep = gibbs_residual_report(eig, ch, lamb_shift=None)
    assert rep.lambshift_direct_norm == 0.0
    assert rep.lambshift_formula_norm == 0.0
    assert rep.secular_lambshift_norm == 0.0
    assert rep.dissipator_direct_norm > 0.0
    assert len(f_calls) == 0


def test_residual_report_on_chain_with_lamb_shift(monkeypatch):
    # no route of the report forms a dense A(w): the secular control is
    # three masked d x d products in the eigenbasis
    def no_component(self, k):
        raise AssertionError("the residual report built a dense A(w)")

    monkeypatch.setattr(BohrDecomposition, "component", no_component)
    spec = SpinChainSpec(N=4)
    eig = eigendecompose(build_chain_hamiltonian(spec))
    rep = gibbs_residual_report(eig, chain_channels(spec)[0])
    assert rep.lambshift_direct_norm > 0.0
    assert rep.dissipator_mismatch <= rep.dissipator_mismatch_tol
    assert rep.lambshift_mismatch <= rep.lambshift_mismatch_tol
    assert rep.secular_dissipator_norm <= 1e-12
    assert rep.secular_lambshift_norm <= 1e-12


@pytest.mark.parametrize("n_sites, t1", [(4, 0.1), (3, 0.05), (3, 0.02)])
def test_residual_routes_agree_on_cold_chain(n_sites, t1):
    # beta up to 50: the formula routes' Bohr sums have coefficients that
    # grow like e^(beta w) and meet populations as small as e^(-beta w), so
    # rounding or overflow shows here first; a RuntimeWarning fails the test
    spec = SpinChainSpec(N=n_sites, T1=t1)
    eig = eigendecompose(build_chain_hamiltonian(spec))
    rep = gibbs_residual_report(eig, chain_channels(spec)[0])
    assert rep.dissipator_direct_norm > 0.0 and rep.lambshift_direct_norm > 0.0
    assert rep.dissipator_mismatch <= rep.dissipator_mismatch_tol
    assert rep.lambshift_mismatch <= rep.lambshift_mismatch_tol
    assert rep.secular_dissipator_norm <= 1e-12
    assert rep.secular_lambshift_norm <= 1e-12


def test_chain_n5_with_lamb_shift_end_to_end():
    spec = SpinChainSpec(N=5)
    eig = eigendecompose(build_chain_hamiltonian(spec))
    channels = chain_channels(spec)
    sop = build_liouvillian(eig, channels)
    bound = 1e-10 * max(1.0, float(np.max(np.abs(kron_superoperator(sop)))))
    assert sop.trace_preservation_defect() <= bound
    report = steady_state(sop)
    assert report.kernel_dimension == 1
    rep = gibbs_residual_report(eig, channels[0])
    assert rep.lambshift_direct_norm > 0.0
    assert rep.lambshift_mismatch <= 1e-6 * rep.lambshift_direct_norm


def test_gibbs_deviation_identity():
    eig, _, _, rho_th = baseline_setup()
    dev = gibbs_deviation(rho_th, eig, BATH.beta)
    assert dev.max_abs_diag_deviation <= 1e-12
    assert dev.trace_distance <= 1e-12
    assert dev.rho11_gap <= 1e-12


def test_gibbs_deviation_qubit_steady_state():
    eig = eigendecompose(np.diag([-0.5, 0.5]).astype(complex))
    ch = NoiseChannel(coupling_op=np.array([[0, 1], [1, 0]], dtype=complex), bath=BATH)
    sop = build_liouvillian(eig, [ch], lamb_shift=None)
    rho_ss = steady_state(sop).state
    dev = gibbs_deviation(rho_ss, eig, BATH.beta)
    assert dev.trace_distance <= 1e-9


def test_gibbs_deviation_observable_gap_and_rows():
    eig, ch, _, rho_th = baseline_setup()
    sop = build_liouvillian(eig, [ch], lamb_shift=None)
    rho_ss = steady_state(sop).state
    obs = np.diag([1.0, 0.0, -1.0]).astype(complex)
    dev = gibbs_deviation(rho_ss, eig, BATH.beta, observable=obs)
    assert dev.observable_gap is not None and dev.observable_gap > 0
    assert dev.observable_steady == expectation(rho_ss, obs)
    assert dev.observable_thermal == expectation(gibbs_state(eig, BATH.beta), obs)
    assert dev.observable_gap == abs(dev.observable_steady - dev.observable_thermal)
    bare = gibbs_deviation(rho_ss, eig, BATH.beta)
    assert bare.observable_steady is bare.observable_thermal is bare.observable_gap is None
    rows = dev.rows()
    assert rows[0][0] == 1
    assert rows[0][1] == pytest.approx(0.0)
    assert sum(r[2] for r in rows) == pytest.approx(1.0, abs=1e-10)
    assert sum(r[3] for r in rows) == pytest.approx(1.0, abs=1e-10)
    assert dev.trace_distance > 1e-4  # regression gate for the baseline system


def test_trend_sweep_monotone_rows_and_columns():
    result = trend_sweep(three_level_baseline(), [2.0, 4.0, 8.0], [0.1, 0.05, 0.01])
    assert not result.errors
    ok, violations = sweep_monotonicity(result)
    assert ok, violations
    # approach to thermality at the most-thermal corner
    assert result.cells[(8.0, 0.01)].trace_distance < 1e-3


def test_trend_sweep_single_cell():
    result = trend_sweep(three_level_baseline(), [2.0], [0.1])
    assert len(result.cells) == 1
    ok, _ = sweep_monotonicity(result)
    assert ok


def degenerate_trend_system():
    """A diagonal coupling on the baseline levels: no transitions, so every
    population is stationary and the steady state is not unique."""
    return TrendSystem(hamiltonian=np.diag([0.0, 1.0, 3.0]).astype(complex),
                       coupling_op=np.diag([1.0, 2.0, 3.0]).astype(complex))


def test_trend_sweep_records_a_failed_cell():
    result = trend_sweep(degenerate_trend_system(), [2.0], [0.1])
    assert result.cells == {}
    assert "kernel dimension 3" in result.errors[(2.0, 0.1)]


def test_trend_sweep_validates_inputs():
    with pytest.raises(ValueError):
        trend_sweep(three_level_baseline(), [], [0.1])
    with pytest.raises(ValueError):
        trend_sweep(three_level_baseline(), [1.0], [-0.1])
