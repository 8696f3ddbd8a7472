import numpy as np
import pytest

from oracles import dissipator_on_gibbs_loop, lambshift_on_gibbs_loop, random_hermitian
from ule import (
    BathSpec,
    NoiseChannel,
    QuadratureSpec,
    bohr_decompose,
    build_generator,
    build_jump_operator,
    build_lamb_shift,
    build_liouvillian,
    dissipator_on_gibbs_direct,
    dissipator_on_gibbs_formula,
    eigendecompose,
    f_table,
    gibbs_deviation,
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
from ule.generator import lamb_shift_pairs

BATH = BathSpec(temperature=2.0, coupling=0.1, cutoff=100.0)


def baseline_setup(bath=BATH):
    system = three_level_baseline()
    eig = eigendecompose(system.hamiltonian)
    ch = NoiseChannel(coupling_op=system.coupling_op, bath=bath)
    bohr = bohr_decompose(system.coupling_op, eig)
    rho_th = gibbs_state(eig, bath.beta)
    return eig, ch, bohr, rho_th


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
        dissipator_on_gibbs_formula(bohr, BATH, BATH.beta, rho_th)) <= 1e-12


def test_dissipator_two_routes_and_loop_oracle_on_baseline():
    eig, ch, bohr, rho_th = baseline_setup()
    jump = build_jump_operator(eig, ch)
    direct = dissipator_on_gibbs_direct(jump, rho_th)
    formula = dissipator_on_gibbs_formula(bohr, BATH, BATH.beta, rho_th)
    loop = dissipator_on_gibbs_loop(bohr, BATH, BATH.beta, rho_th, jump_spectral)
    norm = np.linalg.norm(direct)
    assert norm > 1e-6 * BATH.coupling  # the Gibbs state is not stationary
    assert np.linalg.norm(direct - formula) <= 1e-10 * norm
    assert np.linalg.norm(formula - loop) <= 1e-10 * norm


def test_dissipator_formula_single_frequency_is_zero():
    # diagonal X: only w = 0 survives and the (1 - e^0)^2 factor kills it
    eig = eigendecompose(np.diag([0.0, 1.0, 3.0]).astype(complex))
    x = np.diag([0.4, -0.3, 0.9]).astype(complex)
    bohr = bohr_decompose(x, eig)
    rho_th = gibbs_state(eig, BATH.beta)
    formula = dissipator_on_gibbs_formula(bohr, BATH, BATH.beta, rho_th)
    assert np.linalg.norm(formula) == 0.0


def test_lambshift_commutator_routes_on_baseline():
    eig, ch, bohr, rho_th = baseline_setup()
    quad = QuadratureSpec()
    lam = build_lamb_shift(eig, ch, quad, bohr=bohr)
    direct = lambshift_on_gibbs_direct(lam, rho_th)
    formula = lambshift_on_gibbs_formula(bohr, BATH, quad, BATH.beta, rho_th)
    norm = np.linalg.norm(direct)
    assert norm > 1e-6 * BATH.coupling
    assert np.linalg.norm(direct - formula) <= 1e-6 * norm
    table = f_table(BATH, lamb_shift_pairs(bohr), quad)
    loop = lambshift_on_gibbs_loop(bohr, BATH, BATH.beta, rho_th, table)
    assert np.linalg.norm(formula - loop) <= 1e-10 * max(norm, 1e-300)


def test_lambshift_trivial_cases():
    eig, ch, bohr, rho_th = baseline_setup()
    assert np.all(lambshift_on_gibbs_direct(np.zeros((3, 3)), rho_th) == 0)
    lam_diag = np.diag([0.1, 0.2, 0.3]).astype(complex)
    # diagonal in the eigenbasis commutes with the thermal state
    assert np.linalg.norm(lambshift_on_gibbs_direct(lam_diag, rho_th)) <= 1e-15
    free = BathSpec(temperature=2.0, coupling=0.0, cutoff=100.0)
    formula = lambshift_on_gibbs_formula(bohr, free, QuadratureSpec(), free.beta, rho_th)
    assert np.linalg.norm(formula) == 0.0


def test_secular_residuals_vanish_identically():
    eig, ch, bohr, rho_th = baseline_setup()
    r8, r9 = secular_residuals(bohr, BATH, QuadratureSpec(), BATH.beta, rho_th)
    assert r8 <= 1e-14
    assert r9 <= 1e-14


def test_secular_residuals_no_blowup_at_large_beta():
    cold = BathSpec(temperature=0.02, coupling=0.1, cutoff=100.0)  # beta = 50
    eig, ch, bohr, _ = baseline_setup(cold)
    rho_th = gibbs_state(eig, cold.beta)
    r8, r9 = secular_residuals(bohr, cold, QuadratureSpec(), cold.beta, rho_th)
    assert np.isfinite(r8) and np.isfinite(r9)
    assert r8 <= 1e-12
    assert r9 <= 1e-12


def test_two_route_equality_random_ensemble():
    # random Hermitian (H, X) ensemble: closed-sum identity for the
    # dissipator, and every member with cross Bohr terms (dense random X
    # always has them) leaves the Gibbs state visibly non-stationary
    rng = np.random.default_rng(101)
    for trial in range(12):
        d = int(rng.integers(3, 7))
        t = float(rng.uniform(0.5, 8.0))
        bath = BathSpec(temperature=t, coupling=0.1, cutoff=100.0)
        eig = eigendecompose(random_hermitian(rng, d))
        x = random_hermitian(rng, d)
        bohr = bohr_decompose(x, eig)
        rho_th = gibbs_state(eig, bath.beta)
        jump = build_jump_operator(eig, NoiseChannel(coupling_op=x, bath=bath))
        direct = dissipator_on_gibbs_direct(jump, rho_th)
        formula = dissipator_on_gibbs_formula(bohr, bath, bath.beta, rho_th)
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
    assert len(names) == 8


def test_residual_report_evaluates_each_f_pair_once(monkeypatch):
    # both Lamb-shift routes and the secular restriction share one f grid
    import ule.bath
    eig, ch, bohr, _ = baseline_setup()
    calls = []
    real = ule.bath.f_integral

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ule.bath, "f_integral", counting)
    gibbs_residual_report(eig, ch)
    assert len(calls) == len(lamb_shift_pairs(bohr))


def test_residual_report_without_lamb_shift():
    eig, ch, _, _ = baseline_setup()
    rep = gibbs_residual_report(eig, ch, include_lamb_shift=False)
    assert rep.lambshift_direct_norm == 0.0
    assert rep.lambshift_formula_norm == 0.0
    assert rep.dissipator_direct_norm > 0.0


def test_gibbs_deviation_identity():
    eig, _, _, rho_th = baseline_setup()
    dev = gibbs_deviation(rho_th, eig, BATH.beta)
    assert dev.max_abs_diag_deviation <= 1e-12
    assert dev.trace_distance <= 1e-12
    assert dev.rho11_gap <= 1e-12


def test_gibbs_deviation_qubit_steady_state():
    eig = eigendecompose(np.diag([-0.5, 0.5]).astype(complex))
    ch = NoiseChannel(coupling_op=np.array([[0, 1], [1, 0]], dtype=complex), bath=BATH)
    sop = build_liouvillian(build_generator(eig, ch, include_lamb_shift=False))
    rho_ss = steady_state(sop).state
    dev = gibbs_deviation(rho_ss, eig, BATH.beta)
    assert dev.trace_distance <= 1e-9


def test_gibbs_deviation_observable_gap_and_rows():
    eig, ch, _, rho_th = baseline_setup()
    sop = build_liouvillian(build_generator(eig, ch, include_lamb_shift=False))
    rho_ss = steady_state(sop).state
    obs = np.diag([1.0, 0.0, -1.0]).astype(complex)
    dev = gibbs_deviation(rho_ss, eig, BATH.beta, observable=obs)
    assert dev.observable_gap is not None and dev.observable_gap > 0
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


def test_trend_sweep_validates_inputs():
    with pytest.raises(ValueError):
        trend_sweep(three_level_baseline(), [], [0.1])
    with pytest.raises(ValueError):
        trend_sweep(three_level_baseline(), [1.0], [-0.1])
