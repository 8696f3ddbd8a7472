"""Gibbs-state stationarity diagnostics.

The dissipator and Lamb-shift commutator applied to the thermal state admit
closed Bohr-sum forms,

    D[rho_th] = -2 pi^2 gamma sum_{w1,w2} (1 - e^(beta (w2-w1)/2))^2
                 g(w1) g(w2) A(w1)^dag A(w2) rho_th,

    [Lam, rho_th] = sum_{w1,w2} f(w1, w2) (1 - e^(beta (w1+w2)))
                     A(w1) A(w2) rho_th,

derived from the thermal shift identity rho_th A(w) = e^(beta w) A(w) rho_th
and the detailed-balance relation g(-w) = e^(-beta w/2) g(w). Both are
evaluated here independently of the direct generator application, so the
pair of routes cross-validates the generator, the Bohr decomposition and
the bath. The conventional (secular) generator keeps only matched
frequencies (w1 = w2 in the dissipator, w1 = -w2 in the Lamb shift); its
jumps and Lamb shift, the ones `build_secular_generator` uses, are applied
to the Gibbs state directly, where they must vanish at rounding scale.

Every double sum here is a coefficient grid c(w1, w2) handed to the one
kernel `BohrDecomposition.double_sum`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import BathSpec, QuadratureSpec, jump_spectral
from .dynamics import expectation, steady_state
from .generator import (
    NoiseChannel,
    _secular_parts,
    build_jump_operator,
    build_lamb_shift,
    build_liouvillian,
    lamb_shift_fgrid,
)
from .operators import (
    BohrDecomposition,
    EigenDecomposition,
    bohr_decompose,
    eigendecompose,
    frobenius,
    gibbs_populations,
    gibbs_state,
    trace_distance,
)

# Floor under the thermal populations that `gibbs_deviation` divides by.
REL_FLOOR = 1e-300


@dataclass(frozen=True)
class ResidualReport:
    """Frobenius norms of the Gibbs-state residuals, in units of gamma.

    The direct/formula pairs must agree within the recorded tolerances. The
    secular norms are the conventional (secular) generator's dissipator and
    Lamb commutator applied to the Gibbs state; they must vanish at rounding
    scale.
    """

    dissipator_direct_norm: float
    dissipator_formula_norm: float
    dissipator_mismatch: float
    dissipator_mismatch_tol: float
    lambshift_direct_norm: float
    lambshift_formula_norm: float
    lambshift_mismatch: float
    lambshift_mismatch_tol: float
    secular_dissipator_norm: float
    secular_lambshift_norm: float
    gamma: float

    def rows(self):
        """(quantity, norm) pairs for tabular output."""
        return [
            ("dissipator_direct_norm", self.dissipator_direct_norm),
            ("dissipator_formula_norm", self.dissipator_formula_norm),
            ("dissipator_mismatch", self.dissipator_mismatch),
            ("lambshift_direct_norm", self.lambshift_direct_norm),
            ("lambshift_formula_norm", self.lambshift_formula_norm),
            ("lambshift_mismatch", self.lambshift_mismatch),
            ("secular_dissipator_norm", self.secular_dissipator_norm),
            ("secular_lambshift_norm", self.secular_lambshift_norm),
        ]


@dataclass(frozen=True)
class DeviationReport:
    """Level-resolved comparison of a steady state against the Gibbs state.

    Deviations are carried both absolutely and relative to the thermal
    population of each level: the relative columns expose the structure
    where the ground level stays close while sparsely occupied levels
    deviate by large factors.
    """

    energies: np.ndarray
    diag_steady: np.ndarray
    diag_thermal: np.ndarray
    max_abs_diag_deviation: float
    max_rel_diag_deviation: float
    trace_distance: float
    rho11_gap: float
    rho11_rel_gap: float
    observable_steady: float | None = None
    observable_thermal: float | None = None

    @property
    def observable_gap(self) -> float | None:
        """|<O>_ss - <O>_th|, or None when the report has no observable."""
        if self.observable_steady is None:
            return None
        return abs(self.observable_steady - self.observable_thermal)

    def rows(self):
        """(n, E_n, rho_nn, rho_nn_th) rows, n starting at 1."""
        return [(n + 1, self.energies[n], self.diag_steady[n], self.diag_thermal[n])
                for n in range(self.energies.size)]


def dissipator_on_gibbs_direct(jump_op, rho_th) -> np.ndarray:
    """L rho_th L^dag - (1/2){L^dag L, rho_th} exactly as in the generator."""
    ld = jump_op.conj().T
    ldl = ld @ jump_op
    return jump_op @ rho_th @ ld - 0.5 * (ldl @ rho_th + rho_th @ ldl)


def dissipator_on_gibbs_formula(bohr: BohrDecomposition, bath: BathSpec,
                                beta: float, rho_th) -> np.ndarray:
    """Bohr-sum form of the dissipator applied to the Gibbs state."""
    w = bohr.frequencies
    g = jump_spectral(bath, w)
    kms = np.exp(0.5 * beta * (w[None, :] - w[:, None]))
    grid = -2.0 * np.pi**2 * bath.coupling * (1.0 - kms) ** 2 * np.outer(g, g)
    return bohr.double_sum(grid, adjoint_first=True) @ rho_th


def lambshift_on_gibbs_direct(lamb_shift, rho_th) -> np.ndarray:
    """Commutator [Lam, rho_th]."""
    return lamb_shift @ rho_th - rho_th @ lamb_shift


def lambshift_on_gibbs_formula(bohr: BohrDecomposition, fgrid, beta: float, rho_th) -> np.ndarray:
    """Bohr-sum form of the Lamb-shift commutator on the Gibbs state, with f
    read from the `lamb_shift_fgrid` grid `fgrid`."""
    w = bohr.frequencies
    grid = fgrid * (1.0 - np.exp(beta * (w[:, None] + w[None, :])))
    return bohr.double_sum(grid) @ rho_th


def secular_residuals(bohr: BohrDecomposition, bath: BathSpec, rho_th, fgrid=None):
    """Norms of the secular generator's two parts applied to the Gibbs state.

    Returns (||sum_w D[L(w)](rho_th)||, ||[Lam_sec, rho_th]||) for the jumps
    L(w) = 2 pi sqrt(gamma) g(w) A(w) and the Lamb shift
    Lam_sec = sum_w f(w, -w) A(w) A(-w) of `build_secular_generator`, with f
    read from the anti-diagonal of `fgrid` (`matched_pair_fgrid` or
    `lamb_shift_fgrid`); with `fgrid` None the Lamb part is zero. The Gibbs
    state of H is stationary under the secular generator, so both vanish at
    rounding scale; a Gibbs state of another temperature or Hamiltonian does
    not.
    """
    jumps, lam = _secular_parts(bohr, bath, fgrid)
    dissipator = np.zeros(rho_th.shape, dtype=complex)
    for jump in jumps:
        dissipator += dissipator_on_gibbs_direct(jump, rho_th)
    return frobenius(dissipator), frobenius(lambshift_on_gibbs_direct(lam, rho_th))


def gibbs_residual_report(eig: EigenDecomposition, channel: NoiseChannel,
                          quad: QuadratureSpec = QuadratureSpec(),
                          include_lamb_shift: bool = True) -> ResidualReport:
    """Evaluate all Gibbs residuals for one channel by both routes.

    Norms are reported in units of gamma so baselines compare across
    couplings. With include_lamb_shift false every Lamb-shift entry,
    including the secular one, is zero and no quadrature runs; otherwise
    every f value comes from the one Lamb-shift grid, whose anti-diagonal
    holds the matched pairs f(w, -w) of the secular Lamb shift.
    """
    bath = channel.bath
    beta = bath.beta
    bohr = bohr_decompose(channel.coupling_op, eig)
    rho_th = gibbs_state(eig, beta)
    unit = bath.coupling if bath.coupling > 0 else 1.0

    jump = build_jump_operator(eig, channel)
    d_direct = dissipator_on_gibbs_direct(jump, rho_th)
    d_formula = dissipator_on_gibbs_formula(bohr, bath, beta, rho_th)
    d_mismatch = frobenius(d_direct - d_formula)

    if include_lamb_shift and bath.coupling > 0:
        fgrid = lamb_shift_fgrid(bohr, bath, quad)
        l_direct = lambshift_on_gibbs_direct(build_lamb_shift(bohr, fgrid), rho_th)
        l_formula = lambshift_on_gibbs_formula(bohr, fgrid, beta, rho_th)
        l_mismatch = frobenius(l_direct - l_formula)
        l_direct_norm = frobenius(l_direct)
        l_formula_norm = frobenius(l_formula)
        l_tol = 1e-6 * max(l_direct_norm, 1e-300)
    else:
        fgrid = None
        l_direct_norm = l_formula_norm = l_mismatch = 0.0
        l_tol = 0.0

    r8, r9 = secular_residuals(bohr, bath, rho_th, fgrid)

    return ResidualReport(
        dissipator_direct_norm=frobenius(d_direct) / unit,
        dissipator_formula_norm=frobenius(d_formula) / unit,
        dissipator_mismatch=d_mismatch / unit,
        dissipator_mismatch_tol=1e-10 * frobenius(d_direct) / unit,
        lambshift_direct_norm=l_direct_norm / unit,
        lambshift_formula_norm=l_formula_norm / unit,
        lambshift_mismatch=l_mismatch / unit,
        lambshift_mismatch_tol=l_tol / unit,
        secular_dissipator_norm=r8 / unit,
        secular_lambshift_norm=r9 / unit,
        gamma=bath.coupling,
    )


def gibbs_deviation(rho_ss, eig: EigenDecomposition, beta: float,
                    observable=None) -> DeviationReport:
    """Compare a steady state against the Gibbs state of the eigensystem.

    Diagonals are taken in the energy eigenbasis. rho11 refers to the
    lowest-energy level. When `observable` is given the report carries
    <O>_ss and <O>_th.
    """
    p_th = gibbs_populations(eig, beta)
    rho_e = eig.to_eigenbasis(rho_ss)
    diag = np.real(np.diagonal(rho_e)).copy()
    for name, vals in (("steady", diag), ("thermal", p_th)):
        if abs(vals.sum() - 1.0) > 1e-10:
            raise ValueError(f"{name} diagonals sum to {vals.sum()}, not 1")
    dev = np.abs(diag - p_th)
    rel = dev / np.maximum(p_th, REL_FLOOR)
    rho_th = gibbs_state(eig, beta)
    obs_ss = obs_th = None
    if observable is not None:
        obs_ss = expectation(rho_ss, observable)
        obs_th = expectation(rho_th, observable)
    return DeviationReport(
        energies=eig.energies.copy(),
        diag_steady=diag,
        diag_thermal=p_th,
        max_abs_diag_deviation=float(dev.max()),
        max_rel_diag_deviation=float(rel.max()),
        trace_distance=trace_distance(rho_ss, rho_th),
        rho11_gap=float(dev[0]),
        rho11_rel_gap=float(rel[0]),
        observable_steady=obs_ss,
        observable_thermal=obs_th,
    )


@dataclass(frozen=True)
class TrendSystem:
    """Fixed Hamiltonian and coupling swept over bath parameters."""

    hamiltonian: np.ndarray
    coupling_op: np.ndarray
    cutoff: float = 100.0
    observable: np.ndarray | None = None


@dataclass(frozen=True)
class SweepResult:
    temperatures: list
    couplings: list
    cells: dict          # (T, gamma) -> DeviationReport
    errors: dict         # (T, gamma) -> str


def three_level_baseline() -> TrendSystem:
    """Reference system for residual and trend baselines.

    Three levels at energies (0, 1, 3) with an all-ones coupling operator:
    every Bohr frequency pair carries a nonzero cross term, so the Gibbs
    residuals are manifestly nonzero and the steady state is unique.
    """
    h = np.diag([0.0, 1.0, 3.0]).astype(complex)
    x = np.ones((3, 3), dtype=complex)
    return TrendSystem(hamiltonian=h, coupling_op=x)


def trend_sweep(system: TrendSystem, temperatures, couplings) -> SweepResult:
    """Steady-state Gibbs deviation over a (temperature, coupling) grid.

    Failing cells are recorded and the sweep continues.
    """
    temperatures = [float(t) for t in temperatures]
    couplings = [float(g) for g in couplings]
    if not temperatures or not couplings:
        raise ValueError("temperature and coupling lists must be non-empty")
    if min(temperatures) <= 0 or min(couplings) <= 0:
        raise ValueError("sweep values must be positive")
    eig = eigendecompose(system.hamiltonian)
    cells: dict = {}
    errors: dict = {}
    for t in temperatures:
        for gam in couplings:
            bath = BathSpec(temperature=t, coupling=gam, cutoff=system.cutoff)
            channel = NoiseChannel(coupling_op=system.coupling_op, bath=bath)
            try:
                sop = build_liouvillian(eig, channel, include_lamb_shift=False)
                rho_ss = steady_state(sop).state
                cells[(t, gam)] = gibbs_deviation(rho_ss, eig, bath.beta,
                                                  observable=system.observable)
            except (ValueError, RuntimeError) as exc:
                errors[(t, gam)] = str(exc)
    return SweepResult(temperatures=temperatures, couplings=couplings,
                       cells=cells, errors=errors)


def sweep_monotonicity(result: SweepResult):
    """Soft monotonicity of trace distance along both sweep axes.

    Trace distance should not increase with temperature (per coupling) nor
    with decreasing coupling (per temperature). Ties are not violations,
    nor is one inversion of at most 1e-10 per line. Returns
    (ok, violations) where violations lists the offending line descriptions.
    """
    violations = []

    def check(line, label):
        vals = [line[i] for i in range(len(line))]
        hard = sum(1 for a, b in zip(vals, vals[1:]) if b > a + 1e-10)
        soft = sum(1 for a, b in zip(vals, vals[1:]) if a < b <= a + 1e-10)
        if hard > 0 or soft > 1:
            violations.append(f"{label}: {vals}")

    couplings_desc = sorted(result.couplings, reverse=True)
    temps_asc = sorted(result.temperatures)
    for gam in result.couplings:
        line = [result.cells[(t, gam)].trace_distance
                for t in temps_asc if (t, gam) in result.cells]
        check(line, f"coupling {gam}, increasing temperature")
    for t in result.temperatures:
        line = [result.cells[(t, gam)].trace_distance
                for gam in couplings_desc if (t, gam) in result.cells]
        check(line, f"temperature {t}, decreasing coupling")
    return (not violations), violations
