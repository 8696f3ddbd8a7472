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
dissipator and Lamb shift, from the `_secular_parts` that
`build_secular_generator` also uses, are applied to the Gibbs state in the
eigenbasis, where they must vanish at rounding scale. That control is
three d x d products masked to the level pairs of equal energy, with no
per-frequency d x d operator; its dissipator reads the part of the state
that commutes with H, which is all of a Gibbs state of H.

Each formula is a sum over the level triples (m, l, n), where w1 + w2
(w2 - w1 in the dissipator) is E_n - E_m, of coefficients times the
eigenbasis Gibbs populations p, with p_n (1 - e^(beta (E_n - E_m))) =
p_n - p_m and p_n (1 - e^(beta (E_n - E_m)/2))^2 = (sqrt p_n - sqrt p_m)^2:
no exponential of a positive argument, at any T. The Lamb-shift formula
weights the eigenbasis Lamb shift of `generator.lamb_shift_eigen` by p_n -
p_m; the dissipator's g(w1) g(w2) separates in l, so its sum is one d x d product.
Each mismatch is reported with its tolerance, which `ule residual` enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .bath import BathSpec, QuadratureSpec, jump_spectral
from .dynamics import expectation, steady_state
from .generator import (
    NoiseChannel,
    _lamb_shift_channels,
    _secular_parts,
    build_jump_operator,
    build_lamb_shift,
    build_liouvillian,
    lamb_shift_eigen,
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
        """(quantity, norm) pairs for tabular output: every field but gamma, in order."""
        return [(f.name, getattr(self, f.name)) for f in fields(self) if f.name != "gamma"]


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
                                beta: float) -> np.ndarray:
    """Bohr-sum form of the dissipator on the Gibbs state: triple coefficients
    -2 pi^2 gamma g(w1) g(w2) (sqrt p_n - sqrt p_m)^2.

    With G = g at `bin_index`, the coefficient of (m, l, n) is G_lm G_ln
    times a factor of (m, n), so the sum over l is the one d x d product
    (G^T * X) @ (G * X), X = `coupling_eigen`; nothing is built over the
    level triples.
    """
    x = bohr.coupling_eigen
    g = jump_spectral(bath, bohr.frequencies)[bohr.bin_index]
    s = np.sqrt(gibbs_populations(bohr.eig, beta))
    factor = -2.0 * np.pi**2 * bath.coupling * (s[None, :] - s[:, None]) ** 2
    return bohr.eig.from_eigenbasis(factor * ((g.T * x) @ (g * x)))


def lambshift_on_gibbs_direct(lamb_shift, rho_th) -> np.ndarray:
    """Commutator [Lam, rho_th]."""
    return lamb_shift @ rho_th - rho_th @ lamb_shift


def lambshift_on_gibbs_formula(eig: EigenDecomposition, lam_eigen, beta: float) -> np.ndarray:
    """Bohr-sum form of the Lamb-shift commutator on the Gibbs state: triple
    coefficients f (p_n - p_m), whose sum over l is the eigenbasis Lamb
    shift `lam_eigen` of `generator.lamb_shift_eigen` times p_n - p_m."""
    p = gibbs_populations(eig, beta)
    return eig.from_eigenbasis((p[None, :] - p[:, None]) * lam_eigen)


def secular_residuals(bohr: BohrDecomposition, bath: BathSpec, rho_th, fmatch=None):
    """Norms of the secular generator's two parts applied to the Gibbs state.

    Returns (||sum_w D[L(w)](rho_th)||, ||[Lam_sec, rho_th]||) for the jumps
    L(w) = 2 pi sqrt(gamma) g(w) A(w) and the Lamb shift
    Lam_sec = sum_w f(w, -w) A(w) A(-w) of `build_secular_generator`, with
    f(E_l - E_m, E_m - E_l) = fmatch[m, l]; with `fmatch` None the Lamb part is 0.0. The
    Gibbs state of H is stationary under the secular generator, so both vanish at
    rounding scale; a Gibbs state of another temperature or Hamiltonian does
    not. `rho_th` is rotated into the eigenbasis once, where `_secular_parts`
    acts; the norms are unitarily invariant. The dissipator half reads only
    the part of `rho_th` that commutes with H (its blocks between levels of
    one energy), which is all of a Gibbs state of H; the Lamb half reads all
    of `rho_th`.
    """
    _, lam, dissipator = _secular_parts(bohr, bath, fmatch)
    y = bohr.eig.to_eigenbasis(rho_th)
    lamb = 0.0 if lam is None else frobenius(lambshift_on_gibbs_direct(lam, y))
    return frobenius(dissipator(y)), lamb


def gibbs_residual_report(eig: EigenDecomposition, channel: NoiseChannel,
                          lamb_shift: QuadratureSpec | None = QuadratureSpec()) -> ResidualReport:
    """Evaluate all Gibbs residuals for one channel by both routes.

    Norms are reported in units of gamma so baselines compare across
    couplings. With `lamb_shift` None, or at zero coupling, every Lamb-shift
    entry, including the secular one, is zero and no quadrature runs;
    otherwise one `lamb_shift_eigen` gives the Lamb shift both routes read
    and the secular Lamb shift's f(w, -w).
    """
    bath = channel.bath
    beta = bath.beta
    with_lamb = _lamb_shift_channels([channel], lamb_shift)
    bohr = bohr_decompose(channel.coupling_op, eig)
    lam, fmatch = (lamb_shift_eigen(eig, bohr.coupling_eigen, bath, lamb_shift) if with_lamb
                   else (None, None))
    rho_th = gibbs_state(eig, beta)
    unit = bath.coupling if bath.coupling > 0 else 1.0

    jump = build_jump_operator(eig, channel)
    d_direct = dissipator_on_gibbs_direct(jump, rho_th)
    d_formula = dissipator_on_gibbs_formula(bohr, bath, beta)
    d_mismatch = frobenius(d_direct - d_formula)

    if with_lamb:
        l_direct = lambshift_on_gibbs_direct(build_lamb_shift(eig, lam), rho_th)
        l_formula = lambshift_on_gibbs_formula(eig, lam, beta)
        l_mismatch = frobenius(l_direct - l_formula)
        l_direct_norm = frobenius(l_direct)
        l_formula_norm = frobenius(l_formula)
        l_tol = 1e-6 * max(l_direct_norm, 1e-300)
    else:
        l_direct_norm = l_formula_norm = l_mismatch = l_tol = 0.0

    r8, r9 = secular_residuals(bohr, bath, rho_th, fmatch)

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
                sop = build_liouvillian(eig, [channel], lamb_shift=None)
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
