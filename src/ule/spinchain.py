"""Spin-chain relaxation experiment.

Open spin-1/2 Heisenberg chain in a uniform z field,

    H = eta sum_n (Sx_n Sx_{n+1} + Sy_n Sy_{n+1} + Sz_n Sz_{n+1})
        + B_z sum_n Sz_n,

with a thermal reservoir attached to each end site through the tilted
coupling (Sx + Sz)/sqrt(2). The second reservoir usually has zero
coupling, leaving a single active channel. The chain starts from the
fully polarized product state opposing the field (all spins up, the
highest Zeeman energy under the +B_z convention) and relaxes; the
experiment records the z magnetization over time, the steady state of
the generator, and its deviation from the Gibbs state at the first bath's
temperature.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .analysis import DeviationReport, gibbs_deviation
from .bath import BathSpec, QuadratureSpec
from .dynamics import SteadyStateReport, Trajectory, propagate, steady_state
from .generator import NoiseChannel, build_liouvillian
from .operators import EigenDecomposition, eigendecompose

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class SpinChainSpec:
    """Parameters of the open-chain experiment.

    couple_sites are 1-based; lamb_shift (the quadrature of its f values)
    defaults to None, no Lamb shift, matching the reference run. Memory
    alone bounds N: `ule.cli` checks each command's peak model first.
    """

    N: int = 6
    eta: float = 1.0
    B_z: float = 8.0
    T1: float = 2.0
    T2: float = 1.0
    gamma1: float = 0.1
    gamma2: float = 0.0
    Lambda_c: float = 100.0
    couple_sites: tuple | None = None
    lamb_shift: QuadratureSpec | None = None

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"N must be at least 2, got {self.N}")
        for name in ("eta", "B_z", "T1", "T2", "Lambda_c"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValueError("couplings must be non-negative")
        sites = self.couple_sites or (1, self.N)
        if len(sites) != 2 or not all(1 <= s <= self.N for s in sites):
            raise ValueError(f"couple_sites must be two sites in 1..{self.N}")
        object.__setattr__(self, "couple_sites", (int(sites[0]), int(sites[1])))

    @property
    def dim(self) -> int:
        return 2 ** self.N


@dataclass(frozen=True)
class ExperimentResult:
    """`deviation` carries <M> of the steady and the Gibbs state; `runtime`
    holds the wall seconds of the build, propagate and steady phases."""

    trajectory: Trajectory
    steady: SteadyStateReport
    deviation: DeviationReport
    runtime: dict


def site_operator(op2, site: int, n_sites: int) -> np.ndarray:
    """Embed a single-spin operator at a 1-based site of an n-site chain."""
    if not 1 <= site <= n_sites:
        raise ValueError(f"site {site} outside 1..{n_sites}")
    return _embed(op2, site, n_sites)


def _embed(op, site: int, n_sites: int) -> np.ndarray:
    """kron(1, op, 1) with op acting on the sites from the 1-based `site` on."""
    before = 2 ** (site - 1)
    after = 2 ** n_sites // (before * op.shape[0])
    return np.kron(np.kron(np.eye(before, dtype=complex), op), np.eye(after, dtype=complex))


def build_chain_hamiltonian(spec: SpinChainSpec) -> np.ndarray:
    """Isotropic Heisenberg exchange plus uniform z field, spin-1/2 sites.

    Each bond adds the embedded two-site operator Sx Sx + Sy Sy + Sz Sz.
    """
    n = spec.N
    sx, sy, sz = PAULI_X / 2, PAULI_Y / 2, PAULI_Z / 2
    bond = np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz)
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for k in range(1, n):
        h += spec.eta * _embed(bond, k, n)
    h += spec.B_z * sum(_embed(sz, k, n) for k in range(1, n + 1))
    return h


def magnetization(n_sites: int) -> np.ndarray:
    """Mean z magnetization (1/N) sum_n Sz_n; eigenvalues in [-1/2, 1/2]."""
    if n_sites < 1:
        raise ValueError("need at least one site")
    out = sum(site_operator(PAULI_Z / 2, k, n_sites) for k in range(1, n_sites + 1))
    return out / n_sites


def bath_coupling_operator(site: int, n_sites: int) -> np.ndarray:
    """Tilted end-site coupling (Sx + Sz)/sqrt(2).

    A coupling axis tilted against the field mixes widely separated Bohr
    frequencies, which is what exposes the non-secular structure of the
    steady state; a pure Sx coupling leaves the deviations an order of
    magnitude weaker.
    """
    tilted = (PAULI_X / 2 + PAULI_Z / 2) / np.sqrt(2.0)
    return site_operator(tilted, site, n_sites)


def chain_channels(spec: SpinChainSpec):
    """The two end-site noise channels (the second usually has gamma2 = 0)."""
    s1, s2 = spec.couple_sites
    return [
        NoiseChannel(coupling_op=bath_coupling_operator(s1, spec.N),
                     bath=BathSpec(temperature=spec.T1, coupling=spec.gamma1,
                                   cutoff=spec.Lambda_c)),
        NoiseChannel(coupling_op=bath_coupling_operator(s2, spec.N),
                     bath=BathSpec(temperature=spec.T2, coupling=spec.gamma2,
                                   cutoff=spec.Lambda_c)),
    ]


def all_up_state(n_sites: int) -> np.ndarray:
    """Projector onto the product state with every spin up (Sz = +1/2)."""
    dim = 2 ** n_sites
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def build_chain_superop(spec: SpinChainSpec):
    """(eig, sop): the chain Hamiltonian's eigendecomposition and the generator."""
    eig = eigendecompose(build_chain_hamiltonian(spec))
    return eig, build_liouvillian(eig, chain_channels(spec), spec.lamb_shift)


def relax_chain(spec: SpinChainSpec, sop, t_end: float | None = None,
                samples: int = 200, tol: float = 1e-8) -> Trajectory:
    """Propagate the all-up state, sampling M; t_end defaults to 50 / gamma1."""
    if t_end is None:
        if spec.gamma1 <= 0:
            raise ValueError("t_end must be given when gamma1 is zero")
        t_end = 50.0 / spec.gamma1
    return propagate(sop, all_up_state(spec.N), t_end, np.linspace(0.0, t_end, samples),
                     tol=tol, observables={"M": magnetization(spec.N)})


def chain_steady_state(spec: SpinChainSpec, eig: EigenDecomposition,
                       sop) -> tuple[SteadyStateReport, DeviationReport]:
    """The steady state of `sop` and its deviation from the Gibbs state at
    T1, with the magnetization as the observable."""
    report = steady_state(sop)
    return report, gibbs_deviation(report.state, eig, 1.0 / spec.T1,
                                   observable=magnetization(spec.N))


def run_relaxation(spec: SpinChainSpec, t_end: float | None = None,
                   samples: int = 200, tol: float = 1e-8) -> ExperimentResult:
    """Relax the field-opposing product state and compare against Gibbs.

    t_end defaults to 50 relaxation scales, 50 / gamma1. The steady values
    come from the steady-state solve, never from the trajectory endpoint.
    """
    t0 = time.perf_counter()
    eig, sop = build_chain_superop(spec)
    t_build = time.perf_counter() - t0

    t0 = time.perf_counter()
    traj = relax_chain(spec, sop, t_end, samples, tol)
    t_prop = time.perf_counter() - t0

    t0 = time.perf_counter()
    ss, deviation = chain_steady_state(spec, eig, sop)
    t_ss = time.perf_counter() - t0

    runtime = dict(build_seconds=t_build, propagate_seconds=t_prop,
                   steady_seconds=t_ss)
    return ExperimentResult(trajectory=traj, steady=ss, deviation=deviation,
                            runtime=runtime)
