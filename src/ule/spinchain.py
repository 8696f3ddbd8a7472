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
from dataclasses import dataclass, field

import numpy as np

from .analysis import DeviationReport, gibbs_deviation
from .bath import BathSpec, QuadratureSpec
from .dynamics import SteadyStateReport, Trajectory, expectation, propagate, steady_state
from .generator import NoiseChannel, build_generator, build_liouvillian, channels_compose
from .operators import EigenDecomposition, eigendecompose, gibbs_state

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

MAX_SITES = 10  # a dense superoperator is 16 d^4 bytes: 4.3 GB at N = 7, 17.6 TB at N = 10


@dataclass(frozen=True)
class SpinChainSpec:
    """Parameters of the open-chain experiment.

    omega0 is recorded for provenance (it belongs to the parameter set this
    experiment inherits) but enters no formula here. couple_sites are
    1-based; ignore_lamb_shift defaults on, matching the reference run.
    """

    N: int = 6
    eta: float = 1.0
    B_z: float = 8.0
    T1: float = 2.0
    T2: float = 1.0
    gamma1: float = 0.1
    gamma2: float = 0.0
    Lambda_c: float = 100.0
    omega0: float = 2.0
    couple_sites: tuple | None = None
    ignore_lamb_shift: bool = True
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        if not (2 <= self.N <= MAX_SITES):
            raise ValueError(f"N must be between 2 and {MAX_SITES}, got {self.N}")
        for name in ("eta", "B_z", "T1", "T2", "Lambda_c", "omega0"):
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
    spec: SpinChainSpec
    trajectory: Trajectory
    steady: SteadyStateReport
    deviation: DeviationReport
    magnetization_steady: float
    magnetization_thermal: float
    eig: EigenDecomposition
    runtime: dict


def site_operator(op2, site: int, n_sites: int) -> np.ndarray:
    """Embed a single-spin operator at a 1-based site of an n-site chain."""
    if not 1 <= site <= n_sites:
        raise ValueError(f"site {site} outside 1..{n_sites}")
    out = np.array([[1.0]], dtype=complex)
    for k in range(1, n_sites + 1):
        out = np.kron(out, op2 if k == site else np.eye(2, dtype=complex))
    return out


def build_chain_hamiltonian(spec: SpinChainSpec) -> np.ndarray:
    """Isotropic Heisenberg exchange plus uniform z field, spin-1/2 sites."""
    n = spec.N
    sx = [site_operator(PAULI_X / 2, k, n) for k in range(1, n + 1)]
    sy = [site_operator(PAULI_Y / 2, k, n) for k in range(1, n + 1)]
    sz = [site_operator(PAULI_Z / 2, k, n) for k in range(1, n + 1)]
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for k in range(n - 1):
        h += spec.eta * (sx[k] @ sx[k + 1] + sy[k] @ sy[k + 1] + sz[k] @ sz[k + 1])
    h += spec.B_z * sum(sz)
    return h


def magnetization(n_sites: int) -> np.ndarray:
    """Mean z magnetization (1/N) sum_n Sz_n; eigenvalues in [-1/2, 1/2]."""
    if n_sites < 1:
        raise ValueError("need at least one site")
    out = sum(site_operator(PAULI_Z / 2, k, n_sites) for k in range(1, n_sites + 1))
    return out / n_sites


def total_sz(n_sites: int) -> np.ndarray:
    return n_sites * magnetization(n_sites)


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
    gens = [build_generator(eig, ch, spec.quad, include_lamb_shift=not spec.ignore_lamb_shift)
            for ch in chain_channels(spec)]
    return eig, build_liouvillian(channels_compose(gens))


def relax_chain(spec: SpinChainSpec, sop, t_end: float | None = None,
                samples: int = 200, tol: float = 1e-8) -> Trajectory:
    """Propagate the all-up state, sampling M; t_end defaults to 50 / gamma1."""
    if t_end is None:
        if spec.gamma1 <= 0:
            raise ValueError("t_end must be given when gamma1 is zero")
        t_end = 50.0 / spec.gamma1
    return propagate(sop, all_up_state(spec.N), t_end, np.linspace(0.0, t_end, samples),
                     tol=tol, observables={"M": magnetization(spec.N)})


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
    ss = steady_state(sop)
    t_ss = time.perf_counter() - t0

    beta1 = 1.0 / spec.T1
    m_op = magnetization(spec.N)
    deviation = gibbs_deviation(ss.state, eig, beta1, observable=m_op)
    m_ss = expectation(ss.state, m_op)
    m_th = expectation(gibbs_state(eig, beta1), m_op)

    runtime = dict(build_seconds=t_build, propagate_seconds=t_prop,
                   steady_seconds=t_ss, n_accepted=traj.stats["n_accepted"],
                   n_rejected=traj.stats["n_rejected"])
    return ExperimentResult(spec=spec, trajectory=traj, steady=ss,
                            deviation=deviation, magnetization_steady=m_ss,
                            magnetization_thermal=m_th, eig=eig, runtime=runtime)
