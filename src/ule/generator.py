"""Assembly of the quantum master equation generator.

The generator acts on a density matrix as

    drho/dt = -i [H + Lam, rho] + sum_c ( L_c rho L_c^dag - (1/2){L_c^dag L_c, rho} )

with, per noise channel (coupling operator X, bath g and f),

    L_mn   = 2 pi sqrt(gamma) g(E_n - E_m) X_mn      (eigenbasis elements)
    Lam_mn = sum_l f(E_l - E_m, E_n - E_l) X_ml X_ln

Lam and the secular Lamb shift are Bohr double sums, evaluated by the one
kernel `BohrDecomposition.double_sum` on an f grid from `lamb_shift_fgrid`
or `matched_pair_fgrid`. The secular generator's jumps A(w) and Lamb shift
sum_w f(w, -w) A(w) A(-w) come from one construction, `_secular_parts`,
which `analysis.secular_residuals` also applies to the Gibbs state.

A generator is held in one form, :class:`Superoperator`: the Hermitian
H_eff = H + Lam and the nonzero jump operators. `build_liouvillian` (the
full generator) and `build_secular_generator` both hand H + Lam and the
jumps to its constructor, the one place that hermitizes H_eff and drops
all-zero jumps. `apply_matrix` applies it with d x d matrix products; time
propagation uses the same products on the dissipator rotated into the
eigenbasis of H_eff (`_eigenframe`, one eigh per generator), and so does
the matrix-free steady-state solve, for the generator and (with E -> -E
and each L_c swapped with L_c^dag) for the adjoint its certificate needs.
The one trace-preservation check runs on these factors. The dense
d^2 x d^2 matrix is built only when the SVD fallback or `liouvillian_gap`
first asks for it, using column stacking: vec(A rho B) = (B^T kron A) vec(rho).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bath import BathSpec, QuadratureSpec, f_values, jump_spectral
from .operators import (
    BohrDecomposition,
    EigenDecomposition,
    bohr_decompose,
    frobenius,
    hermitize,
    require_hermitian,
)


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(rho).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v).reshape((dim, dim), order="F")


@dataclass(frozen=True)
class NoiseChannel:
    """One bath attached to the system through a Hermitian coupling operator."""

    coupling_op: np.ndarray
    bath: BathSpec

    def __post_init__(self):
        object.__setattr__(self, "coupling_op",
                           require_hermitian(self.coupling_op, name="X"))


# Only the SVD fallback of `steady_state` and `liouvillian_gap` build the
# dense matrix, so its guard is sized for the SVD. A dense build plus that SVD
# raised peak RSS by 9.1x (N = 4, mostly fixed allocations) and 6.7x (N = 5)
# the 16 d^4 bytes of the matrix: the matrix, the copy gesdd factors, U, V^H
# and the real workspace.
DENSE_SOLVE_MEMORY_FACTOR = 7


class MemoryLimitError(ValueError):
    """A workspace would not fit in physical memory; raised before allocating."""


def _physical_memory() -> int:
    """Bytes of physical memory, the one reading behind every memory guard."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(need: float, what: str) -> None:
    """MemoryLimitError naming `what` if it needs more than physical memory."""
    have = _physical_memory()
    if need > have:
        raise MemoryLimitError(f"{what} needs about {need / 1e9:.3g} GB; "
                               f"physical memory is {have / 1e9:.3g} GB")


@dataclass(frozen=True)
class Superoperator:
    """Generator rho -> -i (K rho - rho K^dag) + sum_c L_c rho L_c^dag.

    K = H_eff - (i/2) sum_c L_c^dag L_c. `apply_matrix` uses d x d products;
    the dense d^2 x d^2 `matrix` on column-stacked states is built on first
    access.

    Construction normalises: `hamiltonian` is stored as the Hermitian part
    of the H_eff passed in, and `jumps` (any iterable) keeps only the
    operators that are not all zero, e.g. those of zero-coupling channels.
    """

    hamiltonian: np.ndarray
    jumps: list

    def __post_init__(self):
        object.__setattr__(self, "hamiltonian", hermitize(self.hamiltonian))
        object.__setattr__(self, "jumps", [l for l in self.jumps if np.any(l)])

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @cached_property
    def _factors(self):
        """(K, K^dag, [L_c^dag]) for `apply_matrix`.

        ValueError unless the generator is trace preserving: the defect
        `trace_preservation_defect` must stay within 1e-10 max(1, max|K|).
        """
        k = np.array(self.hamiltonian, dtype=complex)
        for l in self.jumps:
            k -= 0.5j * (l.conj().T @ l)
        factors = k, k.conj().T, [l.conj().T for l in self.jumps]
        defect = _trace_defect(self.jumps, *factors)
        if defect > 1e-10 * max(1.0, float(np.max(np.abs(k)))):
            raise ValueError(f"Liouvillian is not trace preserving: defect {defect:.3e}")
        return factors

    @cached_property
    def _eigenframe(self):
        """(eig, G, [L_c], [L_c^dag]) for `propagate` and `steady_state`.

        eig is one eigh of H_eff, taken as it comes (no rephasing); G =
        -(1/2) sum_c L_c^dag L_c (Hermitized) and the jumps are rotated into
        that eigenbasis, where the dissipator reads G y + y G + sum_c L_c y
        L_c^dag. The trace check of `_factors` runs first.
        """
        self._factors
        eig = EigenDecomposition(*np.linalg.eigh(self.hamiltonian))
        jumps = [eig.to_eigenbasis(l) for l in self.jumps]
        g = -0.5 * sum((l.conj().T @ l for l in jumps), start=np.zeros((self.dim, self.dim)))
        return eig, hermitize(g), jumps, [l.conj().T for l in jumps]

    def apply_matrix(self, rho: np.ndarray) -> np.ndarray:
        """Generator action on a d x d matrix (Hermitian or not)."""
        k, k_dag, jumps_dag = self._factors
        out = -1j * (k @ rho - rho @ k_dag)
        for l, l_dag in zip(self.jumps, jumps_dag):
            out += l @ rho @ l_dag
        return out

    @cached_property
    def matrix(self) -> np.ndarray:
        """-i (I kron K) + i (conj(K) kron I) + sum_c conj(L_c) kron L_c.

        MemoryLimitError if it and its SVD workspace would not fit in
        physical memory (raised before allocating); ValueError if the
        generator is not trace preserving.
        """
        d = self.dim
        _require_memory(DENSE_SOLVE_MEMORY_FACTOR * 16 * d ** 4,
                        f"dense superoperator of size {d ** 2} x {d ** 2} with its SVD workspace")
        k = self._factors[0]
        mat = np.kron(np.eye(d), -1j * k)
        mat += np.kron(1j * k.conj(), np.eye(d))
        for l in self.jumps:
            mat += np.kron(l.conj(), l)
        return mat

    def trace_preservation_defect(self) -> float:
        """Max entry of <<I| applied to the generator: max|-i (K - K^dag) + sum_c L_c^dag L_c|.

        Zero for trace preservation.
        """
        return _trace_defect(self.jumps, *self._factors)


def _trace_defect(jumps, k, k_dag, jumps_dag) -> float:
    """tr(L(rho)) = tr(Q rho) with Q = -i (K - K^dag) + sum_c L_c^dag L_c; max|Q|."""
    q = -1j * (k - k_dag)
    for l, l_dag in zip(jumps, jumps_dag):
        q += l_dag @ l
    return float(np.max(np.abs(q)))


def build_jump_operator(eig: EigenDecomposition, channel: NoiseChannel) -> np.ndarray:
    """Jump operator with eigenbasis elements 2 pi sqrt(gamma) g(E_n - E_m) X_mn.

    Built elementwise from the exact eigenvalue gaps (no binning needed) and
    rotated back to the input basis.
    """
    xe = eig.to_eigenbasis(channel.coupling_op)
    gaps = eig.energies[None, :] - eig.energies[:, None]
    le = 2.0 * np.pi * np.sqrt(channel.bath.coupling) * jump_spectral(channel.bath, gaps) * xe
    return eig.from_eigenbasis(le)


def _lamb_shift_bins(bohr: BohrDecomposition):
    """(i, j) frequency indices of the distinct (w_i, w_j) in the Lamb-shift sum.

    The triple sum over levels (m, l, n) only ever calls f at
    (E_l - E_m, E_n - E_l), i.e. at (bin[m, l], bin[l, n]), and only the
    triples with X_ml and X_ln both nonzero contribute. Every anti-diagonal
    pair (w, -w) of a kept frequency is among them (take n = m).
    """
    bins = bohr.bin_index
    live = bohr.coupling_eigen != 0
    pairs = bins[:, :, None] * bohr.nfreq + bins[None, :, :]
    return np.divmod(np.unique(pairs[live[:, :, None] & live[None, :, :]]), bohr.nfreq)


def lamb_shift_pairs(bohr: BohrDecomposition):
    """Distinct (E1, E2) bin-representative pairs occurring in the Lamb-shift sum."""
    i, j = _lamb_shift_bins(bohr)
    return list(zip(bohr.frequencies[i].tolist(), bohr.frequencies[j].tolist()))


def _fgrid(bohr: BohrDecomposition, bath: BathSpec, quad: QuadratureSpec, rows, cols):
    """f(w_i, w_j) at the distinct frequency-index pairs (rows, cols); zero elsewhere."""
    grid = np.zeros((bohr.nfreq, bohr.nfreq))
    grid[rows, cols] = f_values(bath, bohr.frequencies[rows], bohr.frequencies[cols], quad)
    return grid


def lamb_shift_fgrid(bohr: BohrDecomposition, bath: BathSpec,
                     quad: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """f(w_i, w_j) at the distinct pairs of the Lamb-shift sum; zero elsewhere."""
    return _fgrid(bohr, bath, quad, *_lamb_shift_bins(bohr))


def matched_pair_fgrid(bohr: BohrDecomposition, bath: BathSpec,
                       quad: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """f(w, -w) at [k, nfreq - 1 - k], the anti-diagonal of `lamb_shift_fgrid`."""
    k = np.arange(bohr.nfreq)
    return _fgrid(bohr, bath, quad, k, k[::-1])


def build_lamb_shift(bohr: BohrDecomposition, fgrid) -> np.ndarray:
    """Lamb-shift operator Lam_mn = sum_l f(E_l - E_m, E_n - E_l) X_ml X_ln.

    The triple sum is the double Bohr sum over `fgrid`, the f values of
    :func:`lamb_shift_fgrid`. Hermiticity follows from the swap symmetry
    f(E1, E2) = f(-E2, -E1) and is asserted.
    """
    lam = bohr.double_sum(fgrid)
    defect = frobenius(lam - lam.conj().T)
    if defect > 1e-8 * max(frobenius(lam), 1e-300):
        raise ValueError(f"Lamb shift failed Hermiticity check: {defect:.3e}")
    return hermitize(lam)


def build_liouvillian(eig: EigenDecomposition, channels,
                      quad: QuadratureSpec = QuadratureSpec(),
                      include_lamb_shift: bool = True) -> Superoperator:
    """Generator of the master equation for one channel or a list of them.

    H_eff = H + sum_c Lam_c and one jump operator per channel, without dense
    work. With `include_lamb_shift` false, or for a channel with zero
    coupling (where f vanishes), that channel's Lamb shift is skipped and no
    quadrature runs.
    """
    if isinstance(channels, NoiseChannel):
        channels = [channels]
    lam = np.zeros((eig.dim, eig.dim), dtype=complex)
    jumps = []
    for ch in channels:
        jumps.append(build_jump_operator(eig, ch))
        if include_lamb_shift and ch.bath.coupling > 0:
            bohr = bohr_decompose(ch.coupling_op, eig)
            lam = lam + build_lamb_shift(bohr, lamb_shift_fgrid(bohr, ch.bath, quad))
    return Superoperator(eig.reconstruct() + lam, jumps)


def _secular_parts(bohr: BohrDecomposition, bath: BathSpec, fgrid):
    """(jumps, Lam) of the secular generator of one channel.

    The jumps 2 pi sqrt(gamma) g(w_k) A(w_k) come one at a time from an
    iterator, so a caller that only sums over them never holds all nfreq.
    Lam = sum_w f(w, -w) A(w) A(-w) reads f from the anti-diagonal of
    `fgrid`, which `matched_pair_fgrid` and `lamb_shift_fgrid` both fill.
    With `fgrid` None, Lam is zero.
    """
    g = jump_spectral(bath, bohr.frequencies)
    jumps = (2.0 * np.pi * np.sqrt(bath.coupling) * g[k] * bohr.component(k)
             for k in range(bohr.nfreq))
    if fgrid is None:
        return jumps, np.zeros((bohr.dim, bohr.dim), dtype=complex)
    k = np.arange(bohr.nfreq)
    matched = np.zeros_like(fgrid)
    matched[k, k[::-1]] = fgrid[k, k[::-1]]
    return jumps, bohr.double_sum(matched)


def build_secular_generator(bohr: BohrDecomposition, channel: NoiseChannel,
                            quad: QuadratureSpec = QuadratureSpec(),
                            include_lamb_shift: bool = True) -> Superoperator:
    """Conventional (secular) generator obtained by keeping only matched
    Bohr-frequency pairs.

    Dissipator: sum_w (2 pi)^2 gamma g(w)^2 [ A(w) rho A(w)^dag
    - (1/2){A(w)^dag A(w), rho} ]; coherent part: H plus the secular Lamb
    shift sum_w f(w, -w) A(w) A(-w). The Gibbs state of H is stationary for
    this generator.
    """
    fgrid = matched_pair_fgrid(bohr, channel.bath, quad) if include_lamb_shift else None
    jumps, lam = _secular_parts(bohr, channel.bath, fgrid)
    return Superoperator(bohr.eig.reconstruct() + lam, jumps)
