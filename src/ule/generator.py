"""Assembly of the quantum master equation generator.

The generator acts on a density matrix as

    drho/dt = -i [H + Lam, rho] + sum_c ( L_c rho L_c^dag - (1/2){L_c^dag L_c, rho} )

with, per noise channel (coupling operator X, bath g and f),

    L_mn   = 2 pi sqrt(gamma) g(E_n - E_m) X_mn      (eigenbasis elements)
    Lam_mn = sum_l f(E_l - E_m, E_n - E_l) X_ml X_ln

Lam and the secular Lamb shift are Bohr double sums, evaluated by the one
kernel `BohrDecomposition.double_sum` on an f grid from `lamb_shift_fgrid`
or `matched_pair_fgrid`.

A generator is held in one form, :class:`Superoperator`: the Hermitian
H_eff = H + Lam and the nonzero jump operators. Time propagation applies it
with d x d matrix products; the dense d^2 x d^2 matrix is built only when a
dense solve first asks for it, using column stacking:
vec(A rho B) = (B^T kron A) vec(rho).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bath import BathSpec, QuadratureSpec, f_table, jump_spectral
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


@dataclass(frozen=True)
class UleGenerator:
    """Hamiltonian, Lamb shift and jump operators of the master equation.

    `lamb_shift` is the zero matrix when the generator was built with the
    Lamb shift disabled.
    """

    hamiltonian: np.ndarray
    lamb_shift: np.ndarray
    jumps: list


# `steady_state` needs the matrix and one bordered copy to factor, but any
# generator its certificate rejects falls back to the gesdd SVD, so the guard
# is sized for the SVD. A dense build plus that SVD raised peak RSS by 9.1x
# (N = 4, mostly fixed allocations) and 6.7x (N = 5) the 16 d^4 bytes of the
# matrix: the matrix, the copy gesdd factors, U, V^H and the real workspace.
DENSE_SOLVE_MEMORY_FACTOR = 7


@dataclass(frozen=True)
class Superoperator:
    """Generator rho -> -i (K rho - rho K^dag) + sum_c L_c rho L_c^dag.

    K = H_eff - (i/2) sum_c L_c^dag L_c. `apply_matrix` uses d x d products;
    the dense d^2 x d^2 `matrix` on column-stacked states is built on first
    access.
    """

    hamiltonian: np.ndarray
    jumps: list

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @cached_property
    def _factors(self):
        """(K, K^dag, [L_c^dag]) for `apply_matrix`."""
        k = np.array(self.hamiltonian, dtype=complex)
        for l in self.jumps:
            k -= 0.5j * (l.conj().T @ l)
        return k, k.conj().T, [l.conj().T for l in self.jumps]

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

        ValueError if it and its SVD workspace would not fit in physical
        memory (raised before allocating) or if it is not trace preserving.
        """
        d = self.dim
        need = DENSE_SOLVE_MEMORY_FACTOR * 16 * d ** 4
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise ValueError(
                f"dense superoperator of size {d ** 2} x {d ** 2} needs about {need / 1e9:.3g} "
                f"GB with its SVD workspace; physical memory is {have / 1e9:.3g} GB")
        k = self._factors[0]
        mat = np.kron(np.eye(d), -1j * k)
        mat += np.kron(1j * k.conj(), np.eye(d))
        for l in self.jumps:
            mat += np.kron(l.conj(), l)
        defect = _trace_defect(mat, d)
        if defect > 1e-10 * max(1.0, float(np.max(np.abs(mat)))):
            raise ValueError(f"Liouvillian is not trace preserving: defect {defect:.3e}")
        return mat

    def trace_preservation_defect(self) -> float:
        """Max entry of <<I| applied to the matrix; zero for trace preservation."""
        return _trace_defect(self.matrix, self.dim)


def _trace_defect(mat: np.ndarray, dim: int) -> float:
    return float(np.max(np.abs(vec(np.eye(dim)).conj() @ mat)))


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
    (E_l - E_m, E_n - E_l), i.e. at (bin[m, l], bin[l, n]).
    """
    bins = bohr.bin_index
    return np.divmod(np.unique(bins[:, :, None] * bohr.nfreq + bins[None, :, :]), bohr.nfreq)


def lamb_shift_pairs(bohr: BohrDecomposition):
    """Distinct (E1, E2) bin-representative pairs occurring in the Lamb-shift sum."""
    i, j = _lamb_shift_bins(bohr)
    return list(zip(bohr.frequencies[i].tolist(), bohr.frequencies[j].tolist()))


def _fgrid(bohr: BohrDecomposition, bath: BathSpec, quad: QuadratureSpec, rows, cols):
    """f(w_i, w_j) at the distinct frequency-index pairs (rows, cols); zero elsewhere."""
    freqs = bohr.frequencies
    table = f_table(bath, zip(freqs[rows].tolist(), freqs[cols].tolist()), quad)
    grid = np.zeros((bohr.nfreq, bohr.nfreq))
    grid[rows, cols] = list(table.values())  # distinct pairs keep their order
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


def build_lamb_shift(eig: EigenDecomposition, channel: NoiseChannel,
                     quad: QuadratureSpec = QuadratureSpec(),
                     bohr: BohrDecomposition | None = None) -> np.ndarray:
    """Lamb-shift operator Lam_mn = sum_l f(E_l - E_m, E_n - E_l) X_ml X_ln.

    The triple sum is the double Bohr sum of :func:`lamb_shift_fgrid`.
    Hermiticity follows from the swap symmetry f(E1, E2) = f(-E2, -E1) and
    is asserted.
    """
    if bohr is None:
        bohr = bohr_decompose(channel.coupling_op, eig)
    if channel.bath.coupling == 0.0:
        return np.zeros((eig.dim, eig.dim), dtype=complex)
    return _lamb_shift_from_fgrid(bohr, lamb_shift_fgrid(bohr, channel.bath, quad))


def _lamb_shift_from_fgrid(bohr: BohrDecomposition, fgrid) -> np.ndarray:
    lam = bohr.double_sum(fgrid)
    defect = frobenius(lam - lam.conj().T)
    if defect > 1e-8 * max(frobenius(lam), 1e-300):
        raise ValueError(f"Lamb shift failed Hermiticity check: {defect:.3e}")
    return hermitize(lam)


def build_generator(eig: EigenDecomposition, channels,
                    quad: QuadratureSpec = QuadratureSpec(),
                    include_lamb_shift: bool = True) -> UleGenerator:
    """Assemble jump operators (and optionally the Lamb shift) for channels.

    With `include_lamb_shift` false the Lamb shift is the zero matrix and no
    quadrature runs.
    """
    if isinstance(channels, NoiseChannel):
        channels = [channels]
    h = eig.reconstruct()
    d = eig.dim
    lam = np.zeros((d, d), dtype=complex)
    jumps = []
    for ch in channels:
        jumps.append(build_jump_operator(eig, ch))
        if include_lamb_shift:
            lam = lam + build_lamb_shift(eig, ch, quad)
    return UleGenerator(hamiltonian=h, lamb_shift=lam, jumps=jumps)


def channels_compose(gens) -> UleGenerator:
    """Merge per-channel generators sharing a Hamiltonian.

    Jump lists concatenate and Lamb shifts add. Mismatched Hamiltonians are
    rejected.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    h = gens[0].hamiltonian
    scale = max(frobenius(h), 1.0)
    for g in gens[1:]:
        if g.hamiltonian.shape != h.shape or frobenius(g.hamiltonian - h) > 1e-12 * scale:
            raise ValueError("generators do not share the same Hamiltonian")
    lam = sum((g.lamb_shift for g in gens[1:]), start=gens[0].lamb_shift)
    jumps = [l for g in gens for l in g.jumps]
    return UleGenerator(hamiltonian=h, lamb_shift=lam, jumps=jumps)


def build_liouvillian(gen: UleGenerator) -> Superoperator:
    """Superoperator of the master equation, without dense work.

    H_eff = H + Lam; all-zero jump operators (channels with zero coupling)
    are dropped.
    """
    return Superoperator(hermitize(gen.hamiltonian + gen.lamb_shift),
                         [l for l in gen.jumps if np.any(l)])


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
    bath = channel.bath
    g = jump_spectral(bath, bohr.frequencies)
    jumps = [2.0 * np.pi * np.sqrt(bath.coupling) * g[k] * bohr.components[k]
             for k in range(bohr.nfreq)]
    lam = (bohr.double_sum(matched_pair_fgrid(bohr, bath, quad)) if include_lamb_shift
           else np.zeros((bohr.dim, bohr.dim), dtype=complex))
    return build_liouvillian(UleGenerator(bohr.eig.reconstruct(), lam, jumps))
