"""Assembly of the quantum master equation generator.

The generator acts on a density matrix as

    drho/dt = -i [H + Lam, rho] + sum_c ( L_c rho L_c^dag - (1/2){L_c^dag L_c, rho} )

with, per noise channel (coupling operator X, bath g and f),

    L_mn   = 2 pi sqrt(gamma) g(E_n - E_m) X_mn      (eigenbasis elements)
    Lam_mn = sum_l f(E_l - E_m, E_n - E_l) X_ml X_ln

Lam is a Bohr double sum over the level triples (m, l, n), and only this
module builds, indexes or sums arrays over them: the f table `lamb_shift_f`
behind `_require_lamb_shift_memory`, summed by `lamb_shift_eigen`. The Lamb
shift is one argument, `lamb_shift` (its quadrature, or None), and
`_lamb_shift_channels` alone picks the channels that get it, guard first. The secular
generator's jump weights, its Lamb shift sum_w f(w, -w) A(w) A(-w) and its
dissipator come from one construction, `_secular_parts`: in the
eigenbasis A(w) A(w)^dag, A(w)^dag A(w) and the sandwich A(w) y A(w)^dag
of a y that commutes with H couple only levels that share the zero-gap
bin, so each part is one d x d product masked to those level pairs, with
f(w, -w) taken as one value per frequency and no A(w) formed;
`analysis.secular_residuals` applies the same parts to the Gibbs state.

A generator is held in one form, :class:`Superoperator`: the Hermitian
H_eff = H + Lam and the nonzero jump operators. `build_liouvillian` (the
full generator) and `build_secular_generator` both hand H + Lam and the
jumps to its constructor, the one place that hermitizes H_eff and drops
all-zero jumps. `apply_matrix` applies it with d x d products in the input
basis; `dynamics` applies the same factors rotated into the eigenbasis of
H_eff (`_eigenframe`, one eigh per generator) for propagation and for the
steady state, one matrix-free solver, kernel counted at any N. Both first
run the one trace-preservation check: the jump terms cancel in the trace
of a Lindblad generator, so the check reads max|H_eff - H_eff^dag|.
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
    gap_tolerance,
    hermitize,
    max_asymmetry,
    require_hermitian,
)


@dataclass(frozen=True)
class NoiseChannel:
    """One bath attached to the system through a Hermitian coupling operator."""

    coupling_op: np.ndarray
    bath: BathSpec

    def __post_init__(self):
        object.__setattr__(self, "coupling_op",
                           require_hermitian(self.coupling_op, name="X"))


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

    K = H_eff - (i/2) sum_c L_c^dag L_c. `apply_matrix` uses d x d products.

    Construction normalises: `hamiltonian` is stored as the Hermitian part
    of the H_eff passed in, and `jumps` (any iterable) keeps only the
    operators that are not all zero, e.g. those of zero-coupling channels.
    ValueError if H_eff or a jump has a non-finite entry.
    """

    hamiltonian: np.ndarray
    jumps: list

    def __post_init__(self):
        if not np.all(np.isfinite(self.hamiltonian)):
            raise ValueError("H_eff has non-finite entries")
        object.__setattr__(self, "hamiltonian", hermitize(self.hamiltonian))
        object.__setattr__(self, "jumps", [l for l in self.jumps if np.any(l)])
        if not all(np.all(np.isfinite(l)) for l in self.jumps):
            raise ValueError("a jump operator has non-finite entries")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def _require_trace_preserving(self):
        """ValueError unless `trace_preservation_defect` is within 1e-10 max(1, max|H_eff|).

        Written so that a NaN defect fails too.
        """
        defect = self.trace_preservation_defect()
        if not defect <= 1e-10 * max(1.0, float(np.max(np.abs(self.hamiltonian)))):
            raise ValueError(f"Liouvillian is not trace preserving: defect {defect:.3e}")

    @cached_property
    def _eigenframe(self):
        """(eig, G, [L_c], [L_c^dag]): the factors of every `dynamics` kernel.

        eig is one eigh of H_eff, taken as it comes (no rephasing); G =
        -(1/2) sum_c L_c^dag L_c (Hermitized) and the jumps are rotated into
        that eigenbasis, where the dissipator reads G y + y G + sum_c L_c y
        L_c^dag. When the eigenbasis, G and every rotated jump have an
        imaginary part of exactly zero (a real H_eff with real jumps, as in
        the spin chain with or without the Lamb shift), G and the jumps are
        stored as float64 and `dynamics._packed_dissipator` applies them in
        real products to the packed state; otherwise they stay complex. The
        trace check runs first.
        """
        self._require_trace_preserving()
        eig = EigenDecomposition(*np.linalg.eigh(self.hamiltonian))
        jumps = [eig.to_eigenbasis(l) for l in self.jumps]
        g = hermitize(-0.5 * sum((l.conj().T @ l for l in jumps),
                                 start=np.zeros((self.dim, self.dim))))
        if not (np.any(eig.basis.imag) or np.any(g.imag) or any(np.any(l.imag) for l in jumps)):
            g, jumps = np.ascontiguousarray(g.real), [np.ascontiguousarray(l.real) for l in jumps]
        return eig, g, jumps, [l.conj().T for l in jumps]

    def apply_matrix(self, rho: np.ndarray) -> np.ndarray:
        """Generator action on a d x d matrix (Hermitian or not)."""
        self._require_trace_preserving()
        k = np.array(self.hamiltonian, dtype=complex)
        for l in self.jumps:
            k -= 0.5j * (l.conj().T @ l)
        out = -1j * (k @ rho - rho @ k.conj().T)
        for l in self.jumps:
            out += l @ rho @ l.conj().T
        return out

    def trace_preservation_defect(self) -> float:
        """max|H_eff - H_eff^dag|, zero for trace preservation.

        For a generator in Lindblad form tr L(rho) = -i tr((H_eff - H_eff^dag)
        rho): the jump terms cancel identically (G. Lindblad, Commun. Math.
        Phys. 48, 119 (1976)), so only a non-Hermitian H_eff breaks the trace.
        """
        return max_asymmetry(self.hamiltonian)


def build_jump_operator(eig: EigenDecomposition, channel: NoiseChannel) -> np.ndarray:
    """Jump operator with eigenbasis elements 2 pi sqrt(gamma) g(E_n - E_m) X_mn.

    Built elementwise from the exact eigenvalue gaps (no binning needed) and
    rotated back to the input basis.
    """
    xe = eig.to_eigenbasis(channel.coupling_op)
    gaps = eig.energies[None, :] - eig.energies[:, None]
    le = 2.0 * np.pi * np.sqrt(channel.bath.coupling) * jump_spectral(channel.bath, gaps) * xe
    return eig.from_eigenbasis(le)


def _require_lamb_shift_memory(d: int) -> None:
    """MemoryLimitError unless 16 float64 tables over d^3 level triples fit."""
    # 16 tables of 8 d^3 bytes (134 MB each at N = 8): above the 29 MB of the
    # interpreter with ule imported, `ule residual` on the chain peaked at
    # 15.2 of them at N = 6 and 12.8 at N = 7 (at N = 7, 1.26M f_values
    # pairs of about 110 bytes each and the np.unique of 2.0M live codes)
    _require_memory(16 * 8 * d ** 3, f"Lamb-shift f table over {d}^3 level triples")


def lamb_shift_f(bohr: BohrDecomposition, bath: BathSpec,
                 quad: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """f(w_i, w_j), i = bin_index[m, l], j = bin_index[l, n], on each (m, l, n) with X_ml X_ln != 0.

    The codes i K + j, K = nfreq, of these live triples go through one
    `np.unique`, and `f_values` runs once on the sorted distinct pairs;
    every other triple holds 0. The triple (m, l, m) holds f(w, -w), w =
    w[bin_index[m, l]]. MemoryLimitError, before anything of d^3 cells is
    allocated, from `_require_lamb_shift_memory`.
    """
    _require_lamb_shift_memory(bohr.dim)
    i, j = bohr.bin_index[:, :, None], bohr.bin_index[None, :, :]
    live = bohr.coupling_eigen != 0
    live = live[:, :, None] & live[None, :, :]
    pairs, inverse = np.unique((i * bohr.nfreq + j)[live], return_inverse=True)
    i, j = np.divmod(pairs, bohr.nfreq)
    f = np.zeros(live.shape)
    f[live] = f_values(bath, bohr.frequencies[i], bohr.frequencies[j], quad)[inverse]
    return f


def lamb_shift_eigen(bohr: BohrDecomposition, bath: BathSpec,
                     quad: QuadratureSpec = QuadratureSpec()):
    """(Lam, fmatch): Lam_mn = sum_l f[m, l, n] X_ml X_ln, the Lamb shift in
    the eigenbasis, over the table f of :func:`lamb_shift_f`, and fmatch[k] =
    f(w_k, -w_k) read off its triples (m, l, m) (0 where no live triple
    reads it), the matched values the secular Lamb shift takes."""
    f = lamb_shift_f(bohr, bath, quad)
    xe = bohr.coupling_eigen
    m, l = np.nonzero(xe)
    fmatch = np.zeros(bohr.nfreq)
    fmatch[bohr.bin_index[m, l]] = f[m, l, m]
    return np.einsum("ml,ln,mln->mn", xe, xe, f), fmatch


def build_lamb_shift(eig: EigenDecomposition, lam_eigen) -> np.ndarray:
    """The Lamb shift in the input basis from its eigenbasis `lam_eigen`.

    Hermiticity follows from the swap symmetry f(E1, E2) = f(-E2, -E1),
    which holds exactly in the table (the triple (n, l, m) carries the
    mirror pair of (m, l, n)) because `f_values` integrates one pair per
    swap class; it is still asserted.
    """
    lam = eig.from_eigenbasis(lam_eigen)
    defect = frobenius(lam - lam.conj().T)
    if defect > 1e-8 * max(frobenius(lam), 1e-300):
        raise ValueError(f"Lamb shift failed Hermiticity check: {defect:.3e}")
    return hermitize(lam)


def _lamb_shift_channels(channels, lamb_shift: QuadratureSpec | None) -> list:
    """The channels that get a Lamb shift (`lamb_shift` set, coupling > 0), after its guard."""
    picked = [ch for ch in channels if lamb_shift is not None and ch.bath.coupling > 0]
    if picked:
        _require_lamb_shift_memory(picked[0].coupling_op.shape[0])
    return picked


def build_liouvillian(eig: EigenDecomposition, channels,
                      lamb_shift: QuadratureSpec | None = QuadratureSpec()) -> Superoperator:
    """Generator of the master equation for a list of channels.

    H_eff = H + sum_c Lam_c and one jump operator per channel, without dense
    work. With `lamb_shift` None, or for a channel with zero coupling, that
    channel's Lamb shift is skipped and no quadrature runs; the f table's
    memory guard runs before any jump is built.
    """
    lam = np.zeros((eig.dim, eig.dim), dtype=complex)
    for ch in _lamb_shift_channels(channels, lamb_shift):
        lam_eigen, _ = lamb_shift_eigen(bohr_decompose(ch.coupling_op, eig), ch.bath, lamb_shift)
        lam = lam + build_lamb_shift(eig, lam_eigen)
    return Superoperator(eig.reconstruct() + lam, [build_jump_operator(eig, ch) for ch in channels])


def _secular_parts(bohr: BohrDecomposition, bath: BathSpec, fmatch):
    """(c, Lam, dissipator) of the secular generator of one channel.

    The jumps are c_k A(w_k) with c_k = 2 pi sqrt(gamma) g(w_k). Lam =
    sum_k f(w_k, -w_k) A(w_k) A(w_k)^dag in the eigenbasis reads
    f(w_k, -w_k) from the length-K vector `fmatch`; with `fmatch` None
    there is no Lamb shift and Lam is None.
    `dissipator(y)` is sum_k c_k^2 (A_k y A_k^dag - (1/2){A_k^dag A_k, y})
    for the part of an eigenbasis y that commutes with H.

    A product of A(w_k) with the adjoint of the same A(w_k) couples two
    levels only if they share the zero-gap bin: S_mp = [|E_p - E_m| <=
    `gap_tolerance`]. With J = c at `bin_index` times X and F = `fmatch` at
    `bin_index`, Lam = S * ((F * X) @ X^dag) and sum_k c_k^2 A_k^dag A_k =
    S * (J^dag @ J), and the sandwich of a y supported on S is
    S * (J @ y @ J^dag): three masked d x d products, exact at any N. No
    A(w_k) is formed here; `build_secular_generator` alone forms its jumps
    as dense d x d operators, nfreq * 16 d^2 bytes.
    """
    xe = bohr.coupling_eigen
    c = 2.0 * np.pi * np.sqrt(bath.coupling) * jump_spectral(bath, bohr.frequencies)
    energies = bohr.eig.energies
    same = np.abs(energies[None, :] - energies[:, None]) <= gap_tolerance(energies)
    lam = None if fmatch is None else same * ((fmatch[bohr.bin_index] * xe) @ xe.conj().T)
    jump = c[bohr.bin_index] * xe
    jump_dag = jump.conj().T
    anti = same * (jump_dag @ jump)

    def dissipator(y):
        y = same * y
        return same * (jump @ y @ jump_dag) - 0.5 * (anti @ y + y @ anti)

    return c, lam, dissipator


def build_secular_generator(bohr: BohrDecomposition, channel: NoiseChannel,
                            lamb_shift: QuadratureSpec | None = QuadratureSpec()) -> Superoperator:
    """Conventional (secular) generator obtained by keeping only matched
    Bohr-frequency pairs.

    Dissipator: sum_w (2 pi)^2 gamma g(w)^2 [ A(w) rho A(w)^dag
    - (1/2){A(w)^dag A(w), rho} ]; coherent part: H plus the secular Lamb
    shift sum_w f(w, -w) A(w) A(-w), skipped as in `build_liouvillian`. The
    Gibbs state of H is stationary for this generator.

    c_k and the Lamb shift come from `_secular_parts`, the source
    `analysis.secular_residuals` also applies. The generator keeps one dense
    d x d jump c_k `component(k)` per Bohr frequency, nfreq * 16 d^2 bytes
    (1.9 GB at N = 7 on the spin chain), because only small systems build
    it; the Gibbs check never does.
    """
    w = bohr.frequencies
    with_lamb = _lamb_shift_channels([channel], lamb_shift)
    fmatch = f_values(channel.bath, w, -w, lamb_shift) if with_lamb else None
    c, lam, _ = _secular_parts(bohr, channel.bath, fmatch)
    jumps = (c[k] * bohr.component(k) for k in range(bohr.nfreq))
    h = bohr.eig.reconstruct()
    return Superoperator(h if lam is None else h + bohr.eig.from_eigenbasis(lam), jumps)
