"""Assembly of the quantum master equation generator.

The generator acts on a density matrix as

    drho/dt = -i [H + Lam, rho] + sum_c ( L_c rho L_c^dag - (1/2){L_c^dag L_c, rho} )

with, per noise channel (coupling operator X, bath g and f),

    L_mn   = 2 pi sqrt(gamma) g(E_n - E_m) X_mn      (eigenbasis elements)
    Lam_mn = sum_l f(E_l - E_m, E_n - E_l) X_ml X_ln

Lam is a sum over the level triples (m, l, n), and as X is Hermitian one
w-integral of d x d products, which `lamb_shift_eigen` takes with the
secular Lamb shift's f(w, -w): nothing is built over the triples. The Lamb
shift is one argument, `lamb_shift` (its quadrature, or None), and
`_lamb_shift_channels` alone picks the channels that get it. The secular
generator's jump weights, its Lamb shift sum_w f(w, -w) A(w) A(-w) and its
dissipator come from one construction, `_secular_parts`: in the
eigenbasis A(w) A(w)^dag, A(w)^dag A(w) and the sandwich A(w) y A(w)^dag
of a y that commutes with H couple only levels that share the zero-gap
bin, so each part is one d x d product masked to those level pairs, with
no A(w) formed; `analysis.secular_residuals` applies them to Gibbs.

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

from .bath import BathSpec, QuadratureError, QuadratureSpec, g_pair, graded_rule, jump_spectral
from .operators import (
    BohrDecomposition,
    EigenDecomposition,
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


def _jump_from_eigen(eig: EigenDecomposition, xe, bath: BathSpec) -> np.ndarray:
    """`build_jump_operator` from X already rotated into the eigenbasis, `xe`."""
    gaps = eig.energies[None, :] - eig.energies[:, None]
    le = 2.0 * np.pi * np.sqrt(bath.coupling) * jump_spectral(bath, gaps) * xe
    return eig.from_eigenbasis(le)


def build_jump_operator(eig: EigenDecomposition, channel: NoiseChannel) -> np.ndarray:
    """Jump operator with eigenbasis elements 2 pi sqrt(gamma) g(E_n - E_m) X_mn.

    Built elementwise from the exact eigenvalue gaps (no binning needed) and
    rotated back to the input basis.
    """
    return _jump_from_eigen(eig, eig.to_eigenbasis(channel.coupling_op), channel.bath)


def lamb_shift_eigen(eig: EigenDecomposition, coupling_eigen: np.ndarray, bath: BathSpec,
                     quad: QuadratureSpec = QuadratureSpec()):
    """(Lam, fmatch) of one channel in the eigenbasis, from one w-integral of d x d products.

    `coupling_eigen` is the Hermitian X in the eigenbasis of `eig`, as
    `BohrDecomposition.coupling_eigen` holds it. With A(w)_ml = g(w + E_m -
    E_l) X_ml, Lam = -2 pi gamma Int_0^inf [A(w) A(w)^dag - A(-w)
    A(-w)^dag] dw / w; fmatch[m, l] = f(E_l - E_m, E_m - E_l) is that
    integral of g(w + E_m - E_l)^2. The rule is `bath.graded_rule` for the
    span S = max|E_m - E_l|, one Hermitian product per block of nodes. The
    nodes k = 1 mod 3 form the step-3h rule, whence the step-h error
    D (D / M)^2 + eps sum |terms|, D = max|Lam_h - Lam_3h|, M = max|Lam_h|
    before the -2 pi gamma: QuadratureError naming T past max(atol, rtol M).
    """
    e, d = eig.energies, eig.dim
    xe = coupling_eigen
    xe = xe if np.any(xe.imag) else np.ascontiguousarray(xe.real)
    n, nodes = graded_rule(bath, e[-1] - e[0])
    block = 3 * max(1, 2 ** 14 // (3 * d * d))  # nodes: 15 at N = 5, 3 from N = 6 (cache-sized)
    lam = [np.zeros((d, d), dtype=xe.dtype) for _ in range(2)]  # nodes 1 mod 3, the others
    fmatch, size = np.zeros((d, d)), 0.0
    for start in range(0, n, block):
        b = min(block, n - start)
        w, weight = nodes(start + np.arange(b).reshape(-1, 3).T[[1, 0, 2]].ravel())
        # 2 pi g(w + E_m - E_l) and 2 pi g(-w - E_m + E_l), [m, k, l]
        gp, gm = g_pair(bath, w[None, :, None] + (e[:, None] - e[None, :])[:, None, :])
        for i, part in enumerate((slice(None, b // 3), slice(b // 3, None))):
            root = np.sqrt(weight[part])[:, None] * xe[:, None, :]
            ap, am = (gp[:, part] * root).reshape(d, -1), (gm[:, part] * root).reshape(-1, d)
            pp, pm = ap @ ap.conj().T, am.conj().T @ am  # A(w) A(w)^dag, A(-w) A(-w)^dag
            lam[i] += pp - pm
            size += np.max(pp.diagonal().real + pm.diagonal().real)
        fmatch += np.einsum("mkl,k->ml", gp ** 2, weight) - np.einsum("mkl,k->lm", gm ** 2, weight)
    fine, unit = lam[0] + lam[1], -2.0 * np.pi * bath.coupling
    top, diff = np.max(np.abs(fine)), np.max(np.abs(fine - 3.0 * lam[0]))
    error = (diff * (diff / top) ** 2 if top else 0.0) + np.finfo(float).eps * size
    if not error <= max(quad.atol, quad.rtol * top):
        raise QuadratureError(f"Lamb-shift w rule at T = {bath.temperature:g}, {n} nodes: error "
                              f"estimate {error:.3e} > target {max(quad.atol, quad.rtol * top):.3e}"
                              "; loosen rtol or atol", unit * fine, -unit * error)
    return unit * fine, unit * fmatch


def build_lamb_shift(eig: EigenDecomposition, lam_eigen) -> np.ndarray:
    """The Lamb shift in the input basis from its eigenbasis `lam_eigen`.

    Hermiticity follows from each node of `lamb_shift_eigen` adding a
    Hermitian product A A^dag (exactly, for the real syrk of a real X); it
    is still asserted.
    """
    lam = eig.from_eigenbasis(lam_eigen)
    defect = frobenius(lam - lam.conj().T)
    if defect > 1e-8 * max(frobenius(lam), 1e-300):
        raise ValueError(f"Lamb shift failed Hermiticity check: {defect:.3e}")
    return hermitize(lam)


def _lamb_shift_channels(channels, lamb_shift: QuadratureSpec | None) -> list:
    """The channels that get a Lamb shift: `lamb_shift` set and coupling > 0."""
    return [ch for ch in channels if lamb_shift is not None and ch.bath.coupling > 0]


def build_liouvillian(eig: EigenDecomposition, channels,
                      lamb_shift: QuadratureSpec | None = QuadratureSpec()) -> Superoperator:
    """Generator of the master equation for a list of channels.

    H_eff = H + sum_c Lam_c and one jump operator per channel, without dense
    work. With `lamb_shift` None, or for a channel with zero coupling, that
    channel's Lamb shift is skipped and no quadrature runs. X is rotated
    into the eigenbasis once per channel, for its jump and its Lamb shift.
    """
    lam, jumps = np.zeros((eig.dim, eig.dim), dtype=complex), []
    for ch in channels:
        xe = eig.to_eigenbasis(ch.coupling_op)
        jumps.append(_jump_from_eigen(eig, xe, ch.bath))
        if _lamb_shift_channels([ch], lamb_shift):
            lam = lam + build_lamb_shift(eig, lamb_shift_eigen(eig, hermitize(xe), ch.bath,
                                                                 lamb_shift)[0])
    return Superoperator(eig.reconstruct() + lam, jumps)


def _secular_parts(bohr: BohrDecomposition, bath: BathSpec, fmatch):
    """(c, Lam, dissipator) of the secular generator of one channel.

    The jumps are c_k A(w_k) with c_k = 2 pi sqrt(gamma) g(w_k). Lam =
    sum_k f(w_k, -w_k) A(w_k) A(w_k)^dag in the eigenbasis reads f at the
    level pair (m, l) from the d x d `fmatch` of `lamb_shift_eigen`; with
    `fmatch` None there is no Lamb shift and Lam is None.
    `dissipator(y)` is sum_k c_k^2 (A_k y A_k^dag - (1/2){A_k^dag A_k, y})
    for the part of an eigenbasis y that commutes with H.

    A product of A(w_k) with the adjoint of the same A(w_k) couples two
    levels only if they share the zero-gap bin: S_mp = [|E_p - E_m| <=
    `gap_tolerance`]. With J = c at `bin_index` times X, Lam =
    S * ((fmatch * X) @ X^dag) and sum_k c_k^2 A_k^dag A_k =
    S * (J^dag @ J), and the sandwich of a y supported on S is
    S * (J @ y @ J^dag): three masked d x d products, exact at any N. No
    A(w_k) is formed here; `build_secular_generator` alone forms its jumps
    as dense d x d operators, nfreq * 16 d^2 bytes.
    """
    xe = bohr.coupling_eigen
    c = 2.0 * np.pi * np.sqrt(bath.coupling) * jump_spectral(bath, bohr.frequencies)
    energies = bohr.eig.energies
    same = np.abs(energies[None, :] - energies[:, None]) <= gap_tolerance(energies)
    lam = None if fmatch is None else same * ((fmatch * xe) @ xe.conj().T)
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
    with_lamb = _lamb_shift_channels([channel], lamb_shift)
    fmatch = (lamb_shift_eigen(bohr.eig, bohr.coupling_eigen, channel.bath, lamb_shift)[1]
              if with_lamb else None)
    c, lam, _ = _secular_parts(bohr, channel.bath, fmatch)
    jumps = (c[k] * bohr.component(k) for k in range(bohr.nfreq))
    h = bohr.eig.reconstruct()
    return Superoperator(h if lam is None else h + bohr.eig.from_eigenbasis(lam), jumps)
