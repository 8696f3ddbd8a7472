"""Dense Hermitian operator algebra for finite open quantum systems.

Everything here works on plain complex numpy arrays. The structured results
(eigendecompositions, Bohr-frequency decompositions) are small frozen
dataclasses holding arrays that must not be mutated after construction.

Conventions: hbar = k_B = 1, energies in units of the global exchange scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def frobenius(a) -> float:
    """Frobenius norm of a matrix."""
    return float(np.linalg.norm(np.asarray(a)))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a^dagger)/2, in C order.

    a^dagger is written once in C order and a is added to it in place, so
    no sum reads a transposed operand; the result is bitwise that of
    0.5 * (a + a.conj().T), dtype included.
    """
    out = np.conjugate(a.T, order="C", dtype=np.result_type(a.dtype, 0.5))
    out += a
    out *= 0.5
    return out


def max_asymmetry(a: np.ndarray) -> float:
    """Largest entrywise deviation from Hermiticity, |a - a^dagger|_max."""
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def require_hermitian(a, name: str = "operator") -> np.ndarray:
    """Validate that `a` is a square, finite, Hermitian matrix.

    The asymmetry tolerance, 1e-12, is relative to the largest entry
    magnitude (at least 1).
    Returns the array as complex128 (no copy if already suitable).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    asym = max_asymmetry(a)
    if asym > 1e-12 * max(scale, 1.0):
        raise ValueError(
            f"{name} is not Hermitian: max asymmetry {asym:.3e} "
            f"exceeds 1.0e-12 * max|entry| = {1e-12 * max(scale, 1.0):.3e}"
        )
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral data of a Hermitian operator.

    energies : (d,) ascending eigenvalues E_m
    basis    : (d, d) unitary whose columns are the eigenvectors |m>
    """

    energies: np.ndarray
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.energies.size

    def projector(self, m: int) -> np.ndarray:
        """Rank-one projector |m><m| in the original basis."""
        v = self.basis[:, m]
        return np.outer(v, v.conj())

    def to_eigenbasis(self, a: np.ndarray) -> np.ndarray:
        return self.basis.conj().T @ a @ self.basis

    def from_eigenbasis(self, a: np.ndarray) -> np.ndarray:
        return self.basis @ a @ self.basis.conj().T

    def reconstruct(self) -> np.ndarray:
        """Sum_m E_m |m><m|, which must reproduce the source operator."""
        return (self.basis * self.energies) @ self.basis.conj().T


def eigendecompose(h) -> EigenDecomposition:
    """Eigendecompose a Hermitian matrix with a fixed phase convention.

    Each eigenvector is rephased so its largest-magnitude component is real
    and positive (ties broken by lowest row index, which is what argmax
    does). This makes every downstream matrix reproducible run to run.

    Raises ValueError for non-Hermitian input, reporting the max asymmetry.
    """
    h = require_hermitian(h, name="H")
    energies, basis = np.linalg.eigh(h)
    basis = np.array(basis, dtype=complex)
    for m in range(energies.size):
        v = basis[:, m]
        j = int(np.argmax(np.abs(v)))
        piv = v[j]
        basis[:, m] = v * (piv.conjugate() / abs(piv))
    eig = EigenDecomposition(energies=energies, basis=basis)

    d = eig.dim
    unit = np.max(np.abs(basis.conj().T @ basis - np.eye(d)))
    if unit > 1e-10:
        raise ValueError(f"eigenbasis failed unitarity check: {unit:.3e}")
    hnorm = frobenius(h)
    rec = frobenius(eig.reconstruct() - h)
    if rec > 1e-10 * max(hnorm, 1.0):
        raise ValueError(f"eigendecomposition failed reconstruction check: {rec:.3e}")
    return eig


@dataclass(frozen=True)
class BohrDecomposition:
    """Decomposition of a coupling operator over Bohr frequencies.

    The operator X is split as X = sum_w A(w) where A(w) collects the
    matrix elements <m|X|n> between eigenstates separated by E_n - E_m = w,
    after binning the d^2 raw gaps. A(w_k) is not stored: `component(k)`
    builds it from the bin labels.

    frequencies     : (K,) sorted bin representatives, exactly symmetric
                      under negation
    eig             : the eigensystem the decomposition refers to
    coupling_eigen  : X in the eigenbasis (Hermitized)
    bin_index       : (d, d) int array, bin_index[m, n] = bin k such that
                      E_n - E_m belongs to frequencies[k]

    Frequencies whose component vanishes identically are dropped (always in
    +/- pairs, so the symmetry invariants survive). bin_index entries of
    dropped bins point at an arbitrary kept bin; every coupling element
    under them is exactly zero, so coefficient lookups through bin_index
    stay correct.
    """

    frequencies: np.ndarray
    eig: EigenDecomposition
    coupling_eigen: np.ndarray
    bin_index: np.ndarray

    @property
    def dim(self) -> int:
        return self.eig.dim

    @property
    def nfreq(self) -> int:
        return self.frequencies.size

    def component(self, k: int) -> np.ndarray:
        """A(frequencies[k]) in the input basis."""
        return self.eig.from_eigenbasis(np.where(self.bin_index == k, self.coupling_eigen, 0))


def gap_tolerance(energies: np.ndarray) -> float:
    """Width below which two Bohr gaps of `energies` are one frequency:
    2^11 eps max(1, max|E|), eps the float64 machine epsilon.

    On the spin chain at N = 3-10 (B_z = 0, 3.7, 8 and 16, and eta = 0) the
    eigensolver puts equal gaps at most 8.3 eps max(1, max|E|) apart and
    distinct gaps at least 5.2e5 of it, so this width has about 250x of
    margin on either side. `bohr_decompose` bins with it, and two levels
    share the zero-gap bin exactly when their gap is within it.
    """
    return 2.0 ** 11 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(energies))))


def _cluster_gaps(values: np.ndarray, eps: float):
    """Single-linkage 1-d clustering: split sorted values where the step
    between neighbours exceeds eps. Returns (labels into sorted-cluster
    order, representatives). Rejects chained clusters wider than eps.
    """
    order = np.argsort(values, kind="stable")
    sv = values[order]
    boundaries = np.flatnonzero(np.diff(sv) > eps) + 1
    starts = np.concatenate(([0], boundaries))
    size = np.diff(np.concatenate((starts, [sv.size])))
    spread = sv[starts + size - 1] - sv[starts]
    if np.any(spread > eps):
        raise ValueError(
            f"ambiguous gap binning: cluster spread {spread[spread > eps][0]:.3e} exceeds "
            f"gap tolerance {eps:.3e}; distinct Bohr gaps are closer than "
            "the requested tolerance"
        )
    labels = np.empty(values.size, dtype=np.intp)
    labels[order] = np.repeat(np.arange(starts.size), size)
    # the representative is the cluster's .mean(), which adds fewer than 8
    # terms one by one from -0.0, as a row sum does with -0.0 padding, and
    # more than that pairwise (np.add.reduceat adds in neither order)
    col = np.arange(7)
    rows = np.where(col < size[:, None], sv[np.minimum(starts[:, None] + col, sv.size - 1)], -0.0)
    reps = rows.sum(axis=1) / size
    for k in np.flatnonzero(size >= 8):
        reps[k] = sv[starts[k]:starts[k] + size[k]].mean()
    return labels, reps


def bohr_decompose(x, eig: EigenDecomposition) -> BohrDecomposition:
    """Split a Hermitian coupling operator over the Bohr frequencies of `eig`.

    A(w) = sum over pairs (m, n) with E_n - E_m = w of |m><m| X |n><n|.
    Gaps are binned by single-linkage clustering with width
    `gap_tolerance`, 2^11 eps max(1, max|E_m|), the eigensolver's rounding
    scale with margin; the representative frequency of each
    bin is the mean of its members, symmetrized so that the frequency list
    is exactly closed under negation and A(-w) = A(w)^dagger exactly.

    ValueError for ambiguous binning, for A(w) that do not sum back to X
    (relative 1e-12) and for gap bins that do not mirror under negation.
    """
    x = require_hermitian(x, name="X")
    d = eig.dim
    if x.shape[0] != d:
        raise ValueError(f"X has dim {x.shape[0]} but eigensystem has dim {d}")
    energies = eig.energies
    gaps = (energies[None, :] - energies[:, None]).ravel()  # [m, n] -> E_n - E_m
    labels, reps = _cluster_gaps(gaps, gap_tolerance(energies))
    bin_index = labels.reshape(d, d)

    # The raw gap multiset is exactly symmetric under negation, so the sorted
    # clusters mirror pairwise; enforce exact antisymmetry of representatives.
    reps = 0.5 * (reps - reps[::-1])

    xe = hermitize(eig.to_eigenbasis(x))
    live = xe != 0
    keep = np.bincount(bin_index[live], minlength=reps.size) > 0
    if not keep.any():
        keep[int(np.argmin(np.abs(reps)))] = True  # X = 0: keep the zero bin
    new_of_old = np.zeros(reps.size, dtype=np.intp)  # dropped bins park at new index 0
    new_of_old[keep] = np.arange(int(keep.sum()))
    bin_index = new_of_old[bin_index]
    reps = reps[keep]

    # every entry of xe lies in exactly one bin, so the A(w) sum back to
    # from_eigenbasis(xe); xe is exactly Hermitian, so A(-w) = A(w)^dagger
    # holds exactly when the bins of (m, n) and (n, m) mirror
    if frobenius(eig.from_eigenbasis(xe) - x) > 1e-12 * max(frobenius(x), 1.0):
        raise ValueError("the Bohr parts A(w) do not sum back to X")
    if np.any((bin_index.T + bin_index)[live] != reps.size - 1):
        raise ValueError("A(-w) != A(w)^dagger: the gap bins do not mirror")
    return BohrDecomposition(frequencies=reps, eig=eig, coupling_eigen=xe, bin_index=bin_index)


def gibbs_populations(eig: EigenDecomposition, beta: float) -> np.ndarray:
    """Eigenbasis populations exp(-beta E_n)/Z of the Gibbs state.

    The exponentials use energies shifted by the ground energy, so
    arbitrarily large beta is safe (the populations limit to the ground
    level).
    """
    if not (beta >= 0 and np.isfinite(beta)):
        raise ValueError(f"beta must be finite and non-negative, got {beta}")
    w = np.exp(-beta * (eig.energies - eig.energies[0]))
    return w / w.sum()


def gibbs_state(eig: EigenDecomposition, beta: float) -> np.ndarray:
    """Thermal state exp(-beta H)/Z of the eigensystem's operator, built from
    :func:`gibbs_populations`."""
    return (eig.basis * gibbs_populations(eig, beta)) @ eig.basis.conj().T


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) * trace norm of rho - sigma."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(hermitize(rho - sigma)))))
