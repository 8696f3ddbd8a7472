"""Independent reference implementations used only by the tests.

Nothing here may call into the library paths it checks: the eigenvalue
oracle is a hand-rolled Jacobi iteration, the principal-value oracle is a
dense symmetric trapezoid sum, and the Bohr-sum oracles are naive loops over
A(w) built here from projector sandwiches of X, never from the bin labels
or the level-triple sums of the table oracle; their bath functions and f
values come in as arguments.
`lamb_shift_quad_vec` is the reference for the Lamb shift Lam of
`ule.generator.lamb_shift_eigen`: scipy's adaptive `quad_vec` on the
d x d matrix integrand [B(w) B(w)^dag - B(-w) B(-w)^dag] / w, at O(d^2)
memory, so it reaches every size the library does. It takes g from
`ule.jump_spectral` and shares with the library only g and that A A^dag
form of the Bohr double sum, not the library's `g_pair` or its w rule
`ule.bath.graded_rule`; the two agree within rounding.
`f_values_every_pair` is the reference for `ule.f_values`: globally
adaptive Gauss-Kronrod 7-15 (GK15) on the folded integrand
[h(w) - h(-w)] / w, h(w) = g(w - E1) g(w + E2), over [0, Wmax], each pair
as given, in batches (`folded_adaptive_chunk`). It shares only g with the
library. Its feature edges resolve the Bose step only at a tight target
below T of about 0.2 (at the default target on the N = 5 chain's Lamb
pairs at T = 0.05 it misses its own target by up to 186x), so the library
is compared with it at rtol 1e-12.
`cluster_gaps_loop` is the per-cluster loop that binned the Bohr gaps
before `ule.operators._cluster_gaps` was vectorized, and
`chain_hamiltonian_products` builds the chain Hamiltonian from d x d site
operators and three d x d products per bond, as `ule.build_chain_hamiltonian`
did before it embedded one two-site bond operator; both results are bitwise
the library's.
`lamb_shift_f` is the f table over the d^3 level triples behind its
memory guard `_require_lamb_shift_memory`, and `lamb_shift_table` the Lamb
shift as one d^3 einsum over it: the table oracle, the Bohr-sum form of the
Lamb shift that the tests of the Bohr sums and of the Gibbs-state formula
need. Its f comes from `f_values_every_pair`.
`lamb_shift_bins_unique` gives the distinct frequency-bin pairs of the
live level triples by the d^3 `np.unique`, the pairs `lamb_shift_f` must
hand to its f kernel; `lamb_shift_pairs_unique` turns them into
frequencies for the tests that need the chain's Lamb pairs. The library's
Gibbs formulas are weighted d x d arrays; the loops here take the
coefficients as grids over the frequency pairs. `lambshift_on_gibbs_table`
is the Lamb-shift formula as a sum over the table f (p_n - p_m), the form
the library's weighted eigenbasis Lamb shift replaced.
`dp5_propagate` is the explicit Dormand-Prince 5(4) propagator on the full generator
`Superoperator.apply_matrix`, with none of the eigenbasis or
integrating-factor machinery of `ule.propagate`. `lawson_propagate_complex`
is that machinery on the complex d x d state, the loop `ule.propagate` ran
before it carried each Hermitian stage as one real matrix; it reads only
the eigenframe tuple and multiplies in complex arithmetic. `_bordered_lu_solve` is the dense bordered LU solve with
its `zgecon` certificate that the GMRES `ule.steady_state` replaced;
`bordered_lu_steady_state` turns its solution into the trace-one state.
`exact_estimate_rcond` is the GMRES steady state of `ule.steady_state`
with the condition estimate's solves run to the default `_gmres` target,
as they were before they stopped at the looser target the estimate needs.
`bose_weight_branches` is the three-branch Bose weight that the one-expression
`ule.bath._bose_weight` replaced. `secular_residuals_loop` applies one dense
jump per Bohr frequency, the loop that the same-bin pair scatter of
`ule.secular_residuals` replaced, and `secular_parts_pairs` is that scatter,
which the three masked d x d products of `ule.generator._secular_parts`
replaced in turn. `gmres_reference` is the restarted GMRES
that `ule.dynamics._gmres` ran before its Arnoldi loop moved to Python
scalars and a shared workspace. `complex_bordered_operator` is the steady
state's bordered operator and preconditioner on complex d x d matrices,
which the packed real operator replaced. `kron_superoperator` is the
complex d^2 x d^2 generator on column-stacked states (`vec`, `unvec`),
built by Kronecker products from H_eff and the jumps in the input basis:
the dense matrix the SVD fallback and `liouvillian_gap` used before
they wrote out the packed real eigenframe generator, and the form
`dp5_propagate` and `bordered_lu_steady_state` work in.
`dense_generator` writes the library's packed real eigenframe generator
out as a d^2 x d^2 matrix, and `null_space_svd` is the SVD null-space
solve on it that `ule.steady_state` fell back to, and counted the kernel
with (`svd_kernel`), before the bordered solve replaced it.
`dense_kernel_count` is the bordered count with dense matrices, scipy's
graph components, the library's random borders and exact 1-norm
condition numbers.

The last four routines once were library names that no command or demo
called: `steady_state_consistency` compares the long-time propagated state
with `ule.steady_state`, `liouvillian_gap` diagonalizes the dense packed
generator, `thermal_shift_residual` checks the thermal shift identity of a
Bohr component, and `total_sz` is the chain's total z spin.
"""

import numpy as np
from scipy.integrate import quad_vec
from scipy.linalg import lapack

from ule import (
    EigenDecomposition,
    PropagationError,
    QuadratureError,
    QuadratureSpec,
    SteadyStateError,
    SteadyStateReport,
    Trajectory,
    dynamics,
    hermitize,
    jump_spectral,
    magnetization,
    propagate,
    steady_state,
    trace_distance,
)
from ule.bath import BathSpec
from ule.generator import _require_memory


# The folded f kernel of `f_values_every_pair`: globally adaptive GK15 on
# [h(w) - h(-w)] / w over [0, Wmax], batched over pairs.

# Gauss-Kronrod 7-15 nodes and weights on [-1, 1]. The embedded Gauss-7
# rule shares the odd-index nodes, and node 7 is the midpoint; none of the
# nodes touches the interval endpoints.
_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.zeros(15)
_WG[1::2] = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])

# Wmax = |E1| + |E2| + _OMEGA_MAX_PAD * cutoff bounds the axis a pair
# keeps; the Gaussian tail beyond Wmax is below e^-32 in relative terms.
_OMEGA_MAX_PAD = 8.0

# Times a panel may be halved. On the chain's Lamb pairs at N = 4-6 and on
# 400 random pairs in [-40, 40]^2, a cap of 12 gives the values of this one
# bitwise at rtol 1e-12 and T = 0.05, 8 at the default target; from T = 2
# up a cap of 4 does, and at T = 50 and the default target a cap of 1 on
# the chain at N = 4-5.
_MAX_DEPTH = 50


# Pairs per adaptive sweep of `f_values_every_pair`, the chunk size the
# folded kernel ran at.
FOLDED_CHUNK_PAIRS = 256


def folded_panel_sums(bath, a, b, e1, e2):
    """Kronrod integrals and |K15 - G7| error estimates on a batch of panels.

    Panel k runs from a[k] to b[k] for the pair (e1[k], e2[k]); the
    integrand is the folded [h(w) - h(-w)] / w, h(w) = g(w - E1) g(w + E2).
    Row reductions, not a BLAS product, so a panel's sums do not depend on
    the batch it is evaluated in.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    w = mid[:, None] + half[:, None] * _XGK[None, :]
    e1, e2 = e1[:, None], e2[:, None]
    h_plus = jump_spectral(bath, w - e1) * jump_spectral(bath, w + e2)
    h_minus = jump_spectral(bath, -w - e1) * jump_spectral(bath, -w + e2)
    y = (h_plus - h_minus) / w
    k15 = half * (y * _WGK).sum(axis=1)
    g7 = half * (y * _WG).sum(axis=1)
    return k15, np.abs(k15 - g7)


def _folded_initial_panels(bath, e1, e2):
    """(pair id, left, right) of the starting panels, ordered by pair and left edge.

    A pair's edges are 0, Wmax and the distinct features |E1|, |E2|, T,
    Lc and 2 Lc that lie strictly inside (0, Wmax).
    """
    n = e1.size
    wmax = np.abs(e1) + np.abs(e2) + _OMEGA_MAX_PAD * bath.cutoff
    inner = np.column_stack([np.abs(e1), np.abs(e2), np.full(n, bath.temperature),
                             np.full(n, bath.cutoff), np.full(n, 2 * bath.cutoff)])
    inner[(inner <= 0.0) | (inner >= wmax[:, None])] = np.inf
    edges = np.sort(np.column_stack([np.zeros(n), wmax, inner]), axis=1)
    keep = np.isfinite(edges)
    keep[:, 1:] &= edges[:, 1:] != edges[:, :-1]
    pair, col = np.nonzero(keep)
    flat = edges[pair, col]
    same = pair[1:] == pair[:-1]
    return pair[:-1][same], flat[:-1][same], flat[1:][same]


def folded_adaptive_chunk(bath, e1, e2, quad):
    """Unscaled folded integrals and error sums of a batch of pairs.

    Globally adaptive GK15 per pair: while a pair's error sum exceeds
    max(atol, rtol |total|), its panels whose error is at least a quarter
    of its worst are halved together; a panel may be halved at most
    `_MAX_DEPTH` times. All pairs share one flat panel array that stays
    ordered by (pair, left edge), so the `bincount` totals add each pair's
    panels in the same order whatever else is in the batch; converged
    pairs drop out. Returns (totals, error sums, failed mask).
    """
    n = e1.size
    pair, a, b = _folded_initial_panels(bath, e1, e2)
    depth = np.zeros(a.size, dtype=int)
    vals, errs = folded_panel_sums(bath, a, b, e1[pair], e2[pair])
    active = np.ones(n, dtype=bool)
    totals = np.zeros(n)
    total_errs = np.zeros(n)
    failed = np.zeros(n, dtype=bool)

    while True:
        total = np.bincount(pair, vals, minlength=n)
        total_err = np.bincount(pair, errs, minlength=n)
        converged = total_err <= np.maximum(quad.atol, quad.rtol * np.abs(total))
        worst = np.zeros(n)
        np.maximum.at(worst, pair, errs)
        split = (errs >= 0.25 * worst[pair]) & (depth < _MAX_DEPTH)
        stuck = np.bincount(pair, split, minlength=n) == 0
        settled = active & (converged | stuck)
        totals[settled] = total[settled]
        total_errs[settled] = total_err[settled]
        failed |= settled & ~converged
        active &= ~settled

        if not active.any():
            break
        live = active[pair]
        pair, a, b, depth, vals, errs, split = (
            v[live] for v in (pair, a, b, depth, vals, errs, split))
        # a split panel becomes its two halves in its own place
        width = 1 + split
        idx = np.repeat(np.arange(pair.size), width)
        left = (np.cumsum(width) - width)[split]
        right = left + 1
        mid = 0.5 * (a[split] + b[split])
        pair, a, b, depth, vals, errs = (v[idx] for v in (pair, a, b, depth, vals, errs))
        b[left] = mid
        a[right] = mid
        fresh = np.concatenate([left, right])
        depth[fresh] += 1
        vals[fresh], errs[fresh] = folded_panel_sums(bath, a[fresh], b[fresh],
                                                     e1[pair[fresh]], e2[pair[fresh]])
    return totals, total_errs, failed


def f_values_every_pair(bath, e1, e2, quad):
    """f at every (E1, E2) as given, `FOLDED_CHUNK_PAIRS` pairs per `folded_adaptive_chunk` sweep.

    No swap classes and no merging of duplicates; QuadratureError names
    the first failing pair in input order.
    """
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    scale = -2.0 * np.pi * bath.coupling
    out = np.empty(e1.size)
    for start in range(0, e1.size, FOLDED_CHUNK_PAIRS):
        chunk = slice(start, start + FOLDED_CHUNK_PAIRS)
        totals, errs, failed = folded_adaptive_chunk(bath, e1[chunk], e2[chunk], quad)
        if failed.any():
            k = int(np.argmax(failed))
            raise QuadratureError("adaptive quadrature hit max depth",
                                  estimate=float(totals[k]) * scale,
                                  error_bound=float(errs[k]) * abs(scale),
                                  pair=(float(e1[start + k]), float(e2[start + k])))
        out[chunk] = scale * totals
    return out


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(rho).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v).reshape((dim, dim), order="F")


def kron_superoperator(sop) -> np.ndarray:
    """-i (I kron K) + i (conj(K) kron I) + sum_c conj(L_c) kron L_c.

    The complex d^2 x d^2 generator on column-stacked states, vec(A rho B)
    = (B^T kron A) vec(rho), with K = H_eff - (i/2) sum_c L_c^dag L_c formed
    here from `sop.hamiltonian` and `sop.jumps`.
    """
    d = sop.dim
    k = np.array(sop.hamiltonian, dtype=complex)
    for l in sop.jumps:
        k -= 0.5j * (l.conj().T @ l)
    mat = np.kron(np.eye(d), -1j * k)
    mat += np.kron(1j * k.conj(), np.eye(d))
    for l in sop.jumps:
        mat += np.kron(l.conj(), l)
    return mat


def jacobi_eigenvalues(h, sweeps=100, tol=1e-14):
    """Eigenvalues of a complex Hermitian matrix by cyclic Jacobi rotations.

    Each 2x2 subproblem is annihilated with a unitary rotation built from
    its explicit eigenvector; off-diagonal mass decreases monotonically.
    """
    a = np.array(h, dtype=complex)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.abs(a - np.diag(np.diag(a))) ** 2))
        if off < tol * max(1.0, np.sqrt(np.sum(np.abs(np.diag(a)) ** 2))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) == 0.0:
                    continue
                app, aqq = a[p, p].real, a[q, q].real
                # 2x2 Hermitian block [[app, apq], [conj(apq), aqq]]
                phi = apq / abs(apq)
                tau = (aqq - app) / (2.0 * abs(apq))
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau)) if tau != 0 else 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(n, dtype=complex)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s * phi
                rot[q, p] = -s * np.conj(phi)
                a = rot.conj().T @ a @ rot
    return np.sort(np.real(np.diag(a)))


def trapezoid_pv(integrand, singularity_width, omega_max, points=1_000_000):
    """Principal value of Int integrand(w)/w dw over [-omega_max, omega_max].

    Dense trapezoid on a symmetric grid that excludes the singular point
    symmetrically (even point count, no node at zero).
    """
    w = np.linspace(-omega_max, omega_max, points + (points % 2 == 1))
    if w.size % 2 == 1:
        w = np.delete(w, w.size // 2)
    vals = integrand(w) / w
    return np.trapezoid(vals, w)


def bose_weight_branches(w, beta):
    """w / (1 - exp(-beta w)), one masked branch each for beta w > 0, < 0 and = 0."""
    w = np.asarray(w, dtype=float)
    x = beta * w
    out = np.empty_like(w)
    pos = x > 0
    neg = x < 0
    zero = ~(pos | neg)
    out[pos] = w[pos] / (-np.expm1(-x[pos]))
    out[neg] = w[neg] * np.exp(x[neg]) / np.expm1(x[neg])
    out[zero] = 1.0 / beta
    return out

def cluster_gaps_loop(values, eps):
    """`ule.operators._cluster_gaps` as one Python pass per cluster: the
    spread check, the labels and the `.mean()` representative of each."""
    order = np.argsort(values, kind="stable")
    sv = values[order]
    boundaries = np.nonzero(np.diff(sv) > eps)[0]
    starts = np.concatenate(([0], boundaries + 1))
    ends = np.concatenate((boundaries + 1, [sv.size]))
    labels = np.empty(values.size, dtype=np.intp)
    reps = np.empty(starts.size)
    for k, (i0, i1) in enumerate(zip(starts, ends)):
        spread = sv[i1 - 1] - sv[i0]
        if spread > eps:
            raise ValueError(
                f"ambiguous gap binning: cluster spread {spread:.3e} exceeds "
                f"gap tolerance {eps:.3e}; distinct Bohr gaps are closer than "
                "the requested tolerance"
            )
        labels[order[i0:i1]] = k
        reps[k] = sv[i0:i1].mean()
    return labels, reps


def chain_hamiltonian_products(spec):
    """The chain Hamiltonian from d x d site operators, each a product of N
    Kronecker factors, and three d x d products per bond."""
    def site(op2, k):
        out = np.array([[1.0]], dtype=complex)
        for j in range(1, spec.N + 1):
            out = np.kron(out, op2 if j == k else np.eye(2, dtype=complex))
        return out

    paulis = (np.array([[0, 1], [1, 0]], dtype=complex), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]], dtype=complex))
    sx, sy, sz = ([site(p / 2, k) for k in range(1, spec.N + 1)] for p in paulis)
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for k in range(spec.N - 1):
        h += spec.eta * (sx[k] @ sx[k + 1] + sy[k] @ sy[k + 1] + sz[k] @ sz[k + 1])
    h += spec.B_z * sum(sz)
    return h


def bohr_parts(bohr, x):
    """(K, d, d) stack of A(w_k) in the eigenbasis of `bohr.eig`.

    Built from the projector sandwiches P_m X P_n = <m|X|n> |m><n|: each
    level pair (m, n) joins the entry of `bohr.frequencies` nearest to
    E_n - E_m. Neither `bin_index` nor `coupling_eigen` is read.
    """
    eig = bohr.eig
    parts = np.zeros((bohr.nfreq, eig.dim, eig.dim), dtype=complex)
    for m in range(eig.dim):
        for n in range(eig.dim):
            k = int(np.argmin(np.abs(bohr.frequencies - (eig.energies[n] - eig.energies[m]))))
            parts[k, m, n] = eig.basis[:, m].conj() @ x @ eig.basis[:, n]
    return parts


def _from_eigenbasis(bohr, a):
    v = bohr.eig.basis
    return v @ a @ v.conj().T


def bohr_double_sum_loop(bohr, x, grid, adjoint_first=False):
    """sum_ij grid[i, j] A(w_i)^(dag) A(w_j) as a loop over the A(w)."""
    parts = bohr_parts(bohr, x)
    out = np.zeros((bohr.dim, bohr.dim), dtype=complex)
    for i, a_i in enumerate(parts):
        first = a_i.conj().T if adjoint_first else a_i
        for j, a_j in enumerate(parts):
            out = out + grid[i, j] * (first @ a_j)
    return _from_eigenbasis(bohr, out)


def dissipator_on_gibbs_loop(bohr, x, bath, beta, rho_th, jump_spectral):
    """Naive loop evaluation of the dissipator Bohr sum."""
    w = bohr.frequencies
    g = jump_spectral(bath, w)
    coeff = (-2.0 * np.pi**2 * bath.coupling
             * (1.0 - np.exp(0.5 * beta * (w[None, :] - w[:, None]))) ** 2 * np.outer(g, g))
    return bohr_double_sum_loop(bohr, x, coeff, adjoint_first=True) @ rho_th


def lamb_shift_live_pairs(bohr, x):
    """{(w1, w2): A(w1) A(w2) in the eigenbasis} over the pairs whose product
    is nonzero; disjoint eigenvector supports give exact zeros."""
    freqs = bohr.frequencies
    parts = bohr_parts(bohr, x)
    live = {}
    for i, a_i in enumerate(parts):
        for j, a_j in enumerate(parts):
            prod = a_i @ a_j
            if np.any(prod):
                live[(float(freqs[i]), float(freqs[j]))] = prod
    return live


def lamb_shift_bins_unique(bohr):
    """(i, j) of the distinct (bin[m, l], bin[l, n]) over the triples with X_ml X_ln != 0.

    The d^3 codes i K + j of every live triple and one `np.unique`, sorted.
    """
    bins = bohr.bin_index
    live = bohr.coupling_eigen != 0
    pairs = bins[:, :, None] * bohr.nfreq + bins[None, :, :]
    return np.divmod(np.unique(pairs[live[:, :, None] & live[None, :, :]]), bohr.nfreq)


def lamb_shift_pairs_unique(bohr):
    """(E1, E2) arrays of the frequencies at the `lamb_shift_bins_unique` pairs."""
    i, j = lamb_shift_bins_unique(bohr)
    return bohr.frequencies[i], bohr.frequencies[j]


def _require_lamb_shift_memory(d: int) -> None:
    """MemoryLimitError unless 16 float64 tables over d^3 level triples fit."""
    # 16 tables of 8 d^3 bytes (134 MB each at N = 8): above the 29 MB of the
    # interpreter with ule imported, `ule residual` on the chain peaked at
    # 15.2 of them at N = 6 and 12.8 at N = 7 (at N = 7, 1.26M f
    # pairs of about 110 bytes each and the np.unique of 2.0M live codes)
    _require_memory(16 * 8 * d ** 3, f"Lamb-shift f table over {d}^3 level triples")


def lamb_shift_f(bohr, bath, quad=QuadratureSpec()):
    """f(w_i, w_j), i = bin_index[m, l], j = bin_index[l, n], on each (m, l, n) with X_ml X_ln != 0.

    The codes i K + j, K = nfreq, of these live triples go through one
    `np.unique`, and `f_values_every_pair` runs once on the sorted distinct
    pairs; every other triple holds 0. The triple (m, l, m) holds f(w, -w), w =
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
    f[live] = f_values_every_pair(bath, bohr.frequencies[i], bohr.frequencies[j], quad)[inverse]
    return f


def lamb_shift_table(bohr, bath, quad=QuadratureSpec()):
    """Lam_mn = sum_l f[m, l, n] X_ml X_ln, the Lamb shift in the eigenbasis
    as one einsum over the table f of `lamb_shift_f`."""
    xe = bohr.coupling_eigen
    return np.einsum("ml,ln,mln->mn", xe, xe, lamb_shift_f(bohr, bath, quad))


def lamb_shift_quad_vec(eig, xe, bath):
    """The Lamb shift in the eigenbasis by scipy's adaptive `quad_vec` on d x d matrices.

    Lam = -2 pi gamma Int_0^(S + 8 Lc) [B(w) B(w)^dag - B(-w) B(-w)^dag] dw / w,
    B(w)_ml = g(w + E_m - E_l) X_ml, with g from `jump_spectral`, X = `xe`
    and S = E_max - E_min; past S + 8 Lc the Gaussian cutoff leaves less
    than e^-32. Globally adaptive Gauss-Kronrod 10-21 with no breakpoints,
    to 1e-12 of the max entry, at O(d^2) memory and no f table. It shares
    with `ule.generator.lamb_shift_eigen` only g and this A A^dag form of
    the Bohr double sum: no `g_pair` and no `graded_rule`. RuntimeError
    unless `quad_vec` reports convergence (status 0).
    """
    e = eig.energies
    gaps = e[:, None] - e[None, :]
    x = xe if np.any(xe.imag) else xe.real

    def integrand(w):
        plus, minus = jump_spectral(bath, w + gaps) * x, jump_spectral(bath, gaps - w) * x
        return (plus @ plus.conj().T - minus @ minus.conj().T) / w

    lam, _, info = quad_vec(integrand, 0.0, e[-1] - e[0] + 8.0 * bath.cutoff, epsrel=1e-12,
                            norm="max", full_output=True)
    if info.status != 0:
        raise RuntimeError(f"Lamb-shift quad_vec reference: {info.message}")
    return -2.0 * np.pi * bath.coupling * lam


def lambshift_on_gibbs_loop(bohr, x, beta, rho_th, f_values):
    """Naive loop evaluation of the Lamb-shift Bohr sum on the Gibbs state.

    f_values maps (w1, w2) float pairs to f(w1, w2).
    """
    out = np.zeros((bohr.dim, bohr.dim), dtype=complex)
    for (w1, w2), prod in lamb_shift_live_pairs(bohr, x).items():
        out = out + f_values[(w1, w2)] * (1.0 - np.exp(beta * (w1 + w2))) * prod
    return _from_eigenbasis(bohr, out) @ rho_th


def lambshift_on_gibbs_table(bohr, f, beta):
    """The Lamb-shift formula on the Gibbs state summed over a level-triple
    table: sum_l f[m, l, n] (p_n - p_m) X_ml X_ln, with f the table of
    `lamb_shift_f`.

    This is how `ule.lambshift_on_gibbs_formula` took it before it weighted
    the eigenbasis Lamb shift: a second d^3 table f (p_n - p_m) and one
    einsum over it, with the populations written out here.
    """
    w = np.exp(-beta * (bohr.eig.energies - bohr.eig.energies[0]))
    p = w / w.sum()
    xe = bohr.coupling_eigen
    coeff = f * (p[None, :] - p[:, None])[:, None, :]
    return _from_eigenbasis(bohr, np.einsum("ml,ln,mln->mn", xe, xe, coeff))


def jump_operator_bohr_sum(bohr, x, bath, jump_spectral):
    """Jump operator as the Bohr sum 2 pi sqrt(gamma) sum_w g(w) A(w)."""
    g = jump_spectral(bath, bohr.frequencies)
    le = np.einsum("k,kmn->mn", g, bohr_parts(bohr, x))
    return 2.0 * np.pi * np.sqrt(bath.coupling) * _from_eigenbasis(bohr, le)


def lamb_shift_bohr_sum(bohr, x, f_values):
    """Lamb shift as the double Bohr sum sum_{w1,w2} f(w1, w2) A(w1) A(w2).

    f_values maps (w1, w2) float pairs to f(w1, w2); only pairs whose
    product is nonzero are looked up.
    """
    lam_e = np.zeros((bohr.dim, bohr.dim), dtype=complex)
    for pair, prod in lamb_shift_live_pairs(bohr, x).items():
        lam_e += f_values[pair] * prod
    return _from_eigenbasis(bohr, lam_e)


def secular_lamb_shift_loop(bohr, x, fmatch):
    """Secular Lamb shift sum_k fmatch[k] A(w_k) A(-w_k)."""
    parts = bohr_parts(bohr, x)
    last = bohr.nfreq - 1
    lam_e = sum(fmatch[k] * (parts[k] @ parts[last - k]) for k in range(bohr.nfreq))
    return _from_eigenbasis(bohr, lam_e)


def secular_residuals_loop(bohr, x, bath, rho, fmatch=None):
    """(||sum_w D[L(w)](rho)||, ||[Lam_sec, rho]||) as the loop over dense jumps.

    Each L(w_k) = 2 pi sqrt(gamma) g(w_k) A(w_k) is a d x d input-basis
    operator applied with five products, as `ule.secular_residuals` did
    before it scattered over same-bin entry pairs; Lam_sec is
    `secular_lamb_shift_loop` on `fmatch`, zero when `fmatch` is None.
    """
    g = jump_spectral(bath, bohr.frequencies)
    dissipator = np.zeros(rho.shape, dtype=complex)
    for gk, a in zip(g, bohr_parts(bohr, x)):
        l = _from_eigenbasis(bohr, 2.0 * np.pi * np.sqrt(bath.coupling) * gk * a)
        l_dag = l.conj().T
        dissipator += l @ rho @ l_dag - 0.5 * (l_dag @ l @ rho + rho @ l_dag @ l)
    lam = 0.0 * rho if fmatch is None else secular_lamb_shift_loop(bohr, x, fmatch)
    return np.linalg.norm(dissipator), np.linalg.norm(lam @ rho - rho @ lam)


def secular_parts_pairs(bohr, bath, fmatch):
    """(Lam, dissipator) of the secular generator as scatters over the ordered
    pairs of live eigenbasis coupling entries X_mn, X_pq that share a Bohr bin.

    This is `ule.generator._secular_parts` before it became three masked
    d x d products; it reads the bin labels, as the library did. Every
    product of a secular jump with the adjoint of the same jump couples
    only entries of one bin, so these pairs are all the secular terms:
    the sandwich scatters over every pair, A_k^dag A_k over the pairs that
    share a row, and Lam over those that share a column. `dissipator(y)` is
    exact for any eigenbasis y, commuting with H or not.
    """
    xe = bohr.coupling_eigen
    m, n = np.nonzero(xe)
    k = bohr.bin_index[m, n]
    order = np.argsort(k, kind="stable")
    m, n, k = m[order], n[order], k[order]
    start = np.searchsorted(k, k)  # where each entry's bin begins in the sorted list
    size = np.searchsorted(k, k, side="right") - start
    first = np.repeat(np.arange(k.size), size)
    second = start[first] + np.arange(first.size) - np.repeat(np.cumsum(size) - size, size)
    m, n, p, q, k = m[first], n[first], m[second], n[second], k[first]
    d = bohr.dim

    def scatter(rows, cols, values):
        flat = rows * d + cols
        out = (np.bincount(flat, values.real, d * d)
               + 1j * np.bincount(flat, values.imag, d * d))
        return out.reshape(d, d)

    products = xe[m, n] * xe[p, q].conj()
    c = 2.0 * np.pi * np.sqrt(bath.coupling) * jump_spectral(bath, bohr.frequencies)
    column = n == q
    f = 0.0 if fmatch is None else fmatch[k[column]]
    lam = scatter(m[column], p[column], f * products[column])
    weights = c[k] ** 2 * products
    row = m == p
    anti = scatter(n[row], q[row], weights[row].conj())

    def dissipator(y):
        return scatter(m, p, weights * y[n, q]) - 0.5 * (anti @ y + y @ anti)

    return lam, dissipator


def random_hermitian(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (a + a.conj().T) / 2.0


# Dormand-Prince 5(4) tableau (FSAL: the last stage is the next first stage).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_ERR = _DP_B5 - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                             -92097 / 339200, 187 / 2100, 1 / 40])


def _resymmetrized(y, dim):
    return vec(hermitize(unvec(y, dim)))


def _hermite_eval(t, t0, y0, f0, t1, y1, f1):
    """Cubic Hermite interpolant through (t0, y0, f0) and (t1, y1, f1)."""
    h = t1 - t0
    s = (t - t0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def dp5_propagate(superop, rho0, t_end: float, sample_times,
                  tol: float = 1e-8, observables: dict | None = None) -> Trajectory:
    """Integrate drho/dt = generator(rho) from t = 0 to t_end by explicit DP5(4).

    The reference for `ule.propagate`: same tableau, FSAL, error norm,
    Hermitization and guards, applied to the full generator in the input
    basis.

    sample_times must lie in [0, t_end]; the returned trajectory holds the
    Hermitized states at exactly those times. The per-step error norm is
    scaled by tol * (1 + |component|), so tol acts as a relative tolerance
    at unit scale.

    Raises PropagationError on step-size underflow or when any state
    eigenvalue falls below -1e-6 (a generator bug, not an integration
    artifact).
    """
    if not (t_end > 0 and np.isfinite(t_end)):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    dim = superop.dim
    rho0 = np.asarray(rho0, dtype=complex)
    sample_times = np.asarray(sample_times, dtype=float)
    if sample_times.size and (sample_times.min() < 0 or sample_times.max() > t_end):
        raise ValueError("sample times must lie within [0, t_end]")
    if np.any(np.diff(sample_times) < 0):
        raise ValueError("sample times must be non-decreasing")

    def rhs(y):
        return vec(superop.apply_matrix(unvec(y, dim)))

    y = vec(rho0)
    t = 0.0
    f = rhs(y)
    # initial step from the derivative scale, capped by the span
    fnorm = float(np.max(np.abs(f)))
    h = min(t_end, 1e-2 / fnorm) if fnorm > 0 else t_end
    min_step = 1e-14 * t_end

    sample_vals: list = [None] * sample_times.size
    next_sample = 0
    max_drift = 0.0
    min_sample_eig = np.inf
    n_accepted = 0
    n_rejected = 0

    def take_samples(t0, y0, f0, t1, y1, f1):
        nonlocal next_sample, min_sample_eig
        while next_sample < sample_times.size and sample_times[next_sample] <= t1 + 1e-15 * t_end:
            ts = sample_times[next_sample]
            if ts <= t0:
                ys = y0
            elif ts >= t1:
                ys = y1
            else:
                ys = _hermite_eval(ts, t0, y0, f0, t1, y1, f1)
            rho = hermitize(unvec(ys, dim))
            wmin = float(np.linalg.eigvalsh(rho)[0])
            if wmin < -1e-6:
                raise PropagationError(
                    f"positivity violation {wmin:.3e} at sample t = {ts}; "
                    "the generator is not completely positive",
                    t_reached=ts)
            min_sample_eig = min(min_sample_eig, wmin)
            sample_vals[next_sample] = rho
            next_sample += 1

    take_samples(0.0, y, f, 0.0, y, f)

    while True:
        remaining = t_end - t
        if remaining <= 1e-13 * t_end:
            break
        if h < min_step:
            raise PropagationError(f"step size underflow at t = {t}", t_reached=t)
        h_step = min(h, remaining)
        k = [f]
        for i in range(1, 7):
            yi = y + h_step * sum(aij * kj for aij, kj in zip(_DP_A[i], k))
            k.append(rhs(yi))
        y5 = y + h_step * sum(b * kj for b, kj in zip(_DP_B5, k) if b != 0.0)
        err_vec = h_step * sum(e * kj for e, kj in zip(_DP_ERR, k) if e != 0.0)
        scale = tol * (1.0 + np.maximum(np.abs(y), np.abs(y5)))
        err = float(np.sqrt(np.mean(np.abs(err_vec / scale) ** 2)))

        if err <= 1.0:
            y_new = _resymmetrized(y5, dim)
            f_new = rhs(y_new)  # FSAL stage recomputed after resymmetrization
            t_new = t + h_step
            take_samples(t, y, f, t_new, y_new, f_new)
            drift = abs(float(np.real(np.trace(unvec(y_new, dim)))) - 1.0)
            max_drift = max(max_drift, drift)
            diag = np.real(unvec(y_new, dim).diagonal())
            if diag.min() < -1e-6:
                raise PropagationError(
                    f"positivity violation {diag.min():.3e} at t = {t_new}; "
                    "the generator is not completely positive",
                    t_reached=t_new)
            t, y, f = t_new, y_new, f_new
            n_accepted += 1
            factor = 0.9 * err ** -0.2 if err > 0 else 5.0
        else:
            n_rejected += 1
            factor = max(0.2, 0.9 * err ** -0.2)
        h = h_step * min(5.0, max(0.2, factor))

    # flush any samples the float residue at t_end left unconsumed
    if next_sample < sample_times.size:
        rho = hermitize(unvec(y, dim))
        wmin = float(np.linalg.eigvalsh(rho)[0])
        min_sample_eig = min(min_sample_eig, wmin)
        while next_sample < sample_times.size:
            sample_vals[next_sample] = rho
            next_sample += 1

    obs_series: dict = {}
    if observables:
        for name, op in observables.items():
            obs_series[name] = np.array(
                [float(np.real(np.trace(s @ op))) for s in sample_vals])
    stats = dict(n_accepted=n_accepted, n_rejected=n_rejected,
                 max_trace_drift=max_drift, min_sample_eig=float(min_sample_eig))
    return Trajectory(times=sample_times, states=sample_vals,
                      observables=obs_series, stats=stats)


def _lawson_phases(energies, tau):
    """exp(-i (E_m - E_n) tau), stacked per entry of tau, diagonal exactly 1."""
    p = np.exp(-1j * np.multiply.outer(tau, energies))
    out = p[..., :, None] * p.conj()[..., None, :]
    diag = np.arange(energies.size)
    out[..., diag, diag] = 1.0
    return out


def _hermitian_dissipator(frame, y):
    """G y + (G y)^dag + sum_c L_c y L_c^dag, the dissipator on a Hermitian y,
    by complex products on any frame."""
    _, g, jumps, jumps_dag = frame
    gy = g @ y
    out = gy + gy.conj().T
    for l, l_dag in zip(jumps, jumps_dag):
        out += l @ y @ l_dag
    return out


def lawson_propagate_complex(superop, rho0, t_end: float, sample_times,
                             tol: float = 1e-8, observables: dict | None = None) -> Trajectory:
    """The Lawson DP5(4) loop of `ule.propagate` on the complex d x d state.

    The same eigenframe, tableau, FSAL, error norm, step controller, sample
    interpolation and guards, but the state and the stages are complex
    Hermitian matrices: the phases multiply them elementwise, the dissipator
    runs in complex products, and each accepted state and derivative is
    re-Hermitized. The step decisions, and so the accepted and rejected
    step counts, are those of `ule.propagate` up to rounding.
    """
    frame = superop._eigenframe
    eig = frame[0]
    energies = eig.energies
    rho0 = np.asarray(rho0, dtype=complex)
    sample_times = np.asarray(sample_times, dtype=float)
    nodes = _DP_C[1:6]
    stage_node = (0, 1, 2, 3, 4, 4)
    stages = np.empty((_DP_C.size, eig.dim, eig.dim), dtype=complex)
    flat_stages = stages.reshape(_DP_C.size, -1)

    y = hermitize(eig.to_eigenbasis(rho0))
    t = 0.0
    f = _hermitian_dissipator(frame, y)
    fnorm = float(np.max(np.abs(f)))
    h = min(t_end, 1e-2 / fnorm) if fnorm > 0 else t_end
    min_step = 1e-14 * t_end
    end_tol = 1e-13 * t_end

    sample_vals: list = [None] * sample_times.size
    next_sample = 0
    max_drift = 0.0
    min_sample_eig = np.inf
    n_accepted = 0
    n_rejected = 0

    def take_samples(t0, y0, f0, t1, y1, f1):
        nonlocal next_sample, min_sample_eig
        while next_sample < sample_times.size and sample_times[next_sample] <= t1 + end_tol:
            ts = sample_times[next_sample]
            if ts <= t0:
                ys = y0
            elif ts >= t1:
                ys = y1
            else:
                back = _lawson_phases(energies, t1 - t0).conj()
                vs = _hermite_eval(ts, t0, y0, f0, t1, back * y1, back * f1)
                ys = _lawson_phases(energies, ts - t0) * vs
            rho = hermitize(eig.from_eigenbasis(ys))
            wmin = float(np.linalg.eigvalsh(rho)[0])
            if wmin < -1e-6:
                raise PropagationError(f"positivity violation {wmin:.3e} at sample t = {ts}",
                                       t_reached=ts)
            min_sample_eig = min(min_sample_eig, wmin)
            sample_vals[next_sample] = rho
            next_sample += 1

    take_samples(0.0, y, f, 0.0, y, f)

    while True:
        remaining = t_end - t
        if remaining <= end_tol:
            break
        if h < min_step:
            raise PropagationError(f"step size underflow at t = {t}", t_reached=t)
        h_step = min(h, remaining)
        phases = _lawson_phases(energies, nodes * h_step)
        back = phases.conj()
        stages[0] = f
        for i, node in enumerate(stage_node, start=1):
            v = ((h_step * _DP_A[i]) @ flat_stages[:i]).reshape(y.shape)
            v += y
            y_stage = phases[node] * v
            d_stage = _hermitian_dissipator(frame, y_stage)
            np.multiply(back[node], d_stage, out=stages[i])
        scale = np.maximum(np.abs(y), np.abs(v))
        scale += 1.0
        ratio = np.abs((h_step * _DP_ERR) @ flat_stages)
        ratio /= scale.reshape(-1)
        err = float(np.sqrt(ratio @ ratio / ratio.size)) / tol

        if err <= 1.0:
            y_new = hermitize(y_stage)
            f_new = hermitize(d_stage)
            t_new = t + h_step
            take_samples(t, y, f, t_new, y_new, f_new)
            max_drift = max(max_drift, abs(float(np.real(np.trace(y_new))) - 1.0))
            diag = np.real(y_new.diagonal())
            if diag.min() < -1e-6:
                raise PropagationError(f"positivity violation {diag.min():.3e} at t = {t_new}",
                                       t_reached=t_new)
            t, y, f = t_new, y_new, f_new
            n_accepted += 1
            factor = 0.9 * err ** -0.2 if err > 0 else 5.0
        else:
            n_rejected += 1
            factor = max(0.2, 0.9 * err ** -0.2)
        h = h_step * min(5.0, max(0.2, factor))

    obs_series = {name: np.array([float(np.real(np.trace(s @ op))) for s in sample_vals])
                  for name, op in (observables or {}).items()}
    stats = dict(n_accepted=n_accepted, n_rejected=n_rejected,
                 max_trace_drift=max_drift, min_sample_eig=float(min_sample_eig))
    return Trajectory(times=sample_times, states=sample_vals,
                      observables=obs_series, stats=stats)


def _bordered_lu_solve(mat: np.ndarray, dim: int):
    """(x, rcond) for mat with row 0 set to vec(I)^H and right-hand side e_0.

    x is None and rcond 0 when the LU factors are exactly singular. The
    factors are freed on return, before any SVD fallback allocates.
    """
    bordered = np.array(mat, order="F")
    bordered[0] = vec(np.eye(dim))
    anorm = lapack.zlange("1", bordered)
    lu, piv, info = lapack.zgetrf(bordered, overwrite_a=True)
    if info > 0:
        return None, 0.0
    rcond = float(lapack.zgecon(lu, anorm, norm="1")[0])
    rhs = np.zeros(mat.shape[0], dtype=complex)
    rhs[0] = 1.0
    return lapack.zgetrs(lu, piv, rhs)[0], rcond


def bordered_lu_steady_state(superop):
    """(rho, rcond): the Hermitized trace-one state of `_bordered_lu_solve`."""
    x, rcond = _bordered_lu_solve(kron_superoperator(superop), superop.dim)
    rho = hermitize(unvec(x, superop.dim))
    return rho / float(np.real(np.trace(rho))), rcond


def _normalized(superop, rho):
    """(rho Hermitized and trace-normalized, ||generator(rho)||_F in the input basis)."""
    rho = hermitize(rho)
    rho = rho / float(np.real(np.trace(rho)))
    return rho, float(np.linalg.norm(superop.apply_matrix(rho)))


def exact_estimate_rcond(superop):
    """The `SteadyStateReport` of `ule.steady_state` on its GMRES path, with
    every solve of the condition estimate run to the default `_gmres`
    target GMRES_RTOL ||v||_2. The solve, the refinement and the estimator
    are the library's, so state, iterations and residual are its bitwise;
    rcond and estimate_iterations are those of the exact-solve estimate.
    RuntimeError when the certificate fails.
    """
    eig, g, jumps, jumps_dag = frame = superop._eigenframe
    d = eig.dim
    labels = np.zeros(d, dtype=int)
    forward = dynamics._bordered_operator(frame, labels, np.zeros((0, d * d)))
    adjoint = dynamics._bordered_operator((EigenDecomposition(-eig.energies, eig.basis),
                                           g, jumps_dag, jumps), labels, np.zeros((0, d * d)))
    krylov = np.empty((dynamics.GMRES_RESTART + 1, d * d))
    anorm = dynamics._onenorm_estimate(forward[0], adjoint[0], d * d)
    rhs = np.eye(d).reshape(-1) / d
    x, iterations, converged = dynamics._gmres(*forward, rhs, anorm, krylov)
    counts = []

    def solver(operator):
        def solve(v):
            nonlocal converged
            out, count, ok = dynamics._gmres(*operator, v, anorm, krylov)
            converged = converged and ok
            counts.append(count)
            return out
        return solve

    rcond = 1.0 / (anorm * dynamics._onenorm_estimate(solver(forward), solver(adjoint), d * d))
    if not (converged and rcond > dynamics.KERNEL_RTOL):
        raise RuntimeError(f"certificate failed: converged {converged}, rcond {rcond:.3e}")
    rho = eig.from_eigenbasis(dynamics._unpack(x.reshape(d, d)))
    residual = dynamics._pack(hermitize(eig.to_eigenbasis(superop.apply_matrix(rho))))
    delta, refinement, _ = dynamics._gmres(*forward, -residual.reshape(-1), anorm, krylov,
                                           target=dynamics.GMRES_RTOL * dynamics._norm(rhs))
    rho = rho + eig.from_eigenbasis(dynamics._unpack(delta.reshape(d, d)))
    rho, residual = _normalized(superop, rho)
    return SteadyStateReport(state=rho, residual=residual, kernel_dimension=1, rcond=rcond,
                             iterations=iterations + refinement,
                             estimate_iterations=sum(counts))


def dense_generator(superop) -> np.ndarray:
    """`ule.dynamics._packed_generator` as a real (d^2, d^2) matrix, column j
    its action on e_j.

    The unit P span the Hermitian matrices orthonormally, and so all d x d
    matrices over C: the matrix is unitarily similar to the complex
    generator, with its singular values and spectrum.
    """
    d = superop.dim
    n = d * d
    apply = dynamics._packed_generator(superop._eigenframe)
    columns = np.empty((n, n))  # row j holds column j
    unit = np.zeros((d, d))
    for j in range(n):
        unit.flat[j] = 1.0
        apply(unit, columns[j].reshape(d, d))
        unit.flat[j] = 0.0
    return columns.T


def svd_kernel(sigma):
    """(kernel dimension, rcond, threshold) of descending singular values.

    Those below the threshold KERNEL_RTOL * sigma_max, floored at the
    smallest normal float so that a zero matrix is all kernel, count; rcond
    is the smallest of the others over sigma_max, and 1 where none is left.
    """
    threshold = max(dynamics.KERNEL_RTOL * sigma[0], np.finfo(float).tiny)
    kdim = int(np.sum(sigma < threshold))
    rcond = sigma[sigma.size - kdim - 1] / sigma[0] if kdim < sigma.size else 1.0
    return kdim, float(rcond), threshold


def null_space_svd(superop) -> SteadyStateReport:
    """Null space of `dense_generator` via SVD.

    The kernel and rcond are those of `svd_kernel`. A unique
    trace-normalizable kernel vector P is unpacked, rotated back and
    normalized; a zero-dimensional or degenerate kernel raises
    SteadyStateError (the degenerate case still reports a representative).
    """
    d = superop.dim
    sigma, vh = np.linalg.svd(dense_generator(superop))[1:]
    kdim, rcond, threshold = svd_kernel(sigma)
    if kdim == 0:
        raise SteadyStateError(
            f"no kernel below threshold {threshold:.3e} (smallest sigma "
            f"{sigma[-1]:.3e})", kernel_dimension=0)
    kernel = vh[len(sigma) - kdim:]  # rows span the kernel
    # pick the representative with the largest trace magnitude
    traces = kernel[:, ::d + 1].sum(axis=1)
    best = int(np.argmax(np.abs(traces)))
    if abs(traces[best]) < 1e-12:
        raise SteadyStateError("kernel contains no trace-normalizable vector",
                               kernel_dimension=kdim)
    rho = superop._eigenframe[0].from_eigenbasis(dynamics._unpack(kernel[best].reshape(d, d)))
    rho, residual = _normalized(superop, rho)
    report = SteadyStateReport(state=rho, residual=residual, kernel_dimension=kdim,
                               rcond=rcond, iterations=0, estimate_iterations=0)
    if kdim > 1:
        raise SteadyStateError(f"steady state is not unique: kernel dimension {kdim}",
                               kernel_dimension=kdim, report=report)
    return report


def dense_kernel_count(superop, least_residual=True):
    """(c, rcond, rho): the kernel count of `ule.steady_state` on dense matrices.

    The levels are joined where an eigenframe jump has a nonzero entry and
    counted by scipy's `connected_components`; `dense_generator` is bordered
    by one trace functional per component, adding to each population the
    mean population of its component, then by the random borders of
    `ule.dynamics._kernel_count` (the same seed and support, the s pairs of
    levels within KERNEL_RTOL times the energy spread, s - c0 borders when
    s <= GMRES_RESTART) one at a time, and its exact 1-norm rcond is taken.
    The first c > 1 with rcond above KERNEL_RTOL is returned with rho in
    the input basis, the solution of the bordered matrix against I/d; with
    random borders and least_residual, moved to the trace-one combination
    of it and the solves against each random border with the least
    residual, cutting the singular values at the rule of
    `ule.dynamics._least_residual` with the exact ||A||_1. None when no c
    qualifies.
    """
    from scipy.sparse.csgraph import connected_components

    eig, _, jumps, _ = superop._eigenframe
    d = eig.dim
    generator = dense_generator(superop)
    populations = np.arange(d) * (d + 1)
    c0, labels = connected_components(sum(l != 0 for l in jumps) + np.eye(d), directed=False)
    components = np.zeros((d * d, c0))  # columns W_k; Z_k = Pi_k = |k| W_k
    components[populations, labels] = 1.0 / np.bincount(labels)[labels]
    dense = generator + components @ (components * np.bincount(labels)).T
    support = np.flatnonzero(np.abs(eig.energies[:, None] - eig.energies[None, :])
                             <= dynamics.KERNEL_RTOL * np.ptp(eig.energies))
    m = support.size - c0 if support.size <= dynamics.GMRES_RESTART else 0
    randoms = np.zeros((d * d, m))
    randoms[support] = np.random.default_rng(dynamics.KERNEL_SEED).standard_normal((m, support.size)).T
    randoms /= np.linalg.norm(randoms, axis=0)
    for k in range(max(c0, 2) - c0, m + 1):
        bordered = dense + randoms[:, :k] @ randoms[:, :k].T
        rcond = 1.0 / np.linalg.cond(bordered, 1)  # 0 where exactly singular
        if rcond > dynamics.KERNEL_RTOL:
            break
    else:
        return None
    x = np.linalg.solve(bordered, np.eye(d).reshape(-1) / d)
    if k and least_residual:
        solves = np.linalg.solve(bordered, randoms[:, :k])
        directions = solves - np.outer(x, solves[populations].sum(axis=0))
        nu = dynamics.GMRES_RTOL + (dynamics.GMRES_FLOOR * np.finfo(float).eps
                                    * np.linalg.norm(bordered, 1)
                                    * np.max(np.linalg.norm(directions, axis=0)))
        u, sigma, vt = np.linalg.svd(generator @ directions, full_matrices=False)
        keep = sigma > np.sqrt(k) * nu
        x = x - directions @ (vt[keep].T @ (u[:, keep].T @ (generator @ x) / sigma[keep]))
    rho = hermitize(eig.from_eigenbasis(dynamics._unpack(x.reshape(d, d))))
    return c0 + k, float(rcond), rho / float(np.real(np.trace(rho)))


def complex_bordered_operator(frame):
    """(apply, precondition): the bordered operator and secular preconditioner
    of `ule.dynamics._bordered_operator` on flattened complex d x d matrices,
    the form the steady-state solve ran in before it moved to the packed
    real P. The dissipator is G y + y G + sum_c L_c y L_c^dag in plain complex
    products; precondition is None when the secular limit is singular.
    """
    eig, g, jumps, jumps_dag = frame
    d = eig.dim
    rotation = -1j * (eig.energies[:, None] - eig.energies[None, :])
    diag = np.arange(d) * (d + 1)

    def apply(v):
        y = v.reshape(d, d)
        out = g @ y + y @ g + rotation * y
        for l, l_dag in zip(jumps, jumps_dag):
            out += l @ y @ l_dag
        out = out.reshape(-1)
        out[diag] += np.trace(y) / d
        return out

    rates = 2.0 * np.diag(np.real(g.diagonal())) + 1.0 / d
    coherence = rotation + g.diagonal()[:, None] + g.diagonal()[None, :]
    for l in jumps:
        rates += np.abs(l) ** 2
        coherence += l.diagonal()[:, None] * l.diagonal().conj()[None, :]
    coherence.flat[diag] = 1.0
    try:
        inv_rates = np.linalg.inv(rates)
    except np.linalg.LinAlgError:
        return apply, None
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_coherence = 1.0 / coherence
    if not (np.all(np.isfinite(inv_coherence)) and np.all(np.isfinite(inv_rates))):
        return apply, None

    def precondition(v):
        y = (v.reshape(d, d) * inv_coherence).reshape(-1)
        y[diag] = inv_rates @ v[diag]
        return y

    return apply, precondition


def gmres_reference(apply, precondition, rhs, anorm, target=None):
    """(x, iterations, converged): the restarted GMRES that `ule.dynamics._gmres`
    replaced, with numpy-scalar Givens updates, the Hessenberg matrix as a
    (GMRES_RESTART + 1, GMRES_RESTART) array and a fresh Krylov basis per
    call. Its arrays take the dtype of rhs, so it runs the real solves of
    the packed steady state in real arithmetic (the phase of each Givens
    rotation is then a sign). It has no stagnation exit: a solve runs until
    it converges or spends GMRES_MAXITER iterations. The constants are read from
    `ule.dynamics` at call time, so a test that patches them patches both.
    """
    restart, maxiter = dynamics.GMRES_RESTART, dynamics.GMRES_MAXITER
    n = rhs.size
    if target is None:
        target = dynamics.GMRES_RTOL * np.linalg.norm(rhs)
    floor = dynamics.GMRES_FLOOR * np.finfo(float).eps * anorm
    x = np.zeros(n, dtype=rhs.dtype)
    residual = rhs.copy()
    krylov = np.empty((restart + 1, n), dtype=rhs.dtype)
    iterations = 0
    while True:
        beta = np.linalg.norm(residual)
        converged = bool(beta <= target + floor * np.linalg.norm(x))
        if converged or iterations >= maxiter or not np.isfinite(beta):
            return x, iterations, converged
        krylov[0] = residual / beta
        hess = np.zeros((restart + 1, restart), dtype=rhs.dtype)
        cos = np.zeros(restart)
        sin = np.zeros(restart, dtype=rhs.dtype)
        gvec = np.zeros(restart + 1, dtype=rhs.dtype)
        gvec[0] = beta
        k = 0
        while k < restart and iterations < maxiter:
            w = apply(precondition(krylov[k]))
            w_norm = np.linalg.norm(w)
            for _ in range(2):
                c = krylov[:k + 1].conj() @ w
                w -= c @ krylov[:k + 1]
                hess[:k + 1, k] += c
            h_next = np.linalg.norm(w)
            for i in range(k):
                a, b = hess[i, k], hess[i + 1, k]
                hess[i, k] = cos[i] * a + sin[i] * b
                hess[i + 1, k] = -np.conj(sin[i]) * a + cos[i] * b
            a = hess[k, k]
            rho = np.hypot(abs(a), h_next)
            if rho == 0:  # exact breakdown: the preconditioned operator is singular
                return x, iterations, False
            phase = a / abs(a) if a != 0 else 1.0
            cos[k], sin[k] = abs(a) / rho, phase * h_next / rho
            hess[k, k] = phase * rho
            gvec[k + 1] = -np.conj(sin[k]) * gvec[k]
            gvec[k] *= cos[k]
            k += 1
            iterations += 1
            if abs(gvec[k]) <= target or h_next <= np.finfo(float).eps * w_norm:
                break
            krylov[k] = w / h_next
        y = np.linalg.solve(hess[:k, :k], gvec[:k])  # upper triangular: back substitution
        x = x + precondition(y @ krylov[:k])
        residual = rhs - apply(x)


def steady_state_consistency(superop, rho0, t_long: float, tol: float = 1e-8) -> float:
    """Trace distance between the long-time propagated state and
    `ule.steady_state`.

    Expected below 1e-6 once t_long exceeds about twenty relaxation times
    (20 / spectral gap of the generator).
    """
    ss = steady_state(superop)
    if t_long == 0.0:
        endpoint = np.asarray(rho0, dtype=complex)
    else:
        traj = propagate(superop, rho0, t_long, [t_long], tol=tol, keep_states=True)
        endpoint = traj.states[-1]
    return trace_distance(endpoint, ss.state)


def liouvillian_gap(superop) -> float:
    """Smallest nonzero |Re lambda| over the generator spectrum, by dense
    diagonalization of `dense_generator`; for small systems,
    e.g. when choosing t_long."""
    ev = np.linalg.eigvals(dense_generator(superop))
    rates = np.abs(ev.real)
    nonzero = rates[rates > 1e-12 * max(rates.max(), 1.0)]
    if nonzero.size == 0:
        raise ValueError("generator has no decaying modes")
    return float(nonzero.min())


def thermal_shift_residual(rho_th, a, w: float, beta: float) -> float:
    """Frobenius norm of rho_th A(w) - e^(beta w) A(w) rho_th.

    Vanishes (to rounding) when A(w) is an exact Bohr component of the
    Hamiltonian that generated rho_th.
    """
    return float(np.linalg.norm(rho_th @ a - np.exp(beta * w) * (a @ rho_th)))


def total_sz(n_sites: int) -> np.ndarray:
    """Total z spin sum_n Sz_n of an n-site chain."""
    return n_sites * magnetization(n_sites)
