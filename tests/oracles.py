"""Independent reference implementations used only by the tests.

Nothing here may call into the library paths it checks: the eigenvalue
oracle is a hand-rolled Jacobi iteration, the principal-value oracle is a
dense symmetric trapezoid sum, and the Bohr-sum oracles are naive loops over
decomposition components that never call `BohrDecomposition.double_sum`.
Bath functions and f values come in as arguments.
"""

import numpy as np


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


def dissipator_on_gibbs_loop(bohr, bath, beta, rho_th, jump_spectral):
    """Naive component-loop evaluation of the dissipator Bohr sum."""
    w = bohr.frequencies
    g = jump_spectral(bath, w)
    out = np.zeros_like(rho_th)
    for i, w1 in enumerate(w):
        for j, w2 in enumerate(w):
            coeff = (-2.0 * np.pi**2 * bath.coupling
                     * (1.0 - np.exp(0.5 * beta * (w2 - w1))) ** 2 * g[i] * g[j])
            out = out + coeff * (bohr.components[i].conj().T
                                 @ bohr.components[j] @ rho_th)
    return out


def lambshift_on_gibbs_loop(bohr, bath, beta, rho_th, f_values):
    """Naive component-loop evaluation of the Lamb-shift Bohr sum.

    f_values maps (w1, w2) float pairs to f(w1, w2).
    """
    w = bohr.frequencies
    out = np.zeros_like(rho_th)
    for i, w1 in enumerate(w):
        for j, w2 in enumerate(w):
            prod = bohr.components[i] @ bohr.components[j]
            if not np.any(prod):
                continue
            coeff = f_values[(float(w1), float(w2))] * (1.0 - np.exp(beta * (w1 + w2)))
            out = out + coeff * (prod @ rho_th)
    return out


def bohr_double_sum_loop(bohr, grid, adjoint_first=False):
    """sum_ij grid[i, j] A(w_i)^(dag) A(w_j) as a loop over components."""
    out = np.zeros((bohr.dim, bohr.dim), dtype=complex)
    for i, a_i in enumerate(bohr.components):
        first = a_i.conj().T if adjoint_first else a_i
        for j, a_j in enumerate(bohr.components):
            out = out + grid[i, j] * (first @ a_j)
    return out


def jump_operator_bohr_sum(bohr, bath, jump_spectral):
    """Jump operator as the Bohr sum 2 pi sqrt(gamma) sum_w g(w) A(w)."""
    g = jump_spectral(bath, bohr.frequencies)
    return 2.0 * np.pi * np.sqrt(bath.coupling) * np.einsum("k,kmn->mn", g, bohr.components)


def lamb_shift_bohr_sum(bohr, f_values):
    """Lamb shift as the double Bohr sum sum_{w1,w2} f(w1, w2) A(w1) A(w2).

    f_values maps (w1, w2) float pairs to f(w1, w2); only pairs whose
    component product is nonzero are looked up.
    """
    freqs = bohr.frequencies
    # eigenbasis components keep structural zeros exact, so every surviving
    # product pair is one the level triple sum covers
    comps = [np.where(bohr.bin_index == k, bohr.coupling_eigen, 0.0)
             for k in range(bohr.nfreq)]
    lam_e = np.zeros((bohr.dim, bohr.dim), dtype=complex)
    for i, a_i in enumerate(comps):
        for j, a_j in enumerate(comps):
            prod = a_i @ a_j
            if np.any(prod):
                lam_e += f_values[(float(freqs[i]), float(freqs[j]))] * prod
    return bohr.eig.from_eigenbasis(lam_e)


def random_hermitian(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (a + a.conj().T) / 2.0
