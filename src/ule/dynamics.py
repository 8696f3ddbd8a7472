"""Time evolution under a generator and steady-state extraction.

Propagation is a Lawson (integrating-factor) Runge-Kutta method: the state
is held in the eigenbasis of H_eff, where the commutator is exact
elementwise phase rotation, and an adaptive Dormand-Prince 5(4) step
(fifth-order advance with embedded fourth-order error control) integrates
only the dissipator in the interaction frame of each step. The step size is
then set by the dissipation and not by the largest Bohr frequency. The
state is re-Hermitized after every accepted step; the trace is never
renormalized, its drift is tracked as a correctness signal. Sample states
between accepted steps come from cubic Hermite interpolation of (state,
derivative) pairs in the step's rotating frame, rotated back to the sample
time and to the input basis.

The steady state is the trace-one solution of the generator bordered by the
trace functional, found matrix-free in the same eigenbasis: right-
preconditioned restarted GMRES, with the secular (Pauli) limit of the
generator as preconditioner, applies the generator with d x d products. A
1-norm condition estimate from further GMRES solves with the operator and
its adjoint certifies that the kernel is one-dimensional; the adjoint is the
same operator on the Heisenberg frame (energies -E, each L_c swapped with
L_c^dag), so one dissipator kernel serves every solve. Only a generator
that fails the certificate builds the dense `Superoperator.matrix` and pays
for an SVD, which counts the kernel singular values below 1e-10 * sigma_max.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .generator import MemoryLimitError, Superoperator, _require_memory, unvec
from .operators import EigenDecomposition, frobenius, hermitize, trace_distance


class PropagationError(RuntimeError):
    """Integration failure; carries the time reached."""

    def __init__(self, msg, t_reached):
        super().__init__(msg)
        self.t_reached = t_reached


class SteadyStateError(RuntimeError):
    """Kernel extraction failure; carries the kernel dimension found (None
    when the failure came before any kernel was counted)."""

    def __init__(self, msg, kernel_dimension, report=None):
        super().__init__(msg)
        self.kernel_dimension = kernel_dimension
        self.report = report


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the master equation.

    observables maps a name to the sampled series of real expectation
    values; stats carries integrator diagnostics (accepted steps, max trace
    drift, smallest state eigenvalue seen at the sample times).
    """

    times: np.ndarray
    states: list
    observables: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class SteadyStateReport:
    """Steady state with its diagnostics.

    rcond is the conditioning the solve reached: the reciprocal 1-norm
    condition estimate of the bordered operator A of `steady_state`,
    1 / (est ||A||_1 est ||A^-1||_1) (method "gmres"), or the smallest
    non-kernel singular value over sigma_max (method "null-space").
    iterations counts the GMRES iterations of the solve and its refinement
    step, not those of the condition estimate (0 for the SVD).
    """

    state: np.ndarray
    residual: float
    kernel_dimension: int
    rcond: float
    method: str
    iterations: int


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


def _dissipator(frame, y):
    """G y + y G + sum_c L_c y L_c^dag on an eigenbasis matrix y.

    frame is (eig, G, [L_c], [L_c^dag]), laid out as `Superoperator._eigenframe`.
    """
    _, g, jumps, jumps_dag = frame
    out = g @ y + y @ g
    for l, l_dag in zip(jumps, jumps_dag):
        out += l @ y @ l_dag
    return out


def _phases(energies, tau):
    """exp(-i (E_m - E_n) tau), the coherent evolution of element (m, n) over tau.

    The diagonal is set to exactly 1: |exp(-i E tau)|^2 rounds off 1, and
    that rounding would otherwise scale the populations at every step.
    """
    p = np.exp(-1j * tau * energies)
    out = p[:, None] * p.conj()[None, :]
    np.fill_diagonal(out, 1.0)
    return out


def _hermite_eval(t, t0, y0, f0, t1, y1, f1):
    """Cubic Hermite interpolant through (t0, y0, f0) and (t1, y1, f1)."""
    h = t1 - t0
    s = (t - t0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


def propagate(superop: Superoperator, rho0, t_end: float, sample_times,
              tol: float = 1e-8, observables: dict | None = None) -> Trajectory:
    """Integrate drho/dt = generator(rho) from t = 0 to t_end.

    The state y is held in the eigenbasis of H_eff, where the commutator
    multiplies element (m, n) by -i (E_m - E_n). The Lawson step integrates
    the interaction-frame state v(t) = exp(+i (E_m - E_n)(t - t_n)) y_mn(t)
    with the DP5(4) tableau, so each stage applies only the dissipator,
    between phase factors, and the coherent part is exact at any step size.

    sample_times must lie in [0, t_end]; the returned trajectory holds the
    Hermitized states, in the input basis, at exactly those times. The
    per-step error norm is taken in the interaction frame and scaled by
    tol * (1 + |component|), so tol acts as a relative tolerance at unit
    scale.

    Raises PropagationError on step-size underflow or when any state
    eigenvalue falls below -1e-6 (a generator bug, not an integration
    artifact); between samples the eigenbasis diagonal is checked at every
    accepted step. Observables are sampled with `expectation`, which raises
    ValueError on a non-negligible imaginary part.
    """
    if not (t_end > 0 and np.isfinite(t_end)):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    rho0 = np.asarray(rho0, dtype=complex)
    sample_times = np.asarray(sample_times, dtype=float)
    if sample_times.size and (sample_times.min() < 0 or sample_times.max() > t_end):
        raise ValueError("sample times must lie within [0, t_end]")
    if np.any(np.diff(sample_times) < 0):
        raise ValueError("sample times must be non-decreasing")

    frame = superop._eigenframe
    eig = frame[0]
    energies = eig.energies
    stages = np.empty((_DP_C.size, eig.dim, eig.dim), dtype=complex)
    flat_stages = stages.reshape(_DP_C.size, -1)  # view: tableau rows combine stages by one matmul

    y = eig.to_eigenbasis(rho0)
    t = 0.0
    f = _dissipator(frame, y)
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
                # interpolate v in the frame rotating from t0, then rotate to ts
                back = _phases(energies, t1 - t0).conj()
                vs = _hermite_eval(ts, t0, y0, f0, t1, back * y1, back * f1)
                ys = _phases(energies, ts - t0) * vs
            rho = hermitize(eig.from_eigenbasis(ys))
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
        phases = {c: _phases(energies, c * h_step) for c in _DP_C[1:]}
        stages[0] = f
        for i in range(1, _DP_C.size):
            v = y + h_step * (_DP_A[i] @ flat_stages[:i]).reshape(y.shape)
            p = phases[_DP_C[i]]
            stages[i] = p.conj() * _dissipator(frame, p * v)
        # the last stage evaluates at the fifth-order solution (_DP_A[6] == _DP_B5)
        y5 = phases[1.0] * v
        err_vec = h_step * (_DP_ERR @ flat_stages).reshape(y.shape)
        scale = tol * (1.0 + np.maximum(np.abs(y), np.abs(v)))
        err = float(np.sqrt(np.mean(np.abs(err_vec / scale) ** 2)))

        if err <= 1.0:
            y_new = hermitize(y5)
            f_new = _dissipator(frame, y_new)  # FSAL stage recomputed after Hermitization
            t_new = t + h_step
            take_samples(t, y, f, t_new, y_new, f_new)
            drift = abs(float(np.real(np.trace(y_new))) - 1.0)
            max_drift = max(max_drift, drift)
            diag = np.real(y_new.diagonal())
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
        rho = hermitize(eig.from_eigenbasis(y))
        wmin = float(np.linalg.eigvalsh(rho)[0])
        min_sample_eig = min(min_sample_eig, wmin)
        while next_sample < sample_times.size:
            sample_vals[next_sample] = rho
            next_sample += 1

    obs_series = {name: np.array([expectation(s, op) for s in sample_vals])
                  for name, op in (observables or {}).items()}
    stats = dict(n_accepted=n_accepted, n_rejected=n_rejected,
                 max_trace_drift=max_drift, min_sample_eig=float(min_sample_eig))
    return Trajectory(times=sample_times, states=sample_vals,
                      observables=obs_series, stats=stats)


# The GMRES certificate needs rcond above it; the SVD fallback counts singular
# values below it times sigma_max as the kernel.
KERNEL_RTOL = 1e-10
# Restarted GMRES holds at most GMRES_RESTART + 1 Krylov vectors of d^2
# entries. A cycle runs until its residual estimate falls to GMRES_RTOL ||b||.
# The solve has converged when the recomputed residual ||b - A x|| does, or
# when it is within GMRES_FLOOR eps ||A||_1 ||x||, the rounding error of
# forming it (measured at up to 1.7 eps ||A||_1 ||x|| on d = 2-8 systems and
# N = 4-6 chains). It fails after GMRES_MAXITER iterations in all.
GMRES_RESTART = 200
GMRES_RTOL = 1e-15
GMRES_FLOOR = 8
GMRES_MAXITER = 1000


def steady_state(superop: Superoperator) -> SteadyStateReport:
    """Unique trace-one steady state of the generator.

    In the eigenframe of H_eff the generator reads
    L(y) = -i (E_m - E_n) y_mn + D(y), with D the dissipator, and the
    bordered operator A(y) = L(y) + W tr(y), with W = I/d, is nonsingular
    exactly when the kernel of L is one-dimensional and not traceless.
    Since tr L(y) = 0, the solution of A x = W has tr x = 1 and L x = 0: it
    is the steady state.
    It is found by right-preconditioned GMRES, which applies A with d x d
    products and never builds the dense matrix; the preconditioner is the
    secular (Pauli) limit of A. The state is rotated back, refined once in
    the input basis, Hermitized and its trace normalized.

    The certificate is a 1-norm reciprocal condition estimate of A, which
    must exceed KERNEL_RTOL, and the convergence of every GMRES solve. A
    generator that fails it, or whose secular preconditioner is singular,
    goes to the SVD null-space solve, which raises SteadyStateError on a
    zero-dimensional or degenerate kernel (the degenerate case still
    reports a trace-normalizable representative). When that dense fallback
    would not fit in physical memory, SteadyStateError names the failed
    certificate instead, with kernel_dimension None.

    MemoryLimitError (a ValueError) is raised before any solve if the GMRES
    workspace itself would not fit.
    """
    d = superop.dim
    _require_memory((GMRES_RESTART + 1) * 16 * d ** 2,
                    f"steady-state GMRES workspace for states of {d ** 2} entries")
    rho, rcond, iterations, failure = _gmres_steady(superop)
    if failure is not None:
        try:
            return _null_space_svd(superop)
        except MemoryLimitError as exc:
            raise SteadyStateError(f"steady-state certificate failed: {failure}; "
                                   f"the SVD fallback cannot run: {exc}",
                                   kernel_dimension=None) from exc
    rho, residual = _normalized(superop, rho)
    return SteadyStateReport(state=rho, residual=residual, kernel_dimension=1,
                             rcond=rcond, method="gmres", iterations=iterations)


def _normalized(superop: Superoperator, rho):
    """(rho Hermitized and trace-normalized, ||generator(rho)||_F in the input basis)."""
    rho = hermitize(rho)
    rho = rho / float(np.real(np.trace(rho)))
    return rho, frobenius(superop.apply_matrix(rho))


def _gmres_steady(superop: Superoperator):
    """(rho, rcond, iterations, failure) from the bordered system A x = W.

    rho is x in the input basis after one step of refinement there: the
    eigenbasis is exact only to rounding, which leaves a residual of order
    eps ||H_eff|| ||rho|| that a second solve, on the residual rotated into
    the eigenframe, removes. failure is None when the certificate holds,
    else a description of what failed (rho and rcond are then meaningless).
    iterations counts the GMRES iterations of the solve and the refinement,
    not those of the condition estimate. A^dag is A on the Heisenberg
    frame: energies -E, the same G, and each L_c swapped with L_c^dag.
    """
    frame = superop._eigenframe
    eig, g, jumps, jumps_dag = frame
    d = eig.dim
    forward = _bordered_operator(frame)
    adjoint = _bordered_operator((EigenDecomposition(-eig.energies, eig.basis),
                                  g, jumps_dag, jumps))
    if forward[1] is None or adjoint[1] is None:
        return None, 0.0, 0, "the secular preconditioner is singular"
    anorm = _onenorm_estimate(forward[0], adjoint[0], d * d)
    rhs = np.eye(d, dtype=complex).reshape(-1) / d
    x, iterations, converged = _gmres(*forward, rhs, anorm)
    if not converged:
        return None, 0.0, iterations, f"GMRES did not converge in {iterations} iterations"

    def solver(operator):
        def solve(v):
            nonlocal converged
            out, _, ok = _gmres(*operator, v, anorm)
            converged = converged and ok
            return out
        return solve

    rcond = 1.0 / (anorm * _onenorm_estimate(solver(forward), solver(adjoint), d * d))
    if not converged:
        return None, 0.0, iterations, "a GMRES solve of the condition estimate did not converge"
    if not rcond > KERNEL_RTOL:
        return None, rcond, iterations, f"rcond {rcond:.3e} is not above {KERNEL_RTOL:g}"
    rho = eig.from_eigenbasis(x.reshape(d, d))
    residual = eig.to_eigenbasis(superop.apply_matrix(rho))
    delta, refinement, _ = _gmres(*forward, -residual.reshape(-1), anorm,
                                  target=GMRES_RTOL * np.linalg.norm(rhs))
    rho = rho + eig.from_eigenbasis(delta.reshape(d, d))
    return rho, rcond, iterations + refinement, None


def _bordered_operator(frame):
    """(apply, precondition) for A on flattened matrices of an eigenframe.

    A(y) = -i (E_m - E_n) y_mn + `_dissipator`(frame, y) + W tr(y), W = I/d.
    On the Heisenberg frame of `_gmres_steady` the same code gives A^dag,
    the preconditioner included. precondition applies the inverse of the
    secular (Pauli) limit of A: coherences are divided by
    -i (E_m - E_n) + G_mm + G_nn + sum_c L_c,mm conj(L_c,nn), populations
    solved with the rates |L_mn|^2 + 2 G_mm delta_mn + 1/d. It is None when
    that limit is singular (no dissipation, for one).
    """
    eig, g, jumps, _ = frame
    d = eig.dim
    rotation = -1j * (eig.energies[:, None] - eig.energies[None, :])
    diag = np.arange(d) * (d + 1)  # flat indices of the populations

    def apply(v):
        y = v.reshape(d, d)
        out = rotation * y + _dissipator(frame, y)
        out.flat[diag] += np.trace(y) / d
        return out.reshape(-1)

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
        y = v.reshape(d, d) * inv_coherence
        y.flat[diag] = inv_rates @ v[diag]
        return y.reshape(-1)

    return apply, precondition


def _gmres(apply, precondition, rhs, anorm, target=None):
    """(x, iterations, converged) for apply(x) = rhs from x = 0.

    Restarted GMRES (Saad and Schultz 1986) with right preconditioning, so
    the residual it minimizes is the true one: Arnoldi by classical
    Gram-Schmidt with one reorthogonalization, the Hessenberg least-squares
    problem reduced by Givens rotations. target is the residual norm to
    reach, GMRES_RTOL ||rhs|| by default; anorm, an estimate of
    ||apply||_1, scales the rounding floor of the convergence test.
    """
    n = rhs.size
    if target is None:
        target = GMRES_RTOL * np.linalg.norm(rhs)
    floor = GMRES_FLOOR * np.finfo(float).eps * anorm
    x = np.zeros(n, dtype=complex)
    residual = rhs.copy()
    krylov = np.empty((GMRES_RESTART + 1, n), dtype=complex)
    iterations = 0
    while True:
        beta = np.linalg.norm(residual)
        converged = bool(beta <= target + floor * np.linalg.norm(x))
        if converged or iterations >= GMRES_MAXITER or not np.isfinite(beta):
            return x, iterations, converged
        krylov[0] = residual / beta
        hess = np.zeros((GMRES_RESTART + 1, GMRES_RESTART), dtype=complex)
        cos = np.zeros(GMRES_RESTART)
        sin = np.zeros(GMRES_RESTART, dtype=complex)
        gvec = np.zeros(GMRES_RESTART + 1, dtype=complex)
        gvec[0] = beta
        k = 0
        while k < GMRES_RESTART and iterations < GMRES_MAXITER:
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
        y = scipy.linalg.solve_triangular(hess[:k, :k], gvec[:k])
        x = x + precondition(y @ krylov[:k])
        residual = rhs - apply(x)


def _onenorm_estimate(apply, apply_adjoint, n) -> float:
    """Hager-Higham lower estimate of ||B||_1 from products with B and B^H.

    The t = 1 iteration of LAPACK zlacn2, the estimator behind zgecon
    (N. J. Higham, ACM TOMS 14, 381 (1988)): it starts from the uniform
    vector, draws no random numbers, and ends with the alternating-sign
    probe.
    """
    def signs(v):
        mag = np.abs(v)
        return np.where(mag > 0, v / np.where(mag > 0, mag, 1.0), 1.0)

    v = apply(np.full(n, 1.0 / n, dtype=complex))
    est = np.sum(np.abs(v))
    if n == 1:
        return float(est)
    z = apply_adjoint(signs(v))
    j = int(np.argmax(np.abs(z)))
    for probes in range(4):
        v = apply(np.eye(1, n, j, dtype=complex)[0])
        est_old, est = est, np.sum(np.abs(v))
        if est <= est_old or probes == 3:
            break
        z = apply_adjoint(signs(v))
        j_last, j = j, int(np.argmax(np.abs(z)))
        if abs(z[j_last]) == abs(z[j]):
            break
    i = np.arange(n)
    alt = (-1.0) ** i * (1 + i / (n - 1))
    return float(max(est, 2 * np.sum(np.abs(apply(alt.astype(complex)))) / (3 * n)))


def _null_space_svd(superop: Superoperator) -> SteadyStateReport:
    """Null space of the generator matrix via SVD.

    Singular values below KERNEL_RTOL * sigma_max count as the kernel. A
    unique trace-normalizable kernel vector is Hermitized and normalized;
    a zero-dimensional or degenerate kernel raises SteadyStateError (the
    degenerate case still reports a trace-normalizable representative).
    """
    mat = superop.matrix
    sigma, vh = scipy.linalg.svd(mat, lapack_driver="gesdd")[1:]
    threshold = KERNEL_RTOL * sigma[0]
    kdim = int(np.sum(sigma < threshold))
    if kdim == 0:
        raise SteadyStateError(
            f"no kernel below threshold {threshold:.3e} (smallest sigma "
            f"{sigma[-1]:.3e})", kernel_dimension=0)

    kernel = vh[len(sigma) - kdim:].conj()  # rows span the kernel
    # pick the representative with the largest trace magnitude
    traces = np.array([np.trace(unvec(v, superop.dim)) for v in kernel])
    best = int(np.argmax(np.abs(traces)))
    if abs(traces[best]) < 1e-12:
        raise SteadyStateError(
            "kernel contains no trace-normalizable vector",
            kernel_dimension=kdim)
    rho, residual = _normalized(superop, unvec(kernel[best], superop.dim))
    report = SteadyStateReport(state=rho, residual=residual, kernel_dimension=kdim,
                               rcond=float(sigma[len(sigma) - kdim - 1] / sigma[0]),
                               method="null-space", iterations=0)
    if kdim > 1:
        raise SteadyStateError(
            f"steady state is not unique: kernel dimension {kdim}",
            kernel_dimension=kdim, report=report)
    return report


def expectation(rho, op) -> float:
    """Real part of tr(rho op); the imaginary part must be negligible."""
    rho = np.asarray(rho)
    op = np.asarray(op)
    if rho.shape != op.shape:
        raise ValueError(f"shape mismatch: {rho.shape} vs {op.shape}")
    val = complex(np.trace(rho @ op))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation value has imaginary part {val.imag:.3e}")
    return float(val.real)


def steady_state_consistency(superop: Superoperator, rho0, t_long: float,
                             tol: float = 1e-8) -> float:
    """Trace distance between the long-time propagated state and
    :func:`steady_state`.

    Expected below 1e-6 once t_long exceeds about twenty relaxation times
    (20 / spectral gap of the generator).
    """
    ss = steady_state(superop)
    if t_long == 0.0:
        endpoint = np.asarray(rho0, dtype=complex)
    else:
        traj = propagate(superop, rho0, t_long, [t_long], tol=tol)
        endpoint = traj.final_state
    return trace_distance(endpoint, ss.state)


def liouvillian_gap(superop: Superoperator) -> float:
    """Smallest nonzero |Re lambda| over the generator spectrum.

    Dense diagonalization; intended for small systems when choosing t_long.
    """
    ev = np.linalg.eigvals(superop.matrix)
    rates = np.abs(ev.real)
    nonzero = rates[rates > 1e-12 * max(rates.max(), 1.0)]
    if nonzero.size == 0:
        raise ValueError("generator has no decaying modes")
    return float(nonzero.min())
