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

The steady state is the trace-one kernel vector of the dense
`Superoperator.matrix` (which propagation never builds). One LU factorization
solves the bordered system, the matrix with its first row replaced by the
trace functional, and the LAPACK condition-number estimate from the same
factors certifies that the kernel is one-dimensional. Only a generator that
fails the certificate pays for an SVD, which counts the kernel singular
values below 1e-10 * sigma_max.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .generator import Superoperator, unvec, vec
from .operators import frobenius, hermitize, trace_distance


class PropagationError(RuntimeError):
    """Integration failure; carries the time reached."""

    def __init__(self, msg, t_reached):
        super().__init__(msg)
        self.t_reached = t_reached


class SteadyStateError(RuntimeError):
    """Kernel extraction failure; carries the kernel dimension found."""

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

    rcond is the conditioning the solve reached: the LAPACK reciprocal
    1-norm condition estimate of the bordered matrix (method "bordered-lu"),
    or the smallest non-kernel singular value over sigma_max (method
    "null-space").
    """

    state: np.ndarray
    residual: float
    kernel_dimension: int
    rcond: float
    method: str


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

    frame is `Superoperator._eigenframe`: (E, V, G, [L_c], [L_c^dag]).
    """
    _, _, g, jumps, jumps_dag = frame
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
    energies, basis = frame[:2]
    basis_dag = basis.conj().T
    stages = np.empty((_DP_C.size,) + basis.shape, dtype=complex)
    flat_stages = stages.reshape(_DP_C.size, -1)  # view: tableau rows combine stages by one matmul

    y = basis_dag @ rho0 @ basis
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
            rho = hermitize(basis @ ys @ basis_dag)
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
        rho = hermitize(basis @ y @ basis_dag)
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


# The LU certificate needs rcond above it; the SVD fallback counts singular
# values below it times sigma_max as the kernel.
KERNEL_RTOL = 1e-10


def steady_state(superop: Superoperator) -> SteadyStateReport:
    """Unique trace-one steady state of the generator.

    Row 0 of the dense matrix is replaced by the trace functional vec(I)^H
    and the bordered system is solved for the right-hand side e_0. For a
    trace-preserving generator row 0 is minus the sum of the other rows at
    diagonal positions, so the bordering drops no equation: the bordered
    matrix is nonsingular exactly when the kernel is one-dimensional and
    not traceless, and its solution is the kernel vector with trace 1. The
    solution is Hermitized and its trace normalized.

    The certificate is the LAPACK reciprocal condition estimate (1-norm)
    from the LU factors; it must exceed KERNEL_RTOL. A generator that fails
    it (exactly singular factors included) goes to the SVD null-space
    solve, which raises SteadyStateError on a zero-dimensional or
    degenerate kernel (the degenerate case still reports a
    trace-normalizable representative).
    """
    x, rcond = _bordered_lu_solve(superop.matrix, superop.dim)
    if x is None or not rcond > KERNEL_RTOL:
        return _null_space_svd(superop)
    rho = hermitize(unvec(x, superop.dim))
    rho = rho / float(np.real(np.trace(rho)))
    return SteadyStateReport(state=rho, residual=frobenius(superop.apply_matrix(rho)),
                             kernel_dimension=1, rcond=rcond, method="bordered-lu")


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
    rho = hermitize(unvec(kernel[best], superop.dim))
    rho = rho / float(np.real(np.trace(rho)))
    residual = frobenius(superop.apply_matrix(rho))
    report = SteadyStateReport(state=rho, residual=residual, kernel_dimension=kdim,
                               rcond=float(sigma[len(sigma) - kdim - 1] / sigma[0]),
                               method="null-space")
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
