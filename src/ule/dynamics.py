"""Time evolution under a generator and steady-state extraction.

Propagation is a Lawson (integrating-factor) Runge-Kutta method: the state
is held in the eigenbasis of H_eff, where the commutator is exact
elementwise phase rotation, and an adaptive Dormand-Prince 5(4) step
(fifth-order advance with embedded fourth-order error control) integrates
only the dissipator in the interaction frame of each step. The step size is
then set by the dissipation and not by the largest Bohr frequency. Sample
states between accepted steps come from cubic Hermite interpolation of
(state, derivative) pairs in the step's rotating frame, rotated back to the
sample time. Samples stay in the eigenframe; only a kept state is rotated
back to the input basis.

Every stage of a step is Hermitian, and `propagate` carries each as one
real d x d matrix P = Re(y) + Im(y), from which y = (P + P^T)/2 +
i (P - P^T)/2. The state is therefore Hermitian by construction and is
never re-Hermitized between steps; the trace, sum diag P, is never
renormalized, its drift is tracked as a correctness signal. A phase factor
c + i s acts on P as c P - (s P)^T. When the eigenframe is real, as for the
spin chain with or without the Lamb shift, the dissipator keeps the
symmetric and antisymmetric parts apart and acts on P itself in real
products (`_packed_dissipator`); a complex frame unpacks P for the
dissipator, `_dissipator` in complex products, and packs the result. The
derivative at the accepted state is the last stage (first same as last),
not a seventh dissipator call.

A step makes only the numpy calls its arithmetic needs, into buffers that
`propagate` allocates once. The phases of the five distinct nodes come from
one batched real product into a preallocated stack (`_phases`), and each
rotation is three ufunc calls with one scratch matrix (`_rotate`). The
dissipator's workspace contract: `_packed_dissipator(frame)` exposes, as
apply.input, the block of its workspace that holds P. The forward rotation
of each stage writes there, and the kernel then skips its copy of P; any
other input, such as the Krylov vectors of `steady_state`, is copied in,
with the same result bitwise. The error scale 1 + |y| of an accepted state
is carried over from the step that produced it, and the sample path runs
only when a sample is due, with the step's full-step phases.

The steady state is the trace-one solution of the generator bordered by the
trace functional, found on the same packed P (`_packed_generator`) by
right-preconditioned restarted GMRES with the secular limit as
preconditioner and certified by a 1-norm condition estimate; bordered with
one trace functional per component of the jump graph, then with random
borders one at a time, the same solver counts any other kernel
(`steady_state`, `_kernel_count`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .generator import Superoperator, _require_memory
from .operators import EigenDecomposition, frobenius, hermitize, require_hermitian


class PropagationError(RuntimeError):
    """Integration failure; carries the time reached."""

    def __init__(self, msg, t_reached):
        super().__init__(msg)
        self.t_reached = t_reached


class SteadyStateError(RuntimeError):
    """No unique steady state; carries the kernel dimension `_kernel_count`
    certified (generic above c0; None when none did) and its report."""

    def __init__(self, msg, kernel_dimension, report=None):
        super().__init__(msg)
        self.kernel_dimension = kernel_dimension
        self.report = report


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution of the master equation.

    observables maps a name to the sampled series of real expectation
    values; stats carries integrator diagnostics (accepted steps, max trace
    drift, smallest state eigenvalue seen at the sample times). states holds
    the sampled density matrices in the input basis, or None unless
    `propagate` was asked to keep them.
    """

    times: np.ndarray
    states: list | None = None
    observables: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SteadyStateReport:
    """Steady state with its diagnostics, from the one matrix-free solver.

    kernel_dimension is the number c of borders of the solve: 1 for a
    unique steady state, else the count `_kernel_count` certified. rcond is
    the conditioning the solve reached: the reciprocal 1-norm condition
    estimate of the bordered operator A_c of `steady_state` as a real
    d^2 x d^2 matrix on the packed P = Re(y) + Im(y), 1 / (est ||A_c||_1
    est ||A_c^-1||_1) by real Hager (LAPACK dlacn2), with est ||A_c^-1||_1
    at most (1 + ESTIMATE_RTOL) ||A_c^-1||_1. iterations counts the GMRES
    iterations of the solve and its refinement step, estimate_iterations
    those of the condition estimate's solves.
    """

    state: np.ndarray
    residual: float
    kernel_dimension: int
    rcond: float
    iterations: int
    estimate_iterations: int


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
# The distinct nonzero nodes _DP_C[1:6] (stages 5 and 6 share c = 1), so each
# step takes one phase stack, and the node of each stage i = 1..6 in it.
_DP_NODES = _DP_C[1:6]
_DP_STAGE_NODE = (0, 1, 2, 3, 4, 4)
# Row i - 1 combines [y, k_0, ..., k_6] into the input of stage i = 1..6; the
# last row gives the error estimate. Entries are multiples of h except the
# leading 1 of the stage rows, which `propagate` sets.
_DP_ROWS = np.array([[0.0, *a, *[0.0] * (7 - a.size)] for a in _DP_A[1:]] + [[0.0, *_DP_ERR]])


def _dissipator(frame, y):
    """G y + y G + sum_c L_c y L_c^dag on an eigenbasis matrix y, in complex products.

    frame is (eig, G, [L_c], [L_c^dag]), laid out as `Superoperator._eigenframe`.
    """
    _, g, jumps, jumps_dag = frame
    out = g @ y
    out += y @ g
    for l, l_dag in zip(jumps, jumps_dag):
        out += l @ y @ l_dag
    return out


def _packed_dissipator(frame):
    """apply(p, out): the packing of D(y), written to out, for the y that p packs.

    A Hermitian y = S + i A (S symmetric, A antisymmetric) is packed as the
    real matrix P = S + A (`_pack`). On a real frame D keeps the symmetric
    and the antisymmetric part apart, so the packing of D(y) is
    G P + P G + sum_c L_c P L_c^dag, with the right factors read from the
    frame's [L_c^dag]. That is one real product [G | P | L_1 P | ...] @
    [P; G; L_1^dag; ...] after one product L_c P per jump, in a workspace
    that holds the fixed blocks. A complex frame unpacks, applies
    `_dissipator` and packs.

    The workspace contract: apply.input is the d x d block of the workspace
    that holds P. A caller may write P there and call
    apply(apply.input, out), which skips the copy of p; any other p is
    copied in first, with the same result bitwise. Every call overwrites
    the workspace, so apply is for one caller at a time, and out must not
    be apply.input.
    """
    _, g, jumps, jumps_dag = frame
    d = g.shape[0]
    if g.dtype != np.float64:
        def apply_complex(p, out):
            dy = _dissipator(frame, _unpack(p))
            return np.add(dy.real, dy.imag, out=out)
        apply_complex.input = np.empty((d, d))
        return apply_complex

    left = np.concatenate([g, g, *jumps], axis=1)  # its P and L_c P blocks are set per call
    right = np.concatenate([g, g, *jumps_dag])  # its P block is set per call
    p_left, p_right = left[:, d:2 * d], right[:d]
    products = [(l, left[:, k * d:(k + 1) * d]) for k, l in enumerate(jumps, start=2)]

    def apply(p, out):
        if p is not p_right:
            p_right[...] = p
        p_left[...] = p_right
        for l, block in products:
            np.matmul(l, p_right, out=block)
        return np.matmul(left, right, out=out)
    apply.input = p_right
    return apply


def _pack(y):
    """P = Re(y) + Im(y), the real d x d form of a Hermitian y."""
    return y.real + y.imag


def _unpack(p):
    """The Hermitian y = (P + P^T)/2 + i (P - P^T)/2 that P packs."""
    return 0.5 * (p + p.T) + 0.5j * (p - p.T)


def _moduli_squared(p, out=None, scratch=None):
    """|y_mn|^2 = (P_mn^2 + P_nm^2) / 2 for the Hermitian y that P packs,
    written to out when given; scratch, when given, is a d x d workspace."""
    square = np.multiply(p, p, out=scratch)
    out = np.add(square, square.T, out=out)
    out *= 0.5
    return out


def _phases(energies, nodes):
    """fill(h): the phase pairs of tau = nodes * h, a (len(nodes), 2, d, d)
    stack of [c, s] with c + i s = exp(-i (E_m - E_n) tau), the coherent
    evolution of element (m, n) over tau.

    With a = cos(E tau) and b = sin(E tau), c_mn = a_m a_n + b_m b_n and
    s_mn = a_m b_n - b_m a_n: one batched real product of the (d, 2)
    factors (a, b) and (-b, a) by the (2, d) factor [a; b]. c is symmetric
    and s antisymmetric, to rounding. The diagonal is set to exactly
    (1, 0): a_m^2 + b_m^2 rounds off 1, and that rounding would otherwise
    scale the populations at every step. The factors and the stack are
    allocated once, and each fill overwrites the stack it returns.
    """
    d, k = energies.size, len(nodes)
    tau = np.asarray(nodes, dtype=float)[:, None]
    x = np.empty((k, d))
    # rows a, b, -b, a, b: the left factors are rows 0-1 and 2-3, the right
    # factor rows 3-4, which numpy then takes as a plain product and not by
    # its slower path for A^T A
    rows = np.empty((k, 5, d))
    cos, sin, minus_sin = rows[:, 0], rows[:, 1], rows[:, 2]
    left = rows[:, :4].reshape(k, 2, 2, d).swapaxes(2, 3)
    right = rows[:, None, 3:]
    cos_sin, cos_sin_copy = rows[:, :2], rows[:, 3:]
    out = np.empty((k, 2, d, d))
    diagonal = out.reshape(k, 2, d * d)[:, :, ::d + 1]
    unit = np.array([[1.0], [0.0]])  # the diagonal of each pair

    def fill(h):
        np.multiply(tau * h, energies, out=x)
        np.cos(x, out=cos)
        np.sin(x, out=sin)
        np.negative(sin, out=minus_sin)
        cos_sin_copy[...] = cos_sin
        np.matmul(left, right, out=out)
        diagonal[...] = unit
        return out
    return fill


def _rotate(c, s, p, out=None, back=False, scratch=None):
    """The packing of (c + i s) * y, or of (c - i s) * y when back, for the y
    that p packs, written to out when given.

    With c symmetric and s antisymmetric (a pair of `_phases`) the product
    packs as c P + s P^T = c P - (s P)^T, up to the rounding of s; the back
    rotation flips the sign of s. The diagonal of c + i s is exactly 1, so
    the populations pass unchanged. scratch, when given, is a d x d
    workspace for s P; out may be p itself, but neither may be scratch.
    """
    s_p = np.multiply(s, p, out=scratch)
    out = np.multiply(c, p, out=out)
    if back:
        return np.add(out, s_p.T, out=out)
    return np.subtract(out, s_p.T, out=out)


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
              tol: float = 1e-8, observables: dict | None = None,
              keep_states: bool = False) -> Trajectory:
    """Integrate drho/dt = generator(rho) from t = 0 to t_end.

    The state y is held in the eigenbasis of H_eff, where the commutator
    multiplies element (m, n) by -i (E_m - E_n). The Lawson step integrates
    the interaction-frame state v(t) = exp(+i (E_m - E_n)(t - t_n)) y_mn(t)
    with the DP5(4) tableau, so each stage applies only the dissipator,
    between phase factors, and the coherent part is exact at any step size.
    Every stage is Hermitian, and each is carried as one real d x d matrix
    P = Re(y) + Im(y) (`_pack`); a phase factor c + i s acts on P as
    c P - (s P)^T (`_rotate`), and on a real eigenframe the dissipator acts
    on P in real products (`_packed_dissipator`). The state is Hermitian by
    construction, so it is never re-Hermitized between steps; its trace,
    sum diag P, is never renormalized, and its drift from 1 is tracked as a
    correctness signal.

    rho0 must be a d x d matrix of trace 1 (within 1e-12) that passes
    `require_hermitian` (finite, Hermitian within 1e-12 of its largest
    entry); it is Hermitized in the eigenbasis before the first step.
    sample_times must be a finite 1-D array within [0, t_end]; the
    trajectory is sampled at exactly those times. The per-step error norm is the RMS over the d^2
    entries of the interaction-frame error, each scaled by
    tol * (1 + |component|), so tol, which must be positive and finite, acts
    as a relative tolerance at unit scale.

    Each observable O (d x d) must pass `require_hermitian` too; it is
    rotated into the eigenframe once, Hermitized and packed. The packing is
    a Frobenius isometry, so a sample y has tr(y O) = P_y . P_O, one dot
    product. Every input is checked before the first step. A sample's
    smallest eigenvalue is that of the eigenframe state, the spectrum of
    the input-basis one.

    With keep_states, trajectory.states holds each sample Hermitized in the
    input basis, 16 d^2 bytes each, and MemoryLimitError (a ValueError) is
    raised first if they would not fit in physical memory; otherwise it is
    None. PropagationError on step-size underflow or when any sample
    eigenvalue falls below -1e-6; between samples the eigenbasis diagonal
    is checked at every accepted step. Such a violation comes from a
    generator that is not completely positive or from a loose tol, so its
    message names tol.
    """
    if not (t_end > 0 and np.isfinite(t_end)):
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    frame = superop._eigenframe
    eig = frame[0]
    d = eig.dim
    rho0 = require_hermitian(rho0, name="rho0")
    if rho0.shape != (d, d):
        raise ValueError(f"rho0 must be a {d} x {d} matrix, got shape {rho0.shape}")
    if not abs(np.trace(rho0) - 1.0) <= 1e-12:
        raise ValueError(f"rho0 must have trace 1 within 1e-12, got {complex(np.trace(rho0)):.6g}")
    sample_times = np.asarray(sample_times, dtype=float)
    if sample_times.ndim != 1:
        raise ValueError(f"sample_times must be 1-D, got shape {sample_times.shape}")
    if not np.all(np.isfinite(sample_times)):
        raise ValueError("sample_times must be finite")
    if sample_times.size and (sample_times.min() < 0 or sample_times.max() > t_end):
        raise ValueError("sample_times must lie within [0, t_end]")
    if np.any(np.diff(sample_times) < 0):
        raise ValueError("sample_times must be non-decreasing")
    packed = {}  # name -> (series, P_O)
    for name, op in (observables or {}).items():
        op = require_hermitian(op, name=f"observable {name!r}")
        if op.shape != (d, d):
            raise ValueError(f"shape mismatch: {(d, d)} vs {op.shape}")
        packed[name] = (np.empty(sample_times.size),
                        _pack(hermitize(eig.to_eigenbasis(op))).ravel())
    sample_vals = None
    if keep_states:
        _require_memory(sample_times.size * 16 * d ** 2,
                        f"storage for {sample_times.size} sampled states of size {d} x {d}")
        sample_vals = [None] * sample_times.size

    energies = eig.energies
    dissipator = _packed_dissipator(frame)
    y_stage = dissipator.input  # each stage's input, written by the forward rotation
    # v, then the packed state y and the stages k_0..k_6: a tableau row
    # [1, h a_i0, ..., h a_i,i-1] times rows[1:] is v, the input of stage i
    rows = np.empty((_DP_ROWS.shape[1] + 1, d, d))
    flat_rows = rows.reshape(rows.shape[0], -1)
    v, y, f = rows[0], rows[1], rows[2]
    d_stage, scratch, square, y_scale, v_scale, scale = np.empty((6, d, d))
    ratio = np.empty(d * d)
    node_phases = _phases(energies, _DP_NODES)
    phases = node_phases(0.0)  # the node phases of a step, refilled per step
    sample_phases = _phases(energies, [1.0])
    coef = np.empty_like(_DP_ROWS)  # h times the tableau, set per step
    stages = [(coef[i - 1, :i + 1], flat_rows[1:i + 2], *phases[node], rows[i + 2])
              for i, node in enumerate(_DP_STAGE_NODE, start=1)]
    flat_v, flat_scale = flat_rows[0], scale.reshape(-1)
    err_row, err_rows = coef[-1], flat_rows[1:]

    def unit_scale(p, out):
        """1 + |y_mn| for the y that p packs, written to out."""
        np.sqrt(_moduli_squared(p, out, square), out=out)
        out += 1.0
        return out

    y[...] = _pack(hermitize(eig.to_eigenbasis(rho0)))
    t = 0.0
    dissipator(y, f)
    unit_scale(y, y_scale)
    # initial step from the derivative scale, capped by the span
    fnorm = math.sqrt(float(np.max(_moduli_squared(f))))
    h = min(t_end, 1e-2 / fnorm) if fnorm > 0 else t_end
    min_step = 1e-14 * t_end
    end_tol = 1e-13 * t_end  # the run stops this close to t_end; its last step takes the rest

    next_sample = 0
    max_drift = 0.0
    min_sample_eig = np.inf
    n_accepted = 0
    n_rejected = 0

    def positivity_error(value, where, t_reached):
        """The PropagationError of a sample eigenvalue or a population `value`
        below -1e-6 at `where`."""
        return PropagationError(
            f"positivity violation {value:.3e} at {where} with tol = {tol:g}; "
            "a loose tol can cause this; otherwise the generator is not "
            "completely positive",
            t_reached=t_reached)

    def take_samples(t0, y0, f0, t1, y1, f1):
        """Take every sample due by t1 from the step (t0, y0, f0) -> (t1, y1, f1),
        whose full-step phases are phases[-1]; return the next due time."""
        nonlocal next_sample, min_sample_eig
        while next_sample < sample_times.size and sample_times[next_sample] <= t1 + end_tol:
            ts = sample_times[next_sample]
            if ts <= t0:
                ys = y0
            elif ts >= t1:
                ys = y1
            else:
                # interpolate v in the frame rotating from t0, then rotate to ts
                vs = _hermite_eval(ts, t0, y0, f0, t1, _rotate(*phases[-1], y1, back=True),
                                   _rotate(*phases[-1], f1, back=True))
                ys = _rotate(*sample_phases(ts - t0)[0], vs)
            state = _unpack(ys)
            wmin = float(np.linalg.eigvalsh(state)[0])
            if wmin < -1e-6:
                raise positivity_error(wmin, f"sample t = {ts}", ts)
            min_sample_eig = min(min_sample_eig, wmin)
            flat = ys.ravel()
            for series, vec in packed.values():
                series[next_sample] = flat @ vec
            if keep_states:
                sample_vals[next_sample] = hermitize(eig.from_eigenbasis(state))
            next_sample += 1
        return sample_times[next_sample] if next_sample < sample_times.size else np.inf

    next_due = take_samples(0.0, y, f, 0.0, y, f)

    while True:
        remaining = t_end - t
        if remaining <= end_tol:
            break
        if h < min_step:
            raise PropagationError(f"step size underflow at t = {t}", t_reached=t)
        h_step = min(h, remaining)
        node_phases(h_step)
        np.multiply(_DP_ROWS, h_step, out=coef)
        coef[:-1, 0] = 1.0
        for row, inputs, c, s, k in stages:
            np.matmul(row, inputs, out=flat_v)
            _rotate(c, s, v, y_stage, scratch=scratch)
            dissipator(y_stage, d_stage)
            _rotate(c, s, d_stage, k, back=True, scratch=scratch)
        # the last stage evaluates at the fifth-order solution (_DP_A[6] == _DP_B5)
        np.maximum(y_scale, unit_scale(v, v_scale), out=scale)
        np.matmul(err_row, err_rows, out=ratio)
        ratio /= flat_scale
        err = math.sqrt(ratio.dot(ratio) / ratio.size) / tol

        if err <= 1.0:
            # FSAL: the last stage's dissipator is the derivative at the new state
            t_new = t + h_step
            if next_due <= t_new + end_tol:
                next_due = take_samples(t, y, f, t_new, y_stage, d_stage)
            y[...] = y_stage
            f[...] = d_stage
            # the scale of v is that of the new state, to rounding
            y_scale, v_scale = v_scale, y_scale
            t = t_new
            max_drift = max(max_drift, abs(float(y.trace()) - 1.0))
            diag = y.diagonal()
            if diag.min() < -1e-6:
                raise positivity_error(diag.min(), f"t = {t}", t)
            n_accepted += 1
            factor = 0.9 * err ** -0.2 if err > 0 else 5.0
        else:
            n_rejected += 1
            factor = max(0.2, 0.9 * err ** -0.2)
        h = h_step * min(5.0, max(0.2, factor))

    stats = dict(n_accepted=n_accepted, n_rejected=n_rejected,
                 max_trace_drift=max_drift, min_sample_eig=float(min_sample_eig))
    return Trajectory(times=sample_times, states=sample_vals, stats=stats,
                      observables={name: pack[0] for name, pack in packed.items()})


# Every bordered certificate needs rcond above it.
KERNEL_RTOL = 1e-10
# Seeds the random borders of `_kernel_count`: reruns count and report alike.
KERNEL_SEED = 0
# Restarted GMRES holds at most GMRES_RESTART + 1 Krylov vectors of d^2
# entries. A cycle runs until its residual estimate falls to GMRES_RTOL ||b||.
# The solve has converged when the recomputed residual ||b - A x|| does, or
# when it is within GMRES_FLOOR eps ||A||_1 ||x||, the rounding error of
# forming it (measured at up to 1.7 eps ||A||_1 ||x|| on d = 2-8 systems and
# N = 4-6 chains). It fails after GMRES_MAXITER iterations in all, or after
# a cycle that does not lower the recomputed residual.
GMRES_RESTART = 200
GMRES_RTOL = 1e-15
# A condition-estimate solve on a probe v of n entries stops at
# ||r||_2 <= ESTIMATE_RTOL ||v||_1 / sqrt(n). As ||A^-1 r||_1 <=
# ||A^-1||_1 sqrt(n) ||r||_2, each probe's 1-norm moves by at most
# ESTIMATE_RTOL ||A^-1||_1 ||v||_1, and the estimate by at most
# ESTIMATE_RTOL ||A^-1||_1, up to rounding.
ESTIMATE_RTOL = 1e-4
GMRES_FLOOR = 8
GMRES_MAXITER = 1000


def steady_state(superop: Superoperator) -> SteadyStateReport:
    """Unique trace-one steady state of the generator, by one matrix-free
    solver that also counts the kernel at any N.

    In the eigenframe of H_eff the generator reads
    L(y) = -i (E_m - E_n) y_mn + D(y), with D the dissipator, and the
    bordered operator A(y) = L(y) + W tr(y), with W = I/d, is nonsingular
    exactly when the kernel of L is one-dimensional and not traceless.
    Since tr L(y) = 0, the solution of A x = W has tr x = 1 and L x = 0: it
    is the steady state, solved matrix-free (`_gmres_steady`) and certified
    by a 1-norm reciprocal condition estimate of A above KERNEL_RTOL and the
    convergence of every GMRES solve. A generator that fails it raises
    SteadyStateError with its kernel counted (`_kernel_count`) and, where a
    count certified, a trace-one representative as its report.

    MemoryLimitError (a ValueError) is raised before any solve if all 201
    Krylov vectors would not fit; a solve writes only those it iterates on.
    """
    d = superop.dim
    _require_memory((GMRES_RESTART + 1) * 8 * d ** 2,
                    f"steady-state GMRES workspace for states of {d ** 2} entries")
    report, failure = _gmres_steady(superop, np.zeros(d, dtype=int), np.zeros((0, d * d)))
    if failure is not None:
        raise _kernel_count(superop, failure)
    return report


def _kernel_count(superop: Superoperator, failure: str) -> SteadyStateError:
    """The SteadyStateError of a generator whose certificate failed with
    `failure`, its kernel counted by bordering.

    The solve of `steady_state` runs on A_c = L + sum_j W_j Z_j^T against
    the same I/d, first over the c0 components k of the jump graph
    (`_components`), W_k = Pi_k / |k| and Z_k = Pi_k (Pi_k the projector on
    their levels), whose conserved traces bound the kernel from below
    (B. Baumgartner and H. Narnhofer, J. Phys. A 41, 395303 (2008)); then
    with seeded random Hermitian borders W_j = Z_j = R_j, one at a time, on
    the s pairs of numerically degenerate H_eff levels: at most s - c0, and
    none when s > GMRES_RESTART (48,620 pairs on the N = 9 chain at eta = 0),
    so that a count, four vectors of d^2 entries per random border, holds
    fewer than four Krylov workspaces. Generic borders of rank dim ker L
    make A_c nonsingular (W. J. F. Govaerts, Numerical Methods for
    Bifurcations of Dynamical Equilibria, SIAM 2000, ch. 3): the first
    certified c is the kernel dimension, exact at c0 and generic (exact
    with probability one) above; None when no c certifies.
    """
    energies = superop._eigenframe[0].energies
    labels = _components(superop._eigenframe)
    c0 = int(labels.max()) + 1
    support = np.flatnonzero(np.abs(energies[:, None] - energies[None, :])
                             <= KERNEL_RTOL * np.ptp(energies))
    m = support.size - c0 if support.size <= GMRES_RESTART else 0
    borders = np.zeros((m, energies.size ** 2))
    borders[:, support] = np.random.default_rng(KERNEL_SEED).standard_normal((m, support.size))
    borders /= np.linalg.norm(borders, axis=1, keepdims=True)
    for c in range(max(c0, 2), c0 + m + 1):  # c = 1 is the solve that failed
        report, rung_failure = _gmres_steady(superop, labels, borders[:c - c0])
        if rung_failure is None:
            return SteadyStateError(
                f"steady state is not unique: kernel dimension {c} (certified with {c0} component"
                f"{'s' * (c0 != 1)} and {c - c0} random border{'s' * (c - c0 != 1)}"
                f"{', a generic count' if c > c0 else ''}, rcond {report.rcond:.3e}; one border: "
                f"{failure})", kernel_dimension=c, report=report)
    return SteadyStateError(f"steady-state certificate failed: {failure}; no bordering with {c0} "
                            f"component{'s' * (c0 != 1)} and {m} random border{'s' * (m != 1)} "
                            f"certifies the kernel ({support.size} degenerate level pairs)",
                            kernel_dimension=None)


def _components(frame) -> np.ndarray:
    """Component labels 0..c-1 of the levels, joined by every nonzero entry
    of an eigenframe jump: each level takes the smallest label among itself
    and its neighbours, with pointer jumping, until the labels settle."""
    d = frame[0].dim
    joined = sum((l != 0 for l in frame[2]), np.zeros((d, d), dtype=bool))
    joined |= joined.T
    labels = np.arange(d)
    while True:
        lowest = np.minimum(labels, np.where(joined, labels, d).min(axis=1))
        lowest = lowest[lowest]
        if np.array_equal(lowest, labels):
            return np.unique(labels, return_inverse=True)[1]
        labels = lowest


def _gmres_steady(superop: Superoperator, labels, borders):
    """(report, failure) from A_c x = I/d over the component labels of the
    levels and the random borders: all zero and none in `steady_state`,
    where A_c is A; those of each count in `_kernel_count`.

    Every solve runs on the packing P of x (`_pack`). The report's state is
    x in the input basis after one step of refinement there, Hermitized and
    trace-normalized, with ||L(rho)||_F as residual: the eigenbasis
    is exact only to rounding, which leaves a residual of order
    eps ||H_eff|| ||rho|| that a second solve, on the Hermitian part of the
    residual rotated into the eigenframe, removes; with random borders x
    is first moved by `_least_residual`. failure is None when the
    certificate holds, else a description of what failed (report is then
    None). A^dag is A on the Heisenberg frame: energies -E, the same G, and
    each L_c swapped with L_c^dag. Every solve shares one Krylov workspace.
    """
    eig, g, jumps, jumps_dag = frame = superop._eigenframe
    d = eig.dim
    forward = _bordered_operator(frame, labels, borders)
    adjoint = _bordered_operator((EigenDecomposition(-eig.energies, eig.basis),
                                  g, jumps_dag, jumps), labels, borders)
    krylov = np.empty((GMRES_RESTART + 1, d * d))
    anorm = _onenorm_estimate(forward[0], adjoint[0], d * d)
    rhs = np.eye(d).reshape(-1) / d
    x, iterations, converged = _gmres(*forward, rhs, anorm, krylov)
    if not converged:
        return None, f"GMRES did not converge in {iterations} iterations"
    estimate_iterations = 0

    def solver(operator):
        def solve(v):
            nonlocal converged, estimate_iterations
            target = ESTIMATE_RTOL * float(np.abs(v).sum()) / math.sqrt(v.size)
            out, count, ok = _gmres(*operator, v, anorm, krylov, target=target)
            converged = converged and ok
            estimate_iterations += count
            return out
        return solve

    rcond = 1.0 / (anorm * _onenorm_estimate(solver(forward), solver(adjoint), d * d))
    if not converged:
        return None, "a GMRES solve of the condition estimate did not converge"
    if not rcond > KERNEL_RTOL:
        return None, f"rcond {rcond:.3e} is not above {KERNEL_RTOL:g}"
    if len(borders):
        x, iterations = _least_residual(frame, borders, x, forward, anorm, krylov, iterations)
    rho = eig.from_eigenbasis(_unpack(x.reshape(d, d)))
    residual = _pack(hermitize(eig.to_eigenbasis(superop.apply_matrix(rho))))
    delta, refinement, _ = _gmres(*forward, -residual.reshape(-1), anorm, krylov,
                                  target=GMRES_RTOL * _norm(rhs))
    rho = hermitize(rho + eig.from_eigenbasis(_unpack(delta.reshape(d, d))))
    rho = rho / float(np.real(np.trace(rho)))
    return SteadyStateReport(state=rho, residual=frobenius(superop.apply_matrix(rho)),
                             kernel_dimension=int(labels.max()) + 1 + len(borders),
                             rcond=rcond, iterations=iterations + refinement,
                             estimate_iterations=estimate_iterations), None


def _least_residual(frame, borders, x, forward, anorm, krylov, iterations):
    """(x, iterations): the solve x of a certified A_c against I/d moved to
    the trace-one combination of x and the solves A_c x_j = R_j against the
    m random borders with the least ||L(x)||, which meets the exact kernel
    (c0 or more of the c dimensions all c solves span), and iterations plus
    those of the solves. Singular values of the residuals of x_j - tr(x_j) x
    up to sqrt(m) nu, nu = GMRES_RTOL + GMRES_FLOOR eps ||A||_1 max ||x_j||
    bounding each solve's residual, are cut: x stays where the kernel is
    exact.
    """
    d = frame[0].dim
    generator = _packed_generator(frame)
    directions, residuals = np.empty_like(borders), np.empty_like(borders)
    for w, direction, residual in zip(borders, directions, residuals):
        x_j, count, _ = _gmres(*forward, w, anorm, krylov)
        direction[:] = x_j - x_j[::d + 1].sum() * x
        generator(direction.reshape(d, d), residual.reshape(d, d))
        iterations += count
    u, sigma, vt = np.linalg.svd(residuals.T, full_matrices=False)
    nu = GMRES_RTOL + GMRES_FLOOR * np.finfo(float).eps * anorm * max(map(_norm, directions))
    keep = sigma > math.sqrt(len(directions)) * nu
    r = generator(x.reshape(d, d), np.empty((d, d))).ravel()
    return x - vt[keep].T @ (u[:, keep].T @ r / sigma[keep]) @ directions, iterations


def _packed_generator(frame):
    """apply(p, out): the packing of L(y) = -i (E_m - E_n) y_mn + D(y), for
    the y that p packs, written to out: `_packed_dissipator`(frame) plus the
    commutator (omega * P)^T, omega_mn = E_m - E_n. One caller at a time.
    """
    omega = frame[0].energies[:, None] - frame[0].energies[None, :]
    dissipator = _packed_dissipator(frame)

    def apply(p, out):
        dissipator(p, out)
        out += (omega * p).T
        return out
    return apply


def _bordered_operator(frame, labels, borders):
    """(apply, precondition) for A_c on the flattened packing P of a Hermitian
    eigenframe matrix y (`_pack`).

    A_c(y) = L(y) + sum_k W_k tr(Pi_k y) + sum_j R_j tr(R_j y), W_k =
    Pi_k / |k|, over the components k of labels (0..c-1 per level; all zero
    gives A, W = I/d) and the packed random borders R_j:
    `_packed_generator`(frame), each population raised by the mean
    population of its component, and one dot product per random border.
    Each border is symmetric, so on the Heisenberg frame of `_gmres_steady`
    the same code gives A_c^dag, the preconditioner included. precondition
    applies the inverse of the secular (Pauli) limit of A_c: coherences are
    divided by c_mn = -i (E_m - E_n) + G_mm + G_nn + sum_c L_c,mm conj(L_c,nn),
    and since conj(c_mn) = c_nm, 1 / c = a + i b with a symmetric and b
    antisymmetric acts on P as a * P - (b * P)^T; populations are solved
    with the rates |L_mn|^2 + 2 G_mm delta_mn plus the borders' populations.
    An undamped coherence or singular rates are left unscaled.
    """
    eig, g, jumps, _ = frame
    d = eig.dim
    omega = eig.energies[:, None] - eig.energies[None, :]
    diag = np.arange(d) * (d + 1)  # flat indices of the populations
    generator = _packed_generator(frame)
    sizes = np.bincount(labels)
    border = (labels[:, None] == labels[None, :]) / sizes[labels]
    member = labels == np.arange(sizes.size)[:, None]

    def mean(p):
        # row sums add in the order of p.trace(), so one component's mean
        # is tr(p) / d to the bit
        return (np.where(member, p.diagonal(), 0.0).sum(axis=1) / sizes)[labels]

    def apply(v):
        p = v.reshape(d, d)
        out = generator(p, np.empty((d, d))).reshape(-1)
        out[::d + 1] += mean(p)  # the populations
        if len(borders):  # the empty product would cost a quarter of an apply at N = 5
            out += (borders @ v) @ borders
        return out

    rates = 2.0 * np.diag(np.real(g.diagonal())) + border + borders[:, diag].T @ borders[:, diag]
    coherence = -1j * omega + g.diagonal()[:, None] + g.diagonal()[None, :]
    for l in jumps:
        rates += np.abs(l) ** 2
        coherence += l.diagonal()[:, None] * l.diagonal().conj()[None, :]
    try:
        inv_rates = np.linalg.inv(rates)
    except np.linalg.LinAlgError:
        inv_rates = np.eye(d)
    inv_coherence = np.divide(1.0, coherence, out=np.ones_like(coherence), where=coherence != 0)
    a, b = inv_coherence.real.copy(), inv_coherence.imag.copy()

    def precondition(v):
        p = v.reshape(d, d)
        y = a * p
        y -= (b * p).T
        y = y.reshape(-1)
        y[::d + 1] = inv_rates @ v[diag]
        return y

    return apply, precondition


def _norm(v) -> float:
    """Euclidean norm of a real vector: `np.linalg.norm` without its checks."""
    return math.sqrt(v.dot(v))


def _gmres(apply, precondition, rhs, anorm, krylov, target=None):
    """(x, iterations, converged) for apply(x) = rhs from x = 0, all real.

    Restarted GMRES (Saad and Schultz 1986) with right preconditioning, so
    the residual it minimizes is the true one: Arnoldi by classical
    Gram-Schmidt with one reorthogonalization, the Hessenberg least-squares
    problem reduced by Givens rotations. target is the residual norm to
    reach, GMRES_RTOL ||rhs|| by default; anorm, an estimate of
    ||apply||_1, scales the rounding floor of the convergence test. krylov
    is a (GMRES_RESTART + 1, rhs.size) float64 workspace for the basis; it
    is overwritten, so one array serves a sequence of solves. A cycle that
    does not lower the recomputed residual ends the solve as not converged.

    An iteration costs one apply, one precondition, four matrix-vector
    products with the basis and two norms. The rotated Hessenberg columns,
    the rotations and the residual vector g are Python floats, and only the
    final k x k triangle is formed.
    """
    eps = np.finfo(float).eps
    if target is None:
        target = GMRES_RTOL * _norm(rhs)
    floor = GMRES_FLOOR * eps * anorm
    x = np.zeros(rhs.size)
    residual = rhs
    last = math.inf
    iterations = 0
    while True:
        beta = _norm(residual)
        converged = beta <= target + floor * _norm(x)
        if (converged or iterations >= GMRES_MAXITER or not math.isfinite(beta)
                or beta >= last):
            return x, iterations, converged
        last = beta
        np.divide(residual, beta, out=krylov[0])
        columns, cos, sin, g = [], [], [], [beta]
        k = 0
        while k < GMRES_RESTART and iterations < GMRES_MAXITER:
            w = apply(precondition(krylov[k]))
            w_norm = _norm(w)
            basis = krylov[:k + 1]
            first = basis @ w  # CGS2
            w -= first @ basis
            second = basis @ w
            w -= second @ basis
            h_next = _norm(w)
            col = (first + second).tolist()
            for i in range(k):
                a, b = col[i], col[i + 1]
                col[i] = cos[i] * a + sin[i] * b
                col[i + 1] = -sin[i] * a + cos[i] * b
            a = col[k]
            rho = math.hypot(a, h_next)
            if rho == 0:  # exact breakdown: the preconditioned operator is singular
                return x, iterations, False
            cos.append(a / rho)
            sin.append(h_next / rho)
            col[k] = rho
            columns.append(col)
            g.append(-sin[k] * g[k])
            g[k] *= cos[k]
            k += 1
            iterations += 1
            if abs(g[k]) <= target or h_next <= eps * w_norm:
                break
            np.divide(w, h_next, out=krylov[k])
        triangle = np.zeros((k, k))
        for j, col in enumerate(columns):
            triangle[:j + 1, j] = col
        y = np.linalg.solve(triangle, g[:k])  # upper triangular: back substitution
        x += precondition(y @ krylov[:k])
        residual = rhs - apply(x)


def _onenorm_estimate(apply, apply_adjoint, n) -> float:
    """Hager-Higham lower estimate of ||B||_1 from products with B and B^T.

    The iteration of LAPACK dlacn2, the estimator behind dgecon (N. J.
    Higham, ACM TOMS 14, 381 (1988)): it starts from the uniform vector,
    steers by sign vectors of +-1 (+1 for a zero entry), draws no random
    numbers, stops on a repeated sign vector, a non-increasing estimate or
    a repeated maximizing index, and ends with the alternating-sign probe.
    """
    v = apply(np.full(n, 1.0 / n))
    est = np.sum(np.abs(v))
    if n == 1:
        return float(est)
    signs = np.where(v >= 0, 1.0, -1.0)
    j = int(np.argmax(np.abs(apply_adjoint(signs))))
    for probes in range(4):
        v = apply(np.eye(1, n, j)[0])
        est_old, est = est, np.sum(np.abs(v))
        new_signs = np.where(v >= 0, 1.0, -1.0)
        if np.array_equal(new_signs, signs) or est <= est_old or probes == 3:
            break
        signs = new_signs
        z = apply_adjoint(signs)
        j_last, j = j, int(np.argmax(np.abs(z)))
        if z[j_last] == abs(z[j]):
            break
    i = np.arange(n)
    alt = (-1.0) ** i * (1 + i / (n - 1))
    return float(max(est, 2 * np.sum(np.abs(apply(alt))) / (3 * n)))


def expectation(rho, op) -> float:
    """Real part of tr(rho op), as the O(d^2) sum of rho * op^T; the
    imaginary part must be negligible."""
    rho = np.asarray(rho)
    op = np.asarray(op)
    if rho.shape != op.shape:
        raise ValueError(f"shape mismatch: {rho.shape} vs {op.shape}")
    val = complex(np.sum(rho * op.T))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation value has imaginary part {val.imag:.3e}")
    return float(val.real)
