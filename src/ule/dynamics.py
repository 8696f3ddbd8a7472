"""Time evolution under a generator and steady-state extraction.

Propagation is exponential time differencing: the state is held in the
eigenbasis of H_eff, where the commutator is the elementwise linear part
L0 y = -i (E_m - E_n) y_mn, and Krogstad's fourth-order exponential
Runge-Kutta step (ETDRK4-B; S. Krogstad, J. Comput. Phys. 203, 72 (2005))
integrates the dissipator D against it. With z = h L0 elementwise, each
stage multiplies the state and the dissipator's values elementwise by
phi_k(z), the functions phi_0 = e^z, phi_{k+1}(z) = (phi_k(z) - 1/k!) / z,
so the coherent part is exact, and a coherence that the populations
drive, which varies as slowly as they do, costs no steps of its own (S. M.
Cox and P. C. Matthews, J. Comput. Phys. 176, 430 (2002); M. Hochbruck and
A. Ostermann, Acta Numerica 19, 209 (2010)). A coherence that other
coherences drive sees its drive turn, and the quadrature of that drive sets
the step size. The error estimate adds the error of the last stage to that of the step's quadrature of D,
taken from the divided differences of D's values at the nodes of this step
and the start of the last, and its max norm sets the step. The steps divide
each sample interval evenly, so every sample is a step end.

Every stage is Hermitian, and `propagate` carries each as one real d x d
matrix P = Re(y) + Im(y), from which y = (P + P^T)/2 + i (P - P^T)/2. The
state is therefore Hermitian by construction and is never re-Hermitized
between steps; the trace, sum diag P, is never renormalized, its drift is
tracked as a correctness signal. Each phi_k(z) has a symmetric real part c
and an antisymmetric imaginary part s, so it acts on P as c P - (s P)^T
(`_pair_sum`). When the eigenframe is real, as for the spin chain with or
without the Lamb shift, the dissipator keeps the symmetric and
antisymmetric parts apart and acts on P itself in real products
(`_packed_dissipator`); a complex frame unpacks P for the dissipator,
`_dissipator` in complex products, and packs the result. The dissipator's
value at the accepted state is that of the next step's first stage (first
same as last), so a step makes four dissipator calls.

A step makes only the numpy calls its arithmetic needs, into buffers that
`propagate` allocates once. The ten h-scaled phi pairs of a step size come
from `_etd_tables` and are rebuilt only when the step size changes. The
dissipator's workspace contract: `_packed_dissipator(frame)` exposes, as
apply.input, the block of its workspace that holds P, and never writes it.
A stage writes its input there, and the kernel then skips its copy of P;
any other input, such as the Krylov vectors of `steady_state`, is copied
in, with the same result bitwise.

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


# Taylor coefficients of phi_4(i theta) = sum_j (i theta)^j / (j + 4)! for
# |theta| < 1: row i is the pair [(-1)^i / (2i + 4)!, (-1)^i / (2i + 5)!], the
# coefficients of theta^(2i) in the real part and in the imaginary part over
# theta, highest power first for Horner in theta^2. The first term left out
# is below 1/22! = 8.9e-22.
_PHI4_SERIES = np.array([[(-1) ** i / math.factorial(2 * i + p + 4) for p in (0, 1)]
                         for i in reversed(range(9))])


def _phi_pairs(theta, out):
    """Write phi_k(i theta) into out[k] as the pair [Re, Im], for k = 0, ...,
    len(out) - 1 (at most 4), elementwise over the flat real array theta; out
    has shape (len(out), 2, theta.size).

    phi_0 = e^z and phi_{k+1}(z) = (phi_k(z) - 1/k!) / z. Where |theta| >= 1
    the pair is the closed form: [cos, sin] for k = 0, then that recurrence,
    which for z = i theta reads Re phi_{k+1} = Im phi_k / theta and
    Im phi_{k+1} = (1/k! - Re phi_k) / theta; each step divides the rounding
    error by |theta|. Where |theta| < 1 phi_4 is its Taylor series
    (_PHI4_SERIES), and the recurrence runs down from it, phi_k = z phi_{k+1}
    + 1/k!, each step multiplying the error by |theta|; at theta = 0 (the
    diagonal of a table, and any pair of degenerate levels) the pair is
    exactly [1/k!, 0]. The real part is even in theta and the imaginary part
    odd. Beyond out, the transients are a few arrays of theta's size.
    """
    k = len(out)
    with np.errstate(divide="ignore", invalid="ignore"):  # the 0 / 0 of theta = 0
        re, im = np.cos(theta, out=out[0, 0]), np.sin(theta, out=out[0, 1])
        for j in range(1, k):
            re, im = (np.divide(im, theta, out=out[j, 0]),
                      np.subtract(1.0 / math.factorial(j - 1), re, out=out[j, 1]))
            im /= theta
    small = np.abs(theta) < 1.0
    t = theta[small]
    x = t * t
    series = np.zeros((2, t.size))
    for coef in _PHI4_SERIES[:, :, None]:
        series *= x
        series += coef
    del x
    series[1] *= t
    for j in reversed(range(5)):  # from phi_4 whatever k, so phi_j has the same bits for any k
        if j < 4:
            im = np.multiply(series[0], t)
            series[1] *= t
            np.subtract(1.0 / math.factorial(j), series[1], out=series[0])
            series[1] = im
        if j < k:
            out[j][:, small] = series
    return out


def _etd_tables(gaps, h, out):
    """Fill out, a (10, 2, d, d) stack, with the pairs [c, s] of the elementwise
    factors c + i s of an ETDRK4-B step of size h, for z = i h gaps, gaps_mn =
    E_n - E_m, and return it. In order:

        e^(z/2), (h/2) phi1(z/2), h phi2(z/2), e^z, h phi1(z), 2h phi2(z),
        h (4 phi3 - phi2), h (phi1 - 3 phi2 + 4 phi3), 2h (phi2 - 2 phi3),
        h (6 phi4 - 3 phi3 + phi2 / 2),

    all of z elementwise (`_phi_pairs`). The last is the weight of the
    quadrature term of the error estimate (`propagate`). gaps is
    antisymmetric, so each c is symmetric and each s antisymmetric, and each
    acts on a packed P as c P - (s P)^T (`_pair_sum`).
    """
    flat = out.reshape(10, 2, -1)
    theta = (h * gaps).reshape(-1)
    _phi_pairs(theta, flat[3:8])
    theta *= 0.5
    _phi_pairs(theta, flat[0:3])
    del theta
    # phi1-4 of z sit in slots 4-7 until each slot takes its weight, phi4
    # first; one scratch pair keeps the peak of a fill low
    p1, p2, p3, p4 = out[4:8]
    b4, b1, b23, w3 = out[6:10]
    tmp = np.multiply(p3, 3 * h)
    np.multiply(p4, 6 * h, out=w3)
    w3 -= tmp
    w3 += np.multiply(p2, 0.5 * h, out=tmp)
    np.multiply(p2, 2 * h, out=b23)
    b23 -= np.multiply(p3, 4 * h, out=tmp)
    np.multiply(p1, h, out=b1)
    b1 += tmp
    b1 -= np.multiply(p2, 3 * h, out=tmp)
    b4 *= 4 * h
    b4 -= np.multiply(p2, h, out=tmp)
    out[1] *= 0.5 * h
    out[2] *= h
    p1 *= h
    p2 *= 2 * h
    return out


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


def _pair_sum(terms, out, scratch, product=None):
    """The packing of sum_k (c_k + i s_k) * y_k over terms [((c_k, s_k), p_k)],
    for the y_k that p_k packs, written to out and returned.

    With c symmetric and s antisymmetric (a pair of `_etd_tables`) the product
    (c + i s) * y packs as c P + s P^T = c P - (s P)^T, up to the rounding of
    s, and the sum as sum_k c_k P_k - (sum_k s_k P_k)^T. scratch and product
    are d x d workspaces, product needed only for more than one term; none of
    out, scratch and product may be a p_k.
    """
    (c, s), p = terms[0]
    np.multiply(c, p, out=out)
    np.multiply(s, p, out=scratch)
    for (c, s), p in terms[1:]:
        out += np.multiply(c, p, out=product)
        scratch += np.multiply(s, p, out=product)
    return np.subtract(out, scratch.T, out=out)


def propagate(superop: Superoperator, rho0, t_end: float, sample_times,
              tol: float = 1e-8, observables: dict | None = None,
              keep_states: bool = False) -> Trajectory:
    """Integrate drho/dt = generator(rho) from t = 0 to t_end.

    The state y is held in the eigenbasis of H_eff, where the commutator is
    L0 y = -i (E_m - E_n) y_mn, and each step is Krogstad's ETDRK4-B on
    y' = L0 y + D(y), D the dissipator. With z = h L0 elementwise, N(.) = D(.)
    and N1 = N(y):

        U2 = e^(z/2) y + (h/2) phi1(z/2) N1,           N2 = N(U2)
        U3 = U2 + h phi2(z/2) (N2 - N1),               N3 = N(U3)
        U4 = e^z y + h phi1(z) N1 + 2h phi2(z) (N3 - N1),   N4 = N(U4)
        y+ = e^z y + h [(phi1 - 3 phi2 + 4 phi3) N1
                        + 2 (phi2 - 2 phi3) (N2 + N3) + (4 phi3 - phi2) N4]

    y+ integrates N along the step by its quadratic through the nodes 0, h/2
    and h against the weight e^((h - s) L0), so the error estimate has two
    terms. h (4 phi3 - phi2) (N5 - N4), N5 = N(y+), is the error of the last
    stage. The other is the error of the quadratic, which a coherence that
    other coherences drive carries at first order in D, where N5 - N4 does
    not see it: the cubic term of the interpolant through one more node, the
    last step's N1 at -b, b the last step's size,

        h (6 phi4 - 3 phi3 + phi2 / 2) h^3 N[-b, 0, h/2, h],

    h^4 (6 phi4 - 3 phi3 + phi2 / 2) being the weighted integral of
    s (s - h/2) (s - h) and N[...] the divided difference of the values
    N1, N3, N5 and the last step's N1. The first step has no last step; there
    the midpoint difference 2h (phi2 - 2 phi3) (N3 - N2) stands in for it.
    N5 is the next step's N1 (first same as last), so a step makes four
    dissipator calls. The coherent part is exact at any step size. Every
    stage is Hermitian, and each is carried as one real d x d matrix
    P = Re(y) + Im(y) (`_pack`); each phi_k(z) acts on P as c P - (s P)^T
    (`_pair_sum`), and on a real eigenframe the dissipator acts on P in real
    products (`_packed_dissipator`). The state is Hermitian by construction,
    so it is never re-Hermitized between steps; its trace, sum diag P, is
    never renormalized, and its drift from 1 is tracked as a correctness
    signal.

    rho0 must be a d x d matrix of trace 1 (within 1e-12) that passes
    `require_hermitian` (finite, Hermitian within 1e-12 of its largest
    entry); it is Hermitized in the eigenbasis before the first step.
    sample_times must be a finite, non-decreasing 1-D array within
    [0, t_end]. tol, which must be positive and finite, bounds the max norm
    of the error estimate: a step is accepted when every entry has
    |err_mn| <= tol (1 + max(|y_mn|, |y+_mn|)), so tol acts as an absolute
    tolerance on each entry at unit scale, and the next step size is the
    last times 0.9 (err / tol)^(-1/4), clipped to [0.2, 5]; an estimate that
    is not finite rejects the step and shrinks it by 0.2. The steps divide
    each interval between samples, and the last one up to t_end, evenly:
    k = ceil(interval / h) steps of interval / k, the rest of the interval
    planned anew after a rejected step and after an accepted one whose next
    size would cut the steps left by a tenth or more. Every sample is then a
    step end and is the state there. A sample interval therefore costs at
    least one step; sampling far more densely than the step size costs one
    step per sample. The ten phi tables of a step size (`_etd_tables`) are
    rebuilt only when the step size changes: if k steps of the last size
    reach the next sample within 1e-13 t_end, as across the equal intervals
    of np.linspace, they are kept.

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

    gaps = eig.energies[None, :] - eig.energies[:, None]  # E_n - E_m: z = i h gaps
    dissipator = _packed_dissipator(frame)
    stage = dissipator.input  # the input of stages 2-4 and of y+, written in place
    # y, N1..N5 of a step (N5 = N(y+)), the last step's N1, and the squared
    # moduli |y_mn|^2 of y; once y+ is formed, the buffers of N2-N4 hold the
    # error and its scale
    y, n1, n2, n3, n4, n5, n_last, y_moduli, scratch, product = np.empty((10, d, d))
    tables = np.empty((10, 2, d, d))
    e_half, a1, a2, e_full, a3, a4, b4, b1, b23, w3 = tables
    h_step = None  # the step size of the tables
    h_last = None  # the size of the last accepted step, whose N1 is n_last

    y[...] = _pack(hermitize(eig.to_eigenbasis(rho0)))
    t = 0.0
    dissipator(y, n1)
    _moduli_squared(y, y_moduli, product)
    # initial step from the derivative scale, capped by the span
    fnorm = math.sqrt(float(np.max(_moduli_squared(n1))))
    h = min(t_end, 1e-2 / fnorm) if fnorm > 0 else t_end
    min_step = 1e-14 * t_end
    end_tol = 1e-13 * t_end  # a sample or t_end this close to t is reached

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

    def take_sample(i, ys):
        """Record sample i, the state that ys packs."""
        nonlocal min_sample_eig
        state = _unpack(ys)
        wmin = float(np.linalg.eigvalsh(state)[0])
        if wmin < -1e-6:
            raise positivity_error(wmin, f"sample t = {sample_times[i]}", sample_times[i])
        min_sample_eig = min(min_sample_eig, wmin)
        flat = ys.ravel()
        for series, vec in packed.values():
            series[i] = flat @ vec
        if keep_states:
            sample_vals[i] = hermitize(eig.from_eigenbasis(state))

    while True:
        while next_sample < sample_times.size and sample_times[next_sample] - t <= end_tol:
            take_sample(next_sample, y)
            next_sample += 1
        t_next = sample_times[next_sample] if next_sample < sample_times.size else t_end
        remaining = t_next - t
        if remaining <= end_tol:
            break
        if h < min_step:
            raise PropagationError(f"step size underflow at t = {t}", t_reached=t)
        steps = math.ceil(remaining / h)
        if h_step is None or abs(steps * h_step - remaining) > end_tol:
            h_step = remaining / steps
            _etd_tables(gaps, h_step, tables)
        while steps:
            _pair_sum([(e_half, y), (a1, n1)], stage, scratch, product)
            dissipator(stage, n2)
            _pair_sum([(a2, np.subtract(n2, n1, out=n4))], n5, scratch)
            stage += n5
            dissipator(stage, n3)
            _pair_sum([(e_full, y), (a3, n1), (a4, np.subtract(n3, n1, out=n5))],
                      stage, scratch, product)
            dissipator(stage, n4)
            n2 += n3
            _pair_sum([(e_full, y), (b1, n1), (b23, n2), (b4, n4)], stage, scratch, product)
            dissipator(stage, n5)
            np.subtract(n5, n4, out=n4)
            if h_last is None:
                np.subtract(n3, n2, out=n2)
                n2 += n3  # N3 - N2, as n2 holds N2 + N3
                quadrature = (b23, n2)
            else:
                # h^3 N[-b, 0, h/2, h] = c5 N5 + c3 N3 + c1 N1 + c0 N_last, r = b / h
                r = h_last / h_step
                q, u = 1.0 / (0.5 + r), 1.0 / (1.0 + r)
                np.multiply(n5, 2.0 * u, out=n2)
                n2 += np.multiply(n3, -(4.0 + 2.0 * q) * u, out=scratch)
                n2 += np.multiply(n1, (2.0 + 2.0 * q + q / r) * u, out=scratch)
                n2 += np.multiply(n_last, -q / r * u, out=scratch)
                quadrature = (w3, n2)
            error = _pair_sum([(b4, n4), quadrature], n3, scratch, product)
            # 2 (|err_mn| / (1 + max(|y_mn|, |y+_mn|)))^2, in place of the error
            new_moduli = _moduli_squared(stage, n4, scratch)
            scale = np.maximum(y_moduli, new_moduli, out=n2)
            np.sqrt(scale, out=scale)
            scale += 1.0
            scale *= scale
            square = np.multiply(error, error, out=scratch)
            ratio = np.add(square, square.T, out=error)
            ratio /= scale
            err = math.sqrt(0.5 * float(ratio.max())) / tol
            if not err <= 1.0:
                n_rejected += 1
                # a NaN estimate, from a stage that is not finite, rejects too
                h = h_step * (0.2 if math.isnan(err) else max(0.2, 0.9 * err ** -0.25))
                break  # plan the rest of the interval anew
            y[...] = stage
            y_moduli, n4 = new_moduli, y_moduli
            n_last, n1, n5 = n1, n5, n_last
            h_last = h_step
            steps -= 1
            t = t + h_step if steps else t_next
            max_drift = max(max_drift, abs(float(y.trace()) - 1.0))
            diag = y.diagonal()
            if diag.min() < -1e-6:
                raise positivity_error(diag.min(), f"t = {t}", t)
            n_accepted += 1
            h = h_step * min(5.0, max(0.2, 0.9 * err ** -0.25)) if err > 0 else 5.0 * h_step
            if steps and math.ceil((t_next - t) / h) <= 0.9 * steps:
                break  # a larger step: plan the rest of the interval anew

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
