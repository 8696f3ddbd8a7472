"""Bath spectral data for the jump-correlation function g and the
principal-value integral f feeding the Lamb shift.

The bath is Ohmic with a Gaussian cutoff and Bose thermal weighting,

    J(w) = w * exp(-w^2 / (2 Lc^2)) / (1 - exp(-beta w)),   J(0) = T,
    g(w) = sqrt(J(w)) / (2 pi),

which satisfies the detailed-balance (KMS) relation
g(-w) = exp(-beta w / 2) g(w) identically in w.

f is the principal-value integral

    f(E1, E2) = -2 pi gamma  PV Int dw  g(w - E1) g(w + E2) / w,

evaluated by folding the integration axis,

    PV Int h(w)/w dw = Int_0^Wmax [h(w) - h(-w)] / w dw,

whose integrand is smooth through w = 0. The quadrature is globally
adaptive Gauss-Kronrod 7-15 (QUADPACK's GK15 rule) with interval halving,
run for many (E1, E2) pairs at once: `f_values` keeps the panels of a
chunk of pairs in one flat array tagged by pair, sums them per pair with
`bincount` and drops each pair once it converges. `f_integral` is its
one-pair call and `f_table` its memoized map over gap pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BathSpec:
    """Single noise channel bath: temperature, coupling and spectral cutoff.

    `beta` is derived from the temperature; all quantities in units where
    k_B = hbar = 1.
    """

    temperature: float
    coupling: float
    cutoff: float

    def __post_init__(self):
        if not (self.temperature > 0 and np.isfinite(self.temperature)):
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if not (self.coupling >= 0 and np.isfinite(self.coupling)):
            raise ValueError(f"coupling must be non-negative, got {self.coupling}")
        if not (self.cutoff > 0 and np.isfinite(self.cutoff)):
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")

    @property
    def beta(self) -> float:
        return 1.0 / self.temperature


@dataclass(frozen=True)
class QuadratureSpec:
    """Error budget for the principal-value quadrature.

    The integration ceiling is Wmax = |E1| + |E2| + omega_max_pad * cutoff;
    the Gaussian tail beyond it is below e^-32 in relative terms at the
    default padding.
    """

    rtol: float = 1e-8
    atol: float = 1e-12
    omega_max_pad: float = 8.0
    max_depth: int = 50

    def __post_init__(self):
        if not (self.rtol > 0 and self.atol > 0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if not self.omega_max_pad > 0:
            raise ValueError("omega_max_pad must be positive")


class QuadratureError(RuntimeError):
    """Raised when the adaptive quadrature cannot meet its tolerance.

    Carries the best available estimate and its error bound; `pair` is the
    offending (E1, E2), the first failing pair in input order of a batch.
    """

    def __init__(self, msg, estimate, error_bound, pair=None):
        super().__init__(msg)
        self.estimate = estimate
        self.error_bound = error_bound
        self.pair = pair


def _bose_weight(w, beta):
    """w / (1 - exp(-beta w)) without overflow or 0/0, elementwise."""
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


def jump_spectral(bath: BathSpec, w):
    """Jump-correlation amplitude g(w) = sqrt(J(w)) / (2 pi).

    Accepts scalars or arrays; g >= 0 everywhere, g(0) = sqrt(T) / (2 pi),
    and g(-w) = exp(-beta w / 2) g(w).
    """
    w = np.asarray(w, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    j = _bose_weight(w, bath.beta) * np.exp(-w * w / (2.0 * bath.cutoff**2))
    g = np.sqrt(j) / (2.0 * np.pi)
    return float(g[0]) if scalar else g


def kms_check(bath: BathSpec, samples) -> float:
    """Max relative KMS deviation |g(-w) - e^(-beta w/2) g(w)| / max(g(w), 1e-300).

    Samples are folded to |w| first; the relation is symmetric so nothing
    is lost, and the exponential factor then never overflows.
    """
    w = np.abs(np.asarray(samples, dtype=float))
    g_plus = jump_spectral(bath, w)
    g_minus = jump_spectral(bath, -w)
    dev = np.abs(g_minus - np.exp(-0.5 * bath.beta * w) * g_plus)
    return float(np.max(dev / np.maximum(g_plus, 1e-300))) if w.size else 0.0


# Gauss-Kronrod 7-15 nodes and weights on [-1, 1]. The embedded Gauss-7
# rule shares the odd-index nodes; none of the nodes touches the interval
# endpoints, so the folded integrand is never evaluated at w = 0.
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


# Pairs per adaptive sweep of `f_values`. The panel arrays grow with the
# batch: on the N = 5 chain's 19,085 Lamb-shift pairs peak RSS was 62 MB at
# 256 pairs, 76 MB at 2,048 and 118 MB at 8,192, at about the same speed.
_CHUNK_PAIRS = 256


def _panel_sums(bath: BathSpec, a, b, e1, e2):
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


def omega_max(bath: BathSpec, e1, e2, quad: QuadratureSpec):
    return abs(e1) + abs(e2) + quad.omega_max_pad * bath.cutoff


def _initial_panels(bath: BathSpec, e1, e2, quad: QuadratureSpec):
    """(pair id, left, right) of the starting panels, ordered by pair and left edge.

    A pair's edges are 0, Wmax and the distinct features |E1|, |E2|, T,
    Lc and 2 Lc that lie strictly inside (0, Wmax).
    """
    n = e1.size
    wmax = omega_max(bath, e1, e2, quad)
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


def _adaptive_chunk(bath: BathSpec, e1, e2, quad: QuadratureSpec):
    """Unscaled folded integrals and error sums of a batch of pairs.

    Globally adaptive GK15 per pair: while a pair's error sum exceeds
    max(atol, rtol |total|), its panels whose error is at least a quarter
    of its worst are halved together; a panel may be halved at most
    `max_depth` times. All pairs share one flat panel array that stays
    ordered by (pair, left edge), so the `bincount` totals add each pair's
    panels in the same order whatever else is in the batch; converged
    pairs drop out. Returns (totals, error sums, failed mask).
    """
    n = e1.size
    pair, a, b = _initial_panels(bath, e1, e2, quad)
    depth = np.zeros(a.size, dtype=int)
    vals, errs = _panel_sums(bath, a, b, e1[pair], e2[pair])
    active = np.ones(n, dtype=bool)
    totals = np.zeros(n)
    total_errs = np.zeros(n)
    failed = np.zeros(n, dtype=bool)

    while pair.size:
        total = np.bincount(pair, vals, minlength=n)
        total_err = np.bincount(pair, errs, minlength=n)
        converged = total_err <= np.maximum(quad.atol, quad.rtol * np.abs(total))
        worst = np.zeros(n)
        np.maximum.at(worst, pair, errs)
        split = (errs >= 0.25 * worst[pair]) & (depth < quad.max_depth)
        stuck = np.bincount(pair, split, minlength=n) == 0
        settled = active & (converged | stuck)
        totals[settled] = total[settled]
        total_errs[settled] = total_err[settled]
        failed |= settled & ~converged
        active &= ~settled

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
        vals[fresh], errs[fresh] = _panel_sums(bath, a[fresh], b[fresh],
                                               e1[pair[fresh]], e2[pair[fresh]])
    return totals, total_errs, failed


def f_values(bath: BathSpec, e1, e2, quad: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """f(e1[k], e2[k]) = -2 pi gamma PV Int g(w - e1[k]) g(w + e2[k]) / w dw for every k.

    Each integral is folded onto [0, Wmax]; the folded integrand
    [h(w) - h(-w)] / w extends smoothly through 0, and the quadrature
    nodes never touch w = 0. Pairs are integrated `_CHUNK_PAIRS` at a time
    by one adaptive sweep; each value is bitwise the same however the
    pairs are batched.

    ValueError if any argument is not finite. QuadratureError, carrying
    the best estimate, its error bound and `.pair`, for the first pair in
    input order whose tolerance cannot be met within the subdivision
    budget.
    """
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    if e1.ndim != 1 or e1.shape != e2.shape:
        raise ValueError("f arguments must be two 1-D arrays of the same length")
    if not (np.all(np.isfinite(e1)) and np.all(np.isfinite(e2))):
        raise ValueError("f arguments must be finite")
    if bath.coupling == 0.0:
        return np.zeros(e1.size)
    scale = -2.0 * np.pi * bath.coupling
    out = np.empty(e1.size)
    for start in range(0, e1.size, _CHUNK_PAIRS):
        chunk = slice(start, start + _CHUNK_PAIRS)
        totals, errs, failed = _adaptive_chunk(bath, e1[chunk], e2[chunk], quad)
        if failed.any():
            k = int(np.argmax(failed))
            target = max(quad.atol, quad.rtol * abs(totals[k]))
            raise QuadratureError(
                f"adaptive quadrature hit max depth {quad.max_depth} with "
                f"error {errs[k]:.3e} > target {target:.3e}",
                estimate=float(totals[k]) * scale,
                error_bound=float(errs[k]) * abs(scale),
                pair=(float(e1[start + k]), float(e2[start + k])),
            )
        out[chunk] = scale * totals
    return out


def f_integral(bath: BathSpec, e1: float, e2: float,
               quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Principal-value integral f(E1, E2): the one-pair case of `f_values`."""
    return float(f_values(bath, [e1], [e2], quad)[0])


def f_table(bath: BathSpec, gap_pairs, quad: QuadratureSpec = QuadratureSpec()) -> dict:
    """Evaluate f once per distinct (E1, E2) pair and return the lookup map.

    Keys are the exact float pairs supplied, in first-seen order, so
    memoization is exact; all distinct pairs go to `f_values` in one call,
    whose QuadratureError names the first failing pair in `.pair`.
    """
    keys = list(dict.fromkeys((float(p[0]), float(p[1])) for p in gap_pairs))
    values = f_values(bath, [k[0] for k in keys], [k[1] for k in keys], quad)
    return dict(zip(keys, values.tolist()))
