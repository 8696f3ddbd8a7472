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
adaptive Gauss-Kronrod 7-15 with interval halving.
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

    Carries the best available estimate and its error bound; `pair` is set
    by table evaluation to identify the offending arguments.
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


def kms_check(bath: BathSpec, samples, floor: float = 1e-300) -> float:
    """Max relative KMS deviation |g(-w) - e^(-beta w/2) g(w)| / max(g(w), floor).

    Samples are folded to |w| first; the relation is symmetric so nothing
    is lost, and the exponential factor then never overflows.
    """
    w = np.abs(np.asarray(samples, dtype=float))
    g_plus = jump_spectral(bath, w)
    g_minus = jump_spectral(bath, -w)
    dev = np.abs(g_minus - np.exp(-0.5 * bath.beta * w) * g_plus)
    return float(np.max(dev / np.maximum(g_plus, floor))) if w.size else 0.0


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


def _panel_sums(fun, a, b):
    """Kronrod integrals and |K15 - G7| error estimates on a batch of panels."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _XGK[None, :]
    y = fun(x)
    k15 = half * (y @ _WGK)
    g7 = half * (y @ _WG)
    return k15, np.abs(k15 - g7)


def _adaptive_quadrature(fun, edges, quad: QuadratureSpec):
    """Globally adaptive GK15 over the panels defined by `edges`.

    Panels whose error stays within a quarter of the worst error are halved
    together each sweep; a panel may be halved at most `max_depth` times.
    Fully deterministic for identical inputs.
    """
    a = np.asarray(edges[:-1], dtype=float)
    b = np.asarray(edges[1:], dtype=float)
    depth = np.zeros(a.size, dtype=int)
    vals, errs = _panel_sums(fun, a, b)

    while True:
        total = float(vals.sum())
        total_err = float(errs.sum())
        target = max(quad.atol, quad.rtol * abs(total))
        if total_err <= target:
            return total, total_err
        worst = errs.max()
        split = errs >= 0.25 * worst
        if not np.any(split & (depth < quad.max_depth)):
            raise QuadratureError(
                f"adaptive quadrature hit max depth {quad.max_depth} with "
                f"error {total_err:.3e} > target {target:.3e}",
                estimate=total, error_bound=total_err,
            )
        split &= depth < quad.max_depth
        keep = ~split
        mid = 0.5 * (a[split] + b[split])
        new_a = np.concatenate([a[keep], a[split], mid])
        new_b = np.concatenate([b[keep], mid, b[split]])
        new_depth = np.concatenate([depth[keep], depth[split] + 1, depth[split] + 1])
        new_vals, new_errs = _panel_sums(fun, np.concatenate([a[split], mid]),
                                         np.concatenate([mid, b[split]]))
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
        # keep panel ordering deterministic: sort by left edge
        order = np.argsort(new_a, kind="stable")
        a, b, depth = new_a[order], new_b[order], new_depth[order]
        vals, errs = vals[order], errs[order]


def omega_max(bath: BathSpec, e1: float, e2: float, quad: QuadratureSpec) -> float:
    return abs(e1) + abs(e2) + quad.omega_max_pad * bath.cutoff


def f_integral(bath: BathSpec, e1: float, e2: float,
               quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Principal-value integral f(E1, E2) = -2 pi gamma PV Int g(w-E1) g(w+E2) / w dw.

    The integral is folded onto [0, Wmax]; the folded integrand
    [h(w) - h(-w)] / w extends smoothly through 0, and the quadrature
    nodes never touch w = 0.

    Raises QuadratureError (carrying the best estimate and error bound)
    when the tolerance cannot be met within the subdivision budget.
    """
    if not (np.isfinite(e1) and np.isfinite(e2)):
        raise ValueError("f_integral arguments must be finite")
    if bath.coupling == 0.0:
        return 0.0
    wmax = omega_max(bath, e1, e2, quad)

    def folded(w):
        h_plus = jump_spectral(bath, w - e1) * jump_spectral(bath, w + e2)
        h_minus = jump_spectral(bath, -w - e1) * jump_spectral(bath, -w + e2)
        return (h_plus - h_minus) / w

    features = sorted({0.0, wmax} | {
        v for v in (abs(e1), abs(e2), bath.temperature, bath.cutoff, 2 * bath.cutoff)
        if 0.0 < v < wmax
    })
    try:
        value, _ = _adaptive_quadrature(folded, np.array(features), quad)
    except QuadratureError as exc:
        exc.estimate *= -2.0 * np.pi * bath.coupling
        exc.error_bound *= 2.0 * np.pi * bath.coupling
        exc.pair = (e1, e2)
        raise
    return -2.0 * np.pi * bath.coupling * value


def f_table(bath: BathSpec, gap_pairs, quad: QuadratureSpec = QuadratureSpec()) -> dict:
    """Evaluate f once per distinct (E1, E2) pair and return the lookup map.

    Keys are the exact float pairs supplied (bin representatives from a
    Bohr decomposition), so memoization is exact. A failing pair's
    QuadratureError propagates uncaught; `f_integral` has already set its
    `.pair`.
    """
    table: dict = {}
    for pair in gap_pairs:
        key = (float(pair[0]), float(pair[1]))
        if key in table:
            continue
        table[key] = f_integral(bath, key[0], key[1], quad)
    return table
