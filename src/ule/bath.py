"""Bath spectral data: the jump-correlation amplitude g and the
principal-value integral f, with the one w rule both f and the Lamb shift
integrate by.

The bath is Ohmic with a Gaussian cutoff and Bose thermal weighting,

    J(w) = w * exp(-w^2 / (2 Lc^2)) / (1 - exp(-beta w)),   J(0) = T,
    g(w) = sqrt(J(w)) / (2 pi),

which satisfies the detailed-balance (KMS) relation
g(-w) = exp(-beta w / 2) g(w) identically in w.

f is the principal-value integral, folded onto w > 0,

    f(E1, E2) = -2 pi gamma  PV Int dw  g(w - E1) g(w + E2) / w
              = -2 pi gamma  Int_0^inf [g(w - E1) g(w + E2) - g(-w - E1) g(-w + E2)] dw / w,

whose integrand is smooth through w = 0. `f_values` and the Lamb shift of
`generator.lamb_shift_eigen` take their w-integrals by one rule,
`graded_rule`: the offset trapezoid on a graded map of w, with g from
`g_pair`. The integrand is analytic but for the Bose poles 2 pi T off the
real axis, so the rule converges geometrically in 1 / h, and the nodes
k = 1 mod 3, the step-3h rule, give an a-posteriori error estimate for
free. The error budget, rtol and atol, is the only setting
(`QuadratureSpec`).
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
    """Error budget of the w rule (`graded_rule`).

    One a-posteriori check, from the step-3h rule inside the step-h rule,
    bounds each result: each f value of `f_values` by max(atol, rtol |F|)
    on its integral F before the -2 pi gamma factor, and the matrix Lam of
    `generator.lamb_shift_eigen` by max(atol, rtol max|Lam|) on its max
    entry.
    """

    rtol: float = 1e-8
    atol: float = 1e-12

    def __post_init__(self):
        if not (0 < self.rtol < np.inf and 0 < self.atol < np.inf):
            raise ValueError("quadrature tolerances must be finite and positive")


class QuadratureError(RuntimeError):
    """Raised when the w rule's error estimate misses its target.

    Carries the computed value and its error estimate; `pair` is the first
    failing (E1, E2) in input order of an `f_values` batch, else None.
    """

    def __init__(self, msg, estimate, error_bound, pair=None):
        super().__init__(msg)
        self.estimate = estimate
        self.error_bound = error_bound
        self.pair = pair


def _bose_weight(w, beta):
    """w / (1 - exp(-beta w)) elementwise, with its limit 1/beta at w = 0.

    Evaluated as |w| exp(min(beta w, 0)) / (1 - exp(-beta |w|)), which takes
    no exponential of a positive argument and so never overflows.
    """
    w = np.asarray(w, dtype=float)
    x = beta * w
    with np.errstate(divide="ignore", invalid="ignore"):  # x == 0 is set below
        out = np.abs(w) * np.exp(np.minimum(x, 0.0)) / -np.expm1(-np.abs(x))
    out[x == 0] = 1.0 / beta
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




def graded_rule(bath: BathSpec, span):
    """(n, nodes): the graded offset-trapezoid w rule for the span S of the Bose poles.

    The nodes t_k = (k + 1/2) h, k = 0 .. n - 1, map to w = t + c L (sinh(t/L)
    - t/L) with c = 0.2 / (cosh 2 - 1), so dw/dt <= 1.2 on [0, S], where
    the poles of the Bose factor sit 2 pi T off the axis; the rule's error
    falls like exp(-4 pi^2 T / h) (L. N. Trefethen and J. A. C. Weideman,
    SIAM Rev. 56, 385 (2014)) with h = min(1.2 T, Lc / 20) and L = max(S / 2,
    8 h) (the map loses that rate past h = L / 8). The nodes reach w = S +
    8 Lc, past which the Gaussian cutoff leaves less than e^-32, and n is a
    multiple of 3, so that the nodes k = 1 mod 3 are the step-3h rule.
    `nodes(k)` gives w and the weight h (dw/dt) / (4 pi^2 w) at the node
    indices k, the 1 / (4 pi^2) taking the two 2 pi of `g_pair`. `span` and
    n broadcast against each other, and against k in `nodes`.
    """
    h = min(1.2 * bath.temperature, bath.cutoff / 20.0)
    grade, width = 0.2 / (np.cosh(2.0) - 1.0), np.maximum(span / 2.0, 8.0 * h)  # c and L
    n = 3 * np.ceil(width * np.arcsinh((span + 8.0 * bath.cutoff) / (grade * width))
                    / (3 * h)).astype(int)

    def nodes(k):
        t = (k + 0.5) * h
        w = t + grade * width * (np.sinh(t / width) - t / width)
        return w, h * (1.0 + grade * (np.cosh(t / width) - 1.0)) / (4 * np.pi ** 2 * w)

    return n, nodes


def g_pair(bath: BathSpec, x):
    """(2 pi g(x), 2 pi g(-x)) elementwise, sharing the factor that is even in x.

    2 pi g(+-x) = sqrt(|x| / (1 - exp(-beta |x|))) exp(v), v = -x^2 / (4 Lc^2)
    + beta min(+-x, 0) / 2 (KMS); at x = 0 the even factor is its limit
    sqrt(T). Exponents are held above -300: exp below about -708 and
    products of subnormals are slow, and what the floor adds is below
    e^-300 of the largest value.
    """
    a = np.maximum(np.abs(x), 1e-300 * bath.temperature)
    even = np.sqrt(a / -np.expm1(-bath.beta * a))
    v = x * x * (-0.25 / bath.cutoff ** 2) + 0.5 * bath.beta * np.minimum(x, 0.0)
    return (even * np.exp(np.maximum(v, -300.0)),
            even * np.exp(np.maximum(v - 0.5 * bath.beta * x, -300.0)))


# Nodes per block of `f_values` (a multiple of 3) and pairs per block
_BLOCK = 60
_ROWS = 2 ** 14 // _BLOCK


def f_values(bath: BathSpec, e1, e2, quad: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """f(e1[k], e2[k]) = -2 pi gamma PV Int g(w - e1[k]) g(w + e2[k]) / w dw for every k.

    Folded onto w > 0, F = Int_0^inf [g(w - E1) g(w + E2) - g(-w - E1)
    g(-w + E2)] dw / w is taken by the `graded_rule` of the pair's own span
    S = max(|E1|, |E2|), so the node count grows like S / T. Nodes go in
    blocks of `_BLOCK`, masked past each pair's n, and each pair adds its
    block's terms by row sums (no BLAS): a value depends on its own pair
    only, bitwise the same in any batch, any order and under any thread
    count. The swap mirror (-E2, -E1) multiplies the same two g values in
    the other order, so the two values are bitwise equal. The nodes k = 1
    mod 3 form the step-3h rule, whence the error estimate D (D / M)^2 +
    eps M, D = |F_h - F_3h| and M = sum |terms| the integrand's scale,
    against max(atol, rtol |F|) (`QuadratureSpec`). Next to a zero of f,
    where |F| is far below M, D / |F| would inflate the estimate by
    (M / |F|)^2.

    ValueError if the arguments are not two 1-D arrays of one length or any
    is not finite. QuadratureError, carrying the value, its error bound and
    `.pair`, the first input pair whose estimate misses its target.
    """
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    if e1.ndim != 1 or e1.shape != e2.shape:
        raise ValueError("f arguments must be two 1-D arrays of the same length")
    if not (np.all(np.isfinite(e1)) and np.all(np.isfinite(e2))):
        raise ValueError("f arguments must be finite")
    if bath.coupling == 0.0 or e1.size == 0:
        return np.zeros(e1.size)
    scale = -2.0 * np.pi * bath.coupling

    span = np.maximum(np.abs(e1), np.abs(e2))
    # x = w - E1, w + E2 for g(x) and x = w + E1, w - E2 for g(-x)
    shift = np.stack([-e1, e2, e1, -e2])[:, :, None]
    count = graded_rule(bath, span)[0]
    coarse, rest, size = np.zeros((3, e1.size))
    # each block lists its nodes k = 1 mod 3 first, then k = 0 and 2 mod 3
    order = np.arange(_BLOCK).reshape(-1, 3).T[[1, 0, 2]].ravel()
    for start in range(0, int(count.max()), _BLOCK):
        live = np.flatnonzero(count > start)
        for lo in range(0, live.size, _ROWS):
            rows = live[lo:lo + _ROWS]
            n, nodes = graded_rule(bath, span[rows, None])
            w, weight = nodes(start + order)
            weight[start + order >= n] = 0.0
            gp, gm = g_pair(bath, w + shift[:, rows])
            plus, minus = weight * (gp[0] * gp[1]), weight * (gm[2] * gm[3])
            part = (plus - minus).reshape(rows.size, 3, -1).sum(axis=2)
            coarse[rows] += part[:, 0]
            rest[rows] += part[:, 1] + part[:, 2]
            size[rows] += (plus + minus).sum(axis=1)
    fine = coarse + rest
    diff = np.abs(fine - 3.0 * coarse)
    error = diff * (diff / size) ** 2 + np.finfo(float).eps * size
    target = np.maximum(quad.atol, quad.rtol * np.abs(fine))
    if not np.all(error <= target):
        k = int(np.argmax(~(error <= target)))
        raise QuadratureError(
            f"f w rule at T = {bath.temperature:g}, {count[k]} nodes: error estimate "
            f"{error[k]:.3e} > target {target[k]:.3e}; loosen rtol or atol",
            estimate=float(scale * fine[k]), error_bound=float(abs(scale) * error[k]),
            pair=(float(e1[k]), float(e2[k])))
    return scale * fine
