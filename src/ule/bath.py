"""Bath spectral data for the jump-correlation function g and the
principal-value integral f (`ule bath`; the Lamb shift integrates g itself).

The bath is Ohmic with a Gaussian cutoff and Bose thermal weighting,

    J(w) = w * exp(-w^2 / (2 Lc^2)) / (1 - exp(-beta w)),   J(0) = T,
    g(w) = sqrt(J(w)) / (2 pi),

which satisfies the detailed-balance (KMS) relation
g(-w) = exp(-beta w / 2) g(w) identically in w.

f is the principal-value integral

    f(E1, E2) = -2 pi gamma  PV Int dw  g(w - E1) g(w + E2) / w.

With u = w - E1 it is a Hilbert transform at the Cauchy point c = -E1,

    f(E1, E2) = -2 pi gamma  PV Int du  h_s(u) / (u - c),
    h_s(u) = g(u) g(u + s),   s = E1 + E2,

so all pairs with one sum s transform the same function h_s. The
principal value is taken by singularity subtraction, as QUADPACK's QAWC
does for Cauchy kernels (R. Piessens et al., QUADPACK, Springer 1983):

    PV Int_lo^hi h(u) / (u - c) du
        = Int_lo^hi [h(u) - h(c)] / (u - c) du + h(c) log((hi - c) / (c - lo)),

whose integrand is smooth through u = c. `f_values` integrates one member
of each swap class {(E1, E2), (-E2, -E1)} (the mirror is the same
integral shifted by s) and gathers the classes whose sums agree within
`_SUM_RTOL` into sum groups. Each group gets one panel set on which h_s is
evaluated once per node, and each class keeps its own error sum. The
quadrature is globally adaptive Gauss-Kronrod 7-15 (QUADPACK's GK15 rule)
with interval halving, run for many classes at once: a shared panel is
halved when a class that has not converged ranks it among its worst.

A group's range is the union of its classes' [c - Wmax, c + Wmax],
Wmax = |E1| + |E2| + 8 Lc (`_OMEGA_MAX_PAD`), less its Bose tail. Below
u = -s both arguments of g in h_s are non-positive, where g increases
with u, so dropping [lo, u*] moves a class's value by at most
h_s(u*) log((c - lo) / (c - u*)). The range starts at the innermost
ladder edge u* whose bound is at most atol / 16 for every class of the
group, and the bound joins each class's error sum (`_tail_cut`). The
error budget, rtol and atol, is the only setting (`QuadratureSpec`).
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

    A pair's target is max(atol, rtol |F|) on its integral F before the
    -2 pi gamma factor. Wmax = |E1| + |E2| + `_OMEGA_MAX_PAD` * cutoff sets
    how much of the axis is kept: the range of the pair's sum group holds
    w in [-Wmax, Wmax], i.e. [c - Wmax, c + Wmax] around the Cauchy point,
    and may reach further, except that it may start above c - Wmax at a
    cut u* below u = -s (s = E1 + E2), where h_s increases with u. The cut
    is made only where the part it drops, at most
    h_s(u*) log((c - lo) / (c - u*)) from the group's left end lo, is at
    most atol / 16 for every pair of the group, and that bound is added to
    the pair's error sum. A panel may be halved at most `_MAX_DEPTH` times.
    `generator.lamb_shift_eigen` reads rtol and atol as a bound on the
    matrix Lam instead, max(atol, rtol max|Lam|) on its max entry.
    """

    rtol: float = 1e-8
    atol: float = 1e-12

    def __post_init__(self):
        if not (0 < self.rtol < np.inf and 0 < self.atol < np.inf):
            raise ValueError("quadrature tolerances must be finite and positive")


class QuadratureError(RuntimeError):
    """Raised when the adaptive quadrature cannot meet its tolerance.

    Carries the best available estimate and its error bound; `pair` is the
    first failing (E1, E2) in input order of an `f_values` batch, else None.
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


# Two swap classes whose sums E1 + E2 agree within this relative tolerance
# share one sum group. The chain's bin representatives do not add exactly;
# their sums spread by rounding, and the N = 5 and 6 chains give the same
# 234 and 953 groups at any tolerance from 1e-12 to 1e-10.
_SUM_RTOL = 1e-12

# Classes per adaptive sweep of `f_values`: whole sum groups, and a group of
# more classes is cut into runs of this many. The entry arrays grow with
# the chunk: on the N = 5 chain with the Lamb shift, the peak RSS of
# `ule residual` was 40.0 MB at 512 classes and 41.6 MB at 1,024, at about
# the same speed.
_CHUNK_PAIRS = 512

# Relative rounding error charged to each value of h in h(u) - h(c); it
# only counts where a node comes close to the Cauchy point c.
_H_ROUNDING = 16 * np.finfo(float).eps

# Wmax = |E1| + |E2| + _OMEGA_MAX_PAD * cutoff bounds the axis a pair
# keeps (`QuadratureSpec`); the Gaussian tail beyond Wmax is below e^-32 in
# relative terms.
_OMEGA_MAX_PAD = 8.0

# Times a panel may be halved. On the chain's Lamb pairs at N = 4-6 and on
# 400 random pairs, for T from 0.05 to 50, a cap of 1 gives the values of
# this one bitwise: no panel is halved twice.
_MAX_DEPTH = 50

# Share of atol that cutting its sum group's Bose tail may cost a class
# (`_tail_cut`). The cut drops a quarter of the (class, panel) entries on
# the chain at T1 = 2 and moves no value by more than 2e-7 of its target.
_TAIL_SHARE = 1.0 / 16


def _sum_groups(sums):
    """Group label of each of the sorted `sums` and each group's representative.

    Greedy from the smallest: a group takes every sum within `_SUM_RTOL` of
    its first, which is its representative.
    """
    # the first of each run of equal sums; np.unique would also import
    # numpy.ma (about 12 ms) for its masked-array check
    distinct = sums[np.concatenate(([True], sums[1:] != sums[:-1]))]
    heads = [0]
    while True:
        nxt = int(np.searchsorted(distinct, distinct[heads[-1]] * (1.0 + _SUM_RTOL), side="right"))
        if nxt == distinct.size:
            break
        heads.append(nxt)
    rep = distinct[heads]
    return np.searchsorted(rep, sums, side="right") - 1, rep


def _chunks(label):
    """(start, stop) runs of whole sum groups of at most `_CHUNK_PAIRS` classes.

    `label` is sorted; a group of more than `_CHUNK_PAIRS` classes is cut
    into runs of that many.
    """
    cuts = [0]
    start = 0
    for stop in (np.flatnonzero(np.diff(label)) + 1).tolist() + [label.size]:
        if stop - cuts[-1] > _CHUNK_PAIRS and start > cuts[-1]:
            cuts.append(start)
        while stop - cuts[-1] > _CHUNK_PAIRS:
            cuts.append(cuts[-1] + _CHUNK_PAIRS)
        start = stop
    if cuts[-1] < label.size:
        cuts.append(label.size)
    return zip(cuts[:-1], cuts[1:])


def _ladder(bath: BathSpec, span):
    """Rungs r = r0, 2 r0, 4 r0, ... up to the first at least `span`, r0 = min(2 pi T, Lc)."""
    r0 = min(2.0 * np.pi * bath.temperature, bath.cutoff)
    return r0 * 2.0 ** np.arange(int(np.ceil(np.log2(span / r0))) + 1)


def _tail_cut(bath: BathSpec, c, lo, group, s, quad: QuadratureSpec):
    """Left ends of the ranges with their Bose tails cut, and each class's bound.

    Range j starts at lo[j] and serves the classes k with group[k] = j
    (sorted), all at the sum s[j]: a sum group, or its run in a chunk.
    Below u = -s both arguments of h_s(u) = g(u) g(u + s) are non-positive,
    and there g increases with u, as do the Bose weight
    |w| / (e^(beta |w|) - 1) and the Gaussian for w <= 0. Dropping
    [lo, u*], u* <= -s, therefore moves the value of a class with Cauchy
    point c > u* by at most h_s(u*) log((c - lo) / (c - u*)), which is
    largest at the range's smallest c. The cut u* is the innermost negative
    ladder edge -s - r0 2^k of `_initial_panels` that lies above lo, at
    least r0 below every c of the range, and whose bound is at most
    `_TAIL_SHARE` atol; a range with no such edge keeps lo. Returns (left
    ends, bounds), the bound 0 for a class whose range keeps lo.
    """
    head = np.searchsorted(group, np.arange(s.size))
    cmin = np.minimum.reduceat(c, head)[:, None]
    rungs = _ladder(bath, np.max(-s - lo))
    u = -s[:, None] - rungs
    g = jump_spectral(bath, np.concatenate([u, u + s[:, None]]))
    h = g[:s.size] * g[s.size:]
    inside = (u > lo[:, None]) & (u <= cmin - rungs[0])
    with np.errstate(divide="ignore", invalid="ignore"):  # outside `inside`, unused
        bound = h * np.log((cmin - lo[:, None]) / (cmin - u))
    ok = inside & (bound <= _TAIL_SHARE * quad.atol)
    cut = ok.any(axis=1)
    k = np.argmax(ok, axis=1)
    new_lo = np.where(cut, u[np.arange(s.size), k], lo)
    tail = np.where(cut[group], h[group, k[group]] * np.log((c - lo[group]) / (c - new_lo[group])),
                    0.0)
    return new_lo, tail


def _initial_panels(bath: BathSpec, lo, hi, s):
    """(group, left, right) of the starting panels, ordered by group and left edge.

    Group j spans [lo[j], hi[j]]. Its inner edges are the two points where
    h_s(u) = g(u) g(u + s), s >= 0, changes character, u = 0 and u = -s, and
    a ladder on both sides of each: 0 + r and -s - r outward, -r and -s + r
    inward up to the midpoint, for r = r0, 2 r0, 4 r0, ... with
    r0 = min(2 pi T, Lc). The poles of the Bose factor at w = 2 pi i k T put
    a singularity of g at distance 2 pi T from each of the two points, and a
    GK15 panel converges fast once it keeps about its own half-width away
    from it; at small T, h also falls off as exp(u / 2T) from u = 0 towards
    -s, a drop that a panel with no edge near 0 can step over unseen. Lc is
    the scale of the Gaussian cutoff.
    """
    ladder = _ladder(bath, np.max(hi - lo))
    zero = np.zeros((s.size, 1))
    s = s[:, None]
    between = np.where(ladder < 0.5 * s, ladder, np.inf)
    inner = np.hstack([zero, -s, zero + ladder, -s - ladder, -between, between - s])
    inner[(inner <= lo[:, None]) | (inner >= hi[:, None])] = np.inf
    edges = np.sort(np.column_stack([lo, hi, inner]), axis=1)
    keep = np.isfinite(edges)
    keep[:, 1:] &= edges[:, 1:] != edges[:, :-1]
    group, col = np.nonzero(keep)
    flat = edges[group, col]
    same = group[1:] == group[:-1]
    return group[:-1][same], flat[:-1][same], flat[1:][same]


def _panel_nodes(bath: BathSpec, a, b, s):
    """Half-widths, GK15 nodes u and h_s(u) = g(u) g(u + s) of panels [a, b] with sums s."""
    half = 0.5 * (b - a)
    u = (0.5 * (a + b))[:, None] + half[:, None] * _XGK
    g = jump_spectral(bath, np.concatenate([u, u + s[:, None]]))
    return half, u, g[:a.size] * g[a.size:]


def _take_rows(work, k, a, index):
    """a[index] for a 2-D a, written to a view of work[k], the k-th flat buffer
    of the list work; a buffer that is short is replaced by one a quarter
    larger than needed.

    `f_values` hands one list to all its chunks, so the large gathers of
    `_pair_panel_sums` reuse one allocation instead of each being mapped
    and unmapped by the C allocator.
    """
    n = index.size * a.shape[1]
    if work[k].size < n:
        work[k] = np.empty(n + n // 4)
    # every panel index is in range by construction; the default
    # mode="raise" would gather into a temporary of the output's size and
    # copy it over, "clip" writes into the view directly
    return np.take(a, index, axis=0, out=work[k][:n].reshape(index.size, a.shape[1]),
                   mode="clip")


def _pair_panel_sums(pair, panel, c, hc, half, u, h, work):
    """Kronrod integrals and error estimates of (h(u) - h(c)) / (u - c) on (pair, panel) entries.

    Pair k has the Cauchy point c[k] and h(c) = hc[k]; panel j the
    half-width half[j], nodes u[j] and values h[j]. The error is |K15 - G7|
    plus, on the panel that holds c, the rounding of h(u) - h(c) divided by
    u - c at each node. That term grows without bound as a node nears c, so
    such a panel is halved until c sits clear of its nodes; a node exactly
    at c contributes 0 and an infinite error. Row reductions, not BLAS
    products, so an entry's sums do not depend on the batch. The two
    (entries, 15) gathers live in the two buffers of work (`_take_rows`).
    """
    y = _take_rows(work, 0, h, panel)
    y -= hc[pair, None]
    d = _take_rows(work, 1, u, panel)
    d -= c[pair, None]
    holds = np.flatnonzero(np.abs(d[:, 7]) < half[panel])  # node 7 is the midpoint
    dist = np.abs(d[holds])
    hit_row, hit_node = np.nonzero(dist == 0.0)
    d[holds[hit_row], hit_node] = 1.0
    dist[hit_row, hit_node] = 1.0
    y /= d
    y[holds[hit_row], hit_node] = 0.0
    rounding = np.zeros(pair.size)
    spread = (np.take(h, panel[holds], axis=0) + hc[pair[holds], None]) / dist
    rounding[holds] = _H_ROUNDING * half[panel[holds]] * np.einsum("ij,j->i", spread, _WGK)
    rounding[holds[hit_row]] = np.inf
    half = half[panel]
    k15 = half * np.einsum("ij,j->i", y, _WGK)
    g7 = half * np.einsum("ij,j->i", y, _WG)
    return k15, np.abs(k15 - g7) + rounding


def _sum_group_chunk(bath: BathSpec, c, group, s, lo, hi, tail, quad: QuadratureSpec, work):
    """Unscaled PV integrals, error sums and failed mask of a chunk of swap classes.

    Class k is PV Int h_s(u) / (u - c[k]) du with s = s[group[k]]; `group`
    is sorted and numbers the chunk's sum groups 0, 1, ... Group j
    integrates over [lo[j], hi[j]] on one panel set whose nodes carry the
    one evaluation of h_s. Class k adds Int (h_s(u) - h_s(c)) / (u - c)
    over every panel of its group to h_s(c) log((hi - c) / (c - lo)), and
    tail[k], the bound of its group's Bose-tail cut, to its error sum.
    Globally adaptive GK15: while a class's error sum exceeds
    max(atol, rtol |total|), its panels whose error is at least a quarter
    of its worst are halved, for every live class of the group at once; a
    panel may be halved at most `_MAX_DEPTH` times. The entries stay ordered
    by (class, left edge), so the `bincount` totals add each class's panels
    in one order whatever else is in the chunk; converged classes, and the
    panels of groups with none left, drop out. Each (class, panel) is
    evaluated once; work is the gather workspace of `_pair_panel_sums`.
    Returns (totals, error sums, failed mask).
    """
    n = c.size
    pg, a, b = _initial_panels(bath, lo, hi, s)
    depth = np.zeros(a.size, dtype=int)
    half, u, h = _panel_nodes(bath, a, b, s[pg])
    gc = jump_spectral(bath, np.concatenate([c, c + s[group]]))
    hc = gc[:n] * gc[n:]
    log_term = hc * np.log((hi[group] - c) / (c - lo[group]))

    # one entry per class and panel of its group, ordered by (class, left edge)
    count = np.bincount(pg, minlength=s.size)[group]
    pair = np.repeat(np.arange(n), count)
    offset = np.cumsum(count) - count - np.searchsorted(pg, group)
    panel = np.arange(pair.size) - np.repeat(offset, count)
    vals, errs = _pair_panel_sums(pair, panel, c, hc, half, u, h, work)
    active = np.ones(n, dtype=bool)
    totals = np.zeros(n)
    total_errs = np.zeros(n)
    failed = np.zeros(n, dtype=bool)

    while True:
        total = np.bincount(pair, vals, minlength=n) + log_term
        total_err = np.bincount(pair, errs, minlength=n) + tail
        converged = total_err <= np.maximum(quad.atol, quad.rtol * np.abs(total))
        worst = np.zeros(n)
        np.maximum.at(worst, pair, errs)
        mark = (errs >= 0.25 * worst[pair]) & (depth[panel] < _MAX_DEPTH) & ~converged[pair]
        stuck = np.bincount(pair, mark, minlength=n) == 0
        settled = active & (converged | stuck)
        totals[settled] = total[settled]
        total_errs[settled] = total_err[settled]
        failed |= settled & ~converged
        active &= ~settled
        if not active.any():
            break

        # a marked panel becomes its two halves in its own place; the
        # panels of groups with no live class go
        split = np.zeros(a.size, dtype=bool)
        split[panel[mark]] = True
        live = np.zeros(s.size, dtype=bool)
        live[group[active]] = True
        width = live[pg] * (1 + split)
        moved = np.cumsum(width) - width
        left = moved[split]
        mid = 0.5 * (a[split] + b[split])
        idx = np.repeat(np.arange(a.size), width)
        pg, a, b, depth, half, u, h = (v[idx] for v in (pg, a, b, depth, half, u, h))
        b[left] = mid
        a[left + 1] = mid
        fresh = np.concatenate([left, left + 1])
        depth[fresh] += 1
        half[fresh], u[fresh], h[fresh] = _panel_nodes(bath, a[fresh], b[fresh], s[pg[fresh]])

        # so does each live entry on a halved panel
        keep = active[pair]
        pair, panel, vals, errs = pair[keep], panel[keep], vals[keep], errs[keep]
        halved = split[panel]
        width = 1 + halved
        left = (np.cumsum(width) - width)[halved]
        idx = np.repeat(np.arange(pair.size), width)
        pair, panel, vals, errs = pair[idx], moved[panel][idx], vals[idx], errs[idx]
        panel[left + 1] += 1
        fresh = np.concatenate([left, left + 1])
        vals[fresh], errs[fresh] = _pair_panel_sums(pair[fresh], panel[fresh], c, hc, half, u, h,
                                                    work)
    return totals, total_errs, failed


def f_values(bath: BathSpec, e1, e2, quad: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """f(e1[k], e2[k]) = -2 pi gamma PV Int g(w - e1[k]) g(w + e2[k]) / w dw for every k.

    With u = w - E1, f(E1, E2) = -2 pi gamma PV Int h_s(u) / (u - c) du,
    h_s(u) = g(u) g(u + s), s = E1 + E2 and the Cauchy point c = -E1. The
    swap mirror (-E2, -E1) is the same integral shifted by s, so each swap
    class {(E1, E2), (-E2, -E1)} is integrated once, as its member with
    s >= 0; classes with the same (|s|, c) merge, and so do signed zeros.
    Classes whose sums agree within `_SUM_RTOL` form a sum group, integrated
    at its smallest sum on one shared panel set (`_sum_group_chunk`).

    A value is the integral at its group's representative sum, over the
    union of its group's ranges, which contains the pair's own w in
    [-Wmax, Wmax] less a Bose tail whose part the error sum bounds
    (`QuadratureSpec`). It depends on the other members of its sum group
    (the representative, the range and the shared panels) and on nothing else;
    only a group of more than `_CHUNK_PAIRS` classes is cut into runs with
    panels of their own. So a value may move within its error target when
    the batch around it changes, while for one set of pairs the values are
    bitwise the same in any order and on every rerun.

    ValueError if any argument is not finite. QuadratureError, carrying the
    best estimate, its error bound and `.pair`, if some class cannot meet
    its tolerance within the subdivision budget; `.pair` is the first input
    pair, as given, whose class failed, the estimate and bound those of the
    class.
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

    s = e1 + e2
    key = np.empty(e1.size, dtype=complex)  # sorts by real part, then imaginary
    key.real = np.abs(s)
    key.imag = np.where(s < 0, e2, -e1) + 0.0  # c of the member with s >= 0; -0.0 -> 0.0
    key, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    c = key.imag.copy()
    wmax = np.abs(e1[first]) + np.abs(e2[first]) + _OMEGA_MAX_PAD * bath.cutoff
    label, rep = _sum_groups(key.real)
    del s, key

    # a sum group, or its run in a chunk, integrates over the union of its
    # classes' [c - Wmax, c + Wmax] with its Bose tail cut
    chunks = list(_chunks(label))
    opens = np.zeros(c.size, dtype=bool)
    opens[np.flatnonzero(np.diff(label)) + 1] = True
    opens[[start for start, _ in chunks]] = True
    head = np.flatnonzero(opens)
    run = np.cumsum(opens) - 1
    sums = rep[label[head]]
    lo, tail = _tail_cut(bath, c, np.minimum.reduceat(c - wmax, head), run, sums, quad)
    hi = np.maximum.reduceat(c + wmax, head)

    values = np.empty(c.size)
    errors = np.empty(c.size)
    failed = np.zeros(c.size, dtype=bool)
    work = [np.empty(0), np.empty(0)]
    for start, stop in chunks:
        chunk = slice(start, stop)
        runs = slice(run[start], run[stop - 1] + 1)
        totals, errors[chunk], failed[chunk] = _sum_group_chunk(
            bath, c[chunk], run[chunk] - run[start], sums[runs], lo[runs], hi[runs], tail[chunk],
            quad, work)
        values[chunk] = scale * totals
    if failed.any():
        k = np.flatnonzero(failed)
        k = k[np.argmin(first[k])]
        target = max(quad.atol, quad.rtol * abs(values[k] / scale))
        raise QuadratureError(
            f"adaptive quadrature hit max depth {_MAX_DEPTH} with "
            f"error {errors[k]:.3e} > target {target:.3e}; loosen rtol or atol",
            estimate=float(values[k]),
            error_bound=float(errors[k]) * abs(scale),
            pair=(float(e1[first[k]]), float(e2[first[k]])),
        )
    return values[inverse]

