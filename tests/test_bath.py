import math
import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import (
    _CHUNK_PAIRS,
    _TAIL_SHARE,
    _pair_panel_sums,
    _panel_nodes,
    _sum_group_chunk,
    _tail_cut,
    _take_rows,
    bose_weight_branches,
    f_integral_loop,
    f_values_every_pair,
    f_values_full_range,
    f_values_gk15,
    lamb_shift_f,
    lamb_shift_pairs_unique,
    trapezoid_pv,
)
from ule import (
    BathSpec,
    QuadratureError,
    QuadratureSpec,
    SpinChainSpec,
    bohr_decompose,
    build_chain_hamiltonian,
    eigendecompose,
    f_values,
    jump_spectral,
    kms_check,
)
from ule.bath import _ROWS, _bose_weight, graded_rule
from ule.spinchain import chain_channels


# the default quadrature, under which the chain's Lamb-shift pairs are tested
QUAD = QuadratureSpec()


def make_bath(T=2.0, gamma=0.1, cutoff=100.0):
    return BathSpec(temperature=T, coupling=gamma, cutoff=cutoff)


def chain_lamb(n_sites, **spec_args):
    """(spec, channel, bohr) of the N-site chain, other spec fields as given."""
    spec = SpinChainSpec(N=n_sites, **spec_args)
    channel = chain_channels(spec)[0]
    bohr = bohr_decompose(channel.coupling_op, eigendecompose(build_chain_hamiltonian(spec)))
    return spec, channel, bohr


def chain4_lamb():
    """(spec, channel, bohr) of the N = 4 chain, whose Lamb-shift sum has 2,219 f pairs."""
    return chain_lamb(4)


def assert_within_target(values, reference, bath, quad):
    """|f - reference| <= max(atol, rtol |reference|), the quadrature target in units of f."""
    target = np.maximum(2.0 * np.pi * bath.coupling * quad.atol, quad.rtol * np.abs(reference))
    assert np.all(np.abs(np.asarray(values) - reference) <= target)


def test_bath_spec_validation():
    with pytest.raises(ValueError):
        BathSpec(temperature=0.0, coupling=0.1, cutoff=100.0)
    with pytest.raises(ValueError):
        BathSpec(temperature=1.0, coupling=-0.1, cutoff=100.0)
    with pytest.raises(ValueError):
        BathSpec(temperature=1.0, coupling=0.1, cutoff=0.0)
    bath = make_bath(T=4.0)
    assert bath.beta * bath.temperature == pytest.approx(1.0, abs=1e-14)


def test_g_zero_frequency_limit():
    bath = make_bath(T=3.7)
    expected = math.sqrt(3.7) / (2.0 * math.pi)
    assert jump_spectral(bath, 0.0) == pytest.approx(expected, rel=1e-14)
    # series limit cross-check: evaluate J at +-1e-6 and extrapolate
    eps = 1e-6
    j_plus = (2 * math.pi * jump_spectral(bath, eps)) ** 2
    j_minus = (2 * math.pi * jump_spectral(bath, -eps)) ** 2
    assert 0.5 * (j_plus + j_minus) == pytest.approx(3.7, rel=1e-9)


def test_g_kms_ratio_forced_by_formula():
    bath = make_bath(T=2.0)
    ratio = jump_spectral(bath, -1.0) / jump_spectral(bath, 1.0)
    assert ratio == pytest.approx(math.exp(-0.25), rel=1e-13)


def test_g_gaussian_tail():
    bath = make_bath(cutoff=5.0)
    assert jump_spectral(bath, 20 * 5.0) < 1e-40


def test_g_nonnegative_and_real():
    rng = np.random.default_rng(8)
    for _ in range(5):
        bath = make_bath(T=float(rng.uniform(0.2, 10)), cutoff=float(rng.uniform(1, 200)))
        w = rng.uniform(-400, 400, size=200)
        g = jump_spectral(bath, w)
        assert np.all(np.isfinite(g))
        assert np.all(g >= 0)


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
def test_bose_weight_matches_branch_oracle(beta):
    # exp(-beta w) overflows below beta w = -709.78 and the branch form's
    # exp(beta w) underflows below -745; between them the weight is ~1e-306
    half = np.array([0.0, 1e-12, 1.0, 700.0 / beta, 710.0 / beta, 744.0 / beta,
                     2000.0 / beta])
    w = np.concatenate([-half[:0:-1], half])
    got = _bose_weight(w, beta)
    assert np.array_equal(got, bose_weight_branches(w, beta))
    assert got[w == 0][0] == 1.0 / beta
    assert got[w == -710.0 / beta][0] > 0


def test_kms_relation_property():
    rng = np.random.default_rng(17)
    for _ in range(10):
        bath = make_bath(T=float(rng.uniform(0.3, 8.0)),
                         cutoff=float(rng.uniform(5.0, 150.0)))
        samples = np.concatenate([
            np.logspace(-3, np.log10(10 * bath.cutoff), 100), [0.0]])
        assert kms_check(bath, samples) <= 1e-12


def test_kms_negative_control():
    # remove the Gaussian on one side: the relation must break at O(1)
    bath = make_bath(cutoff=2.0)

    def corrupted(w):
        w = np.asarray(w, dtype=float)
        g = jump_spectral(bath, w)
        return np.where(w < 0, g * np.exp(w * w / (2 * bath.cutoff**2)), g)

    w = np.logspace(-1, 1, 50)
    dev = np.abs(corrupted(-w) - np.exp(-0.5 * bath.beta * w) * corrupted(w))
    rel = np.max(dev / corrupted(w))
    assert rel > 0.1


def test_f_zero_coupling_short_circuits():
    bath = make_bath(gamma=0.0)
    assert f_values(bath, [1.0, 0.0], [-2.0, 0.0]).tolist() == [0.0, 0.0]


def test_f_swap_symmetry():
    # the integrand is literally identical under (E1, E2) -> (-E2, -E1)
    bath = make_bath()
    rng = np.random.default_rng(23)
    for _ in range(6):
        e1, e2 = rng.uniform(-5, 5, size=2)
        a = f_values(bath, [e1], [e2])[0]
        b = f_values(bath, [-e2], [-e1])[0]
        assert b == pytest.approx(a, rel=1e-12, abs=1e-14)


def test_f_against_trapezoid_oracle_reference_point():
    bath = make_bath(T=2.0, gamma=0.1, cutoff=100.0)
    quad = QuadratureSpec()
    value = f_values(bath, [1.0], [-1.0], quad)[0]

    def h(w):
        return jump_spectral(bath, w - 1.0) * jump_spectral(bath, w - 1.0)

    wmax = 1.0 + 1.0 + 8.0 * bath.cutoff
    oracle = -2.0 * math.pi * bath.coupling * trapezoid_pv(h, 0.0, wmax)
    assert value == pytest.approx(oracle, rel=1e-6)


def test_f_against_trapezoid_oracle_grid():
    bath = make_bath(T=2.0, gamma=0.1, cutoff=20.0)
    quad = QuadratureSpec()
    grid = [-3.0, -1.0, 0.0, 1.5, 4.0]
    for e1 in grid:
        for e2 in grid:
            def h(w, e1=e1, e2=e2):
                return jump_spectral(bath, w - e1) * jump_spectral(bath, w + e2)

            wmax = abs(e1) + abs(e2) + 8.0 * bath.cutoff
            oracle = -2.0 * math.pi * bath.coupling * trapezoid_pv(h, 0.0, wmax)
            value = f_values(bath, [e1], [e2], quad)[0]
            assert value == pytest.approx(oracle, rel=1e-6, abs=1e-12)


def test_f_tail_control():
    # the rule stops at w = max(|E1|, |E2|) + 8 Lc; the dense trapezoid out
    # to |E1| + |E2| + 16 Lc moves f by less than the error bound
    bath = make_bath()
    quad = QuadratureSpec()
    for e1, e2 in ((0.5, 0.5), (2.0, -1.0), (-3.0, 0.0)):
        a = f_values(bath, [e1], [e2], quad)[0]

        def h(w, e1=e1, e2=e2):
            return jump_spectral(bath, w - e1) * jump_spectral(bath, w + e2)

        wmax = abs(e1) + abs(e2) + 16.0 * bath.cutoff
        b = -2.0 * math.pi * bath.coupling * trapezoid_pv(h, 0.0, wmax)
        bound = max(quad.atol, abs(a) * quad.rtol)
        assert abs(a - b) < 2.0 * bound


def test_f_quadrature_failure_carries_estimate():
    # rounding alone keeps the estimate above a target of 1e-30 |f|
    bath = make_bath()
    strict = QuadratureSpec(rtol=1e-30, atol=1e-300)
    with pytest.raises(QuadratureError,
                       match="57 nodes: error estimate .* loosen rtol or atol") as info:
        f_values(bath, [1.0], [-1.0], strict)
    err = info.value
    assert np.isfinite(err.estimate)
    assert err.error_bound > 0
    assert err.pair == (1.0, -1.0)
    # the failed estimate is still in the right neighbourhood
    good = f_values(bath, [1.0], [-1.0])[0]
    assert err.estimate == pytest.approx(good, rel=1e-2)


def test_f_table_matches_per_group_call_bitwise():
    # a value depends on its own pair and on nothing else: one call on all
    # 49 pairs agrees bitwise with one call per sum group and with one-pair
    # calls
    bath = make_bath()
    quad = QuadratureSpec()
    gaps = [0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0]
    pairs = [(a, b) for a in gaps for b in gaps]
    table = dict(zip(pairs, f_values(bath, *np.array(pairs).T, quad).tolist()))
    assert len(table) == 49
    for total in {abs(a + b) for a, b in pairs}:
        group = [p for p in pairs if abs(p[0] + p[1]) == total]
        assert [table[p] for p in group] == f_values(bath, *np.array(group).T, quad).tolist()
    single = [f_values(bath, [a], [b], quad)[0] for a, b in pairs]
    assert [table[p] for p in pairs] == single


def test_f_table_deduplicates_and_handles_empty():
    # repeated pairs merge into one class and get the one-pair value
    bath = make_bath()
    repeated = f_values(bath, [1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
    assert repeated.tolist() == 3 * f_values(bath, [1.0], [2.0]).tolist()
    assert f_values(bath, [], []).shape == (0,)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(rtol=0.0)
    for name in ("rtol", "atol"):
        for value in (np.inf, np.nan, -1.0):
            with pytest.raises(ValueError, match="finite and positive"):
                QuadratureSpec(**{name: value})


def test_f_values_match_per_pair_loop_on_chain_lamb_pairs():
    spec, channel, bohr = chain4_lamb()
    e1, e2 = lamb_shift_pairs_unique(bohr)
    values = f_values(channel.bath, e1, e2, QUAD)
    loop = np.array([f_integral_loop(channel.bath, a, b, QUAD) for a, b in zip(e1, e2)])
    assert e1.size == 2219
    assert_within_target(values, loop, channel.bath, QUAD)


def test_f_values_match_per_pair_loop_on_random_pairs():
    bath = make_bath(T=1.3, gamma=0.2, cutoff=30.0)
    quad = QuadratureSpec()
    rng = np.random.default_rng(41)
    e1, e2 = rng.uniform(-20.0, 20.0, size=(2, 50))
    values = f_values(bath, e1, e2, quad)
    loop = np.array([f_integral_loop(bath, a, b, quad) for a, b in zip(e1, e2)])
    assert_within_target(values, loop, bath, quad)


def test_f_values_resolve_a_sharp_bose_step_at_large_sums():
    # at T = 0.05, g(w - E1) g(w + E2) falls off as exp(10 w) across each
    # Bose step; a GK15 panel that steps over such a drop with both of its
    # rules reports convergence up to 1.7e-4 away from f (1.7e4 times the
    # target). The graded rule takes up to 9,369 nodes here.
    bath = make_bath(T=0.05)
    quad = QuadratureSpec()
    rng = np.random.default_rng(3)
    e1, e2 = rng.uniform(150.0, 200.0, size=(2, 40)) * rng.choice([-1.0, 1.0], size=(2, 40))
    e1[:10], e2[:10] = np.abs(e1[:10]), np.abs(e2[:10])
    values = f_values(bath, e1, e2, quad)
    tight = f_values_every_pair(bath, e1, e2, QuadratureSpec(rtol=1e-11, atol=1e-15))
    assert_within_target(values, tight, bath, quad)


def test_f_values_do_not_depend_on_batching():
    # more than two blocks of `_ROWS` pairs, in input order and shuffled
    # across blocks
    bath = make_bath()
    quad = QuadratureSpec()
    rng = np.random.default_rng(5)
    e1, e2 = rng.uniform(-6.0, 6.0, size=(2, 572))
    assert e1.size > 2 * _ROWS
    single = np.array([f_values(bath, [a], [b], quad)[0] for a, b in zip(e1, e2)])
    assert np.array_equal(f_values(bath, e1, e2, quad), single)
    perm = rng.permutation(e1.size)
    assert np.array_equal(f_values(bath, e1[perm], e2[perm], quad), single[perm])


@pytest.mark.parametrize("n_sites", [4, 5])
def test_f_values_match_every_pair_oracle_on_chain_lamb_pairs(n_sites):
    # the folded kernel on every pair as given; a permuted input and a
    # rerun are bitwise the same
    spec, channel, bohr = chain_lamb(n_sites)
    e1, e2 = lamb_shift_pairs_unique(bohr)
    values = f_values(channel.bath, e1, e2, QUAD)
    assert_within_target(values, f_values_every_pair(channel.bath, e1, e2, QUAD),
                         channel.bath, QUAD)
    perm = np.random.default_rng(n_sites).permutation(e1.size)
    assert np.array_equal(f_values(channel.bath, e1[perm], e2[perm], QUAD), values[perm])
    assert np.array_equal(f_values(channel.bath, e1, e2, QUAD), values)


def test_f_values_match_every_pair_oracle_on_swap_classes():
    # random pairs and their mirrors, self-mirror pairs (w, -w), signed
    # zeros and exact duplicates, shuffled across more than four blocks of
    # `_ROWS` pairs
    bath = make_bath(T=1.3, gamma=0.2, cutoff=30.0)
    quad = QuadratureSpec()
    rng = np.random.default_rng(17)
    a, b = rng.uniform(-8.0, 8.0, size=(2, 552))
    w = rng.uniform(-8.0, 8.0, size=20)
    zeros1 = [0.0, -0.0, 0.0, -0.0, -0.0, 2.5, 1.5, -0.0]
    zeros2 = [0.0, 0.0, -0.0, -0.0, -2.5, 0.0, -0.0, -1.5]
    e1 = np.concatenate([a, -b, w, zeros1, a[:30], -b[30:40]])
    e2 = np.concatenate([b, -a, -w, zeros2, b[:30], -a[30:40]])
    perm = rng.permutation(e1.size)
    e1, e2 = e1[perm], e2[perm]
    assert e1.size > 4 * _ROWS
    values = f_values(bath, e1, e2, quad)
    assert_within_target(values, f_values_every_pair(bath, e1, e2, quad), bath, quad)
    # a pair and its mirror are bitwise equal, and so are the signed zeros
    mirrored = dict(zip(zip(-e2, -e1), values))
    assert all(mirrored[(x, y)] == v for x, y, v in zip(e1, e2, values))
    assert np.unique(values[np.isin(perm, np.arange(2 * a.size + 20, 2 * a.size + 24))]).size == 1


def test_f_values_hazards_are_finite_and_within_target(monkeypatch):
    # for the GK15 oracle, (-16, -16) is the class s = 32, c = -16, which is
    # the midpoint and so the centre node of its starting panel [-32, 0],
    # where (h(u) - h(c)) / (u - c) is 0/0; two Cauchy points one ulp apart
    # (of the N = 5 chain); s = 0, the matched pairs f(w, -w); E1 = 0;
    # signed zeros. Both the library and the oracle stay finite and within
    # target; a RuntimeWarning would fail the test.
    bath = make_bath()
    quad = QuadratureSpec()
    near = [25.809016994374950, 25.809016994374954]
    assert near[1] == np.nextafter(near[0], np.inf)
    e1 = np.array([-16.0, 16.0, -near[0], -near[1], -near[0], -near[1], 1.0, -2.5, 40.0,
                   0.0, 0.0, -0.0, 0.0, -0.0, 3.0])
    e2 = np.array([-16.0, 16.0, 3.0, 3.0, 1.0, 1.0, -1.0, 2.5, -40.0,
                   1.0, -2.0, 5.0, -0.0, 0.0, -0.0])
    hits = []

    def recording(pair, panel, c, hc, half, u, h, work):
        vals, errs = _pair_panel_sums(pair, panel, c, hc, half, u, h, work)
        hits.extend(c[pair[np.isinf(errs)]].tolist())
        return vals, errs

    monkeypatch.setattr(oracles, "_pair_panel_sums", recording)
    reference = f_values_every_pair(bath, e1, e2, quad)
    for values in (f_values(bath, e1, e2, quad), f_values_gk15(bath, e1, e2, quad)):
        assert np.all(np.isfinite(values))
        assert_within_target(values, reference, bath, quad)
        assert values[0] == values[1]
    # the exact hit was caught, charged an infinite error and refined away
    assert hits == [-16.0]


def test_lamb_shift_f_is_exactly_swap_symmetric():
    # w_(K-1-i) = -w_i exactly, and the triple (n, l, m) carries the mirror
    # (-w_j, -w_i) of the pair (w_i, w_j) of the triple (m, l, n)
    spec, channel, bohr = chain4_lamb()
    assert np.array_equal(bohr.frequencies[::-1], -bohr.frequencies)
    f = lamb_shift_f(bohr, channel.bath, QUAD)
    live = bohr.coupling_eigen != 0
    assert np.array_equal(f != 0.0, live[:, :, None] & live[None, :, :])
    assert np.array_equal(f, f.transpose(2, 1, 0))


def test_f_values_integrate_each_swap_class_once(monkeypatch):
    # the GK15 oracle: 2,219 pairs in 1,163 swap classes and 64 sum groups,
    # one panel set each
    spec, channel, bohr = chain4_lamb()
    e1, e2 = lamb_shift_pairs_unique(bohr)
    sizes, groups = [], []

    def counting(bath, c, group, s, *args):
        sizes.append(c.size)
        groups.append(s.size)
        return _sum_group_chunk(bath, c, group, s, *args)

    monkeypatch.setattr(oracles, "_sum_group_chunk", counting)
    f_values_gk15(channel.bath, e1, e2, QUAD)
    assert e1.size == 2219
    assert sum(sizes) == 1163
    assert sum(groups) == 64
    assert len(sizes) > 1
    assert max(sizes) <= _CHUNK_PAIRS


# Under STRICT, `f_values` meets its target on (0, 0), (2, -1) and (40, -30),
# with estimates near 2.5e-16 |f|, and misses it on NEAR_ZERO, two pairs
# within 1e-4 of a zero of f at T = 2, where the rounding of terms of
# about 1e4 |f| puts the estimate near 5e-11 |f|. With a panel halved at
# most once (`depth_one`), the GK15 oracle converges on (0, 0) and (2, -1)
# and not on (40, -30) and (0, 3); the folded loops miss on NEAR_ZERO too.
STRICT = QuadratureSpec(rtol=1e-13, atol=1e-300)
NEAR_ZERO = ((-120.5, 100.0), (-83.88, 150.0))


@pytest.fixture
def depth_one(monkeypatch):
    monkeypatch.setattr(oracles, "_MAX_DEPTH", 1)


def test_adaptive_chunk_sums_no_empty_panel_batch(monkeypatch):
    # the GK15 oracle: the sweep ends once no class is live instead of
    # evaluating nothing, g runs once per panel node and each (class,
    # panel) entry is evaluated once; under STRICT, (40, -30) and (0, 3)
    # settle by hitting _MAX_DEPTH
    spec, channel, bohr = chain4_lamb()
    e1, e2 = lamb_shift_pairs_unique(bohr)
    panels, entries, chunk = [], [], []

    def chunk_counting(*args):
        chunk.append(len(chunk))
        return _sum_group_chunk(*args)

    def node_counting(bath, a, b, s):
        assert a.size > 0
        panels.extend(zip([chunk[-1]] * a.size, s.tolist(), a.tolist(), b.tolist()))
        return _panel_nodes(bath, a, b, s)

    def entry_counting(pair, panel, c, hc, half, u, h, work):
        assert pair.size > 0
        entries.extend(zip([chunk[-1]] * pair.size, pair.tolist(), u[panel, 7].tolist(),
                           half[panel].tolist()))
        return _pair_panel_sums(pair, panel, c, hc, half, u, h, work)

    monkeypatch.setattr(oracles, "_sum_group_chunk", chunk_counting)
    monkeypatch.setattr(oracles, "_panel_nodes", node_counting)
    monkeypatch.setattr(oracles, "_pair_panel_sums", entry_counting)
    f_values_gk15(channel.bath, e1, e2, QUAD)
    monkeypatch.setattr(oracles, "_MAX_DEPTH", 1)
    with pytest.raises(QuadratureError):
        f_values_gk15(make_bath(), [0.0, 0.0, 40.0, 2.0], [0.0, 3.0, -30.0, -1.0], STRICT)
    assert len(chunk) > 2
    assert len(set(panels)) == len(panels)
    assert len(set(entries)) == len(entries)


@pytest.mark.usefixtures("depth_one")
@pytest.mark.parametrize("first", NEAR_ZERO)
def test_f_table_failure_names_first_failing_pair_in_input_order(first):
    # the failing pairs are not the first ones and not in the order of
    # their spans
    bath = make_bath()
    other, = (p for p in NEAR_ZERO if p != first)
    with pytest.raises(QuadratureError) as info:
        f_values(bath, *zip((0.0, 0.0), first, (2.0, -1.0), other), STRICT)
    err = info.value
    assert err.pair == first
    # a value depends on its own pair only, so nothing else in the batch
    # changes its estimate
    with pytest.raises(QuadratureError) as alone:
        f_values(bath, [first[0]], [first[1]], STRICT)
    assert (err.estimate, err.error_bound) == (alone.value.estimate, alone.value.error_bound)
    # the folded loop fails too, with an estimate within its own bound of this one
    with pytest.raises(QuadratureError) as loop:
        f_integral_loop(bath, *first, STRICT)
    assert abs(err.estimate - loop.value.estimate) <= loop.value.error_bound


@pytest.mark.usefixtures("depth_one")
def test_f_values_failure_names_the_input_member_of_its_swap_class():
    # under STRICT, (-100, 120.5) fails, and it is the mirror of (-120.5, 100)
    bath = make_bath()
    e1, e2 = [0.0, -100.0, 40.0, 2.0], [0.0, 120.5, -30.0, -1.0]
    with pytest.raises(QuadratureError) as info:
        f_values(bath, e1, e2, STRICT)
    err = info.value
    assert err.pair == (-100.0, 120.5)
    with pytest.raises(QuadratureError) as mirror:
        f_values(bath, [-120.5], [100.0], STRICT)
    assert mirror.value.pair == (-120.5, 100.0)
    assert (err.estimate, err.error_bound) == (mirror.value.estimate, mirror.value.error_bound)
    with pytest.raises(QuadratureError) as as_given:
        f_values_every_pair(bath, [-100.0], [120.5], STRICT)
    assert abs(err.estimate - as_given.value.estimate) <= as_given.value.error_bound


@pytest.mark.parametrize("bad", [(math.nan, 0.0), (1.0, math.inf), (-math.inf, 2.0)])
def test_f_table_rejects_non_finite_pair_anywhere(bad):
    # checked before any quadrature, even behind a pair that would fail
    bath = make_bath()
    with pytest.raises(ValueError):
        f_values(bath, *zip((0.0, 0.0), NEAR_ZERO[0], bad), STRICT)
    with pytest.raises(ValueError):
        f_values(bath, [bad[0]], [bad[1]])


@pytest.mark.parametrize("e1, e2", [([0.0, 1.0], [1.0]), ([[0.0, 1.0]], [[1.0, 2.0]])],
                         ids=["lengths", "2d"])
def test_f_values_refuses_arguments_that_do_not_pair(e1, e2):
    with pytest.raises(ValueError, match="two 1-D arrays of the same length"):
        f_values(make_bath(), e1, e2)


def test_take_rows_gathers_into_the_workspace_without_a_temporary():
    # the GK15 oracle's gather: 20,000 rows of 15, one gather is 2.4 MB;
    # numpy's default mode="raise" gathers into a temporary of that size
    # before copying it out
    rng = np.random.default_rng(0)
    a = rng.uniform(size=(3000, 15))
    index = rng.integers(0, a.shape[0], size=20_000)
    work = [np.empty(0), np.empty(0)]
    _take_rows(work, 1, a, index)
    buffer = work[1]
    tracemalloc.start()
    try:
        got = _take_rows(work, 1, a, index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert work[1] is buffer
    assert np.shares_memory(got, buffer)
    assert np.array_equal(got, a[index])
    assert peak < got.nbytes // 20


def _record_tail_cuts(monkeypatch):
    """Wrap `_tail_cut`; each call appends (range of each class, lo before, lo after, bounds)."""
    calls = []

    def recording(bath, c, lo, group, s, quad):
        new_lo, tail = _tail_cut(bath, c, lo, group, s, quad)
        calls.append((group, lo, new_lo, tail))
        return new_lo, tail

    monkeypatch.setattr(oracles, "_tail_cut", recording)
    return calls


def test_no_entry_lies_below_its_groups_tail_cut(monkeypatch):
    # the GK15 oracle on the N = 5 chain at T1 = 2: every (class, panel)
    # entry the kernel evaluates lies above its sum group's cut, and the cut
    # removes about a quarter of the entries of the full range (165,993 of
    # them)
    spec, channel, bohr = chain_lamb(5)
    e1, e2 = lamb_shift_pairs_unique(bohr)
    cuts = _record_tail_cuts(monkeypatch)
    ranges, entries = [], []

    def chunk(bath, c, group, s, lo, hi, tail, quad, work):
        ranges.append((group, lo))
        return _sum_group_chunk(bath, c, group, s, lo, hi, tail, quad, work)

    def counting(pair, panel, c, hc, half, u, h, work):
        group, lo = ranges[-1]
        assert np.all(u[panel, 7] + half[panel] > lo[group[pair]])
        entries.append(pair.size)
        return _pair_panel_sums(pair, panel, c, hc, half, u, h, work)

    monkeypatch.setattr(oracles, "_sum_group_chunk", chunk)
    monkeypatch.setattr(oracles, "_pair_panel_sums", counting)
    f_values_gk15(channel.bath, e1, e2, QUAD)
    (_, before, after, tail), = cuts
    assert np.array_equal(np.concatenate([lo for _, lo in ranges]), after)
    assert np.all(after > before)
    assert np.all(tail <= _TAIL_SHARE * QUAD.atol)
    cut_entries = sum(entries)
    entries.clear()
    f_values_full_range(channel.bath, e1, e2, QUAD)
    assert sum(entries) == 165_993
    assert cut_entries < 0.8 * sum(entries)


@pytest.mark.parametrize("temperature", [0.05, 0.2, 2.0, 20.0, 50.0])
def test_tail_cut_matches_full_range_oracle(monkeypatch, temperature):
    # the GK15 oracle on the N = 4 chain's Lamb pairs and random pairs with their mirrors and
    # some (0, w) pairs, whose range ends where the cut would go: each
    # value is within its target of the full range, a class whose group
    # keeps its range is bitwise the full range's, mirrors stay bitwise equal
    spec, _, bohr = chain4_lamb()
    bath = make_bath(T=temperature)
    quad = QUAD
    rng = np.random.default_rng(11)
    a, b = rng.uniform(-30.0, 30.0, size=(2, 200))
    w = rng.uniform(0.0, 30.0, size=10)
    chain = lamb_shift_pairs_unique(bohr)
    randoms = (np.concatenate([a, -b, np.zeros(10), -w]), np.concatenate([b, -a, w, np.zeros(10)]))
    cuts = _record_tail_cuts(monkeypatch)
    chunks = []

    def recording(*args):
        out = _sum_group_chunk(*args)
        chunks.append(out[0])
        return out

    monkeypatch.setattr(oracles, "_sum_group_chunk", recording)
    kept = 0
    for e1, e2 in (chain, randoms):
        cuts.clear()
        chunks.clear()
        values = f_values_gk15(bath, e1, e2, quad)
        cut = np.concatenate(chunks)
        chunks.clear()
        assert_within_target(values, f_values_full_range(bath, e1, e2, quad), bath, quad)
        full = np.concatenate(chunks)
        (run, before, after, _), = cuts
        same = (after == before)[run]
        assert np.array_equal(cut[same], full[same])
        assert not same.all()
        kept += int(same.sum())
        mirrored = dict(zip(zip(-e2, -e1), values))
        assert all(mirrored[(x, y)] == v for x, y, v in zip(e1, e2, values))
    if temperature == 50.0:
        assert kept > 0


# the GK15 oracle at rtol 1e-12, the reference for the w rule of `f_values`
REFERENCE = QuadratureSpec(rtol=1e-12, atol=1e-15)


def assert_matches_gk15(bath, e1, e2):
    """f_values within its target of the GK15 oracle, with at most 20,000 nodes."""
    assert graded_rule(bath, np.maximum(np.abs(e1), np.abs(e2)))[0].max() <= 20_000
    assert_within_target(f_values(bath, e1, e2, QUAD), f_values_gk15(bath, e1, e2, REFERENCE),
                         bath, QUAD)


@pytest.mark.parametrize("temperature", [0.05, 50.0])
def test_f_values_match_gk15_oracle_on_chain_lamb_pairs(temperature):
    # at T1 = 0.05 the folded oracle misses its own default target here
    spec, channel, bohr = chain_lamb(4, T1=temperature)
    assert_matches_gk15(channel.bath, *lamb_shift_pairs_unique(bohr))


@pytest.mark.parametrize("temperature", [0.05, 0.2, 2.0, 20.0, 50.0])
def test_f_values_match_gk15_oracle_on_random_pairs(temperature):
    e1, e2 = np.random.default_rng(29).uniform(-40.0, 40.0, size=(2, 400))
    assert_matches_gk15(make_bath(T=temperature), e1, e2)


def test_f_values_meet_the_default_target_next_to_zeros_of_f():
    # within 1e-4 of a zero, |f| is about 1e-4 of the integrand's scale;
    # the estimate's cube is taken relative to that scale, not to |f|, so
    # the default target (atol there) is met instead of missed by 1e3. The
    # reference is the folded loop: the GK15 oracle stops at an infinite
    # error sum below atol 1e-12 here, and the dense trapezoid is off by
    # 2e-11 where its nodes next to w = 0 are not exactly symmetric.
    bath = make_bath()
    reference = QuadratureSpec(rtol=1e-12, atol=1e-14)
    for e1, e2 in NEAR_ZERO + ((-120.4963852, 100.0), (-159.52, 80.0), (-67.21, 200.0)):
        assert_within_target(f_values(bath, [e1], [e2], QUAD),
                             f_integral_loop(bath, e1, e2, reference), bath, QUAD)
