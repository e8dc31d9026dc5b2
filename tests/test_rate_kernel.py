"""Tests for the batched rate kernel: high-precision values at length 4096,
and batch results equal to single-point results bit for bit."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catcodes.search as search
from catcodes import (
    Basis,
    CatCodeSpec,
    ConcatSpec,
    best_threshold_scan,
    cat_rate,
    code_rate,
    code_rates,
    concat_rate,
    evaluate_family,
    make_family,
    threshold,
)
from catcodes import PauliChannel, _kernel, catcode, concat
from catcodes.channels import BASIS_SLOTS, family_probs
from catcodes._kernel import _compositions
from conftest import EDGE_CHANNELS, random_channels

DEPOL = make_family("depolarizing")
NINE_TO_ONE = make_family("independent_xz_ratio", {"ratio": 9.0})
HUNDRED_TO_ONE = make_family("independent_xz_ratio", {"ratio": 100.0})
BATCH = [0.0] + [(i + 1) / 64 for i in range(64)]


def mp_cat_rate(ch, m: int, dps: int = 60):
    """Cat rate by direct summation over the m weight classes in mpmath."""
    with mpmath.workdps(dps):
        p_i, p_x, p_y, p_z = (mpmath.mpf(v) for v in ch.probs)
        alpha, abar, beta, bbar = p_x + p_y, p_i + p_z, p_x - p_y, p_i - p_z
        acc = mpmath.mpf(0)
        mult = mpmath.mpf(1)  # C(m - 1, r)
        for r in range(m):
            if r:
                mult = mult * (m - r) / r
            a0, a1 = alpha**r * abar ** (m - r), alpha ** (m - r) * abar**r
            b0, b1 = beta**r * bbar ** (m - r), beta ** (m - r) * bbar**r
            total = a0 + a1
            if total == 0:
                continue
            h = mpmath.mpf(0)
            for joint in (a0 + b0, a1 + b1, a1 - b1, a0 - b0):
                c = joint / (2 * total)
                if c > 0:
                    h -= c * mpmath.log(c, 2)
            acc += mult * total * (1 - h)
        return acc / m


@pytest.mark.parametrize(
    "family,p",
    [
        (NINE_TO_ONE, 0.005),
        (NINE_TO_ONE, 0.012669120820529128),
        (NINE_TO_ONE, 0.015),
        (NINE_TO_ONE, 0.02),
        (HUNDRED_TO_ONE, 0.01665125376318335),
    ],
)
def test_length_4096_matches_high_precision(family, p):
    # These points used to raise InvalidDistributionError: the conditional
    # probabilities summed to 1 -/+ 1.5e-12, past PauliChannel's check.
    ch = evaluate_family(family, p)
    got = cat_rate(ch, CatCodeSpec(4096))
    assert math.isfinite(got)
    assert abs(got - mp_cat_rate(ch, 4096)) <= 1e-15


@pytest.mark.dispatch
@pytest.mark.parametrize(
    "code",
    [
        None,
        CatCodeSpec(1),
        CatCodeSpec(5),
        CatCodeSpec(40),
        CatCodeSpec(4096),
        ConcatSpec(CatCodeSpec(5, Basis.Z), CatCodeSpec(5, Basis.X)),
        ConcatSpec(CatCodeSpec(3, Basis.Z), CatCodeSpec(19, Basis.X)),
    ],
)
@pytest.mark.parametrize("family", [DEPOL, NINE_TO_ONE])
def test_batch_equals_single_point_bit_for_bit(family, code):
    batch = code_rates(family, code, BATCH)
    single = [code_rate(family, code, p) for p in BATCH]
    assert all(math.isfinite(v) for v in single)
    assert batch.tolist() == single
    assert code_rates(family, code, []).tolist() == []
    # The channel path gives the family path's bits too; hashing is the 1-cat code.
    spec = CatCodeSpec(1) if code is None else code
    rate = concat_rate if isinstance(spec, ConcatSpec) else cat_rate
    channel = [rate(evaluate_family(family, p), spec).hex() for p in BATCH]
    assert channel == [x.hex() for x in batch.tolist()]


@pytest.mark.parametrize(
    "family,code",
    [
        (DEPOL, None),
        (DEPOL, CatCodeSpec(5)),
        (DEPOL, ConcatSpec(CatCodeSpec(5, Basis.Z), CatCodeSpec(5, Basis.X))),
        (NINE_TO_ONE, CatCodeSpec(33)),
    ],
)
def test_threshold_same_as_point_by_point_prescan(family, code, monkeypatch):
    batched = threshold(family, code, tol=1e-6)
    rates = search.code_rates  # the stub must not call code_rate, which goes through it

    def pointwise(family, code, ps):
        return np.concatenate([rates(family, code, [p]) for p in ps])

    monkeypatch.setattr(search, "code_rates", pointwise)
    single = threshold(family, code, tol=1e-6)
    assert (batched.p_star, batched.bracket, batched.evaluations, batched.warning) == (
        single.p_star,
        single.bracket,
        single.evaluations,
        single.warning,
    )


@pytest.mark.parametrize("basis", [Basis.X, Basis.Y])
def test_basis_by_slot_index_equals_relabelled_channels(basis, channels20):
    # The rates index the channel slots of `basis`; relabelling the channel objects
    # by the same slots and evaluating them in Z must give the same bits.  A length-1
    # code has no stabilizers and reads the physical frame in any basis, so at m = 1
    # the channels are not relabelled.
    chs = channels20 + EDGE_CHANNELS
    relabelled = [PauliChannel(*(ch.probs[i] for i in BASIS_SLOTS[basis])) for ch in chs]

    def bits(rate, chs, spec):
        return [rate(ch, spec).hex() for ch in chs]

    for m in (1, 2, 5, 33):
        want = bits(cat_rate, chs if m == 1 else relabelled, CatCodeSpec(m))
        assert bits(cat_rate, chs, CatCodeSpec(m, basis)) == want
    for n, big_m in ((2, 3), (3, 5), (4, 1)):
        for outer in Basis:
            got = bits(concat_rate, chs, ConcatSpec(CatCodeSpec(n, basis), CatCodeSpec(big_m, outer)))
            want = bits(concat_rate, relabelled, ConcatSpec(CatCodeSpec(n), CatCodeSpec(big_m, outer)))
            assert got == want


@pytest.mark.parametrize("basis", list(Basis))
def test_a_length_one_code_is_the_same_code_in_every_basis(basis):
    # Hashing is the 1-cat code; its basis labels no stabilizer, so every basis gives
    # the Z bits, as a cat code and as an outer code.
    chs = random_channels(20261019, 20) + EDGE_CHANNELS
    for ch in chs:
        assert cat_rate(ch, CatCodeSpec(1, basis)).hex() == cat_rate(ch, CatCodeSpec(1)).hex()
        for inner in (CatCodeSpec(2), CatCodeSpec(3, Basis.X), CatCodeSpec(5, Basis.Y)):
            got = concat_rate(ch, ConcatSpec(inner, CatCodeSpec(1, basis)))
            assert got.hex() == concat_rate(ch, ConcatSpec(inner, CatCodeSpec(1))).hex()


def _recursive_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


def test_compositions_in_lexicographic_order():
    # The order fixes the summation order, and with it the last bits of a rate.
    for total in range(7):
        for parts in range(1, 6):
            firsts, comps = zip(*_compositions(total, parts))
            assert list(comps) == list(_recursive_compositions(total, parts))
            # Each composition names the first count that differs from the previous one.
            prevs = [(-1,) * parts] + list(comps[:-1])
            assert list(firsts) == [
                next(t for t in range(parts) if comp[t] != prev[t]) for prev, comp in zip(prevs, comps)
            ]


def test_compositions_of_more_parts_than_the_recursion_limit():
    units = [comp for _, comp in _compositions(1, 1200)]
    # Lexicographic: the unit in the last part comes first.
    assert units == [tuple(int(i == t) for i in range(1200)) for t in reversed(range(1200))]


def reference_class_vectors(factors, k):
    """One class's flip-count vectors at the single count k, built on their own as the
    kernel once built each (class, count): scaled (a0, b0) over j = 0..k, (2, P, k+1),
    with binomial C(k, j) included, and the log s of the largest C(k, j) a0(j) at each
    point, (P,)."""
    log_fact = np.array([math.lgamma(j + 1) for j in range(k + 1)])
    log_c = log_fact[k] - (log_fact + log_fact[::-1])
    neg_b, neg_bbar = factors[4:]
    powers = np.zeros((4, len(neg_b), k + 1))  # j log x, 0 at j = 0: alpha, abar, |beta|, |bbar|
    np.multiply(np.array(factors[:4])[..., None], np.arange(1, k + 1), out=powers[..., 1:])
    log_ab0 = log_c + powers[0::2] + powers[1::2, :, ::-1]
    alternating = np.ones(k + 1)
    alternating[1::2] = -1.0  # (-1)^j; reversed, (-1)^(k-j)
    sign_b0 = (np.where(neg_b[:, None], alternating, 1.0)
               * np.where(neg_bbar[:, None], alternating[::-1], 1.0))
    s = log_ab0[0].max(axis=1)
    out = np.exp(log_ab0 - s[:, None])
    out[1] *= sign_b0
    return out, s


def rebuilt_rate_sums(log_w, probs, big_m):
    """`_kernel.rate_sums` with every composition's cells formed from all of its
    class vectors, each built on its own, and its log scale summed from lgamma(M + 1),
    in one chunk (a point's sum does not depend on its batch)."""
    n, points = log_w.shape
    classes = list(zip(*_kernel.factors(probs)))
    total = np.zeros(points)
    for _, comp in _compositions(big_m, n):
        parts = []
        log_scale = np.full(points, math.lgamma(big_m + 1))
        for t, k in enumerate(comp):
            if k:
                vec, s = reference_class_vectors(classes[t], k)
                parts.append(vec)
                log_scale += k * log_w[t] + s - math.lgamma(k + 1)
        grid = parts[0]
        for i, vec in enumerate(parts[1:], 1):
            grid = grid[..., None] * vec.reshape(vec.shape[:2] + (1,) * i + vec.shape[2:])
        grid = grid.reshape(grid.shape[:2] + (-1,))
        scale = np.exp(log_scale)
        if scale.any():
            cells = grid.shape[-1]
            half = (cells + 1) // 2
            g = _kernel._gains(*_kernel._conditionals(grid[..., :half], grid[..., :-half - 1:-1]))
            middle = cells // 2  # the middle cell, if any, counts once for its pair
            s = g[:, :middle].sum(axis=1)
            total += scale * (s + 0.5 * g[:, middle] if cells % 2 else s)
    return total


def hexes(values) -> list:
    return [x.hex() for x in values.tolist()]


@pytest.mark.parametrize(
    "n,big_m", [(1, 5), (2, 3), (3, 5), (5, 5), (4, 1), (12, 2), (30, 2), (2, 9), (4, 7), (6, 3)]
)
def test_shared_prefixes_keep_the_summation_order(n, big_m, channels20):
    # Reusing the cells a composition shares with the previous one, and evaluating
    # runs of compositions together, must not reassociate a product, a log-scale sum
    # or a composition's sum.  The noiseless channel gives classes of probability 0:
    # evaluated alone, their compositions add terms of 0, and their counts of 0
    # carry a prefix unchanged.
    probs = np.array([ch.probs for ch in channels20 + EDGE_CHANNELS])
    for batch in [probs] + [row[None] for row in probs[len(channels20):]]:
        log_w, cond = _kernel.inner_ensemble(batch, n)
        assert hexes(_kernel.rate_sums(log_w, cond, big_m)) == hexes(rebuilt_rate_sums(log_w, cond, big_m))


def test_a_batch_over_the_cell_budget_is_evaluated_in_runs(channels20, monkeypatch):
    # 3-in-19 at 27 points holds far more than CELL_BUDGET points x cells, so its
    # compositions fall into several runs, some of one composition (read in place)
    # and some of several (joined); the bits must not notice.
    probs = np.array([ch.probs for ch in channels20 + EDGE_CHANNELS])
    log_w, cond = _kernel.inner_ensemble(probs, 3)
    runs = []
    add_terms = _kernel._add_terms

    def recorded(run, *args):
        runs.append(len(run))
        return add_terms(run, *args)

    monkeypatch.setattr(_kernel, "_add_terms", recorded)
    got = _kernel.rate_sums(log_w, cond, 19)
    assert len(probs) * 42_504 > _kernel.CELL_BUDGET
    assert len(runs) > 1 and 1 in runs and max(runs) > 1
    assert sum(runs) == 210
    assert hexes(got) == hexes(rebuilt_rate_sums(log_w, cond, 19))
    # At three times the points, the first halves of the largest compositions (8 x 7 x 7
    # cells) no longer fit the buffer and are evaluated in chunks.
    log_w, cond = np.tile(log_w, 3), np.tile(cond, (1, 3, 1))
    assert 3 * len(probs) * (8 * 7 * 7 // 2) > _kernel.CELL_BUDGET
    assert hexes(_kernel.rate_sums(log_w, cond, 19)) == hexes(rebuilt_rate_sums(log_w, cond, 19))


def test_a_large_p_grid_is_evaluated_in_slices_of_bounded_memory():
    # One point of the 4096-cat is 4,097 cells, so 1,024 points exceed SLICE_BUDGET;
    # slices must keep the peak small and give the bits of batches of 64 points.
    ps = [0.3 * i / 1023 for i in range(1024)]
    code = CatCodeSpec(4096, Basis.Z)
    assert len(ps) * 4097 > _kernel.SLICE_BUDGET
    tracemalloc.start()
    try:
        got = code_rates(DEPOL, code, ps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 128e6
    assert hexes(got) == hexes(np.concatenate([code_rates(DEPOL, code, ps[i:i + 64]) for i in range(0, 1024, 64)]))


@pytest.mark.dispatch
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), big_m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       picks=st.lists(st.integers(0, len(EDGE_CHANNELS) + 3), min_size=1, max_size=20))
def test_rate_sums_equal_the_per_composition_reference(n, big_m, seed, picks):
    chs = EDGE_CHANNELS + random_channels(seed, 4)
    log_w, cond = _kernel.inner_ensemble(np.array([chs[i].probs for i in picks]), n)
    assert hexes(_kernel.rate_sums(log_w, cond, big_m)) == hexes(rebuilt_rate_sums(log_w, cond, big_m))


def float_bits(values: np.ndarray) -> np.ndarray:
    """The bit patterns of float64 values, which float.hex spells out (no value is NaN)."""
    assert not np.isnan(values).any()
    return np.ascontiguousarray(values).view(np.uint64)


def edge_classes(probs: np.ndarray) -> list:
    """The factors of classes over the rows of probs (P, 4): the rows themselves, and the
    3-cat code's syndrome classes on them."""
    _, cond = _kernel.inner_ensemble(probs, 3)
    return [_kernel.factors(probs)] + [_kernel.factors(c) for c in cond]


@pytest.mark.dispatch
@pytest.mark.parametrize("points", [1, 17])
def test_class_tables_equal_the_per_count_reference(points):
    # A class's tables, built over a range of counts in one pass, hold per count the bits
    # of that count's vectors built on their own, and so do the logs s of their maxima
    # (the callers' scale terms are covered by the rate_sums references).  Ranges: 1..M,
    # their upper halves and single counts for every M <= 40, and the 4096-cat's one
    # count.  The inputs cover zero probabilities, beta < 0 and bbar < 0.
    probs = np.array([ch.probs for ch in random_channels(20261019, 10) + EDGE_CHANNELS])
    # A point's bits do not depend on its batch, so one point at a time takes fewer rows.
    batches = [probs] if points == len(probs) else [row[None] for row in probs[::2]]
    classes = [f for batch in batches for f in edge_classes(batch)]
    assert any(f[4].any() for f in classes) and any(f[5].any() for f in classes)
    ranges = [(lo, hi) for hi in range(1, 41) for lo in sorted({1, hi // 2 + 1, hi})] + [(4096, 4096)]
    for f in classes:
        want = {k: reference_class_vectors(f, k) for k in list(range(1, 41)) + [4096]}
        for lo, hi in ranges:
            tables, s = _kernel._class_vectors(f, lo, hi)
            for k, table, s_k in zip(range(lo, hi + 1), tables, s.T, strict=True):
                assert np.array_equal(float_bits(table), float_bits(want[k][0]))
                assert np.array_equal(float_bits(s_k), float_bits(want[k][1]))


@pytest.mark.dispatch
def test_the_sign_of_a_zero_b_cell_does_not_change_the_conditionals():
    # rate_sums forms its outer products with np.einsum, which computes each cell as
    # np.multiply's one IEEE product but may write +0.0 where that product is -0.0.
    # Only b-cells can be -0.0 (a-cells are products of exp values >= +0), and
    # |b| <= a, so a +- b is the same float with either zero: a +- 0 = a for a != 0,
    # and every sum is +0 for a = +0.  The inputs have beta = 0 with bbar < 0.
    probs = np.array([ch.probs for ch in random_channels(20261019, 10) + EDGE_CHANNELS])
    tables = [_kernel._class_vectors(f, 1, 5)[0] for f in edge_classes(probs)]
    negative_zeros = 0
    for t, (left, right) in enumerate(zip(tables, tables[1:] + tables[:1])):
        for x, y in ((left[t % 5], right[4 - t % 5]), (left[4], right[2])):
            einsum = np.einsum("api,apj->apij", x, y).reshape(2, len(probs), -1)
            product = (x[..., None] * y[:, :, None]).reshape(2, len(probs), -1)
            zero = product == 0.0
            assert np.array_equal(float_bits(einsum[~zero]), float_bits(product[~zero]))
            assert np.array_equal(einsum == 0.0, zero)
            assert not np.signbit(product[0][zero[0]]).any()
            negative_zeros += np.signbit(product[1][zero[1]]).sum()
            flipped = product.copy()
            flipped[1][zero[1]] *= -1.0  # every zero b-cell with the other sign
            half = (product.shape[-1] + 1) // 2
            want = _kernel._conditionals(product[..., :half], product[..., :-half - 1:-1])
            for grid in (einsum, flipped):
                got = _kernel._conditionals(grid[..., :half], grid[..., :-half - 1:-1])
                for g, w in zip(got, want):
                    assert np.array_equal(float_bits(g), float_bits(w))
    assert negative_zeros


def dispatch() -> str:
    """The family of numpy's float64 exp/log/log2 loops that this process runs: "avx512" where
    numpy dispatches to its AVX-512 (AVX512_SKX, part of X86_V4) loops, else "baseline"."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return "avx512" if __cpu_features__.get("AVX512_SKX") else "baseline"


# One frozen value per dispatch family: the loops differ by up to 1 ulp, and a paper-scale rate
# sums millions of their values.  Both read on one AVX-512 Xeon with numpy 2.4.6, "baseline"
# with NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" (so AVX2, with glibc's libm).
PAPER_SCALE = [
    (5, 16, 0.1905, {"avx512": "0x1.87da22536501cp-15", "baseline": "0x1.87da22536502bp-15"}),
    (3, 19, 0.19086, {"avx512": "-0x1.c576f6bb107dcp-24", "baseline": "-0x1.c576f6bb106bdp-24"}),
    (5, 5, 0.18, {"avx512": "0x1.9f9a487d4ab51p-9", "baseline": "0x1.9f9a487d4ab51p-9"}),
]


@pytest.mark.dispatch
@pytest.mark.parametrize("n,big_m,p,want", PAPER_SCALE)
def test_paper_scale_depolarizing_rates_are_frozen(n, big_m, p, want):
    spec = ConcatSpec(CatCodeSpec(n, Basis.Z), CatCodeSpec(big_m, Basis.X))
    assert concat_rate(evaluate_family(DEPOL, p), spec).hex() == want[dispatch()]


def test_one_five_in_sixteen_point_keeps_its_memory_small():
    # A run's arrays are bounded by CELL_BUDGET, not by the code: one point of
    # 5-in-16 (4,845 compositions) must neither peak high nor leave anything behind.
    spec = ConcatSpec(CatCodeSpec(5, Basis.Z), CatCodeSpec(16, Basis.X))
    ch = evaluate_family(DEPOL, 0.1905)
    concat_rate(ch, spec)
    tracemalloc.start()
    try:
        concat_rate(ch, spec)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6
    assert held <= 0.1e6


def test_two_in_two_hundred_keeps_its_memory_small():
    # The class tables are built in ranges of counts as the walk first takes them, so
    # they add little to what the walk holds: 2-in-200 at 8 points peaked at 7.88 MB
    # when each (class, count) was built on its own, and one table per class built up
    # front peaked at 9.94 MB.  The bound is 7.88 MB plus 10 %.
    spec = ConcatSpec(CatCodeSpec(2, Basis.Z), CatCodeSpec(200, Basis.X))
    ps = [0.12 + 0.01 * i for i in range(8)]
    code_rates(DEPOL, spec, ps)
    tracemalloc.start()
    try:
        code_rates(DEPOL, spec, ps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 7.88e6 * 1.1


@pytest.mark.dispatch
def test_several_cat_codes_in_one_pass_equal_each_code_alone(monkeypatch):
    # `_cats_rates` evaluates several cat codes, each on its own points, in one kernel pass;
    # each row must be `_cat_rates` of that code alone, bit for bit.  Rounds: lengths 1 in
    # bases X and Y (the physical frame), uneven point counts padded by repeating the last
    # point, the 4096-cat at one point, and many codes over several CELL_BUDGET runs, with
    # codes of one run each and one evaluated in chunks of its first half.
    probs = np.array([ch.probs for ch in random_channels(20261020, 30) + EDGE_CHANNELS])
    rng = np.random.default_rng(20261020)
    runs = []
    add_terms = _kernel._add_terms

    def recorded(run, *args):
        runs.append(len(run))
        return add_terms(run, *args)

    monkeypatch.setattr(_kernel, "_add_terms", recorded)
    many = [CatCodeSpec(m, list(Basis)[m % 3]) for m in list(range(1, 61)) + [400, 1000]]
    rounds = [
        ([CatCodeSpec(1, Basis.X), CatCodeSpec(1, Basis.Y), CatCodeSpec(1), CatCodeSpec(2, Basis.X),
          CatCodeSpec(3, Basis.Y), CatCodeSpec(5)], [3, 1, 7, 2, 5, 4]),
        ([CatCodeSpec(4096), CatCodeSpec(1, Basis.X), CatCodeSpec(3)], [1, 1, 1]),
        (many, [35] * len(many)),
    ]
    for specs, counts in rounds:
        rows = [probs[rng.choice(len(probs), count)] for count in counts]
        width = max(counts)
        padded = np.array([np.concatenate([r, r[-1:].repeat(width - len(r), axis=0)]) for r in rows])
        runs.clear()
        got = catcode._cats_rates(padded, specs)
        pass_runs = list(runs)  # those of the last round are checked below
        assert got.shape == (len(specs), width)
        for spec, row, rates in zip(specs, rows, got):
            assert hexes(rates[:len(row)]) == hexes(catcode._cat_rates(row, spec))
            # one point at a time, no code's first half takes chunks
            assert hexes(rates[:len(row)]) == [catcode._cat_rates(p[None], spec)[0].hex() for p in row]
    assert 35 * sum(spec.m + 1 for spec in many) > 2 * _kernel.CELL_BUDGET
    assert 35 * (1000 + 2) // 2 > _kernel.CELL_BUDGET  # the 1000-cat's first half takes chunks
    assert len(pass_runs) > 2 and max(pass_runs) > 1 and pass_runs.count(1) >= 2
    assert sum(pass_runs) == len(many)


def test_a_lockstep_scan_keeps_its_memory_small():
    # A lockstep scan holds every length's search and one round's arrays at a time.  Scanning
    # lengths one at a time, m = 1..200 on the 9:1 family peaked at 1.93 MB under
    # tracemalloc; the bound is that plus 10 %.
    best_threshold_scan(NINE_TO_ONE, Basis.Z, range(1, 41), tol=1e-8)
    tracemalloc.start()
    try:
        best_threshold_scan(NINE_TO_ONE, Basis.Z, range(1, 201), tol=1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.93e6 * 1.1


@pytest.mark.dispatch
def test_each_cat_sums_row_is_rate_sums_of_one_class():
    # A cat code is the one-class case of the rate sum, of log weight 0 over M = m blocks, which
    # is what lets `cat_sums` and `rate_sums` share one run former: each row must be that
    # `rate_sums` bit for bit.  Each code reads its own points, at 37 points (the 1000-cat's
    # first half in chunks) and at one point per channel.
    probs = np.array([ch.probs for ch in random_channels(20261021, 30) + EDGE_CHANNELS])
    lengths = [1, 2, 3, 40, 1000, 4096]
    assert len(probs) * (1000 + 2) // 2 > _kernel.CELL_BUDGET
    for picks in [np.arange(len(probs))] + [np.array([i]) for i in range(len(probs))]:
        rows = np.array([probs[(picks + code) % len(probs)] for code in range(len(lengths))])
        got = _kernel.cat_sums(rows, lengths)
        assert got.shape == (len(lengths), len(picks))
        for m, row, sums in zip(lengths, rows, got):
            assert hexes(sums) == hexes(_kernel.rate_sums(np.zeros((1, len(picks))), row[None], m))


@pytest.mark.dispatch
def test_the_run_former_hands_add_terms_no_buffer_over_the_cell_budget(monkeypatch):
    # The kernel frees no array over 768 KiB (see CELL_BUDGET), so the planes' buffer, which
    # grows with the runs, must stay within ten planes of CELL_BUDGET points x cells (640 KiB):
    # at one 5-in-16 point and a 17-point batch, at 81 points of 3-in-19, whose largest
    # compositions take their first halves in chunks at the full size, and over the lockstep
    # scan of m = 1..200.
    sizes = []
    add_terms = _kernel._add_terms

    def recorded(run, flat):
        sizes.append(len(flat))
        return add_terms(run, flat)

    monkeypatch.setattr(_kernel, "_add_terms", recorded)
    five_in_sixteen = ConcatSpec(CatCodeSpec(5, Basis.Z), CatCodeSpec(16, Basis.X))
    code_rates(DEPOL, five_in_sixteen, [0.1905])
    code_rates(DEPOL, five_in_sixteen, [0.17 + 0.002 * i for i in range(17)])
    three_in_nineteen = ConcatSpec(CatCodeSpec(3, Basis.Z), CatCodeSpec(19, Basis.X))
    assert 81 * (8 * 7 * 7 // 2) > _kernel.CELL_BUDGET
    code_rates(DEPOL, three_in_nineteen, [0.3 * i / 80 for i in range(81)])
    assert max(sizes) == 10 * _kernel.CELL_BUDGET
    sizes.clear()
    best_threshold_scan(NINE_TO_ONE, Basis.Z, range(1, 201), tol=1e-8)
    assert len(sizes) > 32 and max(sizes) <= 10 * _kernel.CELL_BUDGET


@pytest.mark.dispatch
def test_pruned_walk_is_a_subsequence_of_the_lexicographic_order():
    # A predicate that depends only on the subtree's prefix declines whole subtrees: the walk
    # yields exactly the compositions none of whose prefixes it declines, in the full order,
    # each with the first count that differs from the previous one yielded, and asks about
    # each subtree once.  Keeping everything is the full walk.
    rng = np.random.default_rng(20261020)
    for total in range(8):
        for parts in range(1, 6):
            for cut in (0.0, 0.2, 0.5, 0.9):
                declined = {}
                asked = []

                def keep(d, comp):
                    assert not any(comp[d + 1:-1]) and sum(comp) == total
                    prefix = (d, tuple(comp[:d + 1]))
                    asked.append(prefix)
                    return not declined.setdefault(prefix, rng.random() < cut)

                got = list(_compositions(total, parts, keep))
                want = [comp for _, comp in _compositions(total, parts)
                        if not any(declined.get((d, comp[:d + 1]), False) for d in range(parts - 1))]
                assert [comp for _, comp in got] == want
                prevs = [(-1,) * parts] + want[:-1]
                assert [first for first, _ in got] == [
                    next(t for t in range(parts) if comp[t] != prev[t]) for prev, comp in zip(prevs, want)]
                assert len(asked) == len(set(asked))
            assert list(_compositions(total, parts, lambda d, comp: True)) == list(_compositions(total, parts))


def composition_weights(log_w: np.ndarray, comps) -> np.ndarray:
    """The multinomial weight M! / prod k_t! prod w_t^k_t of each composition, summed, at each
    point of classes of log weights (n, P); a count of 0 adds a factor 1."""
    total = np.zeros(log_w.shape[1])
    for comp in comps:
        log_weight = np.full(log_w.shape[1], math.lgamma(sum(comp) + 1))
        for t, k in enumerate(comp):
            if k:
                log_weight += k * log_w[t] - math.lgamma(k + 1)
        total += np.exp(log_weight)
    return total


def pruned(log_w, big_m, level=None):
    """The compositions a walk pruned at `level` (`PRUNE_LEVEL` by default) keeps, and the
    remainder and the declined subtrees its pruner gathers on the way."""
    n = log_w.shape[0]
    keep, remainder, declined = _kernel._pruner(log_w, big_m, _kernel.PRUNE_LEVEL if level is None else level)
    return [comp for _, comp in _compositions(big_m, n, keep)], remainder, declined


@pytest.mark.dispatch
@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 6), big_m=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       level=st.sampled_from([1e-1, 1e-2, 1e-3, 1e-5]),
       picks=st.lists(st.integers(0, len(EDGE_CHANNELS) + 3), min_size=1, max_size=8))
def test_visited_and_skipped_weights_add_up_to_one(n, big_m, seed, level, picks):
    # The classes' weights sum to 1, so do the compositions' (multinomial theorem); the pruner's
    # closed-form subtree weights must make up exactly what the walk leaves out, and its
    # declined subtrees hold exactly the compositions the walk skips.  The edge channels give
    # classes of weight 0, whose log weight is -inf.
    chs = EDGE_CHANNELS + random_channels(seed, 4)
    log_w, _ = _kernel.inner_ensemble(np.array([chs[i].probs for i in picks]), n)
    visited, remainder, declined = pruned(log_w, big_m, level)
    assert np.all(np.abs(composition_weights(log_w, visited) + remainder - 1.0) <= 1e-12)
    kept = set(visited)
    skipped = [comp for _, comp in _compositions(big_m, n) if comp not in kept]
    assert skipped == [first[:d + 1] + rest for d, first in declined
                       for _, rest in _compositions(first[-1], n - d - 1)]


@pytest.mark.dispatch
def test_a_walk_of_any_subsequence_gives_the_firsts_of_the_full_walk():
    # `_walk` gives a subsequence of the full order the `first` counts `_compositions` gives it.
    rng = np.random.default_rng(7)
    for total, parts in [(0, 3), (5, 1), (6, 3), (9, 4)]:
        full = list(_compositions(total, parts))
        assert list(_kernel._walk([comp for _, comp in full])) == full
        picked = [comp for _, comp in full if rng.random() < 0.5]
        prevs = [(-1,) * parts] + picked[:-1]
        assert [first for first, _ in _kernel._walk(picked)] == [
            next(t for t in range(parts) if comp[t] != prev[t]) for prev, comp in zip(prevs, picked)]


def walk_sums(log_w, cond, big_m, walk):
    """The in-order sums of the run former's rows over the entries of `walk`."""
    total = np.zeros(log_w.shape[1])
    for terms in _kernel._runs(_kernel._entries(log_w, cond, big_m, walk), log_w.shape[1]):
        total = _kernel._fold(total, terms)
    return total


@pytest.mark.dispatch
@pytest.mark.parametrize("n,big_m", [(3, 5), (4, 7), (3, 19)])
def test_an_unpruned_walk_gives_the_bits_of_rate_sums(n, big_m, channels20):
    probs = np.array([ch.probs for ch in channels20 + EDGE_CHANNELS])
    log_w, cond = _kernel.inner_ensemble(probs, n)
    want = hexes(_kernel.rate_sums(log_w, cond, big_m))
    assert hexes(walk_sums(log_w, cond, big_m, _compositions(big_m, n, lambda d, comp: True))) == want


# Concatenated codes past the gate of the certified pre-scan (2-in-61 to 3-in-20).
CERTIFIED_CODES = [(2, 61), (3, 19), (5, 9), (4, 12), (3, 20)]


@pytest.mark.dispatch
@settings(max_examples=30, deadline=None)
@given(code=st.sampled_from(CERTIFIED_CODES), seed=st.integers(0, 2**32 - 1),
       picks=st.lists(st.integers(0, len(EDGE_CHANNELS) + 3), min_size=1, max_size=8),
       mask=st.integers(0, 2**8 - 1))
def test_certified_signs_are_those_of_the_full_sums(code, seed, picks, mask):
    # Every partial sum is within its remainder (plus the margin, which covers rounding) of the
    # full sum, so a certified sign is the full sum's; completed points get the full bits.
    n, big_m = code
    assert _kernel.capped_counts(n, big_m)[1] >= search.CERTIFIED_PRE_SCAN_CELLS
    chs = EDGE_CHANNELS + random_channels(seed, 4)
    log_w, cond = _kernel.inner_ensemble(np.array([chs[i].probs for i in picks]), n)
    full = _kernel.rate_sums(log_w, cond, big_m)
    visited, remainder, _ = pruned(log_w, big_m)
    sums, certified, complete = _kernel.certified_sums(log_w, cond, big_m)
    assert hexes(sums) == hexes(walk_sums(log_w, cond, big_m, _kernel._walk(visited)))
    assert np.all(np.abs(sums - full) <= remainder + _kernel.SIGN_MARGIN)
    assert certified.tolist() == (np.abs(sums) > remainder + _kernel.SIGN_MARGIN).tolist()
    assert np.all(np.sign(sums[certified]) * np.sign(full[certified]) == 1.0)
    chosen = np.array([bool(mask >> i & 1) for i in range(len(picks))])
    assert hexes(complete(chosen)) == hexes(full[chosen])
    assert hexes(complete(np.ones(len(picks), bool))) == hexes(full)


@pytest.mark.dispatch
def test_a_near_zero_point_falls_back_to_its_full_sum():
    # Two-Pauli noise at p = 1 gives 3-in-19 a rate of about 1e-20, well inside the margin, so
    # no partial sum certifies its sign; p = 0 and p = 0.1 are certified.  Its completion must
    # have the bits of its full sum.
    spec = ConcatSpec(CatCodeSpec(3, Basis.Z), CatCodeSpec(19, Basis.X))
    args = concat._outer_classes(family_probs(make_family("two_pauli"), [0.0, 0.1, 1.0]), spec)
    full = _kernel.rate_sums(*args)
    assert abs(full[2]) < _kernel.SIGN_MARGIN
    sums, certified, complete = _kernel.certified_sums(*args)
    assert certified.tolist() == [True, True, False]
    assert complete(~certified)[0].hex() == full[2].hex()
    # Forced: with a margin of 1, nothing is certified.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "SIGN_MARGIN", 1.0)
        sums, certified, complete = _kernel.certified_sums(*args)
    assert not certified.any() and hexes(complete(~certified)) == hexes(full)


@pytest.mark.dispatch
def test_a_point_within_its_remainder_is_not_certified():
    # On the 9:1 family, 3-in-19's rates at p = 0.2 to 0.3 are 1e-3 to 1e-6 on the sum, well
    # past the margin but within what the pruned walk skips, so only p = 0 is certified.
    spec = ConcatSpec(CatCodeSpec(3, Basis.Z), CatCodeSpec(19, Basis.X))
    args = concat._outer_classes(family_probs(NINE_TO_ONE, [0.0, 0.2, 0.25, 0.3]), spec)
    full = _kernel.rate_sums(*args)
    _, remainder, _ = pruned(args[0], 19)
    sums, certified, complete = _kernel.certified_sums(*args)
    assert np.all(np.abs(sums[1:]) > _kernel.SIGN_MARGIN)
    assert np.all(np.abs(sums[1:]) < remainder[1:])
    assert certified.tolist() == [True, False, False, False]
    assert hexes(complete(~certified)) == hexes(full[1:])


@pytest.mark.dispatch
def test_a_batch_that_needs_slices_is_not_pruned(monkeypatch):
    # The pruner's tables span the whole batch, so a batch that `rate_sums` would cut into
    # slices is summed in full, and no point counts as certified.
    spec = ConcatSpec(CatCodeSpec(3, Basis.Z), CatCodeSpec(19, Basis.X))
    args = concat._outer_classes(family_probs(DEPOL, [0.0, 0.1, 0.15]), spec)
    full = _kernel.rate_sums(*args)
    assert _kernel.certified_sums(*args)[1].all()
    monkeypatch.setattr(_kernel, "SLICE_BUDGET", 2 * 8 * 7 * 7)  # two points of 3-in-19
    sums, certified, complete = _kernel.certified_sums(*args)
    assert not certified.any() and hexes(sums) == hexes(full)
    assert hexes(complete(np.array([False, True, True]))) == hexes(full[1:])
